//! The fetch core: pre-decode (with the Fixed4 per-block cache and the
//! DV-LLC footprint path), TAGE accuracy bookkeeping, and the bounded
//! wrong-path traffic model.

use super::Machine;
use dcfb_frontend::{BranchClass, BtbEntry};
use dcfb_trace::{block_of, Block, Instr, InstrKind};
use std::sync::Arc;

impl Machine {
    /// Pre-decodes `block`, supplying a branch footprint from the
    /// DV-LLC in variable-length mode. Fixed-width decodes are served
    /// from a per-block cache: the program image is static, so a block
    /// only ever decodes one way, and hot blocks are re-decoded by the
    /// prefetchers thousands of times per run.
    pub(crate) fn predecode_block(&mut self, block: Block) -> Arc<[BtbEntry]> {
        if self.predecoder.isa().self_describing_boundaries() {
            Arc::clone(self.cached_branches(block))
        } else {
            let bf = self.uncore.dvllc_mut().and_then(|dv| dv.bf_lookup(block));
            self.predecoder
                .decode(&self.code, block, bf.as_ref())
                .branches
                .into()
        }
    }

    /// The Fixed4 pre-decode of `block`, decoding it on first use.
    /// Only valid for self-describing encodings.
    pub(crate) fn cached_branches(&mut self, block: Block) -> &Arc<[BtbEntry]> {
        let Machine {
            predecode_cache,
            predecoder,
            code,
            ..
        } = self;
        predecode_cache
            .entry(block)
            .or_insert_with(|| predecoder.decode(code, block, None).branches.into())
    }

    pub(crate) fn note_tage(&mut self, correct: bool) {
        self.tage_predictions += 1;
        self.tage_correct += u64::from(correct);
    }

    /// Bounded wrong-path fetches past a mispredicted branch: they
    /// consume external bandwidth and NoC/LLC capacity but are squashed
    /// before polluting the L1i.
    pub(crate) fn wrong_path_traffic(&mut self, i: &Instr, wrong_path_blocks: u32) {
        let wrong_start = if i.redirects() {
            i.fallthrough() // predicted not-taken path
        } else {
            i.target // predicted taken path
        };
        let base = block_of(wrong_start);
        for k in 0..u64::from(wrong_path_blocks) {
            let b = base + k;
            if !self.l1i.contains(b) && !self.mshr.contains(b) {
                let _ = self.uncore.access(self.cycle, b, false, true);
            }
        }
    }
}

pub(crate) fn class_of(kind: InstrKind) -> BranchClass {
    match kind {
        InstrKind::CondBranch { .. } => BranchClass::Conditional,
        InstrKind::Jump => BranchClass::Jump,
        InstrKind::Call => BranchClass::Call,
        InstrKind::IndirectJump => BranchClass::IndirectJump,
        InstrKind::IndirectCall => BranchClass::IndirectCall,
        InstrKind::Return => BranchClass::Return,
        InstrKind::Other => unreachable!("non-branch"),
    }
}
