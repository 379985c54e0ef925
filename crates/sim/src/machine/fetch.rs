//! The fetch core: pre-decode served from the per-run branch store
//! (with the DV-LLC footprint view for variable-length ISAs) and the
//! bounded wrong-path traffic model.

use super::Machine;
use crate::config::WRONG_PATH_BLOCKS;
use dcfb_cache::footprint::{BranchFootprint, BF_CAPACITY};
use dcfb_frontend::{BranchClass, BranchSpan};
use dcfb_trace::{block_of, block_offset, Block, Instr, InstrKind};

impl Machine {
    /// The branches a pre-decode of `block` (whose slot is `slot`)
    /// finds, as a span of the branch store.
    ///
    /// A fixed-width pre-decoder finds every branch. A variable-length
    /// one decodes only at the offsets of the block's DV-LLC branch
    /// footprint (§V-D); the footprint is always the block's first
    /// [`BF_CAPACITY`] branches (see [`Machine::footprint_of`]), so it
    /// finds exactly that prefix of the block's span — and nothing
    /// without a footprint. The `bf_lookup` still runs so the DV-LLC's
    /// footprint hit/miss statistics count every pre-decode.
    pub(crate) fn predecode_span(&mut self, block: Block, slot: Option<usize>) -> BranchSpan {
        let all = self.branches.span(&*self.code, block, slot);
        if self.fixed_boundaries {
            return all;
        }
        match self.uncore.dvllc_mut().and_then(|dv| dv.bf_lookup(block)) {
            Some(bf) => all.prefix(bf.len()),
            None => BranchSpan::EMPTY,
        }
    }

    /// The branch footprint a fill of `block` deposits in the DV-LLC
    /// in variable-length mode: what `BranchFootprint::from_block`
    /// builds, the byte offsets of the block's first [`BF_CAPACITY`]
    /// branches.
    pub(crate) fn footprint_of(&mut self, block: Block) -> BranchFootprint {
        let span = self
            .branches
            .span(&*self.code, block, self.code.block_slot(block));
        let mut bf = BranchFootprint::new();
        for b in self.branches.get(span).iter().take(BF_CAPACITY) {
            bf.push(block_offset(b.pc) as u8);
        }
        bf
    }

    /// Bounded wrong-path fetches past a mispredicted branch: they
    /// consume external bandwidth and NoC/LLC capacity but are squashed
    /// before polluting the L1i.
    pub(crate) fn wrong_path_traffic(&mut self, i: &Instr) {
        let wrong_start = if i.redirects() {
            i.fallthrough() // predicted not-taken path
        } else {
            i.target // predicted taken path
        };
        let base = block_of(wrong_start);
        for k in 0..WRONG_PATH_BLOCKS {
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
