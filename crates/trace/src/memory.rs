//! The [`CodeMemory`] abstraction: what a pre-decoder can see.
//!
//! Pre-decoding is central to the paper: the Dis prefetcher recovers
//! discontinuity targets by decoding the branch at a recorded offset, and
//! the BTB prefetcher decodes whole blocks to prefill a BTB prefetch
//! buffer. In silicon the pre-decoder reads the block's bytes; in this
//! reproduction it queries the workload's program image through this
//! trait.

use crate::{Block, StaticInstr};

/// Read-only access to the static instructions of the simulated program.
///
/// Implemented by `dcfb-workloads`' program image. Consumers (the
/// pre-decoder in `dcfb-frontend`) must treat the result as the exact
/// content of the named 64-byte block.
pub trait CodeMemory {
    /// Calls `f` with every instruction whose first byte lies in
    /// `block`, in ascending address order. Calls it never for blocks
    /// that hold no code (data, padding, unmapped).
    fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr));

    /// The dense slot of `block`: a small index, unique per block,
    /// assigned to every block that holds code (`None` means the block
    /// holds none). Slots are stable for the life of the code memory
    /// and cluster near zero, so per-block side tables (the simulator's
    /// pre-decode store) can be plain vectors indexed by slot instead
    /// of hash maps keyed by block.
    fn block_slot(&self, block: Block) -> Option<usize>;

    /// The instructions [`CodeMemory::for_each_in_block`] visits,
    /// collected into a vector (empty for blocks that hold no code).
    fn instrs_in_block(&self, block: Block) -> Vec<StaticInstr> {
        let mut instrs = Vec::new();
        self.for_each_in_block(block, &mut |i| instrs.push(*i));
        instrs
    }
}

impl<T: CodeMemory + ?Sized> CodeMemory for &T {
    fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr)) {
        (**self).for_each_in_block(block, f);
    }

    fn block_slot(&self, block: Block) -> Option<usize> {
        (**self).block_slot(block)
    }
}

impl<T: CodeMemory + ?Sized> CodeMemory for Box<T> {
    fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr)) {
        (**self).for_each_in_block(block, f);
    }

    fn block_slot(&self, block: Block) -> Option<usize> {
        (**self).block_slot(block)
    }
}

impl<T: CodeMemory + ?Sized> CodeMemory for std::sync::Arc<T> {
    fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr)) {
        (**self).for_each_in_block(block, f);
    }

    fn block_slot(&self, block: Block) -> Option<usize> {
        (**self).block_slot(block)
    }
}

/// A [`CodeMemory`] reconstructed from an *observed* instruction trace.
///
/// When the simulator replays an external trace (no program image is
/// available), the pre-decoder still needs to see the static
/// instructions of a block. This adapter rebuilds that view from the
/// dynamic stream: every distinct pc that appears in the trace becomes
/// a static instruction, with direct-branch targets taken from the
/// observed resolved targets. Blocks the trace never executed decode as
/// empty — exactly what a pre-decoder warmed only by execution would
/// know, and a conservative under-approximation for prefetchers.
///
/// Slots are assigned in first-observation order as the recording is
/// built, so [`CodeMemory::block_slot`] is the block's index into the
/// recording's dense per-block table.
#[derive(Clone, Debug, Default)]
pub struct RecordedCode {
    /// Block → slot in `blocks`.
    slots: fxhash::FxHashMap<Block, usize>,
    /// Per-slot instructions, in ascending pc order.
    blocks: Vec<Vec<StaticInstr>>,
}

impl RecordedCode {
    /// Creates an empty recording.
    pub fn new() -> Self {
        RecordedCode::default()
    }

    /// Builds a recording from a slice of dynamic instructions.
    pub fn from_trace(instrs: &[crate::Instr]) -> Self {
        let mut rec = RecordedCode::new();
        for i in instrs {
            rec.observe(i);
        }
        rec
    }

    /// Incorporates one dynamic instruction (idempotent per pc).
    pub fn observe(&mut self, i: &crate::Instr) {
        let block = crate::block_of(i.pc);
        let next = self.blocks.len();
        let slot = *self.slots.entry(block).or_insert(next);
        if slot == next {
            self.blocks.push(Vec::new());
        }
        let list = &mut self.blocks[slot];
        match list.binary_search_by_key(&i.pc, |s| s.pc) {
            Ok(_) => {} // already recorded
            Err(pos) => {
                let kind = i.kind.static_kind();
                let target = kind.target_in_encoding().then_some(i.target);
                list.insert(
                    pos,
                    StaticInstr {
                        pc: i.pc,
                        size: i.size,
                        kind,
                        target,
                    },
                );
            }
        }
    }

    /// Number of distinct blocks observed.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of distinct instructions observed.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }
}

impl CodeMemory for RecordedCode {
    fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr)) {
        if let Some(slot) = self.block_slot(block) {
            self.blocks[slot].iter().for_each(f);
        }
    }

    fn block_slot(&self, block: Block) -> Option<usize> {
        self.slots.get(&block).copied()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::{block_base, StaticKind};

    /// A toy code memory with one 4-byte instruction per 16 bytes.
    struct Toy;

    impl CodeMemory for Toy {
        fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr)) {
            if block >= 8 {
                return;
            }
            for i in 0..4 {
                f(&StaticInstr {
                    pc: block_base(block) + i * 16,
                    size: 4,
                    kind: StaticKind::Other,
                    target: None,
                });
            }
        }

        fn block_slot(&self, block: Block) -> Option<usize> {
            (block < 8).then_some(block as usize)
        }
    }

    #[test]
    fn recorded_code_reconstructs_blocks() {
        use crate::{Instr, InstrKind};
        let trace = vec![
            Instr::other(0x1000, 4),
            Instr::branch(0x1004, 4, InstrKind::CondBranch { taken: true }, 0x2000),
            Instr::other(0x2000, 4),
            Instr::branch(0x2004, 4, InstrKind::IndirectCall, 0x3000),
            // Re-execution of the same pcs must not duplicate.
            Instr::other(0x1000, 4),
            Instr::branch(0x1004, 4, InstrKind::CondBranch { taken: false }, 0x2000),
        ];
        let rec = RecordedCode::from_trace(&trace);
        assert_eq!(rec.block_count(), 2);
        assert_eq!(rec.instr_count(), 4);
        let b = rec.instrs_in_block(crate::block_of(0x1000));
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].pc, 0x1000);
        assert_eq!(b[1].kind, StaticKind::CondBranch);
        assert_eq!(b[1].target, Some(0x2000));
        // Indirect targets are NOT in the encoding.
        let b2 = rec.instrs_in_block(crate::block_of(0x2004));
        let call = b2.iter().find(|s| s.pc == 0x2004).unwrap();
        assert_eq!(call.kind, StaticKind::IndirectCall);
        assert_eq!(call.target, None);
        // Unseen blocks decode empty and have no slot; seen blocks get
        // dense slots in first-observation order.
        assert!(rec.instrs_in_block(0xdead).is_empty());
        assert_eq!(rec.block_slot(0xdead), None);
        assert_eq!(rec.block_slot(crate::block_of(0x1000)), Some(0));
        assert_eq!(rec.block_slot(crate::block_of(0x2000)), Some(1));
    }

    #[test]
    fn recorded_code_keeps_instrs_sorted() {
        use crate::Instr;
        let mut rec = RecordedCode::new();
        rec.observe(&Instr::other(0x1008, 4));
        rec.observe(&Instr::other(0x1000, 4));
        rec.observe(&Instr::other(0x1004, 4));
        let b = rec.instrs_in_block(crate::block_of(0x1000));
        let pcs: Vec<u64> = b.iter().map(|s| s.pc).collect();
        assert_eq!(pcs, vec![0x1000, 0x1004, 0x1008]);
    }

    #[test]
    fn blanket_impls_delegate() {
        let toy = Toy;
        let by_ref: &dyn CodeMemory = &toy;
        assert_eq!(by_ref.instrs_in_block(1).len(), 4);
        let boxed: Box<dyn CodeMemory> = Box::new(Toy);
        assert_eq!(boxed.instrs_in_block(2).len(), 4);
        assert!(boxed.instrs_in_block(8).is_empty());
        assert_eq!(boxed.block_slot(2), Some(2));
        assert_eq!(std::sync::Arc::new(Toy).block_slot(9), None);
    }
}
