//! Instruction-block pre-decoding.
//!
//! The pre-decoder inspects the bytes of a fetched/prefetched cache
//! block to find branch instructions and extract their targets. It
//! powers three mechanisms in the paper:
//!
//! * **BTB prefilling** (Confluence-style, §V-C): every block missing in
//!   the RLU is pre-decoded and its branches pushed into the BTB
//!   prefetch buffer,
//! * **Dis target extraction** (§V-B): the DisTable stores only a branch
//!   *offset*; the pre-decoder recovers the target,
//! * **reactive BTB fills** in Boomerang/Shotgun.
//!
//! The simulator serves all three from its per-run
//! [`BranchStore`](crate::BranchStore), which decodes each block once;
//! this pre-decoder is the reference that store is tested against.
//!
//! On a fixed-length ISA all 16 slots of a 64-byte block decode in
//! parallel. On a variable-length ISA instruction boundaries are
//! unknown; the pre-decoder needs a *branch footprint* (BF) naming the
//! branch byte-offsets (§V-D), and decodes only at those offsets.

use crate::btb::{BranchClass, BtbEntry};
use dcfb_cache::BranchFootprint;
use dcfb_trace::{Block, CodeMemory, IsaMode, StaticInstr};

/// The result of pre-decoding one cache block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PredecodedBlock {
    /// Branch instructions found in the block, in address order.
    pub branches: Vec<BtbEntry>,
    /// Branches whose target is *not* in the encoding (indirects,
    /// returns): they are reported in `branches` with `target = 0` and
    /// counted here.
    pub unresolved_targets: usize,
    /// For VL-ISA with a footprint: offsets listed in the BF that did
    /// not decode to a branch (stale footprint).
    pub stale_offsets: usize,
}

/// A block pre-decoder over a [`CodeMemory`].
#[derive(Clone, Debug)]
pub struct Predecoder {
    isa: IsaMode,
    decoded_blocks: u64,
    decoded_branches: u64,
}

impl Predecoder {
    /// Creates a pre-decoder for the given ISA mode.
    pub fn new(isa: IsaMode) -> Self {
        Predecoder {
            isa,
            decoded_blocks: 0,
            decoded_branches: 0,
        }
    }

    /// The ISA mode.
    pub fn isa(&self) -> IsaMode {
        self.isa
    }

    /// `(blocks, branches)` decoded so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.decoded_blocks, self.decoded_branches)
    }

    /// Pre-decodes `block`, extracting every branch. On a fixed-length
    /// ISA this needs no side information; on a variable-length ISA it
    /// requires `footprint` and decodes only at the recorded offsets
    /// (without a footprint it returns an empty result — the hardware
    /// cannot find boundaries).
    pub fn decode<M: CodeMemory>(
        &mut self,
        code: &M,
        block: Block,
        footprint: Option<&BranchFootprint>,
    ) -> PredecodedBlock {
        self.decoded_blocks += 1;
        let instrs = code.instrs_in_block(block);
        match self.isa {
            IsaMode::Fixed4 => self.decode_instrs(&instrs, None),
            IsaMode::Variable => match footprint {
                Some(bf) => self.decode_instrs(&instrs, Some(bf)),
                None => PredecodedBlock::default(),
            },
        }
    }

    /// Checks whether the instruction at `byte_offset` in `block` is a
    /// branch, and if so returns its BTB entry (target `0` if not in the
    /// encoding). This is the Dis prefetcher's replay path.
    pub fn decode_at<M: CodeMemory>(
        &mut self,
        code: &M,
        block: Block,
        byte_offset: u32,
    ) -> Option<BtbEntry> {
        let instrs = code.instrs_in_block(block);
        let i = instrs.iter().find(|i| i.byte_offset() == byte_offset)?;
        Self::to_entry(i)
    }

    fn decode_instrs(
        &mut self,
        instrs: &[StaticInstr],
        footprint: Option<&BranchFootprint>,
    ) -> PredecodedBlock {
        let mut out = PredecodedBlock::default();
        match footprint {
            None => {
                for i in instrs {
                    if let Some(e) = Self::to_entry(i) {
                        if e.target == 0 {
                            out.unresolved_targets += 1;
                        }
                        out.branches.push(e);
                    }
                }
            }
            Some(bf) => {
                for &off in bf.offsets() {
                    let at = instrs.iter().find(|i| i.byte_offset() == u32::from(off));
                    match at.and_then(Self::to_entry) {
                        Some(e) => {
                            if e.target == 0 {
                                out.unresolved_targets += 1;
                            }
                            out.branches.push(e);
                        }
                        // No instruction, or no branch, at that offset.
                        None => out.stale_offsets += 1,
                    }
                }
            }
        }
        self.decoded_branches += out.branches.len() as u64;
        out
    }

    fn to_entry(i: &StaticInstr) -> Option<BtbEntry> {
        let class = BranchClass::from_static(i.kind)?;
        Some(BtbEntry {
            pc: i.pc,
            target: i.target.unwrap_or(0),
            class,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use dcfb_trace::{block_base, StaticKind};

    /// A toy code memory: block 1 holds 16 fixed-size instructions, with
    /// branches at slots 3 (cond), 7 (call), 15 (return).
    struct Toy;

    impl CodeMemory for Toy {
        fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr)) {
            if block != 1 {
                return;
            }
            for slot in 0..16u64 {
                let (kind, target) = match slot {
                    3 => (StaticKind::CondBranch, Some(0x400)),
                    7 => (StaticKind::Call, Some(0x800)),
                    15 => (StaticKind::Return, None),
                    _ => (StaticKind::Other, None),
                };
                f(&StaticInstr {
                    pc: block_base(1) + slot * 4,
                    size: 4,
                    kind,
                    target,
                });
            }
        }

        fn block_slot(&self, block: Block) -> Option<usize> {
            (block == 1).then_some(0)
        }
    }

    #[test]
    fn fixed_mode_finds_all_branches() {
        let mut p = Predecoder::new(IsaMode::Fixed4);
        let d = p.decode(&Toy, 1, None);
        assert_eq!(d.branches.len(), 3);
        assert_eq!(d.branches[0].class, BranchClass::Conditional);
        assert_eq!(d.branches[0].target, 0x400);
        assert_eq!(d.branches[1].class, BranchClass::Call);
        assert_eq!(d.branches[2].class, BranchClass::Return);
        assert_eq!(d.unresolved_targets, 1); // the return
        assert_eq!(p.counters(), (1, 3));
    }

    #[test]
    fn empty_block_decodes_empty() {
        let mut p = Predecoder::new(IsaMode::Fixed4);
        let d = p.decode(&Toy, 99, None);
        assert!(d.branches.is_empty());
    }

    #[test]
    fn variable_mode_without_footprint_fails() {
        let mut p = Predecoder::new(IsaMode::Variable);
        let d = p.decode(&Toy, 1, None);
        assert!(d.branches.is_empty());
    }

    #[test]
    fn variable_mode_with_footprint_decodes_at_offsets() {
        let mut p = Predecoder::new(IsaMode::Variable);
        let mut bf = BranchFootprint::new();
        bf.push(12); // slot 3
        bf.push(28); // slot 7
        bf.push(60); // slot 15
        let d = p.decode(&Toy, 1, Some(&bf));
        assert_eq!(d.branches.len(), 3);
        assert_eq!(d.stale_offsets, 0);
    }

    #[test]
    fn stale_footprint_offsets_counted() {
        let mut p = Predecoder::new(IsaMode::Variable);
        let mut bf = BranchFootprint::new();
        bf.push(12); // branch
        bf.push(16); // slot 4: not a branch
        bf.push(13); // not an instruction boundary
        let d = p.decode(&Toy, 1, Some(&bf));
        assert_eq!(d.branches.len(), 1);
        assert_eq!(d.stale_offsets, 2);
    }

    #[test]
    fn decode_at_hits_branch_offset() {
        let mut p = Predecoder::new(IsaMode::Fixed4);
        let e = p.decode_at(&Toy, 1, 12).unwrap();
        assert_eq!(e.class, BranchClass::Conditional);
        assert_eq!(e.target, 0x400);
        // Non-branch offset decodes to None.
        assert!(p.decode_at(&Toy, 1, 16).is_none());
        // Offset that is not an instruction boundary.
        assert!(p.decode_at(&Toy, 1, 13).is_none());
    }
}
