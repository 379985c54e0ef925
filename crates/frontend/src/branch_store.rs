//! The dense per-run branch store: every code block's pre-decoded
//! branches, decoded once and kept in one arena.
//!
//! Pre-decoding is the proactive engine's inner loop (§V-C): every RLU
//! miss pre-decodes a block into the BTB prefetch buffer, and every Dis
//! replay decodes one branch at a recorded offset (§V-B). The program
//! is static, so a block always holds the same branches; the store
//! decodes each block the first time it is asked for and hands out
//! [`BranchSpan`]s — `Copy` (start, len) pairs into a single
//! `Vec<BtbEntry>` arena — from then on.
//!
//! Blocks are addressed by [`CodeMemory::block_slot`], a dense index
//! the code memory assigns to every block that holds code, so a lookup
//! is one vector index: no hashing and no reference counts. The caller
//! resolves the slot once per event and indexes its other per-block
//! state with it too (the simulator's CMAL latencies and telemetry
//! records live in `dcfb_telemetry::SlotTable`s, the same layout with a
//! fallback map for blocks without a slot). A first decode reads the
//! block's instructions in place through
//! [`CodeMemory::for_each_in_block`].

use crate::btb::{BranchClass, BtbEntry};
use dcfb_trace::{Block, CodeMemory};

/// A run of branches in a [`BranchStore`] arena (or any arena built
/// with [`BranchSpan::push`]). Spans are plain indices: they stay
/// valid for as long as the arena only grows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchSpan {
    start: u32,
    len: u32,
}

impl BranchSpan {
    /// The span of no branches.
    pub const EMPTY: BranchSpan = BranchSpan { start: 0, len: 0 };

    /// Appends `branches` to `arena` and returns their span.
    pub fn push(arena: &mut Vec<BtbEntry>, branches: &[BtbEntry]) -> BranchSpan {
        let start = arena.len() as u32;
        arena.extend_from_slice(branches);
        BranchSpan {
            start,
            len: branches.len() as u32,
        }
    }

    /// Number of branches in the span.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the span holds no branches.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The first `n` branches of the span (all of them if it is
    /// shorter).
    pub fn prefix(self, n: usize) -> BranchSpan {
        BranchSpan {
            start: self.start,
            len: self.len.min(n as u32),
        }
    }

    /// The branches of the span within `arena`.
    pub fn resolve(self, arena: &[BtbEntry]) -> &[BtbEntry] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

/// Slot state: `0` means "not decoded yet"; otherwise the low 32 bits
/// hold `len + 1` and the high 32 bits the arena start. One word per
/// slot, and a zero-filled table is all-undecoded.
const UNDECODED: u64 = 0;

fn pack(span: BranchSpan) -> u64 {
    (u64::from(span.start) << 32) | (u64::from(span.len) + 1)
}

fn unpack(packed: u64) -> BranchSpan {
    BranchSpan {
        start: (packed >> 32) as u32,
        len: (packed as u32) - 1,
    }
}

/// Every block's branches, in address order, decoded once per run.
///
/// The store decodes with full knowledge of instruction boundaries (as
/// a fixed-width pre-decoder would); a variable-length view is a prefix
/// of the same span (see [`BranchSpan::prefix`]).
#[derive(Clone, Debug, Default)]
pub struct BranchStore {
    /// Block slot → packed span (see [`UNDECODED`]).
    slots: Vec<u64>,
    arena: Vec<BtbEntry>,
}

impl BranchStore {
    /// An empty store; it allocates as blocks are first decoded.
    pub fn new() -> Self {
        BranchStore::default()
    }

    /// The branches of `block` in `code`, decoding the block on first
    /// use. `slot` is `code.block_slot(block)`, which the caller has
    /// already resolved (it indexes its other per-block tables with
    /// it too). Blocks without a slot hold no code and decode empty.
    #[inline]
    pub fn span<M: CodeMemory + ?Sized>(
        &mut self,
        code: &M,
        block: Block,
        slot: Option<usize>,
    ) -> BranchSpan {
        let Some(slot) = slot else {
            return BranchSpan::EMPTY;
        };
        match self.slots.get(slot) {
            Some(&packed) if packed != UNDECODED => unpack(packed),
            _ => self.decode(code, block, slot),
        }
    }

    /// First decode of `block` into the arena: the code memory hands
    /// over its instructions in place, and only the branches are kept.
    #[cold]
    fn decode<M: CodeMemory + ?Sized>(
        &mut self,
        code: &M,
        block: Block,
        slot: usize,
    ) -> BranchSpan {
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, UNDECODED);
        }
        let start = self.arena.len() as u32;
        let arena = &mut self.arena;
        code.for_each_in_block(block, &mut |i| {
            if let Some(class) = BranchClass::from_static(i.kind) {
                arena.push(BtbEntry {
                    pc: i.pc,
                    target: i.target.unwrap_or(0),
                    class,
                });
            }
        });
        let span = BranchSpan {
            start,
            len: self.arena.len() as u32 - start,
        };
        self.slots[slot] = pack(span);
        span
    }

    /// The branches of `span`.
    pub fn get(&self, span: BranchSpan) -> &[BtbEntry] {
        span.resolve(&self.arena)
    }

    /// The arena every span of this store indexes.
    pub fn arena(&self) -> &[BtbEntry] {
        &self.arena
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use dcfb_trace::{block_base, StaticInstr, StaticKind};

    /// Blocks 1..=3 hold code (slots 0..=2); block 2 has no branches.
    struct Toy;

    impl CodeMemory for Toy {
        fn for_each_in_block(&self, block: Block, f: &mut dyn FnMut(&StaticInstr)) {
            if !(1..=3).contains(&block) {
                return;
            }
            for slot in 0..16u64 {
                let kind = match (block, slot) {
                    (1 | 3, 2) => StaticKind::CondBranch,
                    (1 | 3, 9) => StaticKind::Return,
                    _ => StaticKind::Other,
                };
                f(&StaticInstr {
                    pc: block_base(block) + slot * 4,
                    size: 4,
                    kind,
                    target: (kind == StaticKind::CondBranch).then_some(0x4000),
                });
            }
        }

        fn block_slot(&self, block: Block) -> Option<usize> {
            (1..=3).contains(&block).then(|| block as usize - 1)
        }
    }

    #[test]
    fn decodes_once_and_serves_spans() {
        let mut s = BranchStore::new();
        let a = s.span(&Toy, 3, Toy.block_slot(3));
        assert_eq!(a.len(), 2);
        assert_eq!(s.get(a)[0].class, BranchClass::Conditional);
        assert_eq!(s.get(a)[0].target, 0x4000);
        assert_eq!(s.get(a)[1].target, 0, "return targets are not encoded");
        let arena = s.arena().len();
        assert_eq!(s.span(&Toy, 3, Toy.block_slot(3)), a);
        assert_eq!(s.arena().len(), arena, "second lookup must not decode");
        assert!(s.span(&Toy, 2, Toy.block_slot(2)).is_empty());
        assert!(s.span(&Toy, 99, Toy.block_slot(99)).is_empty());
        let b = s.span(&Toy, 1, Toy.block_slot(1));
        let shifted: Vec<BtbEntry> = s
            .get(a)
            .iter()
            .map(|e| BtbEntry {
                pc: e.pc - 2 * 64,
                ..*e
            })
            .collect();
        assert_eq!(s.get(b), shifted.as_slice());
    }

    #[test]
    fn prefix_and_push() {
        let mut arena = Vec::new();
        let e = |pc| BtbEntry {
            pc,
            target: 1,
            class: BranchClass::Jump,
        };
        let a = BranchSpan::push(&mut arena, &[e(1), e(2), e(3)]);
        let b = BranchSpan::push(&mut arena, &[e(4)]);
        assert_eq!(a.resolve(&arena).len(), 3);
        assert_eq!(b.resolve(&arena), &[e(4)]);
        assert_eq!(a.prefix(2).resolve(&arena), &[e(1), e(2)]);
        assert_eq!(b.prefix(4), b);
        assert!(BranchSpan::EMPTY.resolve(&arena).is_empty());
    }
}
