//! The BTB prefetch buffer (§V-C).
//!
//! Pre-decoded branches are staged here instead of being force-fed into
//! the BTB; a hit moves the matching entry into the BTB proper. Entries
//! are organized Confluence-style: one entry holds *all* branches of a
//! cache block, so a whole block's branches are stored in a single
//! buffer access. The paper's configuration is 32 entries, 2-way
//! set-associative (1 KB).
//!
//! An entry holds a [`BranchSpan`] into the simulator's per-run branch
//! store rather than a copy of the branches: a fill is two words, and
//! the lookups that need the branches themselves take the store's
//! arena as an argument.

use dcfb_cache::LruSets;
use dcfb_frontend::{BranchSpan, BtbEntry};
use dcfb_trace::{block_of, Addr, Block};

/// A small set-associative buffer of pre-decoded block branch sets.
#[derive(Clone, Debug)]
pub struct BtbPrefetchBuffer {
    /// Tagged by block number.
    slots: LruSets<BranchSpan>,
    fills: u64,
    hits: u64,
    lookups: u64,
}

impl BtbPrefetchBuffer {
    /// Creates a buffer with `entries` block slots and associativity
    /// `ways`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries % ways == 0, "bad buffer shape");
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        BtbPrefetchBuffer {
            slots: LruSets::new(sets, ways),
            fills: 0,
            hits: 0,
            lookups: 0,
        }
    }

    /// The paper's configuration: 32 entries, 2-way.
    pub fn paper_sized() -> Self {
        BtbPrefetchBuffer::new(32, 2)
    }

    fn set_of(&self, block: Block) -> usize {
        (block as usize) & (self.slots.sets() - 1)
    }

    /// Stores the branches of `block` (a span of the arena later
    /// lookups are given), replacing the set's LRU entry. Empty branch
    /// sets are ignored (returns `None`). Returns the block whose entry
    /// was displaced, if any — telemetry uses it to spot early-evicted
    /// BTB prefetches.
    pub fn fill(&mut self, block: Block, branches: BranchSpan) -> Option<Block> {
        if branches.is_empty() {
            return None;
        }
        self.fills += 1;
        let set = self.set_of(block);
        if let Some(way) = self.slots.find(set, block) {
            *self.slots.get_mut(set, way) = branches;
            self.slots.touch(set, way);
            return None;
        }
        self.slots
            .insert(set, block, branches)
            .map(|(displaced, _)| displaced)
    }

    /// The `(set, way)` holding the branch at `pc`: the entry of its
    /// block, if that entry's branches include `pc`.
    fn find(&self, pc: Addr, arena: &[BtbEntry]) -> Option<(usize, usize)> {
        let block = block_of(pc);
        let set = self.set_of(block);
        let way = self.slots.find(set, block)?;
        let branches = self.slots.get(set, way).resolve(arena);
        branches.iter().any(|b| b.pc == pc).then_some((set, way))
    }

    /// Looks for the branch at `pc`; on a hit, removes and returns the
    /// *whole block entry's* branches (they move into the BTB together,
    /// §V-C) as a span of `arena`.
    pub fn take_for(&mut self, pc: Addr, arena: &[BtbEntry]) -> Option<BranchSpan> {
        self.lookups += 1;
        let (set, way) = self.find(pc, arena)?;
        self.hits += 1;
        Some(self.slots.invalidate(set, way))
    }

    /// Non-destructive residency check for the branch at `pc`.
    pub fn contains_branch(&self, pc: Addr, arena: &[BtbEntry]) -> bool {
        self.find(pc, arena).is_some()
    }

    /// `(fills, lookups, hits)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.fills, self.lookups, self.hits)
    }

    /// Storage cost in bits: per entry, a block tag (~34 b) plus up to
    /// four compressed branch records (~60 b each), matching the
    /// paper's ≈1 KB figure for 32 entries.
    pub fn storage_bits(&self) -> u64 {
        (self.slots.sets() * self.slots.ways()) as u64 * (34 + 4 * 60)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use dcfb_frontend::BranchClass;

    fn entry(pc: Addr, target: Addr) -> BtbEntry {
        BtbEntry {
            pc,
            target,
            class: BranchClass::Conditional,
        }
    }

    /// A buffer plus the arena its spans index.
    #[derive(Default)]
    struct Arena(Vec<BtbEntry>);

    impl Arena {
        fn span(&mut self, branches: &[BtbEntry]) -> BranchSpan {
            BranchSpan::push(&mut self.0, branches)
        }
    }

    #[test]
    fn fill_take_roundtrip() {
        let mut a = Arena::default();
        let mut b = BtbPrefetchBuffer::paper_sized();
        let pc = 100 * 64 + 8;
        b.fill(100, a.span(&[entry(pc, 0x999), entry(pc + 4, 0x888)]));
        assert!(b.contains_branch(pc, &a.0));
        assert!(b.contains_branch(pc + 4, &a.0));
        let branches = b.take_for(pc, &a.0).unwrap();
        assert_eq!(branches.resolve(&a.0).len(), 2);
        // Whole entry consumed.
        assert!(!b.contains_branch(pc + 4, &a.0));
        assert_eq!(b.counters(), (1, 1, 1));
    }

    #[test]
    fn miss_on_absent_branch() {
        let mut a = Arena::default();
        let mut b = BtbPrefetchBuffer::paper_sized();
        b.fill(100, a.span(&[entry(100 * 64, 1)]));
        assert!(b.take_for(100 * 64 + 32, &a.0).is_none());
        assert!(b.take_for(101 * 64, &a.0).is_none());
    }

    #[test]
    fn empty_fill_ignored() {
        let mut b = BtbPrefetchBuffer::paper_sized();
        b.fill(7, BranchSpan::EMPTY);
        assert_eq!(b.counters().0, 0);
    }

    #[test]
    fn lru_within_set() {
        let mut a = Arena::default();
        let mut b = BtbPrefetchBuffer::new(4, 2); // 2 sets
                                                  // Blocks 0, 2, 4 all map to set 0.
        b.fill(0, a.span(&[entry(0, 1)]));
        b.fill(2, a.span(&[entry(2 * 64, 1)]));
        // Touch block 0's entry via refill to make block 2 LRU.
        b.fill(0, a.span(&[entry(0, 9)]));
        b.fill(4, a.span(&[entry(4 * 64, 1)]));
        assert!(b.contains_branch(0, &a.0));
        assert!(!b.contains_branch(2 * 64, &a.0));
        assert!(b.contains_branch(4 * 64, &a.0));
    }

    #[test]
    fn refill_updates_in_place() {
        let mut a = Arena::default();
        let mut b = BtbPrefetchBuffer::paper_sized();
        b.fill(5, a.span(&[entry(5 * 64, 1)]));
        b.fill(5, a.span(&[entry(5 * 64, 2), entry(5 * 64 + 8, 3)]));
        let taken = b.take_for(5 * 64, &a.0).unwrap().resolve(&a.0);
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].target, 2);
    }

    #[test]
    fn storage_about_1kb() {
        let b = BtbPrefetchBuffer::paper_sized();
        let kb = b.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((0.8..1.3).contains(&kb), "storage {kb} KB");
    }
}
