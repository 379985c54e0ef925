//! A small fully-associative prefetch buffer.
//!
//! The paper uses such buffers in two places: the NXL side-effect study
//! holds prefetched blocks in a 64-entry buffer next to the L1i "to
//! immune it from cache pollution" (§IV), and Shotgun keeps a
//! fully-associative 64-entry L1i prefetch buffer (§VI-D). SN4L and Dis
//! are accurate enough to prefetch directly into the cache and need no
//! buffer — making that contrast measurable is the point of this type.

use crate::lru::LruSets;
use dcfb_telemetry::PfSource;
use dcfb_trace::Block;

/// A fully-associative, LRU-replaced buffer of prefetched blocks.
/// Each entry remembers which prefetcher filled it, so evictions and
/// hits can be attributed for timeliness classification.
#[derive(Clone, Debug)]
pub struct PrefetchBuffer {
    /// One set, tagged by block number.
    entries: LruSets<PfSource>,
    hits: u64,
    lookups: u64,
    inserted: u64,
    replaced_unused: u64,
}

impl PrefetchBuffer {
    /// Creates an empty buffer with room for `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch buffer capacity must be non-zero");
        PrefetchBuffer {
            entries: LruSets::new(1, capacity),
            hits: 0,
            lookups: 0,
            inserted: 0,
            replaced_unused: 0,
        }
    }

    /// Inserts a prefetched block filled by `source`, evicting the
    /// LRU entry if full. Returns the evicted `(block, filler)`, if
    /// any. Re-inserting a resident block refreshes its LRU position.
    pub fn insert(&mut self, block: Block, source: PfSource) -> Option<(Block, PfSource)> {
        self.inserted += 1;
        if let Some(way) = self.entries.find(0, block) {
            self.entries.touch(0, way);
            return None;
        }
        let evicted = self.entries.insert(0, block, source);
        self.replaced_unused += u64::from(evicted.is_some());
        evicted
    }

    /// Demand lookup: on a hit the block is *removed* (it moves into the
    /// cache proper) and its filler is returned.
    pub fn take(&mut self, block: Block) -> Option<PfSource> {
        self.lookups += 1;
        let way = self.entries.find(0, block)?;
        self.hits += 1;
        Some(self.entries.invalidate(0, way))
    }

    /// Non-destructive residency check.
    pub fn contains(&self, block: Block) -> bool {
        self.entries.find(0, block).is_some()
    }

    /// Number of resident blocks.
    pub fn occupancy(&self) -> usize {
        self.entries.occupancy()
    }

    /// `(lookups, hits, inserted, evicted_unused)` counters.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.lookups, self.hits, self.inserted, self.replaced_unused)
    }

    /// The resident blocks in LRU order (oldest first). Exposed for
    /// conformance checks that compare full buffer state against a
    /// reference model.
    pub fn resident_blocks(&self) -> Vec<Block> {
        self.entries.iter(0).map(|(block, _)| block).collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    const S: PfSource = PfSource::NextLine;

    #[test]
    fn insert_take_roundtrip() {
        let mut pb = PrefetchBuffer::new(4);
        assert!(pb.insert(10, S).is_none());
        assert!(pb.contains(10));
        assert_eq!(pb.take(10), Some(S));
        assert!(!pb.contains(10));
        assert!(pb.take(10).is_none());
        let (lookups, hits, inserted, _) = pb.counters();
        assert_eq!((lookups, hits, inserted), (2, 1, 1));
    }

    #[test]
    fn lru_eviction() {
        let mut pb = PrefetchBuffer::new(2);
        pb.insert(1, S);
        pb.insert(2, S);
        pb.insert(1, S); // refresh 1; LRU is now 2
        let evicted = pb.insert(3, S);
        assert_eq!(evicted, Some((2, S)));
        assert!(pb.contains(1));
        assert!(pb.contains(3));
    }

    #[test]
    fn occupancy_bounded() {
        let mut pb = PrefetchBuffer::new(3);
        for b in 0..10 {
            pb.insert(b, S);
            assert!(pb.occupancy() <= 3);
        }
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let mut pb = PrefetchBuffer::new(4);
        pb.insert(5, S);
        pb.insert(5, S);
        assert_eq!(pb.occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = PrefetchBuffer::new(0);
    }
}
