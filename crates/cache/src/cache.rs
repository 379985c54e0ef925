//! Generic set-associative cache with true-LRU replacement.
//!
//! Addresses are *block numbers* ([`dcfb_trace::Block`]): the byte offset
//! has already been stripped by the caller. The cache tracks the per-line
//! metadata the paper relies on:
//!
//! * `prefetched` — the 1-bit prefetch flag every block carries ("the
//!   flag indicates whether the cache block is brought into the cache by
//!   the prefetcher or the fetch demand", §V-A),
//! * `demanded` — whether a demand access touched the line after the
//!   fill (used to classify evicted prefetches as useless),
//! * `is_instruction` — the DV-LLC mode bit (§V-D).

use crate::lru::LruSets;
use dcfb_trace::Block;

/// Geometry of a set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of sets. Must be a power of two and non-zero.
    pub sets: usize,
    /// Associativity. Must be non-zero.
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a configuration from a total capacity in KiB and an
    /// associativity, assuming 64-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is zero or not a power of two,
    /// or if `ways` is zero.
    pub fn from_kib(size_kib: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be non-zero");
        let blocks = size_kib * 1024 / 64;
        assert!(
            blocks % ways == 0,
            "{size_kib} KiB does not divide into {ways} ways"
        );
        let sets = blocks / ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} not a power of two"
        );
        CacheConfig { sets, ways }
    }

    /// The paper's L1i: 32 KiB, 8-way, 64 B blocks (Table III).
    pub fn l1i() -> Self {
        CacheConfig::from_kib(32, 8)
    }

    /// One bank of the paper's shared LLC: 32 MiB, 16-way over 16 banks —
    /// a single-core-visible slice of 2 MiB, 16-way.
    pub fn llc_slice() -> Self {
        CacheConfig::from_kib(2 * 1024, 16)
    }

    /// Total capacity in blocks.
    pub fn blocks(&self) -> usize {
        self.sets * self.ways
    }

    /// Total capacity in KiB.
    pub fn size_kib(&self) -> usize {
        self.blocks() * 64 / 1024
    }

    #[inline]
    fn set_index(&self, block: Block) -> usize {
        (block as usize) & (self.sets - 1)
    }
}

/// Per-line metadata flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineFlags {
    /// Brought in by a prefetcher (cleared on first demand hit, §V-A).
    pub prefetched: bool,
    /// A demand access has touched this line since the fill.
    pub demanded: bool,
    /// The line holds instructions (DV-LLC mode bit, §V-D).
    pub is_instruction: bool,
}

impl LineFlags {
    /// Flags for a demand fill of an instruction block.
    pub fn demand_instruction() -> Self {
        LineFlags {
            prefetched: false,
            demanded: true,
            is_instruction: true,
        }
    }

    /// Flags for a prefetch fill of an instruction block.
    pub fn prefetched_instruction() -> Self {
        LineFlags {
            prefetched: true,
            demanded: false,
            is_instruction: true,
        }
    }
}

/// A line evicted by [`SetAssocCache::fill`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Block number of the victim.
    pub block: Block,
    /// Metadata of the victim at eviction time.
    pub flags: LineFlags,
}

/// Hit/miss and prefetch-usefulness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups.
    pub demand_accesses: u64,
    /// Demand lookups that hit.
    pub demand_hits: u64,
    /// Demand lookups that missed.
    pub demand_misses: u64,
    /// Demand hits on lines whose prefetch flag was still set
    /// (useful prefetches).
    pub prefetch_hits: u64,
    /// Fills performed (demand + prefetch).
    pub fills: u64,
    /// Fills tagged as prefetches.
    pub prefetch_fills: u64,
    /// Valid lines evicted.
    pub evictions: u64,
    /// Evicted lines that were prefetched and never demanded
    /// (useless prefetches).
    pub useless_prefetch_evictions: u64,
    /// Non-demand probes (prefetcher lookups, ports permitting).
    pub probes: u64,
}

impl CacheStats {
    /// Demand miss ratio in `[0, 1]`; `0` when no accesses happened.
    pub fn miss_ratio(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_misses as f64 / self.demand_accesses as f64
        }
    }
}

/// A set-associative, true-LRU cache over block numbers.
///
/// # Examples
///
/// ```
/// use dcfb_cache::{CacheConfig, LineFlags, SetAssocCache};
///
/// let mut l1i = SetAssocCache::new(CacheConfig::l1i());
/// assert!(!l1i.demand_access(42));                        // cold miss
/// l1i.fill(42, LineFlags::prefetched_instruction());
/// assert!(l1i.demand_access(42));                         // prefetch hit
/// assert_eq!(l1i.stats().prefetch_hits, 1);
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Tagged by the whole block number.
    lines: LruSets<LineFlags>,
    stats: CacheStats,
    /// Fills since construction; unlike `stats.fills`, never reset.
    lifetime_fills: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        SetAssocCache {
            cfg,
            lines: LruSets::new(cfg.sets, cfg.ways),
            stats: CacheStats::default(),
            lifetime_fills: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (keeps contents — used after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn find(&self, block: Block) -> Option<(usize, usize)> {
        let set = self.cfg.set_index(block);
        self.lines.find(set, block).map(|way| (set, way))
    }

    /// Demand access: updates LRU and statistics; on a hit to a
    /// prefetched line, counts a useful prefetch and clears the prefetch
    /// flag (per §V-A "upon demand access to a prefetched block, we reset
    /// the prefetch flag").
    ///
    /// Returns `true` on a hit.
    pub fn demand_access(&mut self, block: Block) -> bool {
        self.stats.demand_accesses += 1;
        let Some((set, way)) = self.find(block) else {
            self.stats.demand_misses += 1;
            return false;
        };
        self.stats.demand_hits += 1;
        self.lines.touch(set, way);
        let flags = self.lines.get_mut(set, way);
        if flags.prefetched {
            self.stats.prefetch_hits += 1;
            flags.prefetched = false;
        }
        flags.demanded = true;
        true
    }

    /// Non-demand probe (prefetcher cache lookup): no LRU update; counted
    /// separately in the statistics.
    pub fn probe(&mut self, block: Block) -> bool {
        self.stats.probes += 1;
        self.find(block).is_some()
    }

    /// Returns `true` if `block` is resident, without touching LRU or
    /// statistics.
    pub fn contains(&self, block: Block) -> bool {
        self.find(block).is_some()
    }

    /// Read-only access to a resident line's flags.
    pub fn flags(&self, block: Block) -> Option<LineFlags> {
        self.find(block).map(|(set, way)| *self.lines.get(set, way))
    }

    /// Inserts `block` with `flags`, evicting the LRU line if the set is
    /// full. If the block is already resident, only its flags are
    /// replaced (no eviction, no LRU promotion).
    pub fn fill(&mut self, block: Block, flags: LineFlags) -> Option<Evicted> {
        self.stats.fills += 1;
        self.lifetime_fills += 1;
        if flags.prefetched {
            self.stats.prefetch_fills += 1;
        }
        if let Some((set, way)) = self.find(block) {
            *self.lines.get_mut(set, way) = flags;
            return None;
        }
        let (victim, f) = self.lines.insert(self.cfg.set_index(block), block, flags)?;
        self.stats.evictions += 1;
        if f.prefetched && !f.demanded {
            self.stats.useless_prefetch_evictions += 1;
        }
        Some(Evicted {
            block: victim,
            flags: f,
        })
    }

    /// Fills since the cache was built, across [`reset_stats`]: only a
    /// fill adds a line, so while this count stands still no block
    /// becomes resident.
    ///
    /// [`reset_stats`]: SetAssocCache::reset_stats
    pub fn fill_count(&self) -> u64 {
        self.lifetime_fills
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.occupancy()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets, 2 ways.
        SetAssocCache::new(CacheConfig { sets: 4, ways: 2 })
    }

    #[test]
    fn config_from_kib() {
        let c = CacheConfig::l1i();
        assert_eq!(c.sets, 64);
        assert_eq!(c.ways, 8);
        assert_eq!(c.size_kib(), 32);
        let llc = CacheConfig::llc_slice();
        assert_eq!(llc.size_kib(), 2048);
        assert_eq!(llc.ways, 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_non_power_of_two_sets() {
        let _ = CacheConfig::from_kib(24, 8 * 16); // 384/128 = 3 sets
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.demand_access(100));
        assert!(c.fill(100, LineFlags::demand_instruction()).is_none());
        assert!(c.demand_access(100));
        let s = c.stats();
        assert_eq!(s.demand_accesses, 2);
        assert_eq!(s.demand_hits, 1);
        assert_eq!(s.demand_misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Blocks 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, LineFlags::default());
        c.fill(4, LineFlags::default());
        // Touch 0, making 4 the LRU.
        assert!(c.demand_access(0));
        let ev = c.fill(8, LineFlags::default()).expect("must evict");
        assert_eq!(ev.block, 4);
        assert!(c.contains(0));
        assert!(c.contains(8));
        assert!(!c.contains(4));
    }

    #[test]
    fn eviction_reconstructs_block_number() {
        let mut c = tiny();
        let b = 0xabcd_ef12u64 & !0b11 | 0b01; // set 1
        c.fill(b, LineFlags::default());
        c.fill(b + 4, LineFlags::default());
        c.demand_access(b + 4);
        let ev = c.fill(b + 8, LineFlags::default()).unwrap();
        assert_eq!(ev.block, b);
    }

    #[test]
    fn prefetch_flag_lifecycle() {
        let mut c = tiny();
        c.fill(7, LineFlags::prefetched_instruction());
        assert!(c.flags(7).unwrap().prefetched);
        assert!(c.demand_access(7));
        // First demand hit clears the flag and counts a useful prefetch.
        assert!(!c.flags(7).unwrap().prefetched);
        assert!(c.flags(7).unwrap().demanded);
        assert_eq!(c.stats().prefetch_hits, 1);
        // Second hit does not double-count.
        assert!(c.demand_access(7));
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn useless_prefetch_eviction_counted() {
        let mut c = tiny();
        c.fill(0, LineFlags::prefetched_instruction());
        c.fill(4, LineFlags::default());
        c.demand_access(4);
        // Evict block 0: prefetched, never demanded -> useless.
        c.fill(8, LineFlags::default());
        assert_eq!(c.stats().useless_prefetch_evictions, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn useful_prefetch_eviction_not_counted_useless() {
        let mut c = tiny();
        c.fill(0, LineFlags::prefetched_instruction());
        c.demand_access(0); // becomes useful
        c.fill(4, LineFlags::default());
        c.demand_access(4);
        c.fill(8, LineFlags::default()); // evicts 0
        assert_eq!(c.stats().useless_prefetch_evictions, 0);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.fill(0, LineFlags::default());
        c.fill(4, LineFlags::default());
        c.demand_access(4);
        // Probing 0 must NOT promote it.
        assert!(c.probe(0));
        let ev = c.fill(8, LineFlags::default()).unwrap();
        assert_eq!(ev.block, 0);
        assert_eq!(c.stats().probes, 1);
    }

    #[test]
    fn refill_resident_block_updates_flags_only() {
        let mut c = tiny();
        c.fill(0, LineFlags::default());
        c.fill(4, LineFlags::default());
        let before = c.occupancy();
        assert!(c.fill(0, LineFlags::prefetched_instruction()).is_none());
        assert_eq!(c.occupancy(), before);
        assert!(c.flags(0).unwrap().prefetched);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for b in 0..4u64 {
            c.fill(b, LineFlags::default());
        }
        for b in 0..4u64 {
            assert!(c.contains(b));
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.demand_access(1); // miss
        c.fill(1, LineFlags::default());
        c.demand_access(1); // hit
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Reference model: per-set vector of (block, last-use time).
    #[derive(Default)]
    struct Model {
        sets: HashMap<u64, Vec<u64>>, // MRU-first
        ways: usize,
        set_mask: u64,
    }

    impl Model {
        fn new(cfg: CacheConfig) -> Self {
            Model {
                sets: HashMap::new(),
                ways: cfg.ways,
                set_mask: (cfg.sets - 1) as u64,
            }
        }
        fn touch(&mut self, block: u64) -> bool {
            let set = self.sets.entry(block & self.set_mask).or_default();
            if let Some(pos) = set.iter().position(|&b| b == block) {
                set.remove(pos);
                set.insert(0, block);
                true
            } else {
                false
            }
        }
        fn fill(&mut self, block: u64) {
            let ways = self.ways;
            let set = self.sets.entry(block & self.set_mask).or_default();
            if set.contains(&block) {
                return; // refill does not promote
            }
            if set.len() == ways {
                set.pop();
            }
            set.insert(0, block);
        }
    }

    proptest! {
        #[test]
        fn matches_reference_lru_model(ops in proptest::collection::vec((0u8..2, 0u64..64), 1..400)) {
            let cfg = CacheConfig { sets: 4, ways: 4 };
            let mut cache = SetAssocCache::new(cfg);
            let mut model = Model::new(cfg);
            for (op, block) in ops {
                match op {
                    0 => {
                        let hit = cache.demand_access(block);
                        let model_hit = model.touch(block);
                        prop_assert_eq!(hit, model_hit, "access {}", block);
                        if !hit {
                            cache.fill(block, LineFlags::default());
                            model.fill(block);
                        }
                    }
                    _ => {
                        cache.fill(block, LineFlags::default());
                        model.fill(block);
                    }
                }
            }
            // Final residency must agree.
            for b in 0u64..64 {
                let in_model = model.sets.get(&(b & 3)).map_or(false, |s| s.contains(&b));
                prop_assert_eq!(cache.contains(b), in_model, "residency of {}", b);
            }
        }

        #[test]
        fn occupancy_never_exceeds_capacity(blocks in proptest::collection::vec(0u64..1024, 1..300)) {
            let mut cache = SetAssocCache::new(CacheConfig { sets: 8, ways: 2 });
            for b in blocks {
                cache.fill(b, LineFlags::default());
                prop_assert!(cache.occupancy() <= 16);
            }
        }

        #[test]
        fn hits_plus_misses_equals_accesses(blocks in proptest::collection::vec(0u64..128, 1..300)) {
            let mut cache = SetAssocCache::new(CacheConfig { sets: 4, ways: 2 });
            for b in blocks {
                if !cache.demand_access(b) {
                    cache.fill(b, LineFlags::default());
                }
            }
            let s = cache.stats();
            prop_assert_eq!(s.demand_hits + s.demand_misses, s.demand_accesses);
        }
    }
}
