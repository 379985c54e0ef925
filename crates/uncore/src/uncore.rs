//! The uncore proper: LLC slice + NoC + memory behind one interface.

use crate::latency::{ContentionModel, NOC_ROUND_TRIP_CYCLES};
use dcfb_cache::{CacheConfig, DvLlc, LineFlags, SetAssocCache};
use dcfb_trace::Block;

/// LLC bank access latency in cycles (Table III).
pub const LLC_LATENCY: u64 = 18;
/// Main-memory access latency in cycles (60 ns at 2 GHz, Table III).
pub const MEMORY_LATENCY: u64 = 120;

/// Uncore configuration (defaults follow Table III). The fixed
/// latencies are [`LLC_LATENCY`], [`MEMORY_LATENCY`] and
/// [`NOC_ROUND_TRIP_CYCLES`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct UncoreConfig {
    /// Geometry of the core-visible LLC slice.
    pub llc_config: CacheConfig,
    /// Use the DV-LLC (BF virtualization) instead of a plain LLC.
    pub dvllc: bool,
    /// BF-holder capacity per set when `dvllc` is set.
    pub bf_per_set: usize,
}

impl Default for UncoreConfig {
    fn default() -> Self {
        UncoreConfig {
            llc_config: CacheConfig::llc_slice(),
            dvllc: false,
            bf_per_set: 10,
        }
    }
}

/// Where a request was served from, and when it completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the block is available at the L1.
    pub ready_at: u64,
    /// `true` if served by the LLC, `false` if it went to memory.
    pub llc_hit: bool,
    /// Total latency charged, including queueing.
    pub latency: u64,
}

/// Aggregate uncore statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UncoreStats {
    /// Requests received (demand + prefetch).
    pub requests: u64,
    /// Requests marked as prefetches.
    pub prefetch_requests: u64,
    /// Requests that hit in the LLC.
    pub llc_hits: u64,
    /// Requests that missed to memory.
    pub llc_misses: u64,
    /// Sum of all request latencies (for averaging).
    pub total_latency: u64,
    /// Sum of queueing delays only.
    pub total_queueing: u64,
}

impl UncoreStats {
    /// Mean end-to-end latency per request.
    pub fn avg_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.requests as f64
        }
    }

    /// Mean queueing delay per request.
    pub fn avg_queueing(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_queueing as f64 / self.requests as f64
        }
    }
}

enum Llc {
    Plain(SetAssocCache),
    Virtualized(DvLlc),
}

/// The memory system below the private caches.
pub struct Uncore {
    llc: Llc,
    contention: ContentionModel,
    stats: UncoreStats,
}

impl Uncore {
    /// Creates an uncore with the given configuration and the calibrated
    /// contention model.
    pub fn new(cfg: UncoreConfig) -> Self {
        let llc = if cfg.dvllc {
            Llc::Virtualized(DvLlc::new(
                cfg.llc_config.sets,
                cfg.llc_config.ways,
                cfg.bf_per_set,
            ))
        } else {
            Llc::Plain(SetAssocCache::new(cfg.llc_config))
        };
        Uncore {
            llc,
            contention: ContentionModel::calibrated(),
            stats: UncoreStats::default(),
        }
    }

    /// Replaces the contention model (used by calibration tests).
    pub fn set_contention(&mut self, model: ContentionModel) {
        self.contention = model;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> UncoreStats {
        self.stats
    }

    /// Resets statistics (keeps LLC contents — used after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = UncoreStats::default();
        match &mut self.llc {
            Llc::Plain(c) => c.reset_stats(),
            Llc::Virtualized(c) => c.reset_stats(),
        }
    }

    /// Issues a block fetch at `now`. The block is installed in the LLC
    /// on the way up (on a memory fill).
    pub fn access(
        &mut self,
        now: u64,
        block: Block,
        is_prefetch: bool,
        is_instruction: bool,
    ) -> AccessResult {
        self.stats.requests += 1;
        if is_prefetch {
            self.stats.prefetch_requests += 1;
        }
        let queueing = self.contention.observe(now);
        let hit = match &mut self.llc {
            Llc::Plain(c) => {
                let hit = c.demand_access(block);
                if !hit {
                    c.fill(
                        block,
                        LineFlags {
                            is_instruction,
                            demanded: true,
                            ..LineFlags::default()
                        },
                    );
                }
                hit
            }
            Llc::Virtualized(c) => {
                let hit = c.demand_access(block, is_instruction);
                if !hit {
                    c.fill(
                        block,
                        LineFlags {
                            is_instruction,
                            demanded: true,
                            ..LineFlags::default()
                        },
                    );
                }
                hit
            }
        };
        let latency = if hit {
            self.stats.llc_hits += 1;
            NOC_ROUND_TRIP_CYCLES + queueing + LLC_LATENCY
        } else {
            self.stats.llc_misses += 1;
            NOC_ROUND_TRIP_CYCLES + queueing + LLC_LATENCY + MEMORY_LATENCY
        };
        self.stats.total_latency += latency;
        self.stats.total_queueing += queueing;
        AccessResult {
            ready_at: now + latency,
            llc_hit: hit,
            latency,
        }
    }

    /// Pre-warms the LLC with `block` (checkpoint-style warmup; no
    /// latency, no statistics).
    pub fn warm(&mut self, block: Block, is_instruction: bool) {
        let flags = LineFlags {
            is_instruction,
            demanded: true,
            ..LineFlags::default()
        };
        match &mut self.llc {
            Llc::Plain(c) => {
                c.fill(block, flags);
            }
            Llc::Virtualized(c) => {
                c.fill(block, flags);
            }
        }
    }

    /// Whether `block` is resident in the LLC (no side effects).
    pub fn llc_contains(&self, block: Block) -> bool {
        match &self.llc {
            Llc::Plain(c) => c.contains(block),
            Llc::Virtualized(c) => c.contains(block),
        }
    }

    /// Access to the DV-LLC, when configured (`None` for a plain LLC).
    pub fn dvllc_mut(&mut self) -> Option<&mut DvLlc> {
        match &mut self.llc {
            Llc::Plain(_) => None,
            Llc::Virtualized(c) => Some(c),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn small_uncore() -> Uncore {
        let mut cfg = UncoreConfig::default();
        cfg.llc_config = CacheConfig { sets: 64, ways: 4 };
        Uncore::new(cfg)
    }

    #[test]
    fn first_access_misses_to_memory_then_hits() {
        let mut u = small_uncore();
        let r1 = u.access(0, 42, false, true);
        assert!(!r1.llc_hit);
        assert!(r1.latency >= 18 + 120);
        let r2 = u.access(r1.ready_at, 42, false, true);
        assert!(r2.llc_hit);
        assert!(r2.latency < r1.latency);
        assert_eq!(u.stats().llc_hits, 1);
        assert_eq!(u.stats().llc_misses, 1);
    }

    #[test]
    fn warm_prefills_llc() {
        let mut u = small_uncore();
        u.warm(7, true);
        assert!(u.llc_contains(7));
        let r = u.access(0, 7, false, true);
        assert!(r.llc_hit);
        assert_eq!(u.stats().requests, 1);
    }

    #[test]
    fn prefetch_requests_counted() {
        let mut u = small_uncore();
        u.access(0, 1, true, true);
        u.access(10, 2, false, true);
        assert_eq!(u.stats().prefetch_requests, 1);
        assert_eq!(u.stats().requests, 2);
    }

    #[test]
    fn latency_grows_under_storm() {
        let mut u = small_uncore();
        // Warm block so every access is an LLC hit.
        u.warm(5, true);
        let idle = u.access(0, 5, false, true).latency;
        // Storm: 3000 back-to-back requests.
        let mut last = 0;
        for i in 0..3000u64 {
            u.warm(1000 + i % 16, true);
            last = u.access(1_000 + i, 1000 + i % 16, true, true).latency;
        }
        assert!(last > idle, "storm latency {last} <= idle {idle}");
        assert!(u.stats().avg_queueing() > 0.0);
    }

    #[test]
    fn dvllc_mode_exposes_bf_interface() {
        let mut cfg = UncoreConfig::default();
        cfg.llc_config = CacheConfig { sets: 16, ways: 4 };
        cfg.dvllc = true;
        cfg.bf_per_set = 4;
        let mut u = Uncore::new(cfg);
        assert!(u.dvllc_mut().is_some());
        u.access(0, 3, false, true);
        let dv = u.dvllc_mut().unwrap();
        assert!(dv.bf_mode_sets() > 0);
        let mut plain = small_uncore();
        assert!(plain.dvllc_mut().is_none());
    }

    #[test]
    fn zero_load_latencies_are_the_table_iii_constants() {
        let mut u = small_uncore();
        // A service rate no traffic can approach: no queueing.
        u.set_contention(ContentionModel::new(1e9, 1, 0.0));
        let miss = u.access(0, 7, false, true);
        let hit = u.access(miss.ready_at, 7, false, true);
        assert_eq!(hit.latency, NOC_ROUND_TRIP_CYCLES + LLC_LATENCY);
        assert_eq!(miss.latency, hit.latency + MEMORY_LATENCY);
        assert_eq!(u.stats().total_queueing, 0);
    }

    #[test]
    fn stats_averages() {
        let mut u = small_uncore();
        assert_eq!(u.stats().avg_latency(), 0.0);
        u.access(0, 1, false, true);
        assert!(u.stats().avg_latency() > 0.0);
        u.reset_stats();
        assert_eq!(u.stats().requests, 0);
        // Contents survive the reset.
        assert!(u.llc_contains(1));
    }

    #[test]
    fn memory_latency_dominates_misses() {
        let mut u = small_uncore();
        let miss = u.access(0, 9, false, false);
        let hit = u.access(miss.ready_at, 9, false, false);
        assert!(miss.latency >= hit.latency + MEMORY_LATENCY);
    }
}
