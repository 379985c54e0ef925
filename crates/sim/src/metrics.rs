//! Simulation metrics: the quantities the paper's figures report.

use dcfb_cache::CacheStats;
use dcfb_frontend::{BtbStats, ShotgunBtbStats};
use dcfb_prefetch::shotgun::ShotgunStats;
use dcfb_uncore::UncoreStats;

/// Everything measured during one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Method display name.
    pub method: String,
    /// Workload display name.
    pub workload: String,
    /// Measured cycles.
    pub cycles: u64,
    /// Measured retired instructions.
    pub instrs: u64,
    /// L1i cache statistics.
    pub l1i: CacheStats,
    /// Demand misses whose block was sequential after the previous
    /// demanded block.
    pub seq_misses: u64,
    /// Demand misses caused by control-flow discontinuities.
    pub disc_misses: u64,
    /// Stall cycles by cause.
    pub stall_l1i: u64,
    /// BTB-miss bubble cycles.
    pub stall_btb: u64,
    /// Redirect (misprediction) cycles.
    pub stall_redirect: u64,
    /// Empty-FTQ cycles (BTB-directed frontends only).
    pub stall_empty_ftq: u64,
    /// CMAL numerator: miss-latency cycles covered by prefetching.
    pub cmal_covered: f64,
    /// CMAL denominator: total miss-latency cycles of prefetched
    /// blocks.
    pub cmal_total: f64,
    /// Demand misses that found their block already in flight from a
    /// prefetch (late prefetches).
    pub late_prefetches: u64,
    /// Demand misses with no prefetch in flight at all.
    pub uncovered_misses: u64,
    /// Total L1i lookups: demand accesses + prefetcher probes (Fig. 14).
    pub cache_lookups: u64,
    /// Requests sent below the L1i (fetch + prefetch): the "external
    /// bandwidth" of Fig. 5.
    pub external_requests: u64,
    /// Uncore statistics (latency, queueing, hits).
    pub uncore: UncoreStats,
    /// Conventional BTB statistics.
    pub btb: BtbStats,
    /// Shotgun split-BTB statistics, when applicable.
    pub shotgun_btb: Option<ShotgunBtbStats>,
    /// Shotgun engine statistics (incl. the retire-side Fig. 1
    /// footprint-miss accounting), when applicable.
    pub shotgun: Option<ShotgunStats>,
    /// Prefetcher metadata storage, in bits.
    pub storage_bits: u64,
    /// Conditional-branch direction accuracy.
    pub branch_accuracy: f64,
    /// Prefetches dropped (MSHRs full / queue overflow).
    pub dropped_prefetches: u64,
    /// Demand misses absorbed by the prefetch buffer (already
    /// re-credited as hits in `l1i`; kept separately so the JSON
    /// output can surface the absorption count).
    pub buffer_hits: u64,
}

impl SimReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Speedup over a baseline run of the same workload.
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if baseline.ipc() == 0.0 {
            0.0
        } else {
            self.ipc() / baseline.ipc()
        }
    }

    /// Frontend-induced stall cycles (L1i + BTB + empty-FTQ; redirects
    /// are mispredictions, which every method pays).
    pub fn frontend_stalls(&self) -> u64 {
        self.stall_l1i + self.stall_btb + self.stall_empty_ftq
    }

    /// Frontend Stall Cycle Reduction vs. a baseline (Fig. 15): the
    /// fraction of the baseline's frontend stalls this method removed.
    pub fn fscr_over(&self, baseline: &SimReport) -> f64 {
        let base = baseline.frontend_stalls() as f64;
        if base == 0.0 {
            return 0.0;
        }
        // Normalize per instruction in case cycle counts differ.
        let base_rate = base / baseline.instrs.max(1) as f64;
        let self_rate = self.frontend_stalls() as f64 / self.instrs.max(1) as f64;
        1.0 - (self_rate / base_rate)
    }

    /// Covered memory access latency (Fig. 4/13): the fraction of
    /// miss-latency cycles of prefetched blocks hidden by the
    /// prefetcher.
    pub fn cmal(&self) -> f64 {
        if self.cmal_total == 0.0 {
            0.0
        } else {
            self.cmal_covered / self.cmal_total
        }
    }

    /// L1i demand-miss coverage vs. a baseline: the fraction of the
    /// baseline's misses (per instruction) this method eliminated.
    pub fn miss_coverage_over(&self, baseline: &SimReport) -> f64 {
        let base = baseline.l1i.demand_misses as f64 / baseline.instrs.max(1) as f64;
        if base == 0.0 {
            return 0.0;
        }
        let own = self.l1i.demand_misses as f64 / self.instrs.max(1) as f64;
        1.0 - own / base
    }

    /// Fraction of demand misses that were sequential.
    pub fn seq_miss_fraction(&self) -> f64 {
        let total = self.seq_misses + self.disc_misses;
        if total == 0 {
            0.0
        } else {
            self.seq_misses as f64 / total as f64
        }
    }

    /// External bandwidth relative to a baseline (Fig. 5), normalized
    /// per instruction.
    pub fn bandwidth_over(&self, baseline: &SimReport) -> f64 {
        let base = baseline.external_requests as f64 / baseline.instrs.max(1) as f64;
        if base == 0.0 {
            return 0.0;
        }
        (self.external_requests as f64 / self.instrs.max(1) as f64) / base
    }

    /// Cache lookups relative to a baseline (Fig. 14), normalized per
    /// instruction.
    pub fn lookups_over(&self, baseline: &SimReport) -> f64 {
        let base = baseline.cache_lookups as f64 / baseline.instrs.max(1) as f64;
        if base == 0.0 {
            return 0.0;
        }
        (self.cache_lookups as f64 / self.instrs.max(1) as f64) / base
    }

    /// Average LLC access latency relative to a baseline (Fig. 5).
    pub fn llc_latency_over(&self, baseline: &SimReport) -> f64 {
        if baseline.uncore.avg_latency() == 0.0 {
            return 0.0;
        }
        self.uncore.avg_latency() / baseline.uncore.avg_latency()
    }

    /// Fraction of measured cycles stalled on an empty FTQ (Table I).
    pub fn empty_ftq_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stall_empty_ftq as f64 / self.cycles as f64
        }
    }

    /// A comparable digest of the whole report; identical digests mean
    /// two runs produced bit-identical results. Used by the replay
    /// determinism checks (bench sweep, conformance invariants).
    pub fn digest(&self) -> String {
        format!("{self:?}")
    }

    /// L1i misses per kilo-instruction.
    pub fn l1i_mpki(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.l1i.demand_misses as f64 * 1000.0 / self.instrs as f64
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn report(cycles: u64, instrs: u64) -> SimReport {
        SimReport {
            cycles,
            instrs,
            ..SimReport::default()
        }
    }

    #[test]
    fn ipc_and_speedup() {
        let base = report(2000, 1000);
        let fast = report(1000, 1000);
        assert!((base.ipc() - 0.5).abs() < 1e-12);
        assert!((fast.speedup_over(&base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fscr_normalizes_per_instruction() {
        let mut base = report(1000, 1000);
        base.stall_l1i = 400;
        let mut good = report(700, 1000);
        good.stall_l1i = 100;
        assert!((good.fscr_over(&base) - 0.75).abs() < 1e-12);
        // A method with MORE stalls has negative FSCR.
        let mut bad = report(1500, 1000);
        bad.stall_l1i = 600;
        assert!(bad.fscr_over(&base) < 0.0);
    }

    #[test]
    fn cmal_edges() {
        let mut r = report(1, 1);
        assert_eq!(r.cmal(), 0.0);
        r.cmal_covered = 88.0;
        r.cmal_total = 100.0;
        assert!((r.cmal() - 0.88).abs() < 1e-12);
    }

    #[test]
    fn miss_coverage() {
        let mut base = report(1000, 1000);
        base.l1i.demand_misses = 100;
        let mut m = report(1000, 1000);
        m.l1i.demand_misses = 30;
        assert!((m.miss_coverage_over(&base) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn seq_fraction() {
        let mut r = report(1, 1);
        r.seq_misses = 75;
        r.disc_misses = 25;
        assert!((r.seq_miss_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_and_lookups_relative() {
        let mut base = report(1000, 1000);
        base.external_requests = 100;
        base.cache_lookups = 1000;
        let mut m = report(1000, 1000);
        m.external_requests = 720;
        m.cache_lookups = 1500;
        assert!((m.bandwidth_over(&base) - 7.2).abs() < 1e-12);
        assert!((m.lookups_over(&base) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_ftq_fraction_and_mpki() {
        let mut r = report(10_000, 5_000);
        r.stall_empty_ftq = 1_313;
        r.l1i.demand_misses = 250;
        assert!((r.empty_ftq_fraction() - 0.1313).abs() < 1e-12);
        assert!((r.l1i_mpki() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let z = SimReport::default();
        assert_eq!(z.ipc(), 0.0);
        assert_eq!(z.cmal(), 0.0);
        assert_eq!(z.seq_miss_fraction(), 0.0);
        assert_eq!(z.empty_ftq_fraction(), 0.0);
        assert_eq!(z.fscr_over(&z), 0.0);
        assert_eq!(z.speedup_over(&z), 0.0);
    }
}
