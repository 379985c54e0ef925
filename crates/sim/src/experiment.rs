//! Experiment packaging: build a workload once, run methods against it,
//! and compare to the no-prefetcher baseline.

use crate::config::SimConfig;
use crate::machine::Simulator;
use crate::metrics::SimReport;
use dcfb_errors::DcfbError;
use dcfb_telemetry::TelemetryReport;
use dcfb_workloads::{ResolvedWorkload, Walker, Workload};
use std::sync::Arc;

/// A method's measured report paired with the matching baseline.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// The method's report.
    pub report: SimReport,
    /// The no-prefetcher baseline on the same workload/seed.
    pub baseline: SimReport,
}

impl ExperimentResult {
    /// Speedup over the baseline (Fig. 16/17).
    pub fn speedup(&self) -> f64 {
        self.report.speedup_over(&self.baseline)
    }

    /// Frontend stall-cycle reduction (Fig. 15).
    pub fn fscr(&self) -> f64 {
        self.report.fscr_over(&self.baseline)
    }

    /// Miss coverage (Fig. 11-style).
    pub fn coverage(&self) -> f64 {
        self.report.miss_coverage_over(&self.baseline)
    }

    /// External bandwidth relative to the baseline (Fig. 5).
    pub fn bandwidth(&self) -> f64 {
        self.report.bandwidth_over(&self.baseline)
    }

    /// Cache lookups relative to the baseline (Fig. 14).
    pub fn lookups(&self) -> f64 {
        self.report.lookups_over(&self.baseline)
    }

    /// Average LLC latency relative to the baseline (Fig. 5).
    pub fn llc_latency(&self) -> f64 {
        self.report.llc_latency_over(&self.baseline)
    }
}

/// Runs `cfg` on `workload` with the given trace seed.
///
/// The program image is built once; the walker replays deterministically
/// from `trace_seed`.
pub fn run_config(workload: &Workload, cfg: SimConfig, trace_seed: u64) -> SimReport {
    let image = workload.image(cfg.isa);
    let mut sim = Simulator::new(cfg, Arc::clone(&image));
    let mut walker = Walker::new(image, trace_seed);
    sim.run(&mut walker)
}

/// Runs `cfg` on `workload` with telemetry recording forced on,
/// returning the simulation report paired with the finalized
/// telemetry export (metrics document, time series, trace events).
///
/// This is the engine behind `dcfb profile`. Note that telemetry
/// recording does not change simulated behavior — only host time.
pub fn run_config_profiled(
    workload: &Workload,
    mut cfg: SimConfig,
    trace_seed: u64,
) -> (SimReport, TelemetryReport) {
    cfg.telemetry = true;
    let image = workload.image(cfg.isa);
    let mut sim = Simulator::new(cfg, Arc::clone(&image));
    let mut walker = Walker::new(image, trace_seed);
    let report = sim.run(&mut walker);
    // Infallible: `cfg.telemetry` was forced on above and this is the
    // first (only) take.
    #[allow(clippy::expect_used)]
    let telemetry = sim.take_telemetry().expect("telemetry was enabled above");
    (report, telemetry)
}

/// Runs `cfg` on a registry-resolved workload source with the given
/// trace seed.
///
/// For synthetic sources this is digest-identical to [`run_config`]:
/// the resolved code memory is the same `Arc<ProgramImage>`, the start
/// pc and workload name are derived exactly as `Simulator::new` does,
/// and the stream is the same seeded [`Walker`]. The
/// `invariant/workload-source` conformance check pins that equivalence
/// for every registry method.
///
/// # Errors
///
/// Returns [`DcfbError::Config`] if `cfg` fails validation.
pub fn run_resolved(
    resolved: &ResolvedWorkload,
    cfg: SimConfig,
    trace_seed: u64,
) -> Result<SimReport, DcfbError> {
    let mut sim = Simulator::try_with_code(
        cfg,
        resolved.code(),
        resolved.start_pc(),
        resolved.name().to_owned(),
    )?;
    let mut stream = resolved.stream(trace_seed);
    Ok(sim.run(&mut stream))
}

/// [`run_resolved`] with telemetry recording forced on — the resolved
/// counterpart of [`run_config_profiled`].
///
/// # Errors
///
/// Returns [`DcfbError::Config`] if `cfg` fails validation.
pub fn run_resolved_profiled(
    resolved: &ResolvedWorkload,
    mut cfg: SimConfig,
    trace_seed: u64,
) -> Result<(SimReport, TelemetryReport), DcfbError> {
    cfg.telemetry = true;
    let mut sim = Simulator::try_with_code(
        cfg,
        resolved.code(),
        resolved.start_pc(),
        resolved.name().to_owned(),
    )?;
    let mut stream = resolved.stream(trace_seed);
    let report = sim.run(&mut stream);
    // Infallible: `cfg.telemetry` was forced on above and this is the
    // first (only) take.
    #[allow(clippy::expect_used)]
    let telemetry = sim.take_telemetry().expect("telemetry was enabled above");
    Ok((report, telemetry))
}

/// Runs a method *and* the baseline on `workload` (same seed) and pairs
/// the results.
pub fn run_workload(workload: &Workload, cfg: SimConfig, trace_seed: u64) -> ExperimentResult {
    let mut base_cfg = SimConfig::baseline();
    base_cfg.warmup_instrs = cfg.warmup_instrs;
    base_cfg.measure_instrs = cfg.measure_instrs;
    base_cfg.isa = cfg.isa;
    let baseline = run_config(workload, base_cfg, trace_seed);
    let report = run_config(workload, cfg, trace_seed);
    ExperimentResult { report, baseline }
}

/// A multi-seed measurement with a confidence interval, mirroring the
/// paper's SimFlex sampling methodology ("95 % confidence level and a
/// confidence interval of less than 4 %", §VI-C).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval.
    pub ci95: f64,
    /// Number of samples.
    pub n: usize,
}

impl Measurement {
    /// Computes mean and 95 % CI from samples (normal approximation;
    /// the paper's methodology likewise assumes approximate normality
    /// of sampled means).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Measurement { mean, ci95: 0.0, n };
        }
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let sem = (var / n as f64).sqrt();
        Measurement {
            mean,
            ci95: 1.96 * sem,
            n,
        }
    }

    /// Relative CI half-width (`ci95 / mean`), the paper's "< 4 %"
    /// criterion.
    pub fn relative_ci(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.ci95 / self.mean.abs()
        }
    }
}

/// Runs a method over `seeds` trace seeds and summarizes the speedups
/// over per-seed baselines.
pub fn run_multi_seed(workload: &Workload, cfg: &SimConfig, seeds: &[u64]) -> Measurement {
    assert!(!seeds.is_empty(), "no seeds");
    let speedups: Vec<f64> = seeds
        .iter()
        .map(|&s| run_workload(workload, cfg.clone(), s).speedup())
        .collect();
    Measurement::from_samples(&speedups)
}

/// Geometric mean, the standard summary for speedups.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut product = 1.0f64;
    let mut n = 0u32;
    for v in values {
        product *= v.max(1e-12);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        product.powf(1.0 / f64::from(n))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use dcfb_workloads::WorkloadParams;

    fn tiny_workload() -> Workload {
        Workload {
            name: "tiny",
            params: WorkloadParams {
                name: "tiny".to_owned(),
                functions: 40,
                root_functions: 6,
                ..WorkloadParams::default()
            },
            image_seed: 9,
        }
    }

    fn quick(method: &str) -> SimConfig {
        let mut cfg = SimConfig::for_method(method).unwrap();
        cfg.warmup_instrs = 50_000;
        cfg.measure_instrs = 100_000;
        cfg
    }

    #[test]
    fn paired_run_shares_workload() {
        let w = tiny_workload();
        let res = run_workload(&w, quick("NL"), 1);
        assert_eq!(res.report.workload, res.baseline.workload);
        assert_eq!(res.baseline.method, "Baseline");
        assert_eq!(res.report.method, "NL");
        assert!(res.speedup() > 0.9);
    }

    #[test]
    fn geomean_properties() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert!((geomean([3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_statistics() {
        let m = Measurement::from_samples(&[1.0, 1.1, 0.9, 1.0]);
        assert!((m.mean - 1.0).abs() < 1e-12);
        assert!(m.ci95 > 0.0);
        assert_eq!(m.n, 4);
        assert!(m.relative_ci() < 0.2);
        let single = Measurement::from_samples(&[2.5]);
        assert_eq!(single.ci95, 0.0);
        assert_eq!(single.mean, 2.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn measurement_rejects_empty() {
        let _ = Measurement::from_samples(&[]);
    }

    #[test]
    fn multi_seed_runs_are_tight() {
        let w = tiny_workload();
        let m = run_multi_seed(&w, &quick("NL"), &[1, 2, 3]);
        assert_eq!(m.n, 3);
        assert!(m.mean > 0.9, "mean speedup {}", m.mean);
        // Same workload family: seeds should agree within a loose CI.
        assert!(m.relative_ci() < 0.25, "relative CI {}", m.relative_ci());
    }

    #[test]
    fn run_config_is_deterministic() {
        let w = tiny_workload();
        let a = run_config(&w, quick("SN4L"), 7);
        let b = run_config(&w, quick("SN4L"), 7);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l1i.demand_misses, b.l1i.demand_misses);
    }
}
