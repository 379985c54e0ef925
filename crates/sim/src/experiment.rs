//! The one run path: a configuration on a resolved workload source,
//! warmup then measurement, with telemetry as an option.

use crate::config::SimConfig;
use crate::machine::Simulator;
use crate::metrics::SimReport;
use dcfb_errors::DcfbError;
use dcfb_telemetry::TelemetryReport;
use dcfb_workloads::ResolvedWorkload;

/// What one [`run`] produced.
#[derive(Debug)]
pub struct Run {
    /// The measured report.
    pub report: SimReport,
    /// The finalized telemetry export; `Some` exactly when
    /// [`SimConfig::telemetry`] was set.
    pub telemetry: Option<TelemetryReport>,
}

/// Runs `cfg` on `source` with the given trace seed.
///
/// The requested window is first fitted to the source with
/// [`ResolvedWorkload::window`], so a finite trace warms up on at most
/// half its records.
///
/// # Errors
///
/// Returns [`DcfbError::Config`] if `cfg` fails validation, or if the
/// source is a trace recorded under another ISA than `cfg.isa` (its
/// instruction sizes and branch offsets only make sense under the ISA
/// that produced them).
pub fn run(
    source: &ResolvedWorkload,
    mut cfg: SimConfig,
    trace_seed: u64,
) -> Result<Run, DcfbError> {
    // Validate the request as given: the fitted window is never 0, so
    // checking only after fitting would accept a zero warmup/measure.
    cfg.validate()?;
    if let Some(recorded) = source.recorded_isa().filter(|&isa| isa != cfg.isa) {
        return Err(DcfbError::Config(format!(
            "{}: trace was recorded with the {recorded:?} ISA, but the run is configured \
             for {:?}",
            source.name(),
            cfg.isa
        )));
    }
    (cfg.warmup_instrs, cfg.measure_instrs) = source.window(cfg.warmup_instrs, cfg.measure_instrs);
    let profiled = cfg.telemetry;
    let mut sim = Simulator::try_with_code(
        cfg,
        source.code(),
        source.start_pc(),
        source.name().to_owned(),
    )?;
    let report = sim.run(&mut source.stream(trace_seed));
    Ok(Run {
        report,
        telemetry: if profiled { sim.take_telemetry() } else { None },
    })
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
mod tests {
    use super::*;

    #[test]
    fn geomean_properties() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert!((geomean([3.0]) - 3.0).abs() < 1e-12);
    }
}
