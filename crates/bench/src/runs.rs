//! The batch's data path: the run scale, the run spec a figure declares,
//! and the executor that runs each distinct spec once on the worker
//! pool.

use crate::sweep::{lock_recovering, parallel_map_jobs};
use dcfb_errors::panic_message;
use dcfb_sim::{SimConfig, SimReport};
use dcfb_trace::IsaMode;
use dcfb_workloads::{all_workloads, workload, ProgramImage, ResolvedWorkload, Workload};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

/// The trace seed used by every experiment (determinism).
pub const TRACE_SEED: u64 = 0xD0_5EED;

/// The batch scale, read once from the environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Warmup instructions per run (`DCFB_WARMUP`, default 1 M).
    pub warmup: u64,
    /// Measured instructions per run (`DCFB_MEASURE`, default 2 M).
    pub measure: u64,
    /// How many catalog workloads the figures sweep, from the first
    /// (`DCFB_WORKLOADS`, default all 7; clamped to 1..=7).
    pub workloads: usize,
    /// Worker-pool size (`DCFB_JOBS`, default = available parallelism;
    /// 0 is treated as 1). Results are merged in item order, so the
    /// output is byte-identical for every job count.
    pub jobs: usize,
}

impl Scale {
    /// Reads the four scale variables. A value that is not an unsigned
    /// integer is an error naming the variable.
    pub fn from_env() -> Result<Scale, String> {
        Scale::parse(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`Scale::from_env`] over any variable source.
    fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Scale, String> {
        let read = |name: &str, default: u64| match var(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<u64>()
                .map_err(|_| format!("{name}={v:?} is not an unsigned integer")),
        };
        let catalog = all_workloads().len();
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Ok(Scale {
            warmup: read("DCFB_WARMUP", 1_000_000)?,
            measure: read("DCFB_MEASURE", 2_000_000)?,
            workloads: usize::try_from(read("DCFB_WORKLOADS", catalog as u64)?)
                .unwrap_or(catalog)
                .clamp(1, catalog),
            jobs: usize::try_from(read("DCFB_JOBS", host as u64)?)
                .unwrap_or(host)
                .max(1),
        })
    }

    /// The workloads the figures sweep, in catalog order.
    pub fn workload_list(&self) -> Vec<Workload> {
        all_workloads().into_iter().take(self.workloads).collect()
    }

    /// `cfg` with this scale's warmup and measure window.
    pub fn config(&self, mut cfg: SimConfig) -> SimConfig {
        cfg.warmup_instrs = self.warmup;
        cfg.measure_instrs = self.measure;
        cfg
    }

    /// The scaled configuration of a named method.
    ///
    /// # Panics
    ///
    /// Panics on an unknown method name. Figures pass only the fixed
    /// method names of their tables, so an unknown one is a bug in this
    /// crate; the CLI reports a user's unknown name as
    /// [`dcfb_errors::DcfbError::UnknownMethod`].
    pub fn method(&self, name: &str) -> SimConfig {
        match SimConfig::for_method(name) {
            Some(cfg) => self.config(cfg),
            #[allow(clippy::panic)]
            None => panic!("unknown method {name:?}"),
        }
    }
}

/// One simulation a figure reads: a catalog workload and the full
/// configuration. Every run uses [`TRACE_SEED`], so the pair is the
/// run's identity, and two figures that declare equal specs share one
/// run.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// The catalog workload's name.
    pub workload: &'static str,
    /// The machine and window.
    pub cfg: SimConfig,
}

impl RunSpec {
    /// `cfg` on `workload`.
    pub fn new(workload: &Workload, cfg: SimConfig) -> Self {
        RunSpec {
            workload: workload.name,
            cfg,
        }
    }
}

/// The specs of `declared` with duplicates dropped, in first-declared
/// order.
pub fn distinct<'a>(declared: impl IntoIterator<Item = &'a RunSpec>) -> Vec<RunSpec> {
    let mut seen = HashSet::new();
    declared
        .into_iter()
        .filter(|spec| seen.insert(*spec))
        .cloned()
        .collect()
}

/// Every run's outcome by spec: its report, or the message of the
/// error it returned or the panic it raised.
pub type Results = HashMap<RunSpec, Result<SimReport, String>>;

/// Runs each of `specs` once on `jobs` workers. A failing run is
/// recorded, not propagated, so it fails only the figures that read it.
pub fn run_specs(specs: Vec<RunSpec>, jobs: usize) -> Results {
    let outcomes = parallel_map_jobs(specs.clone(), jobs, |spec| {
        catch_unwind(AssertUnwindSafe(|| run(spec)))
            .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())))
    });
    specs.into_iter().zip(outcomes).collect()
}

/// Runs one spec on its workload's cached image.
fn run(spec: &RunSpec) -> Result<SimReport, String> {
    let w =
        workload(spec.workload).ok_or_else(|| format!("unknown workload {:?}", spec.workload))?;
    let source = ResolvedWorkload::from_image(image_for(&w, spec.cfg.isa));
    dcfb_sim::run(&source, spec.cfg.clone(), TRACE_SEED)
        .map(|run| run.report)
        .map_err(|e| e.to_string())
}

/// One figure's view of the batch: the reports of exactly the runs it
/// declared.
pub struct Reports<'a> {
    runs: HashMap<&'a RunSpec, &'a SimReport>,
}

impl<'a> Reports<'a> {
    /// The reports of `declared`, or the message of the first declared
    /// run that failed. Every declared spec is in `results`: the batch
    /// runs them all.
    pub fn of(declared: &'a [RunSpec], results: &'a Results) -> Result<Self, String> {
        let reports = declared.iter().map(|spec| {
            let outcome = results[spec].as_ref();
            outcome.map(|report| (spec, report)).map_err(String::clone)
        });
        Ok(Reports {
            runs: reports.collect::<Result<_, _>>()?,
        })
    }

    /// The report of `cfg` on `workload`.
    ///
    /// # Panics
    ///
    /// Panics on a run the figure did not declare: that is a bug in the
    /// figure, and it fails the figure instead of running silently.
    pub fn get(&self, workload: &Workload, cfg: &SimConfig) -> &'a SimReport {
        let spec = RunSpec::new(workload, cfg.clone());
        match self.runs.get(&spec) {
            Some(report) => report,
            #[allow(clippy::panic)]
            None => panic!(
                "read an undeclared run: {} on {}",
                cfg.prefetcher.name(),
                workload.name
            ),
        }
    }
}

/// Builds (or fetches a cached) program image for `workload`.
///
/// Concurrency-safe and build-once: parallel workers asking for the
/// same workload share one `Arc<ProgramImage>`. The cache's mutex is
/// held only long enough to fetch or insert the key's cell, and the
/// build runs inside the cell's `OnceLock`, so the image is built
/// exactly once even when several workers miss simultaneously (the
/// rest wait on that cell, not on the whole cache).
pub fn image_for(workload: &Workload, isa: IsaMode) -> Arc<ProgramImage> {
    type Cell = Arc<OnceLock<Arc<ProgramImage>>>;
    static CACHE: OnceLock<Mutex<HashMap<(String, IsaMode), Cell>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    let cell = Arc::clone(
        lock_recovering(cache)
            .entry((workload.name.to_owned(), isa))
            .or_default(),
    );
    Arc::clone(cell.get_or_init(|| workload.image(isa)))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn scale_of(vars: &[(&str, &str)]) -> Result<Scale, String> {
        Scale::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_owned())
        })
    }

    #[test]
    fn scale_env_defaults() {
        let s = scale_of(&[]).unwrap();
        assert_eq!((s.warmup, s.measure), (1_000_000, 2_000_000));
        assert_eq!(s.workload_list().len(), all_workloads().len());
        let s = scale_of(&[("DCFB_WORKLOADS", "0"), ("DCFB_WARMUP", "0")]).unwrap();
        assert_eq!((s.workloads, s.warmup), (1, 0));
        assert_eq!(scale_of(&[("DCFB_WORKLOADS", "99")]).unwrap().workloads, 7);
    }

    #[test]
    fn malformed_scale_values_are_errors() {
        for var in ["DCFB_WARMUP", "DCFB_MEASURE", "DCFB_WORKLOADS", "DCFB_JOBS"] {
            for bad in ["2k", "-1", "1e6", "", "0x10", "banana"] {
                let e = scale_of(&[(var, bad)]).unwrap_err();
                assert!(e.contains(var), "{e}");
                assert!(!e.contains('\n'), "{e}");
            }
        }
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert_eq!(scale_of(&[("DCFB_JOBS", "0")]).unwrap().jobs, 1);
        assert_eq!(scale_of(&[("DCFB_JOBS", "3")]).unwrap().jobs, 3);
    }

    #[test]
    fn jobs_defaults_to_host_parallelism_when_env_unset() {
        let host = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(scale_of(&[]).unwrap().jobs, host);
    }

    #[test]
    fn a_figure_sees_its_failed_and_undeclared_runs_as_errors() {
        let w = &all_workloads()[0];
        let scale = Scale {
            warmup: 200,
            measure: 300,
            workloads: 1,
            jobs: 2,
        };
        let good = RunSpec::new(w, scale.method("NL"));
        let bad = RunSpec::new(w, Scale { warmup: 0, ..scale }.method("NL"));
        let declared = [good.clone(), bad.clone(), good.clone()];
        let specs = distinct(&declared);
        assert_eq!(specs, [good.clone(), bad.clone()]);
        let results = run_specs(specs, scale.jobs);
        let e = Reports::of(&declared, &results).err().unwrap();
        assert!(e.contains("warmup_instrs"), "{e}");
        let reports = Reports::of(std::slice::from_ref(&good), &results).unwrap();
        assert!(reports.get(w, &good.cfg).instrs > 0);
        let undeclared = std::panic::catch_unwind(|| reports.get(w, &scale.method("N2L")));
        let e = panic_message(undeclared.err().unwrap().as_ref());
        assert!(e.contains("undeclared"), "{e}");
    }

    #[test]
    fn image_cache_returns_same_arc() {
        let w = &all_workloads()[0];
        let a = image_for(w, IsaMode::Fixed4);
        let b = image_for(w, IsaMode::Fixed4);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
