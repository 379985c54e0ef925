//! The three workloads, their set-up, and untraced runs through the
//! worker pool.

use dcfb_bench::sweep::parallel_map_jobs;
use dcfb_sim::{SimConfig, SimReport, Simulator};
use dcfb_trace::InstrStream;
use dcfb_workloads::{all_workloads, resolve_workload, ResolvedWorkload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::ThreadId;
use std::time::Instant;

/// Workload names, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["fig16-sweep", "directed-oltp", "profiled-mix"];

/// Trace seed of the documented Fig. 16 reproduction.
pub const FIG16_TRACE_SEED: u64 = 0xD0_5EED;
/// The paper's Fig. 16 geomean speedup of SN4L+Dis+BTB (+19 %).
pub const PAPER_FIG16_SPEEDUP: f64 = 1.19;
pub const FIG16_METHOD: &str = "SN4L+Dis+BTB";
pub const BASELINE: &str = "Baseline";

/// Instructions per run.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub warmup: u64,
    pub measure: u64,
}

impl Scale {
    /// The default scale EXPERIMENTS.md documents: 1 M warmup + 2 M
    /// measured instructions per run.
    pub const DOCUMENTED: Scale = Scale {
        warmup: 1_000_000,
        measure: 2_000_000,
    };

    pub fn total(self) -> u64 {
        self.warmup + self.measure
    }
}

/// One simulator run.
#[derive(Clone, Debug)]
pub struct Job {
    /// Index into [`Plan::sources`].
    pub source: usize,
    pub method: &'static str,
    pub telemetry: bool,
    pub trace_seed: u64,
}

/// A workload: its sources, its runs, and the pool width they share.
#[derive(Clone, Debug)]
pub struct Plan {
    pub name: &'static str,
    pub sources: Vec<String>,
    pub jobs: Vec<Job>,
    /// Worker threads of `parallel_map_jobs`.
    pub pool: usize,
    pub scale: Scale,
}

impl Plan {
    /// Builds the named workload. `seed` is the trace seed of every run
    /// except those of `fig16-sweep`, which are pinned to
    /// [`FIG16_TRACE_SEED`] so that its accuracy figure is the
    /// documented one.
    pub fn new(name: &str, seed: u64, scale: Scale, nproc: usize) -> Option<Plan> {
        let job = |source, method, telemetry, trace_seed| Job {
            source,
            method,
            telemetry,
            trace_seed,
        };
        let (name, sources, jobs, pool) = match name {
            "fig16-sweep" => {
                let sources: Vec<String> =
                    all_workloads().iter().map(|w| w.name.to_owned()).collect();
                let jobs = (0..sources.len())
                    .flat_map(|s| {
                        [BASELINE, FIG16_METHOD].map(|m| job(s, m, false, FIG16_TRACE_SEED))
                    })
                    .collect();
                (WORKLOADS[0], sources, jobs, nproc)
            }
            "directed-oltp" => (
                WORKLOADS[1],
                vec!["OLTP (DB A)".to_owned()],
                vec![
                    job(0, "Shotgun", false, seed),
                    job(0, "Boomerang", false, seed),
                ],
                1,
            ),
            "profiled-mix" => (
                WORKLOADS[2],
                vec!["mix:Media Streaming+OLTP (DB A)".to_owned()],
                vec![job(0, FIG16_METHOD, true, seed)],
                1,
            ),
            _ => return None,
        };
        Some(Plan {
            name,
            sources,
            jobs,
            pool: pool.max(1),
            scale,
        })
    }

    pub fn config(&self, job: &Job) -> Result<SimConfig, String> {
        let mut cfg = SimConfig::for_method(job.method)
            .ok_or_else(|| format!("unknown method {:?}", job.method))?;
        cfg.warmup_instrs = self.scale.warmup;
        cfg.measure_instrs = self.scale.measure;
        cfg.telemetry = job.telemetry;
        Ok(cfg)
    }
}

/// Resolved sources, plus how long one set-up took.
pub struct Setup {
    pub resolved: Vec<ResolvedWorkload>,
    /// Resolving the sources (building the program images).
    pub build_s: f64,
    /// Constructing every job's simulator, one at a time.
    pub construct_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.construct_s
    }
}

/// Resolves every source and constructs (then drops) every job's
/// simulator.
pub fn setup(plan: &Plan) -> Result<Setup, String> {
    let isa = SimConfig::default().isa;
    let t = Instant::now();
    let resolved = plan
        .sources
        .iter()
        .map(|s| resolve_workload(s, isa))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let build_s = t.elapsed().as_secs_f64();
    let mut construct_s = 0.0;
    for job in &plan.jobs {
        let cfg = plan.config(job)?;
        let t = Instant::now();
        let sim = simulator(cfg, &resolved[job.source])?;
        construct_s += t.elapsed().as_secs_f64();
        drop(sim);
    }
    Ok(Setup {
        resolved,
        build_s,
        construct_s,
    })
}

pub fn simulator(cfg: SimConfig, w: &ResolvedWorkload) -> Result<Simulator, String> {
    Simulator::try_with_code(cfg, w.code(), w.start_pc(), w.name().to_owned())
        .map_err(|e| e.to_string())
}

/// What a telemetry-on run exported.
#[derive(Clone, Debug, Default)]
pub struct TelemetryOut {
    /// `take_telemetry` (finalisation into a metrics document).
    pub finalize_s: f64,
    /// Validation plus JSON, CSV and Chrome-trace rendering.
    pub export_s: f64,
    pub issued: u64,
    pub accurate: u64,
}

/// One successful run.
#[derive(Clone, Debug)]
pub struct RunOut {
    pub report: SimReport,
    pub digest: String,
    /// Host seconds of the run, set-up and export included.
    pub run_s: f64,
    /// When the run ended, in seconds since its pass began.
    pub end_s: f64,
    pub worker: ThreadId,
    pub telemetry: Option<TelemetryOut>,
}

/// Constructs a simulator with `make` and runs it over `stream`, timing
/// both; then checks the instruction counts and, when telemetry is on,
/// finalises and exports it. A panic anywhere in the run is caught and
/// reported as an error.
pub fn run_with<S: InstrStream>(
    plan: &Plan,
    job: &Job,
    make: impl FnOnce(SimConfig) -> Result<Simulator, String>,
    stream: &mut S,
) -> Result<RunOut, String> {
    let run = || {
        let t = Instant::now();
        let mut sim = make(plan.config(job)?)?;
        let report = sim.run(stream);
        if sim.instrs_retired() != plan.scale.total() || report.instrs != plan.scale.measure {
            return Err(format!(
                "{} on {}: retired {} instructions ({} measured), expected {} ({})",
                report.method,
                report.workload,
                sim.instrs_retired(),
                report.instrs,
                plan.scale.total(),
                plan.scale.measure
            ));
        }
        let finalized = Instant::now();
        let telemetry = match sim.take_telemetry() {
            None => None,
            Some(telem) => {
                let finalize_s = finalized.elapsed().as_secs_f64();
                let exported = Instant::now();
                telem.doc.validate()?;
                let bytes = telem.doc.to_json().len()
                    + telem.doc.to_csv().len()
                    + telem.chrome_trace().len();
                std::hint::black_box(bytes);
                let (issued, accurate) = telem
                    .doc
                    .timeliness
                    .iter()
                    .fold((0, 0), |(i, a), r| (i + r.issued, a + r.accurate));
                Some(TelemetryOut {
                    finalize_s,
                    export_s: exported.elapsed().as_secs_f64(),
                    issued,
                    accurate,
                })
            }
        };
        Ok(RunOut {
            digest: report.digest(),
            report,
            run_s: t.elapsed().as_secs_f64(),
            end_s: 0.0,
            worker: std::thread::current().id(),
            telemetry,
        })
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned());
        Err(format!("run panicked: {msg}"))
    })
}

/// One untraced run of `job` on its source's own stream.
pub fn run_job(
    plan: &Plan,
    setup: &Setup,
    job: &Job,
    pass_start: Instant,
) -> Result<RunOut, String> {
    let w = &setup.resolved[job.source];
    let mut out = run_with(
        plan,
        job,
        |cfg| simulator(cfg, w),
        &mut w.stream(job.trace_seed),
    )?;
    out.end_s = pass_start.elapsed().as_secs_f64();
    Ok(out)
}

/// Every job of a plan, once, through the worker pool.
pub struct Pass {
    pub wall_s: f64,
    pub runs: Vec<Result<RunOut, String>>,
}

pub fn run_pass(plan: &Plan, setup: &Setup, pool: usize) -> Pass {
    let start = Instant::now();
    let runs = parallel_map_jobs(plan.jobs.iter().collect(), pool, |job: &&Job| {
        run_job(plan, setup, job, start)
    });
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        runs,
    }
}

/// Counts runs and failures, holding each job to the digest of its
/// first successful run.
pub struct Checker {
    digests: Vec<Option<String>>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checker {
    pub fn new(plan: &Plan) -> Checker {
        Checker {
            digests: vec![None; plan.jobs.len()],
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Records one run of job `j`; returns its output if it passed.
    pub fn check<'a, T>(
        &mut self,
        j: usize,
        run: &'a Result<T, String>,
        digest: impl Fn(&T) -> &str,
    ) -> Option<&'a T> {
        self.attempted += 1;
        let problem = match run {
            Err(e) => Some(e.clone()),
            Ok(out) => match &self.digests[j] {
                Some(d) if d != digest(out) => {
                    Some(format!("job {j}: digest differs from its first run"))
                }
                Some(_) => None,
                None => {
                    self.digests[j] = Some(digest(out).to_owned());
                    None
                }
            },
        };
        match problem {
            None => run.as_ref().ok(),
            Some(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
                None
            }
        }
    }

    pub fn check_pass(&mut self, pass: &Pass) -> bool {
        let before = self.failed;
        for (j, run) in pass.runs.iter().enumerate() {
            self.check(j, run, |r| &r.digest);
        }
        self.failed == before
    }

    /// Records a failure that is not a run (e.g. a bad measurement).
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        self.errors.push(e);
    }
}

/// Geomean of SN4L+Dis+BTB over Baseline IPC across the plan's sources,
/// if the plan runs that pair on every source.
pub fn fig16_geomean(plan: &Plan, runs: &[Result<RunOut, String>]) -> Option<f64> {
    let ipc = |source: usize, method: &str| {
        plan.jobs
            .iter()
            .zip(runs)
            .find(|(j, _)| j.source == source && j.method == method)
            .and_then(|(_, r)| r.as_ref().ok())
            .map(|r| r.report.ipc())
    };
    let speedups: Option<Vec<f64>> = (0..plan.sources.len())
        .map(|s| Some(ipc(s, FIG16_METHOD)? / ipc(s, BASELINE)?))
        .collect();
    let speedups = speedups?;
    let n = speedups.len() as f64;
    Some(speedups.iter().product::<f64>().powf(1.0 / n))
}

/// Exact simulated statistics summed over one pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct Model {
    pub cycles: u64,
    pub instrs: u64,
    pub l1i_misses: u64,
    pub btb_lookups: u64,
    pub btb_misses: u64,
    pub uncore_requests: u64,
    pub uncore_latency: u64,
}

impl Model {
    pub fn add(&mut self, r: &SimReport) {
        self.cycles += r.cycles;
        self.instrs += r.instrs;
        self.l1i_misses += r.l1i.demand_misses;
        self.btb_lookups += r.btb.lookups;
        self.btb_misses += r.btb.misses;
        self.uncore_requests += r.uncore.requests;
        self.uncore_latency += r.uncore.total_latency;
    }

    pub fn of(runs: &[Result<RunOut, String>]) -> Model {
        let mut m = Model::default();
        for r in runs.iter().flatten() {
            m.add(&r.report);
        }
        m
    }

    pub fn metrics(&self) -> [(&'static str, f64, &'static str); 5] {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        [
            ("model.cycles", self.cycles as f64, "cycles"),
            ("model.ipc", ratio(self.instrs, self.cycles), "instr/cycle"),
            (
                "model.l1i_mpki",
                1000.0 * ratio(self.l1i_misses, self.instrs),
                "miss/kinstr",
            ),
            (
                "model.btb_miss_ratio",
                ratio(self.btb_misses, self.btb_lookups),
                "ratio",
            ),
            (
                "model.uncore_avg_latency",
                ratio(self.uncore_latency, self.uncore_requests),
                "cycles",
            ),
        ]
    }
}
