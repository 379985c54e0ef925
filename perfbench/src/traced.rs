//! The traced run: per-layer metrics of one workload.
//!
//! After one untraced pass through the worker pool (sweep metrics,
//! reference digests), every job runs serially four ways, interleaved
//! job by job so that host drift hits all four alike:
//!
//! 1. untraced, on its own stream (the reference time);
//! 2. untraced, replaying the same instructions pre-captured with
//!    `VecTrace::capture` (the walk differential);
//! 3. traced, through [`TimedDriver`] and [`TimedStream`];
//! 4. untraced, with telemetry toggled (the telemetry differential).
//!
//! All four must produce the reference digest.

use crate::plan::{
    run_job, run_pass, run_with, setup, simulator, Checker, Job, Model, Plan, RunOut, Setup,
};
use crate::timed::{Clock, Hook, Ledger, TimedDriver, TimedStream};
use crate::{median, Metrics};
use dcfb_sim::machine::build_driver;
use dcfb_sim::Simulator;
use dcfb_trace::{InstrStream, VecTrace};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Serial rounds over the jobs: enough that every workload times at
/// least six runs of each kind.
fn rounds(plan: &Plan) -> usize {
    (6 / plan.jobs.len()).max(1)
}

/// Host seconds spent simulating, without telemetry export.
fn sim_s(r: &RunOut) -> f64 {
    r.run_s
        - r.telemetry
            .as_ref()
            .map_or(0.0, |t| t.finalize_s + t.export_s)
}

/// Sums over the serial rounds.
#[derive(Default)]
struct Sums {
    walk_s: f64,
    replay_s: f64,
    replay_iter_s: f64,
    traced_s: f64,
    telem_on_s: f64,
    telem_off_s: f64,
    finalize_s: f64,
    export_s: f64,
    telem_runs: u64,
    issued: u64,
    accurate: u64,
    /// Untraced serial time of the first round (the serial sweep).
    serial_s: f64,
    traced_instrs: u64,
}

pub fn trace(plan: &Plan, setup_reps: usize, nproc: usize) -> (Metrics, Checker) {
    let mut m = Metrics::new();
    let mut ck = Checker::new(plan);
    let mut build = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..setup_reps {
        match setup(plan) {
            Ok(s) => {
                build.push(s.build_s);
                last = Some(s);
            }
            Err(e) => ck.fail(e),
        }
    }
    let Some(setup) = last else {
        return (m, ck);
    };

    let reference = run_pass(plan, &setup, plan.pool);
    ck.check_pass(&reference);
    let busy_s: f64 = reference.runs.iter().flatten().map(|r| r.run_s).sum();
    let mut last_end: Vec<(std::thread::ThreadId, f64)> = Vec::new();
    for r in reference.runs.iter().flatten() {
        match last_end.iter_mut().find(|(w, _)| *w == r.worker) {
            Some((_, e)) => *e = e.max(r.end_s),
            None => last_end.push((r.worker, r.end_s)),
        }
    }
    let first_idle = if last_end.len() < plan.pool {
        0.0
    } else {
        last_end
            .iter()
            .map(|(_, e)| *e)
            .fold(f64::INFINITY, f64::min)
    };
    let all_done = last_end.iter().map(|(_, e)| *e).fold(0.0, f64::max);

    let clock = Clock::calibrate();
    let ledger = Rc::new(RefCell::new(Ledger::new(clock, 0x5EED_F00D)));
    let mut s = Sums::default();
    for round in 0..rounds(plan) {
        for (j, job) in plan.jobs.iter().enumerate() {
            serial_round(plan, &setup, j, job, round, &ledger, &mut ck, &mut s);
        }
    }

    let l = ledger.borrow();
    let base = s.walk_s.max(f64::MIN_POSITIVE);
    let times = l.layer_times(base * 1e9);
    let kinstr = s.traced_instrs as f64 / 1000.0;
    let mut shares = 0.0;
    for h in Hook::ALL {
        let stat = l.hook(h);
        let ns = times.hook_ns[h as usize];
        let share = ns / 1e9 / base;
        shares += share;
        let per_call = ns / stat.calls.max(1) as f64;
        let p = h.metric_prefix();
        m.push(&format!("{p}.self_share"), share, "frac");
        match h {
            Hook::Walk => {
                m.push(&format!("{p}.ns_per_instr"), per_call, "ns");
                let replay = (s.walk_s - s.replay_s + s.replay_iter_s) / base;
                m.push(&format!("{p}.replay_share"), replay, "frac");
                m.push(&format!("{p}.share_gap"), (share - replay).abs(), "frac");
            }
            Hook::PumpBatch => {
                m.push(&format!("{p}.ns_per_call"), per_call, "ns");
                m.push(
                    &format!("{p}.pumps_per_call"),
                    stat.pumps as f64 / stat.calls.max(1) as f64,
                    "pumps/call",
                );
            }
            _ => {
                m.push(&format!("{p}.ns_per_call"), per_call, "ns");
                m.push(
                    &format!("{p}.calls_per_kinstr"),
                    stat.calls as f64 / kinstr.max(1e-9),
                    "1/kinstr",
                );
            }
        }
    }
    m.push("machine.step_residual.self_share", 1.0 - shares, "frac");
    m.push("workloads.image.build_s", median(&build), "s");

    let on = s.telem_on_s.max(f64::MIN_POSITIVE);
    m.push(
        "telemetry.overhead_frac",
        on / s.telem_off_s.max(f64::MIN_POSITIVE) - 1.0,
        "frac",
    );
    let per_run = |x: f64| x / s.telem_runs.max(1) as f64;
    m.push("telemetry.finalize_s", per_run(s.finalize_s), "s");
    m.push("telemetry.export_s", per_run(s.export_s), "s");

    m.push("sweep.busy_s", busy_s, "s");
    m.push(
        "sweep.idle_frac",
        1.0 - busy_s / (plan.pool as f64 * reference.wall_s),
        "frac",
    );
    m.push("sweep.tail_s", (all_done - first_idle).max(0.0), "s");
    m.push(
        "sweep.speedup_vs_serial",
        s.serial_s / reference.wall_s,
        "x",
    );
    m.push(
        "sweep.busy_inflation",
        busy_s / s.serial_s.max(f64::MIN_POSITIVE),
        "x",
    );

    for (name, v, unit) in Model::of(&reference.runs).metrics() {
        m.push(name, v, unit);
    }
    let accuracy = if s.issued == 0 {
        0.0
    } else {
        s.accurate as f64 / s.issued as f64
    };
    m.push("model.prefetch_accuracy", accuracy, "ratio");

    m.push("trace.timer_ns", times.timer_ns, "ns");
    m.push("trace.overhead_frac", s.traced_s / base - 1.0, "frac");
    m.push(
        "trace.window_gap",
        (times.loop_ns / 1e9 / base - 1.0).abs(),
        "frac",
    );
    m.push("trace.call_bias_ns", times.bias_ns, "ns");
    m.push("host.nproc", nproc as f64, "count");
    m.push("host.jobs", plan.pool as f64, "count");
    eprintln!(
        "traced {}: clock read {:.1} ns in place, timed region {:.1} ns, {} of {} cycles sampled, loop estimate {:.3} s vs {:.3} s measured",
        plan.name,
        times.timer_ns,
        times.region_ns,
        l.windows,
        l.cycles,
        times.loop_ns / 1e9,
        s.walk_s
    );
    (m, ck)
}

#[allow(clippy::too_many_arguments)]
fn serial_round(
    plan: &Plan,
    setup: &Setup,
    j: usize,
    job: &Job,
    round: usize,
    ledger: &Rc<RefCell<Ledger>>,
    ck: &mut Checker,
    s: &mut Sums,
) {
    let w = &setup.resolved[job.source];

    // 1. Reference: the job's own stream.
    let walk = run_job(plan, setup, job, Instant::now());
    if ck.check(j, &walk, |r| &r.digest).is_none() {
        return;
    }
    let Ok(walk) = walk else { return };
    let walk_s = sim_s(&walk);

    // 2. Replay of the same instructions, captured up front.
    let trace = VecTrace::capture(
        &mut w.stream(job.trace_seed),
        plan.scale.total() as usize + 64,
    );
    let t = Instant::now();
    let mut it = trace.replay();
    while let Some(i) = it.next_instr() {
        std::hint::black_box(i);
    }
    let replay_iter_s = t.elapsed().as_secs_f64();
    let replay = run_with(plan, job, |cfg| simulator(cfg, w), &mut trace.replay());
    drop(trace);
    let Some(replay_s) = ck.check(j, &replay, |r| &r.digest).map(sim_s) else {
        return;
    };

    // 3. Traced.
    let traced = run_with(
        plan,
        job,
        |cfg| {
            let driver = TimedDriver::new(build_driver(&cfg, w.start_pc()), Rc::clone(ledger));
            Simulator::try_with_driver(cfg, w.code(), w.name().to_owned(), Box::new(driver))
                .map_err(|e| e.to_string())
        },
        &mut TimedStream::new(w.stream(job.trace_seed), Rc::clone(ledger)),
    );
    ledger.borrow_mut().end_run();
    let Some(traced_s) = ck.check(j, &traced, |r| &r.digest).map(sim_s) else {
        return;
    };

    // 4. Telemetry toggled.
    let toggled = Job {
        telemetry: !job.telemetry,
        ..job.clone()
    };
    let other = run_job(plan, setup, &toggled, Instant::now());
    let Some(other) = ck.check(j, &other, |r| &r.digest) else {
        return;
    };
    let (on, off) = if job.telemetry {
        (&walk, other)
    } else {
        (other, &walk)
    };

    s.walk_s += walk_s;
    s.replay_s += replay_s;
    s.replay_iter_s += replay_iter_s;
    s.traced_s += traced_s;
    s.traced_instrs += plan.scale.total();
    s.telem_on_s += sim_s(on);
    s.telem_off_s += sim_s(off);
    if let Some(t) = &on.telemetry {
        s.finalize_s += t.finalize_s;
        s.export_s += t.export_s;
        s.telem_runs += 1;
        s.issued += t.issued;
        s.accurate += t.accurate;
    }
    if round == 0 {
        s.serial_s += walk.run_s;
    }
}
