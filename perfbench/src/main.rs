//! The repository benchmark. See README.md in this directory.
//!
//! ```text
//! dcfb-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of one workload,
//! with `--trace 1` the per-layer metrics of a separate traced run. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod host;
mod plan;
#[cfg(test)]
mod tests;
mod timed;
mod traced;

use plan::{
    fig16_geomean, run_pass, setup, Checker, Model, Pass, Plan, Scale, PAPER_FIG16_SPEEDUP,
    WORKLOADS,
};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Named metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _, _)| n.as_str())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Names of metrics whose value is not a finite number.
    fn non_finite(&self) -> Vec<String> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The end-to-end run: repeated set-ups, then passes through the pool
/// until `seconds` have been measured. Times are expressed at the
/// nominal host speed (see [`host`]); the raw figures go to the record.
pub fn measure(plan: &Plan, seconds: f64, setup_reps: usize) -> (Metrics, Checker) {
    let mut m = Metrics::new();
    let mut ck = Checker::new(plan);
    let mut setup_s = Vec::new();
    let mut last = None;
    let before = host::speed(1);
    for _ in 0..setup_reps {
        match setup(plan) {
            Ok(s) => {
                setup_s.push(s.total_s());
                last = Some(s);
            }
            Err(e) => ck.fail(e),
        }
    }
    let setup_speed = (before + host::speed(1)) / 2.0;
    let Some(setup) = last else {
        return (m, ck);
    };
    let (mut raw, mut mips, mut speeds) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Pass> = None;
    let mut speed = host::speed(plan.pool);
    let start = Instant::now();
    while first.is_none() || start.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(plan, &setup, plan.pool);
        let after = host::speed(plan.pool);
        let pass_speed = (speed + after) / 2.0;
        speed = after;
        if ck.check_pass(&pass) {
            let instrs = (plan.scale.total() * plan.jobs.len() as u64) as f64;
            let r = instrs / pass.wall_s / 1e6;
            raw.push(r);
            mips.push(r * host::NOMINAL_SPEED / pass_speed);
            speeds.push(pass_speed);
        }
        first.get_or_insert(pass);
    }
    eprintln!(
        "{} passes: raw sim_mips {:.3}, host speed {:.2} Mops/s per thread (nominal {})",
        mips.len(),
        median(&raw),
        median(&speeds),
        host::NOMINAL_SPEED
    );
    m.push("sim_mips", median(&mips), "Minstr/s");
    m.push(
        "setup_s",
        median(&setup_s) * setup_speed / host::NOMINAL_SPEED,
        "s",
    );
    match host::peak_rss_mib() {
        Some(v) => m.push("peak_rss_mib", v, "MiB"),
        None => ck.fail("peak RSS unavailable: /proc/self/status has no VmHWM".to_owned()),
    }

    // The host and model record: exact simulated statistics, so that a
    // speed-only change can show them unchanged.
    let runs = first.map(|p| p.runs).unwrap_or_default();
    let mut record = vec![
        format!("\"workload\": \"{}\"", plan.name),
        format!("\"nproc\": {}", host::nproc()),
        format!("\"jobs\": {}", plan.pool),
        format!("\"passes\": {}", mips.len()),
        format!("\"raw_sim_mips\": {:?}", median(&raw)),
        format!("\"raw_setup_s\": {:?}", median(&setup_s)),
        format!("\"host_speed\": {:?}", median(&speeds)),
    ];
    for (name, v, _) in Model::of(&runs).metrics() {
        record.push(format!("\"{name}\": {v:?}"));
    }
    if let Some(g) = fig16_geomean(plan, &runs) {
        let err = (g - PAPER_FIG16_SPEEDUP).abs() / PAPER_FIG16_SPEEDUP;
        record.push(format!("\"fig16_geomean_speedup\": {g:?}"));
        record.push(format!("\"fig16_speedup_err\": {err:?}"));
        eprintln!(
            "fig16 geomean speedup {g:.4} (paper {PAPER_FIG16_SPEEDUP}): fig16_speedup_err {err:.4}"
        );
    }
    println!("{{\"record\": {{{}}}}}", record.join(", "));
    (m, ck)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(plan) = Plan::new(&args.workload, args.seed, Scale::DOCUMENTED, host::nproc()) else {
        eprintln!(
            "error: unknown workload {:?}; expected one of {WORKLOADS:?}",
            args.workload
        );
        std::process::exit(2);
    };
    // A run that panics is caught and counted as failed; keep each panic
    // to one line on standard error.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let (metrics, mut ck) = if args.trace {
        traced::trace(&plan, SETUP_REPS, host::nproc())
    } else {
        measure(&plan, args.seconds, SETUP_REPS)
    };
    for name in metrics.non_finite() {
        ck.fail(format!("metric {name} is not a finite number"));
    }
    for e in &ck.errors {
        eprintln!("error: {e}");
    }
    for (name, v, unit) in &metrics.0 {
        eprintln!("{:<40} {v:>14.6} {unit}", name);
    }
    let correct = ck.failed == 0;
    let finite = Metrics(
        metrics
            .0
            .into_iter()
            .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
            .collect(),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ck.attempted.max(1),
        ck.failed,
        finite.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
