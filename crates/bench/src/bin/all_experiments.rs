//! Regenerates the paper's tables and figures and prints an
//! EXPERIMENTS.md-ready markdown document to stdout.
//!
//! `all_experiments` prints every figure of the default batch;
//! `all_experiments fig16 tab1` prints the header and just the named
//! figures, in paper order. The ids are `fig01`, `tab1`, `fig02`–`fig09`,
//! `fig11`–`fig18`, `tab2`, `dvllc`, and `ablation` (the proactive-engine
//! ablation, which only its id selects). An unknown id exits 2 with a
//! message listing the valid ones.
//!
//! Scale: `DCFB_WARMUP`, `DCFB_MEASURE`, `DCFB_WORKLOADS`, `DCFB_JOBS`
//! (worker threads; the output is byte-identical for every job count),
//! read once before anything runs. A value that is not an unsigned
//! integer exits 3 with one `error:` line naming the variable.
//!
//! The batch gathers the selected figures' run specs, runs each
//! distinct spec once on the worker pool, then renders the figures in
//! paper order from the reports.
//!
//! Robustness knobs:
//!
//! * A run that fails (returns an error or panics) fails exactly the
//!   figures that declared it, with the run's message; a figure whose
//!   rendering panics fails alone. Failed figures are recorded in the
//!   failure summary at the end of the document instead of killing the
//!   batch. The default panic hook is silenced meanwhile, so a failure
//!   shows as one run-log line and no hook message or backtrace.
//! * `DCFB_FAIL_FIGURE=<id>` injects a panic into the named figure
//!   (fault injection for the crash-isolation path itself).
//!
//! Progress goes to stderr as a JSONL run log: one JSON object per
//! line, written through `dcfb_telemetry::json`. Every line has an
//! `event` field:
//!
//! * `runs` — first, with the number of `declared` specs (the total
//!   length of the figures' spec lists), the number of `distinct` runs
//!   and their `wall_s`;
//! * `figure` — one per figure, with its `id`, `outcome`
//!   (`regenerated`, or `failed` with the message as `error`) and
//!   `wall_s`;
//! * `done` — last, with the number of `failed` figures.
//!
//! The batch writes no file: the document and the run log are its
//! only output.
//!
//! Exits 0 when every figure completed, 4 (the run-failure exit code)
//! when any figure failed. A reader that closes stdout or stderr early
//! (`| head`) does not change the exit code: writes to a closed pipe
//! are dropped. Any other write error exits 5 (host I/O).

use dcfb_bench::figures::{self, Figure};
use dcfb_bench::runs::{distinct, run_specs, Reports, Results};
use dcfb_bench::{RunSpec, Scale, Table};
use dcfb_errors::{panic_message, EXIT_BAD_INPUT, EXIT_IO, EXIT_RUN_FAILURE, EXIT_USAGE};
use dcfb_telemetry::json::write_escaped;
use std::fmt::Write as _;
use std::io::{ErrorKind, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Writes `text` and a newline to `out`. A closed pipe is not a batch
/// failure (the exit code still reports the run), so `BrokenPipe` is
/// ignored; any other write error ends the batch with exit 5.
fn emit(mut out: impl Write, text: &str) {
    match writeln!(out, "{text}") {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => std::process::exit(EXIT_IO),
        _ => {}
    }
}

/// One line of the markdown document on stdout.
fn doc(text: &str) {
    emit(std::io::stdout().lock(), text);
}

/// A field value of a run-log line.
enum Val<'a> {
    Str(&'a str),
    Count(usize),
    Secs(f32),
}

/// Writes one run-log line to stderr: a JSON object of `event` and
/// `fields`.
fn log(event: &str, fields: &[(&str, Val)]) {
    let mut line = String::from("{\"event\": ");
    write_escaped(&mut line, event);
    for (key, value) in fields {
        line.push_str(", ");
        write_escaped(&mut line, key);
        line.push_str(": ");
        match value {
            Val::Str(s) => write_escaped(&mut line, s),
            Val::Count(n) => {
                let _ = write!(line, "{n}");
            }
            Val::Secs(s) => {
                let _ = write!(line, "{s:.3}");
            }
        }
    }
    line.push('}');
    emit(std::io::stderr().lock(), &line);
}

/// Runs `f` with the default panic hook silenced: a caught panic is
/// reported once, in the run log, with no hook message or backtrace.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(default_hook);
    r
}

/// `fig`'s table from the `results` of its declared runs `specs`, or
/// the message that fails it: a failed run's, or a panic's in its
/// rendering (`inject` raises one on purpose).
fn render(
    fig: &Figure,
    specs: &[RunSpec],
    results: &Results,
    scale: &Scale,
    inject: bool,
) -> Result<Table, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if inject {
            // Deliberate: this is the fault-injection knob the
            // crash-isolation tests exercise.
            #[allow(clippy::panic)]
            {
                panic!("injected fault: DCFB_FAIL_FIGURE={}", fig.id);
            }
        }
        Reports::of(specs, results).map(|reports| (fig.render)(scale, &reports))
    }))
    .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())))
}

fn main() {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let figures = figures::select(&ids).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(EXIT_USAGE)
    });
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(EXIT_BAD_INPUT)
    });
    let fail_figure = std::env::var("DCFB_FAIL_FIGURE").ok();

    doc("# Regenerated experiments — Divide and Conquer Frontend Bottleneck\n");
    doc(&format!(
        "Scale: warmup {} / measure {} instructions per run, {} workloads.\n",
        scale.warmup, scale.measure, scale.workloads
    ));

    let t0 = Instant::now();
    let declared: Vec<Vec<RunSpec>> = figures.iter().map(|f| (f.runs)(&scale)).collect();
    let specs = distinct(declared.iter().flatten());
    let n_distinct = specs.len();
    let results = quietly(|| run_specs(specs, scale.jobs));
    log(
        "runs",
        &[
            ("declared", Val::Count(declared.iter().map(Vec::len).sum())),
            ("distinct", Val::Count(n_distinct)),
            ("wall_s", Val::Secs(t0.elapsed().as_secs_f32())),
        ],
    );

    let mut failures: Vec<(String, String)> = Vec::new();
    for (fig, specs) in figures.iter().zip(&declared) {
        let t0 = Instant::now();
        let inject = fail_figure.as_deref() == Some(fig.id);
        let result = quietly(|| render(fig, specs, &results, &scale, inject));
        let id = ("id", Val::Str(fig.id));
        let wall_s = ("wall_s", Val::Secs(t0.elapsed().as_secs_f32()));
        match result {
            Ok(table) => {
                log(
                    "figure",
                    &[id, ("outcome", Val::Str("regenerated")), wall_s],
                );
                doc(&table.to_string());
            }
            Err(msg) => {
                let error = ("error", Val::Str(&msg));
                log(
                    "figure",
                    &[id, ("outcome", Val::Str("failed")), wall_s, error],
                );
                failures.push((fig.id.to_owned(), msg));
            }
        }
    }

    if !failures.is_empty() {
        doc("## Failure summary\n");
        doc("| figure | error |");
        doc("| --- | --- |");
        for (id, msg) in &failures {
            doc(&format!("| {id} | {} |", msg.replace('|', "\\|")));
        }
        doc("");
    }
    log("done", &[("failed", Val::Count(failures.len()))]);
    if !failures.is_empty() {
        std::process::exit(EXIT_RUN_FAILURE);
    }
}
