//! Regenerates every table and figure of the paper and prints an
//! EXPERIMENTS.md-ready markdown document to stdout.
//!
//! Scale knobs: DCFB_WARMUP, DCFB_MEASURE, DCFB_WORKLOADS, DCFB_JOBS
//! (worker threads per figure sweep; the output is byte-identical for
//! every job count — results are merged in workload order).
//!
//! Robustness knobs:
//!
//! * Each figure runs under `catch_unwind`, the batch's one
//!   crash-isolation boundary: a panicking figure (any of its runs
//!   panicking included) is recorded in the failure summary at the end
//!   of the document instead of killing the batch. The default panic
//!   hook is silenced while figures run, so a failure shows as one
//!   run-log line and no hook message or backtrace.
//! * `DCFB_FAIL_FIGURE=<id>` injects a panic into the named figure
//!   (fault injection for the crash-isolation path itself).
//!
//! Progress goes to stderr as a JSONL run log: one JSON object per
//! line, written through `dcfb_telemetry::json`. Every line has an
//! `event` field:
//!
//! * `figure` — one per figure, with its `id`, `outcome`
//!   (`regenerated`, or `failed` with the panic message as `error`)
//!   and `wall_s`;
//! * `done` — last, with the number of `failed` figures.
//!
//! The batch writes no file: the document and the run log are its
//! only output.
//!
//! Exits 0 when every figure completed, 4 (the run-failure exit code)
//! when any figure failed. A reader that closes stdout or stderr early
//! (`| head`) does not change the exit code: writes to a closed pipe
//! are dropped. Any other write error exits 5 (host I/O).

use dcfb_errors::{panic_message, EXIT_IO, EXIT_RUN_FAILURE};
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

fn main() {
    let fail_figure = std::env::var("DCFB_FAIL_FIGURE").ok();

    doc("# Regenerated experiments — Divide and Conquer Frontend Bottleneck\n");
    doc(&format!(
        "Scale: warmup {} / measure {} instructions per run, {} workloads.\n",
        dcfb_bench::warmup_instrs(),
        dcfb_bench::measure_instrs(),
        dcfb_bench::workloads().len()
    ));

    let mut failures: Vec<(String, String)> = Vec::new();
    for (id, gen) in dcfb_bench::figures::all() {
        let t0 = Instant::now();
        let inject = fail_figure.as_deref() == Some(id);
        // The failure summary carries the panic message; the default
        // hook's report (and backtrace) would only repeat it.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                // Deliberate: this is the fault-injection knob the
                // crash-isolation tests exercise.
                #[allow(clippy::panic)]
                {
                    panic!("injected fault: DCFB_FAIL_FIGURE={id}");
                }
            }
            gen()
        }));
        std::panic::set_hook(default_hook);
        match result {
            Ok(table) => {
                log(
                    "figure",
                    &[
                        ("id", Val::Str(id)),
                        ("outcome", Val::Str("regenerated")),
                        ("wall_s", Val::Secs(t0.elapsed().as_secs_f32())),
                    ],
                );
                doc(&table.to_string());
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                log(
                    "figure",
                    &[
                        ("id", Val::Str(id)),
                        ("outcome", Val::Str("failed")),
                        ("wall_s", Val::Secs(t0.elapsed().as_secs_f32())),
                        ("error", Val::Str(&msg)),
                    ],
                );
                failures.push((id.to_owned(), msg));
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
