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
//!   hook is silenced while figures run, so a failure prints its
//!   one-line `[figNN] FAILED` status and no hook message or
//!   backtrace.
//! * Completed figures are checkpointed to a JSON file
//!   (`DCFB_CHECKPOINT`, default `target/all_experiments.checkpoint.json`)
//!   after each one finishes. `DCFB_RESUME=1` reloads the file and
//!   skips everything already present — only missing/failed figures are
//!   regenerated.
//! * `DCFB_FAIL_FIGURE=<id>` injects a panic into the named figure
//!   (fault injection for the crash-isolation path itself).
//!
//! Exits 0 when every figure completed, 4 (the run-failure exit code)
//! when any figure failed.

use dcfb_bench::checkpoint::Checkpoint;
use dcfb_errors::{panic_message, EXIT_RUN_FAILURE};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

fn main() {
    let checkpoint_path = Checkpoint::default_path();
    let resume = Checkpoint::resume_requested();
    let mut checkpoint = if resume {
        // Lenient load: a checkpoint torn by a mid-write kill (or any
        // other corruption) salvages its valid prefix instead of
        // discarding all recorded progress.
        match Checkpoint::load_lenient(&checkpoint_path) {
            Ok((cp, salvage)) => {
                if let Some(reason) = salvage {
                    eprintln!(
                        "warning: checkpoint damaged ({reason}); salvaged {} complete figure(s)",
                        cp.len()
                    );
                }
                eprintln!(
                    "resuming from {} ({} figures checkpointed)",
                    checkpoint_path.display(),
                    cp.len()
                );
                cp
            }
            Err(e) => {
                eprintln!("warning: cannot resume: {e}; starting fresh");
                Checkpoint::new()
            }
        }
    } else {
        Checkpoint::new()
    };
    let fail_figure = std::env::var("DCFB_FAIL_FIGURE").ok();

    println!("# Regenerated experiments — Divide and Conquer Frontend Bottleneck\n");
    println!(
        "Scale: warmup {} / measure {} instructions per run, {} workloads.\n",
        dcfb_bench::warmup_instrs(),
        dcfb_bench::measure_instrs(),
        dcfb_bench::workloads().len()
    );

    let mut failures: Vec<(String, String)> = Vec::new();
    for (id, gen) in dcfb_bench::figures::all() {
        if let Some(md) = checkpoint.get(id) {
            eprintln!("[{id}] skipped (checkpoint)");
            println!("{md}");
            continue;
        }
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
                let md = table.to_string();
                eprintln!("[{id}] regenerated in {:.1}s", t0.elapsed().as_secs_f32());
                println!("{md}");
                checkpoint.put(id, &md);
                if let Err(e) = checkpoint.save(&checkpoint_path) {
                    eprintln!("warning: cannot write checkpoint: {e}");
                }
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                eprintln!(
                    "[{id}] FAILED after {:.1}s: {msg}",
                    t0.elapsed().as_secs_f32()
                );
                failures.push((id.to_owned(), msg));
            }
        }
    }

    if failures.is_empty() {
        eprintln!("all figures completed");
    } else {
        println!("## Failure summary\n");
        println!("| figure | error |");
        println!("| --- | --- |");
        for (id, msg) in &failures {
            println!("| {id} | {} |", msg.replace('|', "\\|"));
        }
        println!();
        eprintln!(
            "{} figure(s) failed; completed figures are checkpointed at {} — rerun with DCFB_RESUME=1 to retry only the failures",
            failures.len(),
            checkpoint_path.display()
        );
        std::process::exit(EXIT_RUN_FAILURE);
    }
}
