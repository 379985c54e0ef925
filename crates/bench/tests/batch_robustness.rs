//! End-to-end crash isolation + resume for the `all_experiments`
//! batch binary: a run with an injected figure panic must complete,
//! write a failure summary, and exit with the run-failure code; a
//! second invocation with `DCFB_RESUME=1` must skip every checkpointed
//! figure and regenerate only the failed one.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_telemetry::JsonValue;
use std::path::PathBuf;
use std::process::Command;

/// The batch's stderr run log, one parsed JSON object per line. Every
/// line must parse and carry an `event`.
fn run_log(stderr: &[u8]) -> Vec<JsonValue> {
    String::from_utf8_lossy(stderr)
        .lines()
        .map(|line| {
            let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert!(
                v.get("event").and_then(JsonValue::as_str).is_some(),
                "{line}"
            );
            v
        })
        .collect()
}

/// The `outcome` the run log records for figure `id`.
fn outcome<'a>(log: &'a [JsonValue], id: &str) -> Option<&'a str> {
    log.iter()
        .filter(|v| v.get("event").and_then(JsonValue::as_str) == Some("figure"))
        .find(|v| v.get("id").and_then(JsonValue::as_str) == Some(id))
        .and_then(|v| v.get("outcome")?.as_str())
}

/// The run log's events of kind `event`.
fn events<'a>(log: &'a [JsonValue], event: &str) -> Vec<&'a JsonValue> {
    log.iter()
        .filter(|v| v.get("event").and_then(JsonValue::as_str) == Some(event))
        .collect()
}

fn scaled_cmd(checkpoint: &std::path::Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_experiments"));
    cmd.env("DCFB_WARMUP", "2000")
        .env("DCFB_MEASURE", "3000")
        .env("DCFB_WORKLOADS", "1")
        .env("DCFB_CHECKPOINT", checkpoint)
        .env_remove("DCFB_RESUME")
        .env_remove("DCFB_FAIL_FIGURE");
    cmd
}

#[test]
fn injected_figure_panic_is_summarized_and_resumable() {
    let dir = std::env::temp_dir().join(format!("dcfb-batch-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint: PathBuf = dir.join("checkpoint.json");

    // First run: fig13 dies. The batch must still complete every other
    // figure, print a failure summary, and exit 4.
    let out = scaled_cmd(&checkpoint)
        .env("DCFB_FAIL_FIGURE", "fig13")
        .output()
        .expect("spawn all_experiments");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(4),
        "expected run-failure exit code\nstderr: {stderr}"
    );
    assert!(stdout.contains("## Failure summary"), "{stdout}");
    assert!(stdout.contains("fig13"), "{stdout}");
    assert!(stdout.contains("injected fault"), "{stdout}");
    // The batch kept going past the failure, and reported it in one
    // run-log line rather than through the default panic hook.
    let log = run_log(&out.stderr);
    assert!(!stderr.contains("panicked at"), "{stderr}");
    let figures = events(&log, "figure");
    assert_eq!(figures.len(), dcfb_bench::figures::all().len(), "{stderr}");
    for f in &figures {
        assert!(
            f.get("wall_s").and_then(JsonValue::as_f64).is_some(),
            "{f:?}"
        );
    }
    assert_eq!(outcome(&log, "fig13"), Some("failed"), "{stderr}");
    let fig13 = figures
        .iter()
        .find(|v| v.get("id").and_then(JsonValue::as_str) == Some("fig13"))
        .unwrap();
    let error = fig13.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(error.contains("injected fault"), "{error}");
    assert_eq!(outcome(&log, "fig16"), Some("regenerated"), "{stderr}");
    let done = events(&log, "done");
    assert_eq!(done.len(), 1, "{stderr}");
    assert_eq!(done[0].get("failed").and_then(JsonValue::as_u64), Some(1));
    // Completed figures were checkpointed; the failed one was not.
    let ckpt = std::fs::read_to_string(&checkpoint).unwrap();
    assert!(ckpt.contains("\"fig16\""), "{ckpt}");
    assert!(!ckpt.contains("\"fig13\""), "{ckpt}");

    // Second run: resume. Checkpointed figures are skipped, only fig13
    // is regenerated, and the batch succeeds.
    let out = scaled_cmd(&checkpoint)
        .env("DCFB_RESUME", "1")
        .output()
        .expect("spawn all_experiments (resume)");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let log = run_log(&out.stderr);
    assert_eq!(events(&log, "resume").len(), 1, "{stderr}");
    assert_eq!(outcome(&log, "fig16"), Some("skipped"), "{stderr}");
    assert_eq!(outcome(&log, "fig13"), Some("regenerated"), "{stderr}");
    assert!(!stdout.contains("## Failure summary"), "{stdout}");
    // The resumed document still contains every figure's table.
    assert!(
        stdout.contains("Fig. 16") || stdout.contains("fig16") || stdout.contains("Speedup"),
        "resumed document looks incomplete: {stdout}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_mid_sweep_then_resume_is_byte_identical() {
    use std::time::{Duration, Instant};

    let dir = std::env::temp_dir().join(format!("dcfb-batch-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Reference: one uninterrupted parallel batch.
    let reference = dir.join("reference.json");
    let out = scaled_cmd(&reference)
        .env("DCFB_JOBS", "2")
        .output()
        .expect("spawn all_experiments (reference)");
    assert_eq!(out.status.code(), Some(0));
    let want = out.stdout;

    // Victim: same batch, SIGKILLed as soon as the first figure lands
    // in the checkpoint (possibly mid-write of a later save).
    let checkpoint = dir.join("killed.json");
    let mut child = scaled_cmd(&checkpoint)
        .env("DCFB_JOBS", "2")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn all_experiments (victim)");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if std::fs::read_to_string(&checkpoint)
            .map(|s| s.contains("\"fig"))
            .unwrap_or(false)
        {
            break;
        }
        if child.try_wait().unwrap().is_some() || Instant::now() > deadline {
            break; // finished (or hung) before we could kill — resume still must work
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().ok();
    child.wait().unwrap();

    // Resume: the merged document must be byte-identical to the
    // uninterrupted reference.
    let out = scaled_cmd(&checkpoint)
        .env("DCFB_JOBS", "2")
        .env("DCFB_RESUME", "1")
        .output()
        .expect("spawn all_experiments (resume)");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(events(&run_log(&out.stderr), "resume").len(), 1, "{stderr}");
    assert_eq!(
        out.stdout, want,
        "resumed document differs from the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_checkpoint_is_salvaged_on_resume() {
    let dir = std::env::temp_dir().join(format!("dcfb-batch-salvage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint: PathBuf = dir.join("checkpoint.json");

    // Seed a complete checkpoint, then tear it mid-file as a kill
    // during a checkpoint write would.
    let out = scaled_cmd(&checkpoint)
        .output()
        .expect("spawn all_experiments (seed)");
    assert_eq!(out.status.code(), Some(0));
    let full = std::fs::read_to_string(&checkpoint).unwrap();
    // Cut inside the last figure's value so at least one entry is
    // damaged but earlier ones stay intact.
    let last_key = full.rfind("\"fig").unwrap();
    std::fs::write(&checkpoint, &full[..last_key + 20]).unwrap();

    // Resume: the valid prefix must be salvaged (skipped figures), the
    // torn tail regenerated, and the batch must succeed with a complete
    // document.
    let out = scaled_cmd(&checkpoint)
        .env("DCFB_RESUME", "1")
        .output()
        .expect("spawn all_experiments (salvage resume)");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let log = run_log(&out.stderr);
    let warnings = events(&log, "warning");
    assert_eq!(warnings.len(), 1, "{stderr}");
    let message = warnings[0].get("message").and_then(JsonValue::as_str);
    assert!(
        message.is_some_and(|m| m.contains("checkpoint damaged") && m.contains("salvaged")),
        "{stderr}"
    );
    let outcomes: Vec<&str> = events(&log, "figure")
        .iter()
        .filter_map(|v| v.get("outcome")?.as_str())
        .collect();
    assert!(outcomes.contains(&"skipped"), "{stderr}");
    assert!(outcomes.contains(&"regenerated"), "{stderr}");
    assert!(!stdout.contains("## Failure summary"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A reader that closes the run log early (`2>&1 >/dev/null | head -1`)
/// must not turn a run failure (exit 4) into a panic (exit 101): the
/// batch's writes to the closed pipe are dropped.
#[test]
fn closed_stderr_pipe_keeps_the_run_failure_exit_code() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("dcfb-batch-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = scaled_cmd(&dir.join("checkpoint.json"))
        .env("DCFB_FAIL_FIGURE", "fig01")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn all_experiments");
    // Read the first run-log line, then close the pipe like `head -1`.
    let mut first = String::new();
    BufReader::new(child.stderr.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert_eq!(run_log(first.as_bytes()).len(), 1, "{first}");
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(4), "first log line: {first}");
    std::fs::remove_dir_all(&dir).unwrap();
}
