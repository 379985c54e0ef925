//! End-to-end crash isolation for the `all_experiments` batch binary:
//! a run with an injected figure panic must complete, write a failure
//! summary and a JSONL run log, and exit with the run-failure code.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_telemetry::JsonValue;
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

fn scaled_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_experiments"));
    cmd.env("DCFB_WARMUP", "2000")
        .env("DCFB_MEASURE", "3000")
        .env("DCFB_WORKLOADS", "1")
        .env_remove("DCFB_FAIL_FIGURE");
    cmd
}

#[test]
fn injected_figure_panic_is_summarized() {
    // fig13 dies. The batch must still complete every other figure,
    // print a failure summary, and exit 4.
    let out = scaled_cmd()
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
}

/// A reader that closes the run log early (`2>&1 >/dev/null | head -1`)
/// must not turn a run failure (exit 4) into a panic (exit 101): the
/// batch's writes to the closed pipe are dropped.
#[test]
fn closed_stderr_pipe_keeps_the_run_failure_exit_code() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let mut child = scaled_cmd()
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
}
