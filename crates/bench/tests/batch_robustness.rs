//! End-to-end behaviour of the `all_experiments` batch binary: crash
//! isolation (an injected figure panic or a failing run completes the
//! batch, writes a failure summary and a JSONL run log, and exits with
//! the run-failure code), the run log's distinct-run count, the figure
//! id filter, and the usage and bad-input exits.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_telemetry::JsonValue;
use std::process::Command;

/// The batch's stderr run log, one parsed JSON object per line. Every
/// line must parse and carry an `event`, and exactly one line is the
/// `runs` event.
fn run_log(stderr: &[u8]) -> Vec<JsonValue> {
    let log: Vec<JsonValue> = String::from_utf8_lossy(stderr)
        .lines()
        .map(|line| {
            let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert!(
                v.get("event").and_then(JsonValue::as_str).is_some(),
                "{line}"
            );
            v
        })
        .collect();
    assert_eq!(events(&log, "runs").len(), 1, "{log:?}");
    log
}

/// The `distinct` run count of the run log's `runs` event.
fn distinct_runs(log: &[JsonValue]) -> u64 {
    events(log, "runs")[0]
        .get("distinct")
        .and_then(JsonValue::as_u64)
        .unwrap()
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
    // At one workload the default batch's 63 declared specs are 33
    // distinct runs.
    assert_eq!(distinct_runs(&log), 33, "{stderr}");
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

/// The markdown document split into its header and its sections, each
/// section starting at a `### ` or `## ` heading.
fn sections(doc: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    for line in doc.split_inclusive('\n') {
        if line.starts_with("### ") || line.starts_with("## ") {
            out.push(String::new());
        }
        out.last_mut().unwrap().push_str(line);
    }
    out
}

#[test]
fn figure_ids_print_their_sections_of_the_full_document() {
    let full = scaled_cmd().output().expect("spawn all_experiments");
    assert_eq!(full.status.code(), Some(0));
    let full_log = run_log(&full.stderr);
    let some = scaled_cmd()
        .args(["fig16", "tab1"])
        .output()
        .expect("spawn all_experiments");
    assert_eq!(some.status.code(), Some(0));
    let some_log = run_log(&some.stderr);

    // The header, then the two sections in paper order (Table I comes
    // before Fig. 16), byte for byte as in the full document.
    let full_doc = sections(&String::from_utf8(full.stdout).unwrap());
    let pick = |heading: &str| {
        full_doc
            .iter()
            .find(|s| s.starts_with(heading))
            .unwrap_or_else(|| panic!("no {heading} section"))
            .clone()
    };
    let expected = [
        full_doc[0].clone(),
        pick("### Table I —"),
        pick("### Fig. 16 —"),
    ]
    .concat();
    assert_eq!(String::from_utf8(some.stdout).unwrap(), expected);
    assert_eq!(events(&some_log, "figure").len(), 2);
    // Fig. 16 and Table I need the baseline, SN4L+Dis+BTB, Shotgun and
    // Confluence: 4 runs, not the whole batch's 33.
    assert_eq!(distinct_runs(&some_log), 4);
    assert_eq!(distinct_runs(&full_log), 33);
}

#[test]
fn zero_warmup_fails_every_simulated_figure_and_only_those() {
    let out = scaled_cmd()
        .env("DCFB_WARMUP", "0")
        .output()
        .expect("spawn all_experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    let log = run_log(&out.stderr);
    let mut regenerated = Vec::new();
    for f in events(&log, "figure") {
        let id = f.get("id").and_then(JsonValue::as_str).unwrap();
        match f.get("outcome").and_then(JsonValue::as_str) {
            Some("regenerated") => regenerated.push(id),
            Some("failed") => {
                let error = f.get("error").and_then(JsonValue::as_str).unwrap();
                assert!(error.contains("warmup_instrs"), "{id}: {error}");
            }
            other => panic!("{id}: outcome {other:?}"),
        }
    }
    // The analysis figures and the static table run no simulation.
    assert_eq!(regenerated, ["fig06", "fig07", "fig08", "fig09", "tab2"]);
    assert_eq!(
        events(&log, "figure").len(),
        dcfb_bench::figures::all().len()
    );
}

/// A rejected invocation exits `code` before anything runs: nothing on
/// stdout, and one `error:` line on stderr that contains each of
/// `needles`.
fn assert_rejected(cmd: &mut Command, code: i32, needles: &[&str]) {
    let out = cmd.output().expect("spawn all_experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{stderr}");
    assert!(out.stdout.is_empty());
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "{needle}: {stderr}");
    }
}

#[test]
fn unknown_figure_id_exits_2() {
    let valid = ["\"fig10\"", "tab1", "fig16", "ablation"];
    assert_rejected(scaled_cmd().args(["fig16", "fig10"]), 2, &valid);
}

#[test]
fn malformed_scale_value_exits_3() {
    assert_rejected(scaled_cmd().env("DCFB_WARMUP", "2k"), 3, &["DCFB_WARMUP"]);
    assert_rejected(scaled_cmd().env("DCFB_JOBS", "banana"), 3, &["DCFB_JOBS"]);
}
