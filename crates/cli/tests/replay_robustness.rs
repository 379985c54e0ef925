//! End-to-end exit-code and diagnostics contract for the `dcfb`
//! binary: corrupt traces must produce a one-line `error:` diagnostic
//! and exit 3 (never a backtrace), `--lenient` must salvage the valid
//! prefix, and a clean record → replay round trip must succeed.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOAD: &str = "Web (Apache)";

fn dcfb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcfb"))
        .args(args)
        .output()
        .expect("spawn dcfb")
}

fn record(out: &Path, measure: &str) -> Output {
    dcfb(&[
        "record",
        "--workload",
        WORKLOAD,
        "--out",
        out.to_str().unwrap(),
        "--warmup",
        "100",
        "--measure",
        measure,
    ])
}

fn replay(trace: &Path, extra: &[&str]) -> Output {
    let mut args = vec![
        "replay",
        "--trace",
        trace.to_str().unwrap(),
        "--warmup",
        "200",
        "--measure",
        "800",
    ];
    args.extend_from_slice(extra);
    dcfb(&args)
}

fn assert_one_line_error(out: &Output, code: i32) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error:")),
        "missing `error:` diagnostic: {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "backtrace leaked to the user: {stderr}"
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcfb-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn record_replay_round_trip_succeeds() {
    let dir = temp_dir("roundtrip");
    let trace = dir.join("clean.dcfbt");
    let out = record(&trace, "1500");
    assert_eq!(
        out.status.code(),
        Some(0),
        "record failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = replay(&trace, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("replayed"), "{stdout}");
    assert!(!stderr.contains("warning:"), "clean trace warned: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_trace_exits_3_strict_and_salvages_lenient() {
    let dir = temp_dir("corrupt");
    let trace = dir.join("clean.dcfbt");
    // 1500 records = 3 chunks of 512; damage in the last chunk leaves
    // a salvageable 1024-record prefix.
    assert_eq!(record(&trace, "1500").status.code(), Some(0));
    let mut data = std::fs::read(&trace).unwrap();
    let flip_at = data.len() - 40;
    data[flip_at] ^= 0x01;
    let damaged = dir.join("damaged.dcfbt");
    std::fs::write(&damaged, &data).unwrap();

    // Strict (default): exit 3, one-line diagnostic, no backtrace.
    let out = replay(&damaged, &[]);
    assert_one_line_error(&out, 3);

    // Lenient: warn, salvage the prefix, and finish the replay.
    let out = replay(&damaged, &["--lenient"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("warning:"), "{stderr}");
    assert!(stderr.contains("salvaged 1024 of 1500"), "{stderr}");
    assert!(stdout.contains("replayed 1024 instructions"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn short_trace_source_runs_the_replay_window() {
    use dcfb_telemetry::json::JsonValue;
    // 5 000 records is shorter than the default 500 000-instruction
    // warmup: every finite-trace consumer warms up on half the trace
    // and measures the rest, exactly as `replay` does.
    let dir = temp_dir("short");
    let trace = dir.join("short.dcfbt");
    assert_eq!(record(&trace, "5000").status.code(), Some(0));
    let path = trace.to_str().unwrap();
    // Every field but `workload` (`trace:PATH` vs `PATH`).
    let fields = |out: Output| -> Vec<(String, JsonValue)> {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let JsonValue::Obj(fields) = JsonValue::parse(stdout.trim()).unwrap() else {
            panic!("not a JSON object: {stdout}");
        };
        fields
            .into_iter()
            .filter(|(k, _)| k != "workload")
            .collect()
    };
    let spec = format!("trace:{path}");
    let run = fields(dcfb(&["run", "--workload", &spec, "--json"]));
    let replayed = fields(dcfb(&["replay", "--trace", path, "--json"]));
    assert!(
        run.contains(&("instructions".to_owned(), JsonValue::UInt(2_500))),
        "{run:?}"
    );
    assert_eq!(run, replayed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_trace_exits_3() {
    let dir = temp_dir("trunc");
    let trace = dir.join("clean.dcfbt");
    assert_eq!(record(&trace, "600").status.code(), Some(0));
    let data = std::fs::read(&trace).unwrap();
    let cut = dir.join("cut.dcfbt");
    std::fs::write(&cut, &data[..data.len() / 2]).unwrap();
    assert_one_line_error(&replay(&cut, &[]), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn usage_and_bad_input_exit_codes() {
    // Missing required flag → usage error (2).
    assert_one_line_error(&dcfb(&["replay"]), 2);
    assert_one_line_error(&dcfb(&["record", "--workload", WORKLOAD]), 2);
    // Unknown command / option → usage error (2).
    assert_one_line_error(&dcfb(&["frobnicate"]), 2);
    assert_one_line_error(&dcfb(&["run", "--bogus"]), 2);
    // The removed job server, perf harness and sharded execution are
    // rejected, not silently ignored.
    for removed in ["serve", "bench-sweep"] {
        let out = dcfb(&[removed]);
        assert_one_line_error(&out, 2);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown command {removed:?}")),
            "{stderr}"
        );
    }
    let out = dcfb(&["run", "--workload", WORKLOAD, "--shards", "2"]);
    assert_one_line_error(&out, 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option \"--shards\""));
    // Unknown workload / method, invalid config → bad input (3).
    assert_one_line_error(&dcfb(&["run", "--workload", "nope"]), 3);
    assert_one_line_error(
        &dcfb(&["run", "--workload", WORKLOAD, "--method", "nope"]),
        3,
    );
    assert_one_line_error(&dcfb(&["run", "--workload", WORKLOAD, "--warmup", "0"]), 3);
}
