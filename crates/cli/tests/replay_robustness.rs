//! End-to-end exit-code and diagnostics contract for the `dcfb`
//! binary: corrupt traces (and files in the retired v1 binary format)
//! must produce a one-line `error:` diagnostic and exit 3 (never a
//! backtrace), `--lenient` must salvage and run the valid prefix, and
//! a clean record → replay round trip must succeed.

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
    use dcfb_telemetry::json::JsonValue;
    let dir = temp_dir("trunc");
    let trace = dir.join("clean.dcfbt");
    // 1500 records = 3 chunks of 512; a cut at half the file lands in
    // the second chunk, leaving one verified 512-record chunk.
    assert_eq!(record(&trace, "1500").status.code(), Some(0));
    let data = std::fs::read(&trace).unwrap();
    let cut = dir.join("cut.dcfbt");
    std::fs::write(&cut, &data[..data.len() / 2]).unwrap();
    assert_one_line_error(&replay(&cut, &[]), 3);

    // Lenient: the salvaged prefix runs and measures a non-empty
    // window (the requested 200 warmup, then the other 312 records).
    let out = replay(&cut, &["--lenient", "--json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("salvaged 512 of 1500"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = JsonValue::parse(stdout.trim()).unwrap();
    assert_eq!(
        report.get("instructions").and_then(JsonValue::as_u64),
        Some(312),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The v1 binary layout (`DCFBTRC1`: a bare magic and unchecked
/// records) is no longer read. It is a typed trace error at every
/// layer, and never falls through to the text parser.
#[test]
fn v1_trace_is_rejected_with_a_typed_error() {
    use dcfb_errors::{DcfbError, TraceErrorKind};
    use dcfb_trace::ReadMode;
    let dir = temp_dir("v1");
    let path = dir.join("legacy.dcfbt");
    let mut bytes = b"DCFBTRC1".to_vec();
    for i in 0..4u64 {
        bytes.extend_from_slice(&(0x1000 + 4 * i).to_le_bytes()); // pc
        bytes.extend_from_slice(&0u64.to_le_bytes()); // target
        bytes.extend_from_slice(&[4, 0]); // size, kind
    }
    std::fs::write(&path, &bytes).unwrap();

    for mode in [ReadMode::Strict, ReadMode::Lenient] {
        let err = dcfb_trace::read_binary_checked(bytes.as_slice(), mode).unwrap_err();
        assert!(
            matches!(
                err,
                DcfbError::Trace {
                    kind: TraceErrorKind::BadMagic,
                    ..
                }
            ),
            "{mode:?}: {err:?}"
        );
        let err = dcfb_workloads::load_trace(path.to_str().unwrap(), mode, "legacy")
            .err()
            .unwrap();
        assert!(matches!(err, DcfbError::Trace { .. }), "{mode:?}: {err:?}");
    }

    for extra in [&[][..], &["--lenient"][..]] {
        let out = replay(&path, extra);
        assert_one_line_error(&out, 3);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
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
    // The removed job server, perf harness, fuzz campaign, chaos
    // campaign and sharded execution are rejected, not silently
    // ignored.
    for removed in ["serve", "bench-sweep", "fuzz", "chaos"] {
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

/// A binary trace records the ISA it was captured under (re-recording
/// keeps it), and a run under the other ISA is a config error (exit 3)
/// naming both, on `replay` and on `trace:` sources alike. Text and
/// imported traces record no ISA, so they run under whichever `--isa`
/// is given.
#[test]
fn trace_recorded_isa_must_match_the_run() {
    let dir = temp_dir("isa");
    let variable = dir.join("variable.dcfbt");
    let path = variable.to_str().unwrap();
    let out = dcfb(&[
        "record",
        "--workload",
        WORKLOAD,
        "--isa",
        "variable",
        "--out",
        path,
        "--warmup",
        "100",
        "--measure",
        "1500",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let out = replay(&variable, &[]);
    assert_one_line_error(&out, 3);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("Variable") && stderr.contains("Fixed4"),
        "{stderr}"
    );
    assert_eq!(
        replay(&variable, &["--isa", "variable"]).status.code(),
        Some(0)
    );
    // Re-recording the trace keeps its ISA, whatever `--isa` says.
    let rerecorded = dir.join("rerecorded.dcfbt");
    let spec = format!("trace:{path}");
    let out = dcfb(&[
        "record",
        "--workload",
        &spec,
        "--out",
        rerecorded.to_str().unwrap(),
        "--warmup",
        "10",
        "--measure",
        "1000",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert_one_line_error(&replay(&rerecorded, &[]), 3);

    let fixed = dir.join("fixed.dcfbt");
    assert_eq!(record(&fixed, "1500").status.code(), Some(0));
    assert_one_line_error(&replay(&fixed, &["--isa", "variable"]), 3);
    let spec = format!("trace:{}", fixed.to_str().unwrap());
    let out = dcfb(&[
        "run",
        "--workload",
        &spec,
        "--isa",
        "variable",
        "--warmup",
        "200",
        "--measure",
        "800",
    ]);
    assert_one_line_error(&out, 3);

    let text = dir.join("variable.txt");
    let out = dcfb(&[
        "record",
        "--workload",
        WORKLOAD,
        "--isa",
        "variable",
        "--format",
        "text",
        "--out",
        text.to_str().unwrap(),
        "--warmup",
        "100",
        "--measure",
        "1500",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let champ = dir.join("champ.bin");
    let records: Vec<u8> = (0..64u64)
        .flat_map(|i| {
            let mut r = (0x1000 + 4 * i).to_le_bytes().to_vec();
            r.resize(64, 0);
            r
        })
        .collect();
    std::fs::write(&champ, records).unwrap();
    let imported = dir.join("imported.dcfbt");
    let out = dcfb(&[
        "import",
        "--trace",
        champ.to_str().unwrap(),
        "--out",
        imported.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    for unrecorded in [&text, &imported] {
        for isa in ["fixed", "variable"] {
            let out = replay(unrecorded, &["--isa", isa]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{unrecorded:?} {isa}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
