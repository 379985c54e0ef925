//! End-to-end contract for `dcfb fuzz`: the quick campaign passes and
//! prints the deterministic summary, stdout is bit-identical at any
//! `--jobs`, state files resume, and a zero budget or a damaged state
//! file is a typed config error (exit 3), not a usage error or a crash.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::{Command, Output};

fn dcfb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcfb"))
        .args(args)
        .output()
        .expect("spawn dcfb")
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dcfb-fuzz-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn quick_campaign_passes_and_reports_coverage() {
    let out = dcfb(&["fuzz", "--quick", "--seed", "42", "--jobs", "2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "fuzz --quick failed:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("fuzz: seed=42"), "{stdout}");
    assert!(stdout.contains("coverage:"), "{stdout}");
    assert!(stdout.contains("baseline"), "{stdout}");
    assert!(stdout.contains("corpus:"), "{stdout}");
    assert!(stdout.contains("digest fnv:"), "{stdout}");
    assert!(stdout.contains("no divergence"), "{stdout}");
    // Timing is stderr-only so stdout stays deterministic.
    assert!(!stdout.contains("wall clock"), "{stdout}");
}

#[test]
fn stdout_is_bit_identical_across_job_counts() {
    let one = dcfb(&["fuzz", "--quick", "--seed", "7", "--jobs", "1"]);
    let four = dcfb(&["fuzz", "--quick", "--seed", "7", "--jobs", "4"]);
    assert!(one.status.success() && four.status.success());
    assert_eq!(
        one.stdout, four.stdout,
        "campaign results must not depend on the worker count"
    );
}

#[test]
fn state_file_resumes_and_corpus_out_writes() {
    let state = tmp("state.json");
    let corpus = tmp("corpus.txt");
    let _ = std::fs::remove_file(&state);
    let _ = std::fs::remove_file(&corpus);
    let state_s = state.to_str().unwrap();
    let corpus_s = corpus.to_str().unwrap();

    let first = dcfb(&[
        "fuzz",
        "--quick",
        "--seed",
        "9",
        "--state",
        state_s,
        "--corpus-out",
        corpus_s,
    ]);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(state.exists(), "checkpoint file must be written");
    let text = std::fs::read_to_string(&corpus).unwrap();
    assert!(text.starts_with("# dcfb-corpus-v1 layout-seed=9"), "{text}");

    // Resuming the finished campaign does no further work and prints
    // the identical summary.
    let again = dcfb(&["fuzz", "--quick", "--seed", "9", "--state", state_s]);
    assert!(again.status.success());
    assert_eq!(first.stdout, again.stdout);

    // A different seed against the same state is a config error.
    let clash = dcfb(&["fuzz", "--quick", "--seed", "10", "--state", state_s]);
    assert_eq!(clash.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&clash.stderr);
    assert!(stderr.contains("saved seed 9"), "{stderr}");

    let _ = std::fs::remove_file(&state);
    let _ = std::fs::remove_file(&corpus);
}

#[test]
fn deeply_nested_state_file_is_a_typed_config_error() {
    let state = tmp("deep.json");
    std::fs::write(&state, format!("{{\"schema\": {}", "[".repeat(200_000))).unwrap();
    let out = dcfb(&["fuzz", "--quick", "--state", state.to_str().unwrap()]);
    let _ = std::fs::remove_file(&state);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("malformed checkpoint JSON"), "{stderr}");
}

#[test]
fn zero_budget_is_a_typed_config_error() {
    let out = dcfb(&["fuzz", "--ops", "0"]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("must be positive"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn non_numeric_budget_is_still_a_usage_error() {
    let out = dcfb(&["fuzz", "--ops", "lots"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fuzz_is_in_help() {
    let out = dcfb(&["help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fuzz"));
    assert!(stdout.contains("--jobs"));
    assert!(stdout.contains("--corpus-out"));
}
