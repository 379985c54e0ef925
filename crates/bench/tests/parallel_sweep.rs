//! Parallel-sweep behavior of the `all_experiments` batch binary:
//!
//! * crash isolation and the failure summary must behave identically
//!   under `DCFB_JOBS=4` and `DCFB_JOBS=1`;
//! * the figure document (stdout) must be byte-identical for every job
//!   count, and a run writes nothing to its working directory.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_telemetry::JsonValue;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcfb-par-sweep-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_cmd(jobs: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_experiments"));
    cmd.env("DCFB_WARMUP", "400")
        .env("DCFB_MEASURE", "800")
        .env("DCFB_WORKLOADS", "2")
        .env("DCFB_JOBS", jobs)
        .env_remove("DCFB_FAIL_FIGURE");
    cmd
}

/// The `outcome` the batch's stderr run log (one JSON object per line)
/// records for figure `id`.
fn outcome(stderr: &str, id: &str) -> Option<String> {
    stderr.lines().find_map(|line| {
        let v = JsonValue::parse(line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        if v.get("id").and_then(JsonValue::as_str) != Some(id) {
            return None;
        }
        v.get("outcome")?.as_str().map(str::to_owned)
    })
}

/// An injected figure panic, and a failing run (a zero warmup fails
/// every run on whichever worker ran it), must produce the same failure
/// summary under a 4-worker sweep as on the sequential path, carrying
/// the fault's own message.
#[test]
fn crash_isolation_is_jobs_independent() {
    let faults = [
        (
            "DCFB_FAIL_FIGURE",
            "fig13",
            "fig13",
            "fig16",
            "injected fault",
        ),
        (
            "DCFB_WARMUP",
            "0",
            "fig16",
            "fig06",
            "invalid configuration: warmup_instrs",
        ),
    ];
    for (var, value, failed, regenerated, message) in faults {
        let run_with_fault = |jobs: &str| {
            tiny_cmd(jobs)
                .env(var, value)
                .output()
                .expect("spawn all_experiments")
        };
        let par = run_with_fault("4");
        let seq = run_with_fault("1");

        for (label, out) in [("jobs=4", &par), ("jobs=1", &seq)] {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(4), "{label}\nstderr: {stderr}");
            assert!(stdout.contains("## Failure summary"), "{label}: {stdout}");
            let row = format!("| {failed} | {message}");
            assert!(stdout.contains(&row), "{label}: {stdout}");
            assert_eq!(
                outcome(&stderr, failed).as_deref(),
                Some("failed"),
                "{label}"
            );
            let kept = outcome(&stderr, regenerated);
            assert_eq!(kept.as_deref(), Some("regenerated"), "{label}");
        }
        // Identical documents: the parallel executor merges in item
        // order, so nothing about the failure path may depend on the
        // job count.
        assert_eq!(
            par.stdout, seq.stdout,
            "{var}: document diverged across job counts"
        );
    }
}

/// Runs the tiny batch at `jobs` workers in a fresh empty directory
/// under `dir`, and checks the run left that directory empty.
fn run_in_empty_dir(dir: &Path, jobs: &str) -> std::process::Output {
    let cwd = dir.join(format!("jobs{jobs}"));
    std::fs::create_dir_all(&cwd).unwrap();
    let out = tiny_cmd(jobs)
        .current_dir(&cwd)
        .output()
        .expect("spawn all_experiments");
    let left: Vec<_> = std::fs::read_dir(&cwd)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(left.is_empty(), "jobs={jobs} left files behind: {left:?}");
    out
}

/// The whole tiny batch must emit byte-identical stdout at
/// `DCFB_JOBS=1` and `DCFB_JOBS=8`, and write no file.
#[test]
fn figure_output_is_byte_identical_across_job_counts() {
    let dir = temp_dir("determinism");
    let one = run_in_empty_dir(&dir, "1");
    let eight = run_in_empty_dir(&dir, "8");

    assert_eq!(one.status.code(), Some(0));
    assert_eq!(eight.status.code(), Some(0));
    assert!(!one.stdout.is_empty());
    assert_eq!(
        one.stdout, eight.stdout,
        "figure document must not depend on DCFB_JOBS"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
