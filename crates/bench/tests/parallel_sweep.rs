//! Parallel-sweep behavior of the `all_experiments` batch binary:
//!
//! * crash isolation, retry, failure summary, and checkpoint/resume
//!   must behave identically under `DCFB_JOBS=4` and `DCFB_JOBS=1`;
//! * the figure document (stdout) and the checkpoint file must be
//!   byte-identical for every job count.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_telemetry::JsonValue;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcfb-par-sweep-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_cmd(checkpoint: &Path, jobs: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_experiments"));
    cmd.env("DCFB_WARMUP", "400")
        .env("DCFB_MEASURE", "800")
        .env("DCFB_WORKLOADS", "2")
        .env("DCFB_JOBS", jobs)
        .env("DCFB_CHECKPOINT", checkpoint)
        .env_remove("DCFB_RESUME")
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

/// An injected figure panic under a 4-worker sweep must produce the
/// same failure summary, checkpoint contents, and resume behavior as
/// the sequential path (`batch_robustness.rs` covers `DCFB_JOBS=1`
/// implicitly — here the panic crosses the worker pool's scope join).
#[test]
fn crash_isolation_is_jobs_independent() {
    let dir = temp_dir("faults");
    let par_ckpt = dir.join("par.json");
    let seq_ckpt = dir.join("seq.json");

    let run_with_fault = |ckpt: &Path, jobs: &str| {
        tiny_cmd(ckpt, jobs)
            .env("DCFB_FAIL_FIGURE", "fig13")
            .output()
            .expect("spawn all_experiments")
    };
    let par = run_with_fault(&par_ckpt, "4");
    let seq = run_with_fault(&seq_ckpt, "1");

    for (label, out) in [("jobs=4", &par), ("jobs=1", &seq)] {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{label}\nstderr: {stderr}");
        assert!(stdout.contains("## Failure summary"), "{label}: {stdout}");
        assert!(stdout.contains("fig13"), "{label}: {stdout}");
        assert_eq!(
            outcome(&stderr, "fig13").as_deref(),
            Some("failed"),
            "{label}"
        );
        assert_eq!(
            outcome(&stderr, "fig16").as_deref(),
            Some("regenerated"),
            "{label}"
        );
    }
    // Identical documents and identical checkpoints: the parallel
    // executor merges in workload order, so nothing about the failure
    // path may depend on the job count.
    assert_eq!(
        par.stdout, seq.stdout,
        "figure document diverged across job counts"
    );
    let par_saved = std::fs::read_to_string(&par_ckpt).unwrap();
    let seq_saved = std::fs::read_to_string(&seq_ckpt).unwrap();
    assert_eq!(
        par_saved, seq_saved,
        "checkpoint diverged across job counts"
    );
    assert!(par_saved.contains("\"fig16\""));
    assert!(!par_saved.contains("\"fig13\""));

    // Resume under 4 workers: checkpointed figures skip, the failed
    // one regenerates, and the batch exits clean.
    let out = tiny_cmd(&par_ckpt, "4")
        .env("DCFB_RESUME", "1")
        .output()
        .expect("spawn all_experiments (resume)");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert_eq!(
        outcome(&stderr, "fig16").as_deref(),
        Some("skipped"),
        "{stderr}"
    );
    assert_eq!(
        outcome(&stderr, "fig13").as_deref(),
        Some("regenerated"),
        "{stderr}"
    );
    assert!(!stdout.contains("## Failure summary"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The whole tiny batch must emit byte-identical stdout and checkpoint
/// files at `DCFB_JOBS=1` and `DCFB_JOBS=8`.
#[test]
fn figure_output_is_byte_identical_across_job_counts() {
    let dir = temp_dir("determinism");
    let one_ckpt = dir.join("jobs1.json");
    let eight_ckpt = dir.join("jobs8.json");

    let one = tiny_cmd(&one_ckpt, "1").output().expect("spawn jobs=1");
    let eight = tiny_cmd(&eight_ckpt, "8").output().expect("spawn jobs=8");

    assert_eq!(one.status.code(), Some(0));
    assert_eq!(eight.status.code(), Some(0));
    assert!(!one.stdout.is_empty());
    assert_eq!(
        one.stdout, eight.stdout,
        "figure document must not depend on DCFB_JOBS"
    );
    assert_eq!(
        std::fs::read_to_string(&one_ckpt).unwrap(),
        std::fs::read_to_string(&eight_ckpt).unwrap(),
        "checkpoint must not depend on DCFB_JOBS"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
