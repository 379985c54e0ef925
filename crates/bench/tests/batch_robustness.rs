//! End-to-end crash isolation + resume for the `all_experiments`
//! batch binary: a run with an injected figure panic must complete,
//! write a failure summary, and exit with the run-failure code; a
//! second invocation with `DCFB_RESUME=1` must skip every checkpointed
//! figure and regenerate only the failed one.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::Command;

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
    // line rather than through the default panic hook.
    assert!(stderr.contains("[fig13] FAILED"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    assert!(stderr.contains("[fig16] regenerated"), "{stderr}");
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
    assert!(stderr.contains("resuming from"), "{stderr}");
    assert!(stderr.contains("[fig16] skipped (checkpoint)"), "{stderr}");
    assert!(stderr.contains("[fig13] regenerated"), "{stderr}");
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
    assert!(stderr.contains("resuming from"), "{stderr}");
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
    assert!(stderr.contains("warning: checkpoint damaged"), "{stderr}");
    assert!(stderr.contains("salvaged"), "{stderr}");
    assert!(stderr.contains("skipped (checkpoint)"), "{stderr}");
    assert!(stderr.contains("regenerated"), "{stderr}");
    assert!(!stdout.contains("## Failure summary"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}
