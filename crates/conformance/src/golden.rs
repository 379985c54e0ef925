//! Digest-parity check: replays one fixed-seed trace through every
//! method in the `dcfb-prefetch` registry and compares each
//! [`SimReport::digest`](dcfb_sim::SimReport) against the checked-in
//! goldens in `golden_digests.txt`.
//!
//! The digests pin the simulator's observable behavior bit-for-bit, so
//! any timing-model change — intended or not — fails this check until
//! the goldens are re-blessed. To re-bless after an intentional change:
//!
//! ```text
//! DCFB_BLESS=1 cargo test -p dcfb-conformance golden
//! ```

use dcfb_sim::SimConfig;
use dcfb_trace::IsaMode;
use dcfb_workloads::{ProgramImage, ResolvedWorkload, WorkloadParams};
use std::fmt::Write as _;
use std::sync::Arc;

/// The checked-in goldens: one `<method>\t<digest>` line per registry
/// method, captured on the fixture below.
const GOLDEN: &str = include_str!("golden_digests.txt");

/// Builds the fixed-seed fixture program (the same image the simulator
/// test suite uses: big enough to thrash the shrunken L1i). The
/// telemetry golden's `trace:` run records its trace from it.
pub fn fixture_image() -> Arc<ProgramImage> {
    fixture_image_in(IsaMode::Fixed4)
}

/// The fixture program laid out for `isa`.
pub fn fixture_image_in(isa: IsaMode) -> Arc<ProgramImage> {
    let params = WorkloadParams {
        functions: 500,
        root_functions: 32,
        zipf_s: 0.9,
        ..WorkloadParams::default()
    };
    Arc::new(ProgramImage::build(&params, 3, isa))
}

/// The fixture trace seed every golden digest was captured with.
pub const FIXTURE_TRACE_SEED: u64 = 5;

/// The fixture configuration for `method`: the golden-digest window
/// and the shrunken L1i every checked-in digest was captured with.
pub fn fixture_config(method: &str) -> Result<SimConfig, String> {
    let mut cfg =
        SimConfig::for_method(method).ok_or_else(|| format!("unknown method {method:?}"))?;
    cfg.warmup_instrs = 60_000;
    cfg.measure_instrs = 120_000;
    // Shrink the L1i so the fixture thrashes it (same reasoning as the
    // simulator tests: the paper's phenomena need instruction-bound
    // workloads).
    cfg.l1i = dcfb_cache::CacheConfig::from_kib(8, 8);
    Ok(cfg)
}

/// Runs `method` on the fixture and returns the report digest.
pub fn fixture_digest(
    image: &Arc<ProgramImage>,
    method: &str,
    telemetry: bool,
) -> Result<String, String> {
    Ok(fixture_report(image, method, telemetry)?.digest())
}

/// Runs `method` on the fixture and returns the full report.
pub fn fixture_report(
    image: &Arc<ProgramImage>,
    method: &str,
    telemetry: bool,
) -> Result<dcfb_sim::SimReport, String> {
    let mut cfg = fixture_config(method)?;
    cfg.telemetry = telemetry;
    let source = ResolvedWorkload::from_image(Arc::clone(image));
    dcfb_sim::run(&source, cfg, FIXTURE_TRACE_SEED)
        .map(|run| run.report)
        .map_err(|e| e.to_string())
}

/// The checked-in `(method, digest)` golden pairs, in file order.
pub fn goldens() -> Result<Vec<(&'static str, &'static str)>, String> {
    parse_goldens()
}

fn parse_goldens() -> Result<Vec<(&'static str, &'static str)>, String> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|l| {
            l.split_once('\t')
                .ok_or_else(|| format!("malformed golden line: {l:?}"))
        })
        .collect()
}

/// The blessed tenant-mix digest: the `# tenant-mix\t<digest>`
/// annotation line, captured by `bless` on the spec pinned in
/// [`crate::workload_source::TENANT_MIX_SPEC`].
pub fn tenant_mix_golden() -> Result<&'static str, String> {
    GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix("# tenant-mix\t"))
        .ok_or_else(|| "no `# tenant-mix` golden line (bless with DCFB_BLESS=1)".to_owned())
}

/// Replays the fixture through every registry method and diffs the
/// digests against the checked-in goldens.
///
/// Returns `Ok(summary)` when every method matches, `Err(detail)`
/// naming each offending method otherwise. Also fails if the registry
/// and the golden file disagree about which methods exist, so adding a
/// registry row forces a (deliberate) golden update.
pub fn check_digest_parity() -> Result<String, String> {
    let goldens = parse_goldens()?;
    let image = fixture_image();
    let mut mismatched = Vec::new();
    let mut checked = 0usize;
    for (method, want) in &goldens {
        let got = fixture_digest(&image, method, false)?;
        if got != *want {
            mismatched.push(*method);
        }
        checked += 1;
    }
    let missing: Vec<&str> = dcfb_prefetch::method_names()
        .filter(|m| !goldens.iter().any(|(g, _)| g == m))
        .collect();
    if !mismatched.is_empty() || !missing.is_empty() {
        let mut msg = String::new();
        if !mismatched.is_empty() {
            let _ = write!(msg, "digest mismatch for: {}", mismatched.join(", "));
        }
        if !missing.is_empty() {
            if !msg.is_empty() {
                msg.push_str("; ");
            }
            let _ = write!(
                msg,
                "no golden for registry method(s): {}",
                missing.join(", ")
            );
        }
        msg.push_str(" (re-bless with DCFB_BLESS=1 if the change is intentional)");
        return Err(msg);
    }
    Ok(format!("{checked} methods byte-identical to goldens"))
}

/// Recomputes every golden digest and rewrites `golden_digests.txt` in
/// the source tree. Only called from the test harness when `DCFB_BLESS`
/// is set.
pub fn bless() -> Result<String, String> {
    let image = fixture_image();
    let mut out = String::new();
    for method in dcfb_prefetch::method_names() {
        let digest = fixture_digest(&image, method, false)?;
        let _ = writeln!(out, "{method}\t{digest}");
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/golden_digests.txt");
    let _ = writeln!(
        out,
        "# tenant-mix\t{}",
        crate::workload_source::tenant_mix_digest()?
    );
    std::fs::write(path, &out).map_err(|e| format!("write {path}: {e}"))?;
    Ok(format!("blessed {path}"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn golden_digest_parity() {
        if std::env::var_os("DCFB_BLESS").is_some() {
            let msg = bless().expect("bless");
            println!("{msg}");
            return;
        }
        let summary = check_digest_parity().unwrap_or_else(|e| panic!("{e}"));
        println!("{summary}");
    }

    #[test]
    fn telemetry_does_not_perturb_digests() {
        // The refactor gate requires byte-identical digests with
        // telemetry on AND off; spot-check one method per driver style
        // plus a composition (the full sweep runs telemetry-off above).
        let image = fixture_image();
        for m in ["SN4L+Dis+BTB", "Shotgun", "N2L+Dis"] {
            let off = fixture_digest(&image, m, false).expect(m);
            let on = fixture_digest(&image, m, true).expect(m);
            assert_eq!(off, on, "telemetry perturbs the run for {m}");
        }
    }

    #[test]
    fn goldens_cover_the_registry_exactly() {
        let goldens = parse_goldens().expect("well-formed goldens");
        let names: Vec<&str> = dcfb_prefetch::method_names().collect();
        for (g, digest) in &goldens {
            assert!(names.contains(g), "stale golden for {g}");
            assert!(digest.starts_with("SimReport {"), "odd digest for {g}");
        }
        assert_eq!(goldens.len(), names.len(), "golden/registry drift");
    }
}
