//! Telemetry golden: pins the exported telemetry of a few fixed runs
//! bit-for-bit, the way [`golden`](crate::golden) pins the reports.
//!
//! The report goldens hash only `SimReport::digest()`, so a change
//! that moves a timeliness class, a histogram bucket or a trace span
//! without moving a report field would pass them. This check hashes
//! the two telemetry exports — `MetricsDoc::to_json()` and
//! `TelemetryReport::chrome_trace()` — of each run in [`RUNS`] and
//! compares them against `telemetry_digests.txt`. The runs cover:
//!
//! * SN4L+Dis+BTB on the pinned tenant mix (BTB prefetch-buffer and
//!   L1i timeliness across two rebased images);
//! * SN4L+Dis+BTB on a `trace:` source, whose code memory knows only
//!   the blocks the trace executed, so many prefetch candidates are
//!   blocks without a slot;
//! * N2L+Dis, Confluence and Shotgun on one catalog image.
//!
//! Re-bless after an intentional change with
//! `DCFB_BLESS=1 cargo test -p dcfb-conformance golden`.

use crate::golden::{fixture_config, fixture_image, FIXTURE_TRACE_SEED};
use crate::workload_source::TENANT_MIX_SPEC;
use dcfb_trace::{IsaMode, ReadMode};
use dcfb_workloads::{load_trace, resolve_workload, ResolvedWorkload, Walker};
use std::fmt::Write as _;
use std::sync::Arc;

/// The checked-in goldens: one `<label>\t<metrics> <trace>` line per
/// run, each a 64-bit FNV-1a hash in hex.
const GOLDEN: &str = include_str!("telemetry_digests.txt");

/// The catalog workload of the single-image runs.
const CATALOG_WORKLOAD: &str = "Web Search";

/// Instructions recorded into the `trace:` run's trace file.
const TRACE_INSTRS: u64 = 90_000;

/// The pinned runs: `(label, source, method)`. `source` is a workload
/// spec, or `trace` for a trace of the golden fixture.
pub const RUNS: [(&str, &str, &str); 5] = [
    ("mix/SN4L+Dis+BTB", TENANT_MIX_SPEC, "SN4L+Dis+BTB"),
    ("trace/SN4L+Dis+BTB", "trace", "SN4L+Dis+BTB"),
    ("catalog/N2L+Dis", CATALOG_WORKLOAD, "N2L+Dis"),
    ("catalog/Confluence", CATALOG_WORKLOAD, "Confluence"),
    ("catalog/Shotgun", CATALOG_WORKLOAD, "Shotgun"),
];

/// 64-bit FNV-1a.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Records [`TRACE_INSTRS`] instructions of the golden fixture into a
/// binary trace file and resolves it as a `trace:` source.
pub(crate) fn fixture_trace() -> Result<ResolvedWorkload, String> {
    let path = std::env::temp_dir().join(format!(
        "dcfb-telemetry-golden-{}.dcfbt",
        std::process::id()
    ));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut walker = Walker::new(fixture_image(), FIXTURE_TRACE_SEED);
    let chunk = dcfb_trace::file::DEFAULT_CHUNK_RECORDS;
    dcfb_trace::write_binary_v2(&mut walker, file, TRACE_INSTRS, None, chunk)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    // A fixed label: the metrics document records the workload name,
    // which must not carry the per-process file name.
    let resolved = load_trace(&path.to_string_lossy(), ReadMode::Strict, "trace:fixture")
        .map(|(w, _)| w)
        .map_err(|e| e.to_string());
    let _ = std::fs::remove_file(&path);
    resolved
}

/// Runs `method` on `source` with telemetry on and returns the
/// `<metrics> <trace>` digest pair.
fn telemetry_digest(source: &ResolvedWorkload, method: &str) -> Result<String, String> {
    let mut cfg = fixture_config(method)?;
    cfg.telemetry = true;
    let run = dcfb_sim::run(source, cfg, FIXTURE_TRACE_SEED).map_err(|e| e.to_string())?;
    let t = run
        .telemetry
        .ok_or_else(|| format!("{method}: telemetry-on run exported nothing"))?;
    Ok(format!(
        "{:016x} {:016x}",
        fnv1a(t.doc.to_json().as_bytes()),
        fnv1a(t.chrome_trace().as_bytes())
    ))
}

/// Every run of [`RUNS`] as `(label, digest pair)`, in order.
pub fn telemetry_digests() -> Result<Vec<(&'static str, String)>, String> {
    let mut sources: Vec<(&str, Arc<ResolvedWorkload>)> = Vec::new();
    let mut out = Vec::with_capacity(RUNS.len());
    for (label, spec, method) in RUNS {
        let cached = sources.iter().find(|(s, _)| *s == spec).map(|(_, w)| w);
        let source = match cached {
            Some(w) => Arc::clone(w),
            None => {
                let w = Arc::new(if spec == "trace" {
                    fixture_trace()?
                } else {
                    resolve_workload(spec, IsaMode::Fixed4).map_err(|e| e.to_string())?
                });
                sources.push((spec, Arc::clone(&w)));
                w
            }
        };
        out.push((label, telemetry_digest(&source, method)?));
    }
    Ok(out)
}

/// Compares every run's telemetry digests against the checked-in
/// goldens; `Err` names each run that differs.
pub fn check_telemetry_golden() -> Result<String, String> {
    let got = telemetry_digests()?;
    check_lines(GOLDEN, &got, "telemetry export")
}

/// Recomputes the goldens and rewrites `telemetry_digests.txt` in the
/// source tree. Only called from the test harness when `DCFB_BLESS` is
/// set.
pub fn bless() -> Result<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/telemetry_digests.txt");
    write_lines(path, &telemetry_digests()?)
}

/// Compares each `(label, digest)` of `got` with the `<label>\t<digest>`
/// line of `golden`; `Err` names each `what` that differs.
pub(crate) fn check_lines<L: AsRef<str>>(
    golden: &str,
    got: &[(L, String)],
    what: &str,
) -> Result<String, String> {
    let mut drifted = Vec::new();
    for (label, digest) in got {
        let label = label.as_ref();
        let want = golden
            .lines()
            .find_map(|l| l.strip_prefix(label)?.strip_prefix('\t'));
        if want != Some(digest.as_str()) {
            drifted.push(format!("{label} (got {digest}, want {want:?})"));
        }
    }
    if drifted.is_empty() {
        Ok(format!("{} {what}s byte-identical", got.len()))
    } else {
        Err(format!(
            "{what} drifted: {} (re-bless with DCFB_BLESS=1 if intentional)",
            drifted.join("; ")
        ))
    }
}

/// Writes `got` to `path` as `<label>\t<digest>` lines.
pub(crate) fn write_lines<L: AsRef<str>>(
    path: &str,
    got: &[(L, String)],
) -> Result<String, String> {
    let mut out = String::new();
    for (label, digest) in got {
        let _ = writeln!(out, "{}\t{digest}", label.as_ref());
    }
    std::fs::write(path, &out).map_err(|e| format!("write {path}: {e}"))?;
    Ok(format!("blessed {path}"))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_golden_parity() {
        if std::env::var_os("DCFB_BLESS").is_some() {
            println!("{}", bless().expect("bless"));
            return;
        }
        println!(
            "{}",
            check_telemetry_golden().unwrap_or_else(|e| panic!("{e}"))
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
