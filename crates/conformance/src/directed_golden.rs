//! Directed-frontend golden: pins Boomerang and Shotgun on the inputs
//! the method goldens do not reach.
//!
//! The method goldens run every method on one fixed-ISA catalog-style
//! image with the default configuration. The BTB-directed driver skips
//! cycles in which nothing can change (see DESIGN.md, "Idle cycles in
//! the BTB-directed frontend"), and whether a cycle is idle depends on
//! the source, the ISA and the memory plane. Each run of [`CASES`]
//! hashes its report digest with telemetry off, plus both telemetry
//! exports of the same run with telemetry on, and compares them
//! against `directed_digests.txt`. The cases are:
//!
//! * the pinned tenant mix (retire-side learning across tenant
//!   switches);
//! * a `trace:` source, whose stream ends at the end of the window;
//! * the fixture image built for the variable-length ISA, where
//!   pre-decode goes through the DV-LLC branch footprint;
//! * the fixture with the L1i prefetch buffer, where demand hits on
//!   buffered blocks fill the L1i outside the MSHR drain.
//!
//! Re-bless after an intentional change with
//! `DCFB_BLESS=1 cargo test -p dcfb-conformance golden`.

use crate::golden::{fixture_config, fixture_image, fixture_image_in, FIXTURE_TRACE_SEED};
use crate::telemetry_golden::{check_lines, fixture_trace, fnv1a, write_lines};
use crate::workload_source::TENANT_MIX_SPEC;
use dcfb_trace::IsaMode;
use dcfb_workloads::{resolve_workload, ResolvedWorkload};

/// The checked-in goldens: one `<case>/<method>\t<report> <metrics>
/// <trace>` line per run, each a 64-bit FNV-1a hash in hex.
const GOLDEN: &str = include_str!("directed_digests.txt");

/// The BTB-directed methods.
const METHODS: [&str; 2] = ["Boomerang", "Shotgun"];

/// The pinned inputs, by label.
pub const CASES: [&str; 4] = ["mix", "trace", "variable-isa", "prefetch-buffer"];

/// The source and configuration of `case` run with `method`.
fn case_input(case: &str, method: &str) -> Result<(ResolvedWorkload, dcfb_sim::SimConfig), String> {
    let mut cfg = fixture_config(method)?;
    let source = match case {
        "mix" => resolve_workload(TENANT_MIX_SPEC, IsaMode::Fixed4).map_err(|e| e.to_string())?,
        "trace" => fixture_trace()?,
        "variable-isa" => {
            cfg.isa = IsaMode::Variable;
            ResolvedWorkload::from_image(fixture_image_in(IsaMode::Variable))
        }
        "prefetch-buffer" => {
            cfg.use_prefetch_buffer = true;
            ResolvedWorkload::from_image(fixture_image())
        }
        other => return Err(format!("unknown directed golden case {other:?}")),
    };
    Ok((source, cfg))
}

/// Runs `method` on `case` twice — telemetry off, then on — and returns
/// the `<report> <metrics> <trace>` hash triple.
fn case_digest(case: &str, method: &str) -> Result<String, String> {
    let (source, cfg) = case_input(case, method)?;
    let off = dcfb_sim::run(&source, cfg.clone(), FIXTURE_TRACE_SEED).map_err(|e| e.to_string())?;
    let mut cfg = cfg;
    cfg.telemetry = true;
    let on = dcfb_sim::run(&source, cfg, FIXTURE_TRACE_SEED).map_err(|e| e.to_string())?;
    if on.report.digest() != off.report.digest() {
        return Err(format!("{case}/{method}: telemetry changed the report"));
    }
    let t = on
        .telemetry
        .ok_or_else(|| format!("{case}/{method}: telemetry-on run exported nothing"))?;
    Ok(format!(
        "{:016x} {:016x} {:016x}",
        fnv1a(off.report.digest().as_bytes()),
        fnv1a(t.doc.to_json().as_bytes()),
        fnv1a(t.chrome_trace().as_bytes())
    ))
}

/// Every `(case/method, hash triple)`, in [`CASES`] × [`METHODS`]
/// order.
pub fn directed_digests() -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::with_capacity(CASES.len() * METHODS.len());
    for case in CASES {
        for method in METHODS {
            out.push((format!("{case}/{method}"), case_digest(case, method)?));
        }
    }
    Ok(out)
}

/// Compares every run against the checked-in goldens; `Err` names each
/// run that differs.
pub fn check_directed_golden() -> Result<String, String> {
    check_lines(GOLDEN, &directed_digests()?, "directed run")
}

/// Recomputes the goldens and rewrites `directed_digests.txt` in the
/// source tree. Only called from the test harness when `DCFB_BLESS` is
/// set.
pub fn bless() -> Result<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/directed_digests.txt");
    write_lines(path, &directed_digests()?)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn directed_golden_parity() {
        if std::env::var_os("DCFB_BLESS").is_some() {
            println!("{}", bless().expect("bless"));
            return;
        }
        println!(
            "{}",
            check_directed_golden().unwrap_or_else(|e| panic!("{e}"))
        );
    }
}
