//! The deterministic chaos campaign behind `dcfb chaos`: seeded faults
//! injected into the production trace and checkpoint paths, with every
//! outcome checked against an explicit invariant:
//!
//! * a truncated binary trace is rejected by the strict loader with a
//!   typed trace error, never replayed as a different stream;
//! * the lenient loader salvages the verified prefix of the same file,
//!   and the one run path ([`dcfb_sim::run`]) measures a non-empty
//!   window on it;
//! * a checkpoint torn mid-write resumes to byte-identical merged
//!   output.
//!
//! Everything is a pure function of the seed: the truncation offsets
//! come from [`splitmix64`], so two runs with the same seed produce the
//! same report on any host.

use crate::checkpoint::Checkpoint;
use dcfb_conformance::golden::{
    fixture_config, fixture_digest, fixture_image, goldens, FIXTURE_TRACE_SEED,
};
use dcfb_errors::DcfbError;
use dcfb_trace::{splitmix64, write_binary_v2, IsaMode, ReadMode};
use dcfb_workloads::{load_trace, ProgramImage, Walker};
use std::path::Path;
use std::sync::Arc;

/// Records captured into the fault-injected binary trace.
const TRACE_RECORDS: u64 = 20_000;
/// The method the salvaged trace is replayed under.
const SALVAGE_METHOD: &str = "SN4L+Dis+BTB";

/// Chaos campaign knobs.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOptions {
    /// Seed for every randomized choice (truncation and tear offsets).
    /// The same seed reproduces the same campaign.
    pub seed: u64,
    /// Quick mode: a 2-entry resume checkpoint instead of 4, for the
    /// tier-1 smoke path.
    pub quick: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 42,
            quick: false,
        }
    }
}

/// One campaign row: a scenario and how it ended.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Campaign phase (`faults`, `resume`).
    pub phase: &'static str,
    /// Scenario identifier.
    pub job: String,
    /// `passed` or `failed`.
    pub status: &'static str,
    /// Scenario-specific detail.
    pub detail: String,
}

/// The campaign's final report.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Whether quick mode was on.
    pub quick: bool,
    /// One row per scenario, in execution order.
    pub rows: Vec<ChaosRow>,
    /// Invariant violations; empty means the campaign passed.
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable campaign summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos campaign (seed {}, {} mode)\n",
            self.seed,
            if self.quick { "quick" } else { "full" }
        );
        let _ = writeln!(out, "| phase | job | status | detail |");
        let _ = writeln!(out, "| --- | --- | --- | --- |");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                r.phase,
                r.job,
                r.status,
                r.detail.replace('|', "\\|")
            );
        }
        if self.failures.is_empty() {
            let _ = writeln!(out, "\nall invariants held");
        } else {
            let _ = writeln!(out, "\n{} invariant violation(s):", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(out, "  - {f}");
            }
        }
        out
    }
}

/// Campaign state threaded through the phases.
struct Campaign {
    opts: ChaosOptions,
    image: Arc<ProgramImage>,
    rows: Vec<ChaosRow>,
    failures: Vec<String>,
}

impl Campaign {
    /// Records one scenario's outcome: a row, plus a violation when it
    /// failed.
    fn record(&mut self, phase: &'static str, job: String, outcome: Result<String, DcfbError>) {
        let (status, detail) = match outcome {
            Ok(detail) => ("passed", detail),
            Err(e) => {
                self.failures.push(format!("{phase}/{job}: {e}"));
                ("failed", e.to_string())
            }
        };
        self.rows.push(ChaosRow {
            phase,
            job,
            status,
            detail,
        });
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> DcfbError {
    DcfbError::io(path.display().to_string(), e)
}

/// Runs the full campaign. Invariant violations are collected in
/// [`ChaosReport::failures`], never raised — the caller decides the
/// exit path.
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let mut campaign = Campaign {
        opts: *opts,
        image: fixture_image(),
        rows: Vec::new(),
        failures: Vec::new(),
    };
    let dir =
        std::env::temp_dir().join(format!("dcfb-chaos-{}-{:x}", std::process::id(), opts.seed));
    match std::fs::create_dir_all(&dir) {
        Ok(()) => {
            phase_faults(&mut campaign, &dir);
            phase_resume(&mut campaign, &dir);
        }
        Err(e) => campaign.failures.push(io_err(&dir, &e).to_string()),
    }
    let _ = std::fs::remove_dir_all(&dir);
    ChaosReport {
        seed: opts.seed,
        quick: opts.quick,
        rows: campaign.rows,
        failures: campaign.failures,
    }
}

/// Phase 1: a fixture trace truncated at a seeded offset inside its
/// last third, loaded through [`load_trace`] in both read modes.
fn phase_faults(c: &mut Campaign, dir: &Path) {
    let mut bytes = Vec::new();
    let mut walker = Walker::new(Arc::clone(&c.image), FIXTURE_TRACE_SEED);
    let recorded = match write_binary_v2(
        &mut walker,
        &mut bytes,
        TRACE_RECORDS,
        Some(IsaMode::Fixed4),
        dcfb_trace::file::DEFAULT_CHUNK_RECORDS,
    ) {
        Ok(n) => n,
        Err(e) => {
            c.failures
                .push(format!("faults: cannot record fixture trace: {e}"));
            return;
        }
    };
    let len = bytes.len() as u64;
    let cut = len * 2 / 3 + splitmix64(c.opts.seed) % (len / 6).max(1);
    let path = dir.join("truncated.dcfbt");
    if let Err(e) = std::fs::write(&path, &bytes[..cut as usize]) {
        c.failures.push(format!("faults: {}", io_err(&path, &e)));
        return;
    }
    let path = path.display().to_string();

    // The strict loader must reject the damaged file with a typed
    // trace error.
    let strict = match load_trace(&path, ReadMode::Strict, "chaos") {
        Err(e @ DcfbError::Trace { .. }) => Ok(format!("rejected: {e}")),
        Err(e) => Err(e),
        Ok(_) => Err(DcfbError::Config(
            "strict load of a truncated trace succeeded".to_owned(),
        )),
    };
    c.record("faults", "strict-truncated-trace".to_owned(), strict);

    // The lenient loader must salvage the verified prefix, and the run
    // path must measure a non-empty window on it.
    let lenient = (|| -> Result<String, DcfbError> {
        let (source, report) = load_trace(&path, ReadMode::Lenient, "chaos")?;
        let records = match report {
            Some(r) if r.salvage.is_some() => r.records,
            _ => return Err(DcfbError::Config("lenient load saw no damage".to_owned())),
        };
        let cfg = fixture_config(SALVAGE_METHOD).map_err(DcfbError::Config)?;
        let measured = dcfb_sim::run(&source, cfg, FIXTURE_TRACE_SEED)?
            .report
            .instrs;
        if measured == 0 {
            return Err(DcfbError::Config(format!(
                "salvaged {records} records but measured 0 instructions"
            )));
        }
        Ok(format!(
            "salvaged {records}/{recorded} records, measured {measured} instructions"
        ))
    })();
    c.record("faults", "lenient-salvage-replay".to_owned(), lenient);
}

/// Phase 2: checkpoint torn mid-write, then resumed — the salvaged
/// prefix plus regenerated tail must be byte-identical to the
/// uninterrupted checkpoint.
fn phase_resume(c: &mut Campaign, dir: &Path) {
    let golds = match goldens() {
        Ok(g) => g,
        Err(e) => {
            c.failures
                .push(format!("resume: cannot parse goldens: {e}"));
            return;
        }
    };
    let take = golds.len().min(if c.opts.quick { 2 } else { 4 });
    if take < 2 {
        c.failures
            .push("resume: not enough goldens for the checkpoint scenario".to_owned());
        return;
    }
    let mut reference = Checkpoint::new();
    for (m, d) in &golds[..take] {
        reference.put(m, d);
    }
    let json = reference.to_json();
    // Seeded tear inside the final entry's value.
    let cut = json.len() - 2 - (splitmix64(c.opts.seed ^ 0xC4A0) % 8) as usize;
    let outcome = (|| -> Result<String, DcfbError> {
        let path = dir.join("checkpoint.json");
        std::fs::write(&path, &json[..cut]).map_err(|e| io_err(&path, &e))?;
        let (mut salvaged, reason) = Checkpoint::load_lenient(&path)?;
        let Some(reason) = reason else {
            return Err(DcfbError::Config(
                "torn checkpoint loaded without a salvage reason".to_owned(),
            ));
        };
        let kept = salvaged.len();
        // Resume: regenerate exactly the missing figures through the
        // real fixture runner, in original order.
        let mut regenerated = 0usize;
        for (m, _) in &golds[..take] {
            if salvaged.get(m).is_none() {
                let digest = fixture_digest(&c.image, m, false)
                    .map_err(|e| DcfbError::Config(format!("resume rerun of {m}: {e}")))?;
                salvaged.put(m, &digest);
                regenerated += 1;
            }
        }
        if salvaged.to_json() != json {
            return Err(DcfbError::Config(
                "resumed checkpoint is not byte-identical to the reference".to_owned(),
            ));
        }
        Ok(format!(
            "tore at byte {cut}/{}: kept {kept}, regenerated {regenerated}, byte-identical ({reason})",
            json.len()
        ))
    })();
    c.record("resume", format!("checkpoint×{take}"), outcome);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_passes_and_is_deterministic() {
        let opts = ChaosOptions {
            seed: 42,
            quick: true,
        };
        let a = run_chaos(&opts);
        assert!(a.passed(), "failures: {:?}", a.failures);
        let jobs: Vec<&str> = a.rows.iter().map(|r| r.job.as_str()).collect();
        assert_eq!(
            jobs,
            [
                "strict-truncated-trace",
                "lenient-salvage-replay",
                "checkpoint×2"
            ]
        );
        // The salvaged prefix is fitted by the run path's window rule
        // (warmup at most half the records), so the measured window is
        // the other half rather than 0.
        assert_eq!(
            a.rows[1].detail,
            "salvaged 13312/20000 records, measured 6656 instructions"
        );
        // Same seed, same campaign.
        let b = run_chaos(&opts);
        assert_eq!(a.render(), b.render());
        let rendered = a.render();
        assert!(rendered.contains("all invariants held"), "{rendered}");
    }

    #[test]
    fn different_seed_still_passes() {
        let report = run_chaos(&ChaosOptions {
            seed: 7,
            quick: true,
        });
        assert!(report.passed(), "failures: {:?}", report.failures);
    }
}
