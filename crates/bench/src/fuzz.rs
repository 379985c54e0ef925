//! The pooled fuzz-campaign driver behind `dcfb fuzz`.
//!
//! `dcfb-conformance::campaign` owns the deterministic core (plan →
//! evaluate → absorb); this module supplies what the core deliberately
//! does not depend on: the PR-2 [`parallel_map_jobs`] worker pool for
//! fanning candidate evaluation out across threads, the PR-1
//! [`Checkpoint`] machinery for persisting and resuming campaign state,
//! and wall-clock accounting. Because candidate planning is a pure
//! function of `(seed, round, index)` and absorption happens in
//! candidate order, `--jobs J` changes only wall-clock: the final
//! corpus digest and coverage map are bit-identical at any `J`.

use crate::checkpoint::Checkpoint;
use crate::sweep::parallel_map_jobs;
use dcfb_conformance::campaign::{evaluate, Campaign, CampaignConfig};
use dcfb_conformance::corpus::{parse_ops, CORPUS_SCHEMA};
use dcfb_conformance::coverage::{baseline_coverage, CoverageMap, COVERAGE_BITS};
use dcfb_conformance::ops::EngineOp;
use dcfb_errors::DcfbError;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag of the fuzz-campaign checkpoint state.
pub const FUZZ_STATE_SCHEMA: &str = "dcfb-fuzz-state-v1";

/// Shape of one `dcfb fuzz` invocation.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Master campaign seed.
    pub seed: u64,
    /// Total op budget (`--ops`); ignored when `quick` is set.
    pub total_ops: u64,
    /// Worker threads for candidate evaluation (`--jobs`).
    pub jobs: usize,
    /// Use the bounded `--quick` smoke shape instead of `total_ops`.
    pub quick: bool,
    /// Checkpoint file to resume from and save to (`--state`).
    pub state: Option<PathBuf>,
    /// Where to write the minimized corpus text (`--corpus-out`).
    pub corpus_out: Option<PathBuf>,
}

impl FuzzOptions {
    /// The campaign config these options select.
    pub fn config(&self) -> CampaignConfig {
        if self.quick {
            CampaignConfig::quick(self.seed)
        } else {
            CampaignConfig::standard(self.seed, self.total_ops)
        }
    }
}

/// Everything one campaign run produced, for the CLI.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The campaign seed.
    pub seed: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Rounds planned.
    pub rounds: u64,
    /// Candidates evaluated.
    pub candidates: u64,
    /// Ops executed across all candidates.
    pub ops_executed: u64,
    /// Corpus entries (coverage-increasing, minimized).
    pub corpus_len: usize,
    /// Corpus digest (`fnv:…`; identical at any job count).
    pub corpus_digest: String,
    /// Final coverage map, hex form.
    pub coverage_hex: String,
    /// Coverage bits lit.
    pub coverage_bits: u32,
    /// `coverage_bits / COVERAGE_BITS`.
    pub coverage_frac: f64,
    /// Behavior slots hit (of the 42).
    pub coverage_slots: u32,
    /// Bits the PR-4 fixed-seed generator lights at the same budget.
    pub baseline_bits: u32,
    /// Wall-clock seconds for the campaign loop.
    pub seconds: f64,
    /// Ops evaluated per wall-clock second.
    pub ops_per_sec: f64,
    /// The shrunk counterexample, rendered, if any harness diverged.
    pub counterexample: Option<String>,
    /// Length of the shrunk counterexample, if any.
    pub counterexample_len: Option<usize>,
}

impl FuzzReport {
    /// The deterministic summary `dcfb fuzz` prints to stdout —
    /// everything here is bit-identical at any `--jobs`, so the text
    /// is too (timing goes to stderr).
    pub fn render(&self) -> String {
        let mut out = format!(
            "fuzz: seed={} ops={} candidates={} rounds={}\n",
            self.seed, self.ops_executed, self.candidates, self.rounds
        );
        out.push_str(&format!(
            "coverage: {}/{} bits ({} of 42 slots), baseline {} bits\n",
            self.coverage_bits, COVERAGE_BITS, self.coverage_slots, self.baseline_bits
        ));
        out.push_str(&format!(
            "corpus: {} entries, digest {}\n",
            self.corpus_len, self.corpus_digest
        ));
        match &self.counterexample {
            Some(ce) => {
                out.push_str("DIVERGENCE (shrunk):\n");
                out.push_str(ce);
                if !out.ends_with('\n') {
                    out.push('\n');
                }
            }
            None => out.push_str("no divergence\n"),
        }
        out
    }
}

fn config_err(message: String) -> DcfbError {
    DcfbError::Config(message)
}

fn state_field(cp: &Checkpoint, key: &str) -> Result<String, DcfbError> {
    cp.get(key)
        .map(str::to_owned)
        .ok_or_else(|| config_err(format!("fuzz state: missing field {key:?}")))
}

fn state_u64(cp: &Checkpoint, key: &str) -> Result<u64, DcfbError> {
    let raw = state_field(cp, key)?;
    raw.parse::<u64>()
        .map_err(|e| config_err(format!("fuzz state: bad {key} {raw:?}: {e}")))
}

/// Serializes a campaign into checkpoint entries (schema, seed, budget
/// position, coverage hex, one line per corpus entry).
fn save_state(campaign: &Campaign, path: &Path) -> Result<(), DcfbError> {
    let mut cp = Checkpoint::new();
    cp.put("schema", FUZZ_STATE_SCHEMA);
    cp.put("corpus-schema", CORPUS_SCHEMA);
    cp.put("seed", &campaign.config().seed.to_string());
    cp.put("round", &campaign.rounds().to_string());
    cp.put("ops-done", &campaign.ops_executed().to_string());
    cp.put("candidates", &campaign.candidates().to_string());
    cp.put("coverage", &campaign.coverage().to_hex());
    let lines = campaign.corpus().lines();
    cp.put("entries", &lines.len().to_string());
    for (i, line) in lines.iter().enumerate() {
        cp.put(&format!("entry-{i}"), line);
    }
    cp.save(path)
}

/// Restores a campaign from a checkpoint file written by
/// [`save_state`]. A missing file yields a fresh campaign; a state
/// saved under a different seed (or a damaged one) is a typed config
/// error rather than a silently different campaign.
fn load_state(cfg: CampaignConfig, path: &Path) -> Result<Campaign, DcfbError> {
    let cp = Checkpoint::load(path)?;
    if cp.is_empty() {
        return Campaign::new(cfg).map_err(config_err);
    }
    let schema = state_field(&cp, "schema")?;
    if schema != FUZZ_STATE_SCHEMA {
        return Err(config_err(format!(
            "fuzz state {}: schema {schema:?} != {FUZZ_STATE_SCHEMA:?}",
            path.display()
        )));
    }
    let saved_seed = state_u64(&cp, "seed")?;
    if saved_seed != cfg.seed {
        return Err(config_err(format!(
            "fuzz state {}: saved seed {saved_seed} != requested seed {} \
             (pass --seed {saved_seed} to resume it, or a fresh --state path)",
            path.display(),
            cfg.seed
        )));
    }
    let coverage = CoverageMap::from_hex(&state_field(&cp, "coverage")?)
        .map_err(|e| config_err(format!("fuzz state: bad coverage map: {e}")))?;
    let n = state_u64(&cp, "entries")? as usize;
    let mut entries: Vec<Vec<EngineOp>> = Vec::with_capacity(n);
    for i in 0..n {
        let line = state_field(&cp, &format!("entry-{i}"))?;
        entries
            .push(parse_ops(&line).map_err(|e| config_err(format!("fuzz state: entry {i}: {e}")))?);
    }
    Campaign::restore(
        cfg,
        entries,
        coverage,
        state_u64(&cp, "round")?,
        state_u64(&cp, "ops-done")?,
        state_u64(&cp, "candidates")?,
    )
    .map_err(config_err)
}

fn report_of(campaign: &Campaign, jobs: usize, seconds: f64) -> FuzzReport {
    let coverage = campaign.coverage();
    let baseline = baseline_coverage(campaign.config().seed, campaign.ops_executed());
    FuzzReport {
        seed: campaign.config().seed,
        jobs,
        rounds: campaign.rounds(),
        candidates: campaign.candidates(),
        ops_executed: campaign.ops_executed(),
        corpus_len: campaign.corpus().len(),
        corpus_digest: campaign.corpus().digest(),
        coverage_hex: coverage.to_hex(),
        coverage_bits: coverage.bit_count(),
        coverage_frac: f64::from(coverage.bit_count()) / COVERAGE_BITS as f64,
        coverage_slots: coverage.slot_count(),
        baseline_bits: baseline.bit_count(),
        seconds,
        ops_per_sec: campaign.ops_executed() as f64 / seconds.max(1e-9),
        counterexample: campaign.counterexample().map(|ce| ce.to_string()),
        counterexample_len: campaign.counterexample().map(|ce| ce.ops.len()),
    }
}

/// Runs a whole campaign on the worker pool: plan a round, evaluate
/// its candidates through [`parallel_map_jobs`], absorb in candidate
/// order, checkpoint, repeat until the budget is spent or a divergence
/// ends the hunt. The returned report (and any `--corpus-out` file) is
/// bit-identical at any `jobs` value.
///
/// # Errors
///
/// [`DcfbError::Config`] for an invalid shape or an incompatible
/// `--state` file, [`DcfbError::Io`] when persisting fails.
pub fn run_fuzz_campaign(opts: &FuzzOptions) -> Result<FuzzReport, DcfbError> {
    let cfg = opts.config();
    let jobs = opts.jobs.max(1);
    let mut campaign = match &opts.state {
        Some(path) => load_state(cfg, path)?,
        None => Campaign::new(cfg).map_err(config_err)?,
    };
    let t0 = Instant::now();
    while !campaign.done() {
        let batch = campaign.next_batch();
        let layout = campaign.layout().clone();
        let outcomes = parallel_map_jobs(batch, jobs, |ops| evaluate(&layout, ops.clone()));
        campaign.absorb(outcomes);
        if let Some(path) = &opts.state {
            save_state(&campaign, path)?;
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    if let Some(path) = &opts.corpus_out {
        let text = campaign.corpus().render(cfg.seed);
        std::fs::write(path, text).map_err(|e| DcfbError::io(path.display().to_string(), &e))?;
    }
    Ok(report_of(&campaign, jobs, seconds))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dcfb-fuzz-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn pooled_campaign_is_bit_identical_across_job_counts() {
        let base = FuzzOptions {
            seed: 42,
            total_ops: 0,
            jobs: 1,
            quick: true,
            state: None,
            corpus_out: None,
        };
        let one = run_fuzz_campaign(&base).unwrap();
        let four = run_fuzz_campaign(&FuzzOptions { jobs: 4, ..base }).unwrap();
        assert_eq!(one.corpus_digest, four.corpus_digest);
        assert_eq!(one.coverage_hex, four.coverage_hex);
        assert_eq!(one.candidates, four.candidates);
        assert_eq!(one.rounds, four.rounds);
        assert_eq!(one.render(), four.render());
        assert!(one.counterexample.is_none());
        assert!(one.coverage_bits > one.baseline_bits);
    }

    #[test]
    fn state_file_round_trips_and_guards_the_seed() {
        let path = tmp("state");
        let _ = std::fs::remove_file(&path);
        let opts = FuzzOptions {
            seed: 7,
            total_ops: 0,
            jobs: 2,
            quick: true,
            state: Some(path.clone()),
            corpus_out: None,
        };
        let first = run_fuzz_campaign(&opts).unwrap();
        // Resuming a finished campaign does no further work and lands
        // on the identical state.
        let resumed = run_fuzz_campaign(&opts).unwrap();
        assert_eq!(resumed.corpus_digest, first.corpus_digest);
        assert_eq!(resumed.coverage_hex, first.coverage_hex);
        assert_eq!(resumed.candidates, first.candidates);

        // A different seed against the same state file must be a typed
        // config error, not a quietly mixed campaign.
        let clash = run_fuzz_campaign(&FuzzOptions {
            seed: 8,
            ..opts.clone()
        });
        match clash {
            Err(DcfbError::Config(m)) => assert!(m.contains("saved seed 7"), "{m}"),
            other => panic!("expected Config error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corpus_out_writes_the_replayable_text_form() {
        // The written file must parse back into the same corpus.
        let path = tmp("corpus");
        let _ = std::fs::remove_file(&path);
        let report = run_fuzz_campaign(&FuzzOptions {
            seed: 42,
            total_ops: 0,
            jobs: 2,
            quick: true,
            state: None,
            corpus_out: Some(path.clone()),
        })
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let (seed, entries) = dcfb_conformance::corpus::parse_corpus_text(&text).unwrap();
        assert_eq!(seed, 42);
        assert_eq!(entries.len(), report.corpus_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damaged_state_is_a_config_error() {
        let path = tmp("damaged");
        std::fs::write(&path, "{\n  \"schema\": \"something-else\"\n}\n").unwrap();
        let err = run_fuzz_campaign(&FuzzOptions {
            seed: 1,
            total_ops: 0,
            jobs: 1,
            quick: true,
            state: Some(path.clone()),
            corpus_out: None,
        })
        .unwrap_err();
        assert!(matches!(err, DcfbError::Config(_)), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_budget_is_a_config_error() {
        let err = run_fuzz_campaign(&FuzzOptions {
            seed: 1,
            total_ops: 0,
            jobs: 1,
            quick: false,
            state: None,
            corpus_out: None,
        })
        .unwrap_err();
        assert!(matches!(err, DcfbError::Config(_)), "{err:?}");
        assert_eq!(err.exit_code(), 3);
    }
}
