//! The coverage-guided campaign: planning, evaluation, ordered merge.
//!
//! A campaign runs in rounds. Each round *plans* a batch of candidate
//! inputs — fresh generator sequences or corpus mutations, every
//! candidate a pure function of `(seed, round, index)` and the corpus
//! as of the round start — then *evaluates* each candidate (coverage
//! probe + lockstep through every engine harness; [`evaluate`] is a
//! pure function, safe to fan out across a worker pool), and finally
//! *absorbs* the outcomes in candidate order: coverage maps merge into
//! the campaign map, novel inputs are admitted to the corpus and
//! ddmin-minimized, and the first divergence is captured as a shrunk
//! counterexample. Because planning never looks at the job count and
//! absorption is ordered, `--jobs J` changes wall-clock only: the
//! final corpus digest and coverage map are bit-identical at any `J`.
//!
//! The pooled driver lives in `dcfb-bench` (which owns the PR-2
//! `parallel_map` worker pool and the PR-1 checkpoint machinery);
//! this module keeps the deterministic core dependency-free so the
//! bench crate can keep depending on conformance, not the reverse.

use crate::adapters::{ProdDis, ProdProactive, ProdSn4l};
use crate::corpus::Corpus;
use crate::coverage::{coverage_of, CoverageMap};
use crate::fuzz::{derive_seed, fuzz_proactive_config, Fuzzer, FUZZ_TABLE_ENTRIES};
use crate::lockstep::{Counterexample, Harness};
use crate::mutate::Mutator;
use crate::ops::{CodeLayout, EngineOp};
use crate::reference::{RefDisEngine, RefProactive, RefSn4l};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Campaign shape: seed, total op budget, candidate sizing.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Master seed: layout, generators, and mutators all derive from
    /// it.
    pub seed: u64,
    /// Total ops to spend across all candidates (the `--ops` budget).
    pub total_ops: u64,
    /// Target length of a fresh candidate (mutated children vary).
    pub input_len: usize,
    /// Candidates planned per round (absorption is the only barrier).
    pub batch_size: usize,
}

impl CampaignConfig {
    /// The standard campaign shape for a given budget.
    pub fn standard(seed: u64, total_ops: u64) -> Self {
        CampaignConfig {
            seed,
            total_ops,
            input_len: 256,
            batch_size: 64,
        }
    }

    /// The bounded `--quick` smoke shape: small fixed budget, small
    /// inputs — finishes in well under a second.
    pub fn quick(seed: u64) -> Self {
        CampaignConfig {
            seed,
            total_ops: 40_000,
            input_len: 128,
            batch_size: 32,
        }
    }

    /// Validates the shape.
    ///
    /// # Errors
    ///
    /// A one-line description of the zero field (a zero op budget is
    /// the classic silent no-op; the CLI maps this to a typed config
    /// error).
    pub fn validate(&self) -> Result<(), String> {
        if self.total_ops == 0 {
            return Err("fuzz op budget must be positive (--ops 0 would run nothing)".to_owned());
        }
        if self.input_len == 0 {
            return Err("fuzz input length must be positive".to_owned());
        }
        if self.batch_size == 0 {
            return Err("fuzz batch size must be positive".to_owned());
        }
        Ok(())
    }
}

/// The three engine-level lockstep harnesses (SN4L, Dis, proactive)
/// over `layout` — the same trio `run_full_suite` drives, packaged for
/// campaign evaluation and corpus replay.
pub fn engine_harnesses(layout: &CodeLayout) -> Vec<Harness<EngineOp>> {
    let mut harnesses = Vec::new();
    harnesses.push(Harness::new("sn4l", || {
        (
            Box::new(RefSn4l::new(FUZZ_TABLE_ENTRIES)) as _,
            Box::new(ProdSn4l::new(FUZZ_TABLE_ENTRIES)) as _,
        )
    }));
    let dis_layout = layout.clone();
    harnesses.push(Harness::new("dis", move || {
        (
            Box::new(RefDisEngine::new(FUZZ_TABLE_ENTRIES, dis_layout.clone())) as _,
            Box::new(ProdDis::new(FUZZ_TABLE_ENTRIES, &dis_layout)) as _,
        )
    }));
    let pro_layout = layout.clone();
    harnesses.push(Harness::new("proactive", move || {
        (
            Box::new(RefProactive::new(
                fuzz_proactive_config(),
                pro_layout.clone(),
            )) as _,
            Box::new(ProdProactive::new(fuzz_proactive_config(), &pro_layout)) as _,
        )
    }));
    harnesses
}

/// One evaluated candidate: its ops (echoed back for corpus
/// admission), its coverage map, and the shrunk counterexample if any
/// harness diverged.
#[derive(Debug)]
pub struct CandidateOutcome {
    /// The candidate's op sequence.
    pub ops: Vec<EngineOp>,
    /// The candidate's coverage map.
    pub map: CoverageMap,
    /// The first divergence, minimized by the harness.
    pub counterexample: Option<Box<Counterexample>>,
}

/// Evaluates one candidate against the standard engine harnesses: a
/// pure function of `(layout, ops)` — exactly what a worker-pool job
/// runs.
pub fn evaluate(layout: &CodeLayout, ops: Vec<EngineOp>) -> CandidateOutcome {
    evaluate_with(layout, ops, &engine_harnesses(layout))
}

/// [`evaluate`] against caller-supplied harnesses (tests inject buggy
/// models here to prove campaigns find and shrink real divergences).
pub fn evaluate_with(
    layout: &CodeLayout,
    ops: Vec<EngineOp>,
    harnesses: &[Harness<EngineOp>],
) -> CandidateOutcome {
    let map = coverage_of(layout, &ops);
    let mut counterexample = None;
    for h in harnesses {
        if let Err(ce) = h.check(&ops) {
            counterexample = Some(ce);
            break;
        }
    }
    CandidateOutcome {
        ops,
        map,
        counterexample,
    }
}

/// Campaign state: corpus, accumulated coverage, budget accounting.
/// Drive it with [`next_batch`](Campaign::next_batch) →
/// [`evaluate`] (possibly in parallel) →
/// [`absorb`](Campaign::absorb) until [`done`](Campaign::done).
pub struct Campaign {
    cfg: CampaignConfig,
    layout: CodeLayout,
    corpus: Corpus,
    coverage: CoverageMap,
    round: u64,
    ops_planned: u64,
    ops_executed: u64,
    candidates: u64,
    admitted: u64,
    counterexample: Option<Box<Counterexample>>,
}

impl Campaign {
    /// Creates a fresh campaign; the layout derives from the seed the
    /// same way `dcfb conformance` derives it.
    ///
    /// # Errors
    ///
    /// The config validation error, verbatim.
    pub fn new(cfg: CampaignConfig) -> Result<Self, String> {
        cfg.validate()?;
        let layout = Fuzzer::new(cfg.seed).layout();
        Ok(Campaign {
            cfg,
            layout,
            corpus: Corpus::new(),
            coverage: CoverageMap::new(),
            round: 0,
            ops_planned: 0,
            ops_executed: 0,
            candidates: 0,
            admitted: 0,
            counterexample: None,
        })
    }

    /// Restores a checkpointed campaign: minimized corpus entries (in
    /// admission order), the saved coverage map, and the budget
    /// position. Entries re-merge their coverage; the saved map is
    /// folded on top so bits observed from non-admitted inputs
    /// survive the round trip.
    ///
    /// # Errors
    ///
    /// The config validation error, verbatim.
    pub fn restore(
        cfg: CampaignConfig,
        entries: Vec<Vec<EngineOp>>,
        coverage: CoverageMap,
        round: u64,
        ops_done: u64,
        candidates: u64,
    ) -> Result<Self, String> {
        let mut campaign = Campaign::new(cfg)?;
        let layout = campaign.layout.clone();
        for ops in entries {
            campaign
                .corpus
                .admit_resumed(&layout, &mut campaign.coverage, ops);
        }
        campaign.admitted = campaign.corpus.len() as u64;
        campaign.coverage.merge(&coverage);
        campaign.round = round;
        campaign.ops_planned = ops_done;
        campaign.ops_executed = ops_done;
        campaign.candidates = candidates;
        Ok(campaign)
    }

    /// The campaign's program layout.
    pub fn layout(&self) -> &CodeLayout {
        &self.layout
    }

    /// The campaign config.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Whether the budget is exhausted or a divergence ended the hunt.
    pub fn done(&self) -> bool {
        self.counterexample.is_some() || self.ops_planned >= self.cfg.total_ops
    }

    /// Plans the next round's candidates: pure in `(seed, round,
    /// index)` and the round-start corpus, so the batch is identical
    /// at any job count. Empty iff [`done`](Self::done).
    pub fn next_batch(&mut self) -> Vec<Vec<EngineOp>> {
        let mut batch = Vec::new();
        if self.done() {
            return batch;
        }
        for i in 0..self.cfg.batch_size as u64 {
            if self.ops_planned >= self.cfg.total_ops {
                break;
            }
            let child = self.plan_candidate(i);
            self.ops_planned += child.len() as u64;
            batch.push(child);
        }
        self.round += 1;
        batch
    }

    fn plan_candidate(&mut self, index: u64) -> Vec<EngineOp> {
        let cell = derive_seed(self.cfg.seed, self.round, index);
        let mut rng = SmallRng::seed_from_u64(cell);
        let fresh = self.corpus.is_empty() || rng.gen_bool(0.25);
        if fresh {
            let len = self.cfg.input_len / 2
                + rng.gen_range(0..self.cfg.input_len.max(2) as u64) as usize;
            let mut fz = Fuzzer::new(rng.gen());
            fz.engine_ops(&self.layout, len.max(1))
        } else {
            let n = self.corpus.len() as u64;
            let a = rng.gen_range(0..n) as usize;
            let b = rng.gen_range(0..n) as usize;
            let mut mutator = Mutator::new(rng.gen());
            mutator.mutate(
                &self.corpus.entries()[a].ops,
                &self.corpus.entries()[b].ops,
                &self.layout,
            )
        }
    }

    /// Absorbs one round's outcomes, in candidate order: merges
    /// coverage, admits novel inputs (minimized), captures the first
    /// divergence. Ordered absorption is what makes the final state
    /// independent of evaluation parallelism.
    pub fn absorb(&mut self, outcomes: Vec<CandidateOutcome>) {
        for outcome in outcomes {
            self.candidates += 1;
            self.ops_executed += outcome.ops.len() as u64;
            if self
                .corpus
                .consider(&self.layout, &mut self.coverage, &outcome.ops, &outcome.map)
            {
                self.admitted += 1;
            }
            if let Some(ce) = outcome.counterexample {
                if self.counterexample.is_none() {
                    self.counterexample = Some(ce);
                }
            }
        }
    }

    /// The accumulated coverage map.
    pub fn coverage(&self) -> &CoverageMap {
        &self.coverage
    }

    /// The corpus (admission order).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The first divergence found, if any.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        self.counterexample.as_deref()
    }

    /// Rounds planned so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Ops executed (absorbed) so far.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Candidates absorbed so far.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Corpus admissions so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }
}

/// Runs a whole campaign sequentially (the in-process reference
/// driver; the pooled driver in `dcfb-bench` must land on identical
/// state). Tests and the corpus-bless path use this.
pub fn run_sequential(cfg: CampaignConfig) -> Result<Campaign, String> {
    let mut campaign = Campaign::new(cfg)?;
    while !campaign.done() {
        let batch = campaign.next_batch();
        let layout = campaign.layout().clone();
        let outcomes = batch
            .into_iter()
            .map(|ops| evaluate(&layout, ops))
            .collect();
        campaign.absorb(outcomes);
    }
    Ok(campaign)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::coverage::baseline_coverage;

    #[test]
    fn zero_budget_is_a_config_error() {
        let mut cfg = CampaignConfig::standard(1, 0);
        assert!(Campaign::new(cfg).is_err());
        cfg.total_ops = 10;
        cfg.batch_size = 0;
        assert!(cfg.validate().is_err());
        cfg.batch_size = 8;
        cfg.input_len = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn quick_campaign_is_deterministic_and_beats_the_baseline() {
        let cfg = CampaignConfig::quick(42);
        let a = run_sequential(cfg).unwrap();
        let b = run_sequential(cfg).unwrap();
        assert!(a.counterexample().is_none(), "production diverged");
        assert_eq!(a.coverage().to_hex(), b.coverage().to_hex());
        assert_eq!(a.corpus().digest(), b.corpus().digest());
        assert!(!a.corpus().is_empty(), "no inputs admitted");
        assert!(a.ops_executed() >= cfg.total_ops);

        // The guided campaign must strictly beat the PR-4 fixed-seed
        // generator at the same op budget.
        let baseline = baseline_coverage(42, a.ops_executed());
        assert!(
            a.coverage().bit_count() > baseline.bit_count(),
            "campaign {} bits vs baseline {}",
            a.coverage().bit_count(),
            baseline.bit_count()
        );
        assert!(a.coverage().has_novel_bits_over(&baseline));
    }

    #[test]
    fn restore_round_trips_campaign_state() {
        let cfg = CampaignConfig {
            seed: 7,
            total_ops: 12_000,
            input_len: 96,
            batch_size: 16,
        };
        // Run halfway, snapshot, restore, finish; compare against an
        // uninterrupted run.
        let mut half = Campaign::new(cfg).unwrap();
        for _ in 0..4 {
            let batch = half.next_batch();
            let layout = half.layout().clone();
            let outcomes = batch.into_iter().map(|o| evaluate(&layout, o)).collect();
            half.absorb(outcomes);
        }
        let entries: Vec<Vec<EngineOp>> = half
            .corpus()
            .entries()
            .iter()
            .map(|e| e.ops.clone())
            .collect();
        let mut resumed = Campaign::restore(
            cfg,
            entries,
            *half.coverage(),
            half.rounds(),
            half.ops_executed(),
            half.candidates(),
        )
        .unwrap();
        assert_eq!(resumed.corpus().digest(), half.corpus().digest());
        assert_eq!(resumed.coverage().to_hex(), half.coverage().to_hex());
        while !resumed.done() {
            let batch = resumed.next_batch();
            let layout = resumed.layout().clone();
            let outcomes = batch.into_iter().map(|o| evaluate(&layout, o)).collect();
            resumed.absorb(outcomes);
        }

        let mut full = Campaign::new(cfg).unwrap();
        while !full.done() {
            let batch = full.next_batch();
            let layout = full.layout().clone();
            let outcomes = batch.into_iter().map(|o| evaluate(&layout, o)).collect();
            full.absorb(outcomes);
        }
        assert_eq!(resumed.corpus().digest(), full.corpus().digest());
        assert_eq!(resumed.coverage().to_hex(), full.coverage().to_hex());
        assert_eq!(resumed.candidates(), full.candidates());
    }
}
