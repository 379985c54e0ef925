//! The deterministic chaos campaign behind `dcfb chaos`: seeded fault
//! scenarios driven through the real stack — supervised execution
//! ([`crate::supervisor`]), the binary trace readers with injected
//! faults ([`dcfb_trace::FaultyReader`] / [`dcfb_trace::FaultyStream`]),
//! and checkpoint salvage ([`crate::checkpoint`]) — with every outcome
//! checked against explicit invariants:
//!
//! * the pool always drains: every batch accounts for every submitted
//!   job as completed, retried, or quarantined;
//! * every fault-free job's [`SimReport::digest`](dcfb_sim::SimReport)
//!   matches the checked-in conformance goldens — supervision must not
//!   perturb a healthy run by a single bit;
//! * each fault scenario lands in its expected terminal state
//!   (transient faults retry to completion, permanent faults
//!   quarantine, salvageable corruption completes leniently);
//! * a checkpoint torn mid-write resumes to byte-identical merged
//!   output.
//!
//! Everything is a pure function of the seed: the campaign uses
//! instruction-budget deadlines and zero-duration backoff units, so two
//! runs with the same seed produce the same report on any host.

use crate::checkpoint::Checkpoint;
use crate::supervisor::{
    Deadline, JobEnvelope, JobStatus, SupervisionReport, Supervisor, SupervisorOptions,
};
use dcfb_cache::CacheConfig;
use dcfb_conformance::golden::{fixture_digest, fixture_image, goldens};
use dcfb_errors::DcfbError;
use dcfb_sim::{RunControl, SimConfig, Simulator};
use dcfb_telemetry::{CounterSet, Ctr};
use dcfb_trace::{
    write_binary_v2, FaultyReader, FaultyStream, IsaMode, ReadMode, RecordedCode, StreamFault,
};
use dcfb_workloads::{all_workloads, ProgramImage, Walker};
use std::io::Cursor;
use std::sync::Arc;
use std::time::Duration;

/// Instruction budget used by the deadline scenarios — far below the
/// fixture's warmup, so the cancellation lands mid-simulation.
const TINY_BUDGET: u64 = 5_000;
/// Where the injected stream panic fires (mid-warmup).
const PANIC_AT: u64 = 10_000;
/// Records captured into the fault-injected binary trace.
const TRACE_RECORDS: u64 = 20_000;

/// Chaos campaign knobs.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOptions {
    /// Seed for every randomized choice (backoff jitter, truncation
    /// offsets). The same seed reproduces the same campaign.
    pub seed: u64,
    /// Quick mode: a golden subset instead of the full registry, for
    /// the tier-1 smoke path.
    pub quick: bool,
    /// Worker threads for the supervised batches.
    pub jobs: usize,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            seed: 42,
            quick: false,
            jobs: 2,
        }
    }
}

/// One campaign row: a job and how it ended.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Campaign phase (`golden`, `faults`, `resume`).
    pub phase: &'static str,
    /// Job / scenario identifier.
    pub job: String,
    /// Terminal status label.
    pub status: &'static str,
    /// Attempts executed.
    pub attempts: u32,
    /// Attempts cancelled at a deadline.
    pub timeouts: u32,
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
    /// One row per job, in execution order.
    pub rows: Vec<ChaosRow>,
    /// Aggregated supervision counters across every batch.
    pub counters: CounterSet,
    /// Invariant violations; empty means the campaign passed.
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn count(&self, status: &str) -> usize {
        self.rows.iter().filter(|r| r.status == status).count()
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
        let _ = writeln!(
            out,
            "| phase | job | status | attempts | timeouts | detail |"
        );
        let _ = writeln!(out, "| --- | --- | --- | --- | --- | --- |");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                r.phase,
                r.job,
                r.status,
                r.attempts,
                r.timeouts,
                r.detail.replace('|', "\\|")
            );
        }
        let (c, rt, q) = (
            self.count("completed"),
            self.count("retried"),
            self.count("quarantined"),
        );
        let _ = writeln!(
            out,
            "\njobs: {} submitted = {c} completed + {rt} retried + {q} quarantined",
            self.rows.len()
        );
        let _ = writeln!(
            out,
            "counters: retries {} / timeouts {} / quarantines {}",
            self.counters.get(Ctr::JobRetries),
            self.counters.get(Ctr::JobTimeouts),
            self.counters.get(Ctr::JobQuarantines)
        );
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

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fixture-scale configuration for `method` — identical to what
/// [`fixture_digest`] runs, so a clean chaos run reproduces the golden
/// digest bit-for-bit.
fn chaos_config(method: &str) -> Result<SimConfig, DcfbError> {
    let mut cfg = SimConfig::for_method(method).ok_or_else(|| DcfbError::UnknownMethod {
        name: method.to_owned(),
        available: dcfb_prefetch::method_names().map(str::to_owned).collect(),
    })?;
    cfg.warmup_instrs = 60_000;
    cfg.measure_instrs = 120_000;
    cfg.l1i = CacheConfig::from_kib(8, 8);
    Ok(cfg)
}

fn run_err(job: &JobEnvelope, message: String) -> DcfbError {
    DcfbError::Run {
        workload: job.workload.clone(),
        method: job.method.clone(),
        message,
    }
}

/// A clean fixture run for `method`, producing the digest the goldens
/// pin.
fn golden_run(env: &JobEnvelope, image: &Arc<ProgramImage>) -> Result<String, DcfbError> {
    fixture_digest(image, &env.method, false).map_err(|e| run_err(env, e))
}

fn merge_counters(acc: &mut CounterSet, more: &CounterSet) {
    for c in Ctr::ALL {
        acc.add(c, more.get(c));
    }
}

/// Campaign state threaded through the phases.
struct Campaign {
    opts: ChaosOptions,
    image: Arc<ProgramImage>,
    label_workload: String,
    rows: Vec<ChaosRow>,
    counters: CounterSet,
    failures: Vec<String>,
}

impl Campaign {
    fn envelope(&self, method: &str) -> JobEnvelope {
        JobEnvelope::new(self.label_workload.as_str(), method)
    }

    fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Folds one supervised batch into the campaign: drain check,
    /// counter aggregation, one row per record.
    fn absorb(&mut self, phase: &'static str, report: &SupervisionReport<String>) {
        if !report.accounted() {
            self.fail(format!(
                "{phase}: pool did not drain ({} submitted, statuses do not sum)",
                report.submitted()
            ));
        }
        merge_counters(&mut self.counters, &report.counters);
        for rec in &report.records {
            let detail = match (&rec.value(), rec.status()) {
                (Some(v), _) => {
                    let v = v.as_str();
                    if v.len() > 40 {
                        format!("{}…", &v[..40.min(v.len())])
                    } else {
                        v.to_owned()
                    }
                }
                (None, _) => match &rec.outcome {
                    crate::supervisor::JobOutcome::Quarantined(e) => {
                        let s = e.to_string();
                        if s.len() > 60 {
                            format!("{}…", &s[..60])
                        } else {
                            s
                        }
                    }
                    crate::supervisor::JobOutcome::Completed(_) => String::new(),
                },
            };
            self.rows.push(ChaosRow {
                phase,
                job: rec.id.clone(),
                status: rec.status().label(),
                attempts: rec.attempts,
                timeouts: rec.timeouts,
                detail,
            });
        }
    }

    /// Asserts the single record of a one-job batch ended as expected.
    fn expect_status(
        &mut self,
        scenario: &str,
        report: &SupervisionReport<String>,
        want: JobStatus,
    ) {
        match report.records.first() {
            Some(rec) if rec.status() == want => {}
            Some(rec) => self.fail(format!(
                "{scenario}: expected {}, got {} after {} attempt(s)",
                want.label(),
                rec.status().label(),
                rec.attempts
            )),
            None => self.fail(format!("{scenario}: batch produced no record")),
        }
    }
}

/// Runs the full campaign. Invariant violations are collected in
/// [`ChaosReport::failures`], never raised — the caller decides the
/// exit path.
pub fn run_chaos(opts: &ChaosOptions) -> ChaosReport {
    let mut campaign = Campaign {
        opts: *opts,
        image: fixture_image(),
        // Envelopes need a workload label; the chaos fixture is the
        // conformance image, so the catalog entry is a label only.
        label_workload: all_workloads().remove(0).name.to_owned(),
        rows: Vec::new(),
        counters: CounterSet::new(),
        failures: Vec::new(),
    };
    let sup = Supervisor::new(SupervisorOptions {
        max_attempts: 3,
        seed: opts.seed,
        unit: Duration::ZERO,
        jobs: opts.jobs.max(1),
        ..SupervisorOptions::default()
    });
    let golds = match goldens() {
        Ok(g) => g,
        Err(e) => {
            campaign.fail(format!("cannot parse goldens: {e}"));
            Vec::new()
        }
    };
    phase_golden(&mut campaign, &sup, &golds);
    phase_faults(&mut campaign, &sup, &golds);
    phase_resume(&mut campaign, &golds);
    ChaosReport {
        seed: opts.seed,
        quick: opts.quick,
        rows: campaign.rows,
        counters: campaign.counters,
        failures: campaign.failures,
    }
}

/// Phase 1: every (quick: a subset of the) registry method runs clean
/// under supervision and must reproduce its golden digest.
fn phase_golden(c: &mut Campaign, sup: &Supervisor, golds: &[(&'static str, &'static str)]) {
    let take = if c.opts.quick {
        4.min(golds.len())
    } else {
        golds.len()
    };
    let jobs: Vec<JobEnvelope> = golds[..take].iter().map(|(m, _)| c.envelope(m)).collect();
    let image = Arc::clone(&c.image);
    let report = sup.run_with(jobs, |env, _attempt| golden_run(env, &image));
    for (rec, (method, want)) in report.records.iter().zip(&golds[..take]) {
        match rec.value() {
            Some(got) if got == want => {}
            Some(_) => c.fail(format!(
                "golden: digest mismatch for {method} under supervision"
            )),
            None => c.fail(format!("golden: {method} did not complete")),
        }
        if rec.attempts != 1 {
            c.fail(format!(
                "golden: {method} took {} attempts on a fault-free run",
                rec.attempts
            ));
        }
    }
    c.absorb("golden", &report);
}

/// Phase 2: the fault scenarios. Each runs a one-job batch through the
/// same supervisor (so quarantine state persists) with a distinct
/// method per scenario (distinct quarantine keys).
fn phase_faults(c: &mut Campaign, sup: &Supervisor, golds: &[(&'static str, &'static str)]) {
    if golds.len() < 6 {
        c.fail("faults: fewer than 6 golden methods; cannot assign scenarios".to_owned());
        return;
    }
    let image = Arc::clone(&c.image);

    // Scenario: transient worker panic — the instruction stream panics
    // mid-warmup on the first attempt only; the retry must complete and
    // still match the golden digest.
    let env = c.envelope(golds[0].0);
    let img = Arc::clone(&image);
    let report = sup.run_with(vec![env], |env, attempt| {
        if attempt.index == 0 {
            let cfg = chaos_config(&env.method)?;
            let mut sim = Simulator::try_new(cfg, Arc::clone(&img))?;
            sim.attach_control(attempt.control.clone());
            let walker = Walker::new(Arc::clone(&img), 5);
            let mut faulty = FaultyStream::new(walker, StreamFault::PanicAfter(PANIC_AT));
            let _ = sim.run(&mut faulty);
            return Err(run_err(env, "injected stream panic did not fire".into()));
        }
        golden_run(env, &img)
    });
    c.expect_status("transient-panic", &report, JobStatus::Retried);
    if let Some(got) = report.records.first().and_then(|r| r.value()) {
        if got != golds[0].1 {
            c.fail("transient-panic: post-retry digest diverged from golden".to_owned());
        }
    }
    c.absorb("faults", &report);

    // Scenario: permanent worker panic — every attempt panics; the job
    // must quarantine after max_attempts.
    let env = c.envelope(golds[1].0);
    let img = Arc::clone(&image);
    let report = sup.run_with(vec![env.clone()], |env, attempt| {
        let cfg = chaos_config(&env.method)?;
        let mut sim = Simulator::try_new(cfg, Arc::clone(&img))?;
        sim.attach_control(attempt.control.clone());
        let walker = Walker::new(Arc::clone(&img), 5);
        let mut faulty = FaultyStream::new(walker, StreamFault::PanicAfter(PANIC_AT));
        let _ = sim.run(&mut faulty);
        Err(run_err(env, "injected stream panic did not fire".into()))
    });
    c.expect_status("permanent-panic", &report, JobStatus::Quarantined);
    c.absorb("faults", &report);

    // Scenario: quarantine skip — resubmitting the quarantined config
    // must be skipped (0 attempts) even with a healthy runner.
    let img = Arc::clone(&image);
    let report = sup.run_with(vec![env], |env, _| golden_run(env, &img));
    c.expect_status("quarantine-skip", &report, JobStatus::Quarantined);
    if let Some(rec) = report.records.first() {
        if rec.attempts != 0 {
            c.fail(format!(
                "quarantine-skip: quarantined config re-ran ({} attempts)",
                rec.attempts
            ));
        }
    }
    c.absorb("faults", &report);

    // Scenario: transient deadline overrun — the first attempt runs
    // under an injected tiny instruction budget and times out; the
    // retry runs clean and must match its golden.
    let env = c.envelope(golds[2].0);
    let img = Arc::clone(&image);
    let report = sup.run_with(vec![env], |env, attempt| {
        if attempt.index == 0 {
            let cfg = chaos_config(&env.method)?;
            let mut sim = Simulator::try_new(cfg, Arc::clone(&img))?;
            sim.attach_control(RunControl::with_budget(TINY_BUDGET));
            let mut walker = Walker::new(Arc::clone(&img), 5);
            let _ = sim.run(&mut walker);
            if sim.interrupted() {
                return Err(DcfbError::Timeout {
                    workload: env.workload.clone(),
                    method: env.method.clone(),
                    deadline: Deadline::Instrs(TINY_BUDGET).describe(),
                });
            }
            return Err(run_err(env, "injected budget did not interrupt".into()));
        }
        golden_run(env, &img)
    });
    c.expect_status("transient-timeout", &report, JobStatus::Retried);
    if let Some(rec) = report.records.first() {
        if rec.timeouts != 1 {
            c.fail(format!(
                "transient-timeout: expected 1 timeout, saw {}",
                rec.timeouts
            ));
        }
    }
    c.absorb("faults", &report);

    // Scenario: permanent deadline overrun — the envelope itself
    // carries a budget no attempt can meet; every attempt times out and
    // the job quarantines.
    let mut env = c.envelope(golds[3].0);
    env.deadline = Deadline::Instrs(TINY_BUDGET);
    let img = Arc::clone(&image);
    let report = sup.run_with(vec![env], |env, attempt| {
        let cfg = chaos_config(&env.method)?;
        let mut sim = Simulator::try_new(cfg, Arc::clone(&img))?;
        sim.attach_control(attempt.control.clone());
        let mut walker = Walker::new(Arc::clone(&img), 5);
        let _ = sim.run(&mut walker);
        if sim.interrupted() {
            return Err(DcfbError::Timeout {
                workload: env.workload.clone(),
                method: env.method.clone(),
                deadline: env.deadline.describe(),
            });
        }
        Err(run_err(env, "deadline did not interrupt".into()))
    });
    c.expect_status("permanent-timeout", &report, JobStatus::Quarantined);
    if let Some(rec) = report.records.first() {
        if rec.timeouts != rec.attempts {
            c.fail(format!(
                "permanent-timeout: {} attempts but only {} timeouts",
                rec.attempts, rec.timeouts
            ));
        }
    }
    c.absorb("faults", &report);

    // Record one binary trace from the fixture for the reader-fault
    // scenarios.
    let mut bytes = Vec::new();
    let mut walker = Walker::new(Arc::clone(&image), 5);
    let recorded = match write_binary_v2(
        &mut walker,
        &mut bytes,
        TRACE_RECORDS,
        Some(IsaMode::Fixed4),
        dcfb_trace::file::DEFAULT_CHUNK_RECORDS,
    ) {
        Ok(n) => n,
        Err(e) => {
            c.fail(format!("faults: cannot record fixture trace: {e}"));
            return;
        }
    };
    // Seeded truncation offset, always inside the payload's middle
    // third so both readers see a damaged tail.
    let cut =
        bytes.len() as u64 * 2 / 3 + splitmix64(c.opts.seed) % (bytes.len() as u64 / 6).max(1);

    // Scenario: corrupted trace under the strict reader — every attempt
    // hits the truncation and errors; the job quarantines.
    let env = c.envelope(golds[4].0);
    let data = bytes.clone();
    let report = sup.run_with(vec![env], |env, _attempt| {
        let reader = FaultyReader::new(Cursor::new(data.clone())).truncate_at(cut);
        match dcfb_trace::read_binary_checked(reader, ReadMode::Strict) {
            Ok(_) => Err(run_err(
                env,
                "strict read of truncated trace succeeded".into(),
            )),
            Err(e) => Err(e),
        }
    });
    c.expect_status("strict-truncated-trace", &report, JobStatus::Quarantined);
    c.absorb("faults", &report);

    // Scenario: the same damaged trace under the lenient reader — the
    // verified prefix is salvaged and replayed through the real
    // simulator on the first attempt.
    let env = c.envelope(golds[5].0);
    let data = bytes;
    let report = sup.run_with(vec![env], |env, attempt| {
        let reader = FaultyReader::new(Cursor::new(data.clone())).truncate_at(cut);
        let (trace, rr) = dcfb_trace::read_binary_checked(reader, ReadMode::Lenient)?;
        if rr.salvage.is_none() {
            return Err(run_err(env, "lenient read saw no damage".into()));
        }
        let first = trace
            .instrs()
            .first()
            .copied()
            .ok_or_else(|| run_err(env, "salvaged trace is empty".into()))?;
        let cfg = chaos_config(&env.method)?;
        let code = Arc::new(RecordedCode::from_trace(trace.instrs()));
        let mut sim = Simulator::try_with_code(cfg, code, first.pc, env.workload.clone())?;
        sim.attach_control(attempt.control.clone());
        let mut replayer = trace.replay();
        let rep = sim.run(&mut replayer);
        Ok(format!(
            "salvaged {}/{} records, {}",
            rr.records,
            recorded,
            rep.digest()
        ))
    });
    c.expect_status("lenient-salvage-replay", &report, JobStatus::Completed);
    c.absorb("faults", &report);
}

/// Phase 3: checkpoint torn mid-write, then resumed — the salvaged
/// prefix plus regenerated tail must be byte-identical to the
/// uninterrupted checkpoint.
fn phase_resume(c: &mut Campaign, golds: &[(&'static str, &'static str)]) {
    let take = if c.opts.quick {
        2.min(golds.len())
    } else {
        4.min(golds.len())
    };
    if take < 2 {
        c.fail("resume: not enough goldens for the checkpoint scenario".to_owned());
        return;
    }
    let mut reference = Checkpoint::new();
    for (m, d) in &golds[..take] {
        reference.put(m, d);
    }
    let json = reference.to_json();
    // Seeded tear inside the final entry's value.
    let cut = json.len() - 2 - (splitmix64(c.opts.seed ^ 0xC4A0) % 8) as usize;
    let dir = std::env::temp_dir().join(format!(
        "dcfb-chaos-{}-{:x}",
        std::process::id(),
        c.opts.seed
    ));
    let outcome = (|| -> Result<String, DcfbError> {
        std::fs::create_dir_all(&dir).map_err(|e| DcfbError::io(dir.display().to_string(), &e))?;
        let path = dir.join("checkpoint.json");
        std::fs::write(&path, &json[..cut])
            .map_err(|e| DcfbError::io(path.display().to_string(), &e))?;
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
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(detail) => c.rows.push(ChaosRow {
            phase: "resume",
            job: format!("checkpoint×{take}"),
            status: "completed",
            attempts: 1,
            timeouts: 0,
            detail,
        }),
        Err(e) => {
            c.fail(format!("resume: {e}"));
            c.rows.push(ChaosRow {
                phase: "resume",
                job: format!("checkpoint×{take}"),
                status: "quarantined",
                attempts: 1,
                timeouts: 0,
                detail: e.to_string(),
            });
        }
    }
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
            jobs: 2,
        };
        let a = run_chaos(&opts);
        assert!(a.passed(), "failures: {:?}", a.failures);
        // Counts sum to submitted.
        let total = a.count("completed") + a.count("retried") + a.count("quarantined");
        assert_eq!(total, a.rows.len());
        // Expected scenario mix: transient scenarios retried,
        // permanent plus skip plus strict-read quarantined.
        assert_eq!(a.count("retried"), 2);
        assert_eq!(a.count("quarantined"), 4);
        assert_eq!(a.counters.get(Ctr::JobQuarantines), 4);
        assert!(a.counters.get(Ctr::JobTimeouts) >= 4);
        // Same seed, same campaign.
        let b = run_chaos(&opts);
        let fmt = |r: &ChaosReport| {
            r.rows
                .iter()
                .map(|x| {
                    format!(
                        "{}|{}|{}|{}|{}",
                        x.phase, x.job, x.status, x.attempts, x.timeouts
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(fmt(&a), fmt(&b));
        let rendered = a.render();
        assert!(rendered.contains("all invariants held"), "{rendered}");
    }

    #[test]
    fn different_seed_still_passes() {
        let report = run_chaos(&ChaosOptions {
            seed: 7,
            quick: true,
            jobs: 1,
        });
        assert!(report.passed(), "failures: {:?}", report.failures);
    }
}
