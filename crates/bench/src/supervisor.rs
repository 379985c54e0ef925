//! Supervised job execution: every unit of work runs inside a
//! [`JobEnvelope`] carrying a deadline, and the [`Supervisor`] wraps
//! each attempt with crash isolation, bounded retry under a
//! deterministic exponential-backoff-with-jitter schedule, and a
//! quarantine list keyed by configuration digest.
//!
//! Design rules:
//!
//! * **Deterministic deadlines.** [`Deadline::Instrs`] charges an
//!   instruction budget against the simulator's lifetime retire count —
//!   the same budget interrupts the same run at the same instruction on
//!   every host. [`Deadline::Wall`] arms a watchdog thread that flips
//!   the attempt's [`RunControl`] cancel token; it exists for
//!   production batches, and tests never depend on it firing at a
//!   particular point.
//! * **Deterministic backoff.** The jitter is a pure function of
//!   `(seed, job id, attempt)` via splitmix64 — no wall clock, no
//!   global RNG. The recorded schedule (in units) is what tests assert;
//!   the actual sleep is `schedule ×` [`SupervisorOptions::unit`],
//!   which is zero in tests.
//! * **The pool always drains.** A panicking, failing, or timed-out
//!   attempt never takes down the sweep: the job retries or
//!   quarantines, and the report enumerates every submitted job exactly
//!   once (`completed + retried + quarantined == submitted`).
//! * **Fault-free parity.** The default runner calls `dcfb_sim::run`
//!   exactly as [`crate::runs::run`] does (cached image, fixed trace
//!   seed), passing the attempt's control, and
//!   attaching a default [`RunControl`] changes nothing about a run, so
//!   a fault-free supervised sweep is byte-identical to the unsupervised
//!   one.

use crate::runs::{self, TRACE_SEED};
use crate::sweep::parallel_map_jobs;
use dcfb_errors::{panic_message, DcfbError};
use dcfb_sim::{RunControl, SimReport};
use dcfb_telemetry::{CounterSet, Ctr};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// splitmix64: the same mixer the trace fault injector uses, so every
/// seeded decision in the repo derives randomness the same way.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds a string into a 64-bit key (splitmix over each byte).
fn hash_str(s: &str) -> u64 {
    let mut h = 0u64;
    for b in s.as_bytes() {
        h = splitmix64(h ^ u64::from(*b));
    }
    h
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// When a supervised attempt must be cancelled.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Deadline {
    /// No deadline; only external cancellation stops the attempt.
    #[default]
    Unbounded,
    /// Cancel once this many instructions have retired across the whole
    /// run (warmup + measurement). Deterministic across hosts.
    Instrs(u64),
    /// Cancel after this much wall-clock time (watchdog thread).
    Wall(Duration),
}

impl Deadline {
    /// Human-readable form used in [`DcfbError::Timeout`] diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Deadline::Unbounded => "unbounded".to_owned(),
            Deadline::Instrs(n) => format!("instruction budget {n}"),
            Deadline::Wall(d) => format!("wall clock {:.3}s", d.as_secs_f64()),
        }
    }
}

/// One unit of supervised work: a `(workload-source, method)` pair plus
/// the deadline its attempts run under. The workload is any spec the
/// workload-source registry accepts — a synthetic name, a `mix:`
/// interleaving, or a `trace:` replay — so every source is supervisable
/// and quarantinable.
#[derive(Clone, Debug)]
pub struct JobEnvelope {
    /// The workload-source spec to simulate.
    pub workload: String,
    /// Registry method name.
    pub method: String,
    /// Per-attempt deadline.
    pub deadline: Deadline,
}

impl JobEnvelope {
    /// An envelope with the supervisor's default deadline.
    pub fn new(workload: impl Into<String>, method: &str) -> JobEnvelope {
        JobEnvelope {
            workload: workload.into(),
            method: method.to_owned(),
            deadline: Deadline::Unbounded,
        }
    }

    /// Stable job identifier: `method/workload`.
    pub fn id(&self) -> String {
        format!("{}/{}", self.method, self.workload)
    }

    /// 16-hex-digit digest of the job's effective configuration — the
    /// quarantine key. Two jobs that would run the same simulation
    /// share a digest, so quarantining one config quarantines every
    /// resubmission of it.
    pub fn config_digest(&self) -> String {
        let cfg = runs::try_method_config(&self.method)
            .map(|c| format!("{c:?}"))
            .unwrap_or_else(|e| format!("invalid:{e}"));
        let h = hash_str(&format!("{}|{}|{cfg}", self.method, self.workload));
        format!("{h:016x}")
    }
}

/// Exponential backoff parameters, in abstract units (the supervisor's
/// [`SupervisorOptions::unit`] converts units to real time).
#[derive(Clone, Copy, Debug)]
pub struct BackoffPolicy {
    /// Delay after the first failure, in units.
    pub base_units: u64,
    /// Multiplier per further failure.
    pub factor: u64,
    /// Upper bound on the un-jittered delay.
    pub cap_units: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_units: 1,
            factor: 2,
            cap_units: 60,
        }
    }
}

impl BackoffPolicy {
    /// The delay (in units) before retry number `attempt` (0-based: the
    /// delay after the first failure is `attempt == 0`). Deterministic:
    /// exponential growth capped at `cap_units`, with jitter drawn from
    /// `[exp/2, exp]` by splitmix64 over `(seed, job_key, attempt)`.
    pub fn delay_units(&self, seed: u64, job_key: u64, attempt: u32) -> u64 {
        let mut exp = self.base_units.max(1);
        for _ in 0..attempt {
            exp = exp.saturating_mul(self.factor.max(1)).min(self.cap_units);
        }
        exp = exp.min(self.cap_units).max(1);
        let half = exp / 2;
        let r = splitmix64(seed ^ job_key.rotate_left(17) ^ u64::from(attempt));
        half + r % (exp - half + 1)
    }
}

/// Supervisor tuning knobs.
#[derive(Clone, Debug)]
pub struct SupervisorOptions {
    /// Attempts per job before quarantine (≥ 1).
    pub max_attempts: u32,
    /// Backoff schedule between attempts.
    pub backoff: BackoffPolicy,
    /// Seed for the backoff jitter.
    pub seed: u64,
    /// Real duration of one backoff unit. `Duration::ZERO` in tests:
    /// the schedule is still computed and recorded, but nothing sleeps.
    pub unit: Duration,
    /// Deadline applied to jobs whose envelope says
    /// [`Deadline::Unbounded`].
    pub default_deadline: Deadline,
    /// Worker threads (0 = the sweep default from `DCFB_JOBS`).
    pub jobs: usize,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            max_attempts: 3,
            backoff: BackoffPolicy::default(),
            seed: TRACE_SEED,
            unit: Duration::from_millis(50),
            default_deadline: Deadline::Unbounded,
            jobs: 0,
        }
    }
}

/// One attempt's context, handed to the runner: the attempt index and
/// the [`RunControl`] the runner must honor (attach it to the
/// simulator, or poll it in its own loop).
#[derive(Clone, Debug)]
pub struct Attempt {
    /// 0-based attempt number.
    pub index: u32,
    /// Cooperative cancellation for this attempt (budget and/or
    /// watchdog already armed by the supervisor).
    pub control: RunControl,
}

/// How a supervised job ended.
#[derive(Clone, Debug)]
pub enum JobOutcome<T> {
    /// Some attempt produced a value.
    Completed(T),
    /// Every attempt failed (or the config was already quarantined).
    Quarantined(DcfbError),
}

/// Summary status of a job record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed on the first attempt.
    Completed,
    /// Completed, but only after at least one retry.
    Retried,
    /// Quarantined (exhausted retries, or skipped as already
    /// quarantined).
    Quarantined,
}

impl JobStatus {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Retried => "retried",
            JobStatus::Quarantined => "quarantined",
        }
    }
}

/// The full per-job audit trail.
#[derive(Clone, Debug)]
pub struct JobRecord<T> {
    /// `method/workload`.
    pub id: String,
    /// Configuration digest (quarantine key).
    pub config_digest: String,
    /// Attempts actually executed (0 for a quarantine skip).
    pub attempts: u32,
    /// Backoff delays (in units) slept between attempts, in order.
    pub backoff_units: Vec<u64>,
    /// Attempts cancelled at their deadline.
    pub timeouts: u32,
    /// Final outcome.
    pub outcome: JobOutcome<T>,
}

impl<T> JobRecord<T> {
    /// Summary status.
    pub fn status(&self) -> JobStatus {
        match &self.outcome {
            JobOutcome::Completed(_) if self.attempts <= 1 => JobStatus::Completed,
            JobOutcome::Completed(_) => JobStatus::Retried,
            JobOutcome::Quarantined(_) => JobStatus::Quarantined,
        }
    }

    /// The produced value, if the job completed.
    pub fn value(&self) -> Option<&T> {
        match &self.outcome {
            JobOutcome::Completed(v) => Some(v),
            JobOutcome::Quarantined(_) => None,
        }
    }
}

/// What a supervised batch produced: one record per submitted job (in
/// submission order) plus the supervision counters.
#[derive(Clone, Debug)]
pub struct SupervisionReport<T> {
    /// Per-job records, in submission order.
    pub records: Vec<JobRecord<T>>,
    /// Retry/timeout/quarantine counters for this batch.
    pub counters: CounterSet,
}

impl<T> SupervisionReport<T> {
    /// Jobs submitted.
    pub fn submitted(&self) -> usize {
        self.records.len()
    }

    /// Jobs with a given status.
    pub fn count(&self, status: JobStatus) -> usize {
        self.records.iter().filter(|r| r.status() == status).count()
    }

    /// The drain invariant: every submitted job is accounted for as
    /// completed, retried, or quarantined.
    pub fn accounted(&self) -> bool {
        self.count(JobStatus::Completed)
            + self.count(JobStatus::Retried)
            + self.count(JobStatus::Quarantined)
            == self.submitted()
    }
}

/// A watchdog thread armed for one wall-clock deadline: cancels the
/// attempt's [`RunControl`] if the deadline passes before
/// [`Watchdog::disarm`] is called.
struct Watchdog {
    done: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn arm(control: &RunControl, after: Duration) -> Watchdog {
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&done);
        let ctl = control.clone();
        let handle = std::thread::spawn(move || {
            let (flag, cv) = &*shared;
            let mut finished = lock(flag);
            let deadline = std::time::Instant::now() + after;
            loop {
                if *finished {
                    return;
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    ctl.cancel();
                    return;
                }
                finished = match cv.wait_timeout(finished, deadline - now) {
                    Ok((g, _)) => g,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        });
        Watchdog {
            done,
            handle: Some(handle),
        }
    }

    fn disarm(mut self) {
        {
            let (flag, cv) = &*self.done;
            *lock(flag) = true;
            cv.notify_all();
        }
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Quarantine record for one configuration digest.
#[derive(Clone, Debug)]
struct QuarantineEntry {
    job: String,
    failures: u32,
    last_error: String,
}

/// The supervisor: owns the quarantine list (which persists across
/// [`Supervisor::run_with`] calls, so a resubmitted bad config is
/// skipped instead of re-failed) and executes batches through the
/// shared parallel worker pool.
pub struct Supervisor {
    opts: SupervisorOptions,
    quarantine: Mutex<HashMap<String, QuarantineEntry>>,
}

impl Supervisor {
    /// A supervisor with the given options.
    pub fn new(opts: SupervisorOptions) -> Supervisor {
        Supervisor {
            opts,
            quarantine: Mutex::new(HashMap::new()),
        }
    }

    /// The configured options.
    pub fn options(&self) -> &SupervisorOptions {
        &self.opts
    }

    /// Digests currently quarantined, sorted.
    pub fn quarantined_digests(&self) -> Vec<String> {
        let mut v: Vec<String> = lock(&self.quarantine).keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// Runs the default simulation (identical to [`crate::runs::run`]:
    /// registry-resolved source, cached image for synthetic names, fixed
    /// trace seed) for every envelope.
    pub fn run(&self, jobs: Vec<JobEnvelope>) -> SupervisionReport<SimReport> {
        self.run_with(jobs, |env, attempt| {
            let cfg = runs::try_method_config(&env.method)?;
            let resolved = runs::resolved_for(&env.workload, cfg.isa)?;
            let run = dcfb_sim::run(&resolved, cfg, TRACE_SEED, Some(attempt.control.clone()))?;
            if run.interrupted {
                return Err(DcfbError::Timeout {
                    workload: env.workload.clone(),
                    method: env.method.clone(),
                    deadline: self.effective_deadline(env).describe(),
                });
            }
            Ok(run.report)
        })
    }

    fn effective_deadline(&self, env: &JobEnvelope) -> Deadline {
        match env.deadline {
            Deadline::Unbounded => self.opts.default_deadline,
            d => d,
        }
    }

    /// Runs `runner` for every envelope under full supervision:
    /// parallel execution (submission-order results), per-attempt crash
    /// isolation and deadlines, deterministic backoff between attempts,
    /// and quarantine after [`SupervisorOptions::max_attempts`]
    /// failures.
    ///
    /// The runner receives the envelope and the attempt context; it
    /// must honor [`Attempt::control`] (attach it to the simulator) for
    /// deadlines to take effect, and should report a cancelled run as
    /// [`DcfbError::Timeout`].
    pub fn run_with<T, F>(&self, jobs: Vec<JobEnvelope>, runner: F) -> SupervisionReport<T>
    where
        T: Send,
        F: Fn(&JobEnvelope, &Attempt) -> Result<T, DcfbError> + Sync,
    {
        let workers = if self.opts.jobs == 0 {
            crate::sweep::jobs()
        } else {
            self.opts.jobs
        };
        let records = parallel_map_jobs(jobs, workers, |env| self.supervise_one(env, &runner));
        let mut counters = CounterSet::new();
        for rec in &records {
            counters.add(Ctr::JobRetries, u64::from(rec.attempts.saturating_sub(1)));
            counters.add(Ctr::JobTimeouts, u64::from(rec.timeouts));
            if rec.status() == JobStatus::Quarantined {
                counters.add(Ctr::JobQuarantines, 1);
            }
        }
        SupervisionReport { records, counters }
    }

    fn supervise_one<T, F>(&self, env: &JobEnvelope, runner: &F) -> JobRecord<T>
    where
        F: Fn(&JobEnvelope, &Attempt) -> Result<T, DcfbError> + Sync,
    {
        let id = env.id();
        let digest = env.config_digest();
        if let Some(entry) = lock(&self.quarantine).get(&digest).cloned() {
            return JobRecord {
                id: id.clone(),
                config_digest: digest.clone(),
                attempts: 0,
                backoff_units: Vec::new(),
                timeouts: 0,
                outcome: JobOutcome::Quarantined(DcfbError::Quarantined {
                    job: format!("{id} (skipped; first quarantined as {})", entry.job),
                    config_digest: digest,
                    failures: entry.failures,
                    last_error: entry.last_error,
                }),
            };
        }
        let deadline = self.effective_deadline(env);
        let job_key = hash_str(&id);
        let max_attempts = self.opts.max_attempts.max(1);
        let mut backoff_units = Vec::new();
        let mut timeouts = 0u32;
        let mut last_error = String::new();
        for attempt_idx in 0..max_attempts {
            let control = match deadline {
                Deadline::Instrs(n) => RunControl::with_budget(n),
                _ => RunControl::new(),
            };
            let watchdog = match deadline {
                Deadline::Wall(d) => Some(Watchdog::arm(&control, d)),
                _ => None,
            };
            let attempt = Attempt {
                index: attempt_idx,
                control,
            };
            let result = catch_unwind(AssertUnwindSafe(|| runner(env, &attempt)));
            if let Some(w) = watchdog {
                w.disarm();
            }
            match result {
                Ok(Ok(value)) => {
                    return JobRecord {
                        id,
                        config_digest: digest,
                        attempts: attempt_idx + 1,
                        backoff_units,
                        timeouts,
                        outcome: JobOutcome::Completed(value),
                    };
                }
                Ok(Err(e)) => {
                    if matches!(e, DcfbError::Timeout { .. }) {
                        timeouts += 1;
                    }
                    last_error = e.to_string();
                }
                Err(payload) => {
                    last_error = format!("panicked: {}", panic_message(payload.as_ref()));
                }
            }
            if attempt_idx + 1 < max_attempts {
                let units = self
                    .opts
                    .backoff
                    .delay_units(self.opts.seed, job_key, attempt_idx);
                backoff_units.push(units);
                if !self.opts.unit.is_zero() {
                    std::thread::sleep(self.opts.unit.saturating_mul(units.min(3600) as u32));
                }
            }
        }
        lock(&self.quarantine).insert(
            digest.clone(),
            QuarantineEntry {
                job: id.clone(),
                failures: max_attempts,
                last_error: last_error.clone(),
            },
        );
        JobRecord {
            id: id.clone(),
            config_digest: digest.clone(),
            attempts: max_attempts,
            backoff_units,
            timeouts,
            outcome: JobOutcome::Quarantined(DcfbError::Quarantined {
                job: id,
                config_digest: digest,
                failures: max_attempts,
                last_error,
            }),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn test_opts() -> SupervisorOptions {
        SupervisorOptions {
            unit: Duration::ZERO,
            jobs: 2,
            ..SupervisorOptions::default()
        }
    }

    fn small_env(method: &str) -> JobEnvelope {
        JobEnvelope::new(runs::workloads()[0].name, method)
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let p = BackoffPolicy {
            base_units: 2,
            factor: 3,
            cap_units: 40,
        };
        let key = hash_str("SN4L/gauss");
        let a: Vec<u64> = (0..6).map(|i| p.delay_units(42, key, i)).collect();
        let b: Vec<u64> = (0..6).map(|i| p.delay_units(42, key, i)).collect();
        assert_eq!(a, b, "same seed/job/attempt must give the same delay");
        // Jitter stays inside [exp/2, exp] for the capped exponential.
        let mut exp = 2u64;
        for (i, d) in a.iter().enumerate() {
            assert!(*d >= exp / 2 && *d <= exp, "attempt {i}: {d} vs exp {exp}");
            exp = (exp * 3).min(40);
        }
        // A different seed or job perturbs the schedule.
        let c: Vec<u64> = (0..6).map(|i| p.delay_units(43, key, i)).collect();
        let d: Vec<u64> = (0..6)
            .map(|i| p.delay_units(42, hash_str("other/job"), i))
            .collect();
        assert!(a != c || a != d, "jitter must depend on seed and job");
    }

    #[test]
    fn transient_failure_retries_then_completes() {
        let sup = Supervisor::new(test_opts());
        let calls = AtomicU32::new(0);
        let report = sup.run_with(vec![small_env("Baseline")], |_, attempt| {
            calls.fetch_add(1, Ordering::SeqCst);
            if attempt.index == 0 {
                panic!("injected transient fault");
            }
            Ok::<u32, DcfbError>(7)
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let rec = &report.records[0];
        assert_eq!(rec.status(), JobStatus::Retried);
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.backoff_units.len(), 1);
        assert_eq!(rec.value(), Some(&7));
        assert_eq!(report.counters.get(Ctr::JobRetries), 1);
        assert_eq!(report.counters.get(Ctr::JobQuarantines), 0);
        assert!(report.accounted());
    }

    #[test]
    fn permanent_failure_quarantines_after_max_attempts() {
        let sup = Supervisor::new(test_opts());
        let calls = AtomicU32::new(0);
        let env = small_env("Baseline");
        let report = sup.run_with(vec![env.clone()], |_, _| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err::<u32, DcfbError>(DcfbError::Run {
                workload: "w".into(),
                method: "m".into(),
                message: "injected permanent fault".into(),
            })
        });
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        let rec = &report.records[0];
        assert_eq!(rec.status(), JobStatus::Quarantined);
        assert_eq!(rec.attempts, 3);
        assert_eq!(rec.backoff_units.len(), 2);
        match &rec.outcome {
            JobOutcome::Quarantined(DcfbError::Quarantined {
                failures,
                last_error,
                config_digest,
                ..
            }) => {
                assert_eq!(*failures, 3);
                assert!(last_error.contains("injected permanent fault"));
                assert_eq!(config_digest, &env.config_digest());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(report.counters.get(Ctr::JobQuarantines), 1);
        assert_eq!(report.counters.get(Ctr::JobRetries), 2);
        // Resubmitting the same config skips straight to quarantine
        // without running (the quarantine list persists).
        let report2 = sup.run_with(vec![env], |_, _| Ok::<u32, DcfbError>(1));
        assert_eq!(calls.load(Ordering::SeqCst), 3, "skipped, not re-run");
        assert_eq!(report2.records[0].attempts, 0);
        assert_eq!(report2.records[0].status(), JobStatus::Quarantined);
        assert_eq!(report2.counters.get(Ctr::JobQuarantines), 1);
        assert_eq!(sup.quarantined_digests().len(), 1);
    }

    #[test]
    fn instr_deadline_cancels_mid_simulation() {
        // A budget far below warmup interrupts the run mid-simulation;
        // the supervisor classifies it as a timeout and, with every
        // attempt timing out, quarantines the job.
        let mut opts = test_opts();
        opts.max_attempts = 2;
        let sup = Supervisor::new(opts);
        let mut env = small_env("Baseline");
        env.deadline = Deadline::Instrs(5_000);
        let report = sup.run(vec![env]);
        let rec = &report.records[0];
        assert_eq!(rec.status(), JobStatus::Quarantined);
        assert_eq!(rec.timeouts, 2);
        assert_eq!(report.counters.get(Ctr::JobTimeouts), 2);
        match &rec.outcome {
            JobOutcome::Quarantined(DcfbError::Quarantined { last_error, .. }) => {
                assert!(last_error.contains("timed out"), "{last_error}");
                assert!(last_error.contains("instruction budget"), "{last_error}");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn fault_free_supervised_run_matches_unsupervised() {
        // Jobs-parity: with no faults, the supervised pool produces
        // byte-identical reports to the plain runner, in submission
        // order, at any worker count.
        let w = runs::workloads()[0].clone();
        let methods = ["Baseline", "SN4L"];
        let expected: Vec<String> = methods
            .iter()
            .map(|m| format!("{:?}", runs::run(&w, runs::method_config(m))))
            .collect();
        for jobs in [1, 2] {
            let mut opts = test_opts();
            opts.jobs = jobs;
            let sup = Supervisor::new(opts);
            let report = sup.run(
                methods
                    .iter()
                    .map(|m| JobEnvelope::new(w.name, m))
                    .collect(),
            );
            assert!(report.accounted());
            assert_eq!(report.count(JobStatus::Completed), methods.len());
            let got: Vec<String> = report
                .records
                .iter()
                .map(|r| format!("{:?}", r.value().unwrap()))
                .collect();
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn wall_deadline_watchdog_cancels() {
        // The watchdog path: an attempt that spins on its control until
        // cancelled is stopped by a short wall deadline. The test only
        // depends on the cancel arriving, not on when.
        let mut opts = test_opts();
        opts.max_attempts = 1;
        let sup = Supervisor::new(opts);
        let mut env = small_env("Baseline");
        env.deadline = Deadline::Wall(Duration::from_millis(20));
        let report = sup.run_with(vec![env.clone()], |env, attempt| {
            while !attempt.control.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err::<u32, DcfbError>(DcfbError::Timeout {
                workload: env.workload.clone(),
                method: env.method.clone(),
                deadline: env.deadline.describe(),
            })
        });
        let rec = &report.records[0];
        assert_eq!(rec.status(), JobStatus::Quarantined);
        assert_eq!(rec.timeouts, 1);
    }

    #[test]
    fn envelope_identity() {
        let env = small_env("SN4L");
        assert_eq!(env.id(), format!("SN4L/{}", env.workload));
        let d = env.config_digest();
        assert_eq!(d.len(), 16);
        assert_eq!(d, env.config_digest(), "digest is stable");
        assert_ne!(d, small_env("NL").config_digest());
    }
}
