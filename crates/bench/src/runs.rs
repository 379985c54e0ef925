//! Shared run helpers: scaled configurations, image caching, and
//! baseline caching, so regenerating all experiments stays fast.

use dcfb_sim::{SimConfig, SimReport};
use dcfb_trace::IsaMode;
use dcfb_workloads::{all_workloads, ProgramImage, ResolvedWorkload, Workload};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The trace seed used by every experiment (determinism).
pub const TRACE_SEED: u64 = 0xD0_5EED;

/// Parses an environment value, reporting malformed input.
///
/// Returns the parsed value (or `default`) plus a warning message when
/// `raw` was present but not a valid `u64`. Split from [`env_u64`] so
/// the warning path is unit-testable without touching process state.
fn parse_env_u64(name: &str, raw: Option<&str>, default: u64) -> (u64, Option<String>) {
    match raw {
        None => (default, None),
        Some(v) => match v.parse() {
            Ok(n) => (n, None),
            Err(_) => (
                default,
                Some(format!(
                    "warning: ignoring malformed {name}={v:?} (expected an unsigned integer); using default {default}"
                )),
            ),
        },
    }
}

/// Reads and memoizes one environment scale knob.
///
/// Each variable is read from the process environment exactly once; the
/// parsed value (`Some` for a valid integer, `None` for absent or
/// malformed, which falls back to the caller's default) is cached for
/// the life of the process. The malformed-value warning is returned only
/// by the call that performed the first read, so a sweep running on N
/// worker threads prints it once instead of once per worker.
fn env_u64_memo(name: &str, default: u64) -> (u64, Option<String>) {
    static CACHE: OnceLock<Mutex<HashMap<String, Option<u64>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // The first reader holds the lock across the env read, so
    // concurrent callers cannot race to a second read/warning.
    let mut guard = lock_cache(cache);
    if let Some(parsed) = guard.get(name) {
        return (parsed.unwrap_or(default), None);
    }
    let raw = std::env::var(name).ok();
    let (value, warning) = parse_env_u64(name, raw.as_deref(), default);
    // Malformed and absent both memoize as None: the default applies,
    // and per-caller defaults stay free to differ.
    let parsed = raw.as_deref().and_then(|r| r.parse().ok());
    guard.insert(name.to_owned(), parsed);
    (value, warning)
}

pub(crate) fn env_u64(name: &str, default: u64) -> u64 {
    let (value, warning) = env_u64_memo(name, default);
    if let Some(w) = warning {
        eprintln!("{w}");
    }
    value
}

/// Warmup instructions per run (`DCFB_WARMUP`, default 1 M).
pub fn warmup_instrs() -> u64 {
    env_u64("DCFB_WARMUP", 1_000_000)
}

/// Measured instructions per run (`DCFB_MEASURE`, default 2 M).
pub fn measure_instrs() -> u64 {
    env_u64("DCFB_MEASURE", 2_000_000)
}

/// The workload list, optionally truncated by `DCFB_WORKLOADS`.
pub fn workloads() -> Vec<Workload> {
    let all = all_workloads();
    let n = env_u64("DCFB_WORKLOADS", all.len() as u64) as usize;
    all.into_iter().take(n.max(1)).collect()
}

/// Applies the experiment scale to a configuration.
pub fn scaled(mut cfg: SimConfig) -> SimConfig {
    cfg.warmup_instrs = warmup_instrs();
    cfg.measure_instrs = measure_instrs();
    cfg
}

/// A scaled configuration for a named method.
///
/// # Panics
///
/// Panics on an unknown method name. Figure generators pass only the
/// fixed method names of their tables, so an unknown one is a bug in
/// this crate; the CLI reports a user's unknown name as
/// [`dcfb_errors::DcfbError::UnknownMethod`].
pub fn method_config(name: &str) -> SimConfig {
    match SimConfig::for_method(name) {
        Some(cfg) => scaled(cfg),
        #[allow(clippy::panic)]
        None => panic!("unknown method {name:?}"),
    }
}

type ImageKey = (String, IsaMode);

/// A once-per-key concurrency-safe memo: the outer mutex is held only
/// long enough to fetch/insert the per-key cell, and the expensive
/// build runs inside the cell's `OnceLock`, so N workers asking for the
/// same key build it exactly once (the rest block on the cell, not on
/// the whole cache).
type KeyedOnce<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

fn once_cell_for<K: std::hash::Hash + Eq, V>(cache: &KeyedOnce<K, V>, key: K) -> Arc<OnceLock<V>> {
    Arc::clone(lock_cache(cache).entry(key).or_default())
}

fn image_cache() -> &'static KeyedOnce<ImageKey, Arc<ProgramImage>> {
    static CACHE: OnceLock<KeyedOnce<ImageKey, Arc<ProgramImage>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Locks a cache mutex, recovering from poisoning: caches hold only
/// completed values, so a panic elsewhere never leaves them torn.
fn lock_cache<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Builds (or fetches a cached) program image for `workload`.
///
/// Concurrency-safe and build-once: parallel workers asking for the
/// same workload share one `Arc<ProgramImage>`, and the image is built
/// exactly once even when several workers miss simultaneously.
pub fn image_for(workload: &Workload, isa: IsaMode) -> Arc<ProgramImage> {
    let cell = once_cell_for(image_cache(), (workload.name.to_owned(), isa));
    Arc::clone(cell.get_or_init(|| workload.image(isa)))
}

/// Runs `cfg` on `workload` (cached image, fixed trace seed).
///
/// # Panics
///
/// Panics if `cfg` fails validation (e.g. a zero `DCFB_WARMUP`); the
/// figure-level `catch_unwind` in `all_experiments` reports it.
pub fn run(workload: &Workload, cfg: SimConfig) -> SimReport {
    let source = ResolvedWorkload::from_image(image_for(workload, cfg.isa));
    match dcfb_sim::run(&source, cfg, TRACE_SEED) {
        Ok(run) => run.report,
        #[allow(clippy::panic)]
        Err(e) => panic!("{e}"),
    }
}

fn baseline_cache() -> &'static KeyedOnce<String, SimReport> {
    static CACHE: OnceLock<KeyedOnce<String, SimReport>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The no-prefetcher baseline for `workload` at the current scale
/// (cached per process; computed exactly once even under parallel
/// workers — concurrent callers block on the in-flight run instead of
/// duplicating it).
pub fn baseline(workload: &Workload) -> SimReport {
    let key = format!("{}:{}:{}", workload.name, warmup_instrs(), measure_instrs());
    let cell = once_cell_for(baseline_cache(), key);
    cell.get_or_init(|| run(workload, method_config("Baseline")))
        .clone()
}

/// Runs `cfg` on every workload through the parallel executor, in
/// workload order. A panicking run propagates out of the worker pool
/// to the figure-level `catch_unwind` in `all_experiments`, the one
/// crash-isolation boundary of a batch.
pub fn run_all(cfg: &SimConfig) -> Vec<(Workload, SimReport)> {
    crate::sweep::parallel_map(workloads(), |w| (w.clone(), run(w, cfg.clone())))
}

/// [`run_all`] plus each workload's cached baseline.
pub fn run_all_with_baseline(cfg: &SimConfig) -> Vec<(Workload, SimReport, SimReport)> {
    crate::sweep::parallel_map(workloads(), |w| {
        let rep = run(w, cfg.clone());
        (w.clone(), rep, baseline(w))
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_defaults() {
        assert!(warmup_instrs() >= 1);
        assert!(measure_instrs() >= 1);
        assert!(!workloads().is_empty());
    }

    #[test]
    fn malformed_env_values_warn_and_fall_back() {
        // Valid value parses, no warning.
        let (v, warn) = parse_env_u64("DCFB_TEST", Some("42"), 7);
        assert_eq!(v, 42);
        assert!(warn.is_none());
        // Absent value: default, no warning.
        let (v, warn) = parse_env_u64("DCFB_TEST", None, 7);
        assert_eq!(v, 7);
        assert!(warn.is_none());
        // Malformed values: default, one-line warning naming the var.
        for bad in ["2M", "-1", "1e6", "", "0x10"] {
            let (v, warn) = parse_env_u64("DCFB_TEST", Some(bad), 7);
            assert_eq!(v, 7, "{bad:?}");
            let w = warn.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(w.contains("DCFB_TEST"), "{w}");
            assert!(w.contains("warning"), "{w}");
            assert!(!w.contains('\n'), "{w}");
        }
        // End-to-end through the process environment.
        std::env::set_var("DCFB_TEST_MALFORMED_U64", "not-a-number");
        assert_eq!(env_u64("DCFB_TEST_MALFORMED_U64", 13), 13);
        std::env::remove_var("DCFB_TEST_MALFORMED_U64");
    }

    #[test]
    fn env_warning_is_emitted_exactly_once_across_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A malformed value hammered from four worker threads must
        // produce exactly one warning (the variable is read and
        // memoized on first access), not one per worker per call.
        std::env::set_var("DCFB_TEST_WARN_ONCE", "banana");
        let warnings = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..8 {
                        let (v, warn) = env_u64_memo("DCFB_TEST_WARN_ONCE", 9);
                        assert_eq!(v, 9);
                        if warn.is_some() {
                            warnings.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(warnings.load(Ordering::SeqCst), 1);
        std::env::remove_var("DCFB_TEST_WARN_ONCE");
    }

    #[test]
    fn image_cache_returns_same_arc() {
        let w = &workloads()[0];
        let a = image_for(w, IsaMode::Fixed4);
        let b = image_for(w, IsaMode::Fixed4);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
