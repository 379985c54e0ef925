//! The worker pool every parallel consumer shares: the batch's runs,
//! its analysis figures and the repository benchmark.
//!
//! Every `(workload, configuration)` simulation in this reproduction is
//! an independent deterministic computation (fixed
//! [`crate::runs::TRACE_SEED`], own `Simulator`, shared read-only
//! `ProgramImage`), so the sweep is embarrassingly parallel.
//! [`parallel_map_jobs`] runs a fixed item list on a small worker pool
//! and returns results **in item order**: workers pull the next index
//! from an atomic counter and write into that index's slot, so the
//! merged output is byte-identical to a sequential run regardless of
//! completion order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Locks `m`, recovering from poisoning: the pool's result slots and
/// the image cache hold only completed values, so a panic elsewhere
/// never leaves them torn.
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Maps `f` over `items` on a pool of `jobs` worker threads,
/// returning results in item order (deterministic merge).
///
/// A panic inside `f` propagates to the caller once the pool joins —
/// the same observable behavior as a panic in a sequential loop.
pub fn parallel_map_jobs<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        // Plain in-thread loop: no pool, no synchronization.
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                *lock_recovering(&slots[i]) = Some(r);
            });
        }
    });
    // A worker panic re-raises at scope exit, so reaching this point
    // means every slot was filled exactly once.
    let out: Vec<R> = slots
        .into_iter()
        .filter_map(|slot| match slot.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        })
        .collect();
    assert_eq!(out.len(), n, "worker pool lost results");
    out
}
#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1, 2, 8] {
            let out = parallel_map_jobs(items.clone(), jobs, |&x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let out: Vec<u64> = parallel_map_jobs(Vec::<u64>::new(), 8, |&x| x);
        assert!(out.is_empty());
        let out = parallel_map_jobs(vec![41u64], 8, |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn parallel_map_propagates_worker_panics() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map_jobs((0..16).collect::<Vec<u64>>(), 4, |&x| {
                assert!(x != 7, "injected fault");
                x
            })
        });
        assert!(caught.is_err());
    }
}
