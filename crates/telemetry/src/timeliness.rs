//! Prefetch-timeliness classification (FDIP Revisited taxonomy).
//!
//! Every issued prefetch is tracked through a three-stage lifecycle
//! and lands in **exactly one** terminal class, so per source:
//!
//! ```text
//! accurate + late + early_evicted + useless == issued
//! ```
//!
//! State machine (one record per issued prefetch):
//!
//! ```text
//! issue ──► in_flight ──fill──► resident ──hit──────► ACCURATE
//!               │                  │
//!               │ demand merge     │ evicted unused ─► evicted window
//!               ▼                  │                      │
//!             LATE                 │        demand miss ──► EARLY_EVICTED
//!                                  │        aged out ─────► USELESS
//!                                  ▼
//!            (finalize / displacement at any stage) ──────► USELESS
//! ```
//!
//! The evicted window is a bounded FIFO: a block evicted before use
//! that is demanded again "soon" (within the window's lifetime)
//! counts as *early-evicted* — the prefetch was right but the buffer
//! too small or the prefetch too early; blocks that age out of the
//! window were simply *useless*.

use crate::slot_table::{SlotKey, SlotTable};
use crate::source::PfSource;
use std::collections::VecDeque;

/// Terminal-class tallies for one prefetch source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelinessCounts {
    /// Prefetches issued (MSHR allocated / buffer filled).
    pub issued: u64,
    /// Filled before the demand arrived and then used.
    pub accurate: u64,
    /// Demand arrived while the prefetch was still in flight.
    pub late: u64,
    /// Evicted before use, then demanded again shortly after.
    pub early_evicted: u64,
    /// Never helped a demand fetch.
    pub useless: u64,
}

impl TimelinessCounts {
    /// Sum of the four terminal classes; equals `issued` once every
    /// record has been finalized.
    pub fn classified(&self) -> u64 {
        self.accurate + self.late + self.early_evicted + self.useless
    }
}

/// One block's live records in a tracker: the source of its in-flight
/// prefetch, of its resident unused prefetch, and of its entry in the
/// early-evicted window. The three stages are independent, so a block
/// may hold a record in more than one at once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Records {
    in_flight: Option<PfSource>,
    resident: Option<PfSource>,
    evicted: Option<PfSource>,
}

/// Tracks the lifecycle of issued prefetches, keyed by block.
///
/// Blocks are named by [`SlotKey`]: the caller resolves each block's
/// dense slot, and the records live in a [`SlotTable`] indexed by it.
///
/// The caller guarantees one live record per block per tracker (the
/// MSHR merges duplicate requests); should a duplicate slip through,
/// the displaced record is finalized as *useless* so the sum
/// invariant still holds.
#[derive(Clone, Debug)]
pub struct TimelinessTracker {
    records: SlotTable<Records>,
    evicted_fifo: VecDeque<SlotKey>,
    evicted_cap: usize,
    counts: [TimelinessCounts; PfSource::COUNT],
}

impl TimelinessTracker {
    /// A tracker whose early-evicted window holds `evicted_cap`
    /// blocks (clamped to at least 1).
    pub fn new(evicted_cap: usize) -> TimelinessTracker {
        TimelinessTracker {
            records: SlotTable::new(),
            evicted_fifo: VecDeque::new(),
            evicted_cap: evicted_cap.max(1),
            counts: [TimelinessCounts::default(); PfSource::COUNT],
        }
    }

    /// Counts a displaced record, if any, as *useless*.
    #[inline]
    fn displaced(&mut self, old: Option<PfSource>) {
        if let Some(s) = old {
            self.counts[s.index()].useless += 1;
        }
    }

    /// A prefetch for `block` was issued by `source`.
    #[inline]
    pub fn issue(&mut self, block: SlotKey, source: PfSource) {
        self.counts[source.index()].issued += 1;
        let old = self.records.update(block, |r| r.in_flight.replace(source));
        self.displaced(old);
    }

    /// A prefetch for `block` was issued by `source` and completed at
    /// once: [`issue`](Self::issue) then [`fill`](Self::fill), for a
    /// block with no other prefetch in flight.
    #[inline]
    pub fn issue_resident(&mut self, block: SlotKey, source: PfSource) {
        self.counts[source.index()].issued += 1;
        let old = self.records.update(block, |r| r.resident.replace(source));
        self.displaced(old);
    }

    /// A demand request merged onto the in-flight prefetch of `block`.
    #[inline]
    pub fn late(&mut self, block: SlotKey) {
        if let Some(s) = self.records.update(block, |r| r.in_flight.take()) {
            self.counts[s.index()].late += 1;
        }
    }

    /// The prefetch of `block` completed and the line became resident
    /// (L1i or prefetch buffer) without a demand waiting.
    #[inline]
    pub fn fill(&mut self, block: SlotKey) {
        let old = self.records.update(block, |r| {
            let s = r.in_flight.take()?;
            r.resident.replace(s)
        });
        self.displaced(old);
    }

    /// A demand fetch hit the resident prefetched `block`.
    #[inline]
    pub fn hit(&mut self, block: SlotKey) {
        if let Some(s) = self.records.update(block, |r| r.resident.take()) {
            self.counts[s.index()].accurate += 1;
        }
    }

    /// The resident, never-used prefetched `block` was evicted.
    #[inline]
    pub fn evict_unused(&mut self, block: SlotKey) {
        let Some(moved) = self.records.update(block, |r| {
            let s = r.resident.take()?;
            Some(r.evicted.replace(s))
        }) else {
            return;
        };
        match moved {
            // Block already queued; don't double-queue.
            Some(old) => self.displaced(Some(old)),
            None => self.evicted_fifo.push_back(block),
        }
        while self.evicted_fifo.len() > self.evicted_cap {
            if let Some(aged) = self.evicted_fifo.pop_front() {
                let old = self.records.update(aged, |r| r.evicted.take());
                self.displaced(old);
            }
        }
    }

    /// A demand miss on `block`: if it was recently evicted unused,
    /// the prefetch was early-evicted.
    #[inline]
    pub fn demand_miss(&mut self, block: SlotKey) {
        if let Some(s) = self.records.update(block, |r| r.evicted.take()) {
            self.counts[s.index()].early_evicted += 1;
        }
    }

    /// Finalizes every live record as *useless*. After this, the sum
    /// invariant holds exactly.
    pub fn finalize(&mut self) {
        let counts = &mut self.counts;
        self.records.drain(|r| {
            for s in [r.in_flight, r.resident, r.evicted].into_iter().flatten() {
                counts[s.index()].useless += 1;
            }
        });
        self.evicted_fifo.clear();
    }

    /// Tallies for `source`.
    pub fn counts(&self, source: PfSource) -> TimelinessCounts {
        self.counts[source.index()]
    }

    /// Tallies summed over all sources.
    pub fn total(&self) -> TimelinessCounts {
        let mut t = TimelinessCounts::default();
        for c in &self.counts {
            t.issued += c.issued;
            t.accurate += c.accurate;
            t.late += c.late;
            t.early_evicted += c.early_evicted;
            t.useless += c.useless;
        }
        t
    }

    /// Drops all records and tallies (measurement-window reset).
    /// Prefetches in flight across the reset are intentionally
    /// forgotten — they were issued before the window began.
    pub fn reset(&mut self) {
        self.records.clear();
        self.evicted_fifo.clear();
        self.counts = [TimelinessCounts::default(); PfSource::COUNT];
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    /// Even blocks hold a slot; odd ones exercise the fallback map.
    fn k(block: u64) -> SlotKey {
        SlotKey::new(block, block.is_multiple_of(2).then_some(block as usize / 2))
    }

    fn t() -> TimelinessTracker {
        TimelinessTracker::new(16)
    }

    #[test]
    fn accurate_path() {
        let mut tr = t();
        tr.issue(k(1), PfSource::Sn4l);
        tr.fill(k(1));
        tr.hit(k(1));
        tr.finalize();
        let c = tr.counts(PfSource::Sn4l);
        assert_eq!(c.issued, 1);
        assert_eq!(c.accurate, 1);
        assert_eq!(c.classified(), c.issued);
    }

    #[test]
    fn late_path() {
        let mut tr = t();
        tr.issue(k(2), PfSource::Dis);
        tr.late(k(2));
        // A later fill of the same block must not re-enter tracking.
        tr.fill(k(2));
        tr.hit(k(2));
        tr.finalize();
        let c = tr.counts(PfSource::Dis);
        assert_eq!(c.late, 1);
        assert_eq!(c.accurate, 0);
        assert_eq!(c.classified(), c.issued);
    }

    #[test]
    fn early_evicted_vs_useless_aging() {
        let mut tr = TimelinessTracker::new(2);
        for b in 0..4u64 {
            tr.issue(k(b), PfSource::ProactiveChain);
            tr.fill(k(b));
            tr.evict_unused(k(b));
        }
        // Window cap 2: blocks 0 and 1 aged out (useless).
        tr.demand_miss(k(3)); // early-evicted
        tr.demand_miss(k(0)); // already aged out — no effect
        tr.finalize();
        let c = tr.counts(PfSource::ProactiveChain);
        assert_eq!(c.issued, 4);
        assert_eq!(c.early_evicted, 1);
        assert_eq!(c.useless, 3);
        assert_eq!(c.classified(), c.issued);
    }

    #[test]
    fn finalize_flushes_every_stage() {
        let mut tr = t();
        tr.issue(k(1), PfSource::Sn4l); // stays in flight
        tr.issue(k(2), PfSource::Sn4l);
        tr.fill(k(2)); // stays resident
        tr.issue(k(3), PfSource::Sn4l);
        tr.fill(k(3));
        tr.evict_unused(k(3)); // stays in evicted window
        tr.finalize();
        let c = tr.counts(PfSource::Sn4l);
        assert_eq!(c.issued, 3);
        assert_eq!(c.useless, 3);
        assert_eq!(c.classified(), c.issued);
    }

    #[test]
    fn duplicate_issue_and_fill_preserve_invariant() {
        let mut tr = t();
        tr.issue(k(7), PfSource::Shotgun);
        tr.issue(k(7), PfSource::Shotgun); // displaced record → useless
        tr.fill(k(7));
        tr.hit(k(7));
        tr.finalize();
        let c = tr.counts(PfSource::Shotgun);
        assert_eq!(c.issued, 2);
        assert_eq!(c.accurate, 1);
        assert_eq!(c.useless, 1);
        assert_eq!(c.classified(), c.issued);
    }

    #[test]
    fn events_for_untracked_blocks_are_ignored() {
        let mut tr = t();
        tr.late(k(9));
        tr.fill(k(9));
        tr.hit(k(9));
        tr.evict_unused(k(9));
        tr.demand_miss(k(9));
        tr.finalize();
        assert_eq!(tr.total(), TimelinessCounts::default());
    }

    #[test]
    fn totals_aggregate_sources() {
        let mut tr = t();
        tr.issue(k(1), PfSource::Sn4l);
        tr.fill(k(1));
        tr.hit(k(1));
        tr.issue(k(2), PfSource::Dis);
        tr.late(k(2));
        tr.finalize();
        let tot = tr.total();
        assert_eq!(tot.issued, 2);
        assert_eq!(tot.accurate, 1);
        assert_eq!(tot.late, 1);
        assert_eq!(tot.classified(), tot.issued);
    }
}
