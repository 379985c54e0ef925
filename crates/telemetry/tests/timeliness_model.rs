//! The slot-table timeliness tracker against a hash-map reference
//! model: random event sequences over blocks with and without a dense
//! slot must give the same per-source counts, and every finalized
//! source must keep `accurate + late + early_evicted + useless ==
//! issued`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_telemetry::{PfSource, SlotKey, TimelinessCounts, TimelinessTracker};
use fxhash::FxHashMap;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The tracker as a plain map per lifecycle stage, keyed by block.
struct Reference {
    in_flight: FxHashMap<u64, PfSource>,
    resident: FxHashMap<u64, PfSource>,
    evicted: FxHashMap<u64, PfSource>,
    evicted_fifo: VecDeque<u64>,
    evicted_cap: usize,
    counts: [TimelinessCounts; PfSource::COUNT],
}

impl Reference {
    fn new(evicted_cap: usize) -> Reference {
        Reference {
            in_flight: FxHashMap::default(),
            resident: FxHashMap::default(),
            evicted: FxHashMap::default(),
            evicted_fifo: VecDeque::new(),
            evicted_cap,
            counts: [TimelinessCounts::default(); PfSource::COUNT],
        }
    }

    fn useless(&mut self, old: Option<PfSource>) {
        if let Some(s) = old {
            self.counts[s.index()].useless += 1;
        }
    }

    fn issue(&mut self, b: u64, source: PfSource) {
        self.counts[source.index()].issued += 1;
        let old = self.in_flight.insert(b, source);
        self.useless(old);
    }

    fn late(&mut self, b: u64) {
        if let Some(s) = self.in_flight.remove(&b) {
            self.counts[s.index()].late += 1;
        }
    }

    fn fill(&mut self, b: u64) {
        if let Some(s) = self.in_flight.remove(&b) {
            let old = self.resident.insert(b, s);
            self.useless(old);
        }
    }

    fn hit(&mut self, b: u64) {
        if let Some(s) = self.resident.remove(&b) {
            self.counts[s.index()].accurate += 1;
        }
    }

    fn evict_unused(&mut self, b: u64) {
        let Some(s) = self.resident.remove(&b) else {
            return;
        };
        match self.evicted.insert(b, s) {
            Some(old) => self.useless(Some(old)),
            None => self.evicted_fifo.push_back(b),
        }
        while self.evicted_fifo.len() > self.evicted_cap {
            let aged = self.evicted_fifo.pop_front().unwrap();
            let old = self.evicted.remove(&aged);
            self.useless(old);
        }
    }

    fn demand_miss(&mut self, b: u64) {
        if let Some(s) = self.evicted.remove(&b) {
            self.counts[s.index()].early_evicted += 1;
        }
    }

    fn finalize(&mut self) {
        let live: Vec<PfSource> = self
            .in_flight
            .drain()
            .chain(self.resident.drain())
            .chain(self.evicted.drain())
            .map(|(_, s)| s)
            .collect();
        for s in live {
            self.useless(Some(s));
        }
        self.evicted_fifo.clear();
    }

    fn reset(&mut self) {
        *self = Reference::new(self.evicted_cap);
    }
}

/// Blocks below this hold a dense slot (block 3 at slot 3); the rest
/// go through the fallback map.
const SLOTTED: u64 = 24;

fn key(block: u64) -> SlotKey {
    SlotKey::new(block, (block < SLOTTED).then_some(block as usize))
}

fn source(i: usize) -> PfSource {
    PfSource::ALL[1 + i % (PfSource::COUNT - 1)]
}

fn assert_same_counts(tracker: &TimelinessTracker, model: &Reference, finalized: bool) {
    for s in PfSource::ALL {
        let got = tracker.counts(s);
        assert_eq!(got, model.counts[s.index()], "{s:?}");
        if finalized {
            assert_eq!(got.classified(), got.issued, "{s:?}: {got:?}");
        }
    }
}

proptest! {
    #[test]
    fn matches_hash_map_model(
        ops in proptest::collection::vec((0u8..16, 0u64..48, 0usize..9), 1..600),
        cap in 1usize..12,
    ) {
        let mut tracker = TimelinessTracker::new(cap);
        let mut model = Reference::new(cap);
        for (op, block, src) in ops {
            let k = key(block);
            match op {
                0..=3 => {
                    tracker.issue(k, source(src));
                    model.issue(block, source(src));
                }
                4 => {
                    tracker.late(k);
                    model.late(block);
                }
                5..=7 => {
                    tracker.fill(k);
                    model.fill(block);
                }
                8 | 9 => {
                    tracker.hit(k);
                    model.hit(block);
                }
                10..=12 => {
                    tracker.evict_unused(k);
                    model.evict_unused(block);
                }
                13 | 14 => {
                    tracker.demand_miss(k);
                    model.demand_miss(block);
                }
                _ => {
                    tracker.reset();
                    model.reset();
                }
            }
            assert_same_counts(&tracker, &model, false);
        }
        tracker.finalize();
        model.finalize();
        assert_same_counts(&tracker, &model, true);
    }

    /// `issue_resident` (the BTB prefetch buffer's immediate fill)
    /// counts exactly like `issue` followed by `fill`.
    #[test]
    fn issue_resident_is_issue_then_fill(
        ops in proptest::collection::vec((0u8..8, 0u64..48), 1..400),
        cap in 1usize..12,
    ) {
        let mut tracker = TimelinessTracker::new(cap);
        let mut model = Reference::new(cap);
        for (op, block) in ops {
            let k = key(block);
            match op {
                0..=2 => {
                    tracker.issue_resident(k, PfSource::BtbPf);
                    model.issue(block, PfSource::BtbPf);
                    model.fill(block);
                }
                3 => {
                    tracker.hit(k);
                    model.hit(block);
                }
                4 | 5 => {
                    tracker.evict_unused(k);
                    model.evict_unused(block);
                }
                6 => {
                    tracker.demand_miss(k);
                    model.demand_miss(block);
                }
                _ => {
                    tracker.reset();
                    model.reset();
                }
            }
        }
        tracker.finalize();
        model.finalize();
        assert_same_counts(&tracker, &model, true);
    }
}
