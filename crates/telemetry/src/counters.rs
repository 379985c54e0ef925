//! Typed counters backed by a fixed array — no hashing, no
//! allocation, one add is one array write.

/// Every scalar counter the simulator records.
///
/// Adding a variant requires extending [`Ctr::ALL`] and
/// [`Ctr::name`]; the metrics schema emits counters by name so old
/// documents stay parseable when new counters appear.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Ctr {
    /// L1i demand lookups.
    DemandAccesses = 0,
    /// L1i demand hits (including prefetched lines).
    DemandHits,
    /// L1i demand misses (before prefetch-buffer salvage).
    DemandMisses,
    /// Demand misses served from the prefetch buffer.
    BufferHits,
    /// Misses on the block sequentially following the previous miss.
    SeqMisses,
    /// Misses at a discontinuity.
    DiscMisses,
    /// Misses with no prefetch in flight at all.
    UncoveredMisses,
    /// Prefetches that allocated an MSHR (or filled the BTB buffer).
    PfIssued,
    /// Prefetches dropped for lack of MSHR capacity.
    PfDropped,
    /// Demand misses that merged onto an in-flight prefetch.
    PfLate,
    /// Fetch stalls caused by L1i misses.
    StallL1iEvents,
    /// Cycles lost to L1i-miss stalls.
    StallL1iCycles,
    /// Fetch stalls caused by BTB misses.
    StallBtbEvents,
    /// Cycles lost to BTB-miss stalls.
    StallBtbCycles,
    /// Pipeline redirects (mispredictions / misfetches).
    StallRedirectEvents,
    /// Cycles lost to redirect penalties.
    StallRedirectCycles,
    /// Cycles the directed fetcher starved on an empty FTQ.
    StallEmptyFtqCycles,
    /// Trace events discarded after the event buffer filled.
    TraceEventsDropped,
}

impl Ctr {
    /// Number of counters.
    pub const COUNT: usize = 18;

    /// All counters, in index order.
    pub const ALL: [Ctr; Ctr::COUNT] = [
        Ctr::DemandAccesses,
        Ctr::DemandHits,
        Ctr::DemandMisses,
        Ctr::BufferHits,
        Ctr::SeqMisses,
        Ctr::DiscMisses,
        Ctr::UncoveredMisses,
        Ctr::PfIssued,
        Ctr::PfDropped,
        Ctr::PfLate,
        Ctr::StallL1iEvents,
        Ctr::StallL1iCycles,
        Ctr::StallBtbEvents,
        Ctr::StallBtbCycles,
        Ctr::StallRedirectEvents,
        Ctr::StallRedirectCycles,
        Ctr::StallEmptyFtqCycles,
        Ctr::TraceEventsDropped,
    ];

    /// Stable machine-readable name (used in the metrics schema).
    pub fn name(self) -> &'static str {
        match self {
            Ctr::DemandAccesses => "demand_accesses",
            Ctr::DemandHits => "demand_hits",
            Ctr::DemandMisses => "demand_misses",
            Ctr::BufferHits => "buffer_hits",
            Ctr::SeqMisses => "seq_misses",
            Ctr::DiscMisses => "disc_misses",
            Ctr::UncoveredMisses => "uncovered_misses",
            Ctr::PfIssued => "pf_issued",
            Ctr::PfDropped => "pf_dropped",
            Ctr::PfLate => "pf_late",
            Ctr::StallL1iEvents => "stall_l1i_events",
            Ctr::StallL1iCycles => "stall_l1i_cycles",
            Ctr::StallBtbEvents => "stall_btb_events",
            Ctr::StallBtbCycles => "stall_btb_cycles",
            Ctr::StallRedirectEvents => "stall_redirect_events",
            Ctr::StallRedirectCycles => "stall_redirect_cycles",
            Ctr::StallEmptyFtqCycles => "stall_empty_ftq_cycles",
            Ctr::TraceEventsDropped => "trace_events_dropped",
        }
    }
}

/// A fixed array of all counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSet {
    values: [u64; Ctr::COUNT],
}

impl CounterSet {
    /// All-zero counters.
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Adds `delta` to `ctr` (saturating; counters never wrap).
    pub fn add(&mut self, ctr: Ctr, delta: u64) {
        let v = &mut self.values[ctr as usize];
        *v = v.saturating_add(delta);
    }

    /// Current value of `ctr`.
    pub fn get(&self, ctr: Ctr) -> u64 {
        self.values[ctr as usize]
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        self.values = [0; Ctr::COUNT];
    }

    /// `(name, value)` pairs in index order.
    pub fn dump(&self) -> Vec<(String, u64)> {
        Ctr::ALL
            .iter()
            .map(|c| (c.name().to_owned(), self.get(*c)))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn add_get_reset() {
        let mut c = CounterSet::new();
        c.add(Ctr::PfIssued, 3);
        c.add(Ctr::PfIssued, 2);
        c.add(Ctr::BufferHits, u64::MAX);
        c.add(Ctr::BufferHits, 1); // saturates, no wrap
        assert_eq!(c.get(Ctr::PfIssued), 5);
        assert_eq!(c.get(Ctr::BufferHits), u64::MAX);
        assert_eq!(c.get(Ctr::DemandMisses), 0);
        c.reset();
        assert_eq!(c.get(Ctr::PfIssued), 0);
    }

    #[test]
    fn names_are_unique_and_dense() {
        let names: Vec<_> = Ctr::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Ctr::COUNT);
        for (i, c) in Ctr::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn dump_preserves_order() {
        let mut c = CounterSet::new();
        c.add(Ctr::DemandAccesses, 7);
        let d = c.dump();
        assert_eq!(d.len(), Ctr::COUNT);
        assert_eq!(d[0], ("demand_accesses".to_owned(), 7));
    }
}
