//! The metrics document's scalar counters: [`Ctr`], their ordered name
//! table, and [`RunCounts`], the machine statistics they are read
//! from. The recorder keeps no copy of these counts; the simulator
//! hands them over once, when the run is finalized.

/// Why the fetch engine stalled (the Table I attribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum StallKind {
    /// Waiting on an instruction block below the L1i.
    L1i = 0,
    /// A taken branch missed the BTB: decode-detect bubble.
    Btb,
    /// A squash: misprediction or discovery-engine resteer.
    Redirect,
}

impl StallKind {
    /// Number of stall kinds.
    pub const COUNT: usize = 3;

    /// Display name used in trace events.
    pub fn name(self) -> &'static str {
        match self {
            StallKind::L1i => "l1i_stall",
            StallKind::Btb => "btb_stall",
            StallKind::Redirect => "redirect_stall",
        }
    }
}

/// Every scalar counter of the metrics document, in schema order.
///
/// Adding a variant requires extending [`Ctr::ALL`], [`Ctr::name`] and
/// [`RunCounts::dump`]; the metrics schema emits counters by name so
/// old documents stay parseable when new counters appear.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Ctr {
    /// L1i demand lookups.
    DemandAccesses = 0,
    /// L1i demand hits (including prefetched lines).
    DemandHits,
    /// L1i demand misses (after prefetch-buffer salvage).
    DemandMisses,
    /// Demand misses served from the prefetch buffer.
    BufferHits,
    /// Misses on the block sequentially following the previous miss.
    SeqMisses,
    /// Misses at a discontinuity.
    DiscMisses,
    /// Misses with no prefetch in flight at all.
    UncoveredMisses,
    /// Prefetches that allocated an MSHR.
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

/// The measured window's machine statistics behind every counter but
/// [`Ctr::TraceEventsDropped`] (which the recorder keeps itself).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// L1i demand lookups.
    pub demand_accesses: u64,
    /// L1i demand hits, before prefetch-buffer absorptions are
    /// re-credited as hits.
    pub demand_hits: u64,
    /// L1i demand misses the prefetch buffer did not absorb.
    pub demand_misses: u64,
    /// Demand misses served from the prefetch buffer.
    pub buffer_hits: u64,
    /// Sequential misses.
    pub seq_misses: u64,
    /// Discontinuity misses.
    pub disc_misses: u64,
    /// Misses with no prefetch in flight.
    pub uncovered_misses: u64,
    /// Prefetches that allocated an MSHR.
    pub pf_issued: u64,
    /// Prefetches dropped for lack of MSHR capacity.
    pub pf_dropped: u64,
    /// Demand misses that merged onto an in-flight prefetch.
    pub pf_late: u64,
    /// Stall events, indexed by [`StallKind`].
    pub stall_events: [u64; StallKind::COUNT],
    /// Stalled cycles, indexed by [`StallKind`].
    pub stall_cycles: [u64; StallKind::COUNT],
    /// Cycles the directed fetcher starved on an empty FTQ.
    pub stall_empty_ftq_cycles: u64,
}

impl RunCounts {
    /// `(name, value)` pairs for every [`Ctr`], in index order.
    pub fn dump(&self, trace_events_dropped: u64) -> Vec<(String, u64)> {
        let (ev, cy) = (&self.stall_events, &self.stall_cycles);
        let (l1i, btb, redirect) = (
            StallKind::L1i as usize,
            StallKind::Btb as usize,
            StallKind::Redirect as usize,
        );
        Ctr::ALL
            .iter()
            .map(|&c| {
                let v = match c {
                    Ctr::DemandAccesses => self.demand_accesses,
                    Ctr::DemandHits => self.demand_hits,
                    Ctr::DemandMisses => self.demand_misses,
                    Ctr::BufferHits => self.buffer_hits,
                    Ctr::SeqMisses => self.seq_misses,
                    Ctr::DiscMisses => self.disc_misses,
                    Ctr::UncoveredMisses => self.uncovered_misses,
                    Ctr::PfIssued => self.pf_issued,
                    Ctr::PfDropped => self.pf_dropped,
                    Ctr::PfLate => self.pf_late,
                    Ctr::StallL1iEvents => ev[l1i],
                    Ctr::StallL1iCycles => cy[l1i],
                    Ctr::StallBtbEvents => ev[btb],
                    Ctr::StallBtbCycles => cy[btb],
                    Ctr::StallRedirectEvents => ev[redirect],
                    Ctr::StallRedirectCycles => cy[redirect],
                    Ctr::StallEmptyFtqCycles => self.stall_empty_ftq_cycles,
                    Ctr::TraceEventsDropped => trace_events_dropped,
                };
                (c.name().to_owned(), v)
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

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
        let counts = RunCounts {
            demand_accesses: 7,
            stall_cycles: [1, 2, 3],
            stall_empty_ftq_cycles: 4,
            ..RunCounts::default()
        };
        let d = counts.dump(5);
        assert_eq!(d.len(), Ctr::COUNT);
        assert_eq!(d[0], ("demand_accesses".to_owned(), 7));
        assert_eq!(d[Ctr::StallL1iCycles as usize].1, 1);
        assert_eq!(d[Ctr::StallBtbCycles as usize].1, 2);
        assert_eq!(d[Ctr::StallRedirectCycles as usize].1, 3);
        assert_eq!(d[Ctr::StallEmptyFtqCycles as usize].1, 4);
        assert_eq!(d[Ctr::TraceEventsDropped as usize].1, 5);
        for (i, (name, _)) in d.iter().enumerate() {
            assert_eq!(name, Ctr::ALL[i].name());
        }
    }

    #[test]
    fn stall_kind_names_are_distinct() {
        let names = [
            StallKind::L1i.name(),
            StallKind::Btb.name(),
            StallKind::Redirect.name(),
        ];
        let mut dedup = names.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), StallKind::COUNT);
        assert_eq!(StallKind::Redirect as usize, StallKind::COUNT - 1);
    }
}
