//! Miss-status holding registers (MSHRs).
//!
//! Tracks outstanding block fetches between a cache and the lower
//! hierarchy. Secondary misses merge into the existing entry; a demand
//! merging into a prefetch-initiated entry *promotes* it (the paper's
//! CMAL metric measures exactly these partially-covered misses).

use dcfb_telemetry::PfSource;
use dcfb_trace::Block;

/// Result of [`MshrFile::allocate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the request must be sent below.
    Allocated,
    /// The block was already outstanding; this request merged.
    Merged {
        /// Cycle at which the outstanding fetch completes.
        ready_at: u64,
        /// Whether the original requester was a prefetch.
        was_prefetch: bool,
    },
    /// No free entry; the requester must stall/retry.
    Full,
}

/// A fixed-capacity MSHR file.
///
/// Laid out struct-of-arrays: every lookup on the hot path scans only
/// the dense `blocks` array (one cache line covers eight entries), and
/// the companion fields are touched just on the matching index.
#[derive(Clone, Debug)]
pub struct MshrFile {
    blocks: Vec<Block>,
    issued_at: Vec<u64>,
    ready_at: Vec<u64>,
    source: Vec<PfSource>,
    demand_waiting: Vec<bool>,
    /// Minimum of `ready_at` over the outstanding entries (`u64::MAX`
    /// when empty): a drain before this cycle has nothing to pop and
    /// returns without scanning.
    earliest_ready: u64,
    capacity: usize,
    peak: usize,
}

/// A completed fetch popped from the MSHR file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The block whose fetch completed.
    pub block: Block,
    /// Cycle the request was issued.
    pub issued_at: u64,
    /// Cycle it completed.
    pub ready_at: u64,
    /// Whether the *originating* request was a prefetch.
    pub is_prefetch: bool,
    /// Who issued the originating request.
    pub source: PfSource,
    /// Whether a demand access is waiting on this block.
    pub demand_waiting: bool,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        MshrFile {
            blocks: Vec::with_capacity(capacity),
            issued_at: Vec::with_capacity(capacity),
            ready_at: Vec::with_capacity(capacity),
            source: Vec::with_capacity(capacity),
            demand_waiting: Vec::with_capacity(capacity),
            earliest_ready: u64::MAX,
            capacity,
            peak: 0,
        }
    }

    fn find(&self, block: Block) -> Option<usize> {
        self.blocks.iter().position(|&b| b == block)
    }

    /// Attempts to allocate (or merge into) an entry for `block`
    /// completing at `ready_at`. The requester identifies itself with
    /// a [`PfSource`] tag ([`PfSource::Demand`] for demand fetches)
    /// so completions and telemetry can attribute the fetch.
    pub fn allocate(
        &mut self,
        block: Block,
        now: u64,
        ready_at: u64,
        source: PfSource,
    ) -> MshrOutcome {
        let is_prefetch = source.is_prefetch();
        if let Some(i) = self.find(block) {
            if !is_prefetch {
                self.demand_waiting[i] = true;
            }
            return MshrOutcome::Merged {
                ready_at: self.ready_at[i],
                was_prefetch: self.source[i].is_prefetch(),
            };
        }
        if self.blocks.len() == self.capacity {
            return MshrOutcome::Full;
        }
        self.blocks.push(block);
        self.issued_at.push(now);
        self.ready_at.push(ready_at);
        self.source.push(source);
        self.demand_waiting.push(!is_prefetch);
        self.earliest_ready = self.earliest_ready.min(ready_at);
        self.peak = self.peak.max(self.blocks.len());
        MshrOutcome::Allocated
    }

    /// Returns `true` if `block` is outstanding.
    pub fn contains(&self, block: Block) -> bool {
        self.find(block).is_some()
    }

    /// The completion cycle of an outstanding `block`, if any.
    pub fn ready_at(&self, block: Block) -> Option<u64> {
        self.find(block).map(|i| self.ready_at[i])
    }

    /// Whether the outstanding entry for `block` originated as a
    /// prefetch.
    pub fn is_prefetch(&self, block: Block) -> Option<bool> {
        self.find(block).map(|i| self.source[i].is_prefetch())
    }

    /// Removes and returns every entry whose fetch has completed by
    /// `now`, in completion order.
    pub fn drain_ready(&mut self, now: u64) -> Vec<Completion> {
        let mut done: Vec<Completion> = Vec::new();
        self.drain_ready_into(now, &mut done);
        done
    }

    /// Allocation-free variant of [`MshrFile::drain_ready`]: appends
    /// completions to `done` (cleared first) so the per-cycle fill loop
    /// can reuse one scratch vector.
    pub fn drain_ready_into(&mut self, now: u64, done: &mut Vec<Completion>) {
        done.clear();
        if now < self.earliest_ready {
            return;
        }
        // In-place compaction across the parallel arrays, preserving
        // insertion order (so the stable sort below tie-breaks equal
        // `ready_at` by allocation order, as `Vec::retain` did).
        let mut w = 0;
        let mut earliest = u64::MAX;
        for r in 0..self.blocks.len() {
            if self.ready_at[r] <= now {
                done.push(Completion {
                    block: self.blocks[r],
                    issued_at: self.issued_at[r],
                    ready_at: self.ready_at[r],
                    is_prefetch: self.source[r].is_prefetch(),
                    source: self.source[r],
                    demand_waiting: self.demand_waiting[r],
                });
            } else {
                if w != r {
                    self.blocks[w] = self.blocks[r];
                    self.issued_at[w] = self.issued_at[r];
                    self.ready_at[w] = self.ready_at[r];
                    self.source[w] = self.source[r];
                    self.demand_waiting[w] = self.demand_waiting[r];
                }
                earliest = earliest.min(self.ready_at[r]);
                w += 1;
            }
        }
        self.blocks.truncate(w);
        self.issued_at.truncate(w);
        self.ready_at.truncate(w);
        self.source.truncate(w);
        self.demand_waiting.truncate(w);
        self.earliest_ready = earliest;
        done.sort_by_key(|c| c.ready_at);
    }

    /// The earliest completion cycle among outstanding entries
    /// (`u64::MAX` when none are outstanding): a drain before this
    /// cycle completes nothing.
    #[inline]
    pub fn earliest_ready(&self) -> u64 {
        self.earliest_ready
    }

    /// Number of outstanding entries.
    pub fn occupancy(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the file is at capacity.
    pub fn is_full(&self) -> bool {
        self.blocks.len() == self.capacity
    }

    /// High-water mark of occupancy since creation.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    const D: PfSource = PfSource::Demand;
    const P: PfSource = PfSource::NextLine;

    #[test]
    fn allocate_then_drain() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.allocate(10, 0, 20, D), MshrOutcome::Allocated);
        assert!(m.contains(10));
        assert_eq!(m.ready_at(10), Some(20));
        assert!(m.drain_ready(19).is_empty());
        let done = m.drain_ready(20);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].block, 10);
        assert!(done[0].demand_waiting);
        assert!(!m.contains(10));
    }

    #[test]
    fn secondary_miss_merges() {
        let mut m = MshrFile::new(2);
        m.allocate(5, 0, 30, P);
        match m.allocate(5, 3, 99, D) {
            MshrOutcome::Merged {
                ready_at,
                was_prefetch,
            } => {
                assert_eq!(ready_at, 30);
                assert!(was_prefetch);
            }
            other => panic!("expected merge, got {other:?}"),
        }
        // Demand merge marks demand_waiting on a prefetch entry.
        let done = m.drain_ready(30);
        assert_eq!(done.len(), 1);
        assert!(done[0].is_prefetch);
        assert!(done[0].demand_waiting);
    }

    #[test]
    fn full_file_rejects() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 0, 10, D);
        m.allocate(2, 0, 10, D);
        assert_eq!(m.allocate(3, 0, 10, D), MshrOutcome::Full);
        assert!(m.is_full());
        m.drain_ready(10);
        assert_eq!(m.allocate(3, 11, 20, D), MshrOutcome::Allocated);
    }

    #[test]
    fn drain_orders_by_completion() {
        let mut m = MshrFile::new(4);
        m.allocate(1, 0, 30, D);
        m.allocate(2, 0, 10, D);
        m.allocate(3, 0, 20, D);
        let done = m.drain_ready(100);
        let blocks: Vec<_> = done.iter().map(|c| c.block).collect();
        assert_eq!(blocks, vec![2, 3, 1]);
    }

    #[test]
    fn prefetch_only_entry_has_no_demand_waiting() {
        let mut m = MshrFile::new(2);
        m.allocate(9, 0, 5, P);
        let done = m.drain_ready(5);
        assert!(done[0].is_prefetch);
        assert!(!done[0].demand_waiting);
    }

    #[test]
    fn peak_occupancy_tracks_high_water() {
        let mut m = MshrFile::new(8);
        m.allocate(1, 0, 10, D);
        m.allocate(2, 0, 10, D);
        m.allocate(3, 0, 10, D);
        m.drain_ready(10);
        m.allocate(4, 11, 20, D);
        assert_eq!(m.peak_occupancy(), 3);
        assert_eq!(m.occupancy(), 1);
    }

    /// Reference model: a plain entry list, drained by a full scan
    /// plus a stable sort on every call.
    struct NaiveMshr {
        entries: Vec<Completion>,
        capacity: usize,
    }

    impl NaiveMshr {
        fn allocate(
            &mut self,
            block: Block,
            now: u64,
            ready_at: u64,
            source: PfSource,
        ) -> MshrOutcome {
            let is_prefetch = source.is_prefetch();
            if let Some(e) = self.entries.iter_mut().find(|e| e.block == block) {
                e.demand_waiting |= !is_prefetch;
                return MshrOutcome::Merged {
                    ready_at: e.ready_at,
                    was_prefetch: e.is_prefetch,
                };
            }
            if self.entries.len() == self.capacity {
                return MshrOutcome::Full;
            }
            self.entries.push(Completion {
                block,
                issued_at: now,
                ready_at,
                is_prefetch,
                source,
                demand_waiting: !is_prefetch,
            });
            MshrOutcome::Allocated
        }

        fn drain(&mut self, now: u64) -> Vec<Completion> {
            let (mut done, rest): (Vec<_>, Vec<_>) =
                self.entries.iter().partition(|e| e.ready_at <= now);
            self.entries = rest;
            done.sort_by_key(|c| c.ready_at);
            done
        }
    }

    #[test]
    fn matches_naive_reference_on_random_sequences() {
        let mut state = 0x5eed_u64;
        // splitmix64: a fixed, dependency-free operation stream.
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for capacity in [1, 4, 10] {
            let mut fast = MshrFile::new(capacity);
            let mut naive = NaiveMshr {
                entries: Vec::new(),
                capacity,
            };
            let mut scratch = Vec::new();
            let mut now = 0u64;
            let mut drained = 0usize;
            for _ in 0..20_000 {
                match next(4) {
                    // Allocate or merge: few blocks, so merges are
                    // common; narrow latencies, so `ready_at` ties are.
                    0 | 1 => {
                        let block = next(16);
                        let ready_at = now + 1 + next(8);
                        let source = if next(2) == 0 { D } else { P };
                        assert_eq!(
                            fast.allocate(block, now, ready_at, source),
                            naive.allocate(block, now, ready_at, source)
                        );
                    }
                    2 => now += next(4),
                    _ => {
                        fast.drain_ready_into(now, &mut scratch);
                        let expect = naive.drain(now);
                        assert_eq!(scratch, expect, "completions at cycle {now}");
                        drained += expect.len();
                    }
                }
                assert_eq!(fast.occupancy(), naive.entries.len());
                assert_eq!(fast.is_full(), naive.entries.len() == capacity);
            }
            assert!(drained > 1_000, "too few completions exercised");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
