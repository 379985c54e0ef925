//! The memory plane: demand accesses against the L1i and prefetch
//! buffer, MSHR allocation toward the uncore, fill draining, and the
//! miss-classification / CMAL accounting that feeds the report.
//!
//! Per-block side state (the CMAL latency of a resident prefetched
//! line, the telemetry trackers' records) lives in dense slot tables:
//! each event resolves its block's slot once, as a
//! [`SlotKey`](dcfb_telemetry::SlotKey), and every store it touches is
//! indexed by that key.

use super::{Machine, SlotKeyOf};
use dcfb_cache::LineFlags;
use dcfb_cache::MshrOutcome;
use dcfb_prefetch::InstrPrefetcher;
use dcfb_telemetry::{Hist, PfSource};
use dcfb_trace::Block;

/// Outcome of a demand access against the memory plane.
pub enum DemandOutcome {
    /// The block was resident (in the L1i or prefetch buffer).
    Hit {
        /// Whether a prefetch brought the block in.
        was_prefetched: bool,
    },
    /// The block is on its way; fetch stalls until `ready_at`.
    Miss {
        /// Cycle the fill completes.
        ready_at: u64,
        /// Whether an in-flight prefetch already covered part of the
        /// latency (a *late* prefetch).
        had_prefetch: bool,
    },
    /// The MSHRs were full even for a demand: retry next cycle.
    Retry,
}

impl Machine {
    /// Sends a fetch/prefetch below the L1i, allocating an MSHR.
    /// Returns the completion cycle, or `None` if the MSHRs are full.
    pub(crate) fn request_below(
        &mut self,
        block: Block,
        source: PfSource,
        extra: u64,
    ) -> Option<u64> {
        let is_prefetch = source.is_prefetch();
        if self.mshr.is_full() {
            self.stats.dropped_prefetches += u64::from(is_prefetch);
            return None;
        }
        let res = self.uncore.access(self.cycle, block, is_prefetch, true);
        let ready = res.ready_at + extra;
        match self.mshr.allocate(block, self.cycle, ready, source) {
            MshrOutcome::Allocated => {
                if is_prefetch {
                    self.stats.issued_prefetches += 1;
                    if let Some(t) = self.telem.as_deref_mut() {
                        t.pf_issued(self.code.slot_key(block), source);
                    }
                }
                Some(ready)
            }
            MshrOutcome::Merged { ready_at, .. } => Some(ready_at),
            MshrOutcome::Full => None,
        }
    }

    /// Drains completed fetches into the L1i (or prefetch buffer),
    /// firing fill/evict hooks on `pf` (with the machine as its
    /// context, so each prefetcher type gets its own copy of this loop).
    pub(crate) fn drain_fills<P: InstrPrefetcher>(&mut self, mut pf: Option<&mut P>) {
        // Most cycles complete nothing: return before touching the
        // scratch vector.
        if self.cycle < self.mshr.earliest_ready() {
            return;
        }
        let mut done = std::mem::take(&mut self.fill_scratch);
        self.mshr.drain_ready_into(self.cycle, &mut done);
        for &c in &done {
            // An undemanded prefetch lands in the side buffer when one
            // is configured; `buffered` is `Some(displaced)` exactly in
            // that case.
            let buffered = if c.is_prefetch && !c.demand_waiting {
                self.pf_buffer
                    .as_mut()
                    .map(|buf| buf.insert(c.block, c.source))
            } else {
                None
            };
            if let Some(displaced) = buffered {
                if let Some(t) = self.telem.as_deref_mut() {
                    t.pf_fill(self.code.slot_key(c.block), c.ready_at - c.issued_at);
                    if let Some((evicted, _)) = displaced {
                        t.pf_evict_unused(self.code.slot_key(evicted));
                    }
                }
            } else {
                let flags = if c.is_prefetch && !c.demand_waiting {
                    LineFlags::prefetched_instruction()
                } else {
                    LineFlags::demand_instruction()
                };
                if c.is_prefetch {
                    let key = self.code.slot_key(c.block);
                    let latency = c.ready_at - c.issued_at;
                    self.cmal_latency.update(key, |l| *l = Some(latency));
                    if !c.demand_waiting {
                        if let Some(t) = self.telem.as_deref_mut() {
                            t.pf_fill(key, latency);
                        }
                    }
                }
                let evicted = self.l1i.fill(c.block, flags);
                if let Some(ev) = evicted {
                    let key = self.code.slot_key(ev.block);
                    self.cmal_latency.update(key, |l| *l = None);
                    if ev.flags.prefetched && !ev.flags.demanded {
                        if let Some(t) = self.telem.as_deref_mut() {
                            t.pf_evict_unused(key);
                        }
                    }
                    if let Some(p) = pf.as_deref_mut() {
                        p.on_evict(self, ev.block, ev.flags.prefetched && !ev.flags.demanded);
                    }
                }
                // In variable-length mode, deposit the block's branch
                // footprint alongside it in the DV-LLC (§V-D).
                if !self.fixed_boundaries {
                    let bf = self.footprint_of(c.block);
                    if let Some(dv) = self.uncore.dvllc_mut() {
                        dv.insert_bf(c.block, bf);
                    }
                }
            }
            if let Some(p) = pf.as_deref_mut() {
                p.on_fill(self, c.block, c.is_prefetch && !c.demand_waiting);
            }
        }
        self.fill_scratch = done;
    }

    /// Outcome of a demand access.
    pub(crate) fn demand(&mut self, block: Block) -> DemandOutcome {
        if self.perfect_l1i {
            // Every access hits: install the block before looking up.
            if !self.l1i.contains(block) {
                self.l1i.fill(block, LineFlags::demand_instruction());
            }
            self.l1i.demand_access(block);
            return DemandOutcome::Hit {
                was_prefetched: false,
            };
        }
        let key = self.code.slot_key(block);
        if self.l1i.demand_access(block) {
            let was_pref = self.cmal_latency.update(key, Option::take).map(|lat| {
                self.stats.cmal_covered += lat as f64;
                self.stats.cmal_total += lat as f64;
            });
            if was_pref.is_some() {
                if let Some(t) = self.telem.as_deref_mut() {
                    t.pf_hit(key);
                }
            }
            return DemandOutcome::Hit {
                was_prefetched: was_pref.is_some(),
            };
        }
        // Prefetch buffer (when configured) is checked in parallel.
        if let Some(buf) = self.pf_buffer.as_mut() {
            if buf.take(block).is_some() {
                // Move into the cache; a fully covered miss.
                self.l1i.fill(block, LineFlags::demand_instruction());
                // Buffer fills' latency is not tracked per block;
                // count a representative full coverage.
                let lat = 30.0;
                self.stats.cmal_covered += lat;
                self.stats.cmal_total += lat;
                self.stats.buffer_hits += 1;
                if let Some(t) = self.telem.as_deref_mut() {
                    t.pf_hit(key);
                }
                return DemandOutcome::Hit {
                    was_prefetched: true,
                };
            }
        }
        self.classify_miss(block);
        if let Some(t) = self.telem.as_deref_mut() {
            t.pf_demand_miss(key);
        }
        // In flight already?
        if let Some(ready) = self.mshr.ready_at(block) {
            let is_pref = self.mshr.is_prefetch(block).unwrap_or(false);
            // Merge as a demand.
            self.mshr
                .allocate(block, self.cycle, ready, PfSource::Demand);
            if is_pref {
                self.stats.late_prefetches += 1;
                if let Some(t) = self.telem.as_deref_mut() {
                    t.pf_late(key);
                }
            }
            if let Some(t) = self.telem.as_deref_mut() {
                t.observe(Hist::MissLatency, ready.saturating_sub(self.cycle));
            }
            return DemandOutcome::Miss {
                ready_at: ready,
                had_prefetch: is_pref,
            };
        }
        self.stats.uncovered_misses += 1;
        match self.request_below(block, PfSource::Demand, 0) {
            Some(ready) => {
                if let Some(t) = self.telem.as_deref_mut() {
                    t.observe(Hist::MissLatency, ready.saturating_sub(self.cycle));
                }
                DemandOutcome::Miss {
                    ready_at: ready,
                    had_prefetch: false,
                }
            }
            None => {
                // MSHRs full for a demand: retry next cycle.
                DemandOutcome::Retry
            }
        }
    }

    fn classify_miss(&mut self, block: Block) {
        match self.prev_demand_block {
            Some(prev) if block == prev + 1 => self.stats.seq_misses += 1,
            Some(prev) if block == prev => {}
            _ => self.stats.disc_misses += 1,
        }
    }

    /// CMAL accounting for a late (in-flight) prefetch resolved at
    /// `ready`: the fraction of the original latency that prefetching
    /// already covered when the demand arrived.
    pub(crate) fn account_late_prefetch(&mut self, ready: u64) {
        let total_guess = 34.0_f64.max((ready.saturating_sub(self.cycle)) as f64 + 1.0);
        let remaining = ready.saturating_sub(self.cycle) as f64;
        let covered = (total_guess - remaining).max(0.0);
        self.stats.cmal_covered += covered;
        self.stats.cmal_total += total_guess;
    }
}
