//! The conventional discontinuity prefetcher (Spracklen et al. [17]).
//!
//! The baseline design the paper improves upon: a tagless, direct-mapped
//! table that maps a trigger block to the *full address* of the
//! discontinuous successor block observed after it. Compared to Dis it
//! (1) stores whole addresses (tens of KB), (2) suffers useless
//! prefetches from tagless aliasing, and (3) has no lookahead beyond
//! one discontinuity (§I, shortcomings list).

use crate::context::{InstrPrefetcher, PrefetchContext, RecentInstrs};
use dcfb_telemetry::PfSource;
use dcfb_trace::Block;

#[derive(Clone, Copy, Debug)]
struct Entry {
    valid: bool,
    successor: Block,
}

/// The conventional discontinuity prefetcher.
#[derive(Clone, Debug)]
pub struct DiscontinuityPrefetcher {
    table: Vec<Entry>,
    last_block: Option<Block>,
    issued: u64,
    records: u64,
}

impl DiscontinuityPrefetcher {
    /// Creates a prefetcher with `entries` table slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        DiscontinuityPrefetcher {
            table: vec![
                Entry {
                    valid: false,
                    successor: 0
                };
                entries
            ],
            last_block: None,
            issued: 0,
            records: 0,
        }
    }

    /// A representative configuration: 4 K entries of full block
    /// addresses.
    pub fn paper_baseline() -> Self {
        DiscontinuityPrefetcher::new(4 * 1024)
    }

    fn index(&self, block: Block) -> usize {
        (block as usize) & (self.table.len() - 1)
    }

    /// `(issued, recorded)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.issued, self.records)
    }
}

impl InstrPrefetcher for DiscontinuityPrefetcher {
    fn name(&self) -> String {
        "Discontinuity".to_owned()
    }

    fn storage_bits(&self) -> u64 {
        // Full block address per entry (~34 bits for a 40-bit space).
        self.table.len() as u64 * 34
    }

    fn on_demand<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        hit: bool,
        _hit_was_prefetched: bool,
        recent: &RecentInstrs,
    ) {
        // Record: a miss on a block that is NOT sequential after the
        // previous one (the next-line prefetcher would capture that).
        if let Some(prev) = self.last_block {
            let sequential = block == prev || block == prev + 1;
            if !hit && !sequential {
                // Attribute to a branch if one is visible (fidelity to
                // [17]: any non-sequential miss is recorded).
                let _ = recent;
                let i = self.index(prev);
                self.table[i] = Entry {
                    valid: true,
                    successor: block,
                };
                self.records += 1;
            }
        }
        if self.last_block != Some(block) {
            self.last_block = Some(block);
        }
        // Replay: prefetch the recorded successor of this block.
        let i = self.index(block);
        let e = self.table[i];
        if e.valid && e.successor != block {
            if !ctx.l1i_lookup(e.successor) {
                ctx.issue_prefetch(e.successor, PfSource::Discontinuity, 0);
                self.issued += 1;
            }
            // Cover the successor's sequential neighbour too (the
            // standard pairing with an NL prefetcher).
            let seq = e.successor + 1;
            if !ctx.l1i_lookup(seq) {
                ctx.issue_prefetch(seq, PfSource::Discontinuity, 0);
                self.issued += 1;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::context::MockContext;

    fn demand(p: &mut DiscontinuityPrefetcher, ctx: &mut MockContext, block: Block, hit: bool) {
        p.on_demand(ctx, block, hit, false, &RecentInstrs::default());
    }

    #[test]
    fn records_discontinuity_and_replays() {
        let mut p = DiscontinuityPrefetcher::new(64);
        let mut ctx = MockContext::default();
        demand(&mut p, &mut ctx, 10, true);
        demand(&mut p, &mut ctx, 50, false); // discontinuity 10 -> 50
        assert_eq!(p.counters().1, 1);
        ctx.issued.clear();
        ctx.resident.clear();
        demand(&mut p, &mut ctx, 10, true); // replay
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert_eq!(blocks, vec![50, 51]);
    }

    #[test]
    fn sequential_misses_not_recorded() {
        let mut p = DiscontinuityPrefetcher::new(64);
        let mut ctx = MockContext::default();
        demand(&mut p, &mut ctx, 10, true);
        demand(&mut p, &mut ctx, 11, false); // sequential miss
        assert_eq!(p.counters().1, 0);
    }

    #[test]
    fn hits_not_recorded() {
        let mut p = DiscontinuityPrefetcher::new(64);
        let mut ctx = MockContext::default();
        demand(&mut p, &mut ctx, 10, true);
        demand(&mut p, &mut ctx, 50, true); // discontinuity but a hit
        assert_eq!(p.counters().1, 0);
    }

    #[test]
    fn tagless_aliasing_mispredicts() {
        let mut p = DiscontinuityPrefetcher::new(16);
        let mut ctx = MockContext::default();
        demand(&mut p, &mut ctx, 3, true);
        demand(&mut p, &mut ctx, 50, false); // 3 -> 50 recorded
        ctx.issued.clear();
        ctx.resident.clear();
        // Block 3+16 aliases to the same entry: useless prefetch of 50.
        demand(&mut p, &mut ctx, 3 + 16, true);
        assert!(ctx.issued.iter().any(|&(b, _)| b == 50));
    }

    #[test]
    fn storage_is_tens_of_kb() {
        let p = DiscontinuityPrefetcher::paper_baseline();
        let kb = p.storage_bits() / 8 / 1024;
        assert!(kb >= 16, "conventional table should be ≥16 KB, got {kb}");
    }
}
