//! SN4L: the selective next-four-line prefetcher (§V-A).
//!
//! SN4L is an N4L prefetcher whose candidates are gated by a 1-bit
//! usefulness predictor (the [`SeqTable`](crate::tables::SeqTable)):
//! only subsequent blocks that were useful the last time they were
//! prefetched are requested. The state machine follows §V-A exactly:
//!
//! * all SeqTable entries start at 1 (prefetch everything once),
//! * a demand hit on a still-flagged prefetched block *sets* the entry,
//! * evicting a never-demanded prefetched block *resets* the entry,
//! * a demand miss *sets* the entry (the block is clearly wanted).

use crate::context::{InstrPrefetcher, PrefetchContext, RecentInstrs};
use crate::tables::SeqTable;
use dcfb_telemetry::PfSource;
use dcfb_trace::Block;

/// The selective next-four-line sequential prefetcher.
#[derive(Clone, Debug)]
pub struct Sn4l {
    table: SeqTable,
    depth: u32,
    issued: u64,
    suppressed: u64,
}

impl Sn4l {
    /// Creates SN4L with the paper's 16 K-entry SeqTable.
    pub fn paper_sized() -> Self {
        Sn4l::with_table(SeqTable::paper_sized())
    }

    /// Creates SN4L over a custom SeqTable (Fig. 11's size sweep).
    pub fn with_table(table: SeqTable) -> Self {
        Sn4l {
            table,
            depth: 4,
            issued: 0,
            suppressed: 0,
        }
    }

    /// `(issued, suppressed)` prefetch counters; `suppressed` counts
    /// candidates the SeqTable predicted useless.
    pub fn counters(&self) -> (u64, u64) {
        (self.issued, self.suppressed)
    }

    /// Read access to the SeqTable (used by the combined engine and by
    /// analysis binaries).
    pub fn table(&self) -> &SeqTable {
        &self.table
    }
}

impl InstrPrefetcher for Sn4l {
    fn name(&self) -> String {
        "SN4L".to_owned()
    }

    fn storage_bits(&self) -> u64 {
        // SeqTable + per-line metadata: 4-bit local status + 1-bit
        // prefetch flag for each of the 512 L1i lines.
        self.table.storage_bits() + 512 * 5
    }

    fn on_demand<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        hit: bool,
        hit_was_prefetched: bool,
        _recent: &RecentInstrs,
    ) {
        // Metadata updates (§V-A "Updating the metadata").
        if !hit {
            self.table.set(block);
        } else if hit_was_prefetched {
            self.table.set(block);
        }
        // Prefetching: check the 4 subsequent blocks' status bits.
        for d in 1..=u64::from(self.depth) {
            let cand = block + d;
            if !self.table.is_useful(cand) {
                self.suppressed += 1;
                continue;
            }
            if !ctx.l1i_lookup(cand) {
                ctx.issue_prefetch(cand, PfSource::Sn4l, 0);
                self.issued += 1;
            }
        }
    }

    fn on_evict<C: PrefetchContext + ?Sized>(
        &mut self,
        _ctx: &mut C,
        block: Block,
        useless_prefetch: bool,
    ) {
        if useless_prefetch {
            self.table.reset(block);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::context::MockContext;

    fn small() -> Sn4l {
        Sn4l::with_table(SeqTable::new(1 << 16))
    }

    fn demand(p: &mut Sn4l, ctx: &mut MockContext, block: Block, hit: bool) {
        p.on_demand(ctx, block, hit, false, &RecentInstrs::default());
    }

    #[test]
    fn first_touch_prefetches_all_four() {
        let mut p = small();
        let mut ctx = MockContext::default();
        demand(&mut p, &mut ctx, 100, false);
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert_eq!(blocks, vec![101, 102, 103, 104]);
    }

    #[test]
    fn useless_prefetch_is_suppressed_next_time() {
        let mut p = small();
        let mut ctx = MockContext::default();
        demand(&mut p, &mut ctx, 100, false); // prefetches 101..=104
                                              // Block 102 evicted without ever being demanded.
        p.on_evict(&mut ctx, 102, true);
        ctx.issued.clear();
        ctx.resident.clear();
        demand(&mut p, &mut ctx, 100, true);
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert_eq!(blocks, vec![101, 103, 104]);
        assert_eq!(p.counters().1, 1);
    }

    #[test]
    fn useful_prefetch_stays_enabled() {
        let mut p = small();
        let mut ctx = MockContext::default();
        demand(&mut p, &mut ctx, 100, false);
        // 101 demanded while still flagged: useful.
        demand(&mut p, &mut ctx, 101, true);
        // Later evicted after use: eviction hook sees useless=false.
        p.on_evict(&mut ctx, 101, false);
        ctx.issued.clear();
        ctx.resident.clear();
        demand(&mut p, &mut ctx, 100, true);
        assert!(ctx.issued.iter().any(|&(b, _)| b == 101));
    }

    #[test]
    fn demand_miss_reenables_block() {
        let mut p = small();
        let mut ctx = MockContext::default();
        demand(&mut p, &mut ctx, 100, false);
        p.on_evict(&mut ctx, 101, true); // now disabled
        ctx.resident.clear();
        // The processor misses on 101 directly: entry set again.
        demand(&mut p, &mut ctx, 101, false);
        ctx.issued.clear();
        ctx.resident.clear();
        demand(&mut p, &mut ctx, 100, true);
        assert!(ctx.issued.iter().any(|&(b, _)| b == 101));
    }

    #[test]
    fn prefetched_hit_marks_useful() {
        let mut p = small();
        let mut ctx = MockContext::default();
        p.on_evict(&mut ctx, 200, true); // disabled
        assert!(!p.table().is_useful(200));
        p.on_demand(&mut ctx, 200, true, true, &RecentInstrs::default());
        assert!(p.table().is_useful(200));
    }

    #[test]
    fn resident_candidates_not_reissued() {
        let mut p = small();
        let mut ctx = MockContext::default();
        ctx.resident.insert(101);
        demand(&mut p, &mut ctx, 100, false);
        assert!(!ctx.issued.iter().any(|&(b, _)| b == 101));
    }

    #[test]
    fn storage_is_about_2kb() {
        let p = Sn4l::paper_sized();
        let bits = p.storage_bits();
        // 16 Kbit SeqTable + 2.5 Kbit line metadata.
        assert_eq!(bits, 16 * 1024 + 512 * 5);
        assert!(bits / 8 < 3 * 1024);
    }

    #[test]
    fn name_is_sn4l() {
        assert_eq!(small().name(), "SN4L");
    }
}
