//! Next-line / next-X-line sequential prefetchers (the §IV baselines).

use crate::context::{InstrPrefetcher, PrefetchContext, RecentInstrs};
use dcfb_telemetry::PfSource;
use dcfb_trace::Block;

/// An NXL prefetcher: on every demand access to a block, prefetch the
/// next `depth` sequential blocks that are not already present.
///
/// `NextLine::new(1)` is the classic NL prefetcher of commercial
/// processors [8]; depths 2/4/8 are the N2L/N4L/N8L points of Fig. 4
/// and Fig. 5.
#[derive(Clone, Debug)]
pub struct NextLine {
    depth: u32,
    issued: u64,
}

impl NextLine {
    /// Creates an NXL prefetcher with the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: u32) -> Self {
        assert!(depth > 0, "prefetch depth must be non-zero");
        NextLine { depth, issued: 0 }
    }

    /// The configured depth.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Prefetches issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }
}

impl InstrPrefetcher for NextLine {
    fn name(&self) -> String {
        match self.depth {
            1 => "NL".to_owned(),
            d => format!("N{d}L"),
        }
    }

    fn storage_bits(&self) -> u64 {
        0 // stateless
    }

    fn on_demand<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        _hit: bool,
        _hit_was_prefetched: bool,
        _recent: &RecentInstrs,
    ) {
        for d in 1..=u64::from(self.depth) {
            let cand = block + d;
            if !ctx.l1i_lookup(cand) {
                ctx.issue_prefetch(cand, PfSource::NextLine, 0);
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

    #[test]
    fn nl_prefetches_single_successor() {
        let mut p = NextLine::new(1);
        let mut ctx = MockContext::default();
        p.on_demand(&mut ctx, 10, true, false, &RecentInstrs::default());
        assert_eq!(ctx.issued, vec![(11, 0)]);
        assert_eq!(p.issued(), 1);
    }

    #[test]
    fn n4l_prefetches_four() {
        let mut p = NextLine::new(4);
        let mut ctx = MockContext::default();
        p.on_demand(&mut ctx, 100, false, false, &RecentInstrs::default());
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert_eq!(blocks, vec![101, 102, 103, 104]);
    }

    #[test]
    fn resident_blocks_are_skipped() {
        let mut p = NextLine::new(4);
        let mut ctx = MockContext::default();
        ctx.resident.insert(101);
        ctx.resident.insert(103);
        p.on_demand(&mut ctx, 100, true, false, &RecentInstrs::default());
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert_eq!(blocks, vec![102, 104]);
        // All four candidates consumed a cache lookup.
        assert_eq!(ctx.lookups, vec![101, 102, 103, 104]);
    }

    #[test]
    fn names_follow_convention() {
        assert_eq!(NextLine::new(1).name(), "NL");
        assert_eq!(NextLine::new(8).name(), "N8L");
        assert_eq!(NextLine::new(1).storage_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_depth_panics() {
        let _ = NextLine::new(0);
    }
}
