//! Dispatching and composing conventional prefetchers.
//!
//! [`Prefetcher`] is the closed set of L1i-event-driven prefetchers the
//! method registry builds, as one enum: the simulator holds one and
//! each hook is a `match` plus a direct (inlinable) call, monomorphic in
//! the context type — no trait object on the per-event path.
//!
//! A [`Composite`] bundles several of them behind one
//! [`InstrPrefetcher`]: every part observes the same demand, fill,
//! evict, and tick stream (in registration order) and issues into the
//! same memory hierarchy, so a registry row like `N2L+Dis` is purely a
//! configuration — no engine changes needed.

use crate::context::{InstrPrefetcher, PrefetchContext, RecentInstrs};
use crate::{Confluence, Dis, DiscontinuityPrefetcher, NextLine, Sn4l, Sn4lDisBtb};
use dcfb_trace::Block;

/// One of the registry's conventional (decoupled-frontend)
/// prefetchers.
#[allow(clippy::large_enum_variant)] // held once per simulator, never in bulk
pub enum Prefetcher {
    /// NL / N2L / N4L / N8L.
    NextLine(NextLine),
    /// SN4L alone.
    Sn4l(Sn4l),
    /// The standalone Dis prefetcher.
    Dis(Dis),
    /// The combined proactive engine (SN4L+Dis, SN4L+Dis+BTB).
    Sn4lDisBtb(Sn4lDisBtb),
    /// The conventional discontinuity prefetcher.
    Discontinuity(DiscontinuityPrefetcher),
    /// SHIFT-style temporal streaming.
    Confluence(Confluence),
    /// A registry composition of the above.
    Composite(Composite),
}

/// Forwards one [`InstrPrefetcher`] call to whichever prefetcher
/// `$pf` holds.
macro_rules! dispatch {
    ($pf:expr, $p:ident => $call:expr) => {
        match $pf {
            Prefetcher::NextLine($p) => $call,
            Prefetcher::Sn4l($p) => $call,
            Prefetcher::Dis($p) => $call,
            Prefetcher::Sn4lDisBtb($p) => $call,
            Prefetcher::Discontinuity($p) => $call,
            Prefetcher::Confluence($p) => $call,
            Prefetcher::Composite($p) => $call,
        }
    };
}

impl InstrPrefetcher for Prefetcher {
    fn name(&self) -> String {
        dispatch!(self, p => InstrPrefetcher::name(p))
    }

    fn storage_bits(&self) -> u64 {
        dispatch!(self, p => InstrPrefetcher::storage_bits(p))
    }

    #[inline]
    fn on_demand<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        hit: bool,
        hit_was_prefetched: bool,
        recent: &RecentInstrs,
    ) {
        dispatch!(self, p => p.on_demand(ctx, block, hit, hit_was_prefetched, recent))
    }

    #[inline]
    fn on_fill<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        was_prefetch: bool,
    ) {
        dispatch!(self, p => p.on_fill(ctx, block, was_prefetch))
    }

    #[inline]
    fn on_evict<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        useless_prefetch: bool,
    ) {
        dispatch!(self, p => p.on_evict(ctx, block, useless_prefetch))
    }

    #[inline]
    fn tick<C: PrefetchContext + ?Sized>(&mut self, ctx: &mut C) {
        dispatch!(self, p => p.tick(ctx))
    }

    fn rlu_counters(&self) -> Option<(u64, u64)> {
        dispatch!(self, p => InstrPrefetcher::rlu_counters(p))
    }
}

/// Several [`Prefetcher`]s driven by one event stream.
///
/// Hooks fan out to the parts in order; storage sums over them; the RLU
/// counters (a proactive-engine diagnostic) come from the first part
/// that reports any.
pub struct Composite {
    label: &'static str,
    parts: Vec<Prefetcher>,
}

impl Composite {
    /// Bundles `parts` under a display `label`.
    pub fn new(label: &'static str, parts: Vec<Prefetcher>) -> Self {
        Composite { label, parts }
    }
}

impl InstrPrefetcher for Composite {
    fn name(&self) -> String {
        self.label.to_owned()
    }

    fn storage_bits(&self) -> u64 {
        self.parts.iter().map(|p| p.storage_bits()).sum()
    }

    fn on_demand<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        hit: bool,
        hit_was_prefetched: bool,
        recent: &RecentInstrs,
    ) {
        for p in &mut self.parts {
            p.on_demand(ctx, block, hit, hit_was_prefetched, recent);
        }
    }

    fn on_fill<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        was_prefetch: bool,
    ) {
        for p in &mut self.parts {
            p.on_fill(ctx, block, was_prefetch);
        }
    }

    fn on_evict<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        useless_prefetch: bool,
    ) {
        for p in &mut self.parts {
            p.on_evict(ctx, block, useless_prefetch);
        }
    }

    fn tick<C: PrefetchContext + ?Sized>(&mut self, ctx: &mut C) {
        for p in &mut self.parts {
            p.tick(ctx);
        }
    }

    fn rlu_counters(&self) -> Option<(u64, u64)> {
        self.parts.iter().find_map(|p| p.rlu_counters())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::context::MockContext;
    use crate::NextLine;

    #[test]
    fn parts_see_every_event_in_order() {
        // N1L and N2L together: demanding block 10 issues 11 (from
        // both, second is deduped by residency) and 12 (from N2L).
        let mut c = Composite::new(
            "NL+N2L",
            vec![
                Prefetcher::NextLine(NextLine::new(1)),
                Prefetcher::NextLine(NextLine::new(2)),
            ],
        );
        let mut ctx = MockContext::default();
        c.on_demand(&mut ctx, 10, false, false, &RecentInstrs::default());
        let blocks: Vec<u64> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert_eq!(blocks, vec![11, 12]);
        assert_eq!(c.name(), "NL+N2L");
        assert_eq!(c.storage_bits(), 0);
        assert!(c.rlu_counters().is_none());
    }

    #[test]
    fn the_enum_forwards_to_its_prefetcher() {
        let mut p = Prefetcher::Sn4lDisBtb(Sn4lDisBtb::paper_sized());
        let mut ctx = MockContext::default();
        p.on_demand(&mut ctx, 100, false, false, &RecentInstrs::default());
        for _ in 0..8 {
            p.tick(&mut ctx);
        }
        let blocks: Vec<u64> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert_eq!(blocks, vec![101, 102, 103, 104]);
        assert_eq!(p.name(), "SN4L+Dis+BTB");
        assert_eq!(p.storage_bits(), Sn4lDisBtb::paper_sized().storage_bits());
        assert!(p.rlu_counters().is_some());
    }
}
