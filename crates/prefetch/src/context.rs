//! The prefetcher ↔ machine interface.
//!
//! Prefetchers never touch the cache, BTB, or memory hierarchy
//! directly; they act through the context each [`InstrPrefetcher`]
//! hook is handed. The context is a generic parameter of the hooks, so
//! the simulator's machine and the scriptable [`MockContext`] each get
//! their own monomorphic copy of every prefetcher (a `dyn
//! PrefetchContext` still works where a caller wants one). This keeps
//! every prefetcher a pure state machine over events — easy to
//! unit-test against [`MockContext`].

use dcfb_frontend::BtbEntry;
use dcfb_telemetry::PfSource;
use dcfb_trace::{Addr, Block, Instr};

/// The machine surface a prefetcher may use.
///
/// The simulator's implementation serves every pre-decode —
/// [`PrefetchContext::prefill_btb_buffer`] and
/// [`PrefetchContext::decode_branch_at`] — from its per-run branch
/// store (`dcfb_frontend::BranchStore`): a block is decoded once, and
/// repeat decodes cost one vector index with no hashing, allocation,
/// or reference-count traffic. These calls sit on the proactive
/// engine's per-RLU-miss path, so implementations must keep them that
/// cheap.
pub trait PrefetchContext {
    /// Current simulation cycle.
    fn cycle(&self) -> u64;

    /// Probes the L1i (and MSHRs) for `block`. Counts one cache lookup
    /// — the quantity Fig. 14 reports. Returns `true` if the block is
    /// resident or already in flight.
    fn l1i_lookup(&mut self, block: Block) -> bool;

    /// Issues a prefetch for `block` into the memory hierarchy.
    /// `source` identifies the issuing component for telemetry
    /// attribution; `extra_delay` models a longer issue path (the Dis
    /// prefetcher's DisTable-lookup + pre-decode pipeline, §VII-D).
    fn issue_prefetch(&mut self, block: Block, source: PfSource, extra_delay: u64);

    /// Pre-decodes `block` and deposits the branches found into the
    /// BTB prefetch buffer (§V-C: the "+BTB" step of every RLU miss).
    /// On a variable-length ISA only the branches named by the
    /// block's DV-LLC branch footprint are found. A block with no
    /// (findable) branches leaves the buffer untouched.
    fn prefill_btb_buffer(&mut self, block: Block);

    /// Pre-decodes only the instruction at `byte_offset` of `block`
    /// (the Dis replay path). Returns `None` if it is not a branch.
    fn decode_branch_at(&mut self, block: Block, byte_offset: u32) -> Option<BtbEntry>;

    /// Consults the core BTB for the target of the branch at `pc`
    /// (used when the target is not in the instruction encoding).
    /// Does not disturb BTB statistics.
    fn btb_target(&mut self, pc: Addr) -> Option<Addr>;
}

/// The last two demanded instructions, which the Dis prefetcher decodes
/// on every cache miss (the paper keeps two because of the SPARC branch
/// delay slot, §V-B).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecentInstrs {
    /// The most recently demanded instruction.
    pub last: Option<Instr>,
    /// The instruction before it.
    pub prev: Option<Instr>,
}

impl RecentInstrs {
    /// Shifts in a newly demanded instruction.
    pub fn push(&mut self, i: Instr) {
        self.prev = self.last;
        self.last = Some(i);
    }

    /// The most recent *branch* among the tracked instructions.
    pub fn last_branch(&self) -> Option<Instr> {
        [self.last, self.prev]
            .into_iter()
            .flatten()
            .find(|i| i.kind.is_branch())
    }
}

/// An L1i-event-driven instruction prefetcher.
///
/// All hooks default to no-ops so each prefetcher implements only what
/// it observes. The hooks are generic over the context, so the trait is
/// not object-safe: the registry's prefetchers are dispatched through
/// the [`Prefetcher`](crate::Prefetcher) enum instead.
pub trait InstrPrefetcher {
    /// Display name (used by the experiment harness).
    fn name(&self) -> String;

    /// Total metadata storage in bits (Table II accounting).
    fn storage_bits(&self) -> u64;

    /// A demand access to `block` resolved as `hit`;
    /// `hit_was_prefetched` is set when the hit line still carried its
    /// prefetch flag. `recent` holds the last two demanded instructions.
    fn on_demand<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        hit: bool,
        hit_was_prefetched: bool,
        recent: &RecentInstrs,
    ) {
        let _ = (ctx, block, hit, hit_was_prefetched, recent);
    }

    /// `block` arrived in the L1i (`was_prefetch` distinguishes
    /// prefetch fills from demand fills).
    fn on_fill<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        was_prefetch: bool,
    ) {
        let _ = (ctx, block, was_prefetch);
    }

    /// `block` left the L1i; `useless_prefetch` is set when it was
    /// prefetched and never demanded.
    fn on_evict<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        useless_prefetch: bool,
    ) {
        let _ = (ctx, block, useless_prefetch);
    }

    /// Called once per cycle so queue-driven engines can pump their
    /// internal pipelines.
    fn tick<C: PrefetchContext + ?Sized>(&mut self, ctx: &mut C) {
        let _ = ctx;
    }

    /// `(lookups, hits)` of the prefetcher's record-lookup unit, if it
    /// has one. Telemetry samples this each window to build the RLU
    /// hit-rate series; prefetchers without an RLU keep the default
    /// `None`.
    fn rlu_counters(&self) -> Option<(u64, u64)> {
        None
    }
}

/// The machine surface a *BTB-directed* engine (Boomerang, Shotgun)
/// uses to run ahead of fetch: branch prediction, RAS, cache probes,
/// prefetch issue, and pre-decoding for reactive BTB fills.
///
/// [`RunaheadContext::predecode`] borrows the block's branches straight
/// out of the simulator's per-run branch store (the same store behind
/// [`PrefetchContext`]): the engine reads them in place and copies only
/// what it inserts into its own BTB.
pub trait RunaheadContext {
    /// Current simulation cycle.
    fn cycle(&self) -> u64;

    /// Predicts the direction of the conditional branch at `pc` (TAGE).
    fn predict_cond(&mut self, pc: Addr) -> bool;

    /// Pushes a predicted return address (speculative RAS).
    fn ras_push(&mut self, ret: Addr);

    /// Pops the predicted return target.
    fn ras_pop(&mut self) -> Option<Addr>;

    /// Probes the L1i/MSHRs for `block` (counts a cache lookup).
    fn l1i_lookup(&mut self, block: Block) -> bool;

    /// Issues a prefetch for `block`, tagged with its `source`.
    fn issue_prefetch(&mut self, block: Block, source: PfSource, extra_delay: u64);

    /// Whether `block`'s contents are available for pre-decoding
    /// (resident in the L1i — in-flight blocks are not yet decodable).
    fn block_present(&self, block: Block) -> bool;

    /// Pre-decodes `block`, returning its branches in address order.
    /// The slice borrows the context until the caller is done with it.
    fn predecode(&mut self, block: Block) -> &[BtbEntry];

    /// L1i fills so far (never reset). Only a fill makes a block
    /// present, so an engine waiting for blocks may skip re-checking
    /// them while this count stands still.
    fn l1i_fills(&self) -> u64;
}

/// A scriptable context for unit tests.
#[derive(Default)]
pub struct MockContext {
    /// Current cycle returned by [`PrefetchContext::cycle`].
    pub now: u64,
    /// Blocks that count as resident/in-flight.
    pub resident: std::collections::HashSet<Block>,
    /// Prefetches issued: `(block, extra_delay)` in order.
    pub issued: Vec<(Block, u64)>,
    /// Source tags of the issued prefetches, in the same order.
    pub issued_sources: Vec<PfSource>,
    /// Lookups performed, in order.
    pub lookups: Vec<Block>,
    /// Pre-decode results by block.
    pub code: std::collections::HashMap<Block, Vec<BtbEntry>>,
    /// BTB contents for `btb_target`.
    pub btb: std::collections::HashMap<Addr, Addr>,
    /// Blocks pre-decoded into the BTB prefetch buffer, with the
    /// branches found.
    pub btb_buffer_fills: Vec<(Block, Vec<BtbEntry>)>,
    /// Direction returned by `predict_cond` for pcs in this set
    /// (everything else predicts not-taken).
    pub taken_pcs: std::collections::HashSet<Addr>,
    /// Speculative RAS used by `ras_push` / `ras_pop`.
    pub ras: Vec<Addr>,
    /// The count [`RunaheadContext::l1i_fills`] returns. Every issued
    /// prefetch bumps it (the block becomes resident at once); a test
    /// that inserts into `resident` by hand bumps it to model a fill.
    pub fills: u64,
}

impl RunaheadContext for MockContext {
    fn cycle(&self) -> u64 {
        self.now
    }

    fn predict_cond(&mut self, pc: Addr) -> bool {
        self.taken_pcs.contains(&pc)
    }

    fn ras_push(&mut self, ret: Addr) {
        self.ras.push(ret);
    }

    fn ras_pop(&mut self) -> Option<Addr> {
        self.ras.pop()
    }

    fn l1i_lookup(&mut self, block: Block) -> bool {
        self.lookups.push(block);
        self.resident.contains(&block)
    }

    fn issue_prefetch(&mut self, block: Block, source: PfSource, extra_delay: u64) {
        PrefetchContext::issue_prefetch(self, block, source, extra_delay);
    }

    fn block_present(&self, block: Block) -> bool {
        self.resident.contains(&block)
    }

    fn predecode(&mut self, block: Block) -> &[BtbEntry] {
        self.code.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    fn l1i_fills(&self) -> u64 {
        self.fills
    }
}

impl PrefetchContext for MockContext {
    fn cycle(&self) -> u64 {
        self.now
    }

    fn l1i_lookup(&mut self, block: Block) -> bool {
        self.lookups.push(block);
        self.resident.contains(&block)
    }

    fn issue_prefetch(&mut self, block: Block, source: PfSource, extra_delay: u64) {
        self.issued.push((block, extra_delay));
        self.issued_sources.push(source);
        self.resident.insert(block); // arrives eventually; tests treat as in-flight
        self.fills += 1;
    }

    /// Records every prefill, including those of blocks without
    /// branches, so lockstep checks see each pre-decode request.
    fn prefill_btb_buffer(&mut self, block: Block) {
        let branches = self.code.get(&block).cloned().unwrap_or_default();
        self.btb_buffer_fills.push((block, branches));
    }

    fn decode_branch_at(&mut self, block: Block, byte_offset: u32) -> Option<BtbEntry> {
        self.code
            .get(&block)?
            .iter()
            .find(|e| dcfb_trace::block_offset(e.pc) == byte_offset)
            .copied()
    }

    fn btb_target(&mut self, pc: Addr) -> Option<Addr> {
        self.btb.get(&pc).copied()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use dcfb_trace::InstrKind;

    #[test]
    fn recent_instrs_shift() {
        let mut r = RecentInstrs::default();
        assert!(r.last_branch().is_none());
        r.push(Instr::other(0x100, 4));
        r.push(Instr::branch(0x104, 4, InstrKind::Jump, 0x200));
        assert_eq!(r.last.unwrap().pc, 0x104);
        assert_eq!(r.prev.unwrap().pc, 0x100);
        assert_eq!(r.last_branch().unwrap().pc, 0x104);
        // Delay-slot shape: branch then a non-branch in the slot.
        r.push(Instr::other(0x200, 4));
        assert_eq!(r.last_branch().unwrap().pc, 0x104);
    }

    #[test]
    fn mock_context_records_activity() {
        let mut m = MockContext::default();
        m.resident.insert(5);
        let ctx: &mut dyn PrefetchContext = &mut m;
        assert!(ctx.l1i_lookup(5));
        assert!(!ctx.l1i_lookup(6));
        ctx.issue_prefetch(6, PfSource::NextLine, 0);
        assert_eq!(m.issued, vec![(6, 0)]);
        assert_eq!(m.issued_sources, vec![PfSource::NextLine]);
        assert_eq!(m.lookups, vec![5, 6]);
    }

    #[test]
    fn mock_runahead_surface_works() {
        let mut m = MockContext::default();
        m.taken_pcs.insert(0x40);
        let ctx: &mut dyn RunaheadContext = &mut m;
        assert!(ctx.predict_cond(0x40));
        assert!(!ctx.predict_cond(0x44));
        ctx.ras_push(0x100);
        assert_eq!(ctx.ras_pop(), Some(0x100));
        assert_eq!(ctx.ras_pop(), None);
        assert!(!ctx.block_present(3));
        ctx.issue_prefetch(3, PfSource::Shotgun, 0);
        assert!(ctx.block_present(3));
    }
}
