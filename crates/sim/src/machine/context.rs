//! The [`Machine`]'s implementations of the prefetcher-facing context
//! traits: [`PrefetchContext`] for the L1i-event-driven prefetchers and
//! [`RunaheadContext`] for the BTB-directed discovery engines.
//!
//! The prefetchers' hooks take their context as a generic parameter,
//! so each prefetcher is compiled against `Machine` itself and these
//! methods are direct, inlinable calls from the prefetcher's code.

use super::{Machine, SlotKeyOf};
use dcfb_frontend::BtbEntry;
use dcfb_prefetch::{PrefetchContext, RunaheadContext};
use dcfb_telemetry::PfSource;
use dcfb_trace::{block_base, Addr, Block};

impl PrefetchContext for Machine {
    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn l1i_lookup(&mut self, block: Block) -> bool {
        self.l1i.probe(block)
            || self.mshr.contains(block)
            || self.pf_buffer.as_ref().is_some_and(|b| b.contains(block))
    }

    fn issue_prefetch(&mut self, block: Block, source: PfSource, extra_delay: u64) {
        self.request_below(block, source, extra_delay);
    }

    fn prefill_btb_buffer(&mut self, block: Block) {
        let key = self.code.slot_key(block);
        let span = self.predecode_span(block, key.slot());
        if span.is_empty() {
            return; // the buffer ignores empty sets; don't count a fill
        }
        let displaced = self.btb_buffer.fill(block, span);
        if let Some(t) = self.telem.as_deref_mut() {
            t.btbpf_fill(key, displaced.map(|ev| self.code.slot_key(ev)));
        }
    }

    /// Replays are answered from the branch store (the branch whose pc
    /// is `block_base + byte_offset`) on either ISA: Dis replay decodes
    /// at a recorded offset, so it needs no footprint.
    fn decode_branch_at(&mut self, block: Block, byte_offset: u32) -> Option<BtbEntry> {
        let pc = block_base(block) + Addr::from(byte_offset);
        let span = self
            .branches
            .span(&*self.code, block, self.code.block_slot(block));
        self.branches.get(span).iter().find(|e| e.pc == pc).copied()
    }

    fn btb_target(&mut self, pc: Addr) -> Option<Addr> {
        if self.btb.contains(pc) {
            self.btb.lookup(pc).map(|e| e.target)
        } else {
            None
        }
    }
}

impl RunaheadContext for Machine {
    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn predict_cond(&mut self, pc: Addr) -> bool {
        self.tage.predict(pc)
    }

    fn ras_push(&mut self, ret: Addr) {
        self.ras.push(ret);
    }

    fn ras_pop(&mut self) -> Option<Addr> {
        self.ras.pop()
    }

    fn l1i_lookup(&mut self, block: Block) -> bool {
        PrefetchContext::l1i_lookup(self, block)
    }

    fn issue_prefetch(&mut self, block: Block, source: PfSource, extra_delay: u64) {
        PrefetchContext::issue_prefetch(self, block, source, extra_delay);
    }

    fn block_present(&self, block: Block) -> bool {
        self.l1i.contains(block)
    }

    fn predecode(&mut self, block: Block) -> &[BtbEntry] {
        let span = self.predecode_span(block, self.code.block_slot(block));
        self.branches.get(span)
    }

    fn l1i_fills(&self) -> u64 {
        self.l1i.fill_count()
    }
}
