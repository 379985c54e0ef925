//! The cycle-approximate frontend timing machine, decomposed into
//! planes:
//!
//! * **memory plane** ([`memory`]) — L1i, MSHRs, prefetch buffer, and
//!   the uncore below them: demand accesses, fills, and the
//!   CMAL/timeliness accounting;
//! * **fetch core** ([`fetch`]) — pre-decode from the per-run branch
//!   store, TAGE bookkeeping, and wrong-path traffic past
//!   mispredictions;
//! * **prefetcher context** ([`context`]) — the [`Machine`]'s
//!   implementations of the `dcfb-prefetch` context traits, through
//!   which every prefetcher and discovery engine observes and acts on
//!   the machine;
//! * **frontend drivers** ([`driver`], [`decoupled`], [`directed`]) —
//!   the per-cycle loop is written once in [`sim`]; everything
//!   method-specific sits behind the [`FrontendDriver`] trait, with the
//!   conventional decoupled frontend and the BTB-directed (FTQ-driven)
//!   frontend as its two implementations. The simulator calls them
//!   through a three-way enum (the two production drivers, plus a boxed
//!   driver for the explicit-driver seam), so the per-instruction hooks
//!   are direct calls.
//!
//! Two driver styles share one [`Machine`]:
//!
//! * the **conventional decoupled frontend** (baseline, NL/NXL, SN4L,
//!   Dis, SN4L+Dis(+BTB), conventional discontinuity, Confluence, and
//!   any registry composition of them): fetch follows the trace; taken
//!   branches need a BTB hit to redirect without a bubble; direction
//!   comes from TAGE and return targets from the RAS; prefetchers
//!   observe L1i events and pump their queues once per cycle;
//! * the **BTB-directed frontend** (Boomerang, Shotgun): the discovery
//!   engine runs ahead of fetch filling the FTQ, fetch consumes FTQ
//!   regions and verifies them against the trace, and FTQ starvation
//!   surfaces as the empty-FTQ stalls of Table I.
//!
//! Timing simplifications (documented in DESIGN.md): the backend is
//! ideal beyond its 3-wide width; L1i hit latency is fully pipelined;
//! stall periods are advanced in bulk with the prefetcher ticked up to
//! 16 times per stall; wrong-path execution is modeled as redirect
//! penalties plus bounded wrong-path block fetches that consume
//! bandwidth without polluting the L1i.

pub mod context;
pub mod decoupled;
pub mod directed;
pub mod driver;
pub mod fetch;
pub mod memory;
pub mod sim;
#[cfg(test)]
mod tests;

pub use driver::{build_driver, Consumed, FrontendDriver, Gate};
pub use memory::DemandOutcome;
pub use sim::Simulator;

use crate::config::{SimConfig, MSHRS, PREFETCH_BUFFER_ENTRIES};
use dcfb_cache::{Completion, MshrFile, PrefetchBuffer, SetAssocCache};
use dcfb_frontend::{BranchStore, Btb, ReturnAddressStack, Tage, TageConfig};
use dcfb_prefetch::{BtbPrefetchBuffer, RecentInstrs};
use dcfb_telemetry::{CycleSample, RunTelemetry, SlotKey, SlotTable, StallKind};
use dcfb_trace::{Block, CodeMemory};
use dcfb_uncore::Uncore;
use std::sync::Arc;

/// Resolves a block's [`SlotKey`] in a code memory: one
/// `block_slot` lookup, done once per event and shared by every
/// per-block store the event touches.
pub(crate) trait SlotKeyOf {
    /// The key of `block`.
    fn slot_key(&self, block: Block) -> SlotKey;
}

impl<M: CodeMemory + ?Sized> SlotKeyOf for M {
    #[inline]
    fn slot_key(&self, block: Block) -> SlotKey {
        SlotKey::new(block, self.block_slot(block))
    }
}

/// Counters accumulated while running (reset after warmup). Together
/// with the L1i, uncore, BTB and TAGE statistics they are the single
/// record of a run: the report and the telemetry document's counters
/// are both read from them.
#[derive(Clone, Debug, Default)]
pub(crate) struct RawStats {
    pub(crate) instrs: u64,
    pub(crate) seq_misses: u64,
    pub(crate) disc_misses: u64,
    pub(crate) stall_l1i: u64,
    pub(crate) stall_btb: u64,
    pub(crate) stall_redirect: u64,
    pub(crate) stall_empty_ftq: u64,
    /// Stall events, indexed by [`StallKind`].
    pub(crate) stall_events: [u64; StallKind::COUNT],
    pub(crate) cmal_covered: f64,
    pub(crate) cmal_total: f64,
    pub(crate) late_prefetches: u64,
    pub(crate) uncovered_misses: u64,
    pub(crate) dropped_prefetches: u64,
    /// Prefetches that allocated an MSHR.
    pub(crate) issued_prefetches: u64,
    /// Demand misses absorbed by the prefetch buffer (re-credited as
    /// hits in the report).
    pub(crate) buffer_hits: u64,
}

/// The machine state shared by both frontend drivers: the memory plane
/// (L1i/MSHR/prefetch-buffer/uncore), the fetch core (BTB/TAGE/RAS/
/// pre-decode), and the run counters. Implements the prefetcher-facing
/// context traits (see [`context`]).
///
/// Drivers manipulate the machine through its plane methods; the struct
/// itself has no public surface beyond what [`FrontendDriver`]
/// implementations inside this module tree need.
pub struct Machine {
    pub(crate) cycle: u64,
    pub(crate) l1i: SetAssocCache,
    pub(crate) pf_buffer: Option<PrefetchBuffer>,
    pub(crate) mshr: MshrFile,
    pub(crate) uncore: Uncore,
    pub(crate) btb: Btb,
    pub(crate) btb_buffer: BtbPrefetchBuffer,
    pub(crate) tage: Tage,
    pub(crate) ras: ReturnAddressStack,
    /// Whether the ISA's instruction boundaries are self-describing
    /// (Fixed4): the pre-decoder then sees every branch of a block,
    /// while a variable-length pre-decoder needs a DV-LLC footprint.
    pub(crate) fixed_boundaries: bool,
    pub(crate) code: Arc<dyn CodeMemory + Send + Sync>,
    pub(crate) workload_name: String,
    pub(crate) recent: RecentInstrs,
    pub(crate) prev_demand_block: Option<Block>,
    /// Latency of completed prefetches still resident in the L1i
    /// (CMAL accounting), by block slot: written on every prefetch
    /// fill, cleared on every eviction and taken on every demand hit.
    pub(crate) cmal_latency: SlotTable<Option<u64>>,
    /// Every block's branches, decoded once per run and indexed by the
    /// code memory's block slot. Serves the BTB prefetch buffer (whose
    /// entries are spans of this store), Dis replay, the reactive BTB
    /// fills of the directed engines, and — as a footprint-sized
    /// prefix — variable-length pre-decode (see [`fetch`]).
    pub(crate) branches: BranchStore,
    /// Reused per-cycle scratch for MSHR completions.
    pub(crate) fill_scratch: Vec<Completion>,
    pub(crate) perfect_l1i: bool,
    pub(crate) stats: RawStats,
    /// The telemetry recorder, present only when
    /// [`SimConfig::telemetry`] is set. Every instrumentation site
    /// guards on this option, so the off-mode cost is one never-taken
    /// branch per site.
    pub(crate) telem: Option<Box<RunTelemetry>>,
}

impl Machine {
    pub(crate) fn new(
        cfg: &SimConfig,
        code: Arc<dyn CodeMemory + Send + Sync>,
        workload_name: String,
    ) -> Self {
        Machine {
            cycle: 0,
            l1i: SetAssocCache::new(cfg.l1i),
            pf_buffer: cfg
                .use_prefetch_buffer
                .then(|| PrefetchBuffer::new(PREFETCH_BUFFER_ENTRIES)),
            mshr: MshrFile::new(MSHRS),
            uncore: Uncore::new(cfg.uncore.clone()),
            btb: Btb::new(cfg.btb),
            btb_buffer: BtbPrefetchBuffer::paper_sized(),
            tage: Tage::new(TageConfig::default()),
            ras: ReturnAddressStack::new(32),
            fixed_boundaries: cfg.isa.self_describing_boundaries(),
            code,
            workload_name,
            recent: RecentInstrs::default(),
            prev_demand_block: None,
            cmal_latency: SlotTable::new(),
            branches: BranchStore::new(),
            fill_scratch: Vec::new(),
            perfect_l1i: cfg.perfect_l1i,
            stats: RawStats::default(),
            telem: cfg.telemetry.then(|| Box::new(RunTelemetry::new())),
        }
    }

    /// The telemetry sample of the current cycle, given the driver's
    /// `(FTQ occupancy, RLU counters)` (see `FrontendDriver::sample`).
    pub(crate) fn cycle_sample(&self, driver: (Option<u64>, Option<(u64, u64)>)) -> CycleSample {
        let (ftq_occ, rlu) = driver;
        let btb = self.btb.stats();
        CycleSample {
            cycle: self.cycle,
            instrs: self.stats.instrs,
            demand_misses: self.l1i.stats().demand_misses,
            pf_issued: self.stats.issued_prefetches,
            btb_lookups: btb.lookups,
            btb_hits: btb.hits,
            rlu_lookups: rlu.map_or(0, |(l, _)| l),
            rlu_hits: rlu.map_or(0, |(_, h)| h),
            ftq_occupancy: ftq_occ,
            mshr_occupancy: self.mshr.occupancy() as u64,
        }
    }
}
