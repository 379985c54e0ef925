//! Production-side [`Model`] adapters.
//!
//! Each adapter wraps a real structure from `crates/prefetch` /
//! `crates/cache` (driven through `MockContext` for the engine-level
//! ones) and renders the *same* observable strings as the matching
//! reference model in [`crate::reference`]. The rendering code is where
//! both sides must agree; the semantics under test live entirely in the
//! wrapped production types.

use crate::lockstep::Model;
use crate::ops::{branch_set, BtbBufOp, CodeLayout, DisTableOp, EngineOp, PfBufOp, RluOp, SeqOp};
use dcfb_cache::PrefetchBuffer;
use dcfb_frontend::{BranchSpan, BtbEntry};
use dcfb_prefetch::context::MockContext;
use dcfb_prefetch::{
    BtbPrefetchBuffer, Dis, DisTable, InstrPrefetcher, PrefetchContext, RecentInstrs, Rlu,
    SeqTable, Sn4l, Sn4lDisBtb, Sn4lDisConfig, TagPolicy,
};
use dcfb_trace::{Block, Instr, InstrKind, IsaMode};

/// Production `SeqTable` under the [`SeqOp`] vocabulary.
pub struct ProdSeqTable(pub SeqTable);

impl Model for ProdSeqTable {
    type Op = SeqOp;

    fn apply(&mut self, op: &SeqOp) -> String {
        match op {
            SeqOp::IsUseful(b) => self.0.is_useful(*b).to_string(),
            SeqOp::Set(b) => {
                self.0.set(*b);
                String::new()
            }
            SeqOp::Reset(b) => {
                self.0.reset(*b);
                String::new()
            }
        }
    }

    fn finish(&mut self) -> String {
        // Entry i is reachable through block i (tagless, direct-mapped).
        let disabled: Vec<usize> = (0..self.0.entries())
            .filter(|&i| !self.0.is_useful(i as Block))
            .collect();
        format!("disabled={disabled:?}")
    }
}

/// Production `DisTable` under the [`DisTableOp`] vocabulary.
pub struct ProdDisTable(pub DisTable);

impl Model for ProdDisTable {
    type Op = DisTableOp;

    fn apply(&mut self, op: &DisTableOp) -> String {
        match op {
            DisTableOp::Record(b, off) => {
                self.0.record(*b, *off);
                String::new()
            }
            DisTableOp::Lookup(b) => format!("{:?}", self.0.lookup(*b)),
        }
    }
}

/// Production `Rlu` under the [`RluOp`] vocabulary.
pub struct ProdRlu(pub Rlu);

impl Model for ProdRlu {
    type Op = RluOp;

    fn apply(&mut self, op: &RluOp) -> String {
        match op {
            RluOp::CheckInsert(b) => {
                if self.0.check_insert(*b) {
                    "hit".to_owned()
                } else {
                    "miss".to_owned()
                }
            }
            RluOp::NoteDemand(b) => {
                self.0.note_demand(*b);
                String::new()
            }
        }
    }

    fn finish(&mut self) -> String {
        let (hits, misses) = self.0.counters();
        format!("hits={hits} misses={misses}")
    }
}

/// Production `BtbPrefetchBuffer` under the [`BtbBufOp`] vocabulary,
/// with the arena its branch spans index (every fill appends its
/// branch set, as the simulator's branch store does on first decode).
pub struct ProdBtbBuffer {
    buf: BtbPrefetchBuffer,
    arena: Vec<BtbEntry>,
}

impl ProdBtbBuffer {
    /// Wraps `buf` with an empty arena.
    pub fn new(buf: BtbPrefetchBuffer) -> Self {
        ProdBtbBuffer {
            buf,
            arena: Vec::new(),
        }
    }
}

impl Model for ProdBtbBuffer {
    type Op = BtbBufOp;

    fn apply(&mut self, op: &BtbBufOp) -> String {
        match op {
            BtbBufOp::Fill { block, n } => {
                let span = BranchSpan::push(&mut self.arena, &branch_set(*block, *n));
                format!("displaced={:?}", self.buf.fill(*block, span))
            }
            BtbBufOp::Take(pc) => match self.buf.take_for(*pc, &self.arena) {
                Some(branches) => format!("took={}", branches.len()),
                None => "took=none".to_owned(),
            },
            BtbBufOp::Contains(pc) => self.buf.contains_branch(*pc, &self.arena).to_string(),
        }
    }

    fn finish(&mut self) -> String {
        let (fills, lookups, hits) = self.buf.counters();
        format!("fills={fills} lookups={lookups} hits={hits}")
    }
}

/// Production `PrefetchBuffer` under the [`PfBufOp`] vocabulary.
pub struct ProdPrefetchBuffer(pub PrefetchBuffer);

impl Model for ProdPrefetchBuffer {
    type Op = PfBufOp;

    fn apply(&mut self, op: &PfBufOp) -> String {
        match op {
            PfBufOp::Insert(b, src) => format!("evicted={:?}", self.0.insert(*b, *src)),
            PfBufOp::Take(b) => format!("{:?}", self.0.take(*b)),
            PfBufOp::Contains(b) => self.0.contains(*b).to_string(),
        }
    }

    fn finish(&mut self) -> String {
        let (lookups, hits, inserted, replaced) = self.0.counters();
        format!(
            "lookups={lookups} hits={hits} inserted={inserted} replaced={replaced} order={:?}",
            self.0.resident_blocks()
        )
    }
}

// ---------------------------------------------------------------------
// Engine-level adapters
// ---------------------------------------------------------------------

/// The `MockContext` drive shared by the engine adapters: applies the
/// [`EngineOp`] resident-set convention and renders the per-op deltas
/// of the context's issue / BTB-fill logs.
struct Drive {
    ctx: MockContext,
    issued_seen: usize,
    fills_seen: usize,
}

impl Drive {
    fn new(layout: &CodeLayout) -> Self {
        let ctx = MockContext {
            code: layout.code.iter().map(|(k, v)| (*k, v.clone())).collect(),
            btb: layout.btb.iter().map(|(k, v)| (*k, *v)).collect(),
            ..MockContext::default()
        };
        Drive {
            ctx,
            issued_seen: 0,
            fills_seen: 0,
        }
    }

    /// Renders the prefetches issued since the last call as
    /// `issued=[block+delay:Source,...]`.
    fn issued_delta(&mut self) -> String {
        let items: Vec<String> = self.ctx.issued[self.issued_seen..]
            .iter()
            .zip(&self.ctx.issued_sources[self.issued_seen..])
            .map(|(&(block, delay), src)| format!("{block}+{delay}:{src:?}"))
            .collect();
        self.issued_seen = self.ctx.issued.len();
        format!("issued=[{}]", items.join(","))
    }

    /// Renders the BTB-buffer fills since the last call as a bare
    /// comma-separated block list.
    fn fills_delta(&mut self) -> String {
        let items: Vec<String> = self.ctx.btb_buffer_fills[self.fills_seen..]
            .iter()
            .map(|(block, _)| block.to_string())
            .collect();
        self.fills_seen = self.ctx.btb_buffer_fills.len();
        items.join(",")
    }
}

/// The [`InstrPrefetcher`] hooks behind a trait object, with the
/// context as `&mut dyn PrefetchContext`.
///
/// `InstrPrefetcher`'s hooks are generic over the context, so the
/// trait itself is not object-safe; this thin adapter — implemented for
/// every prefetcher — is what lets the lockstep harness drive any of
/// them as `&mut dyn DynPrefetcher` without touching the reference
/// models.
pub trait DynPrefetcher {
    /// [`InstrPrefetcher::on_demand`].
    fn on_demand(
        &mut self,
        ctx: &mut dyn PrefetchContext,
        block: Block,
        hit: bool,
        hit_was_prefetched: bool,
        recent: &RecentInstrs,
    );
    /// [`InstrPrefetcher::on_fill`].
    fn on_fill(&mut self, ctx: &mut dyn PrefetchContext, block: Block, was_prefetch: bool);
    /// [`InstrPrefetcher::on_evict`].
    fn on_evict(&mut self, ctx: &mut dyn PrefetchContext, block: Block, useless_prefetch: bool);
    /// [`InstrPrefetcher::tick`].
    fn tick(&mut self, ctx: &mut dyn PrefetchContext);
}

impl<P: InstrPrefetcher> DynPrefetcher for P {
    fn on_demand(
        &mut self,
        ctx: &mut dyn PrefetchContext,
        block: Block,
        hit: bool,
        hit_was_prefetched: bool,
        recent: &RecentInstrs,
    ) {
        InstrPrefetcher::on_demand(self, ctx, block, hit, hit_was_prefetched, recent);
    }

    fn on_fill(&mut self, ctx: &mut dyn PrefetchContext, block: Block, was_prefetch: bool) {
        InstrPrefetcher::on_fill(self, ctx, block, was_prefetch);
    }

    fn on_evict(&mut self, ctx: &mut dyn PrefetchContext, block: Block, useless_prefetch: bool) {
        InstrPrefetcher::on_evict(self, ctx, block, useless_prefetch);
    }

    fn tick(&mut self, ctx: &mut dyn PrefetchContext) {
        InstrPrefetcher::tick(self, ctx);
    }
}

/// Applies `op` to a production prefetcher through `ctx`: first
/// the [`EngineOp`] resident-set convention, then the matching
/// `InstrPrefetcher` hook. Public so invariant checks can drive
/// production prefetchers over fuzzed op streams directly.
pub fn apply_engine_op(p: &mut dyn DynPrefetcher, ctx: &mut MockContext, op: &EngineOp) {
    match op {
        EngineOp::Demand { block, hit, .. } => {
            if *hit {
                ctx.resident.insert(*block);
            } else {
                ctx.resident.remove(block);
            }
        }
        EngineOp::Fill { block, .. } => {
            ctx.resident.insert(*block);
        }
        EngineOp::Evict { block, .. } => {
            ctx.resident.remove(block);
        }
        EngineOp::Tick => {}
    }
    match op {
        EngineOp::Demand {
            block,
            hit,
            hit_was_prefetched,
            branch,
        } => {
            let mut recent = RecentInstrs::default();
            if let Some(b) = branch {
                recent.push(Instr::branch(b.pc, 4, InstrKind::Jump, b.target));
            }
            p.on_demand(ctx, *block, *hit, *hit_was_prefetched, &recent);
        }
        EngineOp::Fill {
            block,
            was_prefetch,
        } => p.on_fill(ctx, *block, *was_prefetch),
        EngineOp::Evict { block, useless } => p.on_evict(ctx, *block, *useless),
        EngineOp::Tick => p.tick(ctx),
    }
}

/// Applies `op` to any production prefetcher through `drive`.
fn step(p: &mut dyn DynPrefetcher, drive: &mut Drive, op: &EngineOp) {
    apply_engine_op(p, &mut drive.ctx, op);
}

/// Production `Sn4l` under the [`EngineOp`] vocabulary.
pub struct ProdSn4l {
    inner: Sn4l,
    drive: Drive,
}

impl ProdSn4l {
    /// Wraps SN4L over an `entries`-slot SeqTable.
    pub fn new(entries: usize) -> Self {
        ProdSn4l {
            inner: Sn4l::with_table(SeqTable::new(entries)),
            drive: Drive::new(&CodeLayout::default()),
        }
    }
}

impl Model for ProdSn4l {
    type Op = EngineOp;

    fn apply(&mut self, op: &EngineOp) -> String {
        step(&mut self.inner, &mut self.drive, op);
        match op {
            EngineOp::Evict { .. } => String::new(),
            _ => self.drive.issued_delta(),
        }
    }

    fn finish(&mut self) -> String {
        let (issued, suppressed) = self.inner.counters();
        let disabled: Vec<usize> = (0..self.inner.table().entries())
            .filter(|&i| !self.inner.table().is_useful(i as Block))
            .collect();
        format!("issued={issued} suppressed={suppressed} disabled={disabled:?}")
    }
}

/// Production standalone `Dis` under the [`EngineOp`] vocabulary.
pub struct ProdDis {
    inner: Dis,
    drive: Drive,
}

impl ProdDis {
    /// Wraps Dis over an `entries`-slot, 4-bit partially-tagged
    /// DisTable and the agreed program layout.
    pub fn new(entries: usize, layout: &CodeLayout) -> Self {
        ProdDis {
            inner: Dis::with_table(DisTable::new(entries, TagPolicy::Partial(4), 4)),
            drive: Drive::new(layout),
        }
    }
}

impl Model for ProdDis {
    type Op = EngineOp;

    fn apply(&mut self, op: &EngineOp) -> String {
        step(&mut self.inner, &mut self.drive, op);
        match op {
            EngineOp::Evict { .. } => String::new(),
            _ => self.drive.issued_delta(),
        }
    }

    fn finish(&mut self) -> String {
        let (issued, records, decode_mismatches, unresolved_indirects) = self.inner.counters();
        format!(
            "issued={issued} records={records} decode_mismatches={decode_mismatches} \
             unresolved_indirects={unresolved_indirects}"
        )
    }
}

/// Production `Sn4lDisBtb` under the [`EngineOp`] vocabulary.
pub struct ProdProactive {
    inner: Sn4lDisBtb,
    drive: Drive,
}

impl ProdProactive {
    /// Wraps the combined engine with `cfg` and the agreed layout.
    pub fn new(cfg: Sn4lDisConfig, layout: &CodeLayout) -> Self {
        ProdProactive {
            inner: Sn4lDisBtb::new(cfg, IsaMode::Fixed4),
            drive: Drive::new(layout),
        }
    }
}

impl Model for ProdProactive {
    type Op = EngineOp;

    fn apply(&mut self, op: &EngineOp) -> String {
        step(&mut self.inner, &mut self.drive, op);
        match op {
            EngineOp::Evict { .. } => String::new(),
            _ => {
                let issued = self.drive.issued_delta();
                let fills = self.drive.fills_delta();
                let (s, d, r) = self.inner.queue_lens();
                format!("{issued} fills=[{fills}] q=({s},{d},{r})")
            }
        }
    }

    fn finish(&mut self) -> String {
        let stats = self.inner.stats();
        let (rlu_hits, rlu_misses) = self.inner.rlu_counters();
        let (_, records, decode_mismatches, unresolved_indirects) = self.inner.dis_counters();
        format!(
            "seq_issued={} dis_issued={} rlu_filtered={} queue_drops={} depth_terminations={} predecoded={} rlu=(hits={} misses={}) dis=(records={} decode_mismatches={} unresolved_indirects={})",
            stats.seq_issued,
            stats.dis_issued,
            stats.rlu_filtered,
            stats.queue_drops,
            stats.depth_terminations,
            stats.predecoded,
            rlu_hits,
            rlu_misses,
            records,
            decode_mismatches,
            unresolved_indirects,
        )
    }
}
