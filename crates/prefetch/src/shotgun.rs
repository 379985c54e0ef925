//! Shotgun: footprint-driven BTB-directed prefetching (ASPLOS'18 [20]).
//!
//! Shotgun extends Boomerang with the split U-BTB/C-BTB/RIB (see
//! [`dcfb_frontend::shotgun_btb`]) and *spatial footprints*: when the
//! runahead engine hits an unconditional branch in the U-BTB, it bulk
//! prefetches the blocks recorded in the entry's call footprint (around
//! the target) and return footprint (around the return point) — no BTB
//! walking needed inside the region. Footprints are learned only from
//! the retired instruction stream, so a U-BTB eviction permanently
//! loses them until re-learned: the §III pathology this reproduction
//! must exhibit on large-footprint workloads.

use crate::context::RunaheadContext;
use dcfb_frontend::shotgun_btb::{footprint_blocks, SpatialFootprint};
use dcfb_frontend::{BranchClass, Ftq, FtqEntry, ShotgunBtb, ShotgunBtbConfig, ShotgunBtbStats};
use dcfb_telemetry::PfSource;
use dcfb_trace::{block_of, Addr, Block, Instr, InstrKind};
use std::collections::VecDeque;

/// Shotgun engine statistics (the split-BTB statistics, including the
/// Fig. 1 footprint miss ratio, live in [`ShotgunBtbStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShotgunStats {
    /// BTB misses (all three structures) that stalled FTQ filling.
    pub btb_miss_stalls: u64,
    /// Reactive pre-decode fills performed.
    pub reactive_fills: u64,
    /// Fetch regions pushed into the FTQ.
    pub regions_pushed: u64,
    /// Demand-path prefetches issued from FTQ scanning.
    pub prefetches: u64,
    /// Bulk prefetches issued from spatial footprints.
    pub footprint_prefetches: u64,
    /// Cursor stalls on unresolvable targets.
    pub unresolved: u64,
    /// Redirects received from the core.
    pub redirects: u64,
    /// Retired dynamic unconditional branches (Fig. 1 denominator).
    pub dyn_uncond: u64,
    /// Of those, how many found a U-BTB entry with a learned footprint
    /// at retire time (Fig. 1: everything else is a footprint miss).
    pub dyn_footprint_hits: u64,
}

impl ShotgunStats {
    /// Fig. 1's metric: the fraction of dynamic unconditional branches
    /// that could not supply a learned spatial footprint.
    pub fn footprint_miss_ratio(&self) -> f64 {
        if self.dyn_uncond == 0 {
            0.0
        } else {
            1.0 - self.dyn_footprint_hits as f64 / self.dyn_uncond as f64
        }
    }
}

/// Instructions a target tracker records after its branch.
const TARGET_WINDOW: u64 = 24;
/// Instructions a return tracker records after its return.
const RETURN_WINDOW: u64 = 16;

/// A spatial footprint being learned from the retired stream: bit `d`
/// records that block `anchor + d` (`d < 8`) retired.
struct Footprint {
    anchor: Block,
    fp: SpatialFootprint,
}

impl Footprint {
    fn new(anchor: Block) -> Self {
        Footprint { anchor, fp: 0 }
    }

    #[inline]
    fn note(&mut self, block: Block) {
        let delta = block.wrapping_sub(self.anchor);
        if delta < 8 {
            self.fp |= 1 << delta;
        }
    }
}

/// Accumulates the blocks touched right after an unconditional branch
/// (anchored at its target) to learn the entry's call footprint. Time
/// bounded, so jumps and indirect branches learn footprints too, not
/// just call/return pairs.
struct TargetTracker {
    bb: Addr,
    footprint: Footprint,
    /// Retire count at which the footprint is learned.
    deadline: u64,
}

/// The call footprint of a call still open on the retired stream.
struct CallTracker {
    call_bb: Addr,
    footprint: Footprint,
}

/// The return footprint of a returned call (anchored at the return
/// point), learned together with the call's footprint.
struct RetTracker {
    call_bb: Addr,
    call_fp: SpatialFootprint,
    footprint: Footprint,
    /// Retire count at which both footprints are learned.
    deadline: u64,
}

/// The Shotgun engine.
pub struct Shotgun {
    btb: ShotgunBtb,
    cursor: Addr,
    stall: Option<Block>,
    /// Blocks scanned past the cursor looking for its terminating
    /// branch (basic blocks may span cache blocks).
    scan_len: u32,
    parked: bool,
    steps_per_cycle: usize,
    bb_start: Option<Addr>,
    /// `next_pc()` of the previous retired instruction.
    expected_pc: Option<Addr>,
    /// Instructions retired so far (the trackers' clock).
    retired: u64,
    /// The block every live tracker has already recorded; `None` after
    /// a tracker was opened, so the next instruction records in all.
    recorded_block: Option<Block>,
    /// Open calls, innermost last; only the innermost records.
    open_calls: VecDeque<CallTracker>,
    /// Return trackers, oldest (first to expire) first.
    finishing: VecDeque<RetTracker>,
    /// Target trackers, oldest (first to expire) first.
    target_trackers: VecDeque<TargetTracker>,
    /// Blocks prefetched by this engine awaiting proactive pre-decode
    /// into the C-BTB once they arrive (§II-B: Shotgun "aggressively
    /// prefill[s] C-BTB by decoding the instruction blocks").
    pending_prefill: Vec<Block>,
    /// The context's L1i fill count when a scan of `pending_prefill`
    /// last finished with nothing left to find; `None` once a block is
    /// queued or a scan stopped at its per-cycle cap. While the count
    /// stands still no pending block can have arrived.
    prefill_clean_at: Option<u64>,
    stats: ShotgunStats,
}

impl Shotgun {
    /// Creates Shotgun with the given split-BTB configuration, starting
    /// discovery at `start_pc`.
    pub fn new(cfg: ShotgunBtbConfig, start_pc: Addr) -> Self {
        Shotgun {
            btb: ShotgunBtb::new(cfg),
            cursor: start_pc,
            stall: None,
            scan_len: 0,
            parked: false,
            steps_per_cycle: 2,
            bb_start: Some(start_pc),
            expected_pc: None,
            retired: 0,
            recorded_block: None,
            open_calls: VecDeque::with_capacity(65),
            finishing: VecDeque::with_capacity(16),
            target_trackers: VecDeque::with_capacity(8),
            pending_prefill: Vec::with_capacity(32),
            prefill_clean_at: None,
            stats: ShotgunStats::default(),
        }
    }

    /// The paper's configuration (1.5 K U-BTB / 128 C-BTB / 512 RIB).
    pub fn paper_sized(start_pc: Addr) -> Self {
        Shotgun::new(ShotgunBtbConfig::default(), start_pc)
    }

    /// Engine statistics.
    pub fn stats(&self) -> ShotgunStats {
        self.stats
    }

    /// Split-BTB statistics (footprint miss ratio etc.).
    pub fn btb_stats(&self) -> ShotgunBtbStats {
        self.btb.stats()
    }

    /// Resets the split-BTB statistics (after warmup).
    pub fn reset_btb_stats(&mut self) {
        self.btb.reset_stats();
        self.stats.dyn_uncond = 0;
        self.stats.dyn_footprint_hits = 0;
    }

    /// Per-core storage overhead: the paper reports 6 KB (extra BTB
    /// segments for lengths/footprints + the 64-entry L1i and 32-entry
    /// BTB prefetch buffers).
    pub fn storage_bits(&self) -> u64 {
        6 * 1024 * 8
    }

    /// Learns BTB entries and spatial footprints from the retired
    /// stream.
    pub fn on_retire(&mut self, instr: &Instr) {
        // A pc the previous instruction does not lead to (a tenant
        // switch in a mix, a spliced trace) ends the open basic block
        // without a branch; learning across it would record a block
        // spanning two unrelated code regions.
        if self.expected_pc.is_some_and(|pc| pc != instr.pc) {
            self.bb_start = Some(instr.pc);
        }
        self.expected_pc = Some(instr.next_pc());
        self.retired += 1;
        let block = instr.block();
        // Footprint accumulation: the innermost open call, the
        // time-bounded target trackers (jumps and indirects included)
        // and the return trackers record the block. Recording is
        // idempotent, so a run of instructions in one block records
        // once, unless a tracker opened within the run.
        if self.recorded_block != Some(block) {
            self.recorded_block = Some(block);
            if let Some(t) = self.open_calls.back_mut() {
                t.footprint.note(block);
            }
            for t in &mut self.target_trackers {
                t.footprint.note(block);
            }
            for r in &mut self.finishing {
                r.footprint.note(block);
            }
        }
        // Trackers expire in the order they opened.
        if let Some(t) = self.target_trackers.front() {
            if t.deadline == self.retired {
                self.btb.learn_footprints(t.bb, t.footprint.fp, 0);
                self.target_trackers.pop_front();
            }
        }
        if let Some(r) = self.finishing.front() {
            if r.deadline == self.retired {
                self.btb
                    .learn_footprints(r.call_bb, r.call_fp, r.footprint.fp);
                self.finishing.pop_front();
            }
        }

        let Some(start) = self.bb_start else {
            self.bb_start = Some(instr.pc);
            return;
        };
        if !instr.kind.is_branch() {
            return;
        }
        if instr.kind.is_unconditional() && !matches!(instr.kind, InstrKind::Return) {
            // Fig. 1 accounting: did the discovery engine have a usable
            // footprint for this U-BTB branch's basic block? (Returns
            // live in the RIB and carry no footprint, so they are not
            // part of the metric.)
            self.stats.dyn_uncond += 1;
            if self.btb.peek_u_footprint(start) == Some(true) {
                self.stats.dyn_footprint_hits += 1;
            }
            if self.target_trackers.len() == 8 {
                if let Some(t) = self.target_trackers.pop_front() {
                    self.btb.learn_footprints(t.bb, t.footprint.fp, 0);
                }
            }
            self.target_trackers.push_back(TargetTracker {
                bb: start,
                footprint: Footprint::new(block_of(instr.target)),
                deadline: self.retired + TARGET_WINDOW,
            });
            self.recorded_block = None;
        }
        match instr.kind {
            InstrKind::CondBranch { .. } => {
                self.btb.insert_c(start, instr.pc, instr.target);
            }
            InstrKind::Jump => {
                self.btb
                    .insert_u(start, instr.pc, instr.target, BranchClass::Jump);
            }
            InstrKind::IndirectJump => {
                self.btb
                    .insert_u(start, instr.pc, instr.target, BranchClass::IndirectJump);
            }
            InstrKind::Call | InstrKind::IndirectCall => {
                let class = if matches!(instr.kind, InstrKind::Call) {
                    BranchClass::Call
                } else {
                    BranchClass::IndirectCall
                };
                self.btb.insert_u(start, instr.pc, instr.target, class);
                self.open_calls.push_back(CallTracker {
                    call_bb: start,
                    footprint: Footprint::new(block_of(instr.target)),
                });
                if self.open_calls.len() > 64 {
                    self.open_calls.pop_front();
                }
            }
            InstrKind::Return => {
                self.btb.insert_r(start, instr.pc);
                if let Some(t) = self.open_calls.pop_back() {
                    self.finishing.push_back(RetTracker {
                        call_bb: t.call_bb,
                        call_fp: t.footprint.fp,
                        footprint: Footprint::new(block_of(instr.target)),
                        deadline: self.retired + RETURN_WINDOW,
                    });
                }
                // The caller's call tracker is innermost again.
                self.recorded_block = None;
            }
            InstrKind::Other => unreachable!(),
        }
        self.bb_start = Some(instr.next_pc());
    }

    /// Whether the engine is parked on an unresolvable target and
    /// needs a core redirect to make progress.
    pub fn is_parked(&self) -> bool {
        self.parked
    }

    /// The block a pending reactive fill is waiting on, if any.
    pub fn stalled_block(&self) -> Option<Block> {
        self.stall
    }

    /// Whether [`advance`](Self::advance) would change nothing until
    /// the L1i fills again: no prefill scan is owed, and discovery is
    /// parked, waiting for an absent block, or facing a full FTQ with
    /// no reactive fill pending.
    pub fn is_quiescent<C: RunaheadContext + ?Sized>(&self, ctx: &C, ftq: &Ftq) -> bool {
        self.prefill_clean_at == Some(ctx.l1i_fills())
            && (self.parked
                || match self.stall {
                    Some(block) => !ctx.block_present(block),
                    None => ftq.is_full(),
                })
    }

    /// Core redirect: squash and restart discovery at `pc`.
    pub fn redirect(&mut self, pc: Addr, ftq: &mut Ftq) {
        ftq.clear();
        self.cursor = pc;
        self.stall = None;
        self.scan_len = 0;
        self.parked = false;
        self.stats.redirects += 1;
    }

    /// Runs discovery for one cycle (mirrors
    /// [`crate::boomerang::Boomerang::advance`], plus footprint bulk
    /// prefetching).
    pub fn advance<C: RunaheadContext + ?Sized>(&mut self, ctx: &mut C, ftq: &mut Ftq) {
        self.drain_prefill(ctx);
        if self.parked {
            return;
        }
        if let Some(block) = self.stall {
            if !ctx.block_present(block) {
                return;
            }
            self.stall = None;
            if !self.fill_or_scan(ctx, block) {
                return;
            }
        }
        for _ in 0..self.steps_per_cycle {
            if ftq.is_full() || self.parked {
                break;
            }
            if !self.step(ctx, ftq) {
                break;
            }
        }
    }

    /// One discovery step; returns `false` when the engine stalled.
    fn step<C: RunaheadContext + ?Sized>(&mut self, ctx: &mut C, ftq: &mut Ftq) -> bool {
        // Search the three structures (hardware does so in parallel).
        if let Some(e) = self.btb.lookup_u(self.cursor) {
            let fallthrough = e.end + 4;
            if e.target == 0 {
                self.parked = true;
                self.stats.unresolved += 1;
                return false;
            }
            if e.class.is_call() {
                ctx.ras_push(fallthrough);
            }
            // Footprint-driven bulk prefetch: the Shotgun advantage.
            if e.call_footprint != 0 {
                for b in footprint_blocks(block_of(e.target), e.call_footprint) {
                    if !ctx.l1i_lookup(b) {
                        ctx.issue_prefetch(b, PfSource::Shotgun, 0);
                        self.stats.footprint_prefetches += 1;
                    }
                    self.queue_prefill(b);
                }
            }
            if e.ret_footprint != 0 {
                for b in footprint_blocks(block_of(fallthrough), e.ret_footprint) {
                    if !ctx.l1i_lookup(b) {
                        ctx.issue_prefetch(b, PfSource::Shotgun, 0);
                        self.stats.footprint_prefetches += 1;
                    }
                    self.queue_prefill(b);
                }
            }
            self.push_region(ctx, ftq, e.end, e.target);
            return true;
        }
        if let Some((end, target)) = self.btb.lookup_c(self.cursor) {
            let next = if ctx.predict_cond(end) {
                target
            } else {
                end + 4
            };
            self.push_region(ctx, ftq, end, next);
            return true;
        }
        if let Some(end) = self.btb.lookup_r(self.cursor) {
            match ctx.ras_pop() {
                Some(t) => {
                    self.push_region(ctx, ftq, end, t);
                    return true;
                }
                None => {
                    self.parked = true;
                    self.stats.unresolved += 1;
                    return false;
                }
            }
        }
        // Total BTB miss: reactive prefill (fetch + pre-decode).
        self.stats.btb_miss_stalls += 1;
        let block = block_of(self.cursor);
        if ctx.block_present(block) {
            self.fill_or_scan(ctx, block);
        } else {
            if !ctx.l1i_lookup(block) {
                ctx.issue_prefetch(block, PfSource::Shotgun, 0);
                self.stats.prefetches += 1;
            }
            self.stall = Some(block);
        }
        false
    }

    /// Reactive fill that follows a basic block spanning multiple cache
    /// blocks (bounded scan; parks for a core redirect on pathological
    /// runs). Returns `true` when the cursor's basic block resolved.
    fn fill_or_scan<C: RunaheadContext + ?Sized>(&mut self, ctx: &mut C, block: Block) -> bool {
        if self.reactive_fill(ctx, block) {
            self.scan_len = 0;
            return true;
        }
        if self.scan_len < 4 {
            self.scan_len += 1;
            let next = block + 1;
            if !ctx.block_present(next) && !ctx.l1i_lookup(next) {
                ctx.issue_prefetch(next, PfSource::Shotgun, 0);
                self.stats.prefetches += 1;
            }
            self.stall = Some(next);
        } else {
            self.scan_len = 0;
            self.parked = true;
            self.stats.unresolved += 1;
        }
        false
    }

    fn push_region<C: RunaheadContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        ftq: &mut Ftq,
        end: Addr,
        next: Addr,
    ) {
        let region = FtqEntry {
            start: self.cursor,
            end,
            next,
        };
        for block in region.blocks() {
            if !ctx.l1i_lookup(block) {
                ctx.issue_prefetch(block, PfSource::Shotgun, 0);
                self.stats.prefetches += 1;
                self.queue_prefill(block);
            }
        }
        ftq.push(region);
        self.stats.regions_pushed += 1;
        self.cursor = next;
    }

    fn queue_prefill(&mut self, block: Block) {
        if !self.pending_prefill.contains(&block) {
            if self.pending_prefill.len() == 32 {
                self.pending_prefill.remove(0);
            }
            self.pending_prefill.push(block);
            self.prefill_clean_at = None;
        }
    }

    /// Proactive BTB prefilling: pre-decode prefetched blocks as they
    /// arrive and insert the recoverable basic blocks (conditional
    /// branches especially — the tiny C-BTB lives off this).
    fn drain_prefill<C: RunaheadContext + ?Sized>(&mut self, ctx: &mut C) {
        let fills = ctx.l1i_fills();
        if self.prefill_clean_at == Some(fills) {
            return;
        }
        let mut i = 0;
        let mut filled = 0;
        while i < self.pending_prefill.len() && filled < 2 {
            let block = self.pending_prefill[i];
            if ctx.block_present(block) {
                self.pending_prefill.swap_remove(i);
                self.prefill_from_block(ctx, block);
                filled += 1;
            } else {
                i += 1;
            }
        }
        // A scan stopped by the cap may have left arrived blocks behind.
        self.prefill_clean_at = (filled < 2).then_some(fills);
    }

    /// Inserts every basic block recoverable from `block`'s pre-decode:
    /// fall-through pairs between consecutive branches, plus the block
    /// base when it starts a basic block.
    fn prefill_from_block<C: RunaheadContext + ?Sized>(&mut self, ctx: &mut C, block: Block) {
        let branches = ctx.predecode(block);
        if branches.is_empty() {
            return;
        }
        let mut insert = |start: Addr, b: &dcfb_frontend::BtbEntry| match b.class {
            BranchClass::Conditional => self.btb.insert_c(start, b.pc, b.target),
            BranchClass::Jump | BranchClass::Call => {
                self.btb.insert_u(start, b.pc, b.target, b.class)
            }
            BranchClass::IndirectJump | BranchClass::IndirectCall => {
                self.btb.insert_u(start, b.pc, 0, b.class)
            }
            BranchClass::Return => self.btb.insert_r(start, b.pc),
        };
        let base = block << dcfb_trace::BLOCK_BITS;
        insert(base, &branches[0]);
        for pair in branches.windows(2) {
            let start = pair[0].pc + 4;
            if start <= pair[1].pc {
                insert(start, &pair[1]);
            }
        }
    }

    /// Pre-decodes `block` and prefills the split BTB (targets in the
    /// encoding only — footprints cannot be prefilled). Returns `true`
    /// if the cursor's basic block was resolved.
    fn reactive_fill<C: RunaheadContext + ?Sized>(&mut self, ctx: &mut C, block: Block) -> bool {
        let branches = ctx.predecode(block);
        self.stats.reactive_fills += 1;
        let mut insert = |start: Addr, b: &dcfb_frontend::BtbEntry| match b.class {
            BranchClass::Conditional => self.btb.insert_c(start, b.pc, b.target),
            BranchClass::Jump | BranchClass::Call => {
                self.btb.insert_u(start, b.pc, b.target, b.class)
            }
            BranchClass::IndirectJump | BranchClass::IndirectCall => {
                self.btb.insert_u(start, b.pc, 0, b.class)
            }
            BranchClass::Return => self.btb.insert_r(start, b.pc),
        };
        let resolved = match branches.iter().find(|b| b.pc >= self.cursor) {
            Some(first) => {
                insert(self.cursor, first);
                true
            }
            None => false,
        };
        for pair in branches.windows(2) {
            let start = pair[0].pc + 4;
            if start <= pair[1].pc {
                insert(start, &pair[1]);
            }
        }
        resolved
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::context::MockContext;
    use dcfb_frontend::BtbEntry;

    fn small() -> Shotgun {
        Shotgun::new(
            ShotgunBtbConfig {
                u_entries: 32,
                c_entries: 16,
                r_entries: 16,
                ways: 4,
            },
            0x1000,
        )
    }

    /// Retires the straight-line instructions in `[from, to)`.
    fn retire_run(s: &mut Shotgun, from: Addr, to: Addr) {
        for pc in (from..to).step_by(4) {
            s.on_retire(&Instr::other(pc, 4));
        }
    }

    fn retire_call_sequence(s: &mut Shotgun) {
        // bb at 0x1000 ends with a call at 0x1008 to 0x8000; the callee
        // runs straight through blocks 0x200..=0x203 and returns from
        // 0x80c4 to 0x100c, after which blocks 0x40, 0x41 are touched.
        retire_run(s, 0x1000, 0x1008);
        s.on_retire(&Instr::branch(0x1008, 4, InstrKind::Call, 0x8000));
        retire_run(s, 0x8000, 0x80c4);
        s.on_retire(&Instr::branch(0x80c4, 4, InstrKind::Return, 0x100c));
        retire_run(s, 0x100c, 0x104c);
    }

    #[test]
    fn retire_learns_ubtb_and_footprints() {
        let mut s = small();
        retire_call_sequence(&mut s);
        let e = s.btb.lookup_u(0x1000).expect("call bb learned");
        assert_eq!(e.end, 0x1008);
        assert_eq!(e.target, 0x8000);
        // Call footprint: blocks 0x200 (+0) through 0x203 (+3).
        assert_eq!(e.call_footprint, 0b1111);
        // Return footprint: block 0x40 (+0) and 0x41 (+1).
        assert_eq!(e.ret_footprint, 0b11);
    }

    #[test]
    fn footprint_hit_bulk_prefetches() {
        let mut s = small();
        retire_call_sequence(&mut s);
        let mut ftq = Ftq::new(8);
        let mut ctx = MockContext::default();
        s.advance(&mut ctx, &mut ftq);
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        // Callee working set prefetched from the footprint in one shot.
        assert!(blocks.contains(&0x200), "{blocks:?}");
        assert!(blocks.contains(&0x201));
        assert!(blocks.contains(&0x203));
        // Return-side blocks too.
        assert!(blocks.contains(&0x40));
        assert!(blocks.contains(&0x41));
        assert!(s.stats().footprint_prefetches >= 5);
    }

    #[test]
    fn evicted_ubtb_entry_loses_footprint_until_relearned() {
        let mut s = Shotgun::new(
            ShotgunBtbConfig {
                u_entries: 4,
                c_entries: 4,
                r_entries: 4,
                ways: 4,
            },
            0x1000,
        );
        retire_call_sequence(&mut s);
        assert!(s.btb.lookup_u(0x1000).unwrap().call_footprint != 0);
        // Thrash the single U-BTB set until 0x1000's entry is evicted.
        for i in 1..8u64 {
            s.btb.insert_u(
                0x20000 + i * 0x100,
                0x20000 + i * 0x100 + 4,
                0x30000,
                BranchClass::Jump,
            );
        }
        assert!(s.btb.lookup_u(0x1000).is_none(), "entry must be evicted");
        // Re-learn only the entry (prefill-style) via reactive path:
        let mut ctx = MockContext::default();
        ctx.code.insert(
            0x40,
            vec![BtbEntry {
                pc: 0x1008,
                target: 0x8000,
                class: BranchClass::Call,
            }],
        );
        s.cursor = 0x1000;
        s.reactive_fill(&mut ctx, 0x40);
        let e = s.btb.lookup_u(0x1000).expect("prefilled");
        assert_eq!(e.call_footprint, 0, "footprints must not be prefillable");
    }

    #[test]
    fn cbtb_miss_triggers_reactive_fill() {
        let mut s = small();
        let mut ftq = Ftq::new(8);
        let mut ctx = MockContext::default();
        ctx.code.insert(
            0x40,
            vec![BtbEntry {
                pc: 0x1004,
                target: 0x2000,
                class: BranchClass::Conditional,
            }],
        );
        s.advance(&mut ctx, &mut ftq); // miss -> prefetch 0x40, stall
        assert_eq!(s.stats().btb_miss_stalls, 1);
        s.advance(&mut ctx, &mut ftq); // fill
        s.advance(&mut ctx, &mut ftq); // now C-BTB hits; region pushed
        assert!(s.btb.stats().c_hits >= 1);
        assert!(!ftq.is_empty());
        let r = ftq.pop().unwrap();
        assert_eq!(r.start, 0x1000);
        assert_eq!(r.end, 0x1004);
        assert_eq!(r.next, 0x1008); // predicted not-taken
    }

    #[test]
    fn returns_use_ras() {
        let mut s = small();
        retire_call_sequence(&mut s);
        // RIB entry for the callee's return bb exists (bb start 0x8000).
        let mut ftq = Ftq::new(8);
        let mut ctx = MockContext::default();
        s.advance(&mut ctx, &mut ftq);
        // Region 1: call bb -> next = 0x8000 (RAS now holds 0x100c).
        // Region 2: return bb -> next = 0x100c.
        let regions: Vec<FtqEntry> = std::iter::from_fn(|| ftq.pop()).collect();
        assert!(regions.len() >= 2, "{regions:?}");
        assert_eq!(regions[0].next, 0x8000);
        assert_eq!(regions[1].next, 0x100c);
    }

    #[test]
    fn redirect_resets_state() {
        let mut s = small();
        let mut ftq = Ftq::new(8);
        ftq.push(FtqEntry {
            start: 1,
            end: 2,
            next: 3,
        });
        s.parked = true;
        s.redirect(0x7000, &mut ftq);
        assert!(ftq.is_empty());
        assert!(!s.parked);
        assert_eq!(s.stats().redirects, 1);
    }

    #[test]
    fn retire_learning_restarts_at_pc_jump() {
        // Two instructions of one tenant, then a switch to another
        // tenant 256 MiB away with no branch in between: the jump's
        // basic block must start at the switch, not back in the first
        // tenant.
        let mut s = small();
        retire_run(&mut s, 0x1000, 0x1008);
        retire_run(&mut s, 0x1000_1000, 0x1000_1008);
        s.on_retire(&Instr::branch(0x1000_1008, 4, InstrKind::Jump, 0x1000_2000));
        assert!(s.btb.lookup_u(0x1000).is_none(), "block spans the switch");
        let e = s.btb.lookup_u(0x1000_1000).expect("learned after switch");
        assert_eq!(e.end, 0x1000_1008);
        // The same switch on a conditional lands in the C-BTB likewise.
        retire_run(&mut s, 0x3000, 0x3004);
        s.on_retire(&Instr::branch(
            0x3004,
            4,
            InstrKind::CondBranch { taken: false },
            0x3100,
        ));
        assert!(s.btb.lookup_c(0x1000_2000).is_none());
        assert_eq!(s.btb.lookup_c(0x3000), Some((0x3004, 0x3100)));
    }

    #[test]
    fn target_tracker_records_the_branchs_own_block() {
        // A jump within block 0x40 (0x1008 -> 0x1010): the tracker is
        // anchored at the jump's own block, and the instructions after
        // the jump still retire in it before moving on to block 0x41.
        let mut s = small();
        retire_run(&mut s, 0x1000, 0x1008);
        s.on_retire(&Instr::branch(0x1008, 4, InstrKind::Jump, 0x1010));
        retire_run(&mut s, 0x1010, 0x1010 + 4 * TARGET_WINDOW);
        let e = s.btb.lookup_u(0x1000).expect("jump bb learned");
        assert_eq!(e.call_footprint, 0b11, "blocks 0x40 and 0x41");
    }

    #[test]
    fn prefill_scan_waits_for_a_fill() {
        let mut s = small();
        s.parked = true; // discovery idle: `advance` only drains prefills
        let mut ftq = Ftq::new(8);
        let mut ctx = MockContext::default();
        s.queue_prefill(0x80);
        s.advance(&mut ctx, &mut ftq); // scans; 0x80 has not arrived
        assert!(s.is_quiescent(&ctx, &ftq));
        // 0x80 shows up without the L1i fill count moving: no rescan.
        ctx.resident.insert(0x80);
        ctx.code.insert(
            0x80,
            vec![BtbEntry {
                pc: 0x2004,
                target: 0x2100,
                class: BranchClass::Conditional,
            }],
        );
        s.advance(&mut ctx, &mut ftq);
        assert_eq!(s.pending_prefill, [0x80]);
        assert!(s.btb.lookup_c(0x2000).is_none());
        // A fill: the next cycle rescans and prefills the C-BTB.
        ctx.fills += 1;
        assert!(!s.is_quiescent(&ctx, &ftq));
        s.advance(&mut ctx, &mut ftq);
        assert!(s.pending_prefill.is_empty());
        assert_eq!(s.btb.lookup_c(0x2000), Some((0x2004, 0x2100)));
    }

    #[test]
    fn prefill_scan_resumes_after_its_cap() {
        // Three arrived blocks, two prefills per cycle: the third waits
        // one cycle, though no further fill happens.
        let mut s = small();
        s.parked = true;
        let mut ftq = Ftq::new(8);
        let mut ctx = MockContext::default();
        for b in [0x80, 0x81, 0x82] {
            s.queue_prefill(b);
            ctx.resident.insert(b);
        }
        ctx.fills += 1;
        s.advance(&mut ctx, &mut ftq);
        assert_eq!(s.pending_prefill.len(), 1);
        assert!(!s.is_quiescent(&ctx, &ftq));
        s.advance(&mut ctx, &mut ftq);
        assert!(s.pending_prefill.is_empty());
        assert!(s.is_quiescent(&ctx, &ftq));
    }

    #[test]
    fn storage_is_6kb() {
        assert_eq!(small().storage_bits() / 8 / 1024, 6);
    }
}
