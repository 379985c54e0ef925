//! Boomerang: metadata-free BTB-directed instruction & BTB prefetching
//! (HPCA'17 [19]).
//!
//! Boomerang runs the branch-prediction unit ahead of fetch over a
//! *basic-block-oriented* BTB: each entry, keyed by a basic-block start
//! address, gives the terminating branch, its class, and its target.
//! Discovered fetch regions are pushed into the FTQ; the blocks they
//! touch are probed in the L1i and prefetched on a miss. On a BB-BTB
//! miss the engine stalls, fetches the missing block, *pre-decodes* it
//! to recover the BTB entries, fills the BTB, and resumes — which is
//! also how it prefills the BTB ahead of the core.

use crate::context::RunaheadContext;
use dcfb_cache::LruSets;
use dcfb_frontend::{BranchClass, BtbEntry, Ftq, FtqEntry};
use dcfb_telemetry::PfSource;
use dcfb_trace::{block_of, Addr, Block, Instr, InstrKind};

/// One basic-block BTB entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BbEntry {
    /// Address of the terminating branch.
    pub end: Addr,
    /// Branch target (0 when unknown, e.g. an indirect seen only by the
    /// pre-decoder).
    pub target: Addr,
    /// Branch class.
    pub class: BranchClass,
}

/// A set-associative basic-block-oriented BTB, tagged by `pc >> 2`.
#[derive(Clone, Debug)]
pub struct BbBtb {
    table: LruSets<BbEntry>,
    lookups: u64,
    hits: u64,
}

impl BbBtb {
    /// Creates a BB-BTB with `entries` total entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `ways`.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries % ways == 0, "bad BB-BTB shape");
        BbBtb {
            table: LruSets::new(entries / ways, ways),
            lookups: 0,
            hits: 0,
        }
    }

    fn locate(&self, pc: Addr) -> (usize, u64) {
        (((pc >> 2) % self.table.sets() as u64) as usize, pc >> 2)
    }

    /// Looks up the basic block starting at `pc`.
    pub fn lookup(&mut self, pc: Addr) -> Option<BbEntry> {
        self.lookups += 1;
        let (set, tag) = self.locate(pc);
        let way = self.table.find(set, tag)?;
        self.table.touch(set, way);
        self.hits += 1;
        Some(*self.table.get(set, way))
    }

    /// Inserts (or refreshes) the basic block starting at `pc`.
    pub fn insert(&mut self, pc: Addr, entry: BbEntry) {
        let (set, tag) = self.locate(pc);
        let Some(way) = self.table.find(set, tag) else {
            self.table.insert(set, tag, entry);
            return;
        };
        let old = self.table.get_mut(set, way);
        // Keep a known target over an unknown one.
        let target = if entry.target == 0 && old.target != 0 {
            old.target
        } else {
            entry.target
        };
        *old = BbEntry { target, ..entry };
        self.table.touch(set, way);
    }

    /// `(lookups, hits)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }
}

/// Boomerang runahead statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoomerangStats {
    /// BB-BTB misses that stalled FTQ filling.
    pub btb_miss_stalls: u64,
    /// Reactive pre-decode fills performed.
    pub reactive_fills: u64,
    /// Fetch regions pushed into the FTQ.
    pub regions_pushed: u64,
    /// Prefetches issued from FTQ scanning.
    pub prefetches: u64,
    /// Cursor stalls on indirect branches with unknown targets.
    pub unresolved_indirects: u64,
    /// Redirects received from the core.
    pub redirects: u64,
}

/// The Boomerang engine.
pub struct Boomerang {
    bb_btb: BbBtb,
    cursor: Addr,
    /// Waiting for this block to arrive for a reactive fill.
    stall: Option<Block>,
    /// Blocks scanned past the cursor looking for its terminating
    /// branch (basic blocks may span cache blocks).
    scan_len: u32,
    /// Stopped until redirect (unresolvable indirect).
    parked: bool,
    steps_per_cycle: usize,
    /// Retire-side learning state: current basic-block start.
    bb_start: Option<Addr>,
    /// `next_pc()` of the previous retired instruction.
    expected_pc: Option<Addr>,
    stats: BoomerangStats,
}

impl Boomerang {
    /// Creates Boomerang with a BB-BTB of `btb_entries` (the paper's
    /// Boomerang uses a conventional 2 K-entry budget).
    pub fn new(btb_entries: usize, start_pc: Addr) -> Self {
        Boomerang {
            bb_btb: BbBtb::new(btb_entries, 4),
            cursor: start_pc,
            stall: None,
            scan_len: 0,
            parked: false,
            steps_per_cycle: 2,
            bb_start: Some(start_pc),
            expected_pc: None,
            stats: BoomerangStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BoomerangStats {
        self.stats
    }

    /// Per-core storage: BB-BTB entries (~8 B each) + 64-entry L1i
    /// prefetch buffer.
    pub fn storage_bits(&self) -> u64 {
        let t = &self.bb_btb.table;
        (t.sets() * t.ways()) as u64 * 64 + 64 * (34 + 8)
    }

    /// Learns basic-block entries from the retired instruction stream.
    pub fn on_retire(&mut self, instr: &Instr) {
        // A pc the previous instruction does not lead to (a tenant
        // switch in a mix, a spliced trace) ends the open basic block
        // without a branch; learning across it would record a block
        // spanning two unrelated code regions.
        if self.expected_pc.is_some_and(|pc| pc != instr.pc) {
            self.bb_start = Some(instr.pc);
        }
        self.expected_pc = Some(instr.next_pc());
        let Some(start) = self.bb_start else {
            self.bb_start = Some(instr.pc);
            return;
        };
        if instr.kind.is_branch() {
            let class = match instr.kind {
                InstrKind::CondBranch { .. } => BranchClass::Conditional,
                InstrKind::Jump => BranchClass::Jump,
                InstrKind::Call => BranchClass::Call,
                InstrKind::IndirectJump => BranchClass::IndirectJump,
                InstrKind::IndirectCall => BranchClass::IndirectCall,
                InstrKind::Return => BranchClass::Return,
                InstrKind::Other => unreachable!(),
            };
            self.bb_btb.insert(
                start,
                BbEntry {
                    end: instr.pc,
                    target: instr.target,
                    class,
                },
            );
            // The next basic block starts wherever execution goes.
            self.bb_start = Some(instr.next_pc());
        }
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
    /// the L1i fills again: parked, waiting for an absent block, or
    /// facing a full FTQ with no reactive fill pending.
    pub fn is_quiescent<C: RunaheadContext + ?Sized>(&self, ctx: &C, ftq: &Ftq) -> bool {
        self.parked
            || match self.stall {
                Some(block) => !ctx.block_present(block),
                None => ftq.is_full(),
            }
    }

    /// Core redirect (mispredict or BTB-miss discovery at fetch):
    /// squash the FTQ and restart discovery at `pc`.
    pub fn redirect(&mut self, pc: Addr, ftq: &mut Ftq) {
        ftq.clear();
        self.cursor = pc;
        self.stall = None;
        self.scan_len = 0;
        self.parked = false;
        self.stats.redirects += 1;
    }

    /// Runs the discovery engine for one cycle: resolves pending
    /// reactive fills, then pushes up to `steps_per_cycle` regions into
    /// the FTQ, probing and prefetching their blocks.
    pub fn advance<C: RunaheadContext + ?Sized>(&mut self, ctx: &mut C, ftq: &mut Ftq) {
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
            let Some(entry) = self.bb_btb.lookup(self.cursor) else {
                // BB-BTB miss: fetch + pre-decode the block at the cursor.
                self.stats.btb_miss_stalls += 1;
                let block = block_of(self.cursor);
                if ctx.block_present(block) {
                    self.fill_or_scan(ctx, block);
                    // Retry next cycle (entry may now be present).
                } else {
                    if !ctx.l1i_lookup(block) {
                        ctx.issue_prefetch(block, PfSource::Boomerang, 0);
                        self.stats.prefetches += 1;
                    }
                    self.stall = Some(block);
                }
                return;
            };
            // Resolve where execution continues after this basic block.
            let fallthrough = entry.end + 4;
            let next = match entry.class {
                BranchClass::Conditional => {
                    if ctx.predict_cond(entry.end) {
                        entry.target
                    } else {
                        fallthrough
                    }
                }
                BranchClass::Jump => entry.target,
                BranchClass::Call | BranchClass::IndirectCall => {
                    if entry.target == 0 {
                        self.park();
                        return;
                    }
                    ctx.ras_push(fallthrough);
                    entry.target
                }
                BranchClass::IndirectJump => {
                    if entry.target == 0 {
                        self.park();
                        return;
                    }
                    entry.target
                }
                BranchClass::Return => match ctx.ras_pop() {
                    Some(t) => t,
                    None => {
                        self.park();
                        return;
                    }
                },
            };
            let region = FtqEntry {
                start: self.cursor,
                end: entry.end,
                next,
            };
            // Probe/prefetch every block the region touches.
            for block in region.blocks() {
                if !ctx.l1i_lookup(block) {
                    ctx.issue_prefetch(block, PfSource::Boomerang, 0);
                    self.stats.prefetches += 1;
                }
            }
            ftq.push(region);
            self.stats.regions_pushed += 1;
            self.cursor = next;
        }
    }

    fn park(&mut self) {
        self.parked = true;
        self.stats.unresolved_indirects += 1;
    }

    /// Pre-decodes `block` and fills BB-BTB entries derivable from it:
    /// the basic block at the cursor (ending at the first branch at or
    /// after it) plus every fall-through block between consecutive
    /// branches. Returns `true` if the cursor's basic block was
    /// resolved.
    fn reactive_fill<C: RunaheadContext + ?Sized>(&mut self, ctx: &mut C, block: Block) -> bool {
        let branches = ctx.predecode(block);
        self.stats.reactive_fills += 1;
        let to_entry = |b: &BtbEntry| BbEntry {
            end: b.pc,
            target: b.target,
            class: b.class,
        };
        // Basic block at the cursor.
        let resolved = match branches.iter().find(|b| b.pc >= self.cursor) {
            Some(first) => {
                self.bb_btb.insert(self.cursor, to_entry(first));
                true
            }
            None => false,
        };
        // Fall-through blocks between consecutive branches.
        for pair in branches.windows(2) {
            let start = pair[0].pc + 4;
            if start <= pair[1].pc {
                self.bb_btb.insert(start, to_entry(&pair[1]));
            }
        }
        resolved
    }

    /// Reactive fill that follows a basic block spanning multiple cache
    /// blocks: when `block` holds no branch at or after the cursor, the
    /// scan continues into the next block (bounded), parking on
    /// pathological runs. Returns `true` when the cursor resolved.
    fn fill_or_scan<C: RunaheadContext + ?Sized>(&mut self, ctx: &mut C, block: Block) -> bool {
        if self.reactive_fill(ctx, block) {
            self.scan_len = 0;
            return true;
        }
        if self.scan_len < 4 {
            self.scan_len += 1;
            let next = block + 1;
            if !ctx.block_present(next) && !ctx.l1i_lookup(next) {
                ctx.issue_prefetch(next, PfSource::Boomerang, 0);
                self.stats.prefetches += 1;
            }
            self.stall = Some(next);
        } else {
            // Give up; the core's decode-side redirect will restart us.
            self.scan_len = 0;
            self.parked = true;
            self.stats.unresolved_indirects += 1;
        }
        false
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::context::MockContext;

    fn code_block(ctx: &mut MockContext, block: Block, branches: &[(u64, Addr, BranchClass)]) {
        ctx.code.insert(
            block,
            branches
                .iter()
                .map(|&(off, target, class)| BtbEntry {
                    pc: block * 64 + off,
                    target,
                    class,
                })
                .collect(),
        );
    }

    #[test]
    fn bb_btb_roundtrip_and_lru() {
        let mut b = BbBtb::new(8, 2);
        let e = BbEntry {
            end: 0x10c,
            target: 0x500,
            class: BranchClass::Jump,
        };
        assert!(b.lookup(0x100).is_none());
        b.insert(0x100, e);
        assert_eq!(b.lookup(0x100), Some(e));
        assert_eq!(b.counters(), (2, 1));
    }

    #[test]
    fn bb_btb_keeps_known_target_on_unknown_refresh() {
        let mut b = BbBtb::new(8, 2);
        b.insert(
            0x100,
            BbEntry {
                end: 0x10c,
                target: 0x500,
                class: BranchClass::IndirectCall,
            },
        );
        // Pre-decoder refresh with unknown target must not erase it.
        b.insert(
            0x100,
            BbEntry {
                end: 0x10c,
                target: 0,
                class: BranchClass::IndirectCall,
            },
        );
        assert_eq!(b.lookup(0x100).unwrap().target, 0x500);
    }

    #[test]
    fn retire_learning_restarts_at_pc_jump() {
        // A tenant switch (pc jump with no branch) ends the open basic
        // block: the branch after it is learned from the switch target.
        let mut bm = Boomerang::new(64, 0x1000);
        bm.on_retire(&Instr::other(0x1000, 4));
        bm.on_retire(&Instr::other(0x1004, 4));
        bm.on_retire(&Instr::other(0x1000_1000, 4));
        bm.on_retire(&Instr::branch(0x1000_1004, 4, InstrKind::Jump, 0x1000_2000));
        assert!(bm.bb_btb.lookup(0x1000).is_none(), "block spans the switch");
        let e = bm.bb_btb.lookup(0x1000_1000).expect("learned after switch");
        assert_eq!(e.end, 0x1000_1004);
        assert_eq!(e.target, 0x1000_2000);
    }

    #[test]
    fn retire_learning_builds_entries() {
        let mut bm = Boomerang::new(64, 0x1000);
        bm.on_retire(&Instr::other(0x1000, 4));
        bm.on_retire(&Instr::other(0x1004, 4));
        bm.on_retire(&Instr::branch(
            0x1008,
            4,
            InstrKind::CondBranch { taken: true },
            0x2000,
        ));
        let e = bm.bb_btb.lookup(0x1000).expect("entry learned at retire");
        assert_eq!(e.end, 0x1008);
        assert_eq!(e.target, 0x2000);
        assert_eq!(e.class, BranchClass::Conditional);
    }

    #[test]
    fn advance_pushes_regions_and_prefetches() {
        let mut bm = Boomerang::new(64, 0x1000);
        let mut ftq = Ftq::new(8);
        let mut ctx = MockContext::default();
        // Learn: bb at 0x1000 ends 0x1040 jumping to 0x2000; bb at
        // 0x2000 ends 0x2008 jumping back (loop shape).
        for (s, e, t) in [(0x1000u64, 0x1040u64, 0x2000u64), (0x2000, 0x2008, 0x1000)] {
            bm.bb_btb.insert(
                s,
                BbEntry {
                    end: e,
                    target: t,
                    class: BranchClass::Jump,
                },
            );
        }
        bm.advance(&mut ctx, &mut ftq);
        assert_eq!(ftq.len(), 2);
        let first = ftq.pop().unwrap();
        assert_eq!(first.start, 0x1000);
        assert_eq!(first.end, 0x1040);
        assert_eq!(first.next, 0x2000);
        // Blocks 0x40 (0x1000>>6) and 0x41 probed and prefetched.
        assert!(ctx.issued.iter().any(|&(b, _)| b == 0x40));
        assert!(ctx.issued.iter().any(|&(b, _)| b == 0x41));
        assert!(bm.stats().regions_pushed >= 2);
    }

    #[test]
    fn btb_miss_triggers_reactive_predecode_fill() {
        let mut bm = Boomerang::new(64, 0x1000);
        let mut ftq = Ftq::new(8);
        let mut ctx = MockContext::default();
        // Code at block 0x40: a jump at 0x1008 -> 0x3000.
        code_block(&mut ctx, 0x40, &[(0x8, 0x3000, BranchClass::Jump)]);
        // First advance: BTB miss, block not present -> prefetch + stall.
        bm.advance(&mut ctx, &mut ftq);
        assert_eq!(bm.stats().btb_miss_stalls, 1);
        assert!(ctx.issued.iter().any(|&(b, _)| b == 0x40));
        assert!(ftq.is_empty());
        // Block "arrives" (MockContext marks issued blocks resident):
        // the next advance pre-decodes, fills, and pushes the region
        // (it then misses again at the region's target and re-stalls).
        bm.advance(&mut ctx, &mut ftq);
        assert!(bm.stats().reactive_fills >= 1);
        assert!(!ftq.is_empty());
        let region = ftq.pop().unwrap();
        assert_eq!(region.start, 0x1000);
        assert_eq!(region.end, 0x1008);
        assert_eq!(region.next, 0x3000);
    }

    #[test]
    fn conditional_uses_direction_prediction() {
        let mut bm = Boomerang::new(64, 0x1000);
        let mut ftq = Ftq::new(8);
        let mut ctx = MockContext::default();
        bm.bb_btb.insert(
            0x1000,
            BbEntry {
                end: 0x1008,
                target: 0x5000,
                class: BranchClass::Conditional,
            },
        );
        // Not taken: next = fallthrough.
        bm.advance(&mut ctx, &mut ftq);
        assert_eq!(ftq.pop().unwrap().next, 0x100c);
        // Taken: next = target.
        let mut bm2 = Boomerang::new(64, 0x1000);
        bm2.bb_btb.insert(
            0x1000,
            BbEntry {
                end: 0x1008,
                target: 0x5000,
                class: BranchClass::Conditional,
            },
        );
        ctx.taken_pcs.insert(0x1008);
        let mut ftq2 = Ftq::new(8);
        bm2.advance(&mut ctx, &mut ftq2);
        assert_eq!(ftq2.pop().unwrap().next, 0x5000);
    }

    #[test]
    fn calls_and_returns_use_ras() {
        let mut bm = Boomerang::new(64, 0x1000);
        let mut ftq = Ftq::new(8);
        let mut ctx = MockContext::default();
        bm.bb_btb.insert(
            0x1000,
            BbEntry {
                end: 0x1004,
                target: 0x8000,
                class: BranchClass::Call,
            },
        );
        bm.bb_btb.insert(
            0x8000,
            BbEntry {
                end: 0x8008,
                target: 0,
                class: BranchClass::Return,
            },
        );
        bm.advance(&mut ctx, &mut ftq);
        // Call pushed fallthrough 0x1008; return popped it.
        let regions: Vec<FtqEntry> = std::iter::from_fn(|| ftq.pop()).collect();
        assert_eq!(regions[0].next, 0x8000);
        assert_eq!(regions[1].next, 0x1008);
    }

    #[test]
    fn unknown_indirect_parks_until_redirect() {
        let mut bm = Boomerang::new(64, 0x1000);
        let mut ftq = Ftq::new(8);
        let mut ctx = MockContext::default();
        bm.bb_btb.insert(
            0x1000,
            BbEntry {
                end: 0x1004,
                target: 0,
                class: BranchClass::IndirectJump,
            },
        );
        bm.advance(&mut ctx, &mut ftq);
        assert_eq!(bm.stats().unresolved_indirects, 1);
        // Parked: further advances do nothing.
        bm.advance(&mut ctx, &mut ftq);
        assert!(ftq.is_empty());
        // Redirect unparks.
        bm.redirect(0x9000, &mut ftq);
        assert_eq!(bm.stats().redirects, 1);
        bm.bb_btb.insert(
            0x9000,
            BbEntry {
                end: 0x9004,
                target: 0x9100,
                class: BranchClass::Jump,
            },
        );
        bm.advance(&mut ctx, &mut ftq);
        assert!(!ftq.is_empty());
    }

    #[test]
    fn quiescent_only_while_advance_is_a_no_op() {
        let mut bm = Boomerang::new(64, 0x1000);
        let mut ftq = Ftq::new(2);
        let mut ctx = MockContext::default();
        assert!(!bm.is_quiescent(&ctx, &ftq), "an empty FTQ to fill");
        // BTB miss: the prefetch of block 0x40 is issued, and the mock
        // makes it resident at once, so the stall resolves next cycle.
        bm.advance(&mut ctx, &mut ftq);
        assert_eq!(bm.stalled_block(), Some(0x40));
        assert!(!bm.is_quiescent(&ctx, &ftq));
        // The block has not arrived: waiting is all `advance` does.
        ctx.resident.remove(&0x40);
        assert!(bm.is_quiescent(&ctx, &ftq));
        // A full FTQ with nothing pending.
        bm.redirect(0x2000, &mut ftq);
        for s in [0x2000u64, 0x2010] {
            bm.bb_btb.insert(
                s,
                BbEntry {
                    end: s + 4,
                    target: s + 0x10,
                    class: BranchClass::Jump,
                },
            );
        }
        bm.advance(&mut ctx, &mut ftq);
        assert!(ftq.is_full());
        assert!(bm.is_quiescent(&ctx, &ftq));
    }

    #[test]
    fn redirect_squashes_ftq() {
        let mut bm = Boomerang::new(64, 0x1000);
        let mut ftq = Ftq::new(8);
        ftq.push(FtqEntry {
            start: 1,
            end: 2,
            next: 3,
        });
        bm.redirect(0x4000, &mut ftq);
        assert!(ftq.is_empty());
    }
}
