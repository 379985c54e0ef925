//! SN4L+Dis+BTB: the paper's combined proactive prefetcher (§V).
//!
//! The engine chains sequential and discontinuity prefetching ahead of
//! the fetch stream:
//!
//! * a demanded block enters **SeqQueue** and **DisQueue** at depth 0;
//! * SeqQueue items run SN4L (depth 0) or SN1L (deeper — §V-B: "we use
//!   SN1L, instead of SN4L, to prefetch the sequential regions of
//!   discontinuities"), producing candidates;
//! * DisQueue items replay the DisTable, producing the discontinuity
//!   target as a candidate;
//! * every candidate goes to **RLUQueue** with `depth = trigger + 1`;
//! * popping RLUQueue checks the 8-entry **RLU**; on an RLU miss the
//!   block is looked up in the cache (this is the lookup Fig. 14
//!   counts), prefetched on a miss, pre-decoded into the **BTB prefetch
//!   buffer** (the +BTB part), and — if `depth ≤ 4` — pushed back into
//!   SeqQueue and DisQueue to continue the chain.
//!
//! The chain terminates at depth 4 ("our experiments show that four is
//! a reasonable threshold").

use crate::context::{InstrPrefetcher, PrefetchContext, RecentInstrs};
use crate::dis::Dis;
use crate::tables::{DisTable, Rlu, SeqTable, TagPolicy};
use dcfb_telemetry::PfSource;
use dcfb_trace::{Block, IsaMode};
use std::collections::VecDeque;

/// Which engine produced a prefetch candidate (affects issue latency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    Seq,
    Dis,
}

/// Configuration of the combined engine (§VI-D3 defaults).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Sn4lDisConfig {
    /// SeqTable entries (16 K in the paper).
    pub seq_entries: usize,
    /// DisTable entries (4 K in the paper).
    pub dis_entries: usize,
    /// DisTable tagging policy (4-bit partial in the paper).
    pub dis_tag: TagPolicy,
    /// RLU entries (8 in the paper).
    pub rlu_entries: usize,
    /// Capacity of SeqQueue, DisQueue, and RLUQueue (16 each).
    pub queue_capacity: usize,
    /// Chain-termination depth (4 in the paper).
    pub max_depth: u8,
    /// Enable Confluence-like BTB prefilling (the "+BTB" part).
    pub btb_prefetch: bool,
    /// RLUQueue pops processed per cycle (2 L1i ports).
    pub rlu_per_cycle: usize,
    /// SeqQueue/DisQueue pops processed per cycle.
    pub engine_per_cycle: usize,
    /// Extra issue latency for Dis-sourced prefetches (§VII-D).
    pub dis_issue_delay: u64,
    /// Sequential degree used past a discontinuity (depth > 0). The
    /// paper chooses SN1L ("we use SN1L, instead of SN4L, to prefetch
    /// the sequential regions of discontinuities"); setting 4 turns the
    /// deep engine back into an SN4L for the ablation study.
    pub deep_seq_degree: u64,
}

impl Default for Sn4lDisConfig {
    fn default() -> Self {
        Sn4lDisConfig {
            seq_entries: 16 * 1024,
            dis_entries: 4 * 1024,
            dis_tag: TagPolicy::Partial(4),
            rlu_entries: 8,
            queue_capacity: 16,
            max_depth: 4,
            btb_prefetch: true,
            rlu_per_cycle: 2,
            engine_per_cycle: 2,
            dis_issue_delay: 3,
            deep_seq_degree: 1,
        }
    }
}

impl Sn4lDisConfig {
    /// The paper's SN4L+Dis configuration *without* BTB prefilling
    /// (Fig. 17's middle bar).
    pub fn without_btb() -> Self {
        Sn4lDisConfig {
            btb_prefetch: false,
            ..Sn4lDisConfig::default()
        }
    }
}

/// Counters exposed for the experiment harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sn4lDisStats {
    /// Prefetches issued by the sequential engine.
    pub seq_issued: u64,
    /// Prefetches issued by the discontinuity engine.
    pub dis_issued: u64,
    /// Candidates filtered by the RLU.
    pub rlu_filtered: u64,
    /// Candidates dropped because a queue was full.
    pub queue_drops: u64,
    /// Chains terminated by the depth limit.
    pub depth_terminations: u64,
    /// Blocks sent to the pre-decoder for BTB prefilling.
    pub predecoded: u64,
}

/// The combined SN4L+Dis(+BTB) prefetcher.
pub struct Sn4lDisBtb {
    cfg: Sn4lDisConfig,
    seq: SeqTable,
    dis: Dis,
    rlu: Rlu,
    seq_q: VecDeque<(Block, u8)>,
    dis_q: VecDeque<(Block, u8)>,
    rlu_q: VecDeque<(Block, u8, Source)>,
    stats: Sn4lDisStats,
}

impl Sn4lDisBtb {
    /// Creates the engine with the given configuration for `isa`,
    /// whose encoding sets the DisTable offset width (§V-D: 4-bit
    /// instruction slots, or 6-bit byte offsets for a variable-length
    /// ISA).
    pub fn new(cfg: Sn4lDisConfig, isa: IsaMode) -> Self {
        Sn4lDisBtb {
            seq: SeqTable::new(cfg.seq_entries),
            dis: Dis::with_table(DisTable::new(
                cfg.dis_entries,
                cfg.dis_tag,
                isa.dis_offset_bits(),
            )),
            rlu: Rlu::new(cfg.rlu_entries),
            seq_q: VecDeque::with_capacity(cfg.queue_capacity),
            dis_q: VecDeque::with_capacity(cfg.queue_capacity),
            rlu_q: VecDeque::with_capacity(cfg.queue_capacity),
            stats: Sn4lDisStats::default(),
            cfg,
        }
    }

    /// The paper's full SN4L+Dis+BTB configuration.
    pub fn paper_sized() -> Self {
        Sn4lDisBtb::new(Sn4lDisConfig::default(), IsaMode::Fixed4)
    }

    /// Accumulated counters.
    pub fn stats(&self) -> Sn4lDisStats {
        self.stats
    }

    /// RLU filter counters (`(hits, misses)`).
    pub fn rlu_counters(&self) -> (u64, u64) {
        self.rlu.counters()
    }

    /// Current `(SeqQueue, DisQueue, RLUQueue)` occupancies. Exposed so
    /// the conformance lockstep driver can compare queue state against
    /// the reference model after every event.
    pub fn queue_lens(&self) -> (usize, usize, usize) {
        (self.seq_q.len(), self.dis_q.len(), self.rlu_q.len())
    }

    /// Counters of the embedded Dis engine
    /// (`(issued, recorded, decode_mismatches, unresolved_indirects)`).
    pub fn dis_counters(&self) -> (u64, u64, u64, u64) {
        self.dis.counters()
    }

    fn push_candidate(&mut self, block: Block, depth: u8, src: Source) {
        if self.rlu_q.len() == self.cfg.queue_capacity {
            self.stats.queue_drops += 1;
            return;
        }
        self.rlu_q.push_back((block, depth, src));
    }

    /// Queues `block` as a new triggering block. Sequential candidates
    /// go to the DisQueue only (§V-B's example: SN4L's A+1, A+2 are
    /// "pushed to the end of DisQueue"); discontinuity targets go to
    /// both queues (B is "sent to DisQueue and SeqQueue"), which is
    /// what makes the deeper sequential engine an SN1L rather than a
    /// runaway SN4L chain.
    fn push_trigger(&mut self, block: Block, depth: u8, also_seq: bool) {
        if depth > self.cfg.max_depth {
            self.stats.depth_terminations += 1;
            return;
        }
        if also_seq {
            if self.seq_q.len() == self.cfg.queue_capacity {
                self.stats.queue_drops += 1;
            } else {
                self.seq_q.push_back((block, depth));
            }
        }
        if self.dis_q.len() == self.cfg.queue_capacity {
            self.stats.queue_drops += 1;
        } else {
            self.dis_q.push_back((block, depth));
        }
    }

    fn pump_rlu<C: PrefetchContext + ?Sized>(&mut self, ctx: &mut C) {
        for _ in 0..self.cfg.rlu_per_cycle {
            let Some((block, depth, src)) = self.rlu_q.pop_front() else {
                break;
            };
            if self.rlu.check_insert(block) {
                self.stats.rlu_filtered += 1;
                continue;
            }
            // RLU miss: the real event — cache lookup, prefetch on miss,
            // pre-decode for the BTB, and chain continuation.
            let resident = ctx.l1i_lookup(block);
            if !resident {
                let delay = match src {
                    Source::Seq => 0,
                    Source::Dis => self.cfg.dis_issue_delay,
                };
                // Telemetry attribution: first-level candidates belong
                // to the triggering engine; deeper chain walks are the
                // proactive RLU's own work (§V-B).
                let tag = match (src, depth) {
                    (Source::Seq, 0..=1) => PfSource::Sn4l,
                    (Source::Dis, 0..=1) => PfSource::Dis,
                    _ => PfSource::ProactiveChain,
                };
                ctx.issue_prefetch(block, tag, delay);
                match src {
                    Source::Seq => self.stats.seq_issued += 1,
                    Source::Dis => self.stats.dis_issued += 1,
                }
            }
            if self.cfg.btb_prefetch {
                ctx.prefill_btb_buffer(block);
                self.stats.predecoded += 1;
            }
            self.push_trigger(block, depth, src == Source::Dis);
        }
    }

    fn pump_seq<C: PrefetchContext + ?Sized>(&mut self, ctx: &mut C) {
        for _ in 0..self.cfg.engine_per_cycle {
            let Some((block, depth)) = self.seq_q.pop_front() else {
                break;
            };
            // SN4L at depth 0 (demand trigger), SN1L deeper (§V-B;
            // configurable for the ablation study).
            let span = if depth == 0 {
                4u64
            } else {
                self.cfg.deep_seq_degree
            };
            for d in 1..=span {
                let cand = block + d;
                if self.seq.is_useful(cand) {
                    self.push_candidate(cand, depth.saturating_add(1), Source::Seq);
                }
            }
            let _ = ctx;
        }
    }

    fn pump_dis<C: PrefetchContext + ?Sized>(&mut self, ctx: &mut C) {
        for _ in 0..self.cfg.engine_per_cycle {
            let Some((block, depth)) = self.dis_q.pop_front() else {
                break;
            };
            if let Some(target) = self.dis.peek_target(ctx, block) {
                self.push_candidate(target, depth.saturating_add(1), Source::Dis);
            }
        }
    }
}

impl InstrPrefetcher for Sn4lDisBtb {
    fn name(&self) -> String {
        if self.cfg.btb_prefetch {
            "SN4L+Dis+BTB".to_owned()
        } else {
            "SN4L+Dis".to_owned()
        }
    }

    fn storage_bits(&self) -> u64 {
        let tables = self.seq.storage_bits() + self.dis.storage_bits();
        // 4-bit local status + 1-bit prefetch flag per L1i line.
        let line_meta = 512 * 5;
        // Queues (16 x ~34-bit block + 3-bit depth) x 3 + 8-entry RLU.
        let queues = 3 * (self.cfg.queue_capacity as u64 * 37) + self.cfg.rlu_entries as u64 * 34;
        // BTB prefetch buffer (≈1 KB) when enabled.
        let buffer = if self.cfg.btb_prefetch {
            32 * (34 + 4 * 60)
        } else {
            0
        };
        tables + line_meta + queues + buffer
    }

    fn on_demand<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        hit: bool,
        hit_was_prefetched: bool,
        recent: &RecentInstrs,
    ) {
        // SN4L metadata (§V-A).
        if !hit || hit_was_prefetched {
            self.seq.set(block);
        }
        // Dis recording (§V-B) on every miss.
        if !hit {
            self.dis.record_from_recent(recent);
        }
        // Demands populate the RLU and (in +BTB mode) feed the
        // pre-decoder on first sight.
        self.rlu.note_demand(block);
        if self.cfg.btb_prefetch && !hit {
            ctx.prefill_btb_buffer(block);
            self.stats.predecoded += 1;
        }
        // Proactive trigger at depth 0.
        self.push_trigger(block, 0, true);
    }

    fn on_evict<C: PrefetchContext + ?Sized>(
        &mut self,
        _ctx: &mut C,
        block: Block,
        useless_prefetch: bool,
    ) {
        if useless_prefetch {
            self.seq.reset(block);
        }
    }

    fn rlu_counters(&self) -> Option<(u64, u64)> {
        let (hits, misses) = self.rlu.counters();
        Some((hits + misses, hits))
    }

    fn tick<C: PrefetchContext + ?Sized>(&mut self, ctx: &mut C) {
        self.pump_seq(ctx);
        self.pump_dis(ctx);
        self.pump_rlu(ctx);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::context::MockContext;
    use dcfb_frontend::{BranchClass, BtbEntry};
    use dcfb_trace::{Instr, InstrKind};

    fn drain(p: &mut Sn4lDisBtb, ctx: &mut MockContext, cycles: usize) {
        for _ in 0..cycles {
            p.tick(ctx);
        }
    }

    #[test]
    fn demand_triggers_sn4l_prefetches() {
        let mut p = Sn4lDisBtb::new(Sn4lDisConfig::without_btb(), IsaMode::Fixed4);
        let mut ctx = MockContext::default();
        p.on_demand(&mut ctx, 100, false, false, &RecentInstrs::default());
        drain(&mut p, &mut ctx, 8);
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert!(blocks.contains(&101));
        assert!(blocks.contains(&104));
        assert_eq!(p.stats().seq_issued, 4);
    }

    #[test]
    fn chain_follows_discontinuity_with_sn1l() {
        // Sequence A=100 -> branch at 102 to B=200 (paper's example).
        let mut p = Sn4lDisBtb::new(Sn4lDisConfig::without_btb(), IsaMode::Fixed4);
        let mut ctx = MockContext::default();
        let branch_pc = 102 * 64 + 16;
        ctx.code.insert(
            102,
            vec![BtbEntry {
                pc: branch_pc,
                target: 200 * 64,
                class: BranchClass::Jump,
            }],
        );
        // Teach the DisTable: miss on 200 right after the branch.
        let mut recent = RecentInstrs::default();
        recent.push(Instr::branch(branch_pc, 4, InstrKind::Jump, 200 * 64));
        p.on_demand(&mut ctx, 200, false, false, &recent);
        drain(&mut p, &mut ctx, 8);
        // Re-demand block 100: SN4L covers 101..104; Dis on 102 chains
        // to 200; SN1L covers 201.
        ctx.issued.clear();
        ctx.resident.clear();
        p.on_demand(&mut ctx, 100, true, false, &RecentInstrs::default());
        drain(&mut p, &mut ctx, 20);
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert!(blocks.contains(&200), "discontinuity target: {blocks:?}");
        assert!(blocks.contains(&201), "SN1L past discontinuity: {blocks:?}");
        assert!(p.stats().dis_issued >= 1);
    }

    #[test]
    fn rlu_filters_duplicate_candidates() {
        let mut p = Sn4lDisBtb::new(Sn4lDisConfig::without_btb(), IsaMode::Fixed4);
        let mut ctx = MockContext::default();
        p.on_demand(&mut ctx, 100, false, false, &RecentInstrs::default());
        drain(&mut p, &mut ctx, 8);
        let first = ctx.lookups.len();
        // Same trigger again: candidates are in the RLU; no new lookups.
        p.on_demand(&mut ctx, 100, true, false, &RecentInstrs::default());
        drain(&mut p, &mut ctx, 8);
        assert_eq!(ctx.lookups.len(), first, "RLU failed to filter");
        assert!(p.stats().rlu_filtered >= 4);
    }

    #[test]
    fn depth_limit_terminates_chains() {
        // Build a long chain of discontinuities: block i jumps to block
        // i+10, for i = 100, 110, 120, ...
        let mut p = Sn4lDisBtb::new(
            Sn4lDisConfig {
                btb_prefetch: false,
                ..Sn4lDisConfig::default()
            },
            IsaMode::Fixed4,
        );
        let mut ctx = MockContext::default();
        for k in 0..12u64 {
            let b = 100 + k * 10;
            let pc = b * 64 + 4;
            ctx.code.insert(
                b,
                vec![BtbEntry {
                    pc,
                    target: (b + 10) * 64,
                    class: BranchClass::Jump,
                }],
            );
            let mut recent = RecentInstrs::default();
            recent.push(Instr::branch(pc, 4, InstrKind::Jump, (b + 10) * 64));
            p.on_demand(&mut ctx, b + 10, false, false, &recent);
            drain(&mut p, &mut ctx, 4);
        }
        ctx.issued.clear();
        ctx.resident.clear();
        p.on_demand(&mut ctx, 100, true, false, &RecentInstrs::default());
        drain(&mut p, &mut ctx, 64);
        let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        // Depth 4 allows following only a handful of discontinuities.
        assert!(blocks.contains(&110));
        assert!(!blocks.contains(&190), "chain went too deep: {blocks:?}");
        assert!(p.stats().depth_terminations > 0);
    }

    #[test]
    fn depth_zero_issues_first_level_prefetches_only() {
        // The chain of `chain_follows_discontinuity_with_sn1l`: block
        // 102 jumps to 200. Depth 0 stops every chain at its first
        // level: SN4L's 101..=104 go out, the jump target behind 102
        // does not; depth 1 follows it.
        let issued_at_depth = |max_depth: u8| {
            let mut p = Sn4lDisBtb::new(
                Sn4lDisConfig {
                    max_depth,
                    ..Sn4lDisConfig::without_btb()
                },
                IsaMode::Fixed4,
            );
            let mut ctx = MockContext::default();
            let branch_pc = 102 * 64 + 16;
            ctx.code.insert(
                102,
                vec![BtbEntry {
                    pc: branch_pc,
                    target: 200 * 64,
                    class: BranchClass::Jump,
                }],
            );
            let mut recent = RecentInstrs::default();
            recent.push(Instr::branch(branch_pc, 4, InstrKind::Jump, 200 * 64));
            p.on_demand(&mut ctx, 200, false, false, &recent);
            drain(&mut p, &mut ctx, 8);
            ctx.issued.clear();
            ctx.resident.clear();
            let terminated = p.stats().depth_terminations;
            p.on_demand(&mut ctx, 100, true, false, &RecentInstrs::default());
            drain(&mut p, &mut ctx, 20);
            let blocks: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
            (blocks, p.stats().depth_terminations - terminated)
        };
        let (blocks, terminated) = issued_at_depth(0);
        assert_eq!(blocks, [101, 102, 103, 104]);
        assert_eq!(terminated, 4, "each first-level block ends its chain");
        let (blocks, _) = issued_at_depth(1);
        assert!(
            blocks.contains(&200),
            "depth 1 follows the jump: {blocks:?}"
        );
    }

    #[test]
    fn btb_mode_predecodes_rlu_misses() {
        let mut p = Sn4lDisBtb::paper_sized();
        let mut ctx = MockContext::default();
        ctx.code.insert(
            101,
            vec![BtbEntry {
                pc: 101 * 64 + 8,
                target: 400 * 64,
                class: BranchClass::Call,
            }],
        );
        p.on_demand(&mut ctx, 100, false, false, &RecentInstrs::default());
        drain(&mut p, &mut ctx, 8);
        assert!(
            ctx.btb_buffer_fills.iter().any(|(b, _)| *b == 101),
            "block 101 not pre-decoded: {:?}",
            ctx.btb_buffer_fills
                .iter()
                .map(|(b, _)| b)
                .collect::<Vec<_>>()
        );
        assert!(p.stats().predecoded > 0);
    }

    #[test]
    fn dis_prefetches_carry_issue_delay() {
        let mut p = Sn4lDisBtb::new(Sn4lDisConfig::without_btb(), IsaMode::Fixed4);
        let mut ctx = MockContext::default();
        let pc = 100 * 64 + 4;
        ctx.code.insert(
            100,
            vec![BtbEntry {
                pc,
                target: 300 * 64,
                class: BranchClass::Jump,
            }],
        );
        let mut recent = RecentInstrs::default();
        recent.push(Instr::branch(pc, 4, InstrKind::Jump, 300 * 64));
        p.on_demand(&mut ctx, 300, false, false, &recent);
        drain(&mut p, &mut ctx, 8);
        ctx.issued.clear();
        ctx.resident.clear();
        p.on_demand(&mut ctx, 100, true, false, &RecentInstrs::default());
        drain(&mut p, &mut ctx, 16);
        let dis_issue = ctx.issued.iter().find(|&&(b, _)| b == 300).unwrap();
        assert_eq!(dis_issue.1, 3, "Dis path must charge extra delay");
    }

    #[test]
    fn queue_overflow_drops_not_panics() {
        let mut p = Sn4lDisBtb::new(
            Sn4lDisConfig {
                queue_capacity: 2,
                btb_prefetch: false,
                ..Sn4lDisConfig::default()
            },
            IsaMode::Fixed4,
        );
        let mut ctx = MockContext::default();
        for b in 0..20u64 {
            p.on_demand(&mut ctx, b * 100, false, false, &RecentInstrs::default());
        }
        assert!(p.stats().queue_drops > 0);
        drain(&mut p, &mut ctx, 4);
    }

    #[test]
    fn storage_is_about_7_6_kb() {
        let p = Sn4lDisBtb::paper_sized();
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            (6.5..8.5).contains(&kb),
            "total storage {kb:.2} KB, paper says 7.6 KB"
        );
    }

    /// The worked example of §V-E / Fig. 10, followed literally:
    /// block A misses; SeqTable says its four successors have status
    /// bits 0, 1, 0, 1, so SN4L considers only A+2 and A+4; the RLU
    /// filters A+2 (recently looked up); A+4 misses and is prefetched.
    /// DisTable holds offset 9 for block A; the pre-decoder finds a
    /// branch in slot 9 targeting block C, which is not in the RLU or
    /// the cache, so C is prefetched too.
    #[test]
    fn fig10_worked_example() {
        let mut p = Sn4lDisBtb::new(Sn4lDisConfig::without_btb(), IsaMode::Fixed4);
        let mut ctx = MockContext::default();
        let a: Block = 1000;
        let c: Block = 2000;

        // SeqTable: A+1 and A+3 learned useless.
        p.seq.reset(a + 1);
        p.seq.reset(a + 3);
        // DisTable: offset 9 recorded for block A.
        p.dis.record_from_recent(&{
            let mut r = RecentInstrs::default();
            r.push(Instr::branch(a * 64 + 9 * 4, 4, InstrKind::Jump, c * 64));
            r
        });
        // The pre-decoder sees a branch in slot 9 of block A -> C.
        ctx.code.insert(
            a,
            vec![BtbEntry {
                pc: a * 64 + 9 * 4,
                target: c * 64,
                class: BranchClass::Jump,
            }],
        );
        // A+2 was recently looked up (RLU filters it).
        p.rlu.check_insert(a + 2);
        // A+2 is also already resident in the cache.
        ctx.resident.insert(a + 2);

        // Access to block A (a miss -> fetch request).
        p.on_demand(&mut ctx, a, false, false, &RecentInstrs::default());
        drain(&mut p, &mut ctx, 12);

        let prefetched: Vec<Block> = ctx.issued.iter().map(|&(b, _)| b).collect();
        assert!(
            prefetched.contains(&(a + 4)),
            "A+4 prefetched: {prefetched:?}"
        );
        assert!(prefetched.contains(&c), "C prefetched: {prefetched:?}");
        assert!(
            !prefetched.contains(&(a + 1)) && !prefetched.contains(&(a + 3)),
            "status-0 blocks must not be prefetched: {prefetched:?}"
        );
        assert!(
            !prefetched.contains(&(a + 2)),
            "RLU must filter A+2: {prefetched:?}"
        );
    }

    #[test]
    fn names_reflect_btb_mode() {
        assert_eq!(Sn4lDisBtb::paper_sized().name(), "SN4L+Dis+BTB");
        assert_eq!(
            Sn4lDisBtb::new(Sn4lDisConfig::without_btb(), IsaMode::Fixed4).name(),
            "SN4L+Dis"
        );
    }
}
