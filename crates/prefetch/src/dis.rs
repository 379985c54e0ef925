//! Dis: the lightweight discontinuity prefetcher (§V-B).
//!
//! Dis covers the misses SN4L cannot: those caused by taken branches.
//! Instead of storing target *addresses* (tens of KB in the
//! conventional design), the DisTable records only the intra-block
//! offset of the branch that caused a discontinuity; the target is
//! recovered by pre-decoding the branch when the block is (pre)fetched
//! again.
//!
//! * **Recording** — on every cache miss, the last two demanded
//!   instructions are examined (two because of the SPARC delay slot);
//!   if one is a branch, its offset is recorded under *its own* block.
//! * **Replaying** — on every fetch/prefetch of a block, the DisTable
//!   is consulted; on a (partial-tag) match the instruction at the
//!   stored offset is pre-decoded, and if it is a branch its target
//!   block is prefetched (consulting the BTB for indirect targets).

use crate::context::{InstrPrefetcher, PrefetchContext, RecentInstrs};
use crate::tables::{DisTable, TagPolicy};
use dcfb_telemetry::PfSource;
use dcfb_trace::{block_of, Block};

/// The discontinuity prefetcher.
#[derive(Clone, Debug)]
pub struct Dis {
    table: DisTable,
    /// Extra issue latency charged to Dis prefetches (DisTable lookup +
    /// pre-decode path, §VII-D).
    issue_delay: u64,
    issued: u64,
    records: u64,
    decode_mismatches: u64,
    unresolved_indirects: u64,
}

impl Dis {
    /// Creates Dis with the paper's 4 K-entry, 4-bit partially-tagged
    /// DisTable.
    pub fn paper_sized() -> Self {
        Dis::with_table(DisTable::paper_sized())
    }

    /// Creates Dis over a custom table (size and tagging sweeps,
    /// Fig. 11/12).
    pub fn with_table(table: DisTable) -> Self {
        Dis {
            table,
            issue_delay: 3,
            issued: 0,
            records: 0,
            decode_mismatches: 0,
            unresolved_indirects: 0,
        }
    }

    /// `(issued, recorded, decode_mismatches, unresolved_indirects)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.issued,
            self.records,
            self.decode_mismatches,
            self.unresolved_indirects,
        )
    }

    /// The tagging policy in use.
    pub fn policy(&self) -> TagPolicy {
        self.table.policy()
    }

    /// Records a discontinuity from `recent` (shared with the combined
    /// engine). Returns `true` if something was recorded.
    pub fn record_from_recent(&mut self, recent: &RecentInstrs) -> bool {
        let Some(branch) = recent.last_branch() else {
            return false;
        };
        let offset = match self.offset_mode() {
            OffsetMode::Byte => branch.byte_offset() as u8,
            OffsetMode::Instr => (branch.byte_offset() / 4) as u8,
        };
        self.table.record(block_of(branch.pc), offset);
        self.records += 1;
        true
    }

    /// Computes the discontinuity target recorded for `block` without
    /// issuing a prefetch or touching the cache: DisTable lookup,
    /// pre-decode at the stored offset, BTB consultation for indirect
    /// targets. Used directly by the combined engine, which routes the
    /// candidate through its RLU.
    pub fn peek_target<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
    ) -> Option<Block> {
        let offset = self.table.lookup(block)?;
        let byte_offset = match self.offset_mode() {
            OffsetMode::Instr => u32::from(offset) * 4,
            OffsetMode::Byte => u32::from(offset),
        };
        let Some(entry) = ctx.decode_branch_at(block, byte_offset) else {
            // Aliased entry or stale code: the instruction at the offset
            // is not a branch — "we do nothing" (§V-B).
            self.decode_mismatches += 1;
            return None;
        };
        let target = if entry.target != 0 {
            entry.target
        } else {
            match ctx.btb_target(entry.pc) {
                Some(t) => t,
                None => {
                    // "If the instruction is not found in BTB, no
                    // prefetch request will be sent."
                    self.unresolved_indirects += 1;
                    return None;
                }
            }
        };
        Some(block_of(target))
    }

    /// Replays the table for `block`: if a discontinuity branch is
    /// recorded, decode it and prefetch its target. Returns the
    /// prefetched target block, if any.
    pub fn replay<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
    ) -> Option<Block> {
        let target_block = self.peek_target(ctx, block)?;
        if !ctx.l1i_lookup(target_block) {
            ctx.issue_prefetch(target_block, PfSource::Dis, self.issue_delay);
            self.issued += 1;
        }
        Some(target_block)
    }

    fn offset_mode(&self) -> OffsetMode {
        // DisTable with 6 offset bits => byte offsets (VL-ISA, §V-D).
        if self.table.offset_bits() == 6 {
            OffsetMode::Byte
        } else {
            OffsetMode::Instr
        }
    }
}

enum OffsetMode {
    Instr,
    Byte,
}

impl InstrPrefetcher for Dis {
    fn name(&self) -> String {
        "Dis".to_owned()
    }

    fn storage_bits(&self) -> u64 {
        self.table.storage_bits()
    }

    fn on_demand<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        hit: bool,
        _hit_was_prefetched: bool,
        recent: &RecentInstrs,
    ) {
        if !hit {
            self.record_from_recent(recent);
        }
        // Replay is triggered on every fetch request (§V-B).
        self.replay(ctx, block);
    }

    fn on_fill<C: PrefetchContext + ?Sized>(
        &mut self,
        ctx: &mut C,
        block: Block,
        was_prefetch: bool,
    ) {
        // Prefetched blocks trigger replay when they arrive.
        if was_prefetch {
            self.replay(ctx, block);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::context::MockContext;
    use dcfb_frontend::{BranchClass, BtbEntry};
    use dcfb_trace::{Instr, InstrKind};

    /// Sets up: block 10 contains a jump at byte offset 8 targeting
    /// block 50's base.
    fn ctx_with_branch() -> MockContext {
        let mut ctx = MockContext::default();
        ctx.code.insert(
            10,
            vec![BtbEntry {
                pc: 10 * 64 + 8,
                target: 50 * 64,
                class: BranchClass::Jump,
            }],
        );
        ctx
    }

    fn recent_with_branch() -> RecentInstrs {
        let mut r = RecentInstrs::default();
        r.push(Instr::branch(10 * 64 + 8, 4, InstrKind::Jump, 50 * 64));
        r
    }

    #[test]
    fn record_then_replay_prefetches_target() {
        let mut d = Dis::paper_sized();
        let mut ctx = ctx_with_branch();
        // Miss on block 50 with the jump as the last instruction.
        d.on_demand(&mut ctx, 50, false, false, &recent_with_branch());
        // Re-touching block 10 replays the discontinuity.
        ctx.issued.clear();
        d.on_demand(&mut ctx, 10, true, false, &RecentInstrs::default());
        assert_eq!(ctx.issued, vec![(50, 3)]);
        assert_eq!(d.counters().0, 1);
    }

    #[test]
    fn no_branch_in_recent_records_nothing() {
        let mut d = Dis::paper_sized();
        let mut r = RecentInstrs::default();
        r.push(Instr::other(0x100, 4));
        assert!(!d.record_from_recent(&r));
        assert_eq!(d.counters().1, 0);
    }

    #[test]
    fn decode_mismatch_is_silent() {
        let mut d = Dis::paper_sized();
        let mut ctx = MockContext::default(); // no code at block 10
        d.on_demand(&mut ctx, 50, false, false, &recent_with_branch());
        ctx.issued.clear();
        d.on_demand(&mut ctx, 10, true, false, &RecentInstrs::default());
        assert!(ctx.issued.is_empty());
        assert_eq!(d.counters().2, 1);
    }

    #[test]
    fn indirect_target_resolved_via_btb() {
        let mut d = Dis::paper_sized();
        let mut ctx = MockContext::default();
        let pc = 10 * 64 + 12;
        ctx.code.insert(
            10,
            vec![BtbEntry {
                pc,
                target: 0, // not in encoding
                class: BranchClass::IndirectCall,
            }],
        );
        let mut r = RecentInstrs::default();
        r.push(Instr::branch(pc, 4, InstrKind::IndirectCall, 77 * 64));
        d.on_demand(&mut ctx, 77, false, false, &r);
        ctx.issued.clear();
        // Without a BTB entry: no prefetch.
        d.on_demand(&mut ctx, 10, true, false, &RecentInstrs::default());
        assert!(ctx.issued.is_empty());
        assert_eq!(d.counters().3, 1);
        // With a BTB entry: prefetch follows it.
        ctx.btb.insert(pc, 77 * 64);
        d.on_demand(&mut ctx, 10, true, false, &RecentInstrs::default());
        assert_eq!(ctx.issued, vec![(77, 3)]);
    }

    #[test]
    fn replay_on_prefetch_fill() {
        let mut d = Dis::paper_sized();
        let mut ctx = ctx_with_branch();
        d.on_demand(&mut ctx, 50, false, false, &recent_with_branch());
        ctx.issued.clear();
        ctx.resident.clear();
        // Block 10 arrives as a prefetch: replay fires.
        d.on_fill(&mut ctx, 10, true);
        assert_eq!(ctx.issued, vec![(50, 3)]);
        // Demand fills do not re-trigger replay in the standalone Dis.
        ctx.issued.clear();
        ctx.resident.clear();
        d.on_fill(&mut ctx, 10, false);
        assert!(ctx.issued.is_empty());
    }

    #[test]
    fn resident_target_not_reissued() {
        let mut d = Dis::paper_sized();
        let mut ctx = ctx_with_branch();
        ctx.resident.insert(50);
        d.on_demand(&mut ctx, 50, false, false, &recent_with_branch());
        ctx.issued.clear();
        d.on_demand(&mut ctx, 10, true, false, &RecentInstrs::default());
        assert!(ctx.issued.is_empty());
    }

    #[test]
    fn storage_is_4kb() {
        assert_eq!(Dis::paper_sized().storage_bits(), 4 * 1024 * 8);
        assert_eq!(Dis::paper_sized().name(), "Dis");
    }
}
