//! Shotgun's split BTB: U-BTB + C-BTB + RIB with spatial footprints.
//!
//! Shotgun (ASPLOS'18, [20]) dedicates most of its BTB budget to
//! unconditional branches (U-BTB), keeps a tiny conditional-branch BTB
//! (C-BTB) that is aggressively prefilled by pre-decoding, and tracks
//! returns in a RIB. Each U-BTB entry additionally stores two *spatial
//! footprints* learned from the retired instruction stream:
//!
//! * the **call footprint** — which blocks around the branch target were
//!   touched after the control transfer (used to prefetch the callee's
//!   working set), and
//! * the **return footprint** — which blocks around the matching return
//!   target were touched (prefetched when the callee's return is
//!   near).
//!
//! §III of the DCFB paper shows the failure mode this reproduction must
//! exhibit: when the U-BTB cannot hold a workload's unconditional
//! working set, footprints are missing (*footprint misses*, Fig. 1),
//! proactive prefetching stops, C-BTB prefilling starves, and the core
//! crawls block-by-block (Table I's empty-FTQ stalls).

use crate::btb::BranchClass;
use dcfb_cache::LruSets;
use dcfb_trace::Addr;

/// A spatial footprint: bit `i` set means block `base_block + i` was
/// touched, where `base_block` is the block of the footprint's anchor
/// address (branch target for call footprints, return target for return
/// footprints).
pub type SpatialFootprint = u8;

/// One U-BTB entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UBtbEntry {
    /// Basic-block start this entry is keyed by.
    pub pc: Addr,
    /// Address of the terminating branch instruction (the basic block
    /// spans `pc..=end`).
    pub end: Addr,
    /// Branch target.
    pub target: Addr,
    /// Branch class (unconditional: jump/call/indirect).
    pub class: BranchClass,
    /// Blocks touched around `target` (0 = not yet learned).
    pub call_footprint: SpatialFootprint,
    /// Blocks touched around the matching return target
    /// (0 = not yet learned).
    pub ret_footprint: SpatialFootprint,
}

/// Shotgun BTB geometry (defaults follow §VI-D2: 1.5 K U-BTB,
/// 128-entry C-BTB, 512-entry RIB).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShotgunBtbConfig {
    /// U-BTB entries.
    pub u_entries: usize,
    /// C-BTB entries.
    pub c_entries: usize,
    /// RIB entries.
    pub r_entries: usize,
    /// Associativity of every component.
    pub ways: usize,
}

impl Default for ShotgunBtbConfig {
    fn default() -> Self {
        ShotgunBtbConfig {
            u_entries: 1536,
            c_entries: 128,
            r_entries: 512,
            ways: 4,
        }
    }
}

impl ShotgunBtbConfig {
    /// A configuration scaled by `factor` (Fig. 18's BTB-size sweep
    /// shrinks all components proportionally).
    pub fn scaled(factor: f64) -> Self {
        let d = ShotgunBtbConfig::default();
        let scale = |n: usize| (((n as f64) * factor) as usize).max(8);
        ShotgunBtbConfig {
            u_entries: scale(d.u_entries),
            c_entries: scale(d.c_entries),
            r_entries: scale(d.r_entries),
            ways: d.ways,
        }
    }
}

/// Per-component and footprint statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShotgunBtbStats {
    /// U-BTB lookups (unconditional branch sites).
    pub u_lookups: u64,
    /// U-BTB hits.
    pub u_hits: u64,
    /// U-BTB hits whose call footprint was learned (non-zero).
    pub u_footprint_hits: u64,
    /// C-BTB lookups.
    pub c_lookups: u64,
    /// C-BTB hits.
    pub c_hits: u64,
    /// RIB lookups.
    pub r_lookups: u64,
    /// RIB hits.
    pub r_hits: u64,
}

impl ShotgunBtbStats {
    /// The paper's Fig. 1 metric: the fraction of U-BTB accesses that
    /// could not supply a learned footprint (entry missing *or* entry
    /// present with an unconstructed footprint).
    pub fn footprint_miss_ratio(&self) -> f64 {
        if self.u_lookups == 0 {
            0.0
        } else {
            1.0 - self.u_footprint_hits as f64 / self.u_lookups as f64
        }
    }
}

/// The three-part Shotgun BTB. Each component is tagged by `pc >> 2`.
#[derive(Clone, Debug)]
pub struct ShotgunBtb {
    u: LruSets<UBtbEntry>,
    /// `(end, target)` of a conditional-branch basic block.
    c: LruSets<(Addr, Addr)>,
    /// `end` of a return basic block.
    r: LruSets<Addr>,
    stats: ShotgunBtbStats,
}

/// The `(set, tag)` of `pc` in a component of `sets` sets.
fn locate(sets: usize, pc: Addr) -> (usize, u64) {
    (((pc >> 2) % sets as u64) as usize, pc >> 2)
}

/// Looks `pc` up in a component, touching the way on a hit.
fn lookup<T: Copy + Default>(table: &mut LruSets<T>, pc: Addr) -> Option<T> {
    let (set, tag) = locate(table.sets(), pc);
    let way = table.find(set, tag)?;
    table.touch(set, way);
    Some(*table.get(set, way))
}

/// Inserts `new` for `pc` into a component, or, when `pc` is resident,
/// lets `refresh` rewrite its payload and touches it.
fn upsert<T: Copy + Default>(
    table: &mut LruSets<T>,
    pc: Addr,
    new: T,
    refresh: impl FnOnce(&mut T),
) {
    let (set, tag) = locate(table.sets(), pc);
    match table.find(set, tag) {
        Some(way) => {
            refresh(table.get_mut(set, way));
            table.touch(set, way);
        }
        None => {
            table.insert(set, tag, new);
        }
    }
}

impl ShotgunBtb {
    /// Creates an empty split BTB.
    ///
    /// # Panics
    ///
    /// Panics if any component size is not a multiple of `ways`.
    pub fn new(cfg: ShotgunBtbConfig) -> Self {
        for (n, name) in [
            (cfg.u_entries, "u_entries"),
            (cfg.c_entries, "c_entries"),
            (cfg.r_entries, "r_entries"),
        ] {
            assert!(
                n % cfg.ways == 0 && n > 0,
                "{name} ({n}) not divisible by ways ({})",
                cfg.ways
            );
        }
        ShotgunBtb {
            u: LruSets::new(cfg.u_entries / cfg.ways, cfg.ways),
            c: LruSets::new(cfg.c_entries / cfg.ways, cfg.ways),
            r: LruSets::new(cfg.r_entries / cfg.ways, cfg.ways),
            stats: ShotgunBtbStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ShotgunBtbStats {
        self.stats
    }

    /// Resets statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = ShotgunBtbStats::default();
    }

    /// Looks up an unconditional branch in the U-BTB.
    pub fn lookup_u(&mut self, pc: Addr) -> Option<UBtbEntry> {
        self.stats.u_lookups += 1;
        let e = lookup(&mut self.u, pc)?;
        self.stats.u_hits += 1;
        if e.call_footprint != 0 {
            self.stats.u_footprint_hits += 1;
        }
        Some(UBtbEntry { pc, ..e })
    }

    /// Looks up a conditional-branch basic block in the C-BTB; returns
    /// `(end, target)` — the terminating branch address and its taken
    /// target.
    pub fn lookup_c(&mut self, pc: Addr) -> Option<(Addr, Addr)> {
        self.stats.c_lookups += 1;
        let hit = lookup(&mut self.c, pc);
        self.stats.c_hits += u64::from(hit.is_some());
        hit
    }

    /// Looks up a return basic block in the RIB; returns the address of
    /// the return instruction.
    pub fn lookup_r(&mut self, pc: Addr) -> Option<Addr> {
        self.stats.r_lookups += 1;
        let hit = lookup(&mut self.r, pc);
        self.stats.r_hits += u64::from(hit.is_some());
        hit
    }

    /// Checks, without disturbing LRU or statistics, whether the U-BTB
    /// holds `pc` and whether its call footprint has been learned.
    /// Returns `None` on a miss, `Some(has_footprint)` on a hit. Used
    /// for the retire-side Fig. 1 accounting.
    pub fn peek_u_footprint(&self, pc: Addr) -> Option<bool> {
        let (set, tag) = locate(self.u.sets(), pc);
        let way = self.u.find(set, tag)?;
        Some(self.u.get(set, way).call_footprint != 0)
    }

    /// Inserts (or refreshes) an unconditional branch. Footprints of a
    /// *new* entry start unlearned; a refresh keeps the learned
    /// footprints and updates the target.
    pub fn insert_u(&mut self, pc: Addr, end: Addr, target: Addr, class: BranchClass) {
        let new = UBtbEntry {
            pc,
            end,
            target,
            class,
            call_footprint: 0,
            ret_footprint: 0,
        };
        upsert(&mut self.u, pc, new, |e| {
            *e = UBtbEntry {
                call_footprint: e.call_footprint,
                ret_footprint: e.ret_footprint,
                ..new
            }
        });
    }

    /// Merges learned footprints into an existing U-BTB entry (no-op if
    /// the branch has been evicted — footprints cannot be prefilled,
    /// which is exactly Fig. 1's pathology).
    pub fn learn_footprints(
        &mut self,
        pc: Addr,
        call_fp: SpatialFootprint,
        ret_fp: SpatialFootprint,
    ) {
        let (set, tag) = locate(self.u.sets(), pc);
        if let Some(way) = self.u.find(set, tag) {
            let e = self.u.get_mut(set, way);
            e.call_footprint |= call_fp;
            e.ret_footprint |= ret_fp;
        }
    }

    /// Inserts a conditional-branch basic block into the C-BTB.
    pub fn insert_c(&mut self, pc: Addr, end: Addr, target: Addr) {
        upsert(&mut self.c, pc, (end, target), |e| *e = (end, target));
    }

    /// Inserts a return basic block into the RIB.
    pub fn insert_r(&mut self, pc: Addr, end: Addr) {
        upsert(&mut self.r, pc, end, |e| *e = end);
    }
}

/// Expands a footprint into block numbers given its anchor block, in
/// ascending order.
pub fn footprint_blocks(anchor_block: u64, fp: SpatialFootprint) -> impl Iterator<Item = u64> {
    (0..8u64)
        .filter(move |i| fp & (1 << i) != 0)
        .map(move |i| anchor_block + i)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn btb() -> ShotgunBtb {
        ShotgunBtb::new(ShotgunBtbConfig {
            u_entries: 16,
            c_entries: 8,
            r_entries: 8,
            ways: 2,
        })
    }

    #[test]
    fn u_btb_miss_insert_hit() {
        let mut b = btb();
        assert!(b.lookup_u(0x100).is_none());
        b.insert_u(0x100, 0x10c, 0x900, BranchClass::Call);
        let e = b.lookup_u(0x100).unwrap();
        assert_eq!(e.target, 0x900);
        assert_eq!(e.class, BranchClass::Call);
        assert_eq!(e.call_footprint, 0);
    }

    #[test]
    fn footprint_learning_and_miss_ratio() {
        let mut b = btb();
        b.insert_u(0x100, 0x10c, 0x900, BranchClass::Call);
        b.lookup_u(0x100); // hit, but footprint unlearned
        b.learn_footprints(0x100, 0b101, 0b1);
        let e = b.lookup_u(0x100).unwrap();
        assert_eq!(e.call_footprint, 0b101);
        assert_eq!(e.ret_footprint, 0b1);
        // 2 lookups: 1 hit without a footprint + 1 hit with one.
        let s = b.stats();
        assert_eq!(s.u_lookups, 2);
        assert_eq!(s.u_footprint_hits, 1);
        assert!((s.footprint_miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn footprints_lost_on_eviction() {
        let mut b = btb();
        // U-BTB: 16 entries / 2 ways = 8 sets; pc stride 8*4=32 keeps set.
        b.insert_u(0x0, 0xc, 0x900, BranchClass::Call);
        b.learn_footprints(0x0, 0xff, 0xff);
        b.insert_u(0x20, 0x2c, 0x901, BranchClass::Call);
        b.insert_u(0x40, 0x4c, 0x902, BranchClass::Call); // evicts 0x0 (LRU)
        assert!(b.lookup_u(0x0).is_none());
        b.insert_u(0x0, 0xc, 0x900, BranchClass::Call); // prefill-style reinsert
                                                        // Footprint must be unlearned again — BTB prefilling cannot
                                                        // restore footprints (the §III pathology).
        assert_eq!(b.lookup_u(0x0).unwrap().call_footprint, 0);
    }

    #[test]
    fn learn_into_evicted_entry_is_noop() {
        let mut b = btb();
        b.learn_footprints(0x500, 0xff, 0xff);
        assert!(b.lookup_u(0x500).is_none());
    }

    #[test]
    fn c_btb_and_rib_roundtrip() {
        let mut b = btb();
        assert!(b.lookup_c(0x10).is_none());
        b.insert_c(0x10, 0x1c, 0x300);
        assert_eq!(b.lookup_c(0x10), Some((0x1c, 0x300)));
        assert!(b.lookup_r(0x14).is_none());
        b.insert_r(0x14, 0x18);
        assert_eq!(b.lookup_r(0x14), Some(0x18));
        let s = b.stats();
        assert_eq!(s.c_lookups, 2);
        assert_eq!(s.c_hits, 1);
        assert_eq!(s.r_hits, 1);
    }

    #[test]
    fn refresh_keeps_footprints() {
        let mut b = btb();
        b.insert_u(0x100, 0x10c, 0x900, BranchClass::Call);
        b.learn_footprints(0x100, 0b11, 0);
        b.insert_u(0x100, 0x10c, 0x904, BranchClass::Call); // target changed
        let e = b.lookup_u(0x100).unwrap();
        assert_eq!(e.target, 0x904);
        assert_eq!(e.call_footprint, 0b11);
    }

    #[test]
    fn footprint_helpers() {
        assert_eq!(footprint_blocks(100, 0b101).collect::<Vec<_>>(), [100, 102]);
        assert_eq!(footprint_blocks(5, 0).count(), 0);
    }

    #[test]
    fn scaled_config() {
        let half = ShotgunBtbConfig::scaled(0.5);
        assert_eq!(half.u_entries, 768);
        assert_eq!(half.c_entries, 64);
        let tiny = ShotgunBtbConfig::scaled(0.001);
        assert!(tiny.u_entries >= 8);
    }

    #[test]
    fn default_is_papers_configuration() {
        let d = ShotgunBtbConfig::default();
        assert_eq!(d.u_entries, 1536);
        assert_eq!(d.c_entries, 128);
        assert_eq!(d.r_entries, 512);
    }

    #[test]
    fn c_btb_eviction_prefers_lru_and_keeps_refreshed() {
        // C-BTB: 8 entries / 2 ways = 4 sets; pc stride 0x10 keeps the
        // set index while changing the tag.
        let mut b = btb();
        b.insert_c(0x0, 0xc, 0x300);
        b.insert_c(0x10, 0x1c, 0x301);
        let _ = b.lookup_c(0x0); // refresh: 0x10 becomes the LRU
        b.insert_c(0x20, 0x2c, 0x302);
        assert_eq!(b.lookup_c(0x0), Some((0xc, 0x300)));
        assert!(b.lookup_c(0x10).is_none());
        assert_eq!(b.lookup_c(0x20), Some((0x2c, 0x302)));
    }

    #[test]
    fn rib_eviction_under_set_pressure() {
        // RIB: 8 entries / 2 ways = 4 sets; 0x4, 0x14, 0x24 share a set.
        let mut b = btb();
        b.insert_r(0x4, 0x8);
        b.insert_r(0x14, 0x18);
        b.insert_r(0x24, 0x28); // evicts 0x4 (LRU)
        assert!(b.lookup_r(0x4).is_none());
        assert_eq!(b.lookup_r(0x14), Some(0x18));
        assert_eq!(b.lookup_r(0x24), Some(0x28));
    }

    #[test]
    fn full_tags_prevent_same_set_aliasing() {
        // U-BTB: 16 entries / 2 ways = 8 sets; 0x0 and 0x20 share set 0
        // but carry different full tags, and the three components are
        // independent structures.
        let mut b = btb();
        b.insert_u(0x0, 0xc, 0x900, BranchClass::Jump);
        assert!(b.lookup_u(0x20).is_none(), "same set, different tag");
        assert!(b.lookup_c(0x0).is_none(), "components are independent");
        assert!(b.lookup_r(0x0).is_none());
        assert_eq!(b.lookup_u(0x0).unwrap().target, 0x900);
    }

    #[test]
    fn capacity_pressure_evicts_lru() {
        let mut b = ShotgunBtb::new(ShotgunBtbConfig {
            u_entries: 4,
            c_entries: 4,
            r_entries: 4,
            ways: 4,
        });
        for i in 0..8u64 {
            b.insert_u(i * 4, i * 4, 0x100 + i, BranchClass::Jump);
        }
        // Only the last 4 survive (single set, 4 ways).
        let survivors = (0..8u64).filter(|&i| b.lookup_u(i * 4).is_some()).count();
        assert_eq!(survivors, 4);
    }
}
