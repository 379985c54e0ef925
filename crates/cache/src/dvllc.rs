//! The dynamically-virtualized LLC (DV-LLC) of §V-D.
//!
//! DV-LLC stores branch footprints (BFs) for instruction blocks *inside*
//! the LLC itself, without dedicating static storage: in any set that
//! holds at least one instruction block, the LRU way switches from
//! *block-holder* to *BF-holder* mode and stores the BFs of the set's
//! instruction blocks. When the last instruction block leaves a set, the
//! way reverts to holding data.
//!
//! The paper sizes the BF-holder at up to 21 direct-mapped BFs (one per
//! way, 3 B each in a 64 B line) or, with tags for a fully-associative
//! organization, up to 10 BFs — more than the ≤ 4 BFs per set that
//! Fig. 9 shows are needed.

use crate::cache::LineFlags;
use crate::footprint::BranchFootprint;
use crate::lru::LruSets;
use dcfb_trace::Block;

/// DV-LLC statistics, including the mode-switching behaviour and the
/// data-capacity cost that §VII-J reports (≤ 0.1 % data hit-ratio drop).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DvLlcStats {
    /// Demand accesses for instruction blocks.
    pub instr_accesses: u64,
    /// Demand hits for instruction blocks.
    pub instr_hits: u64,
    /// Demand accesses for data blocks.
    pub data_accesses: u64,
    /// Demand hits for data blocks.
    pub data_hits: u64,
    /// BF lookups that found a footprint.
    pub bf_hits: u64,
    /// BF lookups that missed.
    pub bf_misses: u64,
    /// Footprints inserted.
    pub bf_inserts: u64,
    /// Footprints dropped because the BF-holder was full.
    pub bf_capacity_drops: u64,
    /// Sets that switched into BF-holder mode.
    pub switches_to_bf: u64,
    /// Sets that reverted to block-holder mode.
    pub switches_to_block: u64,
    /// Valid data blocks evicted to free the LRU way for BFs.
    pub data_evicted_for_bf: u64,
}

impl DvLlcStats {
    /// Instruction hit ratio in `[0, 1]`.
    pub fn instr_hit_ratio(&self) -> f64 {
        if self.instr_accesses == 0 {
            0.0
        } else {
            self.instr_hits as f64 / self.instr_accesses as f64
        }
    }

    /// Data hit ratio in `[0, 1]`.
    pub fn data_hit_ratio(&self) -> f64 {
        if self.data_accesses == 0 {
            0.0
        } else {
            self.data_hits as f64 / self.data_accesses as f64
        }
    }
}

/// The tag of a set's BF-holder way. Block tags are whole block
/// numbers, below 2^58, so no block ever matches it.
const BF_HOLDER: u64 = u64::MAX;

/// A set-associative LLC whose LRU way dynamically virtualizes branch
/// footprints (see module docs).
///
/// A set in BF-holder mode keeps one way of `lines` tagged
/// [`BF_HOLDER`]; its footprints live in the same set of `bfs`. The
/// holder way is touched before every fill into its set, so it is
/// never the replacement victim while it exists.
#[derive(Clone, Debug)]
pub struct DvLlc {
    /// Tagged by the whole block number.
    lines: LruSets<LineFlags>,
    /// `bf_capacity` footprints per set, tagged by block number.
    bfs: LruSets<BranchFootprint>,
    stats: DvLlcStats,
    enabled: bool,
}

impl DvLlc {
    /// Creates a DV-LLC with `sets` × `ways` lines and room for
    /// `bf_capacity` footprints in each BF-holder way.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, `ways < 2`, or
    /// `bf_capacity` is zero.
    pub fn new(sets: usize, ways: usize, bf_capacity: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways >= 2, "DV-LLC needs at least 2 ways");
        assert!(bf_capacity > 0, "bf_capacity must be non-zero");
        DvLlc {
            lines: LruSets::new(sets, ways),
            bfs: LruSets::new(sets, bf_capacity),
            stats: DvLlcStats::default(),
            enabled: true,
        }
    }

    /// Disables virtualization: behaves as a conventional LLC (all ways
    /// hold blocks, no BFs stored). Used for the §VII-J on/off study.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DvLlcStats {
        self.stats
    }

    /// Resets statistics (keeps contents).
    pub fn reset_stats(&mut self) {
        self.stats = DvLlcStats::default();
    }

    #[inline]
    fn set_index(&self, block: Block) -> usize {
        (block as usize) & (self.lines.sets() - 1)
    }

    /// The BF-holder way of `set`, when the set is in BF-holder mode.
    fn holder(&self, set: usize) -> Option<usize> {
        self.lines.find(set, BF_HOLDER)
    }

    /// Demand access to `block`; `is_instruction` selects which hit-ratio
    /// bucket the access lands in. Returns `true` on hit.
    pub fn demand_access(&mut self, block: Block, is_instruction: bool) -> bool {
        let set = self.set_index(block);
        let way = self.lines.find(set, block);
        if let Some(way) = way {
            self.lines.touch(set, way);
            self.lines.get_mut(set, way).demanded = true;
        }
        let hit = way.is_some();
        if is_instruction {
            self.stats.instr_accesses += 1;
            self.stats.instr_hits += u64::from(hit);
        } else {
            self.stats.data_accesses += 1;
            self.stats.data_hits += u64::from(hit);
        }
        hit
    }

    /// Residency check without LRU update or statistics.
    pub fn contains(&self, block: Block) -> bool {
        self.lines.find(self.set_index(block), block).is_some()
    }

    /// Fills `block`; activates BF mode when the first instruction block
    /// enters a set (evicting the LRU data block if needed). Returns the
    /// evicted block, if any.
    pub fn fill(&mut self, block: Block, flags: LineFlags) -> Option<Block> {
        let set = self.set_index(block);
        if let Some(way) = self.lines.find(set, block) {
            let had_instr = self.set_has_instruction(set);
            let was_instr = std::mem::replace(self.lines.get_mut(set, way), flags).is_instruction;
            self.lines.touch(set, way);
            if self.enabled && flags.is_instruction && !had_instr {
                return self.activate_bf(set);
            }
            // An instruction block refilled as data may have been the
            // set's last one.
            if was_instr && !flags.is_instruction {
                self.on_instruction_departure(set);
            }
            return None;
        }
        let mut evicted = None;
        if self.enabled && flags.is_instruction && !self.set_has_instruction(set) {
            evicted = self.activate_bf(set);
        }
        // Touched first, the holder way is never the victim.
        if let Some(holder) = self.holder(set) {
            self.lines.touch(set, holder);
        }
        if let Some((out, old)) = self.lines.insert(set, block, flags) {
            evicted = Some(out);
            if old.is_instruction {
                self.on_instruction_departure(set);
            }
        }
        evicted
    }

    /// Stores the footprint for an instruction block. Silently drops it
    /// (counting `bf_capacity_drops`) if the set's holder is full, or
    /// does nothing when virtualization is disabled or the set is not in
    /// BF mode.
    pub fn insert_bf(&mut self, block: Block, bf: BranchFootprint) {
        let set = self.set_index(block);
        if !self.enabled || self.holder(set).is_none() {
            return;
        }
        match self.bfs.find(set, block) {
            Some(way) => {
                *self.bfs.get_mut(set, way) = bf;
                self.bfs.touch(set, way);
            }
            // A full holder replaces its LRU footprint.
            None => {
                if self.bfs.insert(set, block, bf).is_some() {
                    self.stats.bf_capacity_drops += 1;
                }
            }
        }
        self.stats.bf_inserts += 1;
    }

    /// Retrieves the footprint for `block`, if stored.
    pub fn bf_lookup(&mut self, block: Block) -> Option<BranchFootprint> {
        let set = self.set_index(block);
        let found = self.bfs.find(set, block).map(|way| *self.bfs.get(set, way));
        if found.is_some() {
            self.stats.bf_hits += 1;
        } else {
            self.stats.bf_misses += 1;
        }
        found
    }

    /// Number of sets currently in BF-holder mode.
    pub fn bf_mode_sets(&self) -> usize {
        (0..self.lines.sets())
            .filter(|&set| self.holder(set).is_some())
            .count()
    }

    fn set_has_instruction(&self, set: usize) -> bool {
        self.lines.iter(set).any(|(_, f)| f.is_instruction)
    }

    /// Turns `set`'s LRU way into its BF holder: the holder takes a free
    /// way if there is one, else the set's LRU block leaves.
    fn activate_bf(&mut self, set: usize) -> Option<Block> {
        if self.holder(set).is_some() {
            return None;
        }
        self.stats.switches_to_bf += 1;
        let (out, _) = self.lines.insert(set, BF_HOLDER, LineFlags::default())?;
        self.stats.data_evicted_for_bf += 1;
        Some(out)
    }

    /// Reverts `set` to holding blocks only once its last instruction
    /// block has left; its footprints go with the holder way.
    fn on_instruction_departure(&mut self, set: usize) {
        let Some(holder) = self.holder(set) else {
            return;
        };
        if self.set_has_instruction(set) {
            return;
        }
        self.lines.invalidate(set, holder);
        for way in 0..self.bfs.ways() {
            self.bfs.invalidate(set, way);
        }
        self.stats.switches_to_block += 1;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn instr_flags() -> LineFlags {
        LineFlags {
            is_instruction: true,
            ..LineFlags::default()
        }
    }

    fn data_flags() -> LineFlags {
        LineFlags::default()
    }

    fn bf(offsets: &[u8]) -> BranchFootprint {
        let mut f = BranchFootprint::new();
        for &o in offsets {
            f.push(o);
        }
        f
    }

    #[test]
    fn data_only_set_uses_all_ways() {
        let mut llc = DvLlc::new(4, 4, 2);
        for i in 0..4u64 {
            llc.fill(i * 4, data_flags()); // all set 0
        }
        for i in 0..4u64 {
            assert!(llc.contains(i * 4), "block {}", i * 4);
        }
        assert_eq!(llc.bf_mode_sets(), 0);
    }

    #[test]
    fn instruction_fill_activates_bf_mode() {
        let mut llc = DvLlc::new(4, 4, 2);
        llc.fill(0, instr_flags());
        assert_eq!(llc.bf_mode_sets(), 1);
        assert_eq!(llc.stats().switches_to_bf, 1);
    }

    #[test]
    fn bf_mode_reduces_usable_ways() {
        let mut llc = DvLlc::new(4, 4, 2);
        llc.fill(0, instr_flags());
        // Only 3 ways now usable in set 0: the 4th fill evicts.
        llc.fill(4, data_flags());
        llc.fill(8, data_flags());
        let evicted = llc.fill(12, data_flags());
        assert!(evicted.is_some());
    }

    #[test]
    fn full_set_activation_evicts_lru_data() {
        let mut llc = DvLlc::new(4, 4, 2);
        for i in 0..4u64 {
            llc.fill(i * 4, data_flags());
        }
        // Touch all but block 0 so block 0 is LRU.
        for i in 1..4u64 {
            llc.demand_access(i * 4, false);
        }
        let evicted = llc.fill(16, instr_flags());
        // Activation evicts the LRU (block 0) for the BF way; the fill
        // itself then evicts the next-LRU (block 4) from the 3 usable
        // ways — two departures total, exactly as in hardware.
        assert_eq!(llc.stats().data_evicted_for_bf, 1);
        assert_eq!(evicted, Some(4));
        assert!(!llc.contains(0));
        assert!(!llc.contains(4));
        assert!(llc.contains(8));
        assert!(llc.contains(12));
        assert!(llc.contains(16));
    }

    #[test]
    fn bf_store_and_lookup() {
        let mut llc = DvLlc::new(4, 4, 4);
        llc.fill(0, instr_flags());
        llc.insert_bf(0, bf(&[4, 12]));
        assert_eq!(llc.bf_lookup(0), Some(bf(&[4, 12])));
        assert_eq!(llc.bf_lookup(16), None);
        let s = llc.stats();
        assert_eq!(s.bf_hits, 1);
        assert_eq!(s.bf_misses, 1);
        assert_eq!(s.bf_inserts, 1);
    }

    #[test]
    fn bf_capacity_evicts_lru_footprint() {
        let mut llc = DvLlc::new(4, 8, 2);
        for i in 0..3u64 {
            llc.fill(i * 4, instr_flags());
            llc.insert_bf(i * 4, bf(&[i as u8]));
        }
        assert_eq!(llc.stats().bf_capacity_drops, 1);
        // The oldest footprint (block 0) was replaced.
        assert_eq!(llc.bf_lookup(0), None);
        assert!(llc.bf_lookup(4).is_some());
        assert!(llc.bf_lookup(8).is_some());
    }

    #[test]
    fn mode_reverts_when_last_instruction_leaves() {
        let mut llc = DvLlc::new(4, 4, 2);
        llc.fill(0, instr_flags());
        llc.insert_bf(0, bf(&[1]));
        assert_eq!(llc.bf_mode_sets(), 1);
        // Three usable ways: the third data fill evicts block 0, the
        // set's only (and least recently used) instruction block.
        for b in [4u64, 8, 12] {
            llc.fill(b, data_flags());
        }
        assert!(!llc.contains(0));
        assert_eq!(llc.bf_mode_sets(), 0);
        assert_eq!(llc.stats().switches_to_block, 1);
        // Footprints are gone with the mode.
        llc.fill(0, instr_flags());
        assert_eq!(llc.bf_lookup(0), None);
    }

    #[test]
    fn mode_reverts_when_last_instruction_is_refilled_as_data() {
        let mut llc = DvLlc::new(4, 4, 2);
        llc.fill(0, instr_flags());
        llc.insert_bf(0, bf(&[1]));
        assert_eq!(llc.bf_mode_sets(), 1);
        // Block 0 stays resident but now holds data: the set has no
        // instruction block left, so the holder way returns to data.
        assert_eq!(llc.fill(0, data_flags()), None);
        assert!(llc.contains(0));
        assert_eq!(llc.bf_mode_sets(), 0);
        assert_eq!(llc.stats().switches_to_block, 1);
        assert_eq!(llc.bf_lookup(0), None);
        // All four ways hold blocks again.
        for b in [4u64, 8, 12] {
            assert_eq!(llc.fill(b, data_flags()), None);
        }
    }

    #[test]
    fn refill_as_data_keeps_mode_while_an_instruction_block_remains() {
        let mut llc = DvLlc::new(4, 4, 2);
        llc.fill(0, instr_flags());
        llc.fill(4, instr_flags());
        llc.fill(0, data_flags());
        assert_eq!(llc.bf_mode_sets(), 1);
        assert_eq!(llc.stats().switches_to_block, 0);
    }

    #[test]
    fn disabled_dvllc_behaves_conventionally() {
        let mut llc = DvLlc::new(4, 4, 2);
        llc.set_enabled(false);
        llc.fill(0, instr_flags());
        assert_eq!(llc.bf_mode_sets(), 0);
        llc.insert_bf(0, bf(&[1]));
        assert_eq!(llc.stats().bf_inserts, 0);
        // All 4 ways usable.
        for i in 1..4u64 {
            llc.fill(i * 4, data_flags());
        }
        for i in 0..4u64 {
            assert!(llc.contains(i * 4));
        }
    }

    #[test]
    fn hit_ratio_buckets_split_by_kind() {
        let mut llc = DvLlc::new(4, 4, 2);
        llc.fill(0, instr_flags());
        llc.fill(1, data_flags());
        assert!(llc.demand_access(0, true));
        assert!(llc.demand_access(1, false));
        assert!(!llc.demand_access(32, false));
        let s = llc.stats();
        assert_eq!(s.instr_accesses, 1);
        assert_eq!(s.instr_hits, 1);
        assert_eq!(s.data_accesses, 2);
        assert_eq!(s.data_hits, 1);
        assert!((s.instr_hit_ratio() - 1.0).abs() < 1e-12);
        assert!((s.data_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_of_instruction_block_by_data_reverts_mode() {
        let mut llc = DvLlc::new(4, 2, 2);
        llc.fill(0, instr_flags()); // set 0, bf mode on; 1 usable way
                                    // Fill data into the single usable way, evicting the instr block.
        let ev = llc.fill(4, data_flags());
        assert_eq!(ev, Some(0));
        assert_eq!(llc.bf_mode_sets(), 0);
    }

    #[test]
    fn activation_with_free_ways_loses_no_block() {
        let mut llc = DvLlc::new(4, 4, 2);
        llc.fill(8, data_flags());
        llc.fill(12, data_flags());
        // Two free ways: one becomes the BF holder, the other takes the
        // new block. No resident block may be lost.
        let ev = llc.fill(16, instr_flags());
        assert_eq!(ev, None);
        assert_eq!(llc.stats().data_evicted_for_bf, 0);
        for b in [8u64, 12, 16] {
            assert!(llc.contains(b), "lost block {b}");
        }
    }
}
