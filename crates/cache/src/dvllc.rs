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

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    stamp: u64,
    flags: LineFlags,
}

#[derive(Clone, Debug, Default)]
struct BfHolder {
    active: bool,
    entries: Vec<(u64, BranchFootprint, u64)>, // (tag, bf, stamp)
}

/// A set-associative LLC whose LRU way dynamically virtualizes branch
/// footprints (see module docs).
#[derive(Clone, Debug)]
pub struct DvLlc {
    sets: usize,
    ways: usize,
    bf_capacity: usize,
    lines: Vec<Line>,
    holders: Vec<BfHolder>,
    clock: u64,
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
            sets,
            ways,
            bf_capacity,
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    stamp: 0,
                    flags: LineFlags::default(),
                };
                sets * ways
            ],
            holders: vec![BfHolder::default(); sets],
            clock: 0,
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
        (block as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag(&self, block: Block) -> u64 {
        block >> self.sets.trailing_zeros()
    }

    fn block_from(&self, tag: u64, set: usize) -> Block {
        (tag << self.sets.trailing_zeros()) | set as u64
    }

    /// Number of ways currently usable for blocks in `set`.
    fn usable_ways(&self, set: usize) -> usize {
        if self.holders[set].active {
            self.ways - 1
        } else {
            self.ways
        }
    }

    fn find(&self, block: Block) -> Option<usize> {
        let set = self.set_index(block);
        let tag = self.tag(block);
        let base = set * self.ways;
        (base..base + self.usable_ways(set))
            .find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    /// Demand access to `block`; `is_instruction` selects which hit-ratio
    /// bucket the access lands in. Returns `true` on hit.
    pub fn demand_access(&mut self, block: Block, is_instruction: bool) -> bool {
        self.clock += 1;
        let hit = if let Some(i) = self.find(block) {
            self.lines[i].stamp = self.clock;
            self.lines[i].flags.demanded = true;
            true
        } else {
            false
        };
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
        self.find(block).is_some()
    }

    /// Fills `block`; activates BF mode when the first instruction block
    /// enters a set (evicting the LRU data block if needed). Returns the
    /// evicted block, if any.
    pub fn fill(&mut self, block: Block, flags: LineFlags) -> Option<Block> {
        self.clock += 1;
        let set = self.set_index(block);
        if let Some(i) = self.find(block) {
            let had_instr = self.set_has_instruction(set);
            self.lines[i].flags = flags;
            self.lines[i].stamp = self.clock;
            if self.enabled && flags.is_instruction && !had_instr {
                return self.activate_bf(set);
            }
            return None;
        }
        let mut evicted = None;
        if self.enabled && flags.is_instruction && !self.set_has_instruction(set) {
            evicted = self.activate_bf(set);
        }
        let base = set * self.ways;
        let usable = base..base + self.usable_ways(set);
        let victim = usable
            .clone()
            .find(|&i| !self.lines[i].valid)
            .unwrap_or_else(|| {
                usable
                    .clone()
                    .min_by_key(|&i| self.lines[i].stamp)
                    .expect("non-empty set")
            });
        if self.lines[victim].valid {
            let out = self.block_from(self.lines[victim].tag, set);
            let was_instr = self.lines[victim].flags.is_instruction;
            evicted = Some(out);
            self.lines[victim] = Line {
                tag: self.tag(block),
                valid: true,
                stamp: self.clock,
                flags,
            };
            if was_instr {
                self.on_instruction_departure(set, out);
            }
        } else {
            self.lines[victim] = Line {
                tag: self.tag(block),
                valid: true,
                stamp: self.clock,
                flags,
            };
        }
        evicted
    }

    /// Invalidates `block` if resident.
    pub fn invalidate(&mut self, block: Block) {
        if let Some(i) = self.find(block) {
            self.lines[i].valid = false;
            let set = self.set_index(block);
            if self.lines[i].flags.is_instruction {
                self.on_instruction_departure(set, block);
            }
        }
    }

    /// Stores the footprint for an instruction block. Silently drops it
    /// (counting `bf_capacity_drops`) if the set's holder is full, or
    /// does nothing when virtualization is disabled or the set is not in
    /// BF mode.
    pub fn insert_bf(&mut self, block: Block, bf: BranchFootprint) {
        if !self.enabled {
            return;
        }
        let set = self.set_index(block);
        if !self.holders[set].active {
            return;
        }
        self.clock += 1;
        let tag = self.tag(block);
        let clock = self.clock;
        let holder = &mut self.holders[set];
        if let Some(e) = holder.entries.iter_mut().find(|(t, _, _)| *t == tag) {
            e.1 = bf;
            e.2 = clock;
            self.stats.bf_inserts += 1;
            return;
        }
        if holder.entries.len() >= self.bf_capacity {
            // Replace the LRU footprint.
            let idx = holder
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, s))| *s)
                .map(|(i, _)| i)
                .expect("holder non-empty");
            holder.entries.swap_remove(idx);
            self.stats.bf_capacity_drops += 1;
        }
        holder.entries.push((tag, bf, clock));
        self.stats.bf_inserts += 1;
    }

    /// Retrieves the footprint for `block`, if stored.
    pub fn bf_lookup(&mut self, block: Block) -> Option<BranchFootprint> {
        let set = self.set_index(block);
        let tag = self.tag(block);
        let found = self.holders[set]
            .entries
            .iter()
            .find(|(t, _, _)| *t == tag)
            .map(|(_, bf, _)| *bf);
        if found.is_some() {
            self.stats.bf_hits += 1;
        } else {
            self.stats.bf_misses += 1;
        }
        found
    }

    /// Number of sets currently in BF-holder mode.
    pub fn bf_mode_sets(&self) -> usize {
        self.holders.iter().filter(|h| h.active).count()
    }

    /// Effective storage overhead of the mode bits, in bits: one
    /// `isInstruction` bit per line (the paper reports < 0.2 % of a
    /// 32 MB LLC).
    pub fn mode_bit_overhead_bits(&self) -> u64 {
        (self.sets * self.ways) as u64
    }

    fn set_has_instruction(&self, set: usize) -> bool {
        let base = set * self.ways;
        (base..base + self.ways).any(|i| self.lines[i].valid && self.lines[i].flags.is_instruction)
    }

    fn activate_bf(&mut self, set: usize) -> Option<Block> {
        if self.holders[set].active {
            return None;
        }
        self.holders[set].active = true;
        self.holders[set].entries.clear();
        self.stats.switches_to_bf += 1;
        // The way at index ways-1 of the set is reserved; relocate or
        // evict its occupant. We model the reservation by evicting the
        // true-LRU valid line if the set was completely full.
        let base = set * self.ways;
        let reserved = base + self.ways - 1;
        if self.lines[reserved].valid {
            // Move the reserved way's occupant into an invalid way if one
            // exists; otherwise evict the set's LRU line and move the
            // occupant there (if the occupant itself is not the LRU).
            let spare = (base..base + self.ways - 1).find(|&i| !self.lines[i].valid);
            match spare {
                Some(i) => {
                    self.lines[i] = self.lines[reserved];
                    self.lines[reserved].valid = false;
                    None
                }
                None => {
                    let lru = (base..base + self.ways)
                        .min_by_key(|&i| self.lines[i].stamp)
                        .expect("non-empty");
                    let out = self.block_from(self.lines[lru].tag, set);
                    self.stats.data_evicted_for_bf += 1;
                    if lru != reserved {
                        self.lines[lru] = self.lines[reserved];
                    }
                    self.lines[reserved].valid = false;
                    Some(out)
                }
            }
        } else {
            None
        }
    }

    fn on_instruction_departure(&mut self, set: usize, _block: Block) {
        if self.holders[set].active && !self.set_has_instruction(set) {
            self.holders[set].active = false;
            self.holders[set].entries.clear();
            self.stats.switches_to_block += 1;
        }
    }
}

#[cfg(test)]
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
        llc.invalidate(0);
        assert_eq!(llc.bf_mode_sets(), 0);
        assert_eq!(llc.stats().switches_to_block, 1);
        // Footprints are gone with the mode.
        llc.fill(0, instr_flags());
        assert_eq!(llc.bf_lookup(0), None);
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
    fn mode_bit_overhead_is_one_bit_per_line() {
        let llc = DvLlc::new(64, 16, 4);
        assert_eq!(llc.mode_bit_overhead_bits(), 64 * 16);
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
    fn activation_relocates_reserved_way_occupant() {
        let mut llc = DvLlc::new(4, 4, 2);
        // Fill exactly the reserved way by filling all 4 then removing one.
        for i in 0..4u64 {
            llc.fill(i * 4, data_flags());
        }
        llc.invalidate(0);
        llc.invalidate(4);
        // Two free ways: one absorbs the BF reservation (the reserved
        // way's occupant relocates into it), the other takes the new
        // block. No resident block may be lost.
        let ev = llc.fill(16, instr_flags());
        assert_eq!(ev, None);
        assert_eq!(llc.stats().data_evicted_for_bf, 0);
        for b in [8u64, 12, 16] {
            assert!(llc.contains(b), "lost block {b}");
        }
    }
}
