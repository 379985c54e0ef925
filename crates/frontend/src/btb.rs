//! A conventional PC-indexed, set-associative branch target buffer.
//!
//! The paper's BTB prefetcher is deliberately "independent of the BTB
//! type" (§V-C): it works against exactly this structure, with no
//! basic-block reorganization. Table III gives the baseline size:
//! 2 K entries.

use dcfb_cache::LruSets;
use dcfb_trace::{Addr, StaticKind};

/// The branch class stored with a BTB entry. The default, `Jump`, is
/// only the placeholder of an empty way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BranchClass {
    /// Conditional branch.
    Conditional,
    /// Direct unconditional jump.
    #[default]
    Jump,
    /// Direct call.
    Call,
    /// Indirect jump.
    IndirectJump,
    /// Indirect call.
    IndirectCall,
    /// Return.
    Return,
}

impl BranchClass {
    /// Maps a static (pre-decoded) branch kind to a BTB class.
    /// Returns `None` for non-branches.
    pub fn from_static(kind: StaticKind) -> Option<Self> {
        match kind {
            StaticKind::Other => None,
            StaticKind::CondBranch => Some(BranchClass::Conditional),
            StaticKind::Jump => Some(BranchClass::Jump),
            StaticKind::Call => Some(BranchClass::Call),
            StaticKind::IndirectJump => Some(BranchClass::IndirectJump),
            StaticKind::IndirectCall => Some(BranchClass::IndirectCall),
            StaticKind::Return => Some(BranchClass::Return),
        }
    }

    /// Whether this class is unconditional.
    pub fn is_unconditional(self) -> bool {
        !matches!(self, BranchClass::Conditional)
    }

    /// Whether this class pushes a return address.
    pub fn is_call(self) -> bool {
        matches!(self, BranchClass::Call | BranchClass::IndirectCall)
    }
}

/// One BTB entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BtbEntry {
    /// The branch instruction's address.
    pub pc: Addr,
    /// Predicted target (last seen for indirects).
    pub target: Addr,
    /// Branch class.
    pub class: BranchClass,
}

/// BTB geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BtbConfig {
    /// Total entries; must be `ways * power_of_two`.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl BtbConfig {
    /// The paper's baseline: 2 K entries (Table III), 4-way.
    pub fn baseline_2k() -> Self {
        BtbConfig {
            entries: 2048,
            ways: 4,
        }
    }

    /// The 16 K-entry BTB used to model Confluence's upper bound
    /// (§VI-D1).
    pub fn confluence_16k() -> Self {
        BtbConfig {
            entries: 16 * 1024,
            ways: 4,
        }
    }

    fn sets(&self) -> usize {
        self.entries / self.ways
    }
}

/// Hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BtbStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that found the branch.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
}

impl BtbStats {
    /// Miss ratio over all lookups.
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups as f64
        }
    }
}

/// A set-associative, true-LRU BTB.
#[derive(Clone, Debug)]
pub struct Btb {
    /// Tagged by `pc >> 2`.
    ways: LruSets<BtbEntry>,
    stats: BtbStats,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (sets not a power of two).
    pub fn new(cfg: BtbConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.entries % cfg.ways == 0, "bad BTB shape");
        assert!(cfg.sets().is_power_of_two(), "BTB sets not a power of two");
        Btb {
            ways: LruSets::new(cfg.sets(), cfg.ways),
            stats: BtbStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BtbStats {
        self.stats
    }

    /// Resets statistics, keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = BtbStats::default();
    }

    #[inline]
    fn index(&self, pc: Addr) -> (usize, u64) {
        ((pc >> 2) as usize & (self.ways.sets() - 1), pc >> 2)
    }

    /// Looks up `pc`, updating LRU and statistics.
    pub fn lookup(&mut self, pc: Addr) -> Option<BtbEntry> {
        self.stats.lookups += 1;
        let (set, tag) = self.index(pc);
        let Some(way) = self.ways.find(set, tag) else {
            self.stats.misses += 1;
            return None;
        };
        self.ways.touch(set, way);
        self.stats.hits += 1;
        Some(BtbEntry {
            pc,
            ..*self.ways.get(set, way)
        })
    }

    /// Checks residency without LRU update or statistics.
    pub fn contains(&self, pc: Addr) -> bool {
        let (set, tag) = self.index(pc);
        self.ways.find(set, tag).is_some()
    }

    /// Inserts or updates the entry for `entry.pc`.
    pub fn insert(&mut self, entry: BtbEntry) {
        self.stats.inserts += 1;
        let (set, tag) = self.index(entry.pc);
        match self.ways.find(set, tag) {
            Some(way) => {
                *self.ways.get_mut(set, way) = entry;
                self.ways.touch(set, way);
            }
            None => {
                self.ways.insert(set, tag, entry);
            }
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.ways.occupancy()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn entry(pc: Addr, target: Addr) -> BtbEntry {
        BtbEntry {
            pc,
            target,
            class: BranchClass::Conditional,
        }
    }

    fn small() -> Btb {
        Btb::new(BtbConfig {
            entries: 8,
            ways: 2,
        }) // 4 sets
    }

    #[test]
    fn miss_insert_hit() {
        let mut b = small();
        assert!(b.lookup(0x1000).is_none());
        b.insert(entry(0x1000, 0x2000));
        let e = b.lookup(0x1000).unwrap();
        assert_eq!(e.target, 0x2000);
        assert_eq!(b.stats().hits, 1);
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn update_in_place_changes_target() {
        let mut b = small();
        b.insert(entry(0x1000, 0x2000));
        b.insert(entry(0x1000, 0x3000));
        assert_eq!(b.occupancy(), 1);
        assert_eq!(b.lookup(0x1000).unwrap().target, 0x3000);
    }

    #[test]
    fn lru_within_set() {
        let mut b = small();
        // Same set: pcs differing in bits above the index. Set index uses
        // pc >> 2 over 4 sets, so a stride of 64 keeps the set.
        b.insert(entry(0x0, 0x1));
        b.insert(entry(0x40, 0x2));
        b.lookup(0x0); // make 0x40 LRU
        b.insert(entry(0x80, 0x3));
        assert!(b.contains(0x0));
        assert!(!b.contains(0x40));
        assert!(b.contains(0x80));
    }

    #[test]
    fn invalid_ways_fill_before_eviction() {
        // One set, 4 ways: the first `ways` inserts must claim invalid
        // ways without evicting anything.
        let mut b = Btb::new(BtbConfig {
            entries: 4,
            ways: 4,
        });
        for i in 0..4u64 {
            b.insert(entry(i * 4, 0x100 + i));
            assert_eq!(b.occupancy(), i as usize + 1);
        }
        // The fifth insert evicts exactly the LRU (the oldest insert).
        b.insert(entry(0x100, 0x999));
        assert_eq!(b.occupancy(), 4);
        assert!(!b.contains(0x0));
        for i in 1..4u64 {
            assert!(b.contains(i * 4), "entry {i} must survive");
        }
        assert!(b.contains(0x100));
    }

    #[test]
    fn refresh_on_insert_protects_from_eviction() {
        let mut b = small(); // 4 sets, 2 ways
        b.insert(entry(0x0, 0x1));
        b.insert(entry(0x40, 0x2));
        // Update-in-place refreshes 0x0's stamp, making 0x40 the LRU.
        b.insert(entry(0x0, 0x9));
        b.insert(entry(0x80, 0x3));
        assert!(b.contains(0x0));
        assert!(!b.contains(0x40));
        assert_eq!(b.lookup(0x0).unwrap().target, 0x9);
    }

    #[test]
    fn full_tags_prevent_same_set_aliasing() {
        // The conventional BTB stores full tags: pcs that collide on the
        // set index must miss, never return another branch's target.
        let mut b = small(); // 4 sets: 0x0, 0x40, 0x80 share set 0
        b.insert(entry(0x40, 0x2));
        assert!(b.lookup(0x0).is_none());
        assert!(b.lookup(0x80).is_none());
        assert_eq!(b.lookup(0x40).unwrap().target, 0x2);
    }

    #[test]
    fn class_round_trips() {
        let mut b = small();
        b.insert(BtbEntry {
            pc: 0x10,
            target: 0x99,
            class: BranchClass::Return,
        });
        assert_eq!(b.lookup(0x10).unwrap().class, BranchClass::Return);
    }

    #[test]
    fn from_static_mapping() {
        assert_eq!(
            BranchClass::from_static(StaticKind::CondBranch),
            Some(BranchClass::Conditional)
        );
        assert_eq!(BranchClass::from_static(StaticKind::Other), None);
        assert!(BranchClass::from_static(StaticKind::Call)
            .unwrap()
            .is_call());
        assert!(BranchClass::from_static(StaticKind::Return)
            .unwrap()
            .is_unconditional());
        assert!(!BranchClass::Conditional.is_unconditional());
    }

    #[test]
    fn miss_ratio() {
        let mut b = small();
        b.lookup(0x4);
        b.insert(entry(0x4, 0x8));
        b.lookup(0x4);
        assert!((b.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_configs() {
        assert_eq!(BtbConfig::baseline_2k().entries, 2048);
        assert_eq!(BtbConfig::confluence_16k().entries, 16384);
        let b = Btb::new(BtbConfig::baseline_2k());
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn distinct_pcs_in_same_block_coexist() {
        let mut b = Btb::new(BtbConfig {
            entries: 64,
            ways: 4,
        });
        for i in 0..8u64 {
            b.insert(entry(0x1000 + i * 4, 0x2000 + i));
        }
        for i in 0..8u64 {
            assert_eq!(b.lookup(0x1000 + i * 4).unwrap().target, 0x2000 + i);
        }
    }
}
