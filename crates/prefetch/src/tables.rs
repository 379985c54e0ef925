//! The paper's metadata tables: SeqTable, DisTable, and the RLU filter.

use dcfb_trace::Block;

/// SN4L's sequential-prefetch status table (§V-A): direct-mapped,
/// tagless, one bit per entry, all entries initialized to 1 ("all
/// blocks should be prefetched the first time").
///
/// The paper's configuration is 16 K entries = 2 KB of storage.
#[derive(Clone, Debug)]
pub struct SeqTable {
    bits: Vec<bool>,
    conflict_mask: u64,
}

impl SeqTable {
    /// Creates a table with `entries` slots (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "SeqTable entries must be 2^n");
        SeqTable {
            bits: vec![true; entries],
            conflict_mask: (entries - 1) as u64,
        }
    }

    /// The paper's 16 K-entry configuration.
    pub fn paper_sized() -> Self {
        SeqTable::new(16 * 1024)
    }

    /// An effectively unlimited table (one entry per block) for the
    /// Fig. 11 reference point.
    pub fn unlimited() -> Self {
        SeqTable::new(1 << 24)
    }

    #[inline]
    fn index(&self, block: Block) -> usize {
        (block & self.conflict_mask) as usize
    }

    /// Whether `block` is currently predicted useful to prefetch.
    #[inline]
    pub fn is_useful(&self, block: Block) -> bool {
        self.bits[self.index(block)]
    }

    /// Marks `block` as a useful prefetch.
    #[inline]
    pub fn set(&mut self, block: Block) {
        let i = self.index(block);
        self.bits[i] = true;
    }

    /// Marks `block` as a useless prefetch.
    #[inline]
    pub fn reset(&mut self, block: Block) {
        let i = self.index(block);
        self.bits[i] = false;
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.bits.len()
    }

    /// Storage cost in bits (1 bit/entry, tagless).
    pub fn storage_bits(&self) -> u64 {
        self.bits.len() as u64
    }
}

/// Tagging policy for the [`DisTable`] (Fig. 12 compares all three).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TagPolicy {
    /// No tag: any block mapping to the entry matches.
    Tagless,
    /// A partial tag of the given width (the paper uses 4 bits).
    Partial(u32),
    /// The full block address is stored.
    Full,
}

impl TagPolicy {
    fn tag_of(self, block: Block, index_bits: u32) -> u64 {
        let above = block >> index_bits;
        match self {
            TagPolicy::Tagless => 0,
            TagPolicy::Partial(bits) => above & ((1 << bits) - 1),
            TagPolicy::Full => above,
        }
    }

    fn bits(self) -> u64 {
        match self {
            TagPolicy::Tagless => 0,
            TagPolicy::Partial(b) => u64::from(b),
            // Representative full-tag cost for a 48-bit address space.
            TagPolicy::Full => 32,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct DisEntry {
    valid: bool,
    tag: u64,
    offset: u8,
}

/// The Dis prefetcher's discontinuity table (§V-B): direct-mapped,
/// partially-tagged; each entry stores only the *offset of the branch
/// instruction* that caused a discontinuity in the indexed block.
///
/// The paper's configuration is 4 K entries × (4-bit tag + 4-bit
/// offset) = 4 KB... precisely 4 K × 8 bits = 4 KB as reported in
/// §VI-D3.
#[derive(Clone, Debug)]
pub struct DisTable {
    entries: Vec<DisEntry>,
    policy: TagPolicy,
    index_bits: u32,
    offset_bits: u32,
    hits: u64,
    false_hits_possible: u64,
}

impl DisTable {
    /// Creates a table with `entries` slots (power of two) and the given
    /// tagging policy. `offset_bits` is 4 for a fixed-length ISA
    /// (instruction offset) and 6 for a variable-length ISA (byte
    /// offset), per §V-D.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `offset_bits` is not
    /// 4 or 6.
    pub fn new(entries: usize, policy: TagPolicy, offset_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "DisTable entries must be 2^n");
        assert!(
            offset_bits == 4 || offset_bits == 6,
            "offset_bits must be 4 (fixed ISA) or 6 (variable ISA)"
        );
        DisTable {
            entries: vec![
                DisEntry {
                    valid: false,
                    tag: 0,
                    offset: 0
                };
                entries
            ],
            policy,
            index_bits: entries.trailing_zeros(),
            offset_bits,
            hits: 0,
            false_hits_possible: 0,
        }
    }

    /// The paper's 4 K-entry, 4-bit partially-tagged configuration for
    /// a fixed-length ISA.
    pub fn paper_sized() -> Self {
        DisTable::new(4 * 1024, TagPolicy::Partial(4), 4)
    }

    /// An effectively unlimited, fully-tagged table (Fig. 11/12
    /// reference).
    pub fn unlimited() -> Self {
        DisTable::new(1 << 22, TagPolicy::Full, 4)
    }

    #[inline]
    fn index(&self, block: Block) -> usize {
        (block & ((1u64 << self.index_bits) - 1)) as usize
    }

    /// Records that the branch at `offset` within `block` caused a
    /// discontinuity. For a fixed-length ISA `offset` is the
    /// instruction slot (0–15); for variable-length, the byte offset
    /// (0–63).
    ///
    /// # Panics
    ///
    /// Panics if `offset` does not fit in the configured offset width.
    pub fn record(&mut self, block: Block, offset: u8) {
        assert!(
            u32::from(offset) < (1 << self.offset_bits),
            "offset {offset} out of range"
        );
        let i = self.index(block);
        self.entries[i] = DisEntry {
            valid: true,
            tag: self.policy.tag_of(block, self.index_bits),
            offset,
        };
    }

    /// Looks up the recorded discontinuity offset for `block`.
    pub fn lookup(&mut self, block: Block) -> Option<u8> {
        let i = self.index(block);
        let e = self.entries[i];
        if !e.valid {
            return None;
        }
        if e.tag == self.policy.tag_of(block, self.index_bits) {
            self.hits += 1;
            if matches!(self.policy, TagPolicy::Tagless) {
                self.false_hits_possible += 1;
            }
            Some(e.offset)
        } else {
            None
        }
    }

    /// Number of entries.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Width of the stored offset: 4 (instruction slot, fixed-length
    /// ISA) or 6 (byte offset, variable-length ISA).
    pub fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Storage cost in bits: entries × (tag + offset).
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * (self.policy.bits() + u64::from(self.offset_bits))
    }

    /// The tagging policy.
    pub fn policy(&self) -> TagPolicy {
        self.policy
    }
}

/// The Recently-Looked-Up (RLU) filter (§V-B): the addresses of the
/// last eight blocks looked up by the prefetcher or demanded by the
/// processor. A hit means "do not look up the cache again".
///
/// A fixed-capacity FIFO ring (8 slots in the paper configuration):
/// replacement overwrites the oldest slot in place instead of shifting
/// the survivors down.
#[derive(Clone, Debug)]
pub struct Rlu {
    slots: Box<[Block]>,
    /// Occupied slots (`slots[..len]`); grows to capacity, then stays.
    len: usize,
    /// Oldest slot once full: the next one to overwrite.
    oldest: usize,
    hits: u64,
    misses: u64,
}

impl Rlu {
    /// Creates an RLU of `capacity` blocks (the paper uses 8).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RLU capacity must be non-zero");
        Rlu {
            slots: vec![0; capacity].into_boxed_slice(),
            len: 0,
            oldest: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn contains(&self, block: Block) -> bool {
        self.slots[..self.len].contains(&block)
    }

    /// Records `block`, replacing the oldest entry when full.
    #[inline]
    fn push(&mut self, block: Block) {
        if self.len < self.slots.len() {
            self.slots[self.len] = block;
            self.len += 1;
        } else {
            self.slots[self.oldest] = block;
            self.oldest += 1;
            if self.oldest == self.slots.len() {
                self.oldest = 0;
            }
        }
    }

    /// Checks `block` and records it (FIFO replacement). Returns `true`
    /// if the block was recently looked up (caller should skip the
    /// cache lookup).
    pub fn check_insert(&mut self, block: Block) -> bool {
        if self.contains(block) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        self.push(block);
        false
    }

    /// Notes a processor demand for `block` (demands also populate the
    /// RLU per §V-B).
    pub fn note_demand(&mut self, block: Block) {
        if !self.contains(block) {
            self.push(block);
        }
    }

    /// `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Filter rate: fraction of checks absorbed by the RLU.
    pub fn filter_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn seqtable_initialized_to_useful() {
        let t = SeqTable::new(16);
        for b in 0..100u64 {
            assert!(t.is_useful(b));
        }
    }

    #[test]
    fn seqtable_set_reset_aliasing() {
        let mut t = SeqTable::new(16);
        t.reset(3);
        assert!(!t.is_useful(3));
        // Aliased block shares the entry (tagless, direct-mapped).
        assert!(!t.is_useful(3 + 16));
        t.set(3 + 16);
        assert!(t.is_useful(3));
    }

    #[test]
    fn seqtable_storage() {
        assert_eq!(SeqTable::paper_sized().storage_bits(), 16 * 1024);
        assert_eq!(SeqTable::paper_sized().entries(), 16 * 1024);
    }

    #[test]
    fn distable_record_lookup() {
        let mut t = DisTable::paper_sized();
        assert_eq!(t.lookup(100), None);
        t.record(100, 9);
        assert_eq!(t.lookup(100), Some(9));
    }

    #[test]
    fn distable_partial_tag_rejects_most_aliases() {
        let mut t = DisTable::new(16, TagPolicy::Partial(4), 4);
        t.record(5, 3);
        // Same index (5 + 16) but different partial tag (tag = 1).
        assert_eq!(t.lookup(5 + 16), None);
        // Same index and same partial tag: 5 + 16*16 -> tag bits wrap.
        assert_eq!(t.lookup(5 + 16 * 16), Some(3));
    }

    #[test]
    fn distable_tagless_accepts_all_aliases() {
        let mut t = DisTable::new(16, TagPolicy::Tagless, 4);
        t.record(5, 3);
        assert_eq!(t.lookup(5 + 16), Some(3));
        assert_eq!(t.lookup(5 + 32), Some(3));
    }

    #[test]
    fn distable_full_tag_rejects_all_aliases() {
        let mut t = DisTable::new(16, TagPolicy::Full, 4);
        t.record(5, 3);
        assert_eq!(t.lookup(5 + 16), None);
        assert_eq!(t.lookup(5 + 16 * 16), None);
        assert_eq!(t.lookup(5), Some(3));
    }

    #[test]
    fn distable_storage_costs() {
        // Paper: 4 K x (4-bit tag + 4-bit offset) = 4 KB.
        assert_eq!(DisTable::paper_sized().storage_bits(), 4 * 1024 * 8);
        // VL-ISA: 6-bit byte offset -> 10 bits/entry (+20 %, §V-D).
        let vl = DisTable::new(4 * 1024, TagPolicy::Partial(4), 6);
        assert_eq!(vl.storage_bits(), 4 * 1024 * 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn distable_offset_range_checked() {
        let mut t = DisTable::paper_sized();
        t.record(0, 16);
    }

    #[test]
    fn distable_overwrite_updates_offset() {
        let mut t = DisTable::paper_sized();
        t.record(7, 2);
        t.record(7, 11);
        assert_eq!(t.lookup(7), Some(11));
    }

    #[test]
    fn rlu_filters_repeats() {
        let mut r = Rlu::new(8);
        assert!(!r.check_insert(1));
        assert!(r.check_insert(1));
        assert_eq!(r.counters(), (1, 1));
        assert!((r.filter_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rlu_fifo_capacity() {
        let mut r = Rlu::new(2);
        r.check_insert(1);
        r.check_insert(2);
        r.check_insert(3); // evicts 1
        assert!(!r.check_insert(1), "1 must have been evicted");
    }

    #[test]
    fn rlu_ring_keeps_exactly_the_last_capacity_blocks() {
        let mut r = Rlu::new(3);
        for b in 0..10 {
            assert!(!r.check_insert(b));
        }
        // The ring wrapped three times: only 7, 8, 9 remain.
        assert!(r.check_insert(7) && r.check_insert(8) && r.check_insert(9));
        assert!(!r.check_insert(6));
    }

    #[test]
    fn rlu_demands_populate() {
        let mut r = Rlu::new(4);
        r.note_demand(9);
        assert!(r.check_insert(9));
    }
}
