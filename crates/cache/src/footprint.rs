//! Branch footprints (BFs).
//!
//! A branch footprint names the branch instructions inside one 64-byte
//! instruction block by their starting byte offsets. §IV of the paper
//! shows that four entries per block cover almost all branches (Fig. 8);
//! each byte offset needs 6 bits, so one BF costs 3 bytes.
//!
//! BFs exist to support BTB prefetching on variable-length ISAs, where a
//! pre-decoder cannot find instruction boundaries on its own: it jumps
//! straight to the recorded offsets instead (§V-D).

use dcfb_trace::{StaticInstr, BLOCK_BYTES};

/// The number of branch byte-offsets one footprint can hold.
pub const BF_CAPACITY: usize = 4;

/// Storage cost of one footprint in bits (4 offsets × 6 bits).
pub const BF_BITS: u32 = 24;

/// A branch footprint: up to [`BF_CAPACITY`] byte offsets of branch
/// instructions within one cache block, in ascending order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchFootprint {
    offsets: [u8; BF_CAPACITY],
    len: u8,
}

impl BranchFootprint {
    /// An empty footprint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a footprint from the static instructions of a block,
    /// keeping the first [`BF_CAPACITY`] branches in address order and
    /// reporting how many branches did not fit.
    ///
    /// Returns `(footprint, overflow_count)`.
    pub fn from_block(instrs: &[StaticInstr]) -> (Self, usize) {
        let mut bf = BranchFootprint::new();
        let mut overflow = 0;
        for i in instrs {
            if i.kind.is_branch() {
                if !bf.push(i.byte_offset() as u8) {
                    overflow += 1;
                }
            }
        }
        (bf, overflow)
    }

    /// Adds a branch byte-offset; returns `false` (dropping the offset)
    /// if the footprint is full or the offset is a duplicate.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not a valid offset within a 64-byte block.
    pub fn push(&mut self, offset: u8) -> bool {
        assert!(
            u64::from(offset) < BLOCK_BYTES,
            "offset {offset} outside block"
        );
        if self.contains(offset) {
            return true; // already covered
        }
        if (self.len as usize) == BF_CAPACITY {
            return false;
        }
        self.offsets[self.len as usize] = offset;
        self.len += 1;
        self.offsets[..self.len as usize].sort_unstable();
        true
    }

    /// Whether `offset` is recorded.
    pub fn contains(&self, offset: u8) -> bool {
        self.offsets[..self.len as usize].contains(&offset)
    }

    /// The recorded offsets in ascending order.
    pub fn offsets(&self) -> &[u8] {
        &self.offsets[..self.len as usize]
    }

    /// Number of recorded offsets.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no offsets are recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use dcfb_trace::StaticKind;

    fn branch_at(pc: u64) -> StaticInstr {
        StaticInstr {
            pc,
            size: 4,
            kind: StaticKind::CondBranch,
            target: Some(0),
        }
    }

    fn other_at(pc: u64) -> StaticInstr {
        StaticInstr {
            pc,
            size: 4,
            kind: StaticKind::Other,
            target: None,
        }
    }

    #[test]
    fn from_block_collects_branches_only() {
        let instrs = vec![
            other_at(0x100),
            branch_at(0x104),
            other_at(0x108),
            branch_at(0x10c),
        ];
        let (bf, overflow) = BranchFootprint::from_block(&instrs);
        assert_eq!(bf.offsets(), &[0x04, 0x0c]);
        assert_eq!(overflow, 0);
    }

    #[test]
    fn overflow_counts_dropped_branches() {
        let instrs: Vec<_> = (0..6).map(|i| branch_at(0x200 + i * 4)).collect();
        let (bf, overflow) = BranchFootprint::from_block(&instrs);
        assert_eq!(bf.len(), BF_CAPACITY);
        assert_eq!(overflow, 2);
        // The first four in address order are kept.
        assert_eq!(bf.offsets(), &[0, 4, 8, 12]);
    }

    #[test]
    fn push_deduplicates() {
        let mut bf = BranchFootprint::new();
        assert!(bf.push(10));
        assert!(bf.push(10));
        assert_eq!(bf.len(), 1);
    }

    #[test]
    fn push_keeps_sorted() {
        let mut bf = BranchFootprint::new();
        bf.push(40);
        bf.push(4);
        bf.push(20);
        assert_eq!(bf.offsets(), &[4, 20, 40]);
    }

    #[test]
    fn full_footprint_rejects() {
        let mut bf = BranchFootprint::new();
        for o in [0, 8, 16, 24] {
            assert!(bf.push(o));
        }
        assert!(!bf.push(32));
        assert_eq!(bf.len(), 4);
        // But a duplicate of an existing entry still "succeeds".
        assert!(bf.push(8));
    }

    #[test]
    #[should_panic(expected = "outside block")]
    fn offset_out_of_range_panics() {
        let mut bf = BranchFootprint::new();
        bf.push(64);
    }

    #[test]
    fn storage_cost_is_three_bytes() {
        assert_eq!(BF_BITS, 24);
        assert_eq!(BF_CAPACITY, 4);
    }

    #[test]
    fn empty_footprint() {
        let bf = BranchFootprint::new();
        assert!(bf.is_empty());
        assert!(!bf.contains(0));
        assert!(bf.offsets().is_empty());
    }
}
