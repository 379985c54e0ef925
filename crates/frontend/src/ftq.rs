//! The fetch target queue (FTQ).
//!
//! "FTQ is a long queue of basic-blocks, which is used to fill the gap
//! between the branch prediction unit and the instruction cache"
//! (paper, footnote 1). BTB-directed prefetchers (Boomerang, Shotgun)
//! run the branch-prediction unit ahead of fetch and scan FTQ entries to
//! discover prefetch candidates; when a BTB miss stalls FTQ filling and
//! the fetch engine drains the queue, the core stalls on an *empty FTQ*
//! (Table I).

use dcfb_trace::Addr;

/// One FTQ entry: a fetch region `[start, end]` (addresses of the first
/// and last instruction to fetch) plus the address execution continues
/// at afterwards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FtqEntry {
    /// First instruction of the region.
    pub start: Addr,
    /// Last instruction of the region (inclusive).
    pub end: Addr,
    /// Where the instruction stream continues after `end` (branch
    /// target or fall-through).
    pub next: Addr,
}

impl FtqEntry {
    /// The cache blocks this region touches, in order.
    pub fn blocks(&self) -> impl Iterator<Item = u64> {
        let first = dcfb_trace::block_of(self.start);
        let last = dcfb_trace::block_of(self.end);
        first..=last
    }
}

/// A bounded FIFO of fetch regions, with occupancy statistics.
///
/// Backed by a fixed ring arena allocated once at construction, so
/// pushes, pops, and redirect-clears never touch the heap — the FTQ
/// sits on the simulator's per-cycle hot path.
#[derive(Clone, Debug)]
pub struct Ftq {
    arena: Box<[FtqEntry]>,
    head: usize,
    len: usize,
    pushes: u64,
    pops: u64,
    empty_polls: u64,
}

impl Ftq {
    /// Creates an FTQ with room for `capacity` regions (the paper's
    /// Shotgun configuration uses 32).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FTQ capacity must be non-zero");
        let vacant = FtqEntry {
            start: 0,
            end: 0,
            next: 0,
        };
        Ftq {
            arena: vec![vacant; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            pushes: 0,
            pops: 0,
            empty_polls: 0,
        }
    }

    fn slot(&self, i: usize) -> usize {
        (self.head + i) % self.arena.len()
    }

    /// Whether another region fits.
    pub fn is_full(&self) -> bool {
        self.len == self.arena.len()
    }

    /// Whether the queue holds no regions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.arena.len()
    }

    /// Pushes a region; returns `false` (dropping it) when full.
    pub fn push(&mut self, entry: FtqEntry) -> bool {
        if self.is_full() {
            return false;
        }
        let tail = self.slot(self.len);
        self.arena[tail] = entry;
        self.len += 1;
        self.pushes += 1;
        true
    }

    /// Pops the oldest region; `None` (counted as an empty poll) when
    /// the queue is dry.
    pub fn pop(&mut self) -> Option<FtqEntry> {
        if self.len == 0 {
            self.empty_polls += 1;
            return None;
        }
        let e = self.arena[self.head];
        self.head = self.slot(1);
        self.len -= 1;
        self.pops += 1;
        Some(e)
    }

    /// Iterates the queued regions oldest-first (used by BTB-directed
    /// prefetchers to scan ahead of fetch).
    pub fn iter(&self) -> impl Iterator<Item = &FtqEntry> {
        (0..self.len).map(|i| &self.arena[self.slot(i)])
    }

    /// Clears all regions (pipeline redirect). The arena stays
    /// allocated; only the cursors reset.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// `(pushes, pops, empty_polls)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.pushes, self.pops, self.empty_polls)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn region(start: Addr, end: Addr) -> FtqEntry {
        FtqEntry {
            start,
            end,
            next: end + 4,
        }
    }

    #[test]
    fn fifo_order() {
        let mut f = Ftq::new(4);
        f.push(region(0x100, 0x10c));
        f.push(region(0x200, 0x204));
        assert_eq!(f.pop().unwrap().start, 0x100);
        assert_eq!(f.pop().unwrap().start, 0x200);
        assert!(f.pop().is_none());
        assert_eq!(f.counters(), (2, 2, 1));
    }

    #[test]
    fn full_queue_rejects() {
        let mut f = Ftq::new(2);
        assert!(f.push(region(0, 4)));
        assert!(f.push(region(8, 12)));
        assert!(!f.push(region(16, 20)));
        assert!(f.is_full());
    }

    #[test]
    fn entry_blocks_span() {
        // Region crossing a block boundary: 0x3c..0x44 covers blocks 0,1.
        let e = region(0x3c, 0x44);
        let blocks: Vec<u64> = e.blocks().collect();
        assert_eq!(blocks, vec![0, 1]);
        // Single-block region.
        let e2 = region(0x00, 0x3c);
        assert_eq!(e2.blocks().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn iter_scans_without_consuming() {
        let mut f = Ftq::new(4);
        f.push(region(0x100, 0x104));
        f.push(region(0x200, 0x204));
        let starts: Vec<Addr> = f.iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![0x100, 0x200]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn clear_on_redirect() {
        let mut f = Ftq::new(4);
        f.push(region(0, 4));
        f.clear();
        assert!(f.is_empty());
    }

    #[test]
    fn ring_wraps_without_reordering() {
        let mut f = Ftq::new(3);
        // Push/pop enough to wrap the ring several times over.
        for round in 0u64..10 {
            assert!(f.push(region(round * 0x100, round * 0x100 + 4)));
            if round >= 2 {
                assert_eq!(f.pop().unwrap().start, (round - 2) * 0x100);
            }
        }
        let starts: Vec<Addr> = f.iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![8 * 0x100, 9 * 0x100]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Ftq::new(0);
    }
}
