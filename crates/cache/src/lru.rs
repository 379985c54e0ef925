//! The one set-associative, true-LRU table every frontend array is
//! built on: the L1i and LLC ([`SetAssocCache`](crate::SetAssocCache)),
//! the DV-LLC's lines and BF holders, the prefetch buffers, the BTB,
//! Shotgun's U-BTB/C-BTB/RIB and Boomerang's BB-BTB.
//!
//! The caller maps its key to a `(set, tag)` pair and decides what a
//! way holds (`T`); the table owns the tags, the recency stamps and
//! the victim choice. Policy that differs between structures — what a
//! refill does to recency, which payload fields survive a refresh —
//! stays with the caller, composed from five operations: find without
//! touching, touch, insert, invalidate, and iterate a set.
//!
//! Every [`touch`](LruSets::touch) and [`insert`](LruSets::insert)
//! takes its own increment of the table's clock, so the stamps of the
//! valid ways are unique and the victim order depends only on the
//! relative order of touches. Stamp 0 marks an invalid way.

/// One way: a tag, its recency stamp (0 = invalid) and the payload.
#[derive(Clone, Copy, Debug)]
struct Way<T> {
    tag: u64,
    stamp: u64,
    value: T,
}

/// A `sets` × `ways` true-LRU table of `T` payloads.
///
/// # Examples
///
/// ```
/// use dcfb_cache::LruSets;
///
/// let mut t: LruSets<u8> = LruSets::new(1, 2);
/// t.insert(0, 10, 1);
/// t.insert(0, 20, 2);
/// let way = t.find(0, 10).unwrap();
/// t.touch(0, way);                                // 20 is now the LRU
/// assert_eq!(t.insert(0, 30, 3), Some((20, 2)));  // displaced (tag, T)
/// ```
#[derive(Clone, Debug)]
pub struct LruSets<T> {
    sets: usize,
    ways: usize,
    slots: Vec<Way<T>>,
    clock: u64,
}

impl<T: Copy + Default> LruSets<T> {
    /// An empty table.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "an LRU table needs sets and ways");
        let empty = Way {
            tag: 0,
            stamp: 0,
            value: T::default(),
        };
        LruSets {
            sets,
            ways,
            slots: vec![empty; sets * ways],
            clock: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set(&self, set: usize) -> &[Way<T>] {
        &self.slots[set * self.ways..(set + 1) * self.ways]
    }

    #[inline]
    fn slot(&mut self, set: usize, way: usize) -> &mut Way<T> {
        &mut self.slots[set * self.ways + way]
    }

    /// The way of `set` holding `tag`, without touching it.
    #[inline]
    pub fn find(&self, set: usize, tag: u64) -> Option<usize> {
        self.set(set)
            .iter()
            .position(|w| w.stamp != 0 && w.tag == tag)
    }

    /// The payload of a way (normally one [`find`](Self::find) returned).
    #[inline]
    pub fn get(&self, set: usize, way: usize) -> &T {
        &self.set(set)[way].value
    }

    /// Mutable payload of a way; does not touch it.
    #[inline]
    pub fn get_mut(&mut self, set: usize, way: usize) -> &mut T {
        &mut self.slot(set, way).value
    }

    /// Makes a way the most recently used of its set.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        let stamp = self.clock;
        self.slot(set, way).stamp = stamp;
    }

    /// Inserts `tag` as the most recently used way of `set`, into the
    /// first invalid way, else the least recently touched one. Returns
    /// the displaced `(tag, T)`, if a valid way was replaced. The caller
    /// checks residency first: inserting a resident tag duplicates it.
    #[inline]
    pub fn insert(&mut self, set: usize, tag: u64, value: T) -> Option<(u64, T)> {
        self.clock += 1;
        // Invalid ways carry stamp 0, and `min_by_key` keeps the first
        // of equal minima: one pass picks "first invalid, else LRU".
        let way = self
            .set(set)
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.stamp)
            .map_or(0, |(i, _)| i);
        let stamp = self.clock;
        let old = std::mem::replace(self.slot(set, way), Way { tag, stamp, value });
        (old.stamp != 0).then_some((old.tag, old.value))
    }

    /// Invalidates a way and returns its payload.
    #[inline]
    pub fn invalidate(&mut self, set: usize, way: usize) -> T {
        let w = self.slot(set, way);
        w.stamp = 0;
        w.value
    }

    /// The valid ways of `set` as `(tag, payload)`, least recently
    /// touched first.
    pub fn iter(&self, set: usize) -> impl Iterator<Item = (u64, &T)> + '_ {
        let ways = self.set(set);
        let mut last = 0;
        // Stamps of valid ways are unique and non-zero: each step takes
        // the oldest stamp newer than the previous one.
        std::iter::from_fn(move || {
            let w = ways
                .iter()
                .filter(|w| w.stamp > last)
                .min_by_key(|w| w.stamp)?;
            last = w.stamp;
            Some((w.tag, &w.value))
        })
    }

    /// Number of valid ways in the whole table.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|w| w.stamp != 0).count()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive reference: per set, a vector of ways, each `None` or
    /// `(tag, payload, stamp)`, with stamps from one global counter so
    /// no two ever tie. The victim is the first `None`, else the way
    /// with the smallest stamp.
    struct Reference {
        sets: Vec<Vec<Option<(u64, u32, u64)>>>,
        now: u64,
    }

    impl Reference {
        fn new(sets: usize, ways: usize) -> Self {
            Reference {
                sets: vec![vec![None; ways]; sets],
                now: 0,
            }
        }

        fn find(&self, set: usize, tag: u64) -> Option<usize> {
            self.sets[set]
                .iter()
                .position(|w| matches!(w, Some((t, _, _)) if *t == tag))
        }

        fn touch(&mut self, set: usize, way: usize) {
            self.now += 1;
            if let Some(w) = &mut self.sets[set][way] {
                w.2 = self.now;
            }
        }

        fn insert(&mut self, set: usize, tag: u64, value: u32) -> Option<(u64, u32)> {
            self.now += 1;
            let ways = &mut self.sets[set];
            let way = match ways.iter().position(Option::is_none) {
                Some(free) => free,
                None => {
                    let mut lru = 0;
                    for (i, w) in ways.iter().enumerate() {
                        if w.unwrap().2 < ways[lru].unwrap().2 {
                            lru = i;
                        }
                    }
                    lru
                }
            };
            let old = ways[way].replace((tag, value, self.now));
            old.map(|(t, v, _)| (t, v))
        }

        fn invalidate(&mut self, set: usize, way: usize) -> u32 {
            self.sets[set][way].take().unwrap().1
        }

        /// `(tag, payload)` of the valid ways, least recent first.
        fn contents(&self, set: usize) -> Vec<(u64, u32)> {
            let mut v: Vec<_> = self.sets[set].iter().flatten().copied().collect();
            v.sort_by_key(|w| w.2);
            v.into_iter().map(|(t, p, _)| (t, p)).collect()
        }
    }

    #[test]
    fn invalid_ways_fill_first_then_lru() {
        let mut t: LruSets<u32> = LruSets::new(2, 3);
        assert_eq!(t.occupancy(), 0);
        for tag in 0..3 {
            assert_eq!(t.insert(1, tag, tag as u32), None);
            assert_eq!(t.find(1, tag), Some(tag as usize));
        }
        assert_eq!(t.find(0, 0), None, "sets are independent");
        t.touch(1, 0);
        assert_eq!(t.insert(1, 9, 9), Some((1, 1)));
        assert_eq!(t.find(1, 9), Some(1));
        assert_eq!(t.invalidate(1, 2), 2);
        assert_eq!(t.insert(1, 7, 7), None, "the freed way is reused");
        let order: Vec<_> = t.iter(1).map(|(tag, v)| (tag, *v)).collect();
        assert_eq!(order, vec![(0, 0), (9, 9), (7, 7)]);
        assert_eq!(t.occupancy(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random find/touch/insert/invalidate sequences on a small
        /// table agree with the reference op by op, down to the way
        /// each tag lands in and the recency order of every set.
        #[test]
        fn matches_naive_reference(
            ops in proptest::collection::vec((0u8..4, 0usize..3, 0u64..10, 0u32..1000), 1..300)
        ) {
            let (sets, ways) = (3, 4);
            let mut t: LruSets<u32> = LruSets::new(sets, ways);
            let mut r = Reference::new(sets, ways);
            for (op, set, tag, value) in ops {
                let way = r.find(set, tag);
                prop_assert_eq!(t.find(set, tag), way);
                match (op, way) {
                    (0, _) => {}
                    (1, Some(w)) => {
                        t.touch(set, w);
                        r.touch(set, w);
                    }
                    (2, None) => {
                        prop_assert_eq!(t.insert(set, tag, value), r.insert(set, tag, value));
                        prop_assert_eq!(t.find(set, tag), r.find(set, tag));
                    }
                    (3, Some(w)) => {
                        prop_assert_eq!(t.invalidate(set, w), r.invalidate(set, w));
                    }
                    (_, Some(w)) => prop_assert_eq!(*t.get(set, w), r.sets[set][w].unwrap().1),
                    (_, None) => {}
                }
                let contents: Vec<_> = t.iter(set).map(|(tag, v)| (tag, *v)).collect();
                prop_assert_eq!(contents, r.contents(set));
            }
            let valid: usize = (0..sets).map(|s| r.contents(s).len()).sum();
            prop_assert_eq!(t.occupancy(), valid);
        }
    }
}
