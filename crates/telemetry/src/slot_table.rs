//! Dense per-block side tables.
//!
//! A code memory gives every block that holds code a small dense
//! *slot* (`CodeMemory::block_slot` in `dcfb-trace`), so per-block
//! state can live in a vector indexed by slot instead of a hash map
//! keyed by block — the pattern of the simulator's branch store. A
//! [`SlotTable`] is that vector, plus a small fallback map for the
//! blocks without a slot: prefetch candidates past the end of an image,
//! and blocks a recorded trace never executed.
//!
//! The simulator keeps its CMAL latencies in one, and each
//! [`TimelinessTracker`](crate::TimelinessTracker) keeps its prefetch
//! records in another. This crate stays a leaf: callers resolve the
//! slot themselves and hand over a [`SlotKey`].

use fxhash::FxHashMap;
use std::collections::hash_map::Entry;

/// Where a block's entry lives in a [`SlotTable`]: at its dense slot,
/// or — for a block without one — under the block number itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SlotKey {
    /// The block's dense slot.
    Slot(u32),
    /// A block without a slot.
    Block(u64),
}

impl SlotKey {
    /// The key of `block`, whose slot (if any) is `slot`. A slot past
    /// `u32::MAX` is keyed by block, like a block without one.
    #[inline]
    pub fn new(block: u64, slot: Option<usize>) -> SlotKey {
        match slot.and_then(|s| u32::try_from(s).ok()) {
            Some(s) => SlotKey::Slot(s),
            None => SlotKey::Block(block),
        }
    }

    /// The dense slot, if the block has one.
    #[inline]
    pub fn slot(self) -> Option<usize> {
        match self {
            SlotKey::Slot(s) => Some(s as usize),
            SlotKey::Block(_) => None,
        }
    }
}

/// Per-block values of type `T`, dense by slot with a fallback map.
///
/// `T::default()` means "no entry": the dense vector grows only when a
/// non-default value is stored past its end (so building a table costs
/// nothing up front), and the fallback map holds only non-default
/// values.
#[derive(Clone, Debug, Default)]
pub struct SlotTable<T> {
    dense: Vec<T>,
    fallback: FxHashMap<u64, T>,
}

impl<T: Copy + Default + PartialEq> SlotTable<T> {
    /// An empty table.
    pub fn new() -> SlotTable<T> {
        SlotTable {
            dense: Vec::new(),
            fallback: FxHashMap::default(),
        }
    }

    /// The value stored under `key` (`T::default()` if none).
    #[inline]
    pub fn get(&self, key: SlotKey) -> T {
        match key {
            SlotKey::Slot(s) => self.dense.get(s as usize).copied().unwrap_or_default(),
            SlotKey::Block(b) => self.fallback.get(&b).copied().unwrap_or_default(),
        }
    }

    /// Runs `f` on the value stored under `key` (`T::default()` if
    /// none) and stores what it leaves.
    #[inline]
    pub fn update<R>(&mut self, key: SlotKey, f: impl FnOnce(&mut T) -> R) -> R {
        match key {
            SlotKey::Slot(s) => {
                let s = s as usize;
                if let Some(v) = self.dense.get_mut(s) {
                    return f(v);
                }
                let mut v = T::default();
                let r = f(&mut v);
                if v != T::default() {
                    self.dense.resize(s + 1, T::default());
                    self.dense[s] = v;
                }
                r
            }
            SlotKey::Block(b) => match self.fallback.entry(b) {
                Entry::Occupied(mut e) => {
                    let r = f(e.get_mut());
                    if *e.get() == T::default() {
                        e.remove();
                    }
                    r
                }
                Entry::Vacant(e) => {
                    let mut v = T::default();
                    let r = f(&mut v);
                    if v != T::default() {
                        e.insert(v);
                    }
                    r
                }
            },
        }
    }

    /// Calls `f` with every stored value, dense entries and fallback
    /// entries alike, and leaves the table empty.
    pub fn drain(&mut self, mut f: impl FnMut(T)) {
        for v in &mut self.dense {
            let v = std::mem::take(v);
            if v != T::default() {
                f(v);
            }
        }
        for (_, v) in self.fallback.drain() {
            f(v);
        }
    }

    /// Drops every stored value. The dense vector keeps its length.
    pub fn clear(&mut self) {
        self.dense.fill(T::default());
        self.fallback.clear();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_fallback_entries_round_trip() {
        let mut t: SlotTable<Option<u64>> = SlotTable::new();
        assert_eq!(t.get(SlotKey::Slot(7)), None);
        // A read-only probe past the end does not grow the vector.
        assert_eq!(t.update(SlotKey::Slot(7), |v| v.take()), None);
        assert!(t.dense.is_empty());
        t.update(SlotKey::Slot(7), |v| *v = Some(3));
        t.update(SlotKey::new(1 << 40, None), |v| *v = Some(4));
        assert_eq!(t.dense.len(), 8);
        assert_eq!(t.get(SlotKey::new(99, Some(7))), Some(3));
        assert_eq!(SlotKey::new(99, Some(7)).slot(), Some(7));
        assert_eq!(SlotKey::new(99, None).slot(), None);
        assert_eq!(SlotKey::new(99, Some(1 << 40)), SlotKey::Block(99));
        assert_eq!(t.get(SlotKey::Block(1 << 40)), Some(4));
        // Taking a fallback entry removes it from the map.
        assert_eq!(t.update(SlotKey::Block(1 << 40), |v| v.take()), Some(4));
        assert!(t.fallback.is_empty());
        t.update(SlotKey::Block(5), |v| *v = Some(6));
        let mut drained = Vec::new();
        t.drain(|v| drained.push(v));
        drained.sort();
        assert_eq!(drained, vec![Some(3), Some(6)]);
        assert_eq!(t.get(SlotKey::Slot(7)), None);
        assert_eq!(t.get(SlotKey::Block(5)), None);
        t.update(SlotKey::Slot(2), |v| *v = Some(1));
        t.clear();
        assert_eq!(t.get(SlotKey::Slot(2)), None);
    }
}
