//! Return address stack (RAS).

use dcfb_trace::Addr;
use std::collections::VecDeque;

/// A bounded return-address stack with wrap-around overwrite on
/// overflow (the usual hardware behaviour).
#[derive(Clone, Debug)]
pub struct ReturnAddressStack {
    /// Oldest entry at the front; a push onto a full stack drops it.
    entries: VecDeque<Addr>,
    capacity: usize,
    overflows: u64,
    underflows: u64,
}

impl ReturnAddressStack {
    /// Creates a RAS with room for `capacity` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS capacity must be non-zero");
        ReturnAddressStack {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            overflows: 0,
            underflows: 0,
        }
    }

    /// Pushes a return address; on overflow the *oldest* entry is
    /// dropped.
    #[inline]
    pub fn push(&mut self, addr: Addr) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.overflows += 1;
        }
        self.entries.push_back(addr);
    }

    /// Pops the predicted return target; `None` on an empty stack
    /// (counted as an underflow).
    #[inline]
    pub fn pop(&mut self) -> Option<Addr> {
        let v = self.entries.pop_back();
        if v.is_none() {
            self.underflows += 1;
        }
        v
    }

    /// Peeks the top without popping.
    pub fn peek(&self) -> Option<Addr> {
        self.entries.back().copied()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// `(overflows, underflows)` counters.
    pub fn pressure(&self) -> (u64, u64) {
        (self.overflows, self.underflows)
    }

    /// Clears the stack (pipeline squash on deep misprediction).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Squash repair: clears the stack and pushes `other`'s entries,
    /// oldest first. This stack's counters move exactly as those pushes
    /// move them (not at all when `other` fits).
    pub fn repair_from(&mut self, other: &ReturnAddressStack) {
        self.entries.clear();
        for &addr in &other.entries {
            self.push(addr);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_lifo() {
        let mut r = ReturnAddressStack::new(4);
        r.push(1);
        r.push(2);
        assert_eq!(r.peek(), Some(2));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), None);
        assert_eq!(r.pressure(), (0, 1));
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut r = ReturnAddressStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.depth(), 2);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
        assert_eq!(r.pressure().0, 1);
    }

    #[test]
    fn repair_copies_entries_and_keeps_counters() {
        let mut arch = ReturnAddressStack::new(2);
        arch.push(1);
        arch.push(2);
        arch.push(3); // overflow on the architectural stack only
        let mut spec = ReturnAddressStack::new(2);
        spec.push(9);
        assert_eq!(spec.pop(), Some(9));
        assert_eq!(spec.pop(), None);
        spec.repair_from(&arch);
        assert_eq!(spec.depth(), 2);
        assert_eq!(spec.pressure(), (0, 1));
        assert_eq!(spec.pop(), Some(3));
        assert_eq!(spec.pop(), Some(2));
    }

    #[test]
    fn clear_empties() {
        let mut r = ReturnAddressStack::new(4);
        r.push(9);
        r.clear();
        assert_eq!(r.depth(), 0);
        assert_eq!(r.peek(), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = ReturnAddressStack::new(0);
    }
}
