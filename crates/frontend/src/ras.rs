//! Return address stack (RAS).

use dcfb_trace::Addr;

/// A bounded return-address stack with wrap-around overwrite on
/// overflow (the usual hardware behaviour).
#[derive(Clone, Debug)]
pub struct ReturnAddressStack {
    entries: Vec<Addr>,
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
            entries: Vec::with_capacity(capacity),
            capacity,
            overflows: 0,
            underflows: 0,
        }
    }

    /// Pushes a return address; on overflow the *oldest* entry is
    /// dropped.
    pub fn push(&mut self, addr: Addr) {
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
            self.overflows += 1;
        }
        self.entries.push(addr);
    }

    /// Pops the predicted return target; `None` on an empty stack
    /// (counted as an underflow).
    pub fn pop(&mut self) -> Option<Addr> {
        let v = self.entries.pop();
        if v.is_none() {
            self.underflows += 1;
        }
        v
    }

    /// Peeks the top without popping.
    pub fn peek(&self) -> Option<Addr> {
        self.entries.last().copied()
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
