//! Bounded ring buffer for trace events.
//!
//! The collector must never grow without bound during a long flow, so events
//! land in a fixed-capacity ring: once full, the oldest event is overwritten
//! and a drop counter is bumped. Exports walk the ring oldest-first.

/// Fixed-capacity overwrite-oldest ring buffer.
#[derive(Debug)]
pub struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    /// Total number of elements overwritten (dropped) so far.
    dropped: u64,
}

impl<T> Ring<T> {
    /// Create a ring holding at most `cap` elements. `cap` is clamped to at
    /// least 1 so pushes always succeed.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Ring {
            buf: Vec::new(),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    /// Number of elements currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total elements evicted to make room since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append an element, evicting the oldest when at capacity. Returns
    /// the evicted element so the caller can account for *what* was
    /// dropped (span vs instant), not just that something was.
    pub fn push(&mut self, value: T) -> Option<T> {
        if self.buf.len() < self.cap {
            self.buf.push(value);
            None
        } else {
            let evicted = std::mem::replace(&mut self.buf[self.head], value);
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
            Some(evicted)
        }
    }

    /// Iterate oldest-to-newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (tail, front) = self.buf.split_at(self.head);
        front.iter().chain(tail.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = Ring::new(3);
        let mut evicted = Vec::new();
        for i in 0..5 {
            if let Some(old) = r.push(i) {
                evicted.push(old);
            }
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let got: Vec<i32> = r.iter().copied().collect();
        assert_eq!(got, vec![2, 3, 4]);
        // The evicted elements are exactly the oldest ones, in order.
        assert_eq!(evicted, vec![0, 1]);
    }

    #[test]
    fn ring_below_capacity_preserves_order() {
        let mut r = Ring::new(8);
        r.push("a");
        r.push("b");
        assert_eq!(r.dropped(), 0);
        let got: Vec<&str> = r.iter().copied().collect();
        assert_eq!(got, vec!["a", "b"]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = Ring::new(0);
        r.push(1);
        r.push(2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2]);
    }
}
