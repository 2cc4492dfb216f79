//! A Fenwick (binary indexed) tree over occupancy counts — the engine
//! behind Mattson stack-distance computation.
//!
//! The classic trick: walk the access sequence left to right keeping a
//! mark at the *latest* position each distinct item was seen. The LRU
//! stack distance of a re-access is then the number of marks strictly
//! between the item's previous position and the current one — a range
//! count this tree answers in `O(log n)`. The profile pass keeps its
//! marks in a bitset and this tree over the bitset's 64-bit words
//! (a count of up to 64 per position); the reference builder keeps one
//! 0/1 count per event.

/// A Fenwick tree of `u32` counts over a fixed index range.
///
/// Every count is a number of marks, one per event at most, so `u32`
/// prefix sums cannot overflow for any trace shorter than four billion
/// events.
#[derive(Clone, Debug)]
pub struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    /// A tree over positions `0..len`, all zero.
    pub fn new(len: usize) -> Self {
        Fenwick {
            tree: vec![0; len + 1],
        }
    }

    /// Number of positions the tree covers.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Whether the tree covers no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sets the mark at `pos` (adds one).
    pub fn set(&mut self, pos: usize) {
        self.add(pos, 1);
    }

    /// Adds `n` marks at `pos`.
    pub fn add(&mut self, pos: usize, n: u32) {
        let mut i = pos + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(n);
            i += i & i.wrapping_neg();
        }
    }

    /// Clears the mark at `pos` (subtracts one). Wrapping arithmetic
    /// keeps prefix sums exact as long as every `clear` follows a `set`
    /// of the same position.
    pub fn clear(&mut self, pos: usize) {
        let mut i = pos + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_sub(1);
            i += i & i.wrapping_neg();
        }
    }

    /// Number of marks in `0..=pos`.
    pub fn prefix(&self, pos: usize) -> u32 {
        let mut i = (pos + 1).min(self.tree.len() - 1);
        let mut sum = 0u32;
        while i > 0 {
            sum = sum.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Number of marks in the open interval `(lo, hi)` — i.e. positions
    /// `lo+1 ..= hi-1`. Zero when the interval is empty.
    pub fn between(&self, lo: usize, hi: usize) -> u32 {
        if hi <= lo + 1 {
            return 0;
        }
        self.prefix(hi - 1).wrapping_sub(self.prefix(lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_prefix_roundtrip() {
        let mut f = Fenwick::new(10);
        assert_eq!(f.len(), 10);
        assert!(!f.is_empty());
        for p in [0, 3, 7, 9] {
            f.set(p);
        }
        assert_eq!(f.prefix(0), 1);
        assert_eq!(f.prefix(2), 1);
        assert_eq!(f.prefix(3), 2);
        assert_eq!(f.prefix(9), 4);
        f.clear(3);
        assert_eq!(f.prefix(9), 3);
        assert_eq!(f.between(0, 9), 1, "only 7 lies strictly between");
        assert_eq!(f.between(7, 9), 0);
        assert_eq!(f.between(2, 2), 0);
    }

    #[test]
    fn between_matches_naive_counting() {
        // A deterministic pseudo-random mark pattern, checked against a
        // brute-force bit vector.
        let n = 257;
        let mut f = Fenwick::new(n);
        let mut marks = vec![false; n];
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let p = (x % n as u64) as usize;
            if marks[p] {
                f.clear(p);
                marks[p] = false;
            } else {
                f.set(p);
                marks[p] = true;
            }
        }
        for (lo, hi) in [(0, n), (5, 6), (10, 200), (100, 101), (200, 40)] {
            let naive = (lo + 1..hi.min(n)).filter(|&i| i > lo && marks[i]).count() as u32;
            assert_eq!(f.between(lo, hi), naive, "({lo}, {hi})");
        }
    }

    #[test]
    fn empty_tree_is_harmless() {
        let f = Fenwick::new(0);
        assert!(f.is_empty());
        assert_eq!(f.prefix(0), 0);
        assert_eq!(f.between(0, 0), 0);
    }
}
