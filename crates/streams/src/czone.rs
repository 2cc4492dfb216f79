//! Non-unit-stride detection: the czone partition scheme (§7).
//!
//! Off-chip logic cannot see the program counter, so per-instruction
//! stride tables (Baer & Chen) are unavailable. The paper instead
//! partitions the physical address space dynamically: the low `czone_bits`
//! of the *word* address are the **concentration zone** and the remaining
//! high bits are a partition *tag*. References whose addresses share a tag
//! fall in the same partition and are analysed in isolation by a small
//! finite-state machine (Figure 7) that verifies a constant stride:
//!
//! ```text
//! INVALID ──miss a──▶ META1 ──miss a'──▶ META2 ──miss a''──▶ allocate
//!                     (last = a)         (stride = a' − a)   if a''−a' == stride
//! ```
//!
//! On the third constant-stride miss, a stream is allocated with that
//! stride and the filter entry is freed. The czone size trades off
//! detection ability (Figure 9): too small and three strided references
//! never share a partition; too large and unrelated streams collide.
//!
//! The per-partition FSM entries are stored as structure-of-arrays — the
//! tags in their own flat `Vec<u64>` probed by the branchless
//! [`scan::find_first`](crate::scan::find_first), with the last address,
//! stride guess and FSM state in parallel arrays touched only on a tag
//! hit. The tag scan runs on every miss that falls through the unit
//! filter, so only the 8 bytes per partition it actually compares stay in
//! the scanned cache lines. Tags are unique (one FSM per partition), so
//! first-match order is equivalent to any-match here; the parallel arrays
//! shift together on eviction to preserve the paper's FIFO.

// Hot-loop module: probed on every miss that falls through the unit filter.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use streamsim_trace::WordAddr;

use crate::scan;
use crate::FilterStats;

/// State of a partition's stride-verification FSM (Figure 7).
///
/// `INVALID` is represented by the absence of a filter entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsmState {
    /// One miss seen; `last_addr` recorded, no stride guess yet.
    Meta1,
    /// Two or more misses seen; a candidate stride is being verified.
    Meta2,
}

/// The non-unit-stride filter: a history buffer of active partitions, each
/// with the FSM state needed to verify a constant stride.
///
/// Strides are detected in *words* (the paper operates on word addresses)
/// and reported as signed word deltas; the caller scales them to bytes.
#[derive(Clone, Debug)]
pub struct CzoneFilter {
    /// Partition tags; index 0 = oldest. The only array the scan touches.
    tags: Vec<u64>,
    /// Word index of the partition's most recent miss.
    last: Vec<u64>,
    /// Candidate stride in words; meaningful in `Meta2`.
    strides: Vec<i64>,
    states: Vec<FsmState>,
    capacity: usize,
    czone_bits: u32,
    stats: FilterStats,
}

impl CzoneFilter {
    /// Creates a filter of `capacity` entries partitioning word addresses
    /// with a czone of `czone_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `czone_bits` is outside `1..=62`.
    pub fn new(capacity: usize, czone_bits: u32) -> Self {
        assert!(capacity > 0, "filter needs at least one entry");
        assert!(
            (1..=62).contains(&czone_bits),
            "czone size must be between 1 and 62 bits"
        );
        CzoneFilter {
            tags: Vec::with_capacity(capacity),
            last: Vec::with_capacity(capacity),
            strides: Vec::with_capacity(capacity),
            states: Vec::with_capacity(capacity),
            capacity,
            czone_bits,
            stats: FilterStats::default(),
        }
    }

    /// The configured czone size in bits.
    pub fn czone_bits(&self) -> u32 {
        self.czone_bits
    }

    /// Removes the partition at `pos` from all four parallel arrays.
    fn evict(&mut self, pos: usize) {
        self.tags.remove(pos);
        self.last.remove(pos);
        self.strides.remove(pos);
        self.states.remove(pos);
    }

    /// Presents a missed word address. Returns `Some(stride_words)` when
    /// three consecutive misses in one partition have a verified constant
    /// stride — the caller should allocate a stream — and the entry is
    /// freed. Otherwise the FSM for the partition advances.
    pub fn lookup(&mut self, word: WordAddr) -> Option<i64> {
        self.stats.lookups += 1;
        let tag = word.czone_tag(self.czone_bits);
        let pos = scan::find_first(&self.tags, tag);
        if pos != usize::MAX {
            let delta = word.delta(WordAddr::from_index(self.last[pos]));
            if delta == 0 {
                // Two misses to the same word (e.g. re-miss after
                // eviction): no stride information, keep waiting.
                return None;
            }
            match self.states[pos] {
                FsmState::Meta1 => {
                    self.strides[pos] = delta;
                    self.last[pos] = word.index();
                    self.states[pos] = FsmState::Meta2;
                    None
                }
                FsmState::Meta2 => {
                    if delta == self.strides[pos] {
                        // Stride verified: free the entry and allocate.
                        self.evict(pos);
                        self.stats.allocations += 1;
                        Some(delta)
                    } else {
                        self.strides[pos] = delta;
                        self.last[pos] = word.index();
                        None
                    }
                }
            }
        } else {
            if self.tags.len() == self.capacity {
                self.evict(0);
                self.stats.evictions += 1;
            }
            self.tags.push(tag);
            self.last.push(word.index());
            self.strides.push(0);
            self.states.push(FsmState::Meta1);
            self.stats.insertions += 1;
            None
        }
    }

    /// Filter counters.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Number of partitions currently tracked.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether no partitions are tracked.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: u64) -> WordAddr {
        WordAddr::from_index(i)
    }

    #[test]
    fn three_strided_references_allocate() {
        let mut f = CzoneFilter::new(4, 16);
        assert_eq!(f.lookup(w(1000)), None); // META1
        assert_eq!(f.lookup(w(1040)), None); // META2, stride 40
        assert_eq!(f.lookup(w(1080)), Some(40)); // verified
        assert_eq!(f.stats().allocations, 1);
        assert!(f.is_empty(), "entry freed after allocation");
    }

    #[test]
    fn negative_strides_are_detected() {
        let mut f = CzoneFilter::new(4, 16);
        f.lookup(w(5000));
        f.lookup(w(4900));
        assert_eq!(f.lookup(w(4800)), Some(-100));
    }

    #[test]
    fn changing_stride_restarts_verification() {
        let mut f = CzoneFilter::new(4, 16);
        f.lookup(w(100));
        f.lookup(w(140)); // candidate 40
        assert_eq!(f.lookup(w(200)), None); // delta 60 != 40: re-guess
        assert_eq!(f.lookup(w(260)), Some(60)); // 60 verified
    }

    #[test]
    fn references_in_different_partitions_do_not_interfere() {
        let mut f = CzoneFilter::new(4, 8);
        // Partition A: words 0x100, 0x110, 0x120 (czone 8 bits: tag 1).
        // Partition B: words 0x900, 0x9f0 (tag 9).
        f.lookup(w(0x100));
        f.lookup(w(0x900));
        f.lookup(w(0x110));
        f.lookup(w(0x9f0));
        assert_eq!(f.lookup(w(0x120)), Some(0x10));
    }

    #[test]
    fn czone_too_small_misses_large_strides() {
        // Stride 0x100 words with an 8-bit czone: each reference lands in
        // a different partition, so no stride is ever verified.
        let mut f = CzoneFilter::new(8, 8);
        for i in 0..6u64 {
            assert_eq!(f.lookup(w(0x1000 + i * 0x100)), None);
        }
        assert_eq!(f.stats().allocations, 0);
    }

    #[test]
    fn czone_large_enough_catches_the_same_strides() {
        let mut f = CzoneFilter::new(8, 12);
        assert_eq!(f.lookup(w(0x1000)), None);
        assert_eq!(f.lookup(w(0x1100)), None);
        assert_eq!(f.lookup(w(0x1200)), Some(0x100));
    }

    #[test]
    fn interleaved_streams_in_one_partition_defeat_detection() {
        // Two interleaved strided streams sharing a partition (czone too
        // large): deltas alternate and never repeat, as §7 warns.
        let mut f = CzoneFilter::new(8, 30);
        let mut allocations = 0;
        for i in 0..8u64 {
            if f.lookup(w(1_000 + i * 50)).is_some() {
                allocations += 1;
            }
            if f.lookup(w(500_000 + i * 70)).is_some() {
                allocations += 1;
            }
        }
        assert_eq!(allocations, 0);
    }

    #[test]
    fn same_word_re_miss_is_ignored() {
        let mut f = CzoneFilter::new(4, 16);
        f.lookup(w(100));
        assert_eq!(f.lookup(w(100)), None);
        f.lookup(w(140));
        assert_eq!(f.lookup(w(140)), None, "duplicate in META2 ignored");
        assert_eq!(f.lookup(w(180)), Some(40), "stride still verifiable");
    }

    #[test]
    fn capacity_evicts_oldest_partition() {
        let mut f = CzoneFilter::new(1, 8);
        f.lookup(w(0x100)); // partition 1
        f.lookup(w(0x900)); // partition 9 evicts partition 1
        assert_eq!(f.stats().evictions, 1);
        // Partition 1 must restart from META1.
        f.lookup(w(0x110));
        f.lookup(w(0x120));
        assert_eq!(f.lookup(w(0x130)), Some(0x10));
    }

    #[test]
    fn eviction_keeps_the_parallel_arrays_in_step() {
        // Fill to capacity, verify a middle partition's stride, then make
        // sure the surviving partitions' FSM state moved with their tags.
        let mut f = CzoneFilter::new(3, 8);
        f.lookup(w(0x100)); // partition 1, META1
        f.lookup(w(0x900)); // partition 9, META1
        f.lookup(w(0x110)); // partition 1, META2 stride 0x10
        f.lookup(w(0x910)); // partition 9, META2 stride 0x10
        assert_eq!(f.lookup(w(0x120)), Some(0x10)); // frees partition 1
        assert_eq!(f.len(), 1);
        // Partition 9 must still be in META2 with stride 0x10.
        assert_eq!(f.lookup(w(0x920)), Some(0x10));
    }

    #[test]
    #[should_panic(expected = "czone size")]
    fn bad_czone_bits_panics() {
        let _ = CzoneFilter::new(4, 0);
    }

    #[test]
    fn accessors() {
        let mut f = CzoneFilter::new(4, 20);
        assert_eq!(f.czone_bits(), 20);
        assert!(f.is_empty());
        f.lookup(w(0));
        assert_eq!(f.len(), 1);
    }
}
