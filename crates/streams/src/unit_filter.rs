//! The unit-stride allocation filter (§6, Figure 4).
//!
//! Ordinary streams allocate on *every* miss, wasting memory bandwidth on
//! isolated references. The filter is a small history buffer of the N most
//! recent miss addresses, storing `a + 1` (the next cache block) for a miss
//! at block `a`. A stream is allocated only when a miss *hits* the filter —
//! i.e. when the preceding block missed in the recent past, indicating two
//! misses to consecutive cache blocks and hence a promising stream.
//!
//! The predictions live in a flat ring of block indices probed with
//! [`scan::find_first`](crate::scan::find_first) over its two contiguous
//! segments: the filter is probed on *every* primary miss that reaches
//! allocation, so the scan is as hot as the stream-head lookup itself,
//! and the ring makes the common capacity eviction a head increment
//! instead of a whole-array memmove. First-match order matters — the
//! history may legitimately hold the same predicted block twice (two
//! recent misses at `a - 1`), and the paper's FIFO frees the oldest.

// Hot-loop module: probed on every filtered allocation decision during replay.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use streamsim_trace::BlockAddr;

use crate::scan;
use crate::FilterStats;

/// History buffer detecting misses to consecutive cache blocks.
///
/// # Example
///
/// ```
/// use streamsim_streams::StreamConfig;
/// # use streamsim_trace::Addr;
/// use streamsim_streams::StreamSystem;
///
/// let mut sys = StreamSystem::new(StreamConfig::paper_filtered(4)?);
/// // An isolated miss never allocates a stream...
/// sys.on_l1_miss(Addr::new(0x9000));
/// assert_eq!(sys.stats().allocations, 0);
/// // ...but a miss to the next sequential block does.
/// sys.on_l1_miss(Addr::new(0x9020));
/// assert_eq!(sys.stats().allocations, 1);
/// # Ok::<(), streamsim_streams::StreamConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub(crate) struct UnitStrideFilter {
    /// Predicted-next block indices in a ring: logical position `i`
    /// (0 = oldest) lives at `(head + i) % capacity`.
    predictions: Box<[u64]>,
    head: usize,
    len: usize,
    stats: FilterStats,
}

impl UnitStrideFilter {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "filter needs at least one entry");
        UnitStrideFilter {
            predictions: vec![0; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            stats: FilterStats::default(),
        }
    }

    /// Physical slot of logical position `pos` (one conditional subtract;
    /// `head + pos` never reaches twice the capacity).
    #[inline(always)]
    fn slot(&self, pos: usize) -> usize {
        let s = self.head + pos;
        if s >= self.predictions.len() {
            s - self.predictions.len()
        } else {
            s
        }
    }

    /// Oldest-first position of `needle`, scanning the ring's two
    /// contiguous segments, or `usize::MAX` if absent.
    fn find(&self, needle: u64) -> usize {
        let first_len = (self.predictions.len() - self.head).min(self.len);
        let pos = scan::find_first(&self.predictions[self.head..self.head + first_len], needle);
        if pos != usize::MAX {
            return pos;
        }
        let wrapped = scan::find_first(&self.predictions[..self.len - first_len], needle);
        if wrapped != usize::MAX {
            return first_len + wrapped;
        }
        usize::MAX
    }

    /// Presents a missed block. Returns `true` when a stream should be
    /// allocated (the block was predicted by an earlier miss); the hit
    /// entry is freed, as the paper specifies. On a filter miss the
    /// successor block is recorded, displacing the oldest entry if full.
    pub(crate) fn lookup(&mut self, block: BlockAddr) -> bool {
        self.stats.lookups += 1;
        let pos = self.find(block.index());
        if pos != usize::MAX {
            // Free the hit entry, preserving the order of the survivors:
            // shift the younger side down one logical position. Streaming
            // hits match the newest prediction, so this loop almost never
            // iterates.
            for i in pos..self.len - 1 {
                self.predictions[self.slot(i)] = self.predictions[self.slot(i + 1)];
            }
            self.len -= 1;
            self.stats.allocations += 1;
            return true;
        }
        if self.len == self.predictions.len() {
            // Dropping the oldest is what the old `Vec::remove(0)`
            // memmove did; here it is one head increment.
            self.head = self.slot(1);
            self.len -= 1;
            self.stats.evictions += 1;
        }
        let tail = self.slot(self.len);
        self.predictions[tail] = block.next().index();
        self.len += 1;
        self.stats.insertions += 1;
        false
    }

    pub(crate) fn stats(&self) -> FilterStats {
        self.stats
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    #[test]
    fn consecutive_blocks_trigger_allocation() {
        let mut f = UnitStrideFilter::new(4);
        assert!(!f.lookup(b(10)), "first miss only records 11");
        assert!(f.lookup(b(11)), "predicted successor hits");
    }

    #[test]
    fn hit_frees_the_entry() {
        let mut f = UnitStrideFilter::new(4);
        f.lookup(b(10));
        assert!(f.lookup(b(11)));
        // The entry was freed; 11 again is a fresh miss recording 12.
        assert!(!f.lookup(b(11)));
        assert!(f.lookup(b(12)));
    }

    #[test]
    fn isolated_references_never_allocate() {
        let mut f = UnitStrideFilter::new(8);
        for i in [100, 300, 500, 700, 900] {
            assert!(!f.lookup(b(i)));
        }
        assert_eq!(f.stats().allocations, 0);
        assert_eq!(f.stats().insertions, 5);
    }

    #[test]
    fn capacity_evicts_oldest_prediction() {
        let mut f = UnitStrideFilter::new(2);
        f.lookup(b(10)); // predicts 11
        f.lookup(b(20)); // predicts 21
        f.lookup(b(30)); // predicts 31, evicts the 11 prediction
        assert!(!f.lookup(b(11)), "prediction for 11 was evicted");
        assert_eq!(f.stats().evictions, 2); // 21 evicted by the b(11) insert too
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn interleaved_streams_are_tracked_independently() {
        let mut f = UnitStrideFilter::new(4);
        assert!(!f.lookup(b(100)));
        assert!(!f.lookup(b(200)));
        assert!(f.lookup(b(101)));
        assert!(f.lookup(b(201)));
    }

    #[test]
    fn descending_accesses_do_not_hit_the_unit_filter() {
        // The unit filter predicts only +1 successors.
        let mut f = UnitStrideFilter::new(8);
        assert!(!f.lookup(b(50)));
        assert!(!f.lookup(b(49)));
        assert!(!f.lookup(b(48)));
        assert_eq!(f.stats().allocations, 0);
    }

    #[test]
    fn duplicate_predictions_free_the_oldest_first() {
        // Two misses at block 9 both predict 10; a hit at 10 must free only
        // the older entry (first match), leaving the second prediction live.
        let mut f = UnitStrideFilter::new(4);
        assert!(!f.lookup(b(9)));
        assert!(!f.lookup(b(9)));
        assert!(f.lookup(b(10)), "first prediction hits");
        assert!(f.lookup(b(10)), "second prediction still present");
        assert!(!f.lookup(b(10)), "both freed now");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = UnitStrideFilter::new(0);
    }
}
