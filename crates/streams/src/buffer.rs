//! A single FIFO stream buffer (the paper's Figure 2).
//!
//! The entry queue is a fixed ring of 16-byte slots indexed by a head
//! pointer: each slot is a block tag plus a meta word that packs the
//! valid flag (bit 63) over the prefetch issue time. Two slots share a
//! cache line where the previous `VecDeque` of 24-byte entry structs
//! straddled them, and the ring's wrap is one predictable conditional
//! subtract instead of the deque's masked capacity arithmetic. The
//! pre-restructuring layout survives verbatim as
//! `reference::RefStreamBuffer` so the replay bench compares against
//! the genuine original.

// Hot-loop module: every stream hit, refill and write-back probe lands here.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use streamsim_trace::{Addr, BlockAddr, BlockSize};

/// Valid flag inside [`Slot::meta`]. The low 63 bits hold the issue
/// time, a per-run lookup count that cannot plausibly overflow them.
const VALID_BIT: u64 = 1 << 63;

/// One ring slot: a prefetched block tag and its packed metadata.
#[derive(Clone, Copy, Debug)]
struct Slot {
    block: u64,
    /// Bit 63: valid. Bits 0..63: logical time the prefetch was issued.
    meta: u64,
}

/// Effects of (re)allocating a stream buffer, for bandwidth accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct AllocationEffects {
    /// Valid prefetched entries discarded by the flush.
    pub flushed: u64,
    /// Length (in hits) of the run the buffer was on before the flush.
    pub previous_run: u64,
    /// Prefetches issued to refill the buffer.
    pub issued: u64,
}

/// Effects of consuming a matched entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ConsumeEffects {
    /// Valid entries discarded ahead of the match (any-entry policy only).
    pub skipped: u64,
    /// Prefetches issued to refill the freed slots.
    pub issued: u64,
    /// Lookups elapsed between the consumed entry's prefetch issue and
    /// this hit (its *lead time*; ≥ 1).
    pub lead: u64,
}

/// A single stream buffer: a FIFO of prefetched cache-block tags, a stride
/// register and an adder that generates successive prefetch addresses.
///
/// Jouppi's original buffers always advance by one cache block; the
/// paper's §7 extension replaces the incrementer with a general adder so a
/// buffer can follow any constant stride (including negative ones). Both
/// behaviours are captured here by the signed `stride_bytes` set at
/// allocation.
///
/// The FIFO holds tags only (hit-rate studies do not model the data);
/// each slot also records a valid flag and the logical time its prefetch
/// was issued, which supports the §8 timing analysis — a hit whose
/// prefetch was issued only moments ago may still be waiting on memory.
///
/// Buffers are driven by [`crate::StreamSystem`]; the public surface is
/// read-only inspection.
#[derive(Clone, Debug)]
pub struct StreamBuffer {
    depth: usize,
    block: BlockSize,
    /// Ring storage: logical FIFO position `i` lives at slot
    /// `(head + i) % depth`, positions `0..len` are live. Slots past
    /// `len` hold stale values that are overwritten before they can be
    /// read.
    slots: Box<[Slot]>,
    head: usize,
    len: usize,
    /// Byte address the adder will prefetch next.
    next_prefetch: Addr,
    stride_bytes: i64,
    /// Block of the most recently enqueued prefetch, for de-duplicating
    /// sub-block strides (several words of one block need one prefetch).
    last_queued_block: BlockAddr,
    /// Set when the prefetch address saturated at an end of the address
    /// space; no further prefetches can be generated this run.
    exhausted: bool,
    active: bool,
    run_hits: u64,
    lru_stamp: u64,
    /// One-bit-per-block Bloom summary of every block enqueued since the
    /// last flush (bit `index & 63`). Never a false negative: consumed or
    /// invalidated entries leave their bits set (a false positive costs
    /// one real scan), so a clear bit proves the block is not buffered —
    /// the write-back fast path the system's mirror array relies on.
    bloom: u64,
}

impl StreamBuffer {
    /// Creates an idle buffer of `depth` entries for `block`-sized blocks.
    pub(crate) fn new(depth: usize, block: BlockSize) -> Self {
        assert!(depth > 0, "stream depth must be at least 1");
        StreamBuffer {
            depth,
            block,
            slots: vec![Slot { block: 0, meta: 0 }; depth].into_boxed_slice(),
            head: 0,
            len: 0,
            next_prefetch: Addr::new(0),
            stride_bytes: block.bytes() as i64,
            last_queued_block: BlockAddr::from_index(0),
            exhausted: false,
            active: false,
            run_hits: 0,
            lru_stamp: 0,
            bloom: 0,
        }
    }

    /// Physical slot of logical FIFO position `pos`. `head + pos` never
    /// reaches `2 * depth`, so one conditional subtract replaces a
    /// modulo.
    #[inline(always)]
    fn slot(&self, pos: usize) -> usize {
        let s = self.head + pos;
        if s >= self.depth {
            s - self.depth
        } else {
            s
        }
    }

    /// Valid entries among logical positions `0..upto`.
    fn count_valid(&self, upto: usize) -> u64 {
        (0..upto)
            .filter(|&i| self.slots[self.slot(i)].meta & VALID_BIT != 0)
            .count() as u64
    }

    /// Whether the buffer currently holds an allocated stream.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The stride (in bytes) the buffer is prefetching with.
    pub fn stride_bytes(&self) -> i64 {
        self.stride_bytes
    }

    /// Number of entries currently buffered (valid or invalidated).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block at the head of the FIFO, if any (valid entries only).
    pub fn head_block(&self) -> Option<BlockAddr> {
        (self.len > 0 && self.slots[self.head].meta & VALID_BIT != 0)
            .then(|| BlockAddr::from_index(self.slots[self.head].block))
    }

    /// Hits supplied since the last allocation.
    pub fn current_run(&self) -> u64 {
        self.run_hits
    }

    pub(crate) fn lru_stamp(&self) -> u64 {
        self.lru_stamp
    }

    /// The block Bloom summary (see the field doc). A block whose
    /// `1 << (index & 63)` bit is clear is definitely not buffered.
    pub(crate) fn block_bloom(&self) -> u64 {
        self.bloom
    }

    pub(crate) fn touch(&mut self, stamp: u64) {
        self.lru_stamp = stamp;
    }

    /// Whether the valid head entry matches `block`.
    #[cfg(test)]
    fn head_matches(&self, block: BlockAddr) -> bool {
        self.head_block() == Some(block)
    }

    /// Position of the first valid entry matching `block`, for the
    /// any-entry ablation policy.
    pub(crate) fn match_position(&self, block: BlockAddr) -> Option<usize> {
        (0..self.len).find(|&i| {
            let s = self.slots[self.slot(i)];
            s.meta & VALID_BIT != 0 && s.block == block.index()
        })
    }

    /// Issues one prefetch at logical time `now`, de-duplicating blocks
    /// for sub-block strides. Returns whether an entry was enqueued.
    fn refill_one(&mut self, now: u64) -> bool {
        loop {
            if self.exhausted {
                return false;
            }
            let target_addr = self.next_prefetch;
            let target = target_addr.block(self.block);
            let advanced = target_addr.offset(self.stride_bytes);
            if advanced == target_addr {
                // Saturated at an end of the address space.
                self.exhausted = true;
            }
            self.next_prefetch = advanced;
            if target != self.last_queued_block {
                let s = self.slot(self.len);
                self.slots[s] = Slot {
                    block: target.index(),
                    meta: VALID_BIT | now,
                };
                self.len += 1;
                self.bloom |= 1 << (target.index() & 63);
                self.last_queued_block = target;
                return true;
            }
        }
    }

    /// Flushes the buffer and re-targets it to prefetch
    /// `miss + stride, miss + 2·stride, …`.
    ///
    /// # Panics
    ///
    /// Panics if `stride_bytes == 0`.
    pub(crate) fn allocate(
        &mut self,
        miss: Addr,
        stride_bytes: i64,
        now: u64,
    ) -> AllocationEffects {
        assert!(stride_bytes != 0, "a stream cannot have stride zero");
        let flushed = self.count_valid(self.len);
        let previous_run = self.run_hits;
        self.head = 0;
        self.len = 0;
        self.bloom = 0;
        self.run_hits = 0;
        self.exhausted = false;
        self.stride_bytes = stride_bytes;
        self.last_queued_block = miss.block(self.block);
        self.next_prefetch = miss.offset(stride_bytes);
        if self.next_prefetch == miss {
            self.exhausted = true; // saturated immediately
        }
        let mut issued = 0;
        while self.len < self.depth && self.refill_one(now) {
            issued += 1;
        }
        self.active = true;
        AllocationEffects {
            flushed,
            previous_run,
            issued,
        }
    }

    /// Consumes the matched entry at `pos` (0 = head): the block moves to
    /// the primary cache, entries ahead of it are discarded, and the adder
    /// streams new prefetches into the freed slots.
    pub(crate) fn consume(&mut self, pos: usize, now: u64) -> ConsumeEffects {
        debug_assert!(pos < self.len && self.slots[self.slot(pos)].meta & VALID_BIT != 0);
        let skipped = self.count_valid(pos);
        let matched_issue = self.slots[self.slot(pos)].meta & !VALID_BIT;
        self.head = self.slot(pos + 1);
        self.len -= pos + 1;
        self.run_hits += 1;
        let mut issued = 0;
        while self.len < self.depth && self.refill_one(now) {
            issued += 1;
        }
        ConsumeEffects {
            skipped,
            issued,
            lead: now.saturating_sub(matched_issue).max(1),
        }
    }

    /// Marks any buffered copy of `block` invalid (a write-back passed it
    /// on its way to memory). Returns the number of entries invalidated.
    pub(crate) fn invalidate(&mut self, block: BlockAddr) -> u64 {
        let mut count = 0;
        for i in 0..self.len {
            let s = self.slot(i);
            if self.slots[s].meta & VALID_BIT != 0 && self.slots[s].block == block.index() {
                self.slots[s].meta &= !VALID_BIT;
                count += 1;
            }
        }
        count
    }

    /// Ends the simulation for this buffer: returns the number of valid
    /// (never consumed) entries and the final run length, then goes idle.
    pub(crate) fn retire(&mut self) -> (u64, u64) {
        let dead = self.count_valid(self.len);
        let run = self.run_hits;
        self.head = 0;
        self.len = 0;
        self.bloom = 0;
        self.run_hits = 0;
        self.active = false;
        (dead, run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(depth: usize) -> StreamBuffer {
        StreamBuffer::new(depth, BlockSize::new(32).unwrap())
    }

    fn block_of(addr: u64) -> BlockAddr {
        Addr::new(addr).block(BlockSize::new(32).unwrap())
    }

    #[test]
    fn allocation_prefetches_successors() {
        let mut b = buf(2);
        let fx = b.allocate(Addr::new(0x100), 32, 0);
        assert_eq!(fx.issued, 2);
        assert_eq!(fx.flushed, 0);
        assert!(b.head_matches(block_of(0x120)));
        assert_eq!(b.len(), 2);
        assert!(b.is_active());
    }

    #[test]
    fn consume_refills_from_the_adder() {
        let mut b = buf(2);
        b.allocate(Addr::new(0), 32, 0);
        assert!(b.head_matches(block_of(32)));
        let fx = b.consume(0, 1);
        assert_eq!(fx.issued, 1);
        assert_eq!(fx.skipped, 0);
        assert!(b.head_matches(block_of(64)));
        assert_eq!(b.current_run(), 1);
    }

    #[test]
    fn reallocation_flushes_and_reports_run() {
        let mut b = buf(2);
        b.allocate(Addr::new(0), 32, 0);
        b.consume(0, 1);
        b.consume(0, 1);
        let fx = b.allocate(Addr::new(0x4000), 32, 0);
        assert_eq!(fx.flushed, 2, "both live prefetches discarded");
        assert_eq!(fx.previous_run, 2);
        assert!(b.head_matches(block_of(0x4020)));
    }

    #[test]
    fn negative_stride_streams_backwards() {
        let mut b = buf(2);
        b.allocate(Addr::new(0x1000), -32, 0);
        assert!(b.head_matches(block_of(0x0fe0)));
        b.consume(0, 1);
        assert!(b.head_matches(block_of(0x0fc0)));
        assert_eq!(b.stride_bytes(), -32);
    }

    #[test]
    fn large_stride_prefetches_far_blocks() {
        let mut b = buf(2);
        b.allocate(Addr::new(0), 4096, 0);
        assert!(b.head_matches(block_of(4096)));
        b.consume(0, 1);
        assert!(b.head_matches(block_of(8192)));
    }

    #[test]
    fn sub_block_stride_deduplicates_blocks() {
        // Stride of 8 bytes within 32-byte blocks: prefetches must be one
        // per distinct block, not one per word.
        let mut b = buf(2);
        let fx = b.allocate(Addr::new(0), 8, 0);
        assert_eq!(fx.issued, 2);
        assert!(b.head_matches(block_of(32)));
        let fx = b.consume(0, 1);
        assert_eq!(fx.issued, 1);
        assert!(b.head_matches(block_of(64)));
    }

    #[test]
    fn saturation_at_address_zero_stops_prefetching() {
        let mut b = buf(4);
        let fx = b.allocate(Addr::new(64), -32, 0);
        // Can prefetch blocks at 32 and 0, then saturates.
        assert_eq!(fx.issued, 2);
        b.consume(0, 1);
        let fx = b.consume(0, 1);
        assert_eq!(fx.issued, 0);
        assert!(b.is_empty());
        assert!(!b.head_matches(block_of(0)));
    }

    #[test]
    fn invalidation_kills_matching_entries() {
        let mut b = buf(2);
        b.allocate(Addr::new(0), 32, 0);
        assert_eq!(b.invalidate(block_of(32)), 1);
        assert_eq!(b.invalidate(block_of(32)), 0, "already invalid");
        // Head is invalid: it no longer matches.
        assert!(!b.head_matches(block_of(32)));
        assert_eq!(b.head_block(), None);
        // The second entry is still there but is not the head.
        assert_eq!(b.match_position(block_of(64)), Some(1));
    }

    #[test]
    fn any_entry_consume_skips_ahead() {
        let mut b = buf(3);
        b.allocate(Addr::new(0), 32, 0);
        let pos = b.match_position(block_of(96)).unwrap();
        assert_eq!(pos, 2);
        let fx = b.consume(pos, 1);
        assert_eq!(fx.skipped, 2);
        assert_eq!(fx.issued, 3);
        assert!(b.head_matches(block_of(128)));
    }

    #[test]
    fn retire_reports_dead_entries_and_run() {
        let mut b = buf(2);
        b.allocate(Addr::new(0), 32, 0);
        b.consume(0, 1);
        let (dead, run) = b.retire();
        assert_eq!(dead, 2);
        assert_eq!(run, 1);
        assert!(!b.is_active());
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "stride zero")]
    fn zero_stride_panics() {
        let mut b = buf(2);
        let _ = b.allocate(Addr::new(0), 0, 0);
    }

    #[test]
    fn head_only_match_requires_exact_head() {
        let mut b = buf(2);
        b.allocate(Addr::new(0), 32, 0);
        assert!(!b.head_matches(block_of(64)), "second entry is not head");
        assert!(!b.head_matches(block_of(0)), "allocation target not held");
    }

    #[test]
    fn ring_wraps_cleanly_under_sustained_consumption() {
        // Enough consumes to wrap the head pointer through the ring
        // several times; logical FIFO order must be preserved throughout.
        let mut b = buf(3);
        b.allocate(Addr::new(0), 32, 0);
        for i in 1..=20u64 {
            assert!(b.head_matches(block_of(32 * i)), "head at iteration {i}");
            let fx = b.consume(0, i);
            assert_eq!(fx.skipped, 0);
            assert_eq!(b.len(), 3);
        }
    }
}
