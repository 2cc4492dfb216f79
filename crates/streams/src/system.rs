//! The multi-way stream buffer system (§3).
//!
//! The hot lookup state is kept as structure-of-arrays alongside the
//! buffers, mirroring the `SetAssocCache` rebuild: a flat `Vec<u64>` of
//! head-block tags (with [`IDLE_HEAD`] marking idle buffers and
//! invalidated heads) scanned branchlessly on every miss, and a flat
//! `Vec<u64>` of packed replacement keys (`active` in the top bit over
//! the LRU stamp) so the victim choice is one branchless min-scan. The
//! `StreamBuffer`s remain the source of truth; the arrays are mirrors
//! refreshed at the few points a buffer's head or recency can change.

// Hot-loop module: every L1 miss funnels through this module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use streamsim_trace::{Addr, BlockAddr, BlockSize, WordAddr, WordSize};

use crate::buffer::StreamBuffer;
use crate::czone::CzoneFilter;
use crate::min_delta::MinDeltaDetector;
use crate::scan;
use crate::unit_filter::UnitStrideFilter;
use crate::{Allocation, MatchPolicy, StreamConfig, StreamStats};

/// Sentinel head tag for a buffer with no valid head (idle, empty or an
/// invalidated front entry). Never a real block index: a 32-byte block's
/// index is its byte address shifted right by five, so its top bits are
/// clear; a debug assertion pins this.
const IDLE_HEAD: u64 = u64::MAX;

/// Result of presenting a primary-cache miss to the stream system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamOutcome {
    /// The miss matched a stream buffer; the block moves to the primary
    /// cache from the buffer.
    Hit,
    /// The miss missed the streams and (re)allocated one.
    MissAllocated,
    /// The miss missed the streams and the allocation policy declined to
    /// allocate (filtered as an isolated reference).
    MissFiltered,
}

impl StreamOutcome {
    /// `true` for [`StreamOutcome::Hit`].
    pub const fn is_hit(self) -> bool {
        matches!(self, StreamOutcome::Hit)
    }
}

/// The head tag mirrored into the scan array for `buffer`.
fn head_tag(buffer: &StreamBuffer) -> u64 {
    if !buffer.is_active() {
        return IDLE_HEAD;
    }
    match buffer.head_block() {
        Some(head) => {
            debug_assert_ne!(head.index(), IDLE_HEAD, "head tag collides with sentinel");
            head.index()
        }
        None => IDLE_HEAD,
    }
}

/// The replacement key mirrored into the victim-scan array for `buffer`:
/// idle buffers sort below every active one, ties broken by LRU stamp —
/// the exact order of the `(is_active, lru_stamp)` tuple it replaces.
fn lru_key(buffer: &StreamBuffer) -> u64 {
    let stamp = buffer.lru_stamp();
    debug_assert!(stamp < 1 << 63, "LRU stamp overflows the packed key");
    ((buffer.is_active() as u64) << 63) | stamp
}

/// The allocation policy's state, built from [`Allocation`]: each policy
/// holds exactly the filters it consults on a stream miss.
#[derive(Clone, Debug)]
enum AllocState {
    OnMiss,
    Unit(UnitStrideFilter),
    UnitAndStride(UnitStrideFilter, CzoneFilter),
    MinDelta(MinDeltaDetector),
}

impl AllocState {
    fn new(allocation: Allocation) -> Self {
        match allocation {
            Allocation::OnMiss => AllocState::OnMiss,
            Allocation::UnitFilter { entries } => AllocState::Unit(UnitStrideFilter::new(entries)),
            Allocation::UnitAndStrideFilters {
                unit_entries,
                stride_entries,
                czone_bits,
            } => AllocState::UnitAndStride(
                UnitStrideFilter::new(unit_entries),
                CzoneFilter::new(stride_entries, czone_bits),
            ),
            Allocation::MinDelta {
                entries,
                max_stride_words,
            } => AllocState::MinDelta(MinDeltaDetector::new(entries, max_stride_words)),
        }
    }
}

/// A multi-way set of stream buffers with LRU reallocation and the
/// allocation policy configured in [`StreamConfig`].
///
/// The system observes the primary cache's *miss stream*: call
/// [`StreamSystem::on_l1_miss`] for every primary-cache miss and
/// [`StreamSystem::on_writeback`] for every dirty block written back (the
/// paper: "write-backs bypass the streams and on their way to memory
/// invalidate any stale copies that might be present in the streams").
/// Call [`StreamSystem::finalize`] at end of trace so in-flight prefetches
/// are accounted and final run lengths recorded.
///
/// # Example
///
/// ```
/// use streamsim_streams::{StreamConfig, StreamSystem};
/// use streamsim_trace::Addr;
///
/// let mut sys = StreamSystem::new(StreamConfig::paper_basic(2)?);
/// // Two interleaved unit-stride miss streams lock onto two buffers.
/// for i in 0..50u64 {
///     sys.on_l1_miss(Addr::new(0x10000 + i * 32));
///     sys.on_l1_miss(Addr::new(0x90000 + i * 32));
/// }
/// sys.finalize();
/// assert!(sys.stats().hit_rate() > 0.9);
/// # Ok::<(), streamsim_streams::StreamConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct StreamSystem {
    config: StreamConfig,
    buffers: Vec<StreamBuffer>,
    /// Mirror of each buffer's valid head block ([`IDLE_HEAD`] if none);
    /// the only array the head-only match scan touches.
    head_tags: Vec<u64>,
    /// Mirror of each buffer's packed replacement key (see [`lru_key`]).
    lru_keys: Vec<u64>,
    /// Mirror of each buffer's block Bloom summary
    /// ([`StreamBuffer::block_bloom`]): the write-back path tests one bit
    /// per buffer here and only walks the entries of buffers that might
    /// hold the block — most write-backs touch nothing.
    entry_blooms: Vec<u64>,
    clock: u64,
    alloc: AllocState,
    stats: StreamStats,
    finalized: bool,
}

impl StreamSystem {
    /// Creates a stream system from a validated configuration.
    pub fn new(config: StreamConfig) -> Self {
        let buffers: Vec<StreamBuffer> = (0..config.num_streams())
            .map(|_| StreamBuffer::new(config.depth()))
            .collect();
        StreamSystem {
            head_tags: vec![IDLE_HEAD; buffers.len()],
            lru_keys: buffers.iter().map(lru_key).collect(),
            entry_blooms: vec![0; buffers.len()],
            config,
            buffers,
            clock: 0,
            alloc: AllocState::new(config.allocation()),
            stats: StreamStats::default(),
            finalized: false,
        }
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Read-only view of the individual buffers (for inspection/tests).
    pub fn buffers(&self) -> &[StreamBuffer] {
        &self.buffers
    }

    /// Refreshes the scan mirrors for the buffer at `idx` after any
    /// operation that may have changed its head or recency.
    fn refresh(&mut self, idx: usize) {
        self.head_tags[idx] = head_tag(&self.buffers[idx]);
        self.lru_keys[idx] = lru_key(&self.buffers[idx]);
        self.entry_blooms[idx] = self.buffers[idx].block_bloom();
    }

    /// Presents one primary-cache miss to the streams.
    pub fn on_l1_miss(&mut self, addr: Addr) -> StreamOutcome {
        let block = addr.block(BlockSize::default());
        let word = addr.word(WordSize::default());
        self.on_l1_miss_decoded(addr, block, word)
    }

    /// Like [`StreamSystem::on_l1_miss`], with the block and word of
    /// `addr` already decoded — the replay engine's `StreamObserver` splits
    /// each address once and feeds every system of its family.
    pub fn on_l1_miss_decoded(
        &mut self,
        addr: Addr,
        block: BlockAddr,
        word: WordAddr,
    ) -> StreamOutcome {
        debug_assert!(!self.finalized, "stream system already finalized");
        debug_assert_eq!(block, addr.block(BlockSize::default()), "mismatched block");
        debug_assert_eq!(word, addr.word(WordSize::default()), "mismatched word");
        self.stats.lookups += 1;
        self.clock += 1;

        // All buffers are compared in parallel in hardware; find a match.
        // Head-only matching (the common case) is one branchless scan over
        // the mirrored head tags.
        let matched = match self.config.match_policy() {
            MatchPolicy::HeadOnly => {
                let idx = scan::find_first(&self.head_tags, block.index());
                (idx != usize::MAX).then_some((idx, 0))
            }
            MatchPolicy::AnyEntry => self
                .buffers
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_active())
                .filter_map(|(i, b)| b.match_position(block).map(|pos| (i, pos)))
                .min_by_key(|&(_, pos)| pos),
        };

        if let Some((idx, pos)) = matched {
            let clock = self.clock;
            let fx = self.buffers[idx].consume(pos, clock);
            self.buffers[idx].touch(clock);
            self.refresh(idx);
            self.stats.hits += 1;
            self.stats.prefetches_used += 1;
            self.stats.prefetches_skipped += fx.skipped;
            self.stats.prefetches_issued += fx.issued;
            self.stats.leads.record(fx.lead);
            return StreamOutcome::Hit;
        }

        // Stream miss: consult the allocation policy.
        let unit_stride = BlockSize::default().bytes() as i64;
        let word_bytes = WordSize::default().bytes() as i64;
        let stride_bytes = match &mut self.alloc {
            AllocState::OnMiss => Some(unit_stride),
            AllocState::Unit(unit) => unit.lookup(block).then_some(unit_stride),
            AllocState::UnitAndStride(unit, czone) => {
                if unit.lookup(block) {
                    Some(unit_stride)
                } else {
                    // References that miss the unit filter fall through to
                    // the non-unit-stride filter.
                    czone
                        .lookup(word)
                        .map(|stride_words| stride_words * word_bytes)
                }
            }
            AllocState::MinDelta(detector) => detector
                .lookup(word)
                .map(|stride_words| stride_words * word_bytes),
        };

        match stride_bytes {
            Some(stride) => {
                self.allocate(addr, stride);
                if stride.unsigned_abs() != BlockSize::default().bytes() {
                    self.stats.strided_allocations += 1;
                }
                StreamOutcome::MissAllocated
            }
            None => StreamOutcome::MissFiltered,
        }
    }

    fn allocate(&mut self, addr: Addr, stride_bytes: i64) {
        // LRU replacement among the buffers; idle buffers first. The packed
        // keys make the old (is_active, lru_stamp) min_by_key a branchless
        // min-scan with the same first-minimum tie-breaking.
        let idx = scan::min_index(&self.lru_keys);
        let clock = self.clock;
        let fx = self.buffers[idx].allocate(addr, stride_bytes, clock);
        self.buffers[idx].touch(clock);
        self.refresh(idx);
        self.stats.allocations += 1;
        self.stats.prefetches_flushed += fx.flushed;
        self.stats.prefetches_issued += fx.issued;
        self.stats.lengths.record_run(fx.previous_run);
    }

    /// A dirty block is being written back to memory: invalidate any stale
    /// copies buffered in the streams.
    pub fn on_writeback(&mut self, block: BlockAddr) {
        // A clear Bloom bit proves the buffer never enqueued this block
        // since its last flush, so only plausible holders are walked.
        let bit = 1u64 << (block.index() & 63);
        for i in 0..self.buffers.len() {
            if self.entry_blooms[i] & bit == 0 {
                continue;
            }
            let invalidated = self.buffers[i].invalidate(block);
            if invalidated > 0 {
                // The head may have been the invalidated entry.
                self.head_tags[i] = head_tag(&self.buffers[i]);
            }
            self.stats.prefetches_invalidated += invalidated;
        }
    }

    /// Ends the simulation: accounts still-buffered prefetches as dead and
    /// records the final run length of every active stream. Idempotent.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        for i in 0..self.buffers.len() {
            let (dead, run) = self.buffers[i].retire();
            self.refresh(i);
            self.stats.prefetches_dead += dead;
            self.stats.lengths.record_run(run);
        }
        self.finalized = true;
    }

    /// A human-readable snapshot of every buffer's state — which streams
    /// are locked, their strides and how long they have been running.
    /// Useful when debugging why a workload does (not) stream.
    ///
    /// # Example
    ///
    /// ```
    /// use streamsim_streams::{StreamConfig, StreamSystem};
    /// use streamsim_trace::Addr;
    ///
    /// let mut sys = StreamSystem::new(StreamConfig::paper_basic(2)?);
    /// for i in 0..10u64 {
    ///     sys.on_l1_miss(Addr::new(i * 32));
    /// }
    /// let snap = sys.snapshot();
    /// assert!(snap.contains("stride"));
    /// assert!(snap.contains("+32"));
    /// # Ok::<(), streamsim_streams::StreamConfigError>(())
    /// ```
    pub fn snapshot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "buffer  active  stride      head block  queued  run hits"
        );
        for (i, b) in self.buffers.iter().enumerate() {
            let head = b
                .head_block()
                .map_or_else(|| "-".to_owned(), |h| format!("{:#x}", h.index()));
            let _ = writeln!(
                out,
                "{i:>6}  {:>6}  {:>+9} B  {head:>10}  {:>6}  {:>8}",
                if b.is_active() { "yes" } else { "no" },
                b.stride_bytes(),
                b.len(),
                b.current_run(),
            );
        }
        out
    }

    /// Accumulated statistics, including the filters' counters.
    pub fn stats(&self) -> StreamStats {
        let mut stats = self.stats;
        match &self.alloc {
            AllocState::OnMiss => {}
            AllocState::Unit(unit) => stats.unit_filter = unit.stats(),
            AllocState::UnitAndStride(unit, czone) => {
                stats.unit_filter = unit.stats();
                stats.stride_filter = czone.stats();
            }
            AllocState::MinDelta(detector) => stats.stride_filter = detector.stats(),
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basic(n: usize) -> StreamSystem {
        StreamSystem::new(StreamConfig::paper_basic(n).unwrap())
    }

    #[test]
    fn single_unit_stride_stream_hits_after_first_miss() {
        let mut sys = basic(1);
        assert_eq!(sys.on_l1_miss(Addr::new(0)), StreamOutcome::MissAllocated);
        for i in 1..20u64 {
            assert_eq!(
                sys.on_l1_miss(Addr::new(i * 32)),
                StreamOutcome::Hit,
                "i={i}"
            );
        }
        sys.finalize();
        let stats = sys.stats();
        assert_eq!(stats.hits, 19);
        assert_eq!(stats.allocations, 1);
        assert!(stats.prefetch_accounting_balances());
    }

    #[test]
    fn interleaved_streams_need_multiple_buffers() {
        // Two interleaved unit-stride streams with one buffer thrash it:
        // every miss reallocates.
        let mut one = basic(1);
        for i in 0..20u64 {
            one.on_l1_miss(Addr::new(i * 32));
            one.on_l1_miss(Addr::new(0x100000 + i * 32));
        }
        assert_eq!(one.stats().hits, 0, "single buffer thrashes");

        // Two buffers lock on: hit rate approaches 1.
        let mut two = basic(2);
        for i in 0..20u64 {
            two.on_l1_miss(Addr::new(i * 32));
            two.on_l1_miss(Addr::new(0x100000 + i * 32));
        }
        assert_eq!(two.stats().hits, 38);
    }

    #[test]
    fn lru_reallocates_the_coldest_buffer() {
        let mut sys = basic(2);
        // Stream A established and hot.
        sys.on_l1_miss(Addr::new(0));
        sys.on_l1_miss(Addr::new(32));
        // Stream B established but stale.
        sys.on_l1_miss(Addr::new(0x100000));
        // A hits again (hotter than B).
        sys.on_l1_miss(Addr::new(64));
        // A new stream C must displace B, not A.
        sys.on_l1_miss(Addr::new(0x200000));
        assert_eq!(sys.on_l1_miss(Addr::new(96)), StreamOutcome::Hit, "A alive");
        assert_eq!(
            sys.on_l1_miss(Addr::new(0x200020)),
            StreamOutcome::Hit,
            "C alive"
        );
    }

    #[test]
    fn skipping_a_block_breaks_a_head_only_stream() {
        let mut sys = basic(1);
        sys.on_l1_miss(Addr::new(0));
        assert_eq!(sys.on_l1_miss(Addr::new(32)), StreamOutcome::Hit);
        // Skip block 2 — head holds block 2, reference is block 3: miss.
        assert_eq!(sys.on_l1_miss(Addr::new(96)), StreamOutcome::MissAllocated);
    }

    #[test]
    fn any_entry_matching_tolerates_skips_within_depth() {
        let cfg = StreamConfig::new(1, 4, Allocation::OnMiss)
            .unwrap()
            .with_match_policy(MatchPolicy::AnyEntry);
        let mut sys = StreamSystem::new(cfg);
        sys.on_l1_miss(Addr::new(0));
        // Block 2 is the second entry: any-entry matching finds it.
        assert_eq!(sys.on_l1_miss(Addr::new(64)), StreamOutcome::Hit);
        let stats = sys.stats();
        assert_eq!(stats.prefetches_skipped, 1);
    }

    #[test]
    fn writeback_invalidates_buffered_block() {
        let mut sys = basic(1);
        sys.on_l1_miss(Addr::new(0)); // buffers blocks 1, 2
        let block1 = Addr::new(32).block(BlockSize::new(32).unwrap());
        sys.on_writeback(block1);
        // The stale copy must not supply a hit.
        assert_eq!(sys.on_l1_miss(Addr::new(32)), StreamOutcome::MissAllocated);
        sys.finalize();
        let stats = sys.stats();
        assert_eq!(stats.prefetches_invalidated, 1);
        assert!(stats.prefetch_accounting_balances());
    }

    #[test]
    fn decoded_entry_point_matches_the_plain_one() {
        let cfg = StreamConfig::paper_strided(4, 16).unwrap();
        let mut plain = StreamSystem::new(cfg);
        let mut decoded = StreamSystem::new(cfg);
        let addrs: Vec<u64> = (0..200u64)
            .map(|i| (i * 0x2497 + (i % 7) * 0x40000) & 0xf_ffff)
            .collect();
        for &raw in &addrs {
            let addr = Addr::new(raw);
            let block = addr.block(BlockSize::default());
            let word = addr.word(WordSize::default());
            assert_eq!(
                plain.on_l1_miss(addr),
                decoded.on_l1_miss_decoded(addr, block, word)
            );
        }
        plain.finalize();
        decoded.finalize();
        assert_eq!(plain.stats(), decoded.stats());
    }

    #[test]
    fn unit_filter_suppresses_isolated_references() {
        let mut sys = StreamSystem::new(StreamConfig::paper_filtered(4).unwrap());
        for i in 0..32u64 {
            // Far-apart isolated references.
            assert_eq!(
                sys.on_l1_miss(Addr::new(i * 0x10000)),
                StreamOutcome::MissFiltered
            );
        }
        let stats = sys.stats();
        assert_eq!(stats.allocations, 0);
        assert_eq!(stats.prefetches_issued, 0);
        assert_eq!(stats.unit_filter.lookups, 32);
    }

    #[test]
    fn unit_filter_costs_two_misses_before_streaming() {
        let mut sys = StreamSystem::new(StreamConfig::paper_filtered(4).unwrap());
        assert_eq!(sys.on_l1_miss(Addr::new(0)), StreamOutcome::MissFiltered);
        assert_eq!(sys.on_l1_miss(Addr::new(32)), StreamOutcome::MissAllocated);
        for i in 2..10u64 {
            assert_eq!(sys.on_l1_miss(Addr::new(i * 32)), StreamOutcome::Hit);
        }
    }

    #[test]
    fn czone_detects_large_strides_behind_unit_filter() {
        let mut sys = StreamSystem::new(StreamConfig::paper_strided(4, 18).unwrap());
        let stride = 4096u64; // bytes; 1024 words: needs czone > ~11 bits
        let mut hits = 0;
        for i in 0..40u64 {
            if sys.on_l1_miss(Addr::new(0x40000 + i * stride)).is_hit() {
                hits += 1;
            }
        }
        // Three misses to detect, then the stream supplies hits.
        assert!(hits >= 35, "hits = {hits}");
        sys.finalize();
        let stats = sys.stats();
        assert!(stats.strided_allocations >= 1);
        assert!(stats.prefetch_accounting_balances());
    }

    #[test]
    fn basic_streams_cannot_follow_large_strides() {
        let mut sys = basic(4);
        let stride = 4096u64;
        let mut hits = 0;
        for i in 0..40u64 {
            if sys.on_l1_miss(Addr::new(i * stride)).is_hit() {
                hits += 1;
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn min_delta_detects_constant_strides() {
        let cfg = StreamConfig::new(
            4,
            2,
            Allocation::MinDelta {
                entries: 8,
                max_stride_words: 1 << 20,
            },
        )
        .unwrap();
        let mut sys = StreamSystem::new(cfg);
        let mut hits = 0;
        for i in 0..40u64 {
            if sys.on_l1_miss(Addr::new(i * 2048)).is_hit() {
                hits += 1;
            }
        }
        assert!(hits >= 35, "hits = {hits}");
    }

    #[test]
    fn finalize_is_idempotent_and_accounts_dead_prefetches() {
        let mut sys = basic(2);
        sys.on_l1_miss(Addr::new(0));
        sys.finalize();
        sys.finalize();
        let stats = sys.stats();
        assert_eq!(stats.prefetches_dead, 2);
        assert!(stats.prefetch_accounting_balances());
    }

    #[test]
    fn run_lengths_recorded_on_flush_and_finalize() {
        let mut sys = basic(1);
        sys.on_l1_miss(Addr::new(0));
        for i in 1..4u64 {
            sys.on_l1_miss(Addr::new(i * 32)); // 3 hits
        }
        sys.on_l1_miss(Addr::new(0x100000)); // reallocation flushes run of 3
        sys.on_l1_miss(Addr::new(0x100020)); // 1 hit
        sys.finalize();
        let h = sys.stats().lengths;
        assert_eq!(h.total_runs(), 2);
        assert_eq!(h.total_hits(), 4);
    }

    #[test]
    fn eb_matches_paper_formula_for_unfiltered_isolated_misses() {
        // Isolated references: every miss allocates, every prefetch is
        // useless, so measured EB equals allocations×depth/misses exactly.
        let mut sys = basic(4);
        for i in 0..100u64 {
            sys.on_l1_miss(Addr::new(i * 0x40000));
        }
        sys.finalize();
        let stats = sys.stats();
        assert_eq!(stats.hits, 0);
        let measured = stats.extra_bandwidth();
        let formula = stats.extra_bandwidth_paper_formula(2);
        assert!((measured - formula).abs() < 1e-12);
        assert!(
            (measured - 2.0).abs() < 1e-12,
            "2 useless prefetches per miss"
        );
    }

    #[test]
    fn stats_include_filter_counters() {
        let mut sys = StreamSystem::new(StreamConfig::paper_strided(2, 16).unwrap());
        sys.on_l1_miss(Addr::new(0));
        sys.on_l1_miss(Addr::new(0x100000));
        let stats = sys.stats();
        assert_eq!(stats.unit_filter.lookups, 2);
        assert_eq!(stats.stride_filter.lookups, 2);
    }

    #[test]
    fn deeper_buffers_give_longer_lead_times() {
        // With depth d, a steady unit-stride stream's hits consume
        // prefetches issued d lookups earlier, so deeper buffers tolerate
        // longer memory latencies (the §8 analysis).
        let run = |depth: usize| {
            let mut sys =
                StreamSystem::new(StreamConfig::new(4, depth, Allocation::OnMiss).unwrap());
            for i in 0..200u64 {
                sys.on_l1_miss(Addr::new(i * 32));
            }
            sys.stats().leads
        };
        let shallow = run(1);
        let deep = run(8);
        assert!(shallow.coverage(4) < 0.05, "depth-1 leads are short");
        assert!(deep.coverage(4) > 0.9, "depth-8 leads are long");
        assert_eq!(shallow.total() + 1, 200); // every miss after the first hits
    }

    #[test]
    fn snapshot_describes_active_streams() {
        let mut sys = basic(3);
        sys.on_l1_miss(Addr::new(0));
        sys.on_l1_miss(Addr::new(32));
        let snap = sys.snapshot();
        assert!(snap.contains("yes"), "{snap}");
        assert!(snap.contains("no"), "{snap}");
        assert_eq!(snap.lines().count(), 4, "{snap}");
    }

    #[test]
    fn buffers_accessor_exposes_state() {
        let mut sys = basic(3);
        sys.on_l1_miss(Addr::new(0));
        assert_eq!(sys.buffers().len(), 3);
        assert_eq!(sys.buffers().iter().filter(|b| b.is_active()).count(), 1);
    }
}
