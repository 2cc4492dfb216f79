//! The pre-SoA reference stream system.
//!
//! [`ReferenceStreamSystem`] is the stream-buffer system exactly as it
//! was before its hot state (head tags, replacement keys, filter
//! entries) was restructured into structure-of-arrays. It is kept
//! verbatim for two jobs, mirroring `streamsim_cache::reference`:
//!
//! * **equivalence oracle** — the SoA [`StreamSystem`](crate::StreamSystem)
//!   must match it outcome for outcome (per-miss [`StreamOutcome`],
//!   statistics, buffer snapshots) under every allocation policy and
//!   geometry, which the `soa_equivalence` property tests check against
//!   randomized miss streams;
//! * **benchmark baseline** — the `replay` bench measures the batched,
//!   fused SoA replay loop against this model driven one virtual call
//!   per miss event, so the tracked speedup is against the real pre-PR
//!   implementation, not a strawman.
//!
//! It is deliberately *not* optimised; do not use it in drivers.

use std::collections::VecDeque;

use streamsim_trace::{Addr, BlockAddr, BlockSize, WordAddr};

use crate::buffer::{AllocationEffects, ConsumeEffects};
use crate::czone::FsmState;
use crate::{Allocation, FilterStats, MatchPolicy, StreamConfig, StreamOutcome, StreamStats};

/// One prefetched entry of the pre-PR buffer (block tag, valid bit,
/// issue time), exactly as it was laid out before the restructuring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RefEntry {
    block: BlockAddr,
    valid: bool,
    issued_at: u64,
}

/// The original stream buffer: a `VecDeque` of [`RefEntry`] structs,
/// walked entry by entry for every match, flush count and write-back
/// invalidation — the array-of-structs layout the production
/// [`StreamBuffer`](crate::StreamBuffer) replaced with ring-indexed
/// parallel arrays. Kept verbatim so the reference system's cost profile
/// is the genuine pre-PR one.
#[derive(Clone, Debug)]
pub struct RefStreamBuffer {
    depth: usize,
    block: BlockSize,
    entries: VecDeque<RefEntry>,
    next_prefetch: Addr,
    stride_bytes: i64,
    last_queued_block: BlockAddr,
    exhausted: bool,
    active: bool,
    run_hits: u64,
    lru_stamp: u64,
}

impl RefStreamBuffer {
    fn new(depth: usize, block: BlockSize) -> Self {
        assert!(depth > 0, "stream depth must be at least 1");
        RefStreamBuffer {
            depth,
            block,
            entries: VecDeque::with_capacity(depth),
            next_prefetch: Addr::new(0),
            stride_bytes: block.bytes() as i64,
            last_queued_block: BlockAddr::from_index(0),
            exhausted: false,
            active: false,
            run_hits: 0,
            lru_stamp: 0,
        }
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
        self.entries.len()
    }

    /// Whether the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The block at the head of the FIFO, if any (valid entries only).
    pub fn head_block(&self) -> Option<BlockAddr> {
        self.entries.front().filter(|e| e.valid).map(|e| e.block)
    }

    /// Hits supplied since the last allocation.
    pub fn current_run(&self) -> u64 {
        self.run_hits
    }

    fn lru_stamp(&self) -> u64 {
        self.lru_stamp
    }

    fn touch(&mut self, stamp: u64) {
        self.lru_stamp = stamp;
    }

    fn head_matches(&self, block: BlockAddr) -> bool {
        self.head_block() == Some(block)
    }

    fn match_position(&self, block: BlockAddr) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.valid && e.block == block)
    }

    fn refill_one(&mut self, now: u64) -> bool {
        loop {
            if self.exhausted {
                return false;
            }
            let target_addr = self.next_prefetch;
            let target = target_addr.block(self.block);
            let advanced = target_addr.offset(self.stride_bytes);
            if advanced == target_addr {
                self.exhausted = true;
            }
            self.next_prefetch = advanced;
            if target != self.last_queued_block {
                self.entries.push_back(RefEntry {
                    block: target,
                    valid: true,
                    issued_at: now,
                });
                self.last_queued_block = target;
                return true;
            }
        }
    }

    fn allocate(&mut self, miss: Addr, stride_bytes: i64, now: u64) -> AllocationEffects {
        assert!(stride_bytes != 0, "a stream cannot have stride zero");
        let flushed = self.entries.iter().filter(|e| e.valid).count() as u64;
        let previous_run = self.run_hits;
        self.entries.clear();
        self.run_hits = 0;
        self.exhausted = false;
        self.stride_bytes = stride_bytes;
        self.last_queued_block = miss.block(self.block);
        self.next_prefetch = miss.offset(stride_bytes);
        if self.next_prefetch == miss {
            self.exhausted = true;
        }
        let mut issued = 0;
        while self.entries.len() < self.depth && self.refill_one(now) {
            issued += 1;
        }
        self.active = true;
        AllocationEffects {
            flushed,
            previous_run,
            issued,
        }
    }

    fn consume(&mut self, pos: usize, now: u64) -> ConsumeEffects {
        debug_assert!(self.entries.get(pos).is_some_and(|e| e.valid));
        let mut skipped = 0;
        for _ in 0..pos {
            let e = self.entries.pop_front().expect("pos is in range");
            if e.valid {
                skipped += 1;
            }
        }
        let matched = self.entries.pop_front().expect("pos is in range");
        self.run_hits += 1;
        let mut issued = 0;
        while self.entries.len() < self.depth && self.refill_one(now) {
            issued += 1;
        }
        ConsumeEffects {
            skipped,
            issued,
            lead: now.saturating_sub(matched.issued_at).max(1),
        }
    }

    fn invalidate(&mut self, block: BlockAddr) -> u64 {
        let mut count = 0;
        for e in &mut self.entries {
            if e.valid && e.block == block {
                e.valid = false;
                count += 1;
            }
        }
        count
    }

    fn retire(&mut self) -> (u64, u64) {
        let dead = self.entries.iter().filter(|e| e.valid).count() as u64;
        let run = self.run_hits;
        self.entries.clear();
        self.run_hits = 0;
        self.active = false;
        (dead, run)
    }
}

/// The original unit-stride filter: a `VecDeque` of predicted successor
/// blocks scanned with `Iterator::position`.
#[derive(Clone, Debug)]
struct RefUnitFilter {
    /// Expected-next blocks; front = oldest.
    entries: VecDeque<BlockAddr>,
    capacity: usize,
    stats: FilterStats,
}

impl RefUnitFilter {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "filter needs at least one entry");
        RefUnitFilter {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            stats: FilterStats::default(),
        }
    }

    fn lookup(&mut self, block: BlockAddr) -> bool {
        self.stats.lookups += 1;
        if let Some(pos) = self.entries.iter().position(|&b| b == block) {
            self.entries.remove(pos);
            self.stats.allocations += 1;
            return true;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.stats.evictions += 1;
        }
        self.entries.push_back(block.next());
        self.stats.insertions += 1;
        false
    }
}

#[derive(Clone, Copy, Debug)]
struct RefCzoneEntry {
    tag: u64,
    last_addr: WordAddr,
    stride: i64,
    state: FsmState,
}

/// The original czone filter: a `VecDeque` of partition FSM entries.
#[derive(Clone, Debug)]
struct RefCzoneFilter {
    entries: VecDeque<RefCzoneEntry>,
    capacity: usize,
    czone_bits: u32,
    stats: FilterStats,
}

impl RefCzoneFilter {
    fn new(capacity: usize, czone_bits: u32) -> Self {
        assert!(capacity > 0, "filter needs at least one entry");
        assert!(
            (1..=62).contains(&czone_bits),
            "czone size must be between 1 and 62 bits"
        );
        RefCzoneFilter {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            czone_bits,
            stats: FilterStats::default(),
        }
    }

    fn lookup(&mut self, word: WordAddr) -> Option<i64> {
        self.stats.lookups += 1;
        let tag = word.czone_tag(self.czone_bits);
        if let Some(pos) = self.entries.iter().position(|e| e.tag == tag) {
            let entry = &mut self.entries[pos];
            let delta = word.delta(entry.last_addr);
            if delta == 0 {
                return None;
            }
            match entry.state {
                FsmState::Meta1 => {
                    entry.stride = delta;
                    entry.last_addr = word;
                    entry.state = FsmState::Meta2;
                    None
                }
                FsmState::Meta2 => {
                    if delta == entry.stride {
                        self.entries.remove(pos);
                        self.stats.allocations += 1;
                        Some(delta)
                    } else {
                        entry.stride = delta;
                        entry.last_addr = word;
                        None
                    }
                }
            }
        } else {
            if self.entries.len() == self.capacity {
                self.entries.pop_front();
                self.stats.evictions += 1;
            }
            self.entries.push_back(RefCzoneEntry {
                tag,
                last_addr: word,
                stride: 0,
                state: FsmState::Meta1,
            });
            self.stats.insertions += 1;
            None
        }
    }
}

/// The original minimum-delta detector: a `VecDeque` of remembered miss
/// words, scanned in full per lookup.
#[derive(Clone, Debug)]
struct RefMinDelta {
    entries: VecDeque<WordAddr>,
    capacity: usize,
    max_stride_words: i64,
    stats: FilterStats,
}

impl RefMinDelta {
    fn new(capacity: usize, max_stride_words: i64) -> Self {
        assert!(capacity > 0, "detector needs at least one entry");
        assert!(max_stride_words > 0, "maximum stride must be positive");
        RefMinDelta {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            max_stride_words,
            stats: FilterStats::default(),
        }
    }

    fn lookup(&mut self, word: WordAddr) -> Option<i64> {
        self.stats.lookups += 1;
        let best = self
            .entries
            .iter()
            .map(|&prev| word.delta(prev))
            .filter(|&d| d != 0 && d.unsigned_abs() <= self.max_stride_words.unsigned_abs())
            .min_by_key(|d| d.unsigned_abs());
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.stats.evictions += 1;
        }
        self.entries.push_back(word);
        self.stats.insertions += 1;
        if best.is_some() {
            self.stats.allocations += 1;
        }
        best
    }
}

/// The array-of-structs stream system, exactly as it was before the SoA
/// restructuring: buffers probed through `VecDeque` heads, the LRU victim
/// found with `min_by_key`, filters scanned with `Iterator::position`.
/// Same outcomes, same statistics — only slower.
#[derive(Clone, Debug)]
pub struct ReferenceStreamSystem {
    config: StreamConfig,
    buffers: Vec<RefStreamBuffer>,
    clock: u64,
    unit_filter: Option<RefUnitFilter>,
    czone: Option<RefCzoneFilter>,
    min_delta: Option<RefMinDelta>,
    stats: StreamStats,
    finalized: bool,
}

impl ReferenceStreamSystem {
    /// Creates a reference system from a validated configuration.
    pub fn new(config: StreamConfig) -> Self {
        let buffers = (0..config.num_streams())
            .map(|_| RefStreamBuffer::new(config.depth(), config.block()))
            .collect();
        let (unit_filter, czone, min_delta) = match config.allocation() {
            Allocation::OnMiss => (None, None, None),
            Allocation::UnitFilter { entries } => (Some(RefUnitFilter::new(entries)), None, None),
            Allocation::UnitAndStrideFilters {
                unit_entries,
                stride_entries,
                czone_bits,
            } => (
                Some(RefUnitFilter::new(unit_entries)),
                Some(RefCzoneFilter::new(stride_entries, czone_bits)),
                None,
            ),
            Allocation::MinDelta {
                entries,
                max_stride_words,
            } => (
                None,
                None,
                Some(RefMinDelta::new(entries, max_stride_words)),
            ),
        };
        ReferenceStreamSystem {
            config,
            buffers,
            clock: 0,
            unit_filter,
            czone,
            min_delta,
            stats: StreamStats::default(),
            finalized: false,
        }
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Read-only view of the individual buffers, so equivalence tests can
    /// compare buffer state against the SoA system's.
    pub fn buffers(&self) -> &[RefStreamBuffer] {
        &self.buffers
    }

    /// Presents one primary-cache miss, exactly as the pre-SoA system did.
    pub fn on_l1_miss(&mut self, addr: Addr) -> StreamOutcome {
        debug_assert!(!self.finalized, "stream system already finalized");
        self.stats.lookups += 1;
        self.clock += 1;
        let block = addr.block(self.config.block());

        let matched = match self.config.match_policy() {
            MatchPolicy::HeadOnly => self
                .buffers
                .iter()
                .position(|b| b.is_active() && b.head_matches(block))
                .map(|i| (i, 0)),
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
            self.stats.hits += 1;
            self.stats.prefetches_used += 1;
            self.stats.prefetches_skipped += fx.skipped;
            self.stats.prefetches_issued += fx.issued;
            self.stats.leads.record(fx.lead);
            return StreamOutcome::Hit;
        }

        let unit_stride = self.config.block().bytes() as i64;
        let word = addr.word(self.config.word());
        let stride_bytes = match self.config.allocation() {
            Allocation::OnMiss => Some(unit_stride),
            Allocation::UnitFilter { .. } => self
                .unit_filter
                .as_mut()
                .expect("unit filter configured")
                .lookup(block)
                .then_some(unit_stride),
            Allocation::UnitAndStrideFilters { .. } => {
                let unit = self
                    .unit_filter
                    .as_mut()
                    .expect("unit filter configured")
                    .lookup(block);
                if unit {
                    Some(unit_stride)
                } else {
                    self.czone
                        .as_mut()
                        .expect("czone filter configured")
                        .lookup(word)
                        .map(|stride_words| stride_words * self.config.word().bytes() as i64)
                }
            }
            Allocation::MinDelta { .. } => self
                .min_delta
                .as_mut()
                .expect("min-delta detector configured")
                .lookup(word)
                .map(|stride_words| stride_words * self.config.word().bytes() as i64),
        };

        match stride_bytes {
            Some(stride) => {
                self.allocate(addr, stride);
                if stride.unsigned_abs() != self.config.block().bytes() {
                    self.stats.strided_allocations += 1;
                }
                StreamOutcome::MissAllocated
            }
            None => StreamOutcome::MissFiltered,
        }
    }

    fn allocate(&mut self, addr: Addr, stride_bytes: i64) {
        let idx = self
            .buffers
            .iter()
            .enumerate()
            .min_by_key(|(_, b)| (b.is_active(), b.lru_stamp()))
            .map(|(i, _)| i)
            .expect("at least one stream buffer");
        let clock = self.clock;
        let fx = self.buffers[idx].allocate(addr, stride_bytes, clock);
        self.buffers[idx].touch(clock);
        self.stats.allocations += 1;
        self.stats.prefetches_flushed += fx.flushed;
        self.stats.prefetches_issued += fx.issued;
        self.stats.lengths.record_run(fx.previous_run);
    }

    /// A dirty block is being written back: invalidate stale copies.
    pub fn on_writeback(&mut self, block: BlockAddr) {
        for b in &mut self.buffers {
            self.stats.prefetches_invalidated += b.invalidate(block);
        }
    }

    /// Ends the simulation, accounting in-flight prefetches. Idempotent.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        for b in &mut self.buffers {
            let (dead, run) = b.retire();
            self.stats.prefetches_dead += dead;
            self.stats.lengths.record_run(run);
        }
        self.finalized = true;
    }

    /// Accumulated statistics, including the filters' counters.
    pub fn stats(&self) -> StreamStats {
        let mut stats = self.stats;
        if let Some(f) = &self.unit_filter {
            stats.unit_filter = f.stats;
        }
        match (&self.czone, &self.min_delta) {
            (Some(f), _) => stats.stride_filter = f.stats,
            (None, Some(d)) => stats.stride_filter = d.stats,
            _ => {}
        }
        stats
    }
}
