//! Single-pass replay of a miss trace into many observers.
//!
//! The paper sweeps configurations, not workloads: ten stream counts,
//! dozens of secondary-cache geometries, all judged against the *same*
//! recorded miss stream. Replaying that stream once per configuration
//! walks the event vector N times; [`replay`] instead walks it once and
//! fans each event out to N [`MissObserver`]s. Observers are independent
//! (a stream system cannot see an L2's state), so the fan-out is
//! behaviour-preserving by construction — the property tests in
//! `tests/replay_properties.rs` pin this down.
//!
//! Delivery is *batched*: the event vector is walked in chunks of
//! [`REPLAY_CHUNK_EVENTS`] events and each observer consumes a whole
//! chunk before the next observer runs, so one observer's tables stay
//! hot in cache across a run of events instead of every observer being
//! dragged through cache per event. Within a chunk the dispatch is a
//! single devirtualized [`MissObserver::on_events`] call, whose default
//! loop is monomorphized per observer with the per-event methods
//! inlined; [`StreamObserver`] and [`L2FamilyObserver`] override it to
//! hoist the address decode out of their family's loop.
//!
//! These observers cover the common cases. [`StreamObserver`] evaluates
//! a *family* of stream-buffer systems — the shape of every paper sweep
//! (ten stream counts, four filter sizes...) — splitting each address
//! into block and word exactly once per event instead of once per
//! system; [`replay_streams`] runs a whole request as one family. Every
//! stream system fetches 32-byte blocks and detects strides in 4-byte
//! words, so one decode serves any family. [`L2FamilyObserver`] is the
//! secondary-cache family behind [`replay_l2`]: every cell is LRU and
//! reads one recency stack per (block size, set count), every
//! associativity at once by LRU's inclusion property, and applies its
//! own set sampling by counting only the sets it selects. [`L2Observer`],
//! a [`SetAssocCache`] as an observer, is its per-cell reference.
//! [`HierarchyOrder`] hands any observer the trace in a coupled
//! hierarchy's order, each dirty L1 victim before the fetch that
//! evicted it ([`replay_l2_hierarchy`]). [`PartitionedObserver`] splits
//! the miss stream between instruction and data streams, the one
//! topology beside the paper's unified streams. Drivers with bespoke
//! plumbing (e.g. the Jouppi topology, where a secondary cache sees only
//! the stream-miss residual) implement [`MissObserver`] themselves and
//! join the same pass.

// Hot-loop module: the replay loop touches every recorded miss event per observer.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use streamsim_cache::{
    CacheConfig, CacheConfigError, CacheStats, Replacement, SetAssocCache, SetSampling,
};
use streamsim_streams::{StreamConfig, StreamStats, StreamSystem};
use streamsim_trace::{AccessKind, Addr, BlockAddr, BlockSize, WordAddr, WordSize};

use crate::{Miss, MissEvent, MissTrace};

/// Events per replay chunk: 8 KiB of [`MissEvent`]s, small enough that
/// a chunk plus one observer's hot tables stay L1/L2-resident (the same
/// cache-residency rationale as the recording loop's chunk size).
///
/// Pinned by measurement, not taste: timing the fused stream path at
/// 256/512/1024/2048 over every (workload, family) pair of the replay
/// bench, 1024 had the best aggregate; the candidates sat within ~2% of
/// each other and no other length was better outside run-to-run noise
/// — smaller chunks pay more per-chunk observer switching, larger ones
/// start evicting the widest families' tables. Chunking is
/// behaviour-preserving for any length ([`replay_chunked`]), so
/// retuning on new hardware is a one-line change.
pub const REPLAY_CHUNK_EVENTS: usize = 1024;

/// Anything that consumes a primary-cache miss stream.
///
/// [`replay`] delivers every event of a [`MissTrace`] to each observer in
/// program order, then calls [`finish`](MissObserver::finish) once.
pub trait MissObserver {
    /// A demand fetch (primary-cache miss) of the block containing
    /// `addr`; `kind` is the missing reference's access kind.
    fn on_fetch(&mut self, addr: Addr, kind: AccessKind);

    /// A dirty block written back from the primary cache; `base` is the
    /// block's base byte address.
    fn on_writeback(&mut self, base: Addr);

    /// Delivers a batch of events in program order. The default simply
    /// forwards to the per-event methods — the one event match body
    /// the engine's observers share, so batched and per-event delivery
    /// cannot drift. It is monomorphized per observer; mark the
    /// per-event methods `#[inline(always)]` so they inline into that
    /// loop (plain `#[inline]` leaves a call per event to a probe as
    /// large as `L2Observer`'s). Only an observer that does more per
    /// chunk than per event overrides it: [`StreamObserver`] and
    /// [`L2FamilyObserver`] decode each chunk once for their whole
    /// family, and [`HierarchyOrder`] reorders it.
    fn on_events(&mut self, events: &[MissEvent]) {
        for event in events {
            match event.decode() {
                Miss::Fetch { addr, kind } => self.on_fetch(addr, kind),
                Miss::Writeback { base } => self.on_writeback(base),
            }
        }
    }

    /// Called once after the last event (e.g. to flush in-flight state).
    fn finish(&mut self) {}

    /// Number of logical simulation cells this observer evaluates per
    /// event — `1` for plain observers, the family size for fused ones.
    /// Replay spans weight their delivery throughput by this, so fusing
    /// does not deflate the reported deliveries/s.
    fn fan_out(&self) -> u64 {
        1
    }
}

/// Replays `trace` into every observer in a single pass over the events,
/// delivering [`REPLAY_CHUNK_EVENTS`]-sized batches.
pub fn replay(trace: &MissTrace, observers: &mut [&mut dyn MissObserver]) {
    replay_chunked(trace, observers, REPLAY_CHUNK_EVENTS);
}

/// [`replay`] with an explicit chunk length: the event vector is walked
/// in chunks of `chunk_len` events, and within each chunk every observer
/// consumes the whole batch before the next observer runs.
///
/// Because observers are independent, this is behaviour-preserving for
/// any chunk length — `tests/replay_properties.rs` sweeps boundaries to
/// pin exactly that. A `chunk_len` of `0` delivers the whole trace as
/// one chunk.
pub fn replay_chunked(
    trace: &MissTrace,
    observers: &mut [&mut dyn MissObserver],
    chunk_len: usize,
) {
    let mut span = streamsim_obs::span("replay");
    let events = trace.events().len() as u64;
    // Items = event deliveries: each event fans out to every observer
    // (weighted by fused family sizes), so the span's throughput reads
    // as miss-events/s per cell when divided by the cell count.
    span.items(events * observers.iter().map(|o| o.fan_out()).sum::<u64>());
    let chunk_len = if chunk_len == 0 {
        trace.events().len().max(1)
    } else {
        chunk_len
    };
    for chunk in trace.events().chunks(chunk_len) {
        for o in observers.iter_mut() {
            o.on_events(chunk);
        }
    }
    for o in observers.iter_mut() {
        o.finish();
    }
}

/// The one check every replayed secondary-cache cell passes, in
/// [`L2Observer::new`] and [`L2FamilyObserver::new`] alike: LRU
/// replacement, and a set sampling that keeps at least one set.
fn check_l2_cell(
    config: CacheConfig,
    sampling: Option<SetSampling>,
) -> Result<(), CacheConfigError> {
    if config.replacement() != Replacement::Lru {
        return Err(CacheConfigError::L2NeedsLru {
            replacement: config.replacement(),
        });
    }
    let sets = config.num_sets();
    match sampling {
        Some(s) if sets >> s.log2_fraction() == 0 => Err(CacheConfigError::SamplingFinerThanSets {
            sets,
            log2_fraction: s.log2_fraction(),
        }),
        _ => Ok(()),
    }
}

/// One secondary-cache cell as a replay observer: the per-cell reference
/// [`L2FamilyObserver`]'s recency stacks are checked against. No report
/// path runs it.
///
/// Fetches become demand accesses; a write-back from L1 is a store access
/// at the L2. A set-sampled cell is a full-size [`SetAssocCache`] fed
/// only the events whose set its [`SetSampling`] selects: the definition
/// of set sampling, written apart from the stacks' row arithmetic.
#[derive(Debug)]
pub struct L2Observer {
    cache: SetAssocCache,
    sampling: Option<SetSampling>,
}

impl L2Observer {
    /// Wraps a fresh cache of the given geometry that counts only the
    /// sets `sampling` selects.
    ///
    /// # Errors
    ///
    /// Rejects the cells [`L2FamilyObserver::new`] rejects:
    /// [`CacheConfigError::L2NeedsLru`] for a replacement other than LRU,
    /// and [`CacheConfigError::SamplingFinerThanSets`] for a sampling that
    /// keeps no set.
    pub fn new(
        config: CacheConfig,
        sampling: Option<SetSampling>,
    ) -> Result<Self, CacheConfigError> {
        check_l2_cell(config, sampling)?;
        Ok(L2Observer {
            cache: SetAssocCache::new(config)?,
            sampling,
        })
    }

    /// The cache statistics (call after [`replay`]).
    pub fn stats(&self) -> CacheStats {
        *self.cache.stats()
    }

    /// Presents one access to the cache if its set is sampled.
    #[inline(always)]
    fn access(&mut self, addr: Addr, kind: AccessKind) {
        if let Some(sampling) = self.sampling {
            let config = self.cache.config();
            let set = addr.block(config.block()).index() & (config.num_sets() - 1);
            if !sampling.selects(set) {
                return;
            }
        }
        self.cache.access(addr, kind);
    }
}

impl MissObserver for L2Observer {
    #[inline(always)]
    fn on_fetch(&mut self, addr: Addr, kind: AccessKind) {
        self.access(addr, kind);
    }

    #[inline(always)]
    fn on_writeback(&mut self, base: Addr) {
        self.access(base, AccessKind::Store);
    }
}

/// Partitioned stream buffers as a replay observer: instruction misses
/// feed one [`StreamSystem`], load and store misses another — the
/// MacroTek variant the paper mentions beside its unified streams.
///
/// A write-back is broadcast to *both* partitions: stream buffers snoop
/// the bus by address, and a dirty block's address says nothing about
/// which partition may have prefetched it.
#[derive(Debug)]
pub struct PartitionedObserver {
    instruction: StreamSystem,
    data: StreamSystem,
}

impl PartitionedObserver {
    /// Fresh instruction and data stream systems.
    pub fn new(instruction: StreamConfig, data: StreamConfig) -> Self {
        PartitionedObserver {
            instruction: StreamSystem::new(instruction),
            data: StreamSystem::new(data),
        }
    }

    /// The instruction partition's finalized statistics (call after
    /// [`replay`]).
    pub fn instruction_stats(&self) -> StreamStats {
        self.instruction.stats()
    }

    /// The data partition's finalized statistics (call after [`replay`]).
    pub fn data_stats(&self) -> StreamStats {
        self.data.stats()
    }

    /// The combined hit rate: hits over lookups summed across both
    /// partitions, or 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let (i, d) = (self.instruction_stats(), self.data_stats());
        let lookups = i.lookups + d.lookups;
        if lookups == 0 {
            0.0
        } else {
            (i.hits + d.hits) as f64 / lookups as f64
        }
    }
}

impl MissObserver for PartitionedObserver {
    #[inline(always)]
    fn on_fetch(&mut self, addr: Addr, kind: AccessKind) {
        if kind == AccessKind::IFetch {
            self.instruction.on_l1_miss(addr);
        } else {
            self.data.on_l1_miss(addr);
        }
    }

    #[inline(always)]
    fn on_writeback(&mut self, base: Addr) {
        let block = base.block(BlockSize::default());
        self.instruction.on_writeback(block);
        self.data.on_writeback(block);
    }

    fn finish(&mut self) {
        self.instruction.finalize();
        self.data.finalize();
    }
}

/// A pre-decoded miss event: the block/word split is computed once per
/// event and shared by every system in the fused family.
#[derive(Clone, Copy, Debug)]
enum DecodedEvent {
    Fetch {
        addr: Addr,
        block: BlockAddr,
        word: WordAddr,
    },
    Writeback {
        block: BlockAddr,
    },
}

/// N stream-buffer systems evaluated as a single observer: the only
/// stream observer, so a single system is a family of one.
///
/// Every paper sweep walks a *family* of stream configurations differing
/// in count, depth, filter or match policy, and every stream system
/// splits an address into the same 32-byte block and 4-byte word. The
/// observer exploits that: each chunk of events is decoded into
/// `(block, word)` form once, then every system consumes the decoded
/// batch back-to-back while its tables are hot, instead of paying one
/// address decode and one virtual dispatch per system per event.
///
/// Statistics are byte-identical to driving each [`StreamSystem`] alone,
/// event by event (systems cannot interact); `tests/replay_properties.rs`
/// pins this across seeded random families and chunk boundaries. Each
/// system keeps its own [`StreamStats`], so fusion loses no per-cell
/// attribution.
#[derive(Debug)]
pub struct StreamObserver {
    systems: Vec<StreamSystem>,
    /// Per-chunk decode scratch, reused across chunks.
    decoded: Vec<DecodedEvent>,
}

impl StreamObserver {
    /// Fuses `configs` into one observer. An empty family is allowed.
    pub fn new(configs: &[StreamConfig]) -> Self {
        StreamObserver {
            systems: configs.iter().map(|&c| StreamSystem::new(c)).collect(),
            decoded: Vec::new(),
        }
    }

    /// The finalized statistics of every system, in configuration order
    /// (call after [`replay`]).
    pub fn stats(&self) -> Vec<StreamStats> {
        self.systems.iter().map(StreamSystem::stats).collect()
    }
}

impl MissObserver for StreamObserver {
    fn on_fetch(&mut self, addr: Addr, _kind: AccessKind) {
        let block = addr.block(BlockSize::default());
        let word = addr.word(WordSize::default());
        for sys in &mut self.systems {
            sys.on_l1_miss_decoded(addr, block, word);
        }
    }

    fn on_writeback(&mut self, base: Addr) {
        let block = base.block(BlockSize::default());
        for sys in &mut self.systems {
            sys.on_writeback(block);
        }
    }

    fn on_events(&mut self, events: &[MissEvent]) {
        // Decode the chunk once for the whole family...
        self.decoded.clear();
        self.decoded
            .extend(events.iter().map(|event| match event.decode() {
                Miss::Fetch { addr, .. } => DecodedEvent::Fetch {
                    addr,
                    block: addr.block(BlockSize::default()),
                    word: addr.word(WordSize::default()),
                },
                Miss::Writeback { base } => DecodedEvent::Writeback {
                    block: base.block(BlockSize::default()),
                },
            }));
        // ...then run each system over the decoded batch while its
        // tables are hot.
        for sys in &mut self.systems {
            for event in &self.decoded {
                match *event {
                    DecodedEvent::Fetch { addr, block, word } => {
                        sys.on_l1_miss_decoded(addr, block, word);
                    }
                    DecodedEvent::Writeback { block } => sys.on_writeback(block),
                }
            }
        }
    }

    fn finish(&mut self) {
        for sys in &mut self.systems {
            sys.finalize();
        }
    }

    fn fan_out(&self) -> u64 {
        self.systems.len() as u64
    }
}

/// Replays `trace` against every stream configuration in one pass.
///
/// Equivalent to N calls of [`crate::run_streams`], but the event vector
/// is walked once, and the configurations are fused into one
/// [`StreamObserver`] family, so each address is decoded once per event
/// rather than once per cell. Statistics come back in request order.
pub fn replay_streams(trace: &MissTrace, configs: &[StreamConfig]) -> Vec<StreamStats> {
    let mut family = StreamObserver::new(configs);
    replay(trace, &mut [&mut family]);
    family.stats()
}

/// Replays `trace` against every secondary-cache cell in one pass.
///
/// Equivalent to replaying each cell through its own [`L2Observer`],
/// but the event vector is walked once and every cell of one (block
/// size, set count) shape reads its outcome from one shared recency
/// stack ([`L2FamilyObserver`]). [`crate::run_l2`] is this over one
/// cell.
///
/// # Errors
///
/// Returns the first cell's error that [`L2FamilyObserver::new`]
/// rejects: a replacement other than LRU, or a sampling finer than the
/// cache.
pub fn replay_l2(
    trace: &MissTrace,
    cells: &[(CacheConfig, Option<SetSampling>)],
) -> Result<Vec<CacheStats>, CacheConfigError> {
    let mut family = L2FamilyObserver::new(cells)?;
    replay(trace, &mut [&mut family]);
    Ok(family.stats())
}

/// [`replay_l2`] in hierarchy order: each dirty L1 victim reaches the
/// secondary caches before the fetch that evicted it
/// ([`HierarchyOrder`]), the order a coupled split-L1 → L2 hierarchy
/// (`streamsim_cache::TwoLevel`) presents them. An unsampled cell's
/// statistics then equal that hierarchy's `l2_stats()`, and
/// `(misses + writebacks) × block` its memory traffic.
///
/// # Errors
///
/// As [`replay_l2`].
pub fn replay_l2_hierarchy(
    trace: &MissTrace,
    cells: &[(CacheConfig, Option<SetSampling>)],
) -> Result<Vec<CacheStats>, CacheConfigError> {
    let mut family = HierarchyOrder::new(L2FamilyObserver::new(cells)?);
    replay(trace, &mut [&mut family]);
    Ok(family.inner().stats())
}

/// One LRU cell read from an [`LruStack`].
#[derive(Debug)]
struct StackCell {
    /// Position in the [`L2FamilyObserver`] request.
    index: usize,
    assoc: usize,
    /// This cell's dirty bit in a stack entry.
    class_bit: u64,
    /// The cell's own set sampling: it counts an access only when
    /// `set & sample_mask == sample_match` (both 0 when unsampled).
    sample_mask: u64,
    sample_match: u64,
    stats: CacheStats,
}

/// Every LRU cell of one (block size, set count) shape, evaluated from
/// one recency stack per set.
///
/// LRU has Mattson's inclusion property: an A-way LRU set holds exactly
/// the A most recently used distinct blocks that map to it. So one stack
/// per set, most recent first and as deep as the largest associativity,
/// answers every associativity at once. An access found at depth `d`
/// (an absent block counts as found at the full depth) hits in every
/// cell with more than `d` ways and misses in the rest; a miss in an
/// A-way cell evicts the entry at depth A−1 if one is there, and writes
/// it back when its dirty bit for that cell's associativity is set. The
/// block then moves to depth 0, dirty where it hit and was dirty or the
/// access is a store, and where it missed only if the access is a store.
/// That is write-back/write-allocate `SetAssocCache` with
/// `Replacement::Lru`, field for field (`tests/replay_properties.rs`).
///
/// Set sampling chooses which sets a cell counts, not how a set
/// behaves, so a sampled cell reads the same stack and skips the sets
/// it does not sample. The stack itself keeps only the sets some member
/// samples.
///
/// An entry is one `u64`: `(tag + 1) << classes | dirty`, where the tag
/// is the block number above the set index and bit `c` of `dirty` is
/// the block's dirty bit in the cells of the `c`-th smallest
/// associativity. 0 is an empty entry, with no dirty bit to write back.
#[derive(Debug)]
struct LruStack {
    block_log2: u32,
    set_bits: u32,
    /// The sets some member samples: `set & filter_mask ==
    /// filter_match`, kept at row `set >> row_shift`.
    filter_mask: u64,
    filter_match: u64,
    row_shift: u32,
    depth: usize,
    /// How many associativity classes the stack tracks: the low bits of
    /// an entry that hold its dirty bits.
    classes: u32,
    /// The associativity of each class, ascending.
    class_assoc: Vec<usize>,
    /// For each depth `d` in `0..=depth`, how many classes miss an
    /// access found there. Classes ascend, so those are the first ones.
    missed: Vec<usize>,
    /// `depth` entries per kept set, most recent first.
    entries: Vec<u64>,
    cells: Vec<StackCell>,
}

/// The low `n` bits set, for `n` up to 64.
fn low_bits(n: u32) -> u64 {
    u64::MAX.checked_shr(64 - n).unwrap_or(0)
}

impl LruStack {
    /// Most associativity classes one stack of this shape can track. A
    /// tag plus one is at most `2^(62 − block_log2 − set_bits)` (a byte
    /// address is below [`MissEvent::ADDR_LIMIT`]), so its shifted entry
    /// fits a `u64` with this many dirty bits below it.
    fn max_classes(block_log2: u32, set_bits: u32) -> usize {
        (1 + block_log2 + set_bits).min(63) as usize
    }

    /// A stack for `members`, cells of one block size and set count
    /// whose associativities are the ascending, distinct `class_assoc`.
    fn new(
        block_log2: u32,
        set_bits: u32,
        class_assoc: &[usize],
        members: &[(usize, CacheConfig, Option<SetSampling>)],
    ) -> Self {
        debug_assert!(
            !class_assoc.is_empty() && class_assoc.len() <= Self::max_classes(block_log2, set_bits)
        );
        let depth = *class_assoc.last().unwrap_or(&1);
        let sampling =
            |s: Option<SetSampling>| s.map_or((0, 0), |s| (s.log2_fraction(), s.matcher()));
        // The longest low-bit pattern every member's sampled sets share:
        // the stack skips every set outside it.
        let first = members.first().map_or(0, |m| sampling(m.2).1);
        let mut row_shift = members.iter().map(|m| sampling(m.2).0).min().unwrap_or(0);
        while members
            .iter()
            .any(|m| (sampling(m.2).1 ^ first) & low_bits(row_shift) != 0)
        {
            row_shift -= 1;
        }
        let cells = members
            .iter()
            .map(|&(index, config, s)| {
                let (bits, matcher) = sampling(s);
                let class = class_assoc.partition_point(|&a| a < config.assoc() as usize);
                StackCell {
                    index,
                    assoc: config.assoc() as usize,
                    class_bit: 1 << class,
                    sample_mask: low_bits(bits),
                    sample_match: matcher,
                    stats: CacheStats::new(),
                }
            })
            .collect();
        let rows = 1 << (set_bits - row_shift);
        LruStack {
            block_log2,
            set_bits,
            filter_mask: low_bits(row_shift),
            filter_match: first & low_bits(row_shift),
            row_shift,
            depth,
            classes: class_assoc.len() as u32,
            missed: (0..=depth)
                .map(|d| class_assoc.partition_point(|&a| a <= d))
                .collect(),
            class_assoc: class_assoc.to_vec(),
            entries: vec![0; rows * depth],
            cells,
        }
    }

    /// Runs every access of a decoded chunk (byte address, kind)
    /// through the stack.
    fn run(&mut self, accesses: &[(u64, AccessKind)]) {
        // Fields into locals: the stores into `entries` and `cells` below
        // then cannot alias them, so they stay in registers.
        let LruStack {
            block_log2,
            set_bits,
            filter_mask,
            filter_match,
            row_shift,
            depth: full_depth,
            classes,
            ref class_assoc,
            ref missed,
            ref mut entries,
            ref mut cells,
        } = *self;
        let set_mask = low_bits(set_bits);
        let dirty_bits = low_bits(classes);
        for &(addr, kind) in accesses {
            let block = addr >> block_log2;
            let set = block & set_mask;
            if set & filter_mask != filter_match {
                continue;
            }
            let key = ((block >> set_bits) + 1) << classes;
            let base = (set >> row_shift) as usize * full_depth;
            let row = &mut entries[base..base + full_depth];
            let depth = row
                .iter()
                .position(|&e| e & !dirty_bits == key)
                .unwrap_or(full_depth);
            let missed = missed[depth];
            // Each class that misses evicts its least recent block, the
            // entry at depth `assoc - 1`, and writes it back if the
            // entry holds the class's dirty bit (an empty one holds none).
            let mut written_back = 0u64;
            for (class, &assoc) in class_assoc[..missed].iter().enumerate() {
                written_back |= row[assoc - 1] & 1 << class;
            }
            let kept = row
                .get(depth)
                .map_or(0, |&e| e & dirty_bits & !low_bits(missed as u32));
            let dirty = kept | if kind.is_store() { dirty_bits } else { 0 };
            for d in (0..depth.min(full_depth - 1)).rev() {
                row[d + 1] = row[d];
            }
            row[0] = key | dirty;
            for cell in cells.iter_mut() {
                if set & cell.sample_mask != cell.sample_match {
                    continue;
                }
                if depth < cell.assoc {
                    cell.stats.record_hit(kind);
                } else {
                    cell.stats.record_miss(kind);
                    if written_back & cell.class_bit != 0 {
                        cell.stats.writebacks += 1;
                    }
                }
            }
        }
    }
}

/// A family of secondary-cache cells evaluated as one observer: the L2
/// counterpart of [`StreamObserver`], and the observer behind
/// [`replay_l2`].
///
/// Every cell is LRU: tree-PLRU and random replacement have no
/// inclusion property, and no experiment replays them. Cells are
/// grouped by (block size, set count), and each group reads every
/// associativity from one recency stack per set (see the `replay`
/// module docs); Table 4's 21 cells are 9 stacks. Each chunk is decoded
/// once and run through each stack back to back, the way
/// [`StreamObserver`] runs each system. Statistics equal one
/// [`L2Observer`] per cell, driven event by event;
/// `tests/replay_properties.rs` pins this over random geometries,
/// samplings and chunk lengths.
#[derive(Debug)]
pub struct L2FamilyObserver {
    stacks: Vec<LruStack>,
    cells: usize,
    /// Per-chunk decode scratch: byte address and access kind, a
    /// write-back as a store.
    decoded: Vec<(u64, AccessKind)>,
}

impl L2FamilyObserver {
    /// Fuses `cells` — a geometry and an optional set sampling each —
    /// into one observer.
    ///
    /// # Errors
    ///
    /// Returns the first (in request order) rejected cell's error:
    /// [`CacheConfigError::L2NeedsLru`] for a replacement other than LRU,
    /// or [`CacheConfigError::SamplingFinerThanSets`] for a sampling that
    /// keeps no set.
    pub fn new(cells: &[(CacheConfig, Option<SetSampling>)]) -> Result<Self, CacheConfigError> {
        let mut shapes: BTreeMap<(u32, u32), Vec<_>> = BTreeMap::new();
        for (index, &(config, sampling)) in cells.iter().enumerate() {
            check_l2_cell(config, sampling)?;
            shapes
                .entry((config.block().log2(), config.set_index_bits()))
                .or_default()
                .push((index, config, sampling));
        }
        let mut stacks = Vec::new();
        for ((block_log2, set_bits), members) in shapes {
            let mut assocs: Vec<usize> = members.iter().map(|m| m.1.assoc() as usize).collect();
            assocs.sort_unstable();
            assocs.dedup();
            for classes in assocs.chunks(LruStack::max_classes(block_log2, set_bits)) {
                let group: Vec<_> = members
                    .iter()
                    .filter(|m| classes.contains(&(m.1.assoc() as usize)))
                    .copied()
                    .collect();
                stacks.push(LruStack::new(block_log2, set_bits, classes, &group));
            }
        }
        Ok(L2FamilyObserver {
            stacks,
            cells: cells.len(),
            decoded: Vec::new(),
        })
    }

    /// Every cell's statistics, in request order (call after
    /// [`replay`]).
    pub fn stats(&self) -> Vec<CacheStats> {
        let mut stats = vec![CacheStats::new(); self.cells];
        for cell in self.stacks.iter().flat_map(|s| &s.cells) {
            stats[cell.index] = cell.stats;
        }
        stats
    }
}

impl MissObserver for L2FamilyObserver {
    fn on_fetch(&mut self, addr: Addr, kind: AccessKind) {
        self.on_events(&[MissEvent::fetch(addr, kind)]);
    }

    fn on_writeback(&mut self, base: Addr) {
        self.on_events(&[MissEvent::writeback(base)]);
    }

    fn on_events(&mut self, events: &[MissEvent]) {
        self.decoded.clear();
        self.decoded
            .extend(events.iter().map(|event| match event.decode() {
                Miss::Fetch { addr, kind } => (addr.raw(), kind),
                Miss::Writeback { base } => (base.raw(), AccessKind::Store),
            }));
        for stack in &mut self.stacks {
            stack.run(&self.decoded);
        }
    }

    fn fan_out(&self) -> u64 {
        self.cells as u64
    }
}

/// Delivers a miss trace to `O` in hierarchy order: each write-back
/// before the fetch whose fill evicted its block.
///
/// [`crate::record_miss_trace`] pushes a dirty victim's write-back
/// right after the fetch that evicted it (the instruction cache never
/// writes back), while a coupled hierarchy writes the victim into the
/// next level first. So hierarchy order is the trace with each (fetch,
/// write-back) pair swapped: the adaptor holds each fetch back until
/// the next event, and delivers a following write-back first. The held
/// fetch carries across chunk boundaries and is flushed by
/// [`finish`](MissObserver::finish).
#[derive(Debug)]
pub struct HierarchyOrder<O> {
    inner: O,
    held: Option<MissEvent>,
    /// Per-chunk reorder scratch.
    reordered: Vec<MissEvent>,
}

impl<O> HierarchyOrder<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        HierarchyOrder {
            inner,
            held: None,
            reordered: Vec::new(),
        }
    }

    /// The wrapped observer (read its statistics after [`replay`]).
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: MissObserver> MissObserver for HierarchyOrder<O> {
    fn on_fetch(&mut self, addr: Addr, kind: AccessKind) {
        self.on_events(&[MissEvent::fetch(addr, kind)]);
    }

    fn on_writeback(&mut self, base: Addr) {
        self.on_events(&[MissEvent::writeback(base)]);
    }

    fn on_events(&mut self, events: &[MissEvent]) {
        self.reordered.clear();
        for &event in events {
            match event.decode() {
                Miss::Fetch { .. } => self.reordered.extend(self.held.replace(event)),
                Miss::Writeback { .. } => {
                    self.reordered.push(event);
                    self.reordered.extend(self.held.take());
                }
            }
        }
        self.inner.on_events(&self.reordered);
    }

    fn finish(&mut self) {
        if let Some(fetch) = self.held.take() {
            self.inner.on_events(&[fetch]);
        }
        self.inner.finish();
    }

    fn fan_out(&self) -> u64 {
        self.inner.fan_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{record_miss_trace, run_l2, run_streams, RecordOptions};
    use streamsim_trace::BlockSize;
    use streamsim_workloads::generators::{RandomGather, SequentialSweep};

    fn trace() -> MissTrace {
        let w = SequentialSweep {
            arrays: 2,
            bytes_per_array: 128 * 1024,
            passes: 2,
            elem: 8,
        };
        record_miss_trace(&w, &RecordOptions::default()).unwrap()
    }

    /// One family, every statistic in request order.
    #[test]
    fn multi_stream_replay_matches_independent_passes() {
        let trace = trace();
        let configs = [
            StreamConfig::paper_basic(1).unwrap(),
            StreamConfig::paper_basic(4).unwrap(),
            StreamConfig::paper_filtered(10).unwrap(),
            StreamConfig::paper_strided(6, 16).unwrap(),
        ];
        let together = replay_streams(&trace, &configs);
        assert_eq!(together.len(), configs.len());
        for (config, joint) in configs.iter().zip(&together) {
            assert_eq!(*joint, run_streams(&trace, *config));
        }
    }

    #[test]
    fn stream_observer_reports_family_metadata() {
        let configs = [
            StreamConfig::paper_basic(2).unwrap(),
            StreamConfig::paper_filtered(8).unwrap(),
        ];
        let family = StreamObserver::new(&configs);
        assert_eq!(family.fan_out(), 2);
        let empty = StreamObserver::new(&[]);
        assert_eq!(empty.fan_out(), 0);
        assert_eq!(empty.stats(), Vec::new());
    }

    #[test]
    fn per_event_entry_points_match_batched_delivery() {
        // The observer's on_fetch/on_writeback (used when someone drives
        // it manually) agree with its batched on_events.
        let trace = trace();
        let configs = [
            StreamConfig::paper_basic(4).unwrap(),
            StreamConfig::paper_strided(6, 16).unwrap(),
        ];
        let mut manual = StreamObserver::new(&configs);
        for event in trace.events() {
            match event.decode() {
                Miss::Fetch { addr, kind } => manual.on_fetch(addr, kind),
                Miss::Writeback { base } => manual.on_writeback(base),
            }
        }
        manual.finish();
        assert_eq!(manual.stats(), replay_streams(&trace, &configs));
    }

    #[test]
    fn multi_l2_replay_matches_independent_passes() {
        let trace = record_miss_trace(&RandomGather::default(), &RecordOptions::default()).unwrap();
        let block = BlockSize::new(64).unwrap();
        let cells = [
            (CacheConfig::new(64 << 10, 1, block).unwrap(), None),
            (CacheConfig::new(1 << 20, 2, block).unwrap(), None),
            (
                CacheConfig::new(4 << 20, 4, block).unwrap(),
                Some(SetSampling::new(4, 1)),
            ),
        ];
        let together = replay_l2(&trace, &cells).unwrap();
        for (&(config, sampling), joint) in cells.iter().zip(&together) {
            let mut alone = L2Observer::new(config, sampling).unwrap();
            replay(&trace, &mut [&mut alone]);
            assert_eq!(*joint, alone.stats());
            assert_eq!(*joint, run_l2(&trace, config, sampling).unwrap());
        }
    }

    /// A sampling finer than the cache is reported as such, not as a bad
    /// set count: a 4-set cell sampled at 1/8 keeps no set.
    #[test]
    fn sampling_finer_than_the_cache_is_named() {
        let config = CacheConfig::new(4 * 64, 1, BlockSize::new(64).unwrap()).unwrap();
        let err = replay_l2(&trace(), &[(config, Some(SetSampling::new(3, 0)))]).unwrap_err();
        assert_eq!(
            err,
            CacheConfigError::SamplingFinerThanSets {
                sets: 4,
                log2_fraction: 3
            }
        );
        let message = err.to_string();
        assert!(
            message.contains("1/2^3") && message.contains("4 sets"),
            "{message}"
        );
        assert!(replay_l2(&trace(), &[(config, Some(SetSampling::new(2, 3)))]).is_ok());
    }

    /// More distinct associativities than one stack's entries have
    /// dirty bits for (16-byte blocks in one set leave room for five)
    /// split into several stacks of one shape, each still exact.
    #[test]
    fn associativity_classes_beyond_one_stack_split_into_more() {
        use streamsim_trace::Access;
        use streamsim_workloads::combinators::RecordedTrace;

        let block = BlockSize::new(16).unwrap();
        let cells: Vec<_> = (1..=9)
            .map(|assoc| {
                (
                    CacheConfig::new(16 * assoc, assoc as u32, block).unwrap(),
                    None,
                )
            })
            .collect();
        let family = L2FamilyObserver::new(&cells).unwrap();
        assert_eq!(family.stacks.len(), 2);
        let refs = (0..4_000u64)
            .map(|i| {
                let addr = Addr::new((i * 7919 % 211) * 16);
                if i % 3 == 0 {
                    Access::store(addr)
                } else {
                    Access::load(addr)
                }
            })
            .collect();
        let l1 = CacheConfig::new(64, 1, block).unwrap();
        let options = RecordOptions {
            icache: l1,
            dcache: l1,
            sampling: None,
        };
        let trace = record_miss_trace(&RecordedTrace::new("classes", refs), &options).unwrap();
        assert!(trace.writebacks() > 0);
        for (&(config, sampling), stats) in cells.iter().zip(replay_l2(&trace, &cells).unwrap()) {
            let mut alone = L2Observer::new(config, sampling).unwrap();
            replay(&trace, &mut [&mut alone]);
            assert_eq!(stats, alone.stats(), "{config}");
        }
    }

    /// Every event an observer receives, in delivery order.
    #[derive(Default)]
    struct Recorder {
        events: Vec<MissEvent>,
        finished: bool,
    }

    impl MissObserver for Recorder {
        fn on_fetch(&mut self, addr: Addr, kind: AccessKind) {
            self.events.push(MissEvent::fetch(addr, kind));
        }

        fn on_writeback(&mut self, base: Addr) {
            self.events.push(MissEvent::writeback(base));
        }

        fn finish(&mut self) {
            self.finished = true;
        }

        fn fan_out(&self) -> u64 {
            3
        }
    }

    /// Each write-back overtakes the fetch before it, whichever chunk
    /// boundary falls between them, and the last fetch is flushed on
    /// finish.
    #[test]
    fn hierarchy_order_swaps_each_fetch_and_its_writeback() {
        let fetch = |a| MissEvent::fetch(Addr::new(a), AccessKind::Store);
        let writeback = |a| MissEvent::writeback(Addr::new(a));
        let trace = [
            fetch(0x40),
            writeback(0x1040),
            fetch(0x80),
            fetch(0xc0),
            writeback(0x10c0),
            fetch(0x100),
        ];
        let hierarchy = [
            writeback(0x1040),
            fetch(0x40),
            fetch(0x80),
            writeback(0x10c0),
            fetch(0xc0),
            fetch(0x100),
        ];
        for chunk_len in 1..=trace.len() {
            let mut adaptor = HierarchyOrder::new(Recorder::default());
            assert_eq!(adaptor.fan_out(), 3);
            for chunk in trace.chunks(chunk_len) {
                adaptor.on_events(chunk);
            }
            assert_eq!(adaptor.inner().events, hierarchy[..5], "chunk {chunk_len}");
            assert!(!adaptor.inner().finished);
            adaptor.finish();
            assert_eq!(adaptor.inner().events, hierarchy, "chunk {chunk_len}");
            assert!(adaptor.inner().finished);
        }
    }

    #[test]
    fn mixed_observer_kinds_share_one_pass() {
        let trace = trace();
        let mut streams = StreamObserver::new(&[StreamConfig::paper_filtered(4).unwrap()]);
        let mut l2 = L2Observer::new(
            CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap(),
            None,
        )
        .unwrap();
        replay(&trace, &mut [&mut streams, &mut l2]);
        assert_eq!(
            streams.stats(),
            [run_streams(
                &trace,
                StreamConfig::paper_filtered(4).unwrap()
            )]
        );
        assert_eq!(
            l2.stats(),
            run_l2(
                &trace,
                CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap(),
                None
            )
            .unwrap()
        );
    }

    #[test]
    fn partitioned_streams_split_the_miss_stream() {
        let trace = trace();
        let cfg = StreamConfig::paper_basic(4).unwrap();
        let mut part = PartitionedObserver::new(cfg, cfg);
        replay(&trace, &mut [&mut part]);
        let (i, d) = (part.instruction_stats(), part.data_stats());
        assert!(d.lookups > 0);
        assert_eq!(i.lookups + d.lookups, trace.l1().misses());
        assert_eq!(
            part.hit_rate(),
            (i.hits + d.hits) as f64 / (i.lookups + d.lookups) as f64
        );
        assert!(part.hit_rate() > 0.8);
        assert_eq!(PartitionedObserver::new(cfg, cfg).hit_rate(), 0.0);
    }

    /// A [`StreamSystem`] driven event by event with one partition's
    /// fetches and, when `writebacks`, every write-back.
    fn partition_reference(
        trace: &MissTrace,
        config: StreamConfig,
        instruction: bool,
        writebacks: bool,
    ) -> StreamStats {
        let mut sys = StreamSystem::new(config);
        for event in trace.events() {
            match event.decode() {
                Miss::Fetch { addr, kind } => {
                    if (kind == AccessKind::IFetch) == instruction {
                        sys.on_l1_miss(addr);
                    }
                }
                Miss::Writeback { base } => {
                    if writebacks {
                        sys.on_writeback(base.block(BlockSize::default()));
                    }
                }
            }
        }
        sys.finalize();
        sys.stats()
    }

    /// Each partition sees its own fetches plus *every* write-back: pinned
    /// against [`partition_reference`] on the write-back-heavy quick `cgm`
    /// trace, where the write-backs change the data partition's
    /// statistics.
    #[test]
    fn partitioned_observer_broadcasts_every_writeback() {
        use crate::experiments::{workload_set, ExperimentOptions, Scale};

        let cgm = workload_set(Scale::Quick)
            .into_iter()
            .find(|w| w.name() == "cgm")
            .unwrap();
        let record = ExperimentOptions::quick().record_options();
        let trace = record_miss_trace(cgm.as_ref(), &record).unwrap();
        assert!(trace.writebacks() > 0, "need a write-back-heavy trace");

        let icfg = StreamConfig::paper_basic(2).unwrap();
        let dcfg = StreamConfig::paper_basic(8).unwrap();
        let mut part = PartitionedObserver::new(icfg, dcfg);
        replay(&trace, &mut [&mut part]);
        assert_eq!(
            part.instruction_stats(),
            partition_reference(&trace, icfg, true, true)
        );
        assert_eq!(
            part.data_stats(),
            partition_reference(&trace, dcfg, false, true)
        );
        assert_ne!(
            part.data_stats(),
            partition_reference(&trace, dcfg, false, false),
            "cgm's write-backs must reach the data partition"
        );
    }

    /// The broadcast reaches the instruction partition too. Code and data
    /// blocks never overlap in the kernels, so this uses code that
    /// stores into its own next block: the data cache evicts that dirty
    /// block while the instruction streams hold it as a prefetch.
    #[test]
    fn partitioned_writebacks_invalidate_instruction_prefetches() {
        use streamsim_trace::Access;
        use streamsim_workloads::combinators::RecordedTrace;

        // Direct-mapped 256 B caches: `x` and `x + 256` share a set.
        let l1 = CacheConfig::new(256, 1, BlockSize::new(32).unwrap()).unwrap();
        let mut refs = Vec::new();
        for k in 0..64u64 {
            let x = 0x1_0000 + k * 1024;
            refs.extend([
                Access::store(Addr::new(x)),
                Access::ifetch(Addr::new(x - 32)),
                Access::store(Addr::new(x + 256)),
                Access::ifetch(Addr::new(x)),
            ]);
        }
        let options = RecordOptions {
            icache: l1,
            dcache: l1,
            sampling: None,
        };
        let trace = record_miss_trace(&RecordedTrace::new("smc", refs), &options).unwrap();
        let cfg = StreamConfig::paper_basic(2).unwrap();
        let mut part = PartitionedObserver::new(cfg, cfg);
        replay(&trace, &mut [&mut part]);
        assert_eq!(
            part.instruction_stats(),
            partition_reference(&trace, cfg, true, true)
        );
        assert_ne!(
            part.instruction_stats(),
            partition_reference(&trace, cfg, true, false),
            "write-backs must reach the instruction partition"
        );
        assert_eq!(
            part.data_stats(),
            partition_reference(&trace, cfg, false, true)
        );
    }

    #[test]
    fn empty_observer_list_is_fine() {
        replay(&trace(), &mut []);
        replay_chunked(&trace(), &mut [], 7);
    }

    /// Chunked delivery matches per-event delivery for assorted chunk
    /// lengths (the full boundary sweep is a property test in
    /// `tests/replay_properties.rs`).
    #[test]
    fn chunked_replay_matches_per_event_replay() {
        let trace = trace();
        let config = StreamConfig::paper_filtered(4).unwrap();
        let l2_cfg = CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap();
        let reference = {
            let mut streams = StreamObserver::new(&[config]);
            let mut l2 = L2Observer::new(l2_cfg, None).unwrap();
            // Strict per-event delivery through the default trait body.
            for event in trace.events() {
                for o in [&mut streams as &mut dyn MissObserver, &mut l2] {
                    match event.decode() {
                        Miss::Fetch { addr, kind } => o.on_fetch(addr, kind),
                        Miss::Writeback { base } => o.on_writeback(base),
                    }
                }
            }
            streams.finish();
            l2.finish();
            (streams.stats(), l2.stats())
        };
        for chunk_len in [0, 1, 7, 1024, usize::MAX] {
            let mut streams = StreamObserver::new(&[config]);
            let mut l2 = L2Observer::new(l2_cfg, None).unwrap();
            let chunk_len = chunk_len.min(trace.events().len() + 3);
            replay_chunked(&trace, &mut [&mut streams, &mut l2], chunk_len);
            assert_eq!(
                (streams.stats(), l2.stats()),
                reference,
                "diverged at chunk_len {chunk_len}"
            );
        }
    }
}
