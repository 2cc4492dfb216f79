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
//! inlined; [`StreamObserver`] overrides it to hoist the address
//! decode out of its family's loop.
//!
//! Three observers cover the common cases. [`StreamObserver`] evaluates
//! a *family* of stream-buffer systems — the shape of every paper sweep
//! (ten stream counts, four filter sizes...) — splitting each address
//! into block and word exactly once per event instead of once per
//! system; [`replay_streams`] runs a whole request as one family. Every
//! stream system fetches 32-byte blocks and detects strides in 4-byte
//! words, so one decode serves any family. [`L2Observer`] wraps a
//! [`SetAssocCache`]. [`PartitionedObserver`] splits the miss stream
//! between instruction and data streams, the one topology beside the
//! paper's unified streams. Drivers with bespoke plumbing (e.g. the
//! Jouppi topology, where a secondary cache sees only the stream-miss
//! residual) implement [`MissObserver`] themselves and join the same
//! pass.

// Hot-loop module: the replay loop touches every recorded miss event per observer.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use streamsim_cache::{CacheConfig, CacheConfigError, CacheStats, SetAssocCache, SetSampling};
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
    /// chunk than per event overrides it: [`StreamObserver`] decodes
    /// each chunk once for its whole family.
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

/// A secondary cache as a replay observer.
///
/// Fetches become demand accesses; a write-back from L1 is a store access
/// at the L2.
#[derive(Debug)]
pub struct L2Observer {
    cache: SetAssocCache,
}

impl L2Observer {
    /// Wraps a fresh cache of the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if the configuration or sampling is
    /// invalid.
    pub fn new(
        config: CacheConfig,
        sampling: Option<SetSampling>,
    ) -> Result<Self, CacheConfigError> {
        let cache = match sampling {
            Some(s) => SetAssocCache::with_sampling(config, s)?,
            None => SetAssocCache::new(config)?,
        };
        Ok(L2Observer { cache })
    }

    /// The cache statistics (call after [`replay`]).
    pub fn stats(&self) -> CacheStats {
        *self.cache.stats()
    }
}

impl MissObserver for L2Observer {
    #[inline(always)]
    fn on_fetch(&mut self, addr: Addr, kind: AccessKind) {
        self.cache.access(addr, kind);
    }

    #[inline(always)]
    fn on_writeback(&mut self, base: Addr) {
        self.cache.access(base, AccessKind::Store);
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
/// Equivalent to N calls of [`crate::run_l2`], but the event vector is
/// walked once.
///
/// # Errors
///
/// Returns [`CacheConfigError`] if any cell's configuration or sampling
/// is invalid.
pub fn replay_l2(
    trace: &MissTrace,
    cells: &[(CacheConfig, Option<SetSampling>)],
) -> Result<Vec<CacheStats>, CacheConfigError> {
    let mut observers = cells
        .iter()
        .map(|&(config, sampling)| L2Observer::new(config, sampling))
        .collect::<Result<Vec<_>, _>>()?;
    {
        let mut refs: Vec<&mut dyn MissObserver> = observers
            .iter_mut()
            .map(|o| o as &mut dyn MissObserver)
            .collect();
        replay(trace, &mut refs);
    }
    Ok(observers.iter().map(L2Observer::stats).collect())
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
            assert_eq!(*joint, run_l2(&trace, config, sampling).unwrap());
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
