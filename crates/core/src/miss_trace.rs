//! Recording and replaying the primary-cache miss stream.
//!
//! Everything the paper evaluates — stream buffers of any configuration
//! and secondary caches of any geometry — sits *behind* the primary cache
//! and observes only its miss and write-back stream. That stream does not
//! depend on the observer, so we record it once per workload and replay
//! it against every configuration of interest. A multi-million-reference
//! workload typically produces a miss trace two orders of magnitude
//! smaller, which is what makes the paper's parameter sweeps (ten stream
//! counts × fifteen benchmarks, dozens of L2 geometries) cheap.

use std::fmt;

use streamsim_cache::{
    AccessOutcome, CacheConfig, CacheConfigError, CacheStats, SetSampling, SplitL1,
};
use streamsim_streams::{StreamConfig, StreamStats};
use streamsim_trace::{Access, AccessKind, Addr, BlockSize, ChunkSampler};
use streamsim_workloads::Workload;

/// One event in the primary cache's external traffic, packed into eight
/// bytes: the byte address in the high 62 bits and a 2-bit tag in the
/// low two (load, store, instruction fetch or write-back).
///
/// A paper-scale report holds tens of millions of events in memory, so
/// the packing halves the store's footprint against the decoded
/// [`Miss`] form. Read an event with [`MissEvent::decode`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MissEvent(u64);

const _: () = assert!(std::mem::size_of::<MissEvent>() == 8);

/// A decoded [`MissEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Miss {
    /// A primary-cache miss: a demand fetch of the block containing
    /// `addr` (kept at full byte precision — stride detection needs it).
    Fetch {
        /// The missing reference's byte address.
        addr: Addr,
        /// Load, store or instruction fetch.
        kind: AccessKind,
    },
    /// A dirty block written back to memory; `base` is the block's base
    /// byte address.
    Writeback {
        /// Base byte address of the evicted block.
        base: Addr,
    },
}

impl MissEvent {
    /// Every packed address is below this bound, 2^62: the low two bits
    /// of an event hold its tag.
    pub const ADDR_LIMIT: u64 = 1 << 62;

    /// The tag of a write-back; tags 0–2 are [`AccessKind::as_index`].
    const WRITEBACK: u64 = 3;

    /// A demand fetch of the block containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not below [`MissEvent::ADDR_LIMIT`].
    #[inline]
    pub fn fetch(addr: Addr, kind: AccessKind) -> Self {
        Self::pack(addr, kind.as_index() as u64)
    }

    /// A write-back of the block whose base byte address is `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not below [`MissEvent::ADDR_LIMIT`].
    #[inline]
    pub fn writeback(base: Addr) -> Self {
        Self::pack(base, Self::WRITEBACK)
    }

    #[inline]
    fn pack(addr: Addr, tag: u64) -> Self {
        assert!(
            addr.raw() < Self::ADDR_LIMIT,
            "miss address {addr} does not fit in 62 bits"
        );
        MissEvent(addr.raw() << 2 | tag)
    }

    /// The event's address and kind.
    #[inline]
    pub fn decode(self) -> Miss {
        let addr = Addr::new(self.0 >> 2);
        // One branch, fetch or write-back, with the kind indexed from
        // the tag: a match with one arm per kind compiled to a jump
        // table in `L2Observer`'s loop, an indirect branch per event.
        match self.0 & 3 {
            Self::WRITEBACK => Miss::Writeback { base: addr },
            tag => Miss::Fetch {
                addr,
                kind: AccessKind::ALL[tag as usize],
            },
        }
    }
}

impl fmt::Debug for MissEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.decode().fmt(f)
    }
}

/// Options for [`record_miss_trace`].
#[derive(Clone, Copy, Debug)]
pub struct RecordOptions {
    /// Instruction-cache configuration.
    pub icache: CacheConfig,
    /// Data-cache configuration.
    pub dcache: CacheConfig,
    /// Optional time sampling `(on, off)` applied to the reference stream
    /// before the cache — the paper samples 10 000 on / 90 000 off.
    pub sampling: Option<(u64, u64)>,
}

impl Default for RecordOptions {
    /// The paper's configuration: 64 KB I + 64 KB D, 4-way, random
    /// replacement, no time sampling.
    fn default() -> Self {
        let cfg = CacheConfig::paper_l1().expect("paper L1 config is valid");
        RecordOptions {
            icache: cfg,
            dcache: cfg,
            sampling: None,
        }
    }
}

impl RecordOptions {
    /// Enables the paper's 10 % time sampling.
    #[must_use]
    pub fn with_paper_sampling(mut self) -> Self {
        self.sampling = Some((10_000, 90_000));
        self
    }
}

/// The primary-cache statistics of one recording.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L1Summary {
    /// Instruction-cache counters.
    pub icache: CacheStats,
    /// Data-cache counters.
    pub dcache: CacheStats,
}

impl L1Summary {
    fn from_split(l1: &SplitL1) -> Self {
        L1Summary {
            icache: *l1.icache().stats(),
            dcache: *l1.dcache().stats(),
        }
    }

    /// Total references.
    pub fn refs(&self) -> u64 {
        self.icache.accesses() + self.dcache.accesses()
    }

    /// Total L1 misses (the unified miss stream length).
    pub fn misses(&self) -> u64 {
        self.icache.misses() + self.dcache.misses()
    }

    /// Data miss rate — the paper's Table 1 metric.
    pub fn data_miss_rate(&self) -> f64 {
        self.dcache.data_miss_rate()
    }

    /// Misses per instruction — Table 1's "MPI", with instruction fetches
    /// standing in for the instruction count. Returns 0.0 with no
    /// ifetches (ifetch emission disabled).
    pub fn mpi(&self) -> f64 {
        let instr = self.icache.accesses_of(AccessKind::IFetch);
        if instr == 0 {
            0.0
        } else {
            self.misses() as f64 / instr as f64
        }
    }
}

/// A recorded primary-cache miss stream plus the L1 statistics that
/// produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissTrace {
    events: Vec<MissEvent>,
    summary: L1Summary,
    l1_block: BlockSize,
}

impl MissTrace {
    /// The events, in program order.
    pub fn events(&self) -> &[MissEvent] {
        &self.events
    }

    /// Number of demand fetches (primary-cache misses).
    pub fn fetches(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.decode(), Miss::Fetch { .. }))
            .count() as u64
    }

    /// Number of write-backs.
    pub fn writebacks(&self) -> u64 {
        self.events.len() as u64 - self.fetches()
    }

    /// The primary-cache statistics observed while recording.
    pub fn l1(&self) -> &L1Summary {
        &self.summary
    }

    /// The primary cache's block size (the granularity of fetches).
    pub fn l1_block(&self) -> BlockSize {
        self.l1_block
    }
}

/// Runs `workload` through a split L1 and records its miss stream.
///
/// # Errors
///
/// Returns [`CacheConfigError`] if either cache configuration is invalid.
///
/// # Panics
///
/// Panics if a reference that misses has a byte address of 2^62
/// ([`MissEvent::ADDR_LIMIT`]) or more: a packed event has no room for
/// it. The paper's kernels stay far below the bound; a caller holding
/// addresses from outside the program checks them first, as
/// `streamsim-trace replay` does.
pub fn record_miss_trace(
    workload: &dyn Workload,
    options: &RecordOptions,
) -> Result<MissTrace, CacheConfigError> {
    let mut span = streamsim_obs::span("record");
    let mut l1 = SplitL1::new(options.icache, options.dcache)?;
    let block = options.dcache.block();
    // Miss traces run 10^4-10^5 events at quick scale; starting with a
    // real allocation skips the long tail of doubling reallocations the
    // hot loop would otherwise absorb.
    let mut events = Vec::with_capacity(1 << 15);
    let mut batch = Vec::new();

    // Workloads emit chunks (one indirect call per `DEFAULT_CHUNK` =
    // 1024 refs); the L1 pass runs over contiguous slices.
    {
        let mut consume = |chunk: &[Access]| {
            for &access in chunk {
                match l1.access(access) {
                    AccessOutcome::Hit => {}
                    AccessOutcome::Miss { writeback } => {
                        events.push(MissEvent::fetch(access.addr, access.kind));
                        if let Some(victim) = writeback {
                            events.push(MissEvent::writeback(victim.base_addr(block)));
                        }
                    }
                }
            }
        };
        match options.sampling {
            Some((on, off)) => {
                // Time sampling splits each chunk into kept sub-slices
                // by range arithmetic instead of a per-ref branch.
                let mut sampler = ChunkSampler::new(on, off);
                workload.generate_chunks(&mut batch, &mut |chunk| {
                    sampler.sample(chunk, &mut consume);
                });
            }
            None => workload.generate_chunks(&mut batch, &mut consume),
        }
    }

    // The store keeps every trace for the whole report: drop the
    // doubling growth's spare capacity.
    events.shrink_to_fit();
    let summary = L1Summary::from_split(&l1);
    span.items(summary.refs());
    Ok(MissTrace {
        events,
        summary,
        l1_block: block,
    })
}

/// Replays a miss trace against a stream-buffer configuration and returns
/// the finalized statistics.
///
/// [`crate::replay_streams`] over a family of one; call that directly to
/// sweep several configurations in a single pass over the trace.
pub fn run_streams(trace: &MissTrace, config: StreamConfig) -> StreamStats {
    // One configuration in, one statistic out.
    crate::replay_streams(trace, &[config]).remove(0)
}

/// Replays a miss trace against a secondary cache (optionally
/// set-sampled) and returns its statistics. The cache's hit rate over the
/// replay is the paper's *local hit rate* — hits per primary-cache miss.
///
/// [`crate::replay_l2`] over one cell; call that directly to sweep
/// several geometries in a single pass over the trace.
///
/// # Errors
///
/// Returns [`CacheConfigError`] if the configuration or sampling is
/// invalid.
pub fn run_l2(
    trace: &MissTrace,
    config: CacheConfig,
    sampling: Option<SetSampling>,
) -> Result<CacheStats, CacheConfigError> {
    // One cell in, one statistic out.
    Ok(crate::replay_l2(trace, &[(config, sampling)])?.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim_prng::quickcheck::check;
    use streamsim_prng::Rng;
    use streamsim_workloads::generators::{RandomGather, SequentialSweep, StridedSweep};

    #[test]
    fn packed_events_round_trip() {
        check("packed_events_round_trip", |g| {
            let wide = g.gen_range(0..MissEvent::ADDR_LIMIT);
            let narrow = wide >> g.gen_range(0..62u32);
            for raw in [0, MissEvent::ADDR_LIMIT - 1, wide, narrow] {
                let addr = Addr::new(raw);
                for kind in AccessKind::ALL {
                    assert_eq!(
                        MissEvent::fetch(addr, kind).decode(),
                        Miss::Fetch { addr, kind }
                    );
                }
                assert_eq!(
                    MissEvent::writeback(addr).decode(),
                    Miss::Writeback { base: addr }
                );
            }
        });
    }

    #[test]
    #[should_panic(expected = "does not fit in 62 bits")]
    fn address_at_the_bound_panics() {
        let _ = MissEvent::writeback(Addr::new(1 << 62));
    }

    fn small_l1() -> RecordOptions {
        let cfg = CacheConfig::new(8 * 1024, 4, BlockSize::new(32).unwrap()).unwrap();
        RecordOptions {
            icache: cfg,
            dcache: cfg,
            sampling: None,
        }
    }

    #[test]
    fn sequential_sweep_misses_once_per_block() {
        let w = SequentialSweep {
            arrays: 1,
            bytes_per_array: 64 * 1024,
            passes: 1,
            elem: 8,
        };
        let trace = record_miss_trace(&w, &small_l1()).unwrap();
        // 64 KB / 32 B = 2048 data misses (plus a few ifetch misses).
        let fetches = trace.fetches();
        assert!((2048..2200).contains(&fetches), "fetches = {fetches}");
        assert_eq!(trace.writebacks(), 0, "read-only sweep");
    }

    #[test]
    fn stores_generate_writebacks() {
        let w = SequentialSweep {
            arrays: 1,
            bytes_per_array: 64 * 1024,
            passes: 2,
            elem: 8,
        };
        // All-store variant via a custom workload would be more direct;
        // reuse the sweep and check the plumbing with the L1 stats.
        let trace = record_miss_trace(&w, &small_l1()).unwrap();
        assert_eq!(trace.l1().dcache.writebacks, trace.writebacks());
    }

    #[test]
    fn sampling_shrinks_the_trace() {
        let w = SequentialSweep::default();
        let full = record_miss_trace(&w, &RecordOptions::default()).unwrap();
        let sampled = record_miss_trace(
            &w,
            &RecordOptions {
                sampling: Some((1_000, 9_000)),
                ..RecordOptions::default()
            },
        )
        .unwrap();
        let ratio = sampled.fetches() as f64 / full.fetches() as f64;
        assert!((0.05..0.25).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn streams_ace_sequential_misses() {
        let trace =
            record_miss_trace(&SequentialSweep::default(), &RecordOptions::default()).unwrap();
        let stats = run_streams(&trace, StreamConfig::paper_basic(4).unwrap());
        assert!(stats.hit_rate() > 0.9, "hit rate {}", stats.hit_rate());
        assert!(stats.prefetch_accounting_balances());
    }

    #[test]
    fn streams_fail_random_misses() {
        let trace = record_miss_trace(&RandomGather::default(), &RecordOptions::default()).unwrap();
        let stats = run_streams(&trace, StreamConfig::paper_basic(10).unwrap());
        assert!(stats.hit_rate() < 0.05, "hit rate {}", stats.hit_rate());
        // Unfiltered random misses waste ~depth prefetches per miss.
        assert!(stats.extra_bandwidth() > 1.0);
    }

    #[test]
    fn filter_slashes_random_bandwidth() {
        let trace = record_miss_trace(&RandomGather::default(), &RecordOptions::default()).unwrap();
        let plain = run_streams(&trace, StreamConfig::paper_basic(10).unwrap());
        let filtered = run_streams(&trace, StreamConfig::paper_filtered(10).unwrap());
        assert!(filtered.extra_bandwidth() < plain.extra_bandwidth() / 5.0);
    }

    #[test]
    fn czone_catches_strided_misses() {
        let w = StridedSweep {
            stride_bytes: 4096,
            count: 2048,
            repeats: 2,
        };
        let trace = record_miss_trace(&w, &RecordOptions::default()).unwrap();
        let unit = run_streams(&trace, StreamConfig::paper_filtered(10).unwrap());
        let strided = run_streams(&trace, StreamConfig::paper_strided(10, 16).unwrap());
        assert!(unit.hit_rate() < 0.1, "unit {}", unit.hit_rate());
        assert!(strided.hit_rate() > 0.7, "strided {}", strided.hit_rate());
    }

    #[test]
    fn l2_local_hit_rate_on_repeated_sweeps() {
        let w = SequentialSweep {
            arrays: 1,
            bytes_per_array: 256 * 1024,
            passes: 4,
            elem: 8,
        };
        let trace = record_miss_trace(&w, &RecordOptions::default()).unwrap();
        // A 1 MB L2 holds the whole array: every miss after the first
        // pass hits.
        let big = run_l2(
            &trace,
            CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap(),
            None,
        )
        .unwrap();
        assert!(big.hit_rate() > 0.6, "hit rate {}", big.hit_rate());
        // A 64 KB L2 thrashes.
        let small = run_l2(
            &trace,
            CacheConfig::new(64 << 10, 2, BlockSize::new(64).unwrap()).unwrap(),
            None,
        )
        .unwrap();
        assert!(small.hit_rate() < big.hit_rate());
    }

    #[test]
    fn sampled_l2_estimates_full_l2() {
        let w = SequentialSweep {
            arrays: 2,
            bytes_per_array: 256 * 1024,
            passes: 3,
            elem: 8,
        };
        let trace = record_miss_trace(&w, &RecordOptions::default()).unwrap();
        let cfg = CacheConfig::new(512 << 10, 2, BlockSize::new(64).unwrap()).unwrap();
        let full = run_l2(&trace, cfg, None).unwrap();
        let sampled = run_l2(&trace, cfg, Some(SetSampling::new(2, 1))).unwrap();
        assert!(
            (full.hit_rate() - sampled.hit_rate()).abs() < 0.05,
            "full {} vs sampled {}",
            full.hit_rate(),
            sampled.hit_rate()
        );
    }

    #[test]
    fn mpi_uses_instruction_fetches() {
        let trace =
            record_miss_trace(&SequentialSweep::default(), &RecordOptions::default()).unwrap();
        assert!(trace.l1().mpi() > 0.0);
        assert!(trace.l1().data_miss_rate() > 0.0);
    }

    #[test]
    fn trace_accessors_are_consistent() {
        let trace =
            record_miss_trace(&SequentialSweep::default(), &RecordOptions::default()).unwrap();
        assert_eq!(
            trace.events().len() as u64,
            trace.fetches() + trace.writebacks()
        );
        assert_eq!(trace.l1_block().bytes(), 32);
        assert_eq!(
            trace.fetches(),
            trace.l1().icache.misses() + trace.l1().dcache.misses()
        );
    }
}
