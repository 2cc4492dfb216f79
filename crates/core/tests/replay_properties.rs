//! Property-based tests for the record-once/replay-many engine: the
//! shared [`TraceStore`] and the multi-observer [`replay`] pass, via the
//! public API, on the in-tree `streamsim-quickcheck` harness.

use streamsim_prng::quickcheck::{check_with, Gen};
use streamsim_prng::Rng;

use streamsim_cache::{CacheConfig, Replacement, SetSampling};
use streamsim_core::{
    record_miss_trace, replay, replay_chunked, replay_l2, replay_streams, run_l2, run_streams,
    L2Observer, Miss, RecordOptions, StreamObserver, TraceStore,
};
use streamsim_streams::{StreamConfig, StreamSystem};
use streamsim_trace::{Access, AccessKind, Addr, BlockSize};
use streamsim_workloads::combinators::RecordedTrace;

fn tiny_l1() -> RecordOptions {
    let cfg = CacheConfig::new(4 * 1024, 2, BlockSize::new(32).unwrap())
        .unwrap()
        .with_replacement(Replacement::Lru);
    RecordOptions {
        icache: cfg,
        dcache: cfg,
        sampling: None,
    }
}

fn accesses(g: &mut Gen, max_len: usize) -> Vec<Access> {
    g.vec(1..max_len, |g| {
        let addr = g.gen_range(0u64..1 << 18);
        let kind = g.pick_weighted(&[
            (3, AccessKind::Load),
            (1, AccessKind::Store),
            (1, AccessKind::IFetch),
        ]);
        Access::new(Addr::new(addr), kind)
    })
}

fn stream_configs(g: &mut Gen) -> Vec<StreamConfig> {
    g.vec(1usize..5, |g| {
        let buffers = g.gen_range(1usize..8);
        let depth = g.gen_range(1usize..5);
        match g.gen_range(0u32..3) {
            0 => StreamConfig::paper_basic(buffers).unwrap(),
            1 => StreamConfig::paper_filtered(buffers).unwrap(),
            _ => StreamConfig::new(buffers, depth, streamsim_streams::Allocation::OnMiss).unwrap(),
        }
    })
}

/// A trace served from the store equals a fresh recording of the same
/// workload — caching never changes results.
#[test]
fn cached_traces_equal_fresh_recordings() {
    check_with("cached_traces_equal_fresh_recordings", 32, |g| {
        let trace = accesses(g, 400);
        let w = RecordedTrace::new("prop", trace);
        let options = tiny_l1();
        let store = TraceStore::default();
        let warm = store.record(&w, &options).unwrap();
        let cached = store.record(&w, &options).unwrap();
        let fresh = record_miss_trace(&w, &options).unwrap();
        assert_eq!(*warm, fresh);
        assert_eq!(*cached, fresh);
        assert_eq!(store.len(), 1);
        assert_eq!(store.hits(), 1);
    });
}

/// One replay pass over N stream configurations produces exactly the
/// statistics of N independent single-config passes.
#[test]
fn multi_config_replay_equals_independent_passes() {
    check_with("multi_config_replay_equals_independent_passes", 32, |g| {
        let trace = accesses(g, 400);
        let w = RecordedTrace::new("prop", trace);
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
        let configs = stream_configs(g);

        let shared = replay_streams(&rec, &configs);
        let independent: Vec<_> = configs.iter().map(|&c| run_streams(&rec, c)).collect();
        assert_eq!(shared, independent);
    });
}

/// The same holds for L2 observers, with and without set sampling.
#[test]
fn multi_l2_replay_equals_independent_passes() {
    check_with("multi_l2_replay_equals_independent_passes", 32, |g| {
        let trace = accesses(g, 400);
        let w = RecordedTrace::new("prop", trace);
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();

        let cells: Vec<(CacheConfig, Option<SetSampling>)> = g.vec(1usize..4, |g| {
            let kib = 1u64 << g.gen_range(4u32..8);
            let assoc = 1u32 << g.gen_range(0u32..3);
            let cfg = CacheConfig::new(kib * 1024, assoc, BlockSize::new(32).unwrap()).unwrap();
            let sampling = if g.gen_bool(0.5) {
                Some(SetSampling::new(2, 1))
            } else {
                None
            };
            (cfg, sampling)
        });

        let shared = replay_l2(&rec, &cells).unwrap();
        let independent: Vec<_> = cells
            .iter()
            .map(|&(cfg, sampling)| run_l2(&rec, cfg, sampling).unwrap())
            .collect();
        assert_eq!(shared, independent);
    });
}

/// A random [`StreamObserver`] family covering every allocation policy
/// and both match policies.
fn random_family(g: &mut Gen) -> Vec<StreamConfig> {
    use streamsim_streams::{Allocation, MatchPolicy};
    g.vec(1usize..6, |g| {
        let allocation = match g.gen_range(0u32..4) {
            0 => Allocation::OnMiss,
            1 => Allocation::UnitFilter {
                entries: g.gen_range(1usize..12),
            },
            2 => Allocation::UnitAndStrideFilters {
                unit_entries: g.gen_range(1usize..12),
                stride_entries: g.gen_range(1usize..12),
                czone_bits: g.gen_range(8u32..24),
            },
            _ => Allocation::MinDelta {
                entries: g.gen_range(1usize..8),
                max_stride_words: g.gen_range(1i64..(1 << 16)),
            },
        };
        let policy = if g.gen_bool(0.5) {
            MatchPolicy::HeadOnly
        } else {
            MatchPolicy::AnyEntry
        };
        StreamConfig::new(g.gen_range(1usize..8), g.gen_range(1usize..5), allocation)
            .expect("parameters drawn from valid ranges")
            .with_match_policy(policy)
    })
}

/// Drives one [`StreamSystem`] per config through `trace`, one event at
/// a time and with no observer in between — the unfused, unbatched
/// reference semantics.
fn per_event_stream_passes(
    trace: &streamsim_core::MissTrace,
    configs: &[StreamConfig],
) -> Vec<streamsim_core::StreamStats> {
    configs
        .iter()
        .map(|&c| {
            let mut sys = StreamSystem::new(c);
            for event in trace.events() {
                match event.decode() {
                    Miss::Fetch { addr, .. } => {
                        sys.on_l1_miss(addr);
                    }
                    Miss::Writeback { base } => {
                        sys.on_writeback(base.block(BlockSize::default()));
                    }
                }
            }
            sys.finalize();
            sys.stats()
        })
        .collect()
}

/// A fused family replayed in arbitrary (often misaligned) chunk sizes,
/// or through [`replay_streams`], is byte-identical to independent
/// per-event stream systems: both the fusion and the batching are pure
/// delivery mechanics.
#[test]
fn fused_replay_matches_independent_observers_at_any_chunk_size() {
    check_with(
        "fused_replay_matches_independent_observers_at_any_chunk_size",
        32,
        |g| {
            let trace = accesses(g, 400);
            let w = RecordedTrace::new("prop", trace);
            let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
            let configs = random_family(g);

            let mut fused = StreamObserver::new(&configs);
            let chunk = g.gen_range(1usize..80);
            replay_chunked(&rec, &mut [&mut fused], chunk);

            let expected = per_event_stream_passes(&rec, &configs);
            assert_eq!(fused.stats(), expected);
            assert_eq!(replay_streams(&rec, &configs), expected);
        },
    );
}

/// Two fused replays of the same family at different chunk sizes agree
/// exactly: no observable state leaks across chunk boundaries.
#[test]
fn chunk_boundaries_are_invisible_to_fused_families() {
    check_with(
        "chunk_boundaries_are_invisible_to_fused_families",
        32,
        |g| {
            let trace = accesses(g, 400);
            let w = RecordedTrace::new("prop", trace);
            let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
            let configs = random_family(g);

            let mut coarse = StreamObserver::new(&configs);
            let mut fine = StreamObserver::new(&configs);
            replay_chunked(&rec, &mut [&mut coarse], g.gen_range(100usize..500));
            replay_chunked(&rec, &mut [&mut fine], g.gen_range(1usize..10));
            assert_eq!(coarse.stats(), fine.stats());
        },
    );
}

/// Mixing stream and L2 observers in one pass changes nothing either:
/// observers are fully independent of each other.
#[test]
fn mixed_observers_do_not_interact() {
    check_with("mixed_observers_do_not_interact", 32, |g| {
        let trace = accesses(g, 400);
        let w = RecordedTrace::new("prop", trace);
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();

        let scfg = StreamConfig::paper_filtered(4).unwrap();
        let l2cfg = CacheConfig::new(64 * 1024, 2, BlockSize::new(32).unwrap()).unwrap();
        let mut streams = StreamObserver::new(&[scfg]);
        let mut l2 = L2Observer::new(l2cfg, None).unwrap();
        replay(&rec, &mut [&mut streams, &mut l2]);

        assert_eq!(streams.stats(), [run_streams(&rec, scfg)]);
        assert_eq!(l2.stats(), run_l2(&rec, l2cfg, None).unwrap());
    });
}
