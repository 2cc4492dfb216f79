//! Property-based tests for the record-once/replay-many engine: the
//! shared [`TraceStore`] and the multi-observer [`replay`] pass, via the
//! public API, on the in-tree `streamsim-quickcheck` harness.

use streamsim_prng::quickcheck::{check_with, Gen};
use streamsim_prng::Rng;

use streamsim_cache::{
    CacheConfig, CacheConfigError, CacheStats, Replacement, SetSampling, TwoLevel,
};
use streamsim_core::{
    record_miss_trace, replay, replay_chunked, replay_l2, replay_l2_hierarchy, replay_streams,
    run_l2, run_streams, HierarchyOrder, L2FamilyObserver, L2Observer, Miss, MissObserver,
    RecordOptions, StreamObserver, TraceStore,
};
use streamsim_streams::{StreamConfig, StreamSystem};
use streamsim_trace::{Access, AccessKind, Addr, BlockSize, ChunkSampler};
use streamsim_workloads::combinators::RecordedTrace;
use streamsim_workloads::Workload;

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

/// Up to 24 LRU secondary-cache cells over one to three shared (block,
/// set count) shapes, so several cells read each recency stack: blocks
/// of 16–128 B, associativities 1–16 (non-powers of two included),
/// random set samplings and duplicate cells.
fn random_l2_cells(g: &mut Gen) -> Vec<(CacheConfig, Option<SetSampling>)> {
    let shapes = g.vec(1usize..4, |g| {
        (16u64 << g.gen_range(0u32..4), g.gen_range(0u32..7))
    });
    let mut cells = g.vec(1usize..21, |g| {
        let (block, set_bits) = g.pick(&shapes);
        let assoc = g.gen_range(1u32..17);
        let size = (1u64 << set_bits) * u64::from(assoc) * block;
        let config = CacheConfig::new(size, assoc, BlockSize::new(block).unwrap()).unwrap();
        let sampling = g.gen_bool(0.3).then(|| {
            let bits = g.gen_range(0..=set_bits);
            SetSampling::new(bits, g.gen_range(0..1u64 << bits))
        });
        (config, sampling)
    });
    for _ in 0..g.gen_range(0usize..4) {
        let duplicate = g.pick(&cells);
        cells.push(duplicate);
    }
    cells
}

/// One [`L2Observer`] per cell, driven one event at a time with no
/// batching and no shared state: the reference semantics of every
/// secondary-cache replay.
fn per_event_l2_passes(
    trace: &streamsim_core::MissTrace,
    cells: &[(CacheConfig, Option<SetSampling>)],
) -> Vec<CacheStats> {
    cells
        .iter()
        .map(|&(config, sampling)| {
            let mut cell = L2Observer::new(config, sampling).unwrap();
            for event in trace.events() {
                match event.decode() {
                    Miss::Fetch { addr, kind } => cell.on_fetch(addr, kind),
                    Miss::Writeback { base } => cell.on_writeback(base),
                }
            }
            cell.finish();
            cell.stats()
        })
        .collect()
}

/// One replay of many L2 cells read from shared recency stacks equals
/// one independent cache per cell driven event by event, at any chunk
/// length, with and without set sampling. A tree-PLRU or random cell
/// anywhere in the request is rejected by the family and the reference
/// alike.
#[test]
fn multi_l2_replay_equals_independent_passes() {
    check_with("multi_l2_replay_equals_independent_passes", 48, |g| {
        let footprint = 1u64 << g.gen_range(13u32..19);
        let trace = g.vec(1usize..800, |g| {
            let kind = g.pick_weighted(&[
                (3, AccessKind::Load),
                (1, AccessKind::Store),
                (1, AccessKind::IFetch),
            ]);
            Access::new(Addr::new(g.gen_range(0..footprint)), kind)
        });
        let rec = record_miss_trace(&RecordedTrace::new("prop", trace), &tiny_l1()).unwrap();
        let cells = random_l2_cells(g);

        let expected = per_event_l2_passes(&rec, &cells);
        let mut family = L2FamilyObserver::new(&cells).unwrap();
        assert_eq!(family.fan_out(), cells.len() as u64);
        replay_chunked(&rec, &mut [&mut family], g.gen_range(1usize..100));
        assert_eq!(family.stats(), expected);
        assert_eq!(replay_l2(&rec, &cells).unwrap(), expected);

        let replacement = g.pick(&[Replacement::TreePlru, Replacement::Random { seed: 7 }]);
        let (config, sampling) = g.pick(&cells);
        let mut mixed = cells.clone();
        mixed.insert(
            g.gen_range(0..=cells.len()),
            (config.with_replacement(replacement), sampling),
        );
        let rejected = CacheConfigError::L2NeedsLru { replacement };
        assert_eq!(replay_l2(&rec, &mixed).unwrap_err(), rejected);
        assert_eq!(
            L2Observer::new(config.with_replacement(replacement), sampling).unwrap_err(),
            rejected
        );
    });
}

/// The hierarchy-order replay of a recorded trace equals a coupled
/// split-L1 → L2 simulation ([`TwoLevel`]) of the same references: the
/// L2's statistics, and memory traffic of (misses + write-backs) × block.
/// Recordings are time-sampled or not, and chunks of one event (and of
/// random lengths) split (fetch, write-back) pairs across chunks.
#[test]
fn hierarchy_order_l2_equals_two_level() {
    check_with("hierarchy_order_l2_equals_two_level", 48, |g| {
        let refs = accesses(g, 800);
        let block = BlockSize::new(16 << g.gen_range(0u32..3)).unwrap();
        let l1 = |g: &mut Gen| {
            let assoc = 1u32 << g.gen_range(0u32..3);
            let sets = 1u64 << g.gen_range(2u32..6);
            let replacement = if g.gen_bool(0.5) {
                Replacement::Lru
            } else {
                Replacement::Random { seed: 3 }
            };
            CacheConfig::new(sets * u64::from(assoc) * block.bytes(), assoc, block)
                .unwrap()
                .with_replacement(replacement)
        };
        let options = RecordOptions {
            icache: l1(g),
            dcache: l1(g),
            sampling: g
                .gen_bool(0.5)
                .then(|| (g.gen_range(1u64..50), g.gen_range(0u64..50))),
        };
        let w = RecordedTrace::new("prop", refs);
        let rec = record_miss_trace(&w, &options).unwrap();
        let cells: Vec<(CacheConfig, Option<SetSampling>)> = random_l2_cells(g)
            .into_iter()
            .map(|(config, _)| (config, None))
            .collect();

        let expected = replay_l2_hierarchy(&rec, &cells).unwrap();
        for chunk_len in [1, g.gen_range(2usize..64)] {
            let mut family = HierarchyOrder::new(L2FamilyObserver::new(&cells).unwrap());
            replay_chunked(&rec, &mut [&mut family], chunk_len);
            assert_eq!(family.inner().stats(), expected, "chunk length {chunk_len}");
        }
        for (&(config, _), stats) in cells.iter().zip(&expected) {
            let mut two_level = TwoLevel::new(options.icache, options.dcache, config).unwrap();
            let mut consume = |chunk: &[Access]| {
                for &access in chunk {
                    two_level.access(access);
                }
            };
            match options.sampling {
                Some((on, off)) => {
                    let mut sampler = ChunkSampler::new(on, off);
                    w.generate_chunks(&mut Vec::new(), &mut |chunk| {
                        sampler.sample(chunk, &mut consume);
                    });
                }
                None => w.generate_chunks(&mut Vec::new(), &mut consume),
            }
            assert_eq!(stats, two_level.l2_stats(), "{config}");
            assert_eq!(
                (stats.misses() + stats.writebacks) * config.block().bytes(),
                two_level.memory_traffic_bytes(),
                "{config}"
            );
        }
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
