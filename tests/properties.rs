//! Property-based tests over the core data structures and simulators.
//!
//! These check invariants that must hold for *any* reference stream, not
//! just the benchmark kernels: prefetch-disposition conservation, hit
//! and bandwidth bounds, filter monotonicity, cache sanity and set-
//! sampling unbiasedness. They run on the in-tree `streamsim-quickcheck`
//! harness (see `streamsim_prng::quickcheck` for the replay workflow).

use streamsim_prng::quickcheck::{check, Gen};
use streamsim_prng::Rng;

use streamsim::{
    Access, AccessKind, Addr, Allocation, BlockSize, CacheConfig, Replacement, SetAssocCache,
    StreamConfig, StreamSystem,
};
use streamsim_cache::SetSampling;

/// An arbitrary short reference stream over a modest footprint, mixing
/// loads and stores.
fn access_stream(g: &mut Gen, max_len: usize) -> Vec<Access> {
    g.vec(1..max_len, |g| {
        let raw = g.gen_range(0u64..1 << 22);
        let kind = g.pick(&[AccessKind::Load, AccessKind::Store]);
        Access::new(Addr::new(raw), kind)
    })
}

/// A miss-address stream (block-aligned-ish raw addresses).
fn miss_stream(g: &mut Gen, max_len: usize) -> Vec<Addr> {
    g.vec(1..max_len, |g| Addr::new(g.gen_range(0u64..1 << 22)))
}

fn stream_config(g: &mut Gen) -> StreamConfig {
    let streams = g.gen_range(1usize..8);
    let depth = g.gen_range(1usize..5);
    let allocation = g.pick(&[
        Allocation::OnMiss,
        Allocation::UnitFilter { entries: 8 },
        Allocation::UnitAndStrideFilters {
            unit_entries: 8,
            stride_entries: 8,
            czone_bits: 14,
        },
        Allocation::MinDelta {
            entries: 8,
            max_stride_words: 1 << 16,
        },
    ]);
    StreamConfig::new(streams, depth, allocation).expect("generated config is valid")
}

/// Every prefetch ends in exactly one disposition, whatever the stream
/// configuration and miss stream.
#[test]
fn prefetch_accounting_always_balances() {
    check("prefetch_accounting_always_balances", |g| {
        let misses = miss_stream(g, 400);
        let config = stream_config(g);
        let mut sys = StreamSystem::new(config);
        for &m in &misses {
            sys.on_l1_miss(m);
        }
        sys.finalize();
        let stats = sys.stats();
        assert!(stats.prefetch_accounting_balances(), "{stats:?}");
        assert_eq!(stats.lookups, misses.len() as u64);
        assert!(stats.hits <= stats.lookups);
        assert!(stats.prefetches_used == stats.hits);
    });
}

/// Extra bandwidth can never exceed depth × allocation rate, and the
/// paper's closed-form is an upper bound on the measurement.
#[test]
fn eb_is_bounded_by_the_paper_formula() {
    check("eb_is_bounded_by_the_paper_formula", |g| {
        let misses = miss_stream(g, 400);
        let config = stream_config(g);
        let mut sys = StreamSystem::new(config);
        for &m in &misses {
            sys.on_l1_miss(m);
        }
        sys.finalize();
        let stats = sys.stats();
        let formula = stats.extra_bandwidth_paper_formula(config.depth());
        assert!(
            stats.extra_bandwidth() <= formula + 1e-9,
            "measured {} > formula {}",
            stats.extra_bandwidth(),
            formula
        );
    });
}

/// Replaying the same stream twice gives identical statistics
/// (simulators are deterministic).
#[test]
fn stream_system_is_deterministic() {
    check("stream_system_is_deterministic", |g| {
        let misses = miss_stream(g, 300);
        let config = stream_config(g);
        let run = || {
            let mut sys = StreamSystem::new(config);
            for &m in &misses {
                sys.on_l1_miss(m);
            }
            sys.finalize();
            sys.stats()
        };
        assert_eq!(run(), run());
    });
}

/// The unit filter can only reduce allocations (and hence issued
/// prefetches) relative to allocate-on-miss.
#[test]
fn filter_never_increases_traffic() {
    check("filter_never_increases_traffic", |g| {
        let misses = miss_stream(g, 400);
        let run = |config: StreamConfig| {
            let mut sys = StreamSystem::new(config);
            for &m in &misses {
                sys.on_l1_miss(m);
            }
            sys.finalize();
            sys.stats()
        };
        let plain = run(StreamConfig::new(4, 2, Allocation::OnMiss).unwrap());
        let filtered = run(StreamConfig::new(4, 2, Allocation::UnitFilter { entries: 8 }).unwrap());
        assert!(filtered.allocations <= plain.allocations);
        assert!(filtered.prefetches_issued <= plain.prefetches_issued);
    });
}

/// Cache misses are at least the number of distinct blocks touched
/// (cold misses) and at most the total accesses; a second identical
/// pass on a cache bigger than the footprint hits everything.
#[test]
fn cache_miss_bounds() {
    check("cache_miss_bounds", |g| {
        let stream = access_stream(g, 300);
        let block = BlockSize::new(32).unwrap();
        let cfg = CacheConfig::new(1 << 22, 4, block)
            .unwrap()
            .with_replacement(Replacement::Lru);
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let mut blocks: Vec<u64> = stream.iter().map(|a| a.addr.block(block).index()).collect();
        blocks.sort_unstable();
        blocks.dedup();

        for &a in &stream {
            cache.access(a.addr, a.kind);
        }
        let first_pass = *cache.stats();
        assert!(first_pass.misses() >= blocks.len() as u64 || cfg.num_sets() == 0);
        assert!(first_pass.misses() <= first_pass.accesses());

        // 4 MB 4-way over a ≤4 MB footprint: capacity misses impossible;
        // with LRU and this working set every block survives, so a second
        // pass is all hits.
        cache.reset_stats();
        for &a in &stream {
            cache.access(a.addr, a.kind);
        }
        assert_eq!(cache.stats().misses(), 0);
    });
}

/// Set sampling chooses which sets a secondary cache counts, never how a
/// set behaves: a sampled cell from `replay_l2` has exactly the
/// accesses, misses and write-backs of a full `SetAssocCache` fed the
/// same miss trace and counted over the sampled sets only.
#[test]
fn set_sampling_is_exact_per_set() {
    use streamsim::{record_miss_trace, replay_l2, AccessOutcome, Miss, RecordOptions};
    use streamsim_workloads::combinators::RecordedTrace;

    check("set_sampling_is_exact_per_set", |g| {
        let footprint = 1u64 << g.gen_range(12u32..20);
        let refs = g.vec(1usize..600, |g| {
            let kind = g.pick(&[AccessKind::Load, AccessKind::Store]);
            Access::new(Addr::new(g.gen_range(0..footprint)), kind)
        });
        // A 1 KB L1, so most references reach the L2 and stores leave
        // dirty victims.
        let block = BlockSize::new(32).unwrap();
        let l1 = CacheConfig::new(1 << 10, 2, block).unwrap();
        let options = RecordOptions {
            icache: l1,
            dcache: l1,
            sampling: None,
        };
        let trace = record_miss_trace(&RecordedTrace::new("prop", refs), &options).unwrap();
        let cfg = CacheConfig::new(64 << 10, 2, block).unwrap();
        let bits = g.gen_range(0u32..5);
        let sampling = SetSampling::new(bits, g.gen_range(0..1u64 << bits));

        let mut full = SetAssocCache::new(cfg).unwrap();
        let set_mask = cfg.num_sets() - 1;
        let (mut accesses, mut misses, mut writebacks) = (0u64, 0u64, 0u64);
        for event in trace.events() {
            let (addr, kind) = match event.decode() {
                Miss::Fetch { addr, kind } => (addr, kind),
                Miss::Writeback { base } => (base, AccessKind::Store),
            };
            let outcome = full.access(addr, kind);
            if sampling.selects(addr.block(block).index() & set_mask) {
                accesses += 1;
                misses += u64::from(outcome.is_miss());
                writebacks += u64::from(matches!(
                    outcome,
                    AccessOutcome::Miss { writeback: Some(_) }
                ));
            }
        }
        let sampled = replay_l2(&trace, &[(cfg, Some(sampling))]).unwrap()[0];
        assert_eq!(sampled.accesses(), accesses);
        assert_eq!(sampled.misses(), misses);
        assert_eq!(sampled.writebacks, writebacks);
    });
}

/// Unified streams presented with a pure unit-stride run always hit
/// after the first miss, for any number of buffers and depth.
#[test]
fn unit_run_hits_after_first_miss() {
    check("unit_run_hits_after_first_miss", |g| {
        let base = g.gen_range(0u64..1 << 30);
        let len = g.gen_range(2u64..200);
        let buffers = g.gen_range(1usize..8);
        let mut sys = StreamSystem::new(StreamConfig::paper_basic(buffers).unwrap());
        let mut hits = 0;
        for i in 0..len {
            if sys.on_l1_miss(Addr::new(base + i * 32)).is_hit() {
                hits += 1;
            }
        }
        assert_eq!(hits, len - 1);
    });
}

/// Replay observers produce byte-identical results whatever the chunk
/// boundaries of the replay loop and whatever worker count — real
/// threads or the seeded DST simulator — recorded the trace through the
/// prefill fan-out.
#[test]
fn replay_is_invariant_to_chunking_and_worker_count() {
    use streamsim::{
        record_miss_trace, replay, replay_chunked, BlockSize, L2Observer, MissObserver,
        RecordOptions, StreamObserver, TraceStore, Workload,
    };
    use streamsim_dst::{Executor, SimExecutor, ThreadExecutor};
    use streamsim_workloads::generators::RandomGather;

    check("replay_is_invariant_to_chunking_and_worker_count", |g| {
        let footprint = 1u64 << g.gen_range(12u32..15);
        let count = g.gen_range(200u64..1_500);
        let seed = g.gen_range(0u64..1 << 32);
        let gather = |s: u64| RandomGather {
            footprint,
            count,
            seed: s,
        };
        let options = RecordOptions::default();
        let stream_cfg = StreamConfig::paper_filtered(4).expect("valid");
        let l2_cfg = CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).expect("valid");
        let observe =
            |trace: &streamsim::MissTrace, chunk_len: Option<usize>| -> (String, String, u64) {
                let mut streams = StreamObserver::new(&[stream_cfg]);
                let mut l2 = L2Observer::new(l2_cfg, None).expect("valid");
                {
                    let mut obs: [&mut dyn MissObserver; 2] = [&mut streams, &mut l2];
                    match chunk_len {
                        Some(len) => replay_chunked(trace, &mut obs, len),
                        None => replay(trace, &mut obs),
                    }
                }
                (
                    format!("{:?}", streams.stats()),
                    format!("{:?}", l2.stats()),
                    trace.fetches(),
                )
            };

        // Reference: a direct serial recording, replayed per-event.
        let reference = {
            let trace = record_miss_trace(&gather(seed), &options).expect("valid L1");
            observe(&trace, None)
        };

        // Shuffled run: the same workload recorded through the prefill
        // fan-out on an arbitrary executor (thread count 1–6, or the
        // seeded simulator with 2–5 workers), replayed with arbitrary
        // chunk boundaries (0 = one whole-trace chunk).
        let workloads: Vec<Box<dyn Workload>> = (0..3)
            .map(|i| Box::new(gather(seed.wrapping_add(i))) as Box<dyn Workload>)
            .collect();
        let exec: Box<dyn Executor> = if g.pick(&[false, true]) {
            Box::new(SimExecutor::new(
                g.gen_range(0u64..1 << 32),
                g.gen_range(2usize..6),
            ))
        } else {
            Box::new(ThreadExecutor::new(g.gen_range(1usize..7)))
        };
        let store = TraceStore::new();
        let traces = store
            .prefill_on(&workloads, &options, exec.as_ref())
            .expect("valid L1");
        let chunk_len = g.gen_range(0usize..traces[0].events().len() + 2);
        assert_eq!(
            observe(&traces[0], Some(chunk_len)),
            reference,
            "replay diverged (chunk_len {chunk_len})"
        );
    });
}

/// Writeback invalidation is conservative: it never *creates* hits.
#[test]
fn invalidation_only_removes_hits() {
    check("invalidation_only_removes_hits", |g| {
        let misses = miss_stream(g, 200);
        let block = BlockSize::default();
        let run = |invalidate: bool| {
            let mut sys = StreamSystem::new(StreamConfig::paper_basic(4).unwrap());
            for (i, &m) in misses.iter().enumerate() {
                if invalidate && i % 7 == 0 {
                    sys.on_writeback(m.block(block).next());
                }
                sys.on_l1_miss(m);
            }
            sys.finalize();
            sys.stats()
        };
        let clean = run(false);
        let invalidated = run(true);
        assert!(invalidated.hits <= clean.hits);
    });
}
