//! Property-based tests for miss-trace recording, via the public API,
//! on the in-tree `streamsim-quickcheck` harness.

use streamsim_prng::quickcheck::{check_with, Gen};
use streamsim_prng::Rng;

use streamsim_cache::{CacheConfig, Replacement};
use streamsim_core::{record_miss_trace, run_l2, run_streams, Miss, RecordOptions};
use streamsim_streams::StreamConfig;
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

/// The recorded fetch count equals the L1's miss count, and every
/// write-back event corresponds to a counted cache write-back.
#[test]
fn fetches_equal_l1_misses() {
    check_with("fetches_equal_l1_misses", 48, |g| {
        let trace = accesses(g, 400);
        let w = RecordedTrace::new("prop", trace);
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
        assert_eq!(
            rec.fetches(),
            rec.l1().icache.misses() + rec.l1().dcache.misses()
        );
        assert_eq!(
            rec.writebacks(),
            rec.l1().icache.writebacks + rec.l1().dcache.writebacks
        );
    });
}

/// Fetch events preserve program order of the missing references:
/// filtering the input to its missing subset reproduces the events.
#[test]
fn events_are_in_program_order() {
    check_with("events_are_in_program_order", 48, |g| {
        let trace = accesses(g, 300);
        let w = RecordedTrace::new("prop", trace.clone());
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
        let fetched: Vec<(u64, AccessKind)> = rec
            .events()
            .iter()
            .filter_map(|e| match e.decode() {
                Miss::Fetch { addr, kind } => Some((addr.raw(), kind)),
                Miss::Writeback { .. } => None,
            })
            .collect();
        // Each fetch must appear in the input, in order (subsequence).
        let mut it = trace.iter();
        for (addr, kind) in &fetched {
            let found = it.any(|a| a.addr.raw() == *addr && a.kind == *kind);
            assert!(found, "fetch ({addr:#x}, {kind:?}) out of order");
        }
    });
}

/// A read-only reference stream never produces write-backs.
#[test]
fn loads_never_write_back() {
    check_with("loads_never_write_back", 48, |g| {
        let raw = g.vec(1usize..300, |g| g.gen_range(0u64..1 << 18));
        let trace: Vec<Access> = raw
            .into_iter()
            .map(|a| Access::load(Addr::new(a)))
            .collect();
        let w = RecordedTrace::new("ro", trace);
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
        assert_eq!(rec.writebacks(), 0);
    });
}

/// Replaying the same miss trace through streams and an L2 is
/// deterministic, and the stream lookup count equals the fetches.
#[test]
fn replays_are_deterministic_and_complete() {
    check_with("replays_are_deterministic_and_complete", 48, |g| {
        let trace = accesses(g, 300);
        let w = RecordedTrace::new("prop", trace);
        let rec = record_miss_trace(&w, &tiny_l1()).unwrap();
        let cfg = StreamConfig::paper_filtered(4).unwrap();
        let s1 = run_streams(&rec, cfg);
        let s2 = run_streams(&rec, cfg);
        assert_eq!(s1, s2);
        assert_eq!(s1.lookups, rec.fetches());
        assert!(s1.prefetch_accounting_balances());

        let l2cfg = CacheConfig::new(64 * 1024, 2, BlockSize::new(32).unwrap()).unwrap();
        let l2a = run_l2(&rec, l2cfg, None).unwrap();
        let l2b = run_l2(&rec, l2cfg, None).unwrap();
        assert_eq!(l2a, l2b);
        assert_eq!(l2a.accesses(), rec.fetches() + rec.writebacks());
    });
}

/// Time sampling can only shrink the trace, never grow it.
#[test]
fn sampling_shrinks_recordings() {
    check_with("sampling_shrinks_recordings", 48, |g| {
        let trace = accesses(g, 400);
        let w = RecordedTrace::new("prop", trace);
        let full = record_miss_trace(&w, &tiny_l1()).unwrap();
        let sampled = record_miss_trace(
            &w,
            &RecordOptions {
                sampling: Some((50, 150)),
                ..tiny_l1()
            },
        )
        .unwrap();
        // LRU is a stack algorithm over cache sizes, not over trace
        // subsetting, so sampling can add a bounded number of cold-start
        // misses at window boundaries — but it must not inflate the
        // trace wholesale.
        assert!(
            sampled.fetches() <= full.fetches() + 64,
            "sampling grew the miss trace: {} vs {}",
            sampled.fetches(),
            full.fetches()
        );
        assert!(sampled.l1().refs() <= full.l1().refs());
    });
}
