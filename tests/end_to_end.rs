//! End-to-end integration tests across the whole workspace: workload →
//! split L1 → stream buffers / secondary cache, through the public API
//! of the `streamsim` facade.

use streamsim::{
    record_miss_trace, run_l2, run_streams, Access, CacheConfig, ChunkSampler, RecordOptions,
    StreamConfig,
};
use streamsim_trace::BlockSize;
use streamsim_workloads::generators::{InterleavedStreams, RandomGather, SequentialSweep};
use streamsim_workloads::{benchmark, benchmark_names, collect_trace, Workload};

#[test]
fn every_benchmark_runs_through_the_paper_system() {
    // Use small custom kernels where the paper-size default is heavy in
    // debug builds; the registry itself must work for all fifteen.
    for name in benchmark_names() {
        let w = benchmark(name).expect("registry benchmark");
        assert_eq!(w.name(), name);
    }

    // Drive a couple of representative benchmarks fully.
    for name in ["is", "mdg"] {
        let w = benchmark(name).unwrap();
        let trace = record_miss_trace(w.as_ref(), &RecordOptions::default()).unwrap();
        assert!(trace.l1().refs() > 0, "{name}");
        let streams = run_streams(&trace, StreamConfig::paper_filtered(10).unwrap());
        assert_eq!(streams.lookups, trace.l1().misses(), "{name}");
        assert!(streams.prefetch_accounting_balances(), "{name}");
    }
}

#[test]
fn interleaved_streams_need_matching_buffer_count() {
    let workload = InterleavedStreams {
        num_streams: 6,
        elements: 32 * 1024,
        elem: 8,
    };
    let trace = record_miss_trace(&workload, &RecordOptions::default()).unwrap();
    let few = run_streams(&trace, StreamConfig::paper_basic(2).unwrap());
    let enough = run_streams(&trace, StreamConfig::paper_basic(8).unwrap());
    assert!(
        enough.hit_rate() > few.hit_rate() + 0.3,
        "8 buffers ({:.2}) must beat 2 ({:.2}) on 6 interleaved streams",
        enough.hit_rate(),
        few.hit_rate()
    );
}

#[test]
fn replay_is_deterministic_across_runs() {
    let workload = RandomGather {
        footprint: 1 << 20,
        count: 50_000,
        seed: 11,
    };
    let t1 = record_miss_trace(&workload, &RecordOptions::default()).unwrap();
    let t2 = record_miss_trace(&workload, &RecordOptions::default()).unwrap();
    assert_eq!(t1.events(), t2.events());
    let s1 = run_streams(&t1, StreamConfig::paper_strided(10, 16).unwrap());
    let s2 = run_streams(&t2, StreamConfig::paper_strided(10, 16).unwrap());
    assert_eq!(s1, s2);
}

#[test]
fn paper_time_sampling_preserves_hit_rate_roughly() {
    let workload = SequentialSweep {
        arrays: 3,
        bytes_per_array: 512 * 1024,
        passes: 2,
        elem: 8,
    };
    let full = record_miss_trace(&workload, &RecordOptions::default()).unwrap();
    let sampled =
        record_miss_trace(&workload, &RecordOptions::default().with_paper_sampling()).unwrap();
    assert!(sampled.fetches() < full.fetches() / 5);
    let hit_full = run_streams(&full, StreamConfig::paper_basic(10).unwrap()).hit_rate();
    let hit_sampled = run_streams(&sampled, StreamConfig::paper_basic(10).unwrap()).hit_rate();
    assert!(
        (hit_full - hit_sampled).abs() < 0.1,
        "full {hit_full} vs sampled {hit_sampled}"
    );
}

#[test]
fn l2_observer_and_streams_agree_on_lookup_counts() {
    let workload = SequentialSweep::default();
    let trace = record_miss_trace(&workload, &RecordOptions::default()).unwrap();
    let streams = run_streams(&trace, StreamConfig::paper_basic(4).unwrap());
    let l2 = run_l2(
        &trace,
        CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap(),
        None,
    )
    .unwrap();
    // The L2 additionally sees write-backs as stores.
    assert_eq!(l2.accesses(), streams.lookups + trace.writebacks());
}

#[test]
fn trace_io_round_trips_generated_workloads() {
    let workload = RandomGather {
        footprint: 256 * 1024,
        count: 5_000,
        seed: 9,
    };
    let trace: Vec<Access> = collect_trace(&workload);
    let mut buf = Vec::new();
    streamsim_trace::io::write_trace(&mut buf, &trace).unwrap();
    let back = streamsim_trace::io::read_trace(&buf[..]).unwrap();
    assert_eq!(trace, back);
}

#[test]
fn sampler_wrapping_matches_generated_subset() {
    let workload = SequentialSweep {
        arrays: 1,
        bytes_per_array: 64 * 1024,
        passes: 1,
        elem: 8,
    };
    let trace = collect_trace(&workload);
    let mut sampled = Vec::new();
    let mut sampler = ChunkSampler::new(100, 300);
    workload.generate_chunks(&mut Vec::new(), &mut |chunk| {
        sampler.sample(chunk, &mut |kept| sampled.extend_from_slice(kept));
    });
    assert!(!sampled.is_empty());
    assert!(sampled.len() <= trace.len() / 3);
    let expected: Vec<Access> = trace
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 400 < 100)
        .map(|(_, &a)| a)
        .collect();
    assert_eq!(sampled, expected);
}

#[test]
fn victim_cache_recovers_direct_mapped_ping_pong() {
    use streamsim::{AccessKind, AccessOutcome, Addr, SetAssocCache, VictimCache};
    use streamsim_cache::VictimOutcome;

    // Two blocks that collide in a direct-mapped cache ping-pong; the
    // victim cache catches every conflict miss after the warm-up pair.
    let block = BlockSize::new(32).unwrap();
    let cfg = CacheConfig::new(4 * 1024, 1, block).unwrap();
    let mut cache = SetAssocCache::new(cfg).unwrap();
    let mut victims = VictimCache::new(4);
    let mut recovered = 0u32;
    let mut misses = 0u32;
    for round in 0..50u64 {
        for addr in [Addr::new(0), Addr::new(4096)] {
            match cache.access(addr, AccessKind::Load) {
                AccessOutcome::Hit | AccessOutcome::Bypassed => {}
                AccessOutcome::Miss { writeback } => {
                    misses += 1;
                    if victims.lookup(addr.block(block)) == VictimOutcome::Hit {
                        recovered += 1;
                    }
                    // The fill evicted the other block of the pair (clean
                    // victims are not reported via `writeback`).
                    let other = if addr.raw() == 0 { 4096 } else { 0 };
                    victims.insert_victim(Addr::new(other).block(block), false);
                    let _ = (writeback, round);
                }
            }
        }
    }
    assert_eq!(misses, 100, "direct-mapped ping-pong misses every time");
    assert!(
        recovered >= 97,
        "victim buffer recovers nearly all conflicts: {recovered}"
    );
}

/// The trace store shares replay results per (trace, configuration)
/// cell across drivers. Rendering the default report in report order on
/// one shared `ExperimentOptions` must give the same bytes as rendering
/// each artifact alone on fresh options: a memo key that merged two
/// distinct cells would hand one driver another driver's numbers.
#[test]
fn shared_store_report_equals_each_artifact_rendered_alone() {
    use streamsim::experiments::{default_artifacts, run_artifact, ExperimentOptions};
    use streamsim::render_json_lines;

    let render = |name: &str, options: &ExperimentOptions| {
        render_json_lines(
            run_artifact(name, options)
                .expect("known artifact")
                .as_ref(),
        )
    };
    let shared = ExperimentOptions::quick();
    let together: Vec<(&str, Vec<String>)> = default_artifacts()
        .into_iter()
        .map(|name| (name, render(name, &shared)))
        .collect();
    assert_eq!(together.len(), 16);
    assert!(
        shared.store.replay_hits() > 0,
        "the report's drivers share cells"
    );
    for (name, lines) in together {
        assert!(!lines.is_empty(), "{name} rendered nothing");
        assert_eq!(
            render(name, &ExperimentOptions::quick()),
            lines,
            "{name} depends on the artifacts rendered before it"
        );
    }
}
