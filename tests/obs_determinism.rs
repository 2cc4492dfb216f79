//! Cross-thread determinism of the observability layer.
//!
//! The event log is drained sorted by `(event, name)` and counters are
//! exact sums, so a parallel run must produce the same drained records
//! and the same registry whatever the thread count. This file owns its
//! process (integration tests build one binary each), so it can mutate
//! the global level without coordinating with other tests.

use std::sync::{Mutex, MutexGuard};

use streamsim_core::parallel_map_with_threads;
use streamsim_obs as obs;

const ITEMS: u64 = 32;

/// Every test in this binary mutates the global observability state
/// (level, event log, registry), so they serialize on this lock. A
/// poisoned lock is recovered — the state is reset at the top of each
/// test anyway.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn hold_obs() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One synthetic parallel "experiment": every item opens its own span,
/// bumps a counter and declares items, from whichever worker thread the
/// queue hands it to.
fn run_round(threads: usize) -> (Vec<String>, Vec<(String, obs::PhaseStat)>) {
    obs::reset();
    let total: u64 = parallel_map_with_threads((0..ITEMS).collect(), threads, |i| {
        let mut span = obs::span(&format!("work{i:02}"));
        obs::count(obs::Counter::RefsGenerated, i + 1);
        span.items(i + 1);
        i + 1
    })
    .into_iter()
    .sum();
    assert_eq!(total, ITEMS * (ITEMS + 1) / 2);
    obs::emit_counter_events();
    (obs::drain_events(), obs::registry_snapshot())
}

/// Strips the wall-clock field (`"ms":…`) from a span record — the only
/// part that legitimately varies between runs.
fn deterministic_view(line: &str) -> String {
    match (line.find("\"ms\":"), line.find(",\"items\"")) {
        (Some(ms), Some(items)) if ms < items => {
            format!("{}{}", &line[..ms], &line[items + 1..])
        }
        _ => line.to_owned(),
    }
}

#[test]
fn drained_events_are_identical_across_thread_counts() {
    let _guard = hold_obs();
    obs::set_level(obs::Level::Debug);
    let (events, registry) = run_round(1);
    let reference: Vec<String> = events.iter().map(|l| deterministic_view(l)).collect();

    // One counter rollup (sorted first: "counter" < "span"), then one
    // span record per item, sorted by name.
    assert_eq!(reference.len(), 1 + ITEMS as usize, "{reference:#?}");
    assert_eq!(
        reference[0],
        format!(
            "{{\"event\":\"counter\",\"name\":\"refs_generated\",\"value\":{}}}",
            ITEMS * (ITEMS + 1) / 2
        )
    );
    assert_eq!(
        reference[1],
        "{\"event\":\"span\",\"name\":\"work00\",\"items\":1}"
    );
    let ref_paths: Vec<&str> = registry.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(ref_paths.len(), ITEMS as usize);

    for threads in [2, 4, 7] {
        let (events, round_registry) = run_round(threads);
        let got: Vec<String> = events.iter().map(|l| deterministic_view(l)).collect();
        assert_eq!(got, reference, "event log diverged at {threads} threads");
        let paths: Vec<&str> = round_registry.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ref_paths, "registry diverged at {threads} threads");
        for ((path, stat), (_, ref_stat)) in round_registry.iter().zip(&registry) {
            assert_eq!(stat.calls, ref_stat.calls, "{path}");
            assert_eq!(stat.items, ref_stat.items, "{path}");
        }
    }
    obs::set_level(obs::Level::Off);
    obs::reset();
}

/// Workers start fresh span stacks, so a span opened inside a parallel
/// worker never nests under the caller's open span — the engine phases
/// (`record`, `replay`) aggregate under their own names no matter which
/// driver invoked them.
#[test]
fn worker_spans_do_not_inherit_the_callers_path() {
    let _guard = hold_obs();
    obs::set_level(obs::Level::Info);
    obs::reset();
    {
        let _driver = obs::span("obsdet_driver");
        let paths = parallel_map_with_threads(vec![1, 2], 2, |_| {
            let span = obs::span("obsdet_worker");
            span.path().map(str::to_owned)
        });
        for path in paths {
            assert_eq!(path.as_deref(), Some("obsdet_worker"));
        }
    }
    let snapshot = obs::registry_snapshot();
    let paths: Vec<&str> = snapshot.iter().map(|(p, _)| p.as_str()).collect();
    assert_eq!(paths, ["obsdet_driver", "obsdet_worker"]);
    obs::set_level(obs::Level::Off);
    obs::reset();
}

/// Global histograms are per-bucket atomic sums, so a parallel run must
/// produce a byte-identical encoding whatever the thread count — the
/// property the cross-thread `--profile` quantile columns rely on.
#[test]
fn global_histograms_merge_identically_across_thread_counts() {
    let _guard = hold_obs();
    obs::set_level(obs::Level::Info);
    let run = |threads: usize| {
        obs::reset();
        parallel_map_with_threads((0..ITEMS).collect(), threads, |i| {
            // Values spread across bucket groups (linear + exponential).
            obs::record_hist(obs::HistId::ReplayChunkEvents, i * 37 + 1);
            obs::record_hist(obs::HistId::ReplayChunkEvents, 1u64 << (i % 40));
            i
        });
        obs::hist_snapshot(obs::HistId::ReplayChunkEvents).encode()
    };
    let reference = run(1);
    assert!(
        reference.starts_with(&format!("n={};", 2 * ITEMS)),
        "{reference}"
    );
    for threads in [2, 4, 7] {
        assert_eq!(
            run(threads),
            reference,
            "hist diverged at {threads} threads"
        );
    }
    obs::set_level(obs::Level::Off);
    obs::reset();
}

/// The deterministic engine histograms (chunk sizes, not nanoseconds)
/// are pinned byte-for-byte across seeded `SimExecutor` schedules and
/// against the real thread pool: the recorded chunk structure is a
/// property of the workload, not of who executed it or in what order.
#[test]
fn dst_schedules_pin_byte_identical_deterministic_histograms() {
    use streamsim_core::{record_miss_trace, replay, RecordOptions, TraceStore};
    use streamsim_core::{MissEvent, MissObserver};
    use streamsim_dst::{Executor, SimExecutor, ThreadExecutor};
    use streamsim_workloads::{generators::RandomGather, Workload};

    struct CountObserver(u64);
    impl MissObserver for CountObserver {
        fn on_fetch(&mut self, _: streamsim_trace::Addr, _: streamsim_trace::AccessKind) {
            self.0 += 1;
        }
        fn on_writeback(&mut self, _: streamsim_trace::Addr) {
            self.0 += 1;
        }
        fn on_events(&mut self, events: &[MissEvent]) {
            self.0 += events.len() as u64;
        }
    }

    let _guard = hold_obs();
    obs::set_level(obs::Level::Info);

    let workloads = || -> Vec<Box<dyn Workload>> {
        (0..6)
            .map(|seed| {
                Box::new(RandomGather {
                    footprint: 1 << 14,
                    count: 1_500,
                    seed,
                }) as Box<dyn Workload>
            })
            .collect()
    };
    let run = |exec: &dyn Executor| -> (String, String) {
        obs::reset();
        let store = TraceStore::new();
        store
            .prefill_on(&workloads(), &RecordOptions::default(), exec)
            .expect("valid L1");
        // Replay one freshly recorded trace through the chunked
        // delivery loop to fill the replay-side histogram too.
        let trace = record_miss_trace(
            &RandomGather {
                footprint: 1 << 14,
                count: 1_500,
                seed: 99,
            },
            &RecordOptions::default(),
        )
        .expect("valid L1");
        let mut observer = CountObserver(0);
        replay(&trace, &mut [&mut observer]);
        (
            obs::hist_snapshot(obs::HistId::RecordChunkRefs).encode(),
            obs::hist_snapshot(obs::HistId::ReplayChunkEvents).encode(),
        )
    };

    let reference = run(&ThreadExecutor::new(3));
    assert!(
        !obs::Hist::default().encode().eq(&reference.0),
        "recording histogram should be non-empty: {reference:?}"
    );
    for seed in 0..3u64 {
        let got = run(&SimExecutor::new(seed, 4));
        assert_eq!(
            got, reference,
            "deterministic histograms diverged under DST seed {seed}"
        );
    }
    obs::set_level(obs::Level::Off);
    obs::reset();
}

/// DST runs must not perturb provenance: a prefill driven by the
/// single-threaded `SimExecutor` emits exactly the same counter rollups
/// (and leaves the same trace-store state) as the real thread pool.
///
/// Only counter events are compared: span *paths* legitimately differ,
/// because the simulated scheduler runs every worker step on the
/// caller's thread, so the per-workload `record` span nests under the
/// driver's open `prefill` span instead of starting a fresh stack.
/// Counters are path-free exact sums, which is what run provenance is
/// built on.
#[test]
fn sim_executor_prefill_emits_the_same_counters_as_threads() {
    use streamsim_core::{RecordOptions, TraceStore};
    use streamsim_dst::{Executor, SimExecutor, ThreadExecutor};
    use streamsim_workloads::{generators::RandomGather, Workload};

    let _guard = hold_obs();
    obs::set_level(obs::Level::Debug);

    let workloads = || -> Vec<Box<dyn Workload>> {
        (0..6)
            .map(|seed| {
                Box::new(RandomGather {
                    footprint: 1 << 14,
                    count: 1_500,
                    seed,
                }) as Box<dyn Workload>
            })
            .collect()
    };
    let run = |exec: &dyn Executor| -> (Vec<String>, usize, u64, u64) {
        obs::reset();
        let store = TraceStore::new();
        store
            .prefill_on(&workloads(), &RecordOptions::default(), exec)
            .expect("valid L1");
        obs::emit_counter_events();
        let counters = obs::drain_events()
            .into_iter()
            .filter(|line| line.contains("\"event\":\"counter\""))
            .collect();
        (counters, store.len(), store.misses(), store.hits())
    };

    let reference = run(&ThreadExecutor::new(3));
    assert!(
        !reference.0.is_empty(),
        "prefill should emit counter rollups"
    );
    for seed in 0..3u64 {
        let got = run(&SimExecutor::new(seed, 4));
        assert_eq!(
            got, reference,
            "DST run perturbed provenance at seed {seed}"
        );
    }
    obs::set_level(obs::Level::Off);
    obs::reset();
}

/// Each counter the replay path charges equals the exact statistic it
/// is copied from: `l1_probes` the recording's references, the stream
/// counters the stream systems' `StreamStats`, `l2_probes` one probe
/// per miss event per cell. A memo-served repeat charges nothing, and a
/// second `finalize` charges nothing.
#[test]
fn counters_equal_the_stats_they_are_charged_from() {
    use obs::Counter;
    use streamsim_cache::CacheConfig;
    use streamsim_core::{RecordOptions, TraceStore};
    use streamsim_streams::{StreamConfig, StreamStats, StreamSystem};
    use streamsim_trace::BlockSize;
    use streamsim_workloads::kernels::Fftpde;

    let _guard = hold_obs();
    obs::set_level(obs::Level::Info);
    obs::reset();
    let read = || {
        [
            Counter::L1Probes,
            Counter::StreamAllocations,
            Counter::UnitFilterAccepts,
            Counter::UnitFilterRejects,
            Counter::L2Probes,
        ]
        .map(obs::counter)
    };

    let workload = Fftpde {
        n: 32,
        steps: 1,
        passes: 1,
    };
    let record = RecordOptions::default();
    let store = TraceStore::new();
    let family = [
        StreamConfig::paper_basic(4).unwrap(),
        StreamConfig::paper_filtered(8).unwrap(),
        StreamConfig::paper_strided(6, 16).unwrap(),
    ];
    let stats = store.stream_stats(&workload, &record, &family).unwrap();
    let trace = store.record(&workload, &record).unwrap();
    let sum = |f: fn(&StreamStats) -> u64| stats.iter().map(f).sum();
    let expected = [
        trace.l1().refs(),
        sum(|s| s.allocations),
        sum(|s| s.unit_filter.allocations),
        sum(|s| s.unit_filter.lookups - s.unit_filter.allocations),
        0,
    ];
    assert!(expected[..4].iter().all(|&n| n > 0), "{expected:?}");
    assert_eq!(read(), expected, "fresh stream request");

    let block = BlockSize::new(64).unwrap();
    let cells = [
        (CacheConfig::new(256 << 10, 1, block).unwrap(), None),
        (CacheConfig::new(1 << 20, 2, block).unwrap(), None),
    ];
    store.l2_stats(&workload, &record, &cells).unwrap();
    let mut after_l2 = expected;
    after_l2[4] = trace.events().len() as u64 * cells.len() as u64;
    assert_eq!(read(), after_l2, "fresh L2 request");

    store.stream_stats(&workload, &record, &family).unwrap();
    store.l2_stats(&workload, &record, &cells).unwrap();
    assert_eq!(read(), after_l2, "memo-served repeats charge nothing");

    let mut sys = StreamSystem::new(family[1]);
    for event in trace.events() {
        if let streamsim_core::MissEvent::Fetch { addr, .. } = *event {
            sys.on_l1_miss(addr);
        }
    }
    sys.finalize();
    let once = read();
    sys.finalize();
    assert_eq!(read(), once, "a second finalize charges nothing");
    assert!(once[1] > after_l2[1], "the first finalize charged");

    obs::set_level(obs::Level::Off);
    obs::reset();
}
