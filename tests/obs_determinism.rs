//! Cross-thread determinism of the observability layer.
//!
//! Span calls and items are exact sums over the spans that closed, so a
//! parallel run must produce the same registry and the same profile
//! rollup whatever the thread count or executor; only wall clock may
//! vary. This file owns its process (integration tests build one binary
//! each), so it can mutate the global level without coordinating with
//! other tests.

use std::sync::{Mutex, MutexGuard};

use streamsim_core::ExecutorHandle;
use streamsim_obs as obs;

const ITEMS: u64 = 32;

/// Every test in this binary mutates the global observability state
/// (level, registry), so they serialize on this lock. A poisoned lock
/// is recovered — the state is reset at the top of each test anyway.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn hold_obs() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One synthetic parallel "experiment": every item opens its own span
/// and declares items, from whichever worker thread the queue hands it
/// to. Returns each span path with its calls and items.
fn run_round(threads: usize) -> Vec<(String, u64, u64)> {
    obs::reset();
    let total: u64 = ExecutorHandle::threads(threads)
        .parallel_map((0..ITEMS).collect(), |i| {
            let mut span = obs::span(&format!("work{i:02}"));
            span.items(i + 1);
            i + 1
        })
        .into_iter()
        .sum();
    assert_eq!(total, ITEMS * (ITEMS + 1) / 2);
    obs::registry_snapshot()
        .into_iter()
        .map(|(path, stat)| (path, stat.calls, stat.items))
        .collect()
}

#[test]
fn registry_is_identical_across_thread_counts() {
    let _guard = hold_obs();
    obs::set_level(obs::Level::Info);
    let reference = run_round(1);
    // One path per item, sorted by name, each closed once.
    assert_eq!(reference.len(), ITEMS as usize, "{reference:#?}");
    assert_eq!(reference[0], ("work00".to_owned(), 1, 1));
    for threads in [2, 4, 7] {
        assert_eq!(
            run_round(threads),
            reference,
            "registry diverged at {threads} threads"
        );
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
        let paths = ExecutorHandle::threads(2).parallel_map(vec![1, 2], |_| {
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

/// DST runs must not perturb provenance: a prefill driven by the
/// single-threaded `SimExecutor` profiles exactly like the real thread
/// pool (the same phases, calls and items) and leaves the same
/// trace-store state.
///
/// Span *paths* legitimately differ, because the simulated scheduler
/// runs every worker step on the caller's thread, so the per-workload
/// `record` span nests under the driver's open `prefill` span instead
/// of starting a fresh stack. The profile rolls paths up by leaf phase
/// name, which is what `--profile` and the `run_steps` stamp read.
#[test]
fn sim_executor_prefill_profiles_the_same_as_threads() {
    use streamsim_core::{ProfileArtifact, RecordOptions, TraceStore};
    use streamsim_dst::{Executor, SimExecutor, ThreadExecutor};
    use streamsim_workloads::{generators::RandomGather, Workload};

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
    type Phases = Vec<(String, u64, u64)>;
    let run = |exec: &dyn Executor| -> (Phases, usize, u64, u64) {
        obs::reset();
        let store = TraceStore::new();
        store
            .prefill_on(&workloads(), &RecordOptions::default(), exec)
            .expect("valid L1");
        let phases = ProfileArtifact::capture()
            .phases()
            .iter()
            .map(|p| (p.name.clone(), p.stat.calls, p.stat.items))
            .collect();
        (phases, store.len(), store.misses(), store.hits())
    };

    let reference = run(&ThreadExecutor::new(3));
    let names: Vec<&str> = reference.0.iter().map(|p| p.0.as_str()).collect();
    assert_eq!(names, ["prefill", "record"], "{reference:?}");
    assert_eq!(reference.0[1].1, 6, "one recording per workload");
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
