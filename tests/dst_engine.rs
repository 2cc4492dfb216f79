//! Deterministic simulation testing of the concurrent engine.
//!
//! Every test here sweeps seeds through [`streamsim_dst::SimExecutor`],
//! driving the real work-queue protocol (`parallel_map_on`, trace-store
//! prefill, the drivers' replay fan-outs) under randomized but
//! seed-reproducible interleavings with seed-derived fault plans. A
//! failing sweep prints `STREAMSIM_DST_SEED=<n>`; re-running the same
//! test with that variable set replays the identical schedule and
//! faults — see EXPERIMENTS.md, "Replaying a DST failure".
//!
//! The invariants swept are the panic-safety contract the engine has
//! promised since the observability PR: the original panic payload is
//! never masked, the abort flag stops new work from being claimed, and
//! results/artifacts are byte-identical regardless of interleaving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use streamsim_core::experiments::ExperimentOptions;
use streamsim_core::sink::col;
use streamsim_core::{
    parallel_map_on, render_json_lines, replay_streams, run_streams, Artifact, ArtifactSink, Cell,
    ExecutorHandle, Miss, RecordOptions, TraceStore,
};
use streamsim_dst::{
    sweep_with, Executor, Fault, FaultContext, FaultPlan, SimExecutor, ThreadExecutor,
};
use streamsim_prng::{Rng, SplitMix64, Xoshiro256StarStar};
use streamsim_streams::{StreamConfig, StreamSystem};
use streamsim_trace::{Access, BlockSize};
use streamsim_workloads::{generators::RandomGather, Suite, Workload};

/// A cheap pure cell: the work every sweep maps over when the point is
/// the scheduling, not the simulation.
fn mix(i: u64) -> u64 {
    SplitMix64::new(i).next()
}

/// Fault-free interleavings return byte-identical results, and one seed
/// reproduces the exact schedule the scheduler chose.
#[test]
fn seeded_interleavings_match_serial_results() {
    let items: Vec<u64> = (0..25).collect();
    let reference: Vec<u64> = items.iter().map(|&i| mix(i)).collect();
    sweep_with("interleavings_match_serial", 300, |seed| {
        let workers = 2 + (seed % 5) as usize;
        let exec = SimExecutor::new(seed, workers);
        assert_eq!(parallel_map_on(&exec, items.clone(), mix), reference);

        let again = SimExecutor::new(seed, workers);
        assert_eq!(parallel_map_on(&again, items.clone(), mix), reference);
        assert_eq!(
            exec.schedule(),
            again.schedule(),
            "one seed must reproduce one schedule"
        );
    });
}

/// Seed-derived fault plans: an injected worker panic always reaches
/// the caller with its original payload (never a poisoned-lock message)
/// and the abort flag keeps other workers from claiming new items —
/// at most their already-claimed in-flight item completes.
#[test]
fn injected_panics_propagate_unmasked_and_abort_work() {
    const ITEMS: usize = 24;
    let reference: Vec<usize> = (0..ITEMS).map(|i| i * 3).collect();
    sweep_with("panic_payload_never_masked", 300, |seed| {
        let exec = SimExecutor::from_seed(seed, ITEMS);
        let ctx = exec.context();
        let panic_items: Vec<usize> = exec
            .plan()
            .faults()
            .iter()
            .filter_map(|f| match f {
                Fault::PanicOnItem { item } => Some(*item),
                _ => None,
            })
            .collect();
        let panicked = AtomicBool::new(false);
        let after_panic = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map_on(&exec, (0..ITEMS).collect::<Vec<usize>>(), |i| {
                if panicked.load(Ordering::Relaxed) {
                    after_panic.fetch_add(1, Ordering::Relaxed);
                }
                if ctx.panics_on(i) {
                    panicked.store(true, Ordering::Relaxed);
                }
                ctx.maybe_panic(i);
                i * 3
            })
        }));
        match result {
            Ok(out) => {
                assert!(
                    panic_items.is_empty(),
                    "plan {} armed a panic that never fired",
                    exec.plan()
                );
                assert_eq!(out, reference);
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .expect("injected panics carry a String payload");
                assert!(
                    panic_items
                        .iter()
                        .any(|k| msg == &format!("dst: injected panic at item {k}")),
                    "masked payload under plan {}: {msg}",
                    exec.plan()
                );
                // Abort honored: after the panic step, only items that
                // were already claimed (at most one per other worker)
                // may still run the closure.
                let late = after_panic.load(Ordering::Relaxed);
                assert!(
                    late < exec.workers(),
                    "{late} items ran after the abort with {} workers (plan {})",
                    exec.workers(),
                    exec.plan()
                );
            }
        }
    });
}

/// One seed determines the entire run — schedule, faults and outcome —
/// so running it twice is byte-for-byte the same, success or failure.
#[test]
fn a_seed_reproduces_schedule_and_outcome_exactly() {
    const ITEMS: usize = 18;
    sweep_with("seed_reproduces_run", 150, |seed| {
        let run = || {
            let exec = SimExecutor::from_seed(seed, ITEMS);
            let ctx = exec.context();
            let result = catch_unwind(AssertUnwindSafe(|| {
                parallel_map_on(&exec, (0..ITEMS).collect::<Vec<usize>>(), |i| {
                    ctx.maybe_panic(i);
                    i as u64 * 7
                })
            }));
            let outcome = result.map_err(|p| p.downcast_ref::<String>().cloned());
            (exec.schedule(), outcome)
        };
        assert_eq!(run(), run(), "replay diverged");
    });
}

/// A workload whose trace generation consults the fault context: the
/// vehicle for injecting a panic *inside* a `TraceStore::prefill_on`.
#[derive(Debug)]
struct FaultyWorkload {
    inner: Box<dyn Workload>,
    index: usize,
    ctx: FaultContext,
}

impl Workload for FaultyWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn suite(&self) -> Suite {
        self.inner.suite()
    }

    fn description(&self) -> &str {
        self.inner.description()
    }

    fn data_set_bytes(&self) -> u64 {
        self.inner.data_set_bytes()
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        self.ctx.maybe_panic(self.index);
        self.inner.generate_chunks(batch, emit);
    }

    fn fingerprint(&self) -> String {
        format!("faulty#{}|{}", self.index, self.inner.fingerprint())
    }
}

fn small_gather(seed: u64) -> RandomGather {
    RandomGather {
        footprint: 1 << 14,
        count: 1_500,
        seed,
    }
}

/// The acceptance criterion: a seeded DST run that injects a worker
/// panic mid-`prefill` reproduces the identical failure — same
/// interleaving, same store state, same payload — when re-run with the
/// same seed (which is exactly what `STREAMSIM_DST_SEED` replays).
#[test]
fn a_panic_mid_prefill_replays_identically() {
    const CELLS: usize = 8;
    sweep_with("prefill_panic_replay", 12, |seed| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let workers = rng.gen_range(2usize..=4);
        let victim = rng.gen_range(0..CELLS);
        let plan = FaultPlan::new(vec![Fault::PanicOnItem { item: victim }]);
        let run = || {
            let exec = SimExecutor::with_plan(seed, workers, plan.clone());
            let ctx = exec.context();
            let workloads: Vec<Box<dyn Workload>> = (0..CELLS)
                .map(|i| {
                    Box::new(FaultyWorkload {
                        inner: Box::new(small_gather(i as u64)),
                        index: i,
                        ctx: ctx.clone(),
                    }) as Box<dyn Workload>
                })
                .collect();
            let store = TraceStore::new();
            let result = catch_unwind(AssertUnwindSafe(|| {
                store.prefill_on(&workloads, &RecordOptions::default(), &exec)
            }));
            let payload = result
                .expect_err("the injected mid-prefill panic must propagate")
                .downcast_ref::<String>()
                .cloned();
            (
                exec.schedule(),
                payload,
                store.len(),
                store.misses(),
                store.hits(),
            )
        };
        let first = run();
        assert_eq!(
            first.1.as_deref(),
            Some(format!("dst: injected panic at item {victim}").as_str()),
            "masked payload"
        );
        assert_eq!(
            first,
            run(),
            "mid-prefill failure did not replay identically"
        );
    });
}

/// A minimal driver-shaped artifact: per-cell stream hit rates over
/// prefetched traces, rendered as JSON lines.
struct MiniArtifact {
    rows: Vec<(String, u64, f64)>,
}

impl Artifact for MiniArtifact {
    fn artifact(&self) -> &'static str {
        "dst_mini"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        sink.begin_table(
            self.artifact(),
            "hit_rate",
            "DST mini driver",
            &[
                col("cell", "cell"),
                col("fetches", "fetches"),
                col("hit %", "hit_pct"),
            ],
        );
        for (cell, fetches, rate) in &self.rows {
            sink.row(&[
                Cell::text(cell),
                Cell::int(*fetches as i64, fetches.to_string()),
                Cell::num(*rate, format!("{rate:.1}")),
            ]);
        }
    }
}

/// An end-to-end record→replay→render pipeline produces byte-identical
/// artifact lines (and identical trace-store provenance) whatever the
/// interleaving — the property every table and figure in the repo
/// relies on.
#[test]
fn artifacts_are_byte_identical_across_interleavings() {
    let workloads = || -> Vec<Box<dyn Workload>> {
        (0..6)
            .map(|i| Box::new(small_gather(i)) as Box<dyn Workload>)
            .collect()
    };
    let run = |exec: &dyn Executor| -> (Vec<String>, usize, u64, u64) {
        let store = TraceStore::new();
        let traces = store
            .prefill_on(&workloads(), &RecordOptions::default(), exec)
            .expect("valid L1");
        let cells: Vec<(usize, Arc<streamsim_core::MissTrace>)> =
            traces.into_iter().enumerate().collect();
        let rows = parallel_map_on(exec, cells, |(i, trace)| {
            let stats = run_streams(&trace, StreamConfig::paper_filtered(4).expect("valid"));
            (
                format!("cell{i}"),
                trace.fetches(),
                stats.hit_rate() * 100.0,
            )
        });
        let lines = render_json_lines(&MiniArtifact { rows });
        (lines, store.len(), store.misses(), store.hits())
    };
    let reference = run(&ThreadExecutor::new(3));
    assert!(!reference.0.is_empty());
    sweep_with("artifact_byte_identity", 8, |seed| {
        let exec = SimExecutor::new(seed, 2 + (seed % 4) as usize);
        assert_eq!(run(&exec), reference, "artifact bytes depend on scheduling");
    });
}

/// The fused replay path feeding a driver-shaped artifact is
/// byte-identical to unfused per-event stream systems, under every seeded
/// interleaving of the work queue: neither the batching, the fusion nor
/// the scheduling of cells across workers may leak into artifact bytes.
#[test]
fn fused_and_unfused_replays_render_identical_artifacts() {
    let family = [
        StreamConfig::paper_basic(4).expect("valid"),
        StreamConfig::paper_filtered(4).expect("valid"),
        StreamConfig::paper_strided(4, 16).expect("valid"),
    ];
    let workloads = || -> Vec<Box<dyn Workload>> {
        (0..5)
            .map(|i| Box::new(small_gather(i)) as Box<dyn Workload>)
            .collect()
    };
    let pipeline = |exec: &dyn Executor, fused: bool| -> (Vec<String>, usize, u64, u64) {
        let store = TraceStore::new();
        let traces = store
            .prefill_on(&workloads(), &RecordOptions::default(), exec)
            .expect("valid L1");
        let cells: Vec<(usize, Arc<streamsim_core::MissTrace>)> =
            traces.into_iter().enumerate().collect();
        let per_cell = parallel_map_on(exec, cells, |(i, trace)| {
            let stats = if fused {
                replay_streams(&trace, &family)
            } else {
                // Unfused reference: each stream system on its own, fed
                // one event at a time.
                family
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
            };
            stats
                .into_iter()
                .enumerate()
                .map(|(j, s)| {
                    (
                        format!("cell{i}/cfg{j}"),
                        trace.fetches(),
                        s.hit_rate() * 100.0,
                    )
                })
                .collect::<Vec<_>>()
        });
        let rows = per_cell.into_iter().flatten().collect();
        let lines = render_json_lines(&MiniArtifact { rows });
        (lines, store.len(), store.misses(), store.hits())
    };
    let reference = pipeline(&ThreadExecutor::new(3), false);
    assert!(!reference.0.is_empty());
    sweep_with("fused_unfused_artifact_identity", 8, |seed| {
        let exec = SimExecutor::new(seed, 2 + (seed % 4) as usize);
        assert_eq!(
            pipeline(&exec, true),
            reference,
            "fused replay artifact bytes diverged from the unfused reference"
        );
    });
}

/// The experiment-options seam: a fan-out routed through
/// `ExperimentOptions::parallel_map` actually runs on the configured
/// executor (the schedule shows up on the shared `SimExecutor`).
#[test]
fn experiment_options_route_fanouts_through_the_executor() {
    let sim = Arc::new(SimExecutor::new(42, 3));
    let options = ExperimentOptions::quick().with_executor(ExecutorHandle::from_arc(
        sim.clone() as Arc<dyn Executor + Send + Sync>
    ));
    let out = options.parallel_map((0..12u64).collect::<Vec<u64>>(), |i| i + 1);
    assert_eq!(out, (1..13).collect::<Vec<u64>>());
    assert!(
        !sim.schedule().is_empty(),
        "the fan-out bypassed the DST executor"
    );
}

/// The model seam: locality profiles computed through
/// `TraceStore::profiles_on` are byte-identical whatever executor
/// drives the pass — a serial thread pool, wide pools, or seeded
/// simulated schedules — and so are the predictions scored from them.
/// This is what lets a pre-screened sweep run its profile pass on the
/// experiment's executor without perturbing which cells get pruned.
#[test]
fn model_profiles_are_byte_identical_across_executors() {
    use streamsim_model::{predict_streams, AllocModel, StreamGeometry};

    let workloads = || -> Vec<Box<dyn Workload>> {
        (0..6)
            .map(|seed| Box::new(small_gather(seed)) as Box<dyn Workload>)
            .collect()
    };
    let options = RecordOptions::default();
    // A fresh store per run: nothing is shared, so agreement means the
    // profiles really are a pure function of the workloads.
    let profiles = |exec: &dyn Executor| {
        let store = TraceStore::new();
        store
            .profiles_on(&workloads(), &options, exec)
            .expect("valid L1")
    };
    let geom = StreamGeometry {
        num_streams: 4,
        depth: 2,
        alloc: AllocModel::UnitStride {
            entries: 16,
            czone_bits: 12,
        },
    };
    let score = |profiles: &[Arc<streamsim_model::LocalityProfile>]| -> Vec<(u64, u64)> {
        profiles
            .iter()
            .map(|p| {
                let e = predict_streams(p, geom);
                (e.hit_rate.to_bits(), e.extra_bandwidth.to_bits())
            })
            .collect()
    };

    let reference = profiles(&ThreadExecutor::new(1));
    let reference_scores = score(&reference);
    for threads in [4, 8] {
        let got = profiles(&ThreadExecutor::new(threads));
        assert_eq!(got, reference, "profiles diverged at {threads} threads");
        assert_eq!(format!("{got:?}"), format!("{reference:?}"));
        assert_eq!(score(&got), reference_scores);
    }
    sweep_with("model_profiles_identical", 25, |seed| {
        let workers = 2 + (seed % 4) as usize;
        let got = profiles(&SimExecutor::new(seed, workers));
        assert_eq!(got, reference, "profiles diverged at seed {seed}");
        assert_eq!(
            score(&got),
            reference_scores,
            "predictions diverged at seed {seed}"
        );
    });
}

/// The replay memo under contention: several workers request the same
/// cold (trace, configuration) cells from one fresh store, each in its
/// own order. Under every seeded interleaving each request renders the
/// bytes an uncached replay of that request renders, the store records
/// the trace once, and each distinct cell is simulated once (the
/// simulated scheduler runs a claimed item to completion, so the first
/// claim of a cell simulates it and later claims are served).
#[test]
fn workers_requesting_one_cold_cell_render_identical_bytes() {
    const REQUESTS: usize = 9;
    let family = [
        StreamConfig::paper_basic(4).expect("valid"),
        StreamConfig::paper_filtered(4).expect("valid"),
        StreamConfig::paper_strided(4, 16).expect("valid"),
    ];
    let workload = small_gather(3);
    let options = RecordOptions::default();
    // Request i asks for the family rotated by i, so requests overlap
    // in their cells but not in their order.
    let request = |i: usize| -> Vec<StreamConfig> {
        let mut cells = family.to_vec();
        cells.rotate_left(i % family.len());
        cells
    };
    let render = |i: usize, stats: &[streamsim_core::StreamStats]| {
        let rows = stats
            .iter()
            .enumerate()
            .map(|(j, s)| (format!("req{i}/cell{j}"), s.lookups, s.hit_rate() * 100.0))
            .collect();
        render_json_lines(&MiniArtifact { rows })
    };
    let trace = streamsim_core::record_miss_trace(&workload, &options).expect("valid L1");
    let reference: Vec<Vec<String>> = (0..REQUESTS)
        .map(|i| render(i, &replay_streams(&trace, &request(i))))
        .collect();
    let run = |exec: &dyn Executor| {
        let store = TraceStore::new();
        let lines = parallel_map_on(exec, (0..REQUESTS).collect::<Vec<usize>>(), |i| {
            let stats = store
                .stream_stats(&workload, &options, &request(i))
                .expect("valid L1");
            render(i, &stats)
        });
        (lines, store)
    };

    // Real threads race for the cold cells; racing workers may both
    // simulate a cell, but they must agree on its bytes.
    let (lines, store) = run(&ThreadExecutor::new(4));
    assert_eq!(lines, reference, "threads rendered different bytes");
    assert_eq!(store.len(), 1);
    assert!(store.replay_misses() >= family.len() as u64);

    sweep_with("memo_cold_cell_contention", 40, |seed| {
        let exec = SimExecutor::new(seed, 2 + (seed % 4) as usize);
        let (lines, store) = run(&exec);
        assert_eq!(lines, reference, "a request's bytes depend on scheduling");
        assert_eq!(store.len(), 1, "the trace recorded more than once");
        assert_eq!(
            (store.replay_misses(), store.replay_hits()),
            (
                family.len() as u64,
                (REQUESTS * family.len() - family.len()) as u64
            ),
            "a cell was simulated twice"
        );
    });
}
