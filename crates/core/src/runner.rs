//! Parallel execution of independent simulations.
//!
//! Experiments run many independent (workload × configuration) cells;
//! [`parallel_map`] spreads them over the machine's cores with plain
//! scoped threads. Results come back in input order, so experiment output
//! is deterministic regardless of scheduling.
//!
//! The work-queue protocol itself is generic over the
//! [`Executor`](streamsim_dst::Executor) seam: [`parallel_map_on`] runs
//! the same queue/abort/panic-parking protocol on any executor, so the
//! production thread pool and the deterministic-simulation scheduler
//! ([`streamsim_dst::SimExecutor`]) exercise identical code. Tests
//! sweep seeds through the simulated executor to explore interleavings
//! real threads may never produce.

use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use streamsim_dst::{Executor, StepOutcome, ThreadExecutor};

/// Applies `f` to every item, using up to `available_parallelism` worker
/// threads, and returns the results in input order.
///
/// `f` must be `Sync` because multiple workers call it concurrently.
/// Panics in `f` propagate to the caller.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    parallel_map_with_threads(items, threads, f)
}

/// [`parallel_map`] with an explicit worker-thread cap instead of
/// `available_parallelism`.
///
/// Results are returned in input order whatever the scheduling, so for a
/// pure `f` the output is a function of the input alone — experiment
/// results must be byte-identical across any thread count, and the
/// determinism regression tests below pin exactly that.
pub fn parallel_map_with_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    parallel_map_on(&ThreadExecutor::new(threads), items, f)
}

/// The work-queue protocol, generic over who schedules the workers.
///
/// One shared queue of (index, item); each worker drains it into a
/// private (index, result) list, and the lists are merged and sorted
/// back into input order at the end. The executor decides *when* each
/// worker runs; the protocol is expressed as a step function with a
/// yield point between claiming an item, computing it and publishing
/// the result, so a simulated scheduler can interleave workers at every
/// boundary that matters.
///
/// Panic safety (pinned by the tests below and swept across seeds in
/// `tests/dst_engine.rs`): a panic in `f` must reach the caller with
/// its original payload. Workers run `f` under `catch_unwind`; the
/// first payload is parked aside and re-thrown after the executor
/// returns, and the abort flag stops the other workers from draining
/// doomed work. Locks recover poisoned state with `into_inner` — an
/// `expect` here would panic *during* the cleanup and mask the payload
/// the caller actually needs to see.
pub fn parallel_map_on<T, R, F>(exec: &dyn Executor, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    struct WorkerState<T, R> {
        /// Item claimed from the queue, not yet computed.
        pending: Option<(usize, T)>,
        /// Result computed, not yet published.
        staged: Option<(usize, R)>,
        /// Published results.
        done: Vec<(usize, R)>,
    }

    let workers = exec.workers().max(1).min(items.len().max(1));
    let queue = Mutex::new(items.into_iter().enumerate());
    let aborted = AtomicBool::new(false);
    let panic_payload: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let states: Vec<Mutex<WorkerState<T, R>>> = (0..workers)
        .map(|_| {
            Mutex::new(WorkerState {
                pending: None,
                staged: None,
                done: Vec::new(),
            })
        })
        .collect();

    let step = |w: usize| -> StepOutcome {
        let mut state = states[w].lock().unwrap_or_else(|e| e.into_inner());
        // Publish phase: a computed result becomes visible.
        if let Some(result) = state.staged.take() {
            state.done.push(result);
            return StepOutcome::Progress;
        }
        // Work phase: compute the claimed item.
        if let Some((i, item)) = state.pending.take() {
            return match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => {
                    state.staged = Some((i, r));
                    StepOutcome::Progress
                }
                Err(payload) => {
                    aborted.store(true, Ordering::Relaxed);
                    panic_payload
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .get_or_insert(payload);
                    StepOutcome::Done
                }
            };
        }
        // Poll phase: observe the abort flag or claim the next item.
        if aborted.load(Ordering::Relaxed) {
            return StepOutcome::Done;
        }
        match queue.lock().unwrap_or_else(|e| e.into_inner()).next() {
            Some(claimed) => {
                state.pending = Some(claimed);
                StepOutcome::Progress
            }
            None => StepOutcome::Done,
        }
    };
    exec.drive(workers, &step);

    if let Some(payload) = panic_payload
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
    {
        resume_unwind(payload);
    }
    let mut indexed: Vec<(usize, R)> = states
        .into_iter()
        .flat_map(|m| {
            let state = m.into_inner().unwrap_or_else(|e| e.into_inner());
            debug_assert!(
                state.pending.is_none() && state.staged.is_none(),
                "a worker retired with in-flight work on the success path"
            );
            state.done
        })
        .collect();
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// A cheap-clone, shareable executor for [`ExperimentOptions`]
/// (`Arc<dyn Executor>` inside).
///
/// The default is the production thread pool sized to the machine; DST
/// tests swap in a seeded [`streamsim_dst::SimExecutor`] to drive a
/// whole experiment — prefill, replay fan-out, everything that goes
/// through the options — under one reproducible schedule.
///
/// [`ExperimentOptions`]: crate::experiments::ExperimentOptions
#[derive(Clone)]
pub struct ExecutorHandle {
    exec: Arc<dyn Executor + Send + Sync>,
}

impl ExecutorHandle {
    /// Wraps an executor for sharing.
    pub fn new(exec: impl Executor + Send + Sync + 'static) -> Self {
        ExecutorHandle {
            exec: Arc::new(exec),
        }
    }

    /// Wraps an already-shared executor. Use this to keep a handle on a
    /// [`streamsim_dst::SimExecutor`] so its recorded schedule can be
    /// inspected after the run.
    pub fn from_arc(exec: Arc<dyn Executor + Send + Sync>) -> Self {
        ExecutorHandle { exec }
    }

    /// The production pool with an explicit thread count.
    pub fn threads(threads: usize) -> Self {
        ExecutorHandle::new(ThreadExecutor::new(threads))
    }

    /// The wrapped executor.
    pub fn executor(&self) -> &(dyn Executor + Send + Sync) {
        self.exec.as_ref()
    }

    /// [`parallel_map_on`] over this handle's executor.
    pub fn parallel_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        parallel_map_on(self.exec.as_ref(), items, f)
    }
}

impl Default for ExecutorHandle {
    /// The production pool sized by `available_parallelism`.
    fn default() -> Self {
        ExecutorHandle::new(ThreadExecutor::auto())
    }
}

impl fmt::Debug for ExecutorHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutorHandle")
            .field("workers", &self.exec.workers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map((0..100).collect(), |i: i32| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(parallel_map(Vec::<i32>::new(), |i| i), Vec::<i32>::new());
        assert_eq!(parallel_map(vec![7], |i: i32| i + 1), vec![8]);
    }

    #[test]
    fn runs_non_copy_items() {
        let items: Vec<String> = (0..20).map(|i| i.to_string()).collect();
        let out = parallel_map(items, |s| s.len());
        assert_eq!(out[0], 1);
        assert_eq!(out[10], 2);
    }

    /// Determinism regression: an experiment-shaped workload (record a
    /// seeded kernel's miss trace, replay it through streams) returns
    /// identical results whether it runs on 1, 2, 3, or 7 worker
    /// threads. This is the property every table/figure driver relies on
    /// when it spreads (benchmark × config) cells over cores.
    #[test]
    fn results_are_identical_across_thread_counts() {
        use streamsim_cache::{CacheConfig, Replacement};
        use streamsim_streams::StreamConfig;
        use streamsim_trace::BlockSize;
        use streamsim_workloads::generators::RandomGather;

        let cell = |seed: u64| {
            let workload = RandomGather {
                footprint: 1 << 16,
                count: 3_000,
                seed,
            };
            let cfg = CacheConfig::new(4 * 1024, 2, BlockSize::new(32).unwrap())
                .unwrap()
                .with_replacement(Replacement::Random { seed });
            let opts = crate::RecordOptions {
                icache: cfg,
                dcache: cfg,
                sampling: None,
            };
            let rec = crate::record_miss_trace(&workload, &opts).unwrap();
            let streams = crate::run_streams(&rec, StreamConfig::paper_filtered(4).unwrap());
            (rec.fetches(), rec.writebacks(), streams)
        };
        let seeds: Vec<u64> = (0..12).collect();
        let reference = parallel_map_with_threads(seeds.clone(), 1, cell);
        for threads in [2, 3, 7] {
            let got = parallel_map_with_threads(seeds.clone(), threads, cell);
            assert_eq!(got, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn thread_cap_of_zero_is_clamped_to_one() {
        let out = parallel_map_with_threads(vec![1, 2, 3], 0, |i: i32| i * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    fn payload_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>")
    }

    /// Panic-safety regression: a panic in `f` must reach the caller
    /// with its *original* payload. The old implementation `expect`ed
    /// the queue lock un-poisoned, so an unwinding worker could replace
    /// "boom on 7" with "queue not poisoned" — the message that
    /// actually diagnoses the failure never surfaced.
    #[test]
    fn worker_panic_propagates_the_original_payload() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with_threads((0..64).collect(), 4, |i: i32| {
                if i == 7 {
                    panic!("boom on {i}");
                }
                i * 2
            })
        });
        let payload = result.expect_err("the panic must propagate");
        let msg = payload_message(payload.as_ref());
        assert!(msg.contains("boom on 7"), "masked payload: {msg}");
    }

    #[test]
    fn serial_path_panic_also_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with_threads(vec![1], 4, |_| -> i32 { panic!("solo boom") })
        });
        let msg_owner = result.expect_err("the panic must propagate");
        assert!(payload_message(msg_owner.as_ref()).contains("solo boom"));
    }

    /// The DST scheduler runs the same protocol: results match the
    /// serial reference under arbitrary seeded interleavings. The full
    /// seed sweep lives in `tests/dst_engine.rs`; this is the in-crate
    /// smoke.
    #[test]
    fn sim_executor_matches_serial_results() {
        use streamsim_dst::SimExecutor;
        let serial: Vec<i32> = (0..40).map(|i| i * 3).collect();
        for seed in 0..8 {
            let exec = SimExecutor::new(seed, 4);
            let got = parallel_map_on(&exec, (0..40).collect(), |i: i32| i * 3);
            assert_eq!(got, serial, "seed {seed}");
        }
    }

    #[test]
    fn sim_executor_panic_propagates_the_original_payload() {
        let exec = streamsim_dst::SimExecutor::new(3, 3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map_on(&exec, (0..16).collect(), |i: i32| {
                if i == 5 {
                    panic!("sim boom on {i}");
                }
                i
            })
        }));
        let payload = result.expect_err("the panic must propagate");
        assert!(payload_message(payload.as_ref()).contains("sim boom on 5"));
    }

    #[test]
    fn executor_handle_default_runs_and_is_debuggable() {
        let handle = ExecutorHandle::default();
        assert!(format!("{handle:?}").contains("workers"));
        let out = handle.parallel_map((0..10).collect(), |i: i32| i + 1);
        assert_eq!(out, (1..11).collect::<Vec<_>>());
    }

    /// After a worker panics, the abort flag stops the other workers
    /// from draining the rest of the queue.
    #[test]
    fn panic_aborts_remaining_work() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let processed = AtomicUsize::new(0);
        let total = 10_000;
        let result = std::panic::catch_unwind(|| {
            parallel_map_with_threads((0..total).collect(), 2, |i: i32| {
                processed.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    panic!("early boom");
                }
                // Give the panicking worker time to raise the flag
                // before this one re-polls the queue.
                #[expect(
                    clippy::disallowed_methods,
                    reason = "a test widens the race window; no artifact depends on the delay"
                )]
                std::thread::sleep(std::time::Duration::from_millis(1));
                i
            })
        });
        assert!(result.is_err());
        let n = processed.load(Ordering::Relaxed);
        assert!(
            n < total as usize / 2,
            "workers kept draining after the panic: {n}/{total}"
        );
    }
}
