//! The executor seam: who runs the work-queue protocol's steps.
//!
//! The protocol itself (shared queue, abort flag, parked panic payload)
//! lives in `streamsim_core::runner`; it is expressed as a *step
//! function* so that scheduling is fully separated from the work. A
//! step advances one worker's state machine by exactly one phase —
//! publish a finished result, run the closure on a claimed item, or
//! poll the queue — and reports whether that worker has more to do.
//! An [`Executor`] decides which worker steps next: real threads let
//! the OS decide, the DST scheduler ([`crate::SimExecutor`]) decides
//! from a seed.

use std::panic::resume_unwind;

/// What one protocol step of one worker reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The worker made progress and must be stepped again.
    Progress,
    /// The worker is finished (queue drained or run aborted) and must
    /// not be stepped again.
    Done,
}

/// A pool of simulated or real workers that drives a step function to
/// completion.
///
/// The contract, which both implementations and every caller rely on:
///
/// * `drive` calls `step(w)` only for `w < workers`, and never again
///   for a worker once its step returned [`StepOutcome::Done`];
/// * `drive` returns only after every worker has reported `Done`;
/// * `step` may be called from multiple threads concurrently, but never
///   concurrently *for the same worker index*.
pub trait Executor {
    /// How many workers this executor simulates or spawns.
    fn workers(&self) -> usize;

    /// Runs every worker's step loop to completion.
    fn drive(&self, workers: usize, step: &(dyn Fn(usize) -> StepOutcome + Sync));
}

/// The production executor: one scoped OS thread per worker, each
/// looping its own step function until it reports `Done`.
///
/// Scheduling between workers is whatever the host OS does — exactly
/// the behavior the engine had before the executor seam existed.
#[derive(Debug, Clone, Copy)]
pub struct ThreadExecutor {
    threads: usize,
}

impl ThreadExecutor {
    /// An executor with an explicit thread count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        ThreadExecutor {
            threads: threads.max(1),
        }
    }

    /// An executor sized to the machine (`available_parallelism`).
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        ThreadExecutor::new(threads)
    }
}

impl Executor for ThreadExecutor {
    fn workers(&self) -> usize {
        self.threads
    }

    fn drive(&self, workers: usize, step: &(dyn Fn(usize) -> StepOutcome + Sync)) {
        if workers == 0 {
            return;
        }
        if workers == 1 {
            // No concurrency to schedule; run the lone worker inline.
            while step(0) == StepOutcome::Progress {}
            return;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the Executor seam's production implementation: every other fan-out goes through it"
        )]
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| scope.spawn(move || while step(w) == StepOutcome::Progress {}))
                .collect();
            for handle in handles {
                // Panics in the mapped closure are caught inside the
                // step function; this backstop covers a panic outside
                // it (e.g. allocation failure in the step machinery).
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn thread_executor_steps_every_worker_to_done() {
        let exec = ThreadExecutor::new(3);
        assert_eq!(exec.workers(), 3);
        let budgets = [
            AtomicUsize::new(2),
            AtomicUsize::new(5),
            AtomicUsize::new(1),
        ];
        let steps = AtomicUsize::new(0);
        exec.drive(3, &|w| {
            steps.fetch_add(1, Ordering::Relaxed);
            match budgets[w]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            {
                Ok(_) => StepOutcome::Progress,
                Err(_) => StepOutcome::Done,
            }
        });
        // Each worker is stepped budget+... times: budget Progress steps
        // then the step that observes 0 and reports Done.
        assert_eq!(steps.load(Ordering::Relaxed), 2 + 5 + 1 + 3);
        for b in &budgets {
            assert_eq!(b.load(Ordering::Relaxed), 0, "worker stepped past Done");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ThreadExecutor::new(0).workers(), 1);
    }

    #[test]
    fn single_worker_runs_inline() {
        let exec = ThreadExecutor::new(1);
        let count = AtomicUsize::new(0);
        exec.drive(1, &|_| {
            if count.fetch_add(1, Ordering::Relaxed) < 4 {
                StepOutcome::Progress
            } else {
                StepOutcome::Done
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }
}
