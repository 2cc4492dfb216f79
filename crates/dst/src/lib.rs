//! Deterministic simulation testing (DST) for streamsim's concurrent
//! engine.
//!
//! The experiment engine spreads independent (workload × configuration)
//! cells over worker threads with a shared work queue
//! (`streamsim_core::parallel_map`). Real threads exercise only the
//! interleavings the host scheduler happens to produce, so concurrency
//! bugs — masked panic payloads, ignored abort flags, torn artifacts —
//! hide until an unlucky run in CI. This crate substitutes a cheap,
//! controllable model for the expensive real scheduler:
//!
//! * [`Executor`] — the seam the work-queue protocol is generic over: a
//!   pool of `workers()` that each repeatedly run one protocol *step*
//!   until it reports [`StepOutcome::Done`];
//! * [`ThreadExecutor`] — the production implementation: one scoped OS
//!   thread per worker, behavior identical to the pre-seam engine;
//! * [`SimExecutor`] — the DST implementation: a single-threaded virtual
//!   scheduler that interleaves worker steps in a seeded, xoshiro-driven
//!   order, records the schedule it chose, and replays it exactly from
//!   the same seed;
//! * [`FaultPlan`] / [`Fault`] — a tiny fault DSL (worker panic at item
//!   *k*, slow worker, queue starvation, sink write failure) that a seed
//!   expands into via [`FaultPlan::random`], so *one* integer reproduces
//!   both the interleaving and the injected faults;
//! * [`sweep`] — the test harness: runs a property over a few hundred
//!   derived seeds and prints `STREAMSIM_DST_SEED=<n>` on the first
//!   failure for one-command replay.
//!
//! Everything is hermetic: the only dependency is the in-tree
//! `streamsim-prng`, no wall clock is consulted, and a given seed
//! produces the same schedule on every platform.

#![deny(clippy::print_stdout, clippy::dbg_macro)]
#![warn(missing_docs)]

mod executor;
mod fault;
mod sim;
mod sweep;

pub use executor::{Executor, StepOutcome, ThreadExecutor};
pub use fault::{Fault, FaultContext, FaultPlan, FaultPlanParseError};
pub use sim::{SimExecutor, DRIVE_BOUNDARY};
pub use sweep::{replay_seed, sweep, sweep_with, DEFAULT_SWEEP_SEEDS};
