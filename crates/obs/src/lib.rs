//! Hermetic observability: spans, counters, events and run provenance.
//!
//! The simulator records and replays millions of references per second;
//! this crate makes that pipeline visible without slowing it down. It
//! provides four small pieces, all dependency-free and thread-safe:
//!
//! * **Levels** — one global verbosity switch read from `STREAMSIM_LOG`
//!   (`off`, `info`, `debug`) and overridable in-process with
//!   [`set_level`]. Everything below is a no-op at [`Level::Off`].
//! * **Counters** ([`Counter`], [`count`]) — process-wide event
//!   totals. Each is charged once per chunk, replay pass, recording or
//!   simulated cell, from the exact statistic that unit already keeps,
//!   so enabling them adds no work per reference or per miss. The
//!   enabled path is a single relaxed `fetch_add`; the disabled path is
//!   one relaxed load and a predictable branch.
//! * **Spans** ([`span`]) — RAII wall-clock timers over the monotonic
//!   clock. Spans nest per thread (`report/fig3`), aggregate into a
//!   global registry by path ([`registry_snapshot`]), and carry an
//!   optional item count so a phase reports throughput (Mref/s).
//! * **Events** ([`drain_events`]) — at [`Level::Debug`], span closings
//!   and counter flushes append structured JSONL records to an in-memory
//!   log the caller drains next to its other artifact output.
//! * **Provenance** ([`RunManifest`], [`fingerprint64`]) — the identity
//!   of a run (PRNG seed, configuration fingerprint, thread count,
//!   span-derived `run_steps`) as a plain value the report layer stamps
//!   into every JSON artifact.
//!
//! Obs v2 adds three more, same contract (hermetic, thread-safe, free
//! when disabled):
//!
//! * **Histograms** ([`Hist`]) — fixed-layout log-linear
//!   distributions. Every span records its durations into one, which
//!   `--profile` renders as quantile columns; merging is commutative,
//!   so cross-thread aggregation is deterministic.
//! * **Timeline export** ([`trace_active`], [`flush_trace`]) — with
//!   `STREAMSIM_TRACE_OUT=FILE` (or [`set_trace_out`]), spans emit
//!   Chrome `trace_event` `B`/`E` records and the DST scheduler emits
//!   per-worker `X` slices; the flushed file loads in `about:tracing`
//!   or Perfetto.
//! * **The perf ledger** ([`LedgerEntry`], [`check_ledger`]) — the
//!   shared `BENCH_*`/`PERF_LEDGER.jsonl` schema and per-metric floors
//!   behind `streamsim-report --ledger` / `--ledger-check`.
//!
//! # Example
//!
//! ```
//! use streamsim_obs as obs;
//!
//! obs::set_level(obs::Level::Info);
//! {
//!     let mut span = obs::span("record");
//!     obs::count(obs::Counter::RefsGenerated, 1024);
//!     span.items(1024);
//! }
//! let phases = obs::registry_snapshot();
//! assert_eq!(phases[0].0, "record");
//! assert_eq!(phases[0].1.items, 1024);
//! assert_eq!(obs::counter(obs::Counter::RefsGenerated), 1024);
//! # obs::reset();
//! # obs::set_level(obs::Level::Off);
//! ```

#![deny(clippy::print_stdout, clippy::dbg_macro)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod counters;
mod events;
mod hist;
mod ledger;
mod manifest;
mod span;
mod trace_export;

pub use counters::{count, counter, counter_snapshot, Counter, NUM_COUNTERS};
pub use events::{
    drain_events, emit_counter_events, emit_event, json_escape, pending_events, EventValue,
};
pub use hist::{bucket_index, bucket_low, Hist, NUM_BUCKETS, SUB_BUCKETS};
pub use ledger::{
    check_ledger, metric_floors, Floor, LedgerEntry, LedgerVerdict, BENCH_SCHEMA,
    DRIFT_NOTE_FRACTION, LEDGER_HEADER_KEYS, LEDGER_SCHEMA,
};
pub use manifest::{fingerprint64, RunManifest, StampValue};
pub use span::{registry_hists, registry_snapshot, reset_registry, span, PhaseStat, SpanGuard};
pub use trace_export::{
    drain_trace_events, emit_span_begin, emit_span_end, flush_trace, pending_trace_events,
    render_trace_document, set_trace_out, trace_active, trace_epoch_us, trace_out_path,
    trace_slice,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Global verbosity, lowest to highest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Everything disabled (the default): counters stay zero, spans are
    /// no-ops, no events are recorded.
    Off = 0,
    /// Counters count and spans aggregate into the registry.
    Info = 1,
    /// Additionally, span closings and counter flushes append JSONL
    /// records to the event log.
    Debug = 2,
}

/// Sentinel for "not yet initialized from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

#[cold]
#[expect(
    clippy::disallowed_methods,
    reason = "STREAMSIM_LOG is the sanctioned observability knob"
)]
fn level_from_env() -> u8 {
    let parsed = match std::env::var("STREAMSIM_LOG").as_deref() {
        Ok("info") | Ok("1") => Level::Info,
        Ok("debug") | Ok("2") | Ok("trace") => Level::Debug,
        _ => Level::Off,
    } as u8;
    // Racing initializers agree (the env doesn't change), and an
    // intervening `set_level` wins via the compare-exchange.
    let _ = LEVEL.compare_exchange(LEVEL_UNSET, parsed, Ordering::Relaxed, Ordering::Relaxed);
    LEVEL.load(Ordering::Relaxed)
}

/// The disabled gate every hot path pays: exactly one `Relaxed` load of
/// `LEVEL` and a predictable branch, falling through to the cold
/// environment read only before the level is first set. Keep it that
/// way: a second load or a stronger ordering taxes every counter and
/// span call site.
#[inline(always)]
fn raw_level() -> u8 {
    let v = LEVEL.load(Ordering::Relaxed);
    if v == LEVEL_UNSET {
        level_from_env()
    } else {
        v
    }
}

/// The current global level (initialized from `STREAMSIM_LOG` on first
/// use).
#[inline]
pub fn level() -> Level {
    match raw_level() {
        0 => Level::Off,
        1 => Level::Info,
        _ => Level::Debug,
    }
}

/// Overrides the global level (e.g. `streamsim-report --profile` raises
/// `Off` to `Info` so the phase registry fills).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether observability at `at` is active. The hot-path gate: a single
/// relaxed load and a predictable branch.
#[inline(always)]
pub fn enabled(at: Level) -> bool {
    raw_level() >= at as u8
}

/// Zeroes every global counter, the span registry (with its duration
/// histograms) and the event log. The level and trace destination are
/// left unchanged. Intended for tests and for the report binary between
/// profiling sections.
pub fn reset() {
    counters::reset_counters();
    span::reset_registry();
    events::clear_events();
}

/// The `STREAMSIM_TRACE_OUT` destination, if set and non-empty. The
/// only environment read of the timeline exporter lives here, beside
/// the crate's other sanctioned read (`STREAMSIM_LOG`).
#[cold]
#[expect(
    clippy::disallowed_methods,
    reason = "STREAMSIM_TRACE_OUT is the sanctioned timeline-export knob"
)]
pub(crate) fn trace_out_env() -> Option<String> {
    std::env::var("STREAMSIM_TRACE_OUT")
        .ok()
        .filter(|p| !p.trim().is_empty())
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Unit tests mutate process-global state (level, counters,
    /// registry); this lock serializes them within the test binary.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order() {
        assert!(Level::Off < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn set_level_round_trips() {
        let _guard = test_lock::hold();
        let before = level();
        set_level(Level::Debug);
        assert_eq!(level(), Level::Debug);
        assert!(enabled(Level::Info));
        set_level(Level::Off);
        assert!(!enabled(Level::Info));
        set_level(before);
    }
}
