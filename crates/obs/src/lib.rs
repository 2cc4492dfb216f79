//! Hermetic observability: spans, timelines and run provenance.
//!
//! The simulator records and replays millions of references per second;
//! this crate makes that pipeline visible without slowing it down. Its
//! pieces are all dependency-free and thread-safe:
//!
//! * **Levels** — one global verbosity switch read from `STREAMSIM_LOG`
//!   (`info` or `1` turns it on; anything else, unset included, is
//!   off) and overridable in-process with [`set_level`]. Spans are
//!   no-ops at [`Level::Off`]; the disabled gate is one relaxed load
//!   and a predictable branch.
//! * **Spans** ([`span`]) — RAII wall-clock timers over the monotonic
//!   clock. Spans nest per thread (`report/fig3`), aggregate into a
//!   global registry by path ([`registry_snapshot`]), and carry an
//!   optional item count so a phase reports throughput (Mref/s). Spans
//!   open once per recording, replay pass or phase, never per reference
//!   or miss; what happens inside one simulated cell is counted by that
//!   cell's own statistics.
//! * **Histograms** ([`Hist`]) — fixed-layout log-linear
//!   distributions. Every span records its durations into one, which
//!   `--profile` renders as quantile columns; merging is commutative,
//!   so cross-thread aggregation is deterministic.
//! * **Timeline export** ([`trace_active`], [`flush_trace`]) — with
//!   `STREAMSIM_TRACE_OUT=FILE` (or [`set_trace_out`]), spans emit
//!   Chrome `trace_event` `B`/`E` records and the DST scheduler emits
//!   per-worker `X` slices; the flushed file loads in `about:tracing`
//!   or Perfetto.
//! * **Provenance** ([`RunManifest`], [`fingerprint64`]) — the identity
//!   of a run (PRNG seed, configuration fingerprint, thread count,
//!   span-derived `run_steps`) as a plain value the report layer stamps
//!   into every JSON artifact.
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
//!     span.items(1024);
//! }
//! let phases = obs::registry_snapshot();
//! assert_eq!(phases[0].0, "record");
//! assert_eq!(phases[0].1.items, 1024);
//! # obs::reset();
//! # obs::set_level(obs::Level::Off);
//! ```

#![deny(clippy::print_stdout, clippy::dbg_macro)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hist;
mod ledger;
mod manifest;
mod span;
mod trace_export;

pub use hist::{bucket_index, bucket_low, Hist, NUM_BUCKETS, SUB_BUCKETS};
pub use ledger::{
    check_ledger, metric_floors, Floor, LedgerEntry, LedgerVerdict, BENCH_SCHEMA,
    DRIFT_NOTE_FRACTION, LEDGER_HEADER_KEYS, LEDGER_SCHEMA,
};
pub use manifest::{fingerprint64, RunManifest, StampValue};
pub use span::{registry_hists, registry_snapshot, span, PhaseStat, SpanGuard};
pub use trace_export::{
    drain_trace_events, emit_span_begin, emit_span_end, flush_trace, pending_trace_events,
    render_trace_document, set_trace_out, trace_active, trace_epoch_us, trace_out_path,
    trace_slice,
};

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};

/// Global verbosity, lowest to highest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Everything disabled (the default): spans are no-ops.
    Off = 0,
    /// Spans aggregate into the registry.
    Info = 1,
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
/// way: a second load or a stronger ordering taxes every span call
/// site.
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
        _ => Level::Info,
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

/// Clears the span registry (with its duration histograms). The level
/// and trace destination are left unchanged. Intended for tests and for
/// the report binary between profiling sections.
pub fn reset() {
    span::reset_registry();
}

/// Escapes `s` as a JSON string literal, quotes included.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
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

    /// Unit tests mutate process-global state (level, registry); this
    /// lock serializes them within the test binary.
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
    }

    #[test]
    fn set_level_round_trips() {
        let _guard = test_lock::hold();
        let before = level();
        set_level(Level::Info);
        assert_eq!(level(), Level::Info);
        assert!(enabled(Level::Info));
        set_level(Level::Off);
        assert!(!enabled(Level::Info));
        set_level(before);
    }

    #[test]
    fn escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }
}
