//! Chrome `trace_event` timeline export (hand-rolled, zero deps).
//!
//! When tracing is active — `STREAMSIM_TRACE_OUT=FILE` in the
//! environment, or [`set_trace_out`] in-process — every span open/close
//! appends a `B`/`E` duration event to an in-memory buffer, and the DST
//! `SimExecutor` appends `X` (complete) slices for its scheduled worker
//! runs. [`flush_trace`] writes the buffer as a `{"traceEvents":[...]}`
//! JSON document that Chrome's `about:tracing` and Perfetto load
//! directly, so a record→prefill→replay→report run opens as a
//! flamegraph.
//!
//! Format notes:
//!
//! * One event per line, flat objects only (no nested `args`), so the
//!   in-tree flat JSON reader can validate an exported file line by
//!   line (`streamsim-report --trace-check` and the CI obs smoke do).
//! * `ts`/`dur` are microseconds since the process's first trace
//!   timestamp ([`trace_epoch_us`]).
//! * Real threads get small `tid`s in first-use order; DST virtual
//!   worker lanes sit at `tid = 1000 + worker`, so seeded schedules are
//!   visually separate from OS threads.
//! * Span events carry their stable span `id` and `parent` id (0 = no
//!   parent), making the parent links explicit even across `tid`s.
//!
//! The gate ([`trace_active`]) is one relaxed load and a predictable
//! branch, mirroring the `STREAMSIM_LOG` level gate; it is checked on
//! span open, never on the counter/histogram hot paths.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
#[expect(
    clippy::disallowed_types,
    reason = "streamsim-obs owns the monotonic clock"
)]
use std::time::Instant;

use crate::json_escape;

/// Sentinel for "not yet initialized from the environment".
const TRACE_UNSET: u8 = u8::MAX;

static TRACE_ACTIVE: AtomicU8 = AtomicU8::new(TRACE_UNSET);
static TRACE_PATH: Mutex<Option<String>> = Mutex::new(None);
static EVENTS: Mutex<Vec<String>> = Mutex::new(Vec::new());
#[expect(clippy::disallowed_types, reason = "the timeline's zero point")]
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

#[cold]
fn trace_active_from_env() -> u8 {
    let path = crate::trace_out_env();
    let active = path.is_some() as u8;
    let mut slot = TRACE_PATH.lock().unwrap_or_else(|e| e.into_inner());
    // Racing initializers agree (the env doesn't change); an intervening
    // `set_trace_out` wins via the compare-exchange.
    if TRACE_ACTIVE
        .compare_exchange(TRACE_UNSET, active, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        *slot = path;
    }
    drop(slot);
    TRACE_ACTIVE.load(Ordering::Relaxed)
}

/// Whether timeline export is active. The span-open gate: one relaxed
/// load and a predictable branch (plus a one-time env read).
#[inline]
pub fn trace_active() -> bool {
    match TRACE_ACTIVE.load(Ordering::Relaxed) {
        TRACE_UNSET => trace_active_from_env() == 1,
        v => v == 1,
    }
}

/// Overrides the trace destination in-process (tests, embedding). Wins
/// over `STREAMSIM_TRACE_OUT`; `None` deactivates tracing. The event
/// buffer is left alone — drain or flush it explicitly.
pub fn set_trace_out(path: Option<&str>) {
    let mut slot = TRACE_PATH.lock().unwrap_or_else(|e| e.into_inner());
    *slot = path.map(str::to_owned);
    TRACE_ACTIVE.store(path.is_some() as u8, Ordering::Relaxed);
}

/// The configured trace output path, if tracing is active.
pub fn trace_out_path() -> Option<String> {
    if !trace_active() {
        return None;
    }
    TRACE_PATH.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Microseconds since the process's first trace timestamp — the shared
/// monotonic `ts` axis of every emitted event.
#[expect(clippy::disallowed_types, reason = "reads the timeline clock")]
pub fn trace_epoch_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as f64 / 1e3
}

/// This thread's timeline lane id (assigned in first-use order, from 1).
fn tid() -> u32 {
    TID.with(|slot| {
        let mut t = slot.get();
        if t == 0 {
            t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            slot.set(t);
        }
        t
    })
}

fn push_event(line: String) {
    EVENTS.lock().unwrap_or_else(|e| e.into_inner()).push(line);
}

/// Appends a `B` (duration begin) event for a span. `parent` is the
/// enclosing span's id, 0 at top level. Callers gate on
/// [`trace_active`]; this function always records.
pub fn emit_span_begin(path: &str, id: u64, parent: u64) {
    let name = path.rsplit('/').next().unwrap_or(path);
    push_event(format!(
        "{{\"name\":{},\"cat\":\"span\",\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
         \"id\":{id},\"parent\":{parent},\"path\":{}}}",
        json_escape(name),
        tid(),
        trace_epoch_us(),
        json_escape(path),
    ));
}

/// Appends the matching `E` (duration end) event for a span.
pub fn emit_span_end(path: &str, id: u64) {
    let name = path.rsplit('/').next().unwrap_or(path);
    push_event(format!(
        "{{\"name\":{},\"cat\":\"span\",\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
         \"id\":{id}}}",
        json_escape(name),
        tid(),
        trace_epoch_us(),
    ));
}

/// Appends an `X` (complete) slice on virtual lane `lane` (rendered at
/// `tid = 1000 + lane`, clear of real threads) — the DST scheduler's
/// per-worker run slices. `extra` adds flat integer fields (e.g.
/// `drive`, `steps`).
pub fn trace_slice(lane: u32, name: &str, ts_us: f64, dur_us: f64, extra: &[(&str, u64)]) {
    let mut fields = String::new();
    for (key, value) in extra {
        fields.push_str(&format!(",{}:{value}", json_escape(key)));
    }
    push_event(format!(
        "{{\"name\":{},\"cat\":\"dst\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\
         \"dur\":{dur_us:.3}{fields}}}",
        json_escape(name),
        1000 + lane,
    ));
}

/// Number of buffered, unflushed trace events.
pub fn pending_trace_events() -> usize {
    EVENTS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Takes every buffered trace event (one JSON object string each),
/// leaving the buffer empty. [`flush_trace`] is the usual consumer;
/// tests and embedders can drain directly.
pub fn drain_trace_events() -> Vec<String> {
    std::mem::take(&mut *EVENTS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Renders `events` as a Chrome `trace_event` JSON document: one event
/// per line inside `{"traceEvents":[...]}`.
pub fn render_trace_document(events: &[String]) -> String {
    let mut doc = String::from("{\"traceEvents\":[\n");
    doc.push_str(&events.join(",\n"));
    if !events.is_empty() {
        doc.push('\n');
    }
    doc.push_str("]}\n");
    doc
}

/// Drains the buffer and writes the trace document to the configured
/// path. `None` when tracing is inactive; otherwise the path and event
/// count, or the write error.
pub fn flush_trace() -> Option<Result<(String, usize), String>> {
    let path = trace_out_path()?;
    let events = drain_trace_events();
    let doc = render_trace_document(&events);
    Some(match std::fs::write(&path, doc) {
        Ok(()) => Ok((path, events.len())),
        Err(e) => Err(format!("cannot write trace to {path}: {e}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_flat_and_balanced() {
        let _guard = crate::test_lock::hold();
        drain_trace_events();
        emit_span_begin("report/record", 7, 3);
        trace_slice(2, "w2", 10.0, 5.5, &[("drive", 0), ("steps", 4)]);
        emit_span_end("report/record", 7);
        let events = drain_trace_events();
        assert_eq!(events.len(), 3);
        assert!(events[0].contains("\"ph\":\"B\""), "{}", events[0]);
        assert!(events[0].contains("\"name\":\"record\""), "{}", events[0]);
        assert!(
            events[0].contains("\"path\":\"report/record\""),
            "{}",
            events[0]
        );
        assert!(events[0].contains("\"parent\":3"), "{}", events[0]);
        assert!(events[1].contains("\"ph\":\"X\""), "{}", events[1]);
        assert!(events[1].contains("\"tid\":1002"), "{}", events[1]);
        assert!(events[1].contains("\"steps\":4"), "{}", events[1]);
        assert!(events[2].contains("\"ph\":\"E\""), "{}", events[2]);
        // Flat: no nested objects, so the document wraps cleanly.
        for e in &events {
            assert!(!e[1..].contains('{'), "{e}");
        }
        let doc = render_trace_document(&events);
        assert!(doc.starts_with("{\"traceEvents\":[\n"));
        assert!(doc.ends_with("\n]}\n"));
    }

    #[test]
    fn set_trace_out_overrides_and_deactivates() {
        let _guard = crate::test_lock::hold();
        set_trace_out(Some("/tmp/streamsim-trace-test.json"));
        assert!(trace_active());
        assert_eq!(
            trace_out_path().as_deref(),
            Some("/tmp/streamsim-trace-test.json")
        );
        set_trace_out(None);
        assert!(!trace_active());
        assert_eq!(trace_out_path(), None);
        assert_eq!(flush_trace(), None);
    }

    #[test]
    fn empty_document_is_well_formed() {
        assert_eq!(render_trace_document(&[]), "{\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn epoch_is_monotonic() {
        let a = trace_epoch_us();
        let b = trace_epoch_us();
        assert!(b >= a);
    }
}
