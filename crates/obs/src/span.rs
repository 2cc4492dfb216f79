//! Hierarchical wall-clock spans and the per-phase registry.
//!
//! A span times a region of code with the monotonic clock. Spans nest
//! per thread — a span opened while another is live on the same thread
//! records under the joined path (`report/fig3`) — and close on drop,
//! adding their elapsed time, call count and item count to a global
//! registry keyed by path. Worker threads start fresh stacks, so the
//! engine phases (`record`, `replay`) aggregate under their own names
//! no matter which driver triggered them.
//!
//! Items give phases a throughput: a span that processed 2 M references
//! in 1 s reports 2 Mitem/s via [`PhaseStat::mitems_per_sec`].
//!
//! Since obs v2, every span also has a stable **trace id** (a global
//! monotone counter) and knows its parent's id, each registry entry
//! keeps a log-linear [`Hist`] of per-call durations (the source of the
//! `--profile` p50/p90/p99/max columns), and when timeline export is
//! active ([`crate::trace_active`]) span opens/closes emit Chrome
//! `trace_event` `B`/`E` records — even at [`Level::Off`], so a trace
//! can be captured without paying for the registry.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
#[expect(
    clippy::disallowed_types,
    reason = "streamsim-obs owns the monotonic clock"
)]
use std::time::Instant;

use crate::hist::Hist;
use crate::{trace_export, Level};

/// Aggregated timing of one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans closed under this path.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub nanos: u128,
    /// Total items processed (0 when the spans never declared any).
    pub items: u64,
}

impl PhaseStat {
    /// Total wall clock in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Throughput in millions of items per second, if items were
    /// declared and time elapsed.
    pub fn mitems_per_sec(&self) -> Option<f64> {
        if self.items == 0 || self.nanos == 0 {
            None
        } else {
            Some(self.items as f64 * 1e3 / self.nanos as f64)
        }
    }
}

/// One registry slot: the aggregate stat plus the per-call duration
/// histogram.
#[derive(Clone, Debug, Default)]
struct PhaseEntry {
    stat: PhaseStat,
    hist: Hist,
}

static REGISTRY: Mutex<BTreeMap<String, PhaseEntry>> = Mutex::new(BTreeMap::new());

/// Source of stable span trace ids; 0 is reserved for "no parent".
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// One live span on a thread's stack: its full path and trace id.
struct StackEntry {
    path: String,
    id: u64,
}

thread_local! {
    /// Stack of spans live on this thread.
    static STACK: RefCell<Vec<StackEntry>> = const { RefCell::new(Vec::new()) };
}

/// An open span; closing (dropping) it records the elapsed wall clock
/// under its path. Obtained from [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    path: String,
    id: u64,
    #[expect(clippy::disallowed_types, reason = "the span's open time")]
    start: Instant,
    items: u64,
    /// Whether to record into the registry on close (level >= Info at
    /// open). A trace-only span (level Off, tracing active) still emits
    /// timeline events but leaves the registry alone.
    record: bool,
}

impl SpanGuard {
    /// Declares `n` more items processed inside this span (additive).
    /// No-op on a disabled span.
    pub fn items(&mut self, n: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.items += n;
        }
    }

    /// The full path this span records under, or `None` when disabled.
    pub fn path(&self) -> Option<&str> {
        self.inner.as_ref().map(|i| i.path.as_str())
    }

    /// The span's stable trace id, or `None` when disabled. Ids are
    /// unique per process and appear in exported timeline events.
    pub fn trace_id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let elapsed = inner.start.elapsed().as_nanos();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Lexical RAII drops in reverse creation order; tolerate an
            // out-of-order drop by removing the matching entry.
            if let Some(pos) = stack.iter().rposition(|e| e.id == inner.id) {
                stack.remove(pos);
            }
        });
        if trace_export::trace_active() {
            trace_export::emit_span_end(&inner.path, inner.id);
        }
        if !inner.record {
            return;
        }
        let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        let entry = registry.entry(inner.path).or_default();
        entry.stat.calls += 1;
        entry.stat.nanos += elapsed;
        entry.stat.items += inner.items;
        entry
            .hist
            .record(u64::try_from(elapsed).unwrap_or(u64::MAX));
    }
}

/// Opens a span named `name`, nested under the innermost span already
/// live on this thread. Disabled (a free no-op) below [`Level::Info`]
/// unless timeline export is active, in which case the span still emits
/// its `B`/`E` trace events.
#[expect(clippy::disallowed_types, reason = "stamps the span's open time")]
pub fn span(name: &str) -> SpanGuard {
    let record = crate::enabled(Level::Info);
    let tracing = trace_export::trace_active();
    if !record && !tracing {
        return SpanGuard { inner: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (path, parent) = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let (path, parent) = match stack.last() {
            Some(top) => (format!("{}/{name}", top.path), top.id),
            None => (name.to_owned(), 0),
        };
        stack.push(StackEntry {
            path: path.clone(),
            id,
        });
        (path, parent)
    });
    if tracing {
        trace_export::emit_span_begin(&path, id, parent);
    }
    SpanGuard {
        inner: Some(SpanInner {
            path,
            id,
            start: Instant::now(),
            items: 0,
            record,
        }),
    }
}

/// Every `(path, stat)` pair recorded so far, sorted by path.
pub fn registry_snapshot() -> Vec<(String, PhaseStat)> {
    REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), v.stat))
        .collect()
}

/// Every `(path, stat, duration histogram)` triple recorded so far,
/// sorted by path — the `--profile` quantile columns' source.
pub fn registry_hists() -> Vec<(String, PhaseStat, Hist)> {
    REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(k, v)| (k.clone(), v.stat, v.hist.clone()))
        .collect()
}

/// Clears the span registry.
pub(crate) fn reset_registry() {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_lock::hold();
        crate::set_level(Level::Off);
        crate::reset();
        {
            let mut s = span("ghost");
            s.items(10);
            assert_eq!(s.path(), None);
            assert_eq!(s.trace_id(), None);
        }
        assert!(registry_snapshot().is_empty());
        crate::set_level(Level::Off);
    }

    #[test]
    fn nested_spans_join_paths_and_aggregate() {
        let _guard = crate::test_lock::hold();
        crate::set_level(Level::Info);
        crate::reset();
        {
            let _outer = span("report");
            {
                let mut inner = span("fig3");
                inner.items(5);
                assert_eq!(inner.path(), Some("report/fig3"));
            }
            {
                let mut inner = span("fig3");
                inner.items(7);
            }
        }
        let snap = registry_snapshot();
        let paths: Vec<&str> = snap.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["report", "report/fig3"]);
        let fig3 = &snap[1].1;
        assert_eq!(fig3.calls, 2);
        assert_eq!(fig3.items, 12);
        // The per-path duration histogram tracks calls one-to-one.
        let hists = registry_hists();
        assert_eq!(hists[1].0, "report/fig3");
        assert_eq!(hists[1].2.count(), 2);
        assert_eq!(hists[0].2.count(), 1);
        crate::set_level(Level::Off);
        crate::reset();
    }

    #[test]
    fn sibling_after_close_is_top_level_again() {
        let _guard = crate::test_lock::hold();
        crate::set_level(Level::Info);
        crate::reset();
        {
            let _a = span("a");
        }
        {
            let b = span("b");
            assert_eq!(b.path(), Some("b"), "stack popped by a's close");
        }
        crate::set_level(Level::Off);
        crate::reset();
    }

    #[test]
    fn trace_ids_are_unique_and_parents_link() {
        let _guard = crate::test_lock::hold();
        crate::set_level(Level::Info);
        crate::reset();
        let outer = span("outer_id_test");
        let inner = span("inner_id_test");
        let (a, b) = (outer.trace_id().unwrap(), inner.trace_id().unwrap());
        assert!(b > a, "ids are allocated monotonically");
        drop(inner);
        drop(outer);
        crate::set_level(Level::Off);
        crate::reset();
    }

    #[test]
    fn trace_only_spans_emit_events_but_skip_registry() {
        let _guard = crate::test_lock::hold();
        crate::set_level(Level::Off);
        crate::reset();
        trace_export::set_trace_out(Some("/dev/null"));
        trace_export::drain_trace_events();
        {
            let outer = span("trace_only_outer");
            assert!(outer.trace_id().is_some());
            let _inner = span("trace_only_inner");
        }
        let events = trace_export::drain_trace_events();
        trace_export::set_trace_out(None);
        assert!(registry_snapshot().is_empty(), "registry untouched at Off");
        assert_eq!(events.len(), 4, "{events:?}");
        assert!(events[0].contains("\"ph\":\"B\""));
        assert!(events[1].contains("\"path\":\"trace_only_outer/trace_only_inner\""));
        // The inner B event names its parent's id.
        let parent_id: u64 = events[0]
            .split("\"id\":")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(events[1].contains(&format!("\"parent\":{parent_id}")));
        crate::set_level(Level::Off);
    }

    #[test]
    fn phase_stat_rates() {
        let stat = PhaseStat {
            calls: 1,
            nanos: 1_000_000_000,
            items: 2_000_000,
        };
        assert!((stat.wall_ms() - 1000.0).abs() < 1e-9);
        assert!((stat.mitems_per_sec().unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(PhaseStat::default().mitems_per_sec(), None);
    }
}
