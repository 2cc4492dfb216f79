//! Process-wide event counters.
//!
//! One fixed [`Counter`] per internal event class the experiments reason
//! about — reference generation, cache probes, trace-store traffic,
//! replay volume, stream-buffer allocations, filter decisions. The
//! global set is a flat array of `AtomicU64`s: counting is a single
//! relaxed `fetch_add` when enabled and one relaxed load plus a
//! predictable branch when disabled. Callers charge a counter once per
//! chunk, pass, recording or simulated cell, copying the exact
//! statistic that cell already keeps, never once per reference or miss.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Level;

/// Every counted event class, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// References emitted by workload chunk generation.
    RefsGenerated,
    /// Primary-cache probes (split L1, both sides).
    L1Probes,
    /// Secondary-cache probes during replay.
    L2Probes,
    /// Trace-store requests served from the store.
    TraceStoreHits,
    /// Trace-store requests that had to simulate an L1.
    TraceStoreMisses,
    /// Bulk `TraceStore::prefill_on` calls.
    TraceStorePrefills,
    /// Miss events walked by the replay engine (per pass, not per
    /// observer; multiply by the observer count for deliveries).
    ReplayMissEvents,
    /// Stream-buffer (re)allocations.
    StreamAllocations,
    /// Unit-stride filter lookups that allocated (two consecutive-block
    /// misses).
    UnitFilterAccepts,
    /// Unit-stride filter lookups that declined (isolated reference).
    UnitFilterRejects,
    /// Replay cells (one observer configuration over one trace) served
    /// from the trace store's replay memo.
    ReplayMemoHits,
    /// Replay cells the trace store had to simulate.
    ReplayMemoMisses,
}

/// Number of distinct counters.
pub const NUM_COUNTERS: usize = Counter::ReplayMemoMisses as usize + 1;

/// All counters, in declaration order (for snapshots).
const ALL: [Counter; NUM_COUNTERS] = [
    Counter::RefsGenerated,
    Counter::L1Probes,
    Counter::L2Probes,
    Counter::TraceStoreHits,
    Counter::TraceStoreMisses,
    Counter::TraceStorePrefills,
    Counter::ReplayMissEvents,
    Counter::StreamAllocations,
    Counter::UnitFilterAccepts,
    Counter::UnitFilterRejects,
    Counter::ReplayMemoHits,
    Counter::ReplayMemoMisses,
];

impl Counter {
    /// The stable snake_case name used in snapshots and JSONL events.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RefsGenerated => "refs_generated",
            Counter::L1Probes => "l1_probes",
            Counter::L2Probes => "l2_probes",
            Counter::TraceStoreHits => "trace_store_hits",
            Counter::TraceStoreMisses => "trace_store_misses",
            Counter::TraceStorePrefills => "trace_store_prefills",
            Counter::ReplayMissEvents => "replay_miss_events",
            Counter::StreamAllocations => "stream_allocations",
            Counter::UnitFilterAccepts => "unit_filter_accepts",
            Counter::UnitFilterRejects => "unit_filter_rejects",
            Counter::ReplayMemoHits => "replay_memo_hits",
            Counter::ReplayMemoMisses => "replay_memo_misses",
        }
    }
}

/// A fixed array of atomic counters (the global set is one of these).
#[derive(Debug)]
struct CounterSet {
    counts: [AtomicU64; NUM_COUNTERS],
}

impl CounterSet {
    /// A zeroed set.
    const fn new() -> Self {
        // `AtomicU64` is not `Copy`; the inline-const repeat operand
        // makes the repeat expression legal.
        CounterSet {
            counts: [const { AtomicU64::new(0) }; NUM_COUNTERS],
        }
    }

    /// Adds `n` to `counter` (relaxed; totals are exact, ordering
    /// between counters is not promised).
    #[inline(always)]
    fn add(&self, counter: Counter, n: u64) {
        self.counts[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `counter`.
    fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize].load(Ordering::Relaxed)
    }

    /// Every `(name, value)` pair, in declaration order.
    fn snapshot(&self) -> Vec<(&'static str, u64)> {
        ALL.iter().map(|&c| (c.name(), self.get(c))).collect()
    }

    /// Zeroes every counter.
    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }
}

static GLOBAL: CounterSet = CounterSet::new();

/// Adds `n` to the global `counter` when the level is at least
/// [`Level::Info`]; a no-op (one load, one branch) otherwise.
#[inline(always)]
pub fn count(counter: Counter, n: u64) {
    if crate::enabled(Level::Info) {
        GLOBAL.add(counter, n);
    }
}

/// Current global value of `counter`.
pub fn counter(counter: Counter) -> u64 {
    GLOBAL.get(counter)
}

/// Every global `(name, value)` pair, in declaration order.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    GLOBAL.snapshot()
}

pub(crate) fn reset_counters() {
    GLOBAL.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let names: Vec<&str> = ALL.iter().map(|c| c.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
        for name in names {
            assert!(name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    #[test]
    fn private_set_counts_exactly() {
        let set = CounterSet::new();
        set.add(Counter::L1Probes, 3);
        set.add(Counter::L1Probes, 4);
        assert_eq!(set.get(Counter::L1Probes), 7);
        assert_eq!(set.get(Counter::L2Probes), 0);
        let snap = set.snapshot();
        assert_eq!(snap.len(), NUM_COUNTERS);
        assert!(snap.contains(&("l1_probes", 7)));
        set.reset();
        assert_eq!(set.get(Counter::L1Probes), 0);
    }

    #[test]
    fn global_count_respects_the_level() {
        let _guard = crate::test_lock::hold();
        crate::set_level(crate::Level::Off);
        crate::reset();
        count(Counter::RefsGenerated, 10);
        assert_eq!(counter(Counter::RefsGenerated), 0, "disabled: no-op");
        crate::set_level(crate::Level::Info);
        count(Counter::RefsGenerated, 10);
        assert_eq!(counter(Counter::RefsGenerated), 10);
        crate::set_level(crate::Level::Off);
        crate::reset();
    }
}
