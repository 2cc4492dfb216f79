//! A shared, memoizing store of recorded miss traces and their replays.
//!
//! The paper's methodology (§4) records the primary-cache miss stream
//! once per benchmark and replays it against every configuration of
//! interest. The experiment drivers, however, are independent programs:
//! left to themselves each re-records the same (workload, L1) traces.
//! [`TraceStore`] is the shared cache that restores the paper's
//! record-once discipline across drivers — every [`MissTrace`] is keyed
//! by the workload's [`fingerprint`](streamsim_workloads::Workload::fingerprint)
//! plus the full [`RecordOptions`] (L1 geometry, replacement policy and
//! time sampling), so a full sweep simulates each L1 exactly once no
//! matter how many drivers ask for it.
//!
//! It also completes the replay-many half: the results of replaying a
//! trace against one observer configuration — a stream system or a
//! secondary cache — are memoized per (trace key, configuration), so a
//! cell that several drivers share (Table 2's ten streams reappear in
//! Table 3, Figures 3 and 5, the baselines, the ablations and the
//! scorecard) is simulated once per store. Secondary-cache cells come in
//! two event orders, memoized apart: trace order
//! ([`TraceStore::l2_stats`], which Table 4, the topology and the
//! ablations read) and hierarchy order
//! ([`TraceStore::hierarchy_l2_stats`], each dirty L1 victim before the
//! fetch that evicted it, which `traffic` and `cpi` read). The replay
//! engine itself ([`replay_streams`], [`replay_l2`],
//! [`replay_l2_hierarchy`]) stays uncached; only the store's front
//! doors consult the memo.
//!
//! The store is a cheap clone-able handle (`Arc` inside); experiment
//! workers on different threads share one underlying map. Recording
//! and replay happen outside the locks, so a miss never serialises the
//! other workers behind a multi-second simulation.
//!
//! The store counts its own traffic, and these counts are a run's only
//! record of it: [`TraceStore::hits`] and [`TraceStore::misses`] for
//! recordings served and simulated, [`TraceStore::replay_hits`] and
//! [`TraceStore::replay_misses`] for replay cells. `streamsim-report`
//! prints the replay pair at `STREAMSIM_LOG=info`.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use streamsim_cache::{CacheConfig, CacheConfigError, CacheStats, SetSampling};
use streamsim_streams::{StreamConfig, StreamStats};
use streamsim_workloads::Workload;

use crate::{
    record_miss_trace, replay_l2, replay_l2_hierarchy, replay_streams, MissTrace, RecordOptions,
};

/// Replay results of one observer kind: trace key, then the observer
/// configuration's `Debug` form, to the statistics it produced.
type ReplayMemo<V> = Mutex<BTreeMap<String, BTreeMap<String, V>>>;

/// A memoizing cache of [`MissTrace`]s and of their replay results,
/// shared across experiment drivers.
///
/// # Example
///
/// ```
/// use streamsim_core::{RecordOptions, TraceStore};
/// use streamsim_workloads::generators::SequentialSweep;
///
/// let store = TraceStore::new();
/// let w = SequentialSweep::default();
/// let first = store.record(&w, &RecordOptions::default())?;
/// let second = store.record(&w, &RecordOptions::default())?;
/// // The second request is served from the store: same allocation.
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// assert_eq!(store.misses(), 1);
/// assert_eq!(store.hits(), 1);
/// # Ok::<(), streamsim_cache::CacheConfigError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceStore {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    traces: Mutex<BTreeMap<String, Arc<MissTrace>>>,
    /// Locality profiles, keyed like `traces`: one extra recording-time
    /// pass per (workload, L1) cell serves every model query after it.
    profiles: Mutex<BTreeMap<String, Arc<streamsim_model::LocalityProfile>>>,
    /// Stream-system replay results per (trace, [`StreamConfig`]).
    streams: ReplayMemo<StreamStats>,
    /// Secondary-cache replay results per (trace, L2 geometry and set
    /// sampling), in trace order.
    l2: ReplayMemo<CacheStats>,
    /// The same in hierarchy order: a map of its own, so the event
    /// order is part of the key.
    hierarchy_l2: ReplayMemo<CacheStats>,
    hits: AtomicU64,
    misses: AtomicU64,
    replay_hits: AtomicU64,
    replay_misses: AtomicU64,
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// The memoisation key for a (workload, record options) cell.
    fn key(workload: &dyn Workload, options: &RecordOptions) -> String {
        format!("{}|{:?}", workload.fingerprint(), options)
    }

    /// Records `workload`'s miss trace under `options`, or returns the
    /// stored trace if an identical recording already exists.
    ///
    /// Recording runs outside the store's lock; if two threads race on
    /// the same cold key both simulate and one result wins, which is
    /// harmless because recording is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if either cache configuration in
    /// `options` is invalid.
    pub fn record(
        &self,
        workload: &dyn Workload,
        options: &RecordOptions,
    ) -> Result<Arc<MissTrace>, CacheConfigError> {
        let key = Self::key(workload, options);
        if let Some(trace) = self.inner.traces.lock().expect("store lock").get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(trace));
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let trace = Arc::new(record_miss_trace(workload, options)?);
        let mut map = self.inner.traces.lock().expect("store lock");
        Ok(Arc::clone(map.entry(key).or_insert(trace)))
    }

    /// Records every missing `(workload, options)` cell in parallel on
    /// `exec` and returns the traces in workload order.
    ///
    /// This is the bulk front door drivers use before running: cells
    /// already in the store are returned as-is (and counted as hits),
    /// cold cells are simulated concurrently on the executor's workers
    /// instead of one at a time on first use. Because recording is
    /// deterministic, the result is byte-identical to recording each
    /// cell serially.
    ///
    /// Drivers pass their run's executor; DST tests hand in a seeded
    /// [`streamsim_dst::SimExecutor`] so the concurrent recording of
    /// cold cells — including a panic injected mid-prefill — replays
    /// under one reproducible interleaving.
    ///
    /// # Errors
    ///
    /// Returns the first [`CacheConfigError`] (in workload order) if
    /// `options` holds an invalid cache configuration.
    pub fn prefill_on(
        &self,
        workloads: &[Box<dyn Workload>],
        options: &RecordOptions,
        exec: &dyn streamsim_dst::Executor,
    ) -> Result<Vec<Arc<MissTrace>>, CacheConfigError> {
        let refs: Vec<&dyn Workload> = workloads.iter().map(Box::as_ref).collect();
        let _span = streamsim_obs::span("prefill");
        crate::parallel_map_on(exec, refs, |w: &dyn Workload| self.record(w, options))
            .into_iter()
            .collect()
    }

    /// The locality profile of `workload`'s miss trace under `options`,
    /// computed (and memoized) on first request.
    ///
    /// The trace itself comes from [`TraceStore::record`], so the first
    /// profile request for a cold cell records and then profiles; every
    /// later request — any driver or pre-screened sweep holding this
    /// store — returns the stored `Arc` without touching the trace.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if either cache configuration in
    /// `options` is invalid.
    pub fn profile(
        &self,
        workload: &dyn Workload,
        options: &RecordOptions,
    ) -> Result<Arc<streamsim_model::LocalityProfile>, CacheConfigError> {
        let key = Self::key(workload, options);
        if let Some(profile) = self.inner.profiles.lock().expect("store lock").get(&key) {
            return Ok(Arc::clone(profile));
        }
        // Profiling runs outside the lock (it walks the whole trace);
        // racing threads both profile and one result wins, harmlessly,
        // because profiling is deterministic.
        let trace = self.record(workload, options)?;
        let profile = Arc::new(crate::locality::profile_trace(&trace));
        let mut map = self.inner.profiles.lock().expect("store lock");
        Ok(Arc::clone(map.entry(key).or_insert(profile)))
    }

    /// Profiles every `(workload, options)` cell in parallel on an
    /// explicit executor, returning profiles in workload order.
    ///
    /// Like [`TraceStore::prefill_on`], this is a DST seam: the
    /// pre-screened sweep goes through it with the run's executor, and
    /// the determinism property tests swap in a seeded
    /// [`streamsim_dst::SimExecutor`] to pin that profiles are
    /// byte-identical under any interleaving.
    ///
    /// # Errors
    ///
    /// Returns the first [`CacheConfigError`] (in workload order) if
    /// `options` holds an invalid cache configuration.
    pub fn profiles_on(
        &self,
        workloads: &[Box<dyn Workload>],
        options: &RecordOptions,
        exec: &dyn streamsim_dst::Executor,
    ) -> Result<Vec<Arc<streamsim_model::LocalityProfile>>, CacheConfigError> {
        let refs: Vec<&dyn Workload> = workloads.iter().map(Box::as_ref).collect();
        let _span = streamsim_obs::span("profile_pass");
        crate::parallel_map_on(exec, refs, |w: &dyn Workload| self.profile(w, options))
            .into_iter()
            .collect()
    }

    /// The statistics of replaying `workload`'s miss trace (recorded
    /// under `options`) against each stream configuration in `configs`,
    /// in request order.
    ///
    /// Each (trace, configuration) cell is simulated at most once per
    /// store: cells already memoized are served, and the rest replay as
    /// one fused family through [`replay_streams`], which also records
    /// the trace if the store lacks it. A request that is served in full
    /// touches neither the trace nor the replay engine. The memo key is
    /// the trace key plus the configuration's `Debug` form, so every
    /// field — count, depth, allocation policy and its parameters, match
    /// policy — tells two cells apart.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if either cache configuration in
    /// `options` is invalid.
    pub fn stream_stats(
        &self,
        workload: &dyn Workload,
        options: &RecordOptions,
        configs: &[StreamConfig],
    ) -> Result<Vec<StreamStats>, CacheConfigError> {
        self.memoized(
            &self.inner.streams,
            workload,
            options,
            configs,
            |trace, family| Ok(replay_streams(trace, family)),
        )
    }

    /// The statistics of replaying `workload`'s miss trace (recorded
    /// under `options`) against each secondary-cache cell — a geometry
    /// and an optional set sampling — in request order.
    ///
    /// Memoized exactly like [`TraceStore::stream_stats`]: cold cells
    /// replay together through [`replay_l2`], and the key covers the
    /// cache geometry, the replacement policy and the sampling.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if a cache configuration in
    /// `options`, or a cold cell's configuration or sampling, is
    /// invalid.
    pub fn l2_stats(
        &self,
        workload: &dyn Workload,
        options: &RecordOptions,
        cells: &[(CacheConfig, Option<SetSampling>)],
    ) -> Result<Vec<CacheStats>, CacheConfigError> {
        self.memoized(&self.inner.l2, workload, options, cells, replay_l2)
    }

    /// [`TraceStore::l2_stats`] in hierarchy order: cold cells replay
    /// through [`replay_l2_hierarchy`], so an unsampled cell equals the
    /// secondary cache of a coupled split-L1 → L2 hierarchy over the
    /// references `options` records. These cells are memoized apart
    /// from trace-order cells of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if a cache configuration in
    /// `options`, or a cold cell's configuration or sampling, is
    /// invalid.
    pub fn hierarchy_l2_stats(
        &self,
        workload: &dyn Workload,
        options: &RecordOptions,
        cells: &[(CacheConfig, Option<SetSampling>)],
    ) -> Result<Vec<CacheStats>, CacheConfigError> {
        self.memoized(
            &self.inner.hierarchy_l2,
            workload,
            options,
            cells,
            replay_l2_hierarchy,
        )
    }

    /// Serves `cells` from `memo`, replaying the cold ones (in request
    /// order) as one family with `simulate`.
    ///
    /// Like [`TraceStore::profile`], the replay runs outside the lock;
    /// racing workers on the same cold cell both simulate and the first
    /// result stored wins, harmlessly, because replay is deterministic.
    fn memoized<C, V>(
        &self,
        memo: &ReplayMemo<V>,
        workload: &dyn Workload,
        options: &RecordOptions,
        cells: &[C],
        simulate: impl FnOnce(&MissTrace, &[C]) -> Result<Vec<V>, CacheConfigError>,
    ) -> Result<Vec<V>, CacheConfigError>
    where
        C: Copy + Debug,
        V: Clone,
    {
        let trace_key = Self::key(workload, options);
        let keys: Vec<String> = cells.iter().map(|c| format!("{c:?}")).collect();
        let mut results: Vec<Option<V>> = {
            let memo = memo.lock().expect("store lock");
            let served = memo.get(&trace_key);
            keys.iter()
                .map(|k| served.and_then(|s| s.get(k)).cloned())
                .collect()
        };
        let cold: Vec<usize> = (0..cells.len()).filter(|&i| results[i].is_none()).collect();
        let simulated = cold.len() as u64;
        let served = cells.len() as u64 - simulated;
        self.inner.replay_hits.fetch_add(served, Ordering::Relaxed);
        self.inner
            .replay_misses
            .fetch_add(simulated, Ordering::Relaxed);
        if !cold.is_empty() {
            let trace = self.record(workload, options)?;
            let family: Vec<C> = cold.iter().map(|&i| cells[i]).collect();
            let fresh = simulate(&trace, &family)?;
            let mut memo = memo.lock().expect("store lock");
            let stored = memo.entry(trace_key).or_default();
            for (&i, result) in cold.iter().zip(fresh) {
                results[i] = Some(stored.entry(keys[i].clone()).or_insert(result).clone());
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every cell is served or simulated"))
            .collect())
    }

    /// Number of distinct traces currently stored.
    pub fn len(&self) -> usize {
        self.inner.traces.lock().expect("store lock").len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many [`TraceStore::record`] calls were served from the store.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// How many [`TraceStore::record`] calls had to simulate an L1.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// How many replay cells ([`TraceStore::stream_stats`],
    /// [`TraceStore::l2_stats`] and [`TraceStore::hierarchy_l2_stats`]
    /// configurations) were served from the memo.
    pub fn replay_hits(&self) -> u64 {
        self.inner.replay_hits.load(Ordering::Relaxed)
    }

    /// How many replay cells had to be simulated.
    pub fn replay_misses(&self) -> u64 {
        self.inner.replay_misses.load(Ordering::Relaxed)
    }

    /// Drops every stored trace, profile and replay result (counters
    /// are kept).
    pub fn clear(&self) {
        self.inner.traces.lock().expect("store lock").clear();
        self.inner.profiles.lock().expect("store lock").clear();
        self.inner.streams.lock().expect("store lock").clear();
        self.inner.l2.lock().expect("store lock").clear();
        self.inner.hierarchy_l2.lock().expect("store lock").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim_trace::{Access, Addr};
    use streamsim_workloads::combinators::RecordedTrace;
    use streamsim_workloads::generators::{RandomGather, SequentialSweep};

    #[test]
    fn identical_requests_share_one_recording() {
        let store = TraceStore::new();
        let w = SequentialSweep::default();
        let opts = RecordOptions::default();
        let a = store.record(&w, &opts).unwrap();
        let b = store.record(&w, &opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.len(), 1);
        assert_eq!((store.misses(), store.hits()), (1, 1));
    }

    #[test]
    fn cached_trace_equals_a_fresh_recording() {
        let store = TraceStore::new();
        let w = RandomGather {
            footprint: 1 << 16,
            count: 5_000,
            seed: 7,
        };
        let opts = RecordOptions::default();
        let cached = store.record(&w, &opts).unwrap();
        let fresh = record_miss_trace(&w, &opts).unwrap();
        assert_eq!(*cached, fresh);
    }

    #[test]
    fn distinct_options_are_distinct_entries() {
        let store = TraceStore::new();
        let w = SequentialSweep::default();
        let plain = RecordOptions::default();
        let sampled = RecordOptions::default().with_paper_sampling();
        let a = store.record(&w, &plain).unwrap();
        let b = store.record(&w, &sampled).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.fetches(), b.fetches());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn distinct_workload_parameters_are_distinct_entries() {
        // Same name and footprint, different trace: the fingerprint must
        // tell them apart.
        let store = TraceStore::new();
        // The array must exceed the 64 KB L1 so a second pass misses
        // again instead of hitting the lines the first pass loaded.
        let one_pass = SequentialSweep {
            arrays: 1,
            bytes_per_array: 256 * 1024,
            passes: 1,
            elem: 8,
        };
        let two_passes = SequentialSweep {
            passes: 2,
            ..one_pass
        };
        let opts = RecordOptions::default();
        let a = store.record(&one_pass, &opts).unwrap();
        let b = store.record(&two_passes, &opts).unwrap();
        assert_eq!(store.len(), 2);
        assert!(a.fetches() < b.fetches());
    }

    #[test]
    fn prefill_records_each_cell_once_and_in_order() {
        let store = TraceStore::new();
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(SequentialSweep::default()),
            Box::new(RandomGather {
                footprint: 1 << 16,
                count: 5_000,
                seed: 7,
            }),
        ];
        let opts = RecordOptions::default();
        let pool = streamsim_dst::ThreadExecutor::auto();
        let traces = store.prefill_on(&workloads, &opts, &pool).unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(store.len(), 2);
        for (w, t) in workloads.iter().zip(&traces) {
            assert_eq!(
                **t,
                record_miss_trace(w.as_ref(), &opts).unwrap(),
                "{}: prefilled trace differs from a serial recording",
                w.name()
            );
        }
        // A second prefill is all hits and returns the same allocations.
        let again = store.prefill_on(&workloads, &opts, &pool).unwrap();
        for (a, b) in traces.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert_eq!(store.misses(), 2);
        assert_eq!(store.hits(), 2);
    }

    #[test]
    fn profiles_are_memoized_alongside_traces() {
        let store = TraceStore::new();
        let w = SequentialSweep::default();
        let opts = RecordOptions::default();
        let a = store.profile(&w, &opts).unwrap();
        let b = store.profile(&w, &opts).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second request is served from the store"
        );
        // The underlying trace was recorded exactly once and profiling
        // matches a fresh pass over it.
        assert_eq!(store.misses(), 1);
        let trace = store.record(&w, &opts).unwrap();
        assert_eq!(*a, crate::locality::profile_trace(&trace));
    }

    #[test]
    fn profiles_on_matches_serial_profiling() {
        let store = TraceStore::new();
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(SequentialSweep::default()),
            Box::new(RandomGather {
                footprint: 1 << 16,
                count: 5_000,
                seed: 7,
            }),
        ];
        let opts = RecordOptions::default();
        let profiles = store
            .profiles_on(&workloads, &opts, &streamsim_dst::ThreadExecutor::auto())
            .unwrap();
        assert_eq!(profiles.len(), 2);
        for (w, p) in workloads.iter().zip(&profiles) {
            let serial = store.profile(w.as_ref(), &opts).unwrap();
            assert!(Arc::ptr_eq(p, &serial), "{}", w.name());
        }
    }

    /// A copy loop run twice: it loads one 128 KB array and stores
    /// another, so the trace has long unit-stride runs for the stream
    /// cells and dirty L1 victims for the L2 cells, and cells of
    /// different shapes disagree.
    fn memo_workload() -> RecordedTrace {
        let (src, dst) = (0x10_0000, 0x20_0000);
        let copy = (0..128 * 1024u64).step_by(8).flat_map(|offset| {
            [
                Access::load(Addr::new(src + offset)),
                Access::store(Addr::new(dst + offset)),
            ]
        });
        RecordedTrace::new("copy", copy.clone().chain(copy).collect())
    }

    fn l2_cell(bytes: u64, assoc: u32) -> (CacheConfig, Option<SetSampling>) {
        let block = streamsim_trace::BlockSize::default();
        (CacheConfig::new(bytes, assoc, block).unwrap(), None)
    }

    #[test]
    fn served_replays_equal_fresh_replays() {
        let store = TraceStore::new();
        let w = memo_workload();
        let opts = RecordOptions::default();
        let configs = [
            StreamConfig::paper_basic(4).unwrap(),
            StreamConfig::paper_filtered(4).unwrap(),
            StreamConfig::paper_strided(4, 16).unwrap(),
        ];
        let cells = [l2_cell(64 << 10, 1), l2_cell(256 << 10, 4)];
        let trace = record_miss_trace(&w, &opts).unwrap();
        assert!(trace.writebacks() > 0, "need dirty L1 victims");
        let fresh_streams = replay_streams(&trace, &configs);
        let fresh_l2 = replay_l2(&trace, &cells).unwrap();
        assert!(
            fresh_l2.iter().any(|stats| stats.writebacks > 0),
            "need a dirty L2 victim"
        );
        for _ in 0..2 {
            assert_eq!(
                store.stream_stats(&w, &opts, &configs).unwrap(),
                fresh_streams
            );
            assert_eq!(store.l2_stats(&w, &opts, &cells).unwrap(), fresh_l2);
        }
        assert_eq!((store.replay_misses(), store.replay_hits()), (5, 5));
        assert_eq!(store.misses(), 1, "both observer kinds share one trace");
    }

    /// The event order is part of an L2 cell's key: one configuration
    /// requested in trace order and in hierarchy order is two memo
    /// entries, each equal to a fresh replay in its order, and a served
    /// hierarchy cell equals a fresh hierarchy-order replay.
    #[test]
    fn hierarchy_and_trace_order_cells_are_distinct_entries() {
        use streamsim_prng::{Rng, Xoshiro256StarStar};

        // Random loads and stores over 2 MB: the stores leave dirty L1
        // victims, so the two orders differ.
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let refs = (0..20_000)
            .map(|_| {
                let addr = Addr::new(rng.gen_range(0..1u64 << 21));
                if rng.gen_bool(0.3) {
                    Access::store(addr)
                } else {
                    Access::load(addr)
                }
            })
            .collect();
        let w = RecordedTrace::new("stores", refs);
        let store = TraceStore::new();
        let opts = RecordOptions::default();
        let cells = [l2_cell(64 << 10, 1), l2_cell(64 << 10, 2)];
        let trace = record_miss_trace(&w, &opts).unwrap();
        assert!(trace.writebacks() > 0, "need dirty L1 victims");
        let fresh_trace_order = replay_l2(&trace, &cells).unwrap();
        let fresh_hierarchy = replay_l2_hierarchy(&trace, &cells).unwrap();
        assert_ne!(fresh_trace_order, fresh_hierarchy, "the orders must differ");

        assert_eq!(
            store.l2_stats(&w, &opts, &cells).unwrap(),
            fresh_trace_order
        );
        assert_eq!((store.replay_misses(), store.replay_hits()), (2, 0));
        // Same cells, other order: cold, not served from the trace-order
        // entries.
        assert_eq!(
            store.hierarchy_l2_stats(&w, &opts, &cells).unwrap(),
            fresh_hierarchy
        );
        assert_eq!((store.replay_misses(), store.replay_hits()), (4, 0));
        // Both orders are served from now on, each its own result.
        for _ in 0..2 {
            assert_eq!(
                store.hierarchy_l2_stats(&w, &opts, &cells).unwrap(),
                fresh_hierarchy
            );
            assert_eq!(
                store.l2_stats(&w, &opts, &cells).unwrap(),
                fresh_trace_order
            );
        }
        assert_eq!((store.replay_misses(), store.replay_hits()), (4, 8));
        assert_eq!(store.misses(), 1, "both orders read one recording");

        store.clear();
        assert_eq!(
            store.hierarchy_l2_stats(&w, &opts, &cells).unwrap(),
            fresh_hierarchy
        );
        assert_eq!(store.replay_misses(), 6, "clear drops hierarchy cells too");
    }

    #[test]
    fn configs_differing_in_one_key_field_are_distinct_entries() {
        use streamsim_streams::{Allocation, MatchPolicy};
        use streamsim_trace::BlockSize;

        let store = TraceStore::new();
        let w = memo_workload();
        let opts = RecordOptions::default();
        let min_delta = |entries, max_stride_words| {
            StreamConfig::new(
                4,
                2,
                Allocation::MinDelta {
                    entries,
                    max_stride_words,
                },
            )
            .unwrap()
        };
        let strided = |unit_entries, stride_entries, czone_bits| {
            StreamConfig::new(
                4,
                2,
                Allocation::UnitAndStrideFilters {
                    unit_entries,
                    stride_entries,
                    czone_bits,
                },
            )
            .unwrap()
        };
        let base = StreamConfig::paper_basic(4).unwrap();
        let streams = [
            base,
            StreamConfig::paper_basic(5).unwrap(),
            StreamConfig::new(4, 3, Allocation::OnMiss).unwrap(),
            StreamConfig::paper_filtered(4).unwrap(),
            StreamConfig::new(4, 2, Allocation::UnitFilter { entries: 8 }).unwrap(),
            strided(16, 16, 16),
            strided(16, 16, 18),
            strided(8, 16, 16),
            strided(16, 8, 16),
            min_delta(16, 1 << 20),
            min_delta(8, 1 << 20),
            min_delta(16, 1 << 10),
            base.with_match_policy(MatchPolicy::AnyEntry),
        ];
        let got = store.stream_stats(&w, &opts, &streams).unwrap();
        assert_eq!(
            store.replay_misses(),
            streams.len() as u64,
            "two configs shared a memo entry"
        );
        let trace = store.record(&w, &opts).unwrap();
        for (config, stats) in streams.iter().zip(&got) {
            assert_eq!(*stats, crate::run_streams(&trace, *config), "{config:?}");
        }

        let (geometry, sampling) = l2_cell(256 << 10, 2);
        let l2 = [
            (geometry, sampling),
            l2_cell(512 << 10, 2),
            l2_cell(256 << 10, 4),
            (
                CacheConfig::new(256 << 10, 2, BlockSize::new(64).unwrap()).unwrap(),
                None,
            ),
            (geometry, Some(SetSampling::new(2, 0))),
            (geometry, Some(SetSampling::new(2, 1))),
            (geometry, Some(SetSampling::new(1, 0))),
        ];
        let before = store.replay_misses();
        let got = store.l2_stats(&w, &opts, &l2).unwrap();
        assert_eq!(store.replay_misses() - before, l2.len() as u64);
        for (&(config, sampling), stats) in l2.iter().zip(&got) {
            assert_eq!(
                *stats,
                crate::run_l2(&trace, config, sampling).unwrap(),
                "{config:?} {sampling:?}"
            );
        }

        // The trace key is part of the memo key: the same cell over a
        // different recording is a different entry.
        let sampled = RecordOptions::default().with_paper_sampling();
        let before = store.replay_misses();
        store.stream_stats(&w, &sampled, &[base]).unwrap();
        assert_eq!(store.replay_misses() - before, 1);
    }

    #[test]
    fn mixed_requests_replay_only_cold_cells_in_request_order() {
        let store = TraceStore::new();
        let w = memo_workload();
        let opts = RecordOptions::default();
        let [a, b, c, d] = [
            StreamConfig::paper_basic(2).unwrap(),
            StreamConfig::paper_filtered(4).unwrap(),
            StreamConfig::paper_strided(6, 16).unwrap(),
            StreamConfig::paper_basic(8).unwrap(),
        ];
        store.stream_stats(&w, &opts, &[a, b]).unwrap();
        assert_eq!((store.replay_misses(), store.replay_hits()), (2, 0));

        // Two warm cells between two cold ones: only the cold ones
        // replay, and every result lands in request order.
        let request = [c, a, d, b];
        let got = store.stream_stats(&w, &opts, &request).unwrap();
        assert_eq!((store.replay_misses(), store.replay_hits()), (4, 2));
        let trace = store.record(&w, &opts).unwrap();
        assert_eq!(got, replay_streams(&trace, &request));

        // Fully served: no replay, and the trace is not even consulted.
        let (hits, misses) = (store.hits(), store.misses());
        store.stream_stats(&w, &opts, &[d, b]).unwrap();
        assert_eq!((store.replay_misses(), store.replay_hits()), (4, 4));
        assert_eq!((store.hits(), store.misses()), (hits, misses));
    }

    #[test]
    fn clear_drops_the_replay_memo() {
        let store = TraceStore::new();
        let w = memo_workload();
        let opts = RecordOptions::default();
        let config = [StreamConfig::paper_basic(4).unwrap()];
        let cell = [l2_cell(256 << 10, 2)];
        let streams = store.stream_stats(&w, &opts, &config).unwrap();
        let l2 = store.l2_stats(&w, &opts, &cell).unwrap();
        assert_eq!(store.replay_misses(), 2);
        store.clear();
        assert_eq!(store.stream_stats(&w, &opts, &config).unwrap(), streams);
        assert_eq!(store.l2_stats(&w, &opts, &cell).unwrap(), l2);
        assert_eq!(store.replay_misses(), 4, "cleared cells replay again");
        assert_eq!(store.misses(), 2, "and their trace re-records");
    }

    #[test]
    fn clear_empties_the_store() {
        let store = TraceStore::new();
        store
            .record(&SequentialSweep::default(), &RecordOptions::default())
            .unwrap();
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
        store
            .record(&SequentialSweep::default(), &RecordOptions::default())
            .unwrap();
        assert_eq!(store.misses(), 2, "cleared entries re-record");
    }
}
