//! The pre-dense streaming profile builder.
//!
//! [`ProfileBuilder`] is the locality-profile pass exactly as it was
//! before [`profile_events`](crate::profile_events) renumbered each
//! trace to dense ids: `BTreeMap`s keyed by raw block and word indices,
//! and Fenwick trees over every event position. It is kept verbatim,
//! mirroring `streamsim_streams::reference`, as the **equivalence
//! oracle**: the dense pass must return a profile equal to this
//! builder's, by `PartialEq` and by `Debug` text, for every event
//! stream. `tests/profile_equivalence.rs` checks that against
//! randomized streams, and the workspace's `tests/model_validation.rs`
//! against every quick-scale trace.
//!
//! It is deliberately *not* optimised; do not use it in drivers.

use std::collections::BTreeMap;

use streamsim_obs::Hist;

use crate::fenwick::Fenwick;
use crate::profile::{
    CzoneSketch, LocalityProfile, StreamProfile, CZONE_GRID, REUSE_GRANULARITIES, SD_BUCKETS,
    STALE_SD,
};

/// A Mattson LRU stack over one granularity of block indices.
#[derive(Debug)]
struct ReuseStack {
    fen: Fenwick,
    last: BTreeMap<u64, usize>,
    hist: Hist,
}

impl ReuseStack {
    fn new(capacity: usize) -> Self {
        ReuseStack {
            fen: Fenwick::new(capacity),
            last: BTreeMap::new(),
            hist: Hist::new(),
        }
    }

    fn touch(&mut self, item: u64, now: usize) {
        // A first touch (infinite distance) records nothing.
        if let Some(prev) = self.last.insert(item, now) {
            // Marks strictly between prev and now = distinct items
            // touched since = LRU stack distance.
            self.hist.record(self.fen.between(prev, now) as u64);
            self.fen.clear(prev);
        }
        self.fen.set(now);
    }
}

/// One tracked unit-stride run.
#[derive(Clone, Copy, Debug)]
struct Run {
    id: u64,
    /// Blocks fetched so far (1 after the run's first fetch).
    pos: u32,
    /// Allocation clock at this run's latest fetch.
    allocs: u64,
}

/// Per-run last-touch bookkeeping for the all-runs stream stack.
#[derive(Debug)]
struct RunStack {
    /// Marks at every run's latest touch (any position).
    all: Fenwick,
    last_all: BTreeMap<u64, usize>,
}

impl RunStack {
    fn new(capacity: usize) -> Self {
        RunStack {
            all: Fenwick::new(capacity),
            last_all: BTreeMap::new(),
        }
    }
}

/// The §7 czone FSM replica for one grid czone size, plus the expected
/// next words of the strided runs it has trained.
#[derive(Debug)]
struct CzoneState {
    czone_bits: u32,
    /// FIFO partition table: (tag, last word, candidate stride, in
    /// META2). Capacity [`CzoneState::CAPACITY`]; index 0 = oldest.
    table: Vec<(u64, u64, i64, bool)>,
    /// Trained strided runs keyed by their expected next word index:
    /// (stride in words, allocation clock at the run's previous fetch —
    /// unit establishments plus this czone size's own trainings).
    expect: BTreeMap<u64, (i64, u64)>,
    trained: u64,
    cont: Vec<u64>,
}

impl CzoneState {
    /// The paper's filter size; the sketch pins it rather than
    /// parameterising (every experiment uses 16 entries).
    const CAPACITY: usize = 16;

    fn new(czone_bits: u32) -> Self {
        CzoneState {
            czone_bits,
            table: Vec::with_capacity(Self::CAPACITY),
            expect: BTreeMap::new(),
            trained: 0,
            cont: vec![0; SD_BUCKETS + 1],
        }
    }

    /// Mirrors [`CzoneFilter::lookup`]'s FSM: returns the verified
    /// stride (in words) when a third constant-stride miss lands in one
    /// partition.
    fn fsm(&mut self, word: u64) -> Option<i64> {
        let tag = if self.czone_bits >= 64 {
            0
        } else {
            word >> self.czone_bits
        };
        if let Some(pos) = self.table.iter().position(|e| e.0 == tag) {
            let delta = word as i64 - self.table[pos].1 as i64;
            if delta == 0 {
                return None;
            }
            if self.table[pos].3 && delta == self.table[pos].2 {
                self.table.remove(pos);
                return Some(delta);
            }
            self.table[pos].1 = word;
            self.table[pos].2 = delta;
            self.table[pos].3 = true;
            return None;
        }
        if self.table.len() == Self::CAPACITY {
            self.table.remove(0);
        }
        self.table.push((tag, word, 0, false));
        None
    }
}

/// Streaming builder for a [`LocalityProfile`].
///
/// Feed the recorded events in program order via
/// [`fetch`](ProfileBuilder::fetch) and
/// [`writeback`](ProfileBuilder::writeback) (with addresses already
/// split into block and word indices), then call
/// [`finish`](ProfileBuilder::finish).
#[derive(Debug)]
pub struct ProfileBuilder {
    l1_block_bytes: u64,
    word_bytes: u64,
    reuse: Vec<ReuseStack>,
    event_clock: usize,
    fetch_clock: usize,
    fetches: u64,
    writebacks: u64,
    /// Expected next block index → the unit run that predicts it.
    unit_expect: BTreeMap<u64, Run>,
    run_stack: RunStack,
    next_run_id: u64,
    runs: u64,
    /// Run establishments so far — the allocation clock. A unit-
    /// filtered system allocates a buffer exactly at these events.
    alloc_clock: u64,
    pos2: Vec<u64>,
    pos3p: Vec<u64>,
    pos3p_alloc: Vec<u64>,
    czone: Vec<CzoneState>,
}

impl ProfileBuilder {
    /// A builder for a trace of (at most) `capacity_events` events whose
    /// L1 fetches blocks of `l1_block_bytes` and whose stride detection
    /// operates on `word_bytes` words.
    pub fn new(l1_block_bytes: u64, word_bytes: u64, capacity_events: usize) -> Self {
        ProfileBuilder {
            l1_block_bytes,
            word_bytes,
            reuse: REUSE_GRANULARITIES
                .iter()
                .map(|_| ReuseStack::new(capacity_events))
                .collect(),
            event_clock: 0,
            fetch_clock: 0,
            fetches: 0,
            writebacks: 0,
            unit_expect: BTreeMap::new(),
            run_stack: RunStack::new(capacity_events),
            next_run_id: 0,
            runs: 0,
            alloc_clock: 0,
            pos2: vec![0; SD_BUCKETS + 1],
            pos3p: vec![0; SD_BUCKETS + 1],
            pos3p_alloc: vec![0; SD_BUCKETS + 1],
            czone: CZONE_GRID.iter().map(|&b| CzoneState::new(b)).collect(),
        }
    }

    fn touch_reuse(&mut self, block: u64) {
        let now = self.event_clock;
        self.event_clock += 1;
        for (stack, &g) in self.reuse.iter_mut().zip(REUSE_GRANULARITIES.iter()) {
            stack.touch(block / g, now);
        }
    }

    /// A demand fetch of `block` (index at L1 block granularity) whose
    /// missing word has index `word`.
    pub fn fetch(&mut self, block: u64, word: u64) {
        self.touch_reuse(block);
        self.fetches += 1;
        let now = self.fetch_clock;
        self.fetch_clock += 1;

        // Unit-run continuation?
        match self.unit_expect.remove(&block) {
            Some(run) => {
                let pos = run.pos + 1;
                let sd = match self.run_stack.last_all.get(&run.id) {
                    Some(&prev) => self.run_stack.all.between(prev, now) as u64,
                    None => STALE_SD,
                };
                if pos == 2 {
                    self.pos2[(sd as usize).min(SD_BUCKETS)] += 1;
                    // Establishing: a unit-filtered system allocates a
                    // buffer on this fetch. Advance the clock *before*
                    // stamping the run so its own establishment does
                    // not count against its later continuations.
                    self.alloc_clock += 1;
                } else {
                    self.pos3p[(sd as usize).min(SD_BUCKETS)] += 1;
                    let da = self.alloc_clock - run.allocs;
                    self.pos3p_alloc[(da as usize).min(SD_BUCKETS)] += 1;
                }
                // Move the run's mark to this touch.
                if let Some(prev) = self.run_stack.last_all.insert(run.id, now) {
                    self.run_stack.all.clear(prev);
                }
                self.run_stack.all.set(now);
                self.unit_expect.insert(
                    block + 1,
                    Run {
                        id: run.id,
                        pos,
                        allocs: self.alloc_clock,
                    },
                );
            }
            None => {
                // A fresh unit run; in a filtered system this fetch
                // falls through the unit filter to the czone filters.
                let id = self.next_run_id;
                self.next_run_id += 1;
                self.runs += 1;
                self.run_stack.last_all.insert(id, now);
                self.run_stack.all.set(now);
                self.unit_expect.insert(
                    block + 1,
                    Run {
                        id,
                        pos: 1,
                        allocs: self.alloc_clock,
                    },
                );
                self.czone_fetch(word);
            }
        }
    }

    /// Drives the czone sketches with a fetch that fell through the
    /// unit filter.
    fn czone_fetch(&mut self, word: u64) {
        for cz in &mut self.czone {
            // This czone size's allocation clock: unit establishments
            // plus its own trainings, since both allocate a buffer.
            let clock = self.alloc_clock + cz.trained;
            // A trained strided run continuing at its expected word
            // hits the stream — it never reaches the filters.
            if let Some((stride, prev)) = cz.expect.remove(&word) {
                let da = clock - prev;
                cz.cont[(da as usize).min(SD_BUCKETS)] += 1;
                if da < STALE_SD {
                    if let Some(next) = word.checked_add_signed(stride) {
                        cz.expect.insert(next, (stride, clock));
                    }
                }
                continue;
            }
            if let Some(stride) = cz.fsm(word) {
                cz.trained += 1;
                if let Some(next) = word.checked_add_signed(stride) {
                    cz.expect
                        .insert(next, (stride, self.alloc_clock + cz.trained));
                }
            }
        }
    }

    /// A dirty block written back (index at L1 block granularity).
    pub fn writeback(&mut self, block: u64) {
        self.touch_reuse(block);
        self.writebacks += 1;
    }

    /// Finalizes the profile.
    pub fn finish(self) -> LocalityProfile {
        LocalityProfile {
            l1_block_bytes: self.l1_block_bytes,
            word_bytes: self.word_bytes,
            events: self.event_clock as u64,
            fetches: self.fetches,
            writebacks: self.writebacks,
            l1_refs: 0,
            l1_misses: 0,
            reuse: self.reuse.into_iter().map(|s| s.hist).collect(),
            streams: StreamProfile {
                fetches: self.fetches,
                runs: self.runs,
                pos2: self.pos2,
                pos3p: self.pos3p,
                pos3p_alloc: self.pos3p_alloc,
                czone: self
                    .czone
                    .into_iter()
                    .map(|cz| CzoneSketch {
                        czone_bits: cz.czone_bits,
                        trained: cz.trained,
                        cont: cz.cont,
                    })
                    .collect(),
            },
        }
    }
}
