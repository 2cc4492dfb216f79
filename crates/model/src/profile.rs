//! Locality profiling of a recorded miss stream.
//!
//! [`profile_events`] walks the L1 miss/write-back event stream and
//! extracts everything the closed-form predictors need:
//!
//! * **Reuse profile** — Mattson LRU stack-distance histograms of the
//!   *whole* event stream (fetches and write-backs: a secondary cache
//!   sees both) at 1×, 2× and 4× the L1 block size. Each block keeps a
//!   mark at its latest touch; a re-touch's distance is the number of
//!   marks after its previous one.
//! * **Stream profile** — the fetch stream decomposed into unit-stride
//!   *runs* (maximal chains of misses to consecutive blocks). Each run
//!   continuation is recorded with its position class (second block of
//!   the run vs third-or-later) and two notions of **stream stack
//!   distance** since this run's previous fetch:
//!
//!   - the *touched* distance — distinct other runs fetched in between.
//!     Under allocate-on-miss every miss reallocates a buffer, so a
//!     continuation hits an `n`-buffer LRU system exactly when this is
//!     below `n`.
//!   - the *allocation* distance — run establishments (a run reaching
//!     its second block) in between. Under a unit filter only those
//!     allocate, so buffers survive arbitrarily long interruptions as
//!     long as few new streams establish; this distance, not the
//!     touched one, is the filtered system's eviction pressure.
//!
//!   Either histogram turns into a hit-rate curve for *any* stream
//!   count without simulation.
//! * **Czone sketches** — for a fixed grid of czone sizes, a replica of
//!   the §7 partition FSM counts how many non-unit-stride runs each
//!   czone size would train, and how their continuations distribute
//!   over stream stack distance.
//!
//! # Dense ids
//!
//! The pass first renumbers the trace's L1 blocks to dense ids with one
//! sort of (block, position) pairs; the ids ascend with the block
//! index, so the 2× and 4× ids fall out of the same sorted list. Per-id
//! state then lives in `Vec`s:
//!
//! * a reuse stack keeps each id's latest touch in a `Vec<u32>` and its
//!   marks in a bitset of event positions. Every live mark lies before
//!   the current position, so a re-touch's distance is the distinct ids
//!   touched so far minus the marks up to its previous touch: popcounts
//!   of the nearby bitset words, or a Fenwick tree over the bitset's
//!   64-bit words for a far one;
//! * the run stack is a 64-deep move-to-front array of run ids. A run
//!   deeper than [`SD_BUCKETS`] lands in the overflow bucket whatever
//!   its exact depth;
//! * unit-run predictions sit in a `Vec` indexed by the predicted
//!   block's id. A prediction for a block the trace never touches is
//!   dropped: only fetched blocks are ever looked up;
//! * each czone sketch keeps the FSM's 16-slot FIFO in fixed arrays and
//!   its trained runs' expected words in a linear-probing table sized
//!   by its live entries (per-word `Vec`s would cost nine times the
//!   trace's distinct words).
//!
//! The profile is a pure function of the event stream: no clocks, no
//! randomness, and no hash order is ever observed (the expected-word
//! tables are only probed by key, never iterated), so two passes over
//! the same trace are byte-identical — and equal, by `PartialEq` and by
//! `Debug` text, to the frozen map-based
//! [`reference::ProfileBuilder`](crate::reference::ProfileBuilder).

use streamsim_obs::Hist;

use crate::fenwick::Fenwick;

/// Reuse-distance granularities profiled, as multiples of the L1 block
/// size (so a 32-byte L1 block yields 32/64/128-byte histograms).
pub const REUSE_GRANULARITIES: [u64; 3] = [1, 2, 4];

/// Czone sizes (bits of the word address) sketched during profiling;
/// predictions for other sizes snap to the nearest grid point.
pub const CZONE_GRID: [u32; 9] = [8, 10, 12, 14, 16, 18, 20, 22, 24];

/// Stream stack distances `0..SD_BUCKETS` are recorded exactly; larger
/// distances land in one overflow bucket (index `SD_BUCKETS`). No
/// stream system of interest has more buffers than this.
pub const SD_BUCKETS: usize = 64;

/// Per-czone-size sketch of the §7 non-unit-stride filter.
#[derive(Clone, Debug, PartialEq)]
pub struct CzoneSketch {
    /// Czone size in bits of the word address.
    pub czone_bits: u32,
    /// Strided streams the czone FSM trains (three constant-stride
    /// misses in one partition).
    pub trained: u64,
    /// Trained-run continuations by allocation distance — unit and
    /// strided establishments since the run's previous fetch (length
    /// [`SD_BUCKETS`]` + 1`; last bucket = overflow).
    pub cont: Vec<u64>,
}

impl CzoneSketch {
    /// Continuations with allocation distance `< n` — the trained
    /// strided fetches that hit with `n` stream buffers.
    pub fn cont_below(&self, n: usize) -> u64 {
        self.cont[..n.min(SD_BUCKETS)].iter().sum()
    }
}

/// Unit-stride run statistics of the fetch stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamProfile {
    /// Demand fetches profiled.
    pub fetches: u64,
    /// Unit-stride runs started (every fetch either continues a run or
    /// starts one).
    pub runs: u64,
    /// Run continuations at position 2 (second consecutive block), by
    /// all-runs stack distance. Length [`SD_BUCKETS`]` + 1`.
    pub pos2: Vec<u64>,
    /// Continuations at position ≥ 3, by all-runs stack distance.
    pub pos3p: Vec<u64>,
    /// Continuations at position ≥ 3, by *allocation* distance — run
    /// establishments (position-2 continuations) since this run's
    /// previous fetch. Only those allocate past a unit filter.
    pub pos3p_alloc: Vec<u64>,
    /// Czone FSM sketches, in [`CZONE_GRID`] order.
    pub czone: Vec<CzoneSketch>,
}

impl StreamProfile {
    /// Position-2 continuations with all-runs stack distance `< n`.
    pub fn pos2_below(&self, n: usize) -> u64 {
        self.pos2[..n.min(SD_BUCKETS)].iter().sum()
    }

    /// Position-≥3 continuations with all-runs stack distance `< n`.
    pub fn pos3p_below(&self, n: usize) -> u64 {
        self.pos3p[..n.min(SD_BUCKETS)].iter().sum()
    }

    /// Position-≥3 continuations with allocation distance `< n`.
    pub fn pos3p_alloc_below(&self, n: usize) -> u64 {
        self.pos3p_alloc[..n.min(SD_BUCKETS)].iter().sum()
    }

    /// Total position-2 continuations.
    pub fn pos2_total(&self) -> u64 {
        self.pos2.iter().sum()
    }

    /// Total position-≥3 continuations.
    pub fn pos3p_total(&self) -> u64 {
        self.pos3p.iter().sum()
    }

    /// The sketch whose czone size is nearest `czone_bits` (ties go to
    /// the smaller size).
    pub fn nearest_czone(&self, czone_bits: u32) -> &CzoneSketch {
        self.czone
            .iter()
            .min_by_key(|s| (s.czone_bits.abs_diff(czone_bits), s.czone_bits))
            .expect("CZONE_GRID is non-empty")
    }
}

/// A workload's complete locality profile: everything the predictors in
/// [`crate::predict`] consume.
#[derive(Clone, Debug, PartialEq)]
pub struct LocalityProfile {
    /// L1 block size in bytes (granularity of fetch events and of
    /// `reuse[0]`).
    pub l1_block_bytes: u64,
    /// Word size in bytes used for stride detection.
    pub word_bytes: u64,
    /// Total events profiled (fetches + write-backs).
    pub events: u64,
    /// Demand fetches (L1 misses) profiled.
    pub fetches: u64,
    /// Write-backs profiled.
    pub writebacks: u64,
    /// References the recorded L1 served (set by the recorder; zero if
    /// unknown).
    pub l1_refs: u64,
    /// Misses the recorded L1 took (set by the recorder; zero if
    /// unknown).
    pub l1_misses: u64,
    /// Reuse-distance histograms over all events, one per entry of
    /// [`REUSE_GRANULARITIES`]. Only finite distances are recorded:
    /// every event touches each granularity once, so its first touches
    /// number `events - reuse[i].count()`.
    pub reuse: Vec<Hist>,
    /// Unit-stride run and czone statistics of the fetch stream.
    pub streams: StreamProfile,
}

impl LocalityProfile {
    /// The recorded L1 miss rate (exact, not modelled): the profile is
    /// computed while recording, so the L1's own answer is simply
    /// carried along. Zero when the recorder did not supply it.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_refs == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_refs as f64
        }
    }

    /// The reuse histogram whose granularity is nearest
    /// `block_bytes / l1_block_bytes` (ties go to the smaller).
    pub fn reuse_at(&self, block_bytes: u64) -> &Hist {
        let ratio = (block_bytes.max(1)) as f64 / self.l1_block_bytes.max(1) as f64;
        let mut best = 0;
        let mut best_err = f64::INFINITY;
        for (i, &g) in REUSE_GRANULARITIES.iter().enumerate() {
            let err = (ratio.ln() - (g as f64).ln()).abs();
            if err < best_err {
                best = i;
                best_err = err;
            }
        }
        &self.reuse[best]
    }
}

/// One recorded L1 event, its address already split into indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileEvent {
    /// A demand fetch of `block` (index at L1 block granularity) whose
    /// missing word has index `word`.
    Fetch {
        /// Block index at L1 block granularity.
        block: u64,
        /// Word index of the missing reference.
        word: u64,
    },
    /// A dirty block written back (index at L1 block granularity).
    Writeback {
        /// Block index at L1 block granularity.
        block: u64,
    },
}

impl ProfileEvent {
    /// The event's block index at L1 block granularity.
    fn block(self) -> u64 {
        match self {
            ProfileEvent::Fetch { block, .. } | ProfileEvent::Writeback { block } => block,
        }
    }
}

/// Profiles a whole event stream, in program order, of an L1 that
/// fetches blocks of `l1_block_bytes` and whose stride detection works
/// on `word_bytes` words.
///
/// The iterator is walked twice — once to renumber the blocks, once to
/// profile — so it must be cheap to clone (a mapped slice iterator is).
/// The recorded L1 counts (`l1_refs`, `l1_misses`) are left at zero for
/// the caller to fill in.
///
/// # Panics
///
/// If the stream holds `u32::MAX` events or more.
pub fn profile_events<I>(l1_block_bytes: u64, word_bytes: u64, events: I) -> LocalityProfile
where
    I: IntoIterator<Item = ProfileEvent>,
    I::IntoIter: Clone,
{
    let events = events.into_iter();
    let blocks = DenseBlocks::new(events.clone().map(ProfileEvent::block));
    let reuse = REUSE_GRANULARITIES
        .iter()
        .map(|&g| blocks.reuse_hist(g))
        .collect();
    let streams = stream_profile(&blocks, events);
    let total = blocks.ids.len() as u64;
    LocalityProfile {
        l1_block_bytes,
        word_bytes,
        events: total,
        fetches: streams.fetches,
        writebacks: total - streams.fetches,
        l1_refs: 0,
        l1_misses: 0,
        reuse,
        streams,
    }
}

/// The trace's L1 blocks renumbered to dense ids in ascending block
/// order.
#[derive(Debug)]
struct DenseBlocks {
    /// Per event, its block's dense id.
    ids: Vec<u32>,
    /// Per dense id, its block index: sorted and unique.
    blocks: Vec<u64>,
}

impl DenseBlocks {
    /// One sort of (block, position) pairs renumbers every event.
    fn new(blocks: impl Iterator<Item = u64>) -> Self {
        let mut pairs: Vec<(u64, u32)> = blocks
            .enumerate()
            .map(|(t, block)| {
                let t = u32::try_from(t)
                    .ok()
                    .filter(|&t| t < u32::MAX)
                    .expect("a profiled trace holds fewer than 2^32 - 1 events");
                (block, t)
            })
            .collect();
        // Positions within one block may land in any order: only the
        // block's id is written back.
        pairs.sort_unstable_by_key(|&(block, _)| block);
        let mut ids = vec![0u32; pairs.len()];
        let mut unique: Vec<u64> = Vec::new();
        for &(block, t) in &pairs {
            if unique.last() != Some(&block) {
                unique.push(block);
            }
            ids[t as usize] = (unique.len() - 1) as u32;
        }
        DenseBlocks {
            ids,
            blocks: unique,
        }
    }

    /// The id of block `id + 1` when the trace touches it: the block a
    /// unit run through `id` predicts next.
    fn successor(&self, id: usize) -> Option<usize> {
        (self.blocks.get(id + 1) == Some(&(self.blocks[id] + 1))).then_some(id + 1)
    }

    /// The Mattson stack-distance histogram at `g`× the L1 block size.
    /// Block indices ascend with the ids, so the coarse ids are the
    /// changes of `block / g` along the sorted list.
    fn reuse_hist(&self, g: u64) -> Hist {
        let mut coarse = Vec::with_capacity(self.blocks.len());
        let mut next = 0u32;
        let mut prev: Option<u64> = None;
        for &block in &self.blocks {
            let item = block / g;
            if prev.is_some_and(|p| p != item) {
                next += 1;
            }
            prev = Some(item);
            coarse.push(next);
        }
        let mut stack = ReuseStack::new(next as usize + 1, self.ids.len());
        for &id in &self.ids {
            stack.touch(coarse[id as usize]);
        }
        stack.hist
    }
}

/// A Mattson LRU stack over dense item ids: a mark at each item's
/// latest touch, one bit per event position.
#[derive(Debug)]
struct ReuseStack {
    /// Per item, its latest touch's position + 1 (0 = never touched).
    last: Vec<u32>,
    /// Marks, one bit per event position.
    bits: Vec<u64>,
    /// Set bits per word of `bits`, for every word before the current
    /// position's: a word enters the tree, by its popcount, when the
    /// position moves past it.
    sealed: Fenwick,
    /// Distinct items touched so far = marks set.
    live: u32,
    /// Next event position.
    now: usize,
    hist: Hist,
}

impl ReuseStack {
    fn new(items: usize, events: usize) -> Self {
        let words = events.div_ceil(64);
        ReuseStack {
            last: vec![0; items],
            bits: vec![0; words],
            sealed: Fenwick::new(words),
            live: 0,
            now: 0,
            hist: Hist::new(),
        }
    }

    fn touch(&mut self, item: u32) {
        let now = self.now;
        self.now += 1;
        let word = now / 64;
        if word > 0 && now.is_multiple_of(64) {
            self.sealed.add(word - 1, self.bits[word - 1].count_ones());
        }
        let prev = std::mem::replace(&mut self.last[item as usize], now as u32 + 1);
        if prev == 0 {
            // A first touch (infinite distance) records nothing.
            self.live += 1;
        } else {
            let prev = prev as usize - 1;
            let (pw, pb) = (prev / 64, prev % 64);
            // Marks strictly between prev and now = distinct items
            // touched since = LRU stack distance. No mark lies at or
            // after now, so that is every live mark but those up to
            // prev: the sealed words before prev's, and prev's own word
            // through prev.
            let before = if pw == 0 {
                0
            } else {
                self.sealed.prefix(pw - 1)
            };
            let through_prev = u64::MAX >> (63 - pb);
            let distance = self.live - before - (self.bits[pw] & through_prev).count_ones();
            self.hist.record(u64::from(distance));
            self.bits[pw] &= !(1 << pb);
            if pw < word {
                self.sealed.clear(pw);
            }
        }
        self.bits[word] |= 1 << (now % 64);
    }
}

/// Continuation distances `>= SD_BUCKETS` share the overflow bucket.
fn bucket(distance: u64) -> usize {
    distance.min(SD_BUCKETS as u64) as usize
}

/// A trained strided run whose allocation distance reaches this is
/// dropped: its buffer is long gone in every configuration of interest.
pub(crate) const STALE_SD: u64 = SD_BUCKETS as u64;

/// One tracked unit-stride run, filed under the block it predicts.
#[derive(Clone, Copy, Debug)]
struct Run {
    id: u32,
    /// Blocks fetched so far (1 after the run's first fetch; 0 marks an
    /// empty prediction slot).
    pos: u32,
    /// Allocation clock at this run's latest fetch.
    allocs: u64,
}

impl Run {
    const NONE: Run = Run {
        id: 0,
        pos: 0,
        allocs: 0,
    };
}

/// The all-runs stream stack, cut at [`SD_BUCKETS`]: the most recently
/// fetched runs, most recent first.
#[derive(Debug)]
struct RecentRuns {
    /// Run ids; `u32::MAX` fills the slots no run has reached yet.
    ids: [u32; SD_BUCKETS],
}

impl RecentRuns {
    fn new() -> Self {
        RecentRuns {
            ids: [u32::MAX; SD_BUCKETS],
        }
    }

    /// Moves `run` to the top and returns its former depth — the
    /// distinct other runs fetched since its previous fetch — or
    /// [`SD_BUCKETS`] if it had sunk below the cut.
    fn touch(&mut self, run: u32) -> usize {
        let depth = self
            .ids
            .iter()
            .position(|&r| r == run)
            .unwrap_or(SD_BUCKETS);
        self.push_from(run, depth.min(SD_BUCKETS - 1));
        depth
    }

    /// Puts a fresh run on top.
    fn push(&mut self, run: u32) {
        self.push_from(run, SD_BUCKETS - 1);
    }

    /// Shifts the top `end` entries down one slot (overwriting slot
    /// `end`) and puts `run` on top.
    fn push_from(&mut self, run: u32, end: usize) {
        self.ids.copy_within(0..end, 1);
        self.ids[0] = run;
    }
}

/// The unit-run and czone half of the profile: one walk over the
/// fetches.
fn stream_profile(
    blocks: &DenseBlocks,
    events: impl Iterator<Item = ProfileEvent>,
) -> StreamProfile {
    // Expected next block (by id) → the unit run that predicts it.
    let mut unit_expect = vec![Run::NONE; blocks.blocks.len()];
    let mut recent = RecentRuns::new();
    let mut czone: Vec<CzoneState> = CZONE_GRID.iter().map(|&b| CzoneState::new(b)).collect();
    let mut fetches = 0u64;
    let mut runs = 0u32;
    // Run establishments so far — the allocation clock. A unit-filtered
    // system allocates a buffer exactly at these events.
    let mut alloc_clock = 0u64;
    let mut pos2 = vec![0; SD_BUCKETS + 1];
    let mut pos3p = vec![0; SD_BUCKETS + 1];
    let mut pos3p_alloc = vec![0; SD_BUCKETS + 1];

    for (event, &id) in events.zip(&blocks.ids) {
        let ProfileEvent::Fetch { word, .. } = event else {
            continue;
        };
        fetches += 1;
        let id = id as usize;
        let run = std::mem::replace(&mut unit_expect[id], Run::NONE);
        let (run_id, pos) = if run.pos > 0 {
            // A unit-run continuation.
            let pos = run.pos + 1;
            let sd = recent.touch(run.id);
            if pos == 2 {
                pos2[sd] += 1;
                // Establishing: a unit-filtered system allocates a
                // buffer on this fetch. Advance the clock *before*
                // stamping the run so its own establishment does not
                // count against its later continuations.
                alloc_clock += 1;
            } else {
                pos3p[sd] += 1;
                pos3p_alloc[bucket(alloc_clock - run.allocs)] += 1;
            }
            (run.id, pos)
        } else {
            // A fresh unit run; in a filtered system this fetch falls
            // through the unit filter to the czone filters.
            let run_id = runs;
            runs += 1;
            recent.push(run_id);
            for cz in &mut czone {
                cz.fetch(word, alloc_clock);
            }
            (run_id, 1)
        };
        if let Some(next) = blocks.successor(id) {
            unit_expect[next] = Run {
                id: run_id,
                pos,
                allocs: alloc_clock,
            };
        }
    }

    StreamProfile {
        fetches,
        runs: u64::from(runs),
        pos2,
        pos3p,
        pos3p_alloc,
        czone: czone
            .into_iter()
            .map(|cz| CzoneSketch {
                czone_bits: cz.czone_bits,
                trained: cz.trained,
                cont: cz.cont,
            })
            .collect(),
    }
}

/// One czone partition the FSM tracks: its last miss word, candidate
/// stride and whether it has reached META2.
#[derive(Clone, Copy, Debug, Default)]
struct Partition {
    last: u64,
    stride: i64,
    meta2: bool,
}

/// The §7 czone FSM replica for one grid czone size, plus the expected
/// next words of the strided runs it has trained.
#[derive(Debug)]
struct CzoneState {
    czone_bits: u32,
    /// FIFO partition table as a ring: the `len` entries sit in slots
    /// `head, head + 1, …` (mod [`CzoneState::CAPACITY`]), oldest
    /// first. Tags live apart from their state so the lookup compares
    /// one short array.
    tags: [u64; CzoneState::CAPACITY],
    partitions: [Partition; CzoneState::CAPACITY],
    head: usize,
    len: usize,
    /// Trained strided runs keyed by their expected next word.
    expect: ExpectTable,
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
            tags: [0; Self::CAPACITY],
            partitions: [Partition::default(); Self::CAPACITY],
            head: 0,
            len: 0,
            expect: ExpectTable::new(),
            trained: 0,
            cont: vec![0; SD_BUCKETS + 1],
        }
    }

    /// A fetch that fell through the unit filter, at unit allocation
    /// clock `alloc_clock`.
    fn fetch(&mut self, word: u64, alloc_clock: u64) {
        // This czone size's allocation clock: unit establishments plus
        // its own trainings, since both allocate a buffer.
        let clock = alloc_clock + self.trained;
        // A trained strided run continuing at its expected word hits
        // the stream — it never reaches the filters.
        if let Some((stride, prev)) = self.expect.remove(word) {
            let da = clock - prev;
            self.cont[bucket(da)] += 1;
            if da < STALE_SD {
                if let Some(next) = word.checked_add_signed(stride) {
                    self.expect.insert(next, stride, clock);
                }
            }
            return;
        }
        if let Some(stride) = self.fsm(word) {
            self.trained += 1;
            if let Some(next) = word.checked_add_signed(stride) {
                self.expect.insert(next, stride, alloc_clock + self.trained);
            }
        }
    }

    /// Mirrors `CzoneFilter::lookup`'s FSM: returns the verified stride
    /// (in words) when a third constant-stride miss lands in one
    /// partition.
    fn fsm(&mut self, word: u64) -> Option<i64> {
        let tag = if self.czone_bits >= 64 {
            0
        } else {
            word >> self.czone_bits
        };
        // Compare all sixteen slots at once; live tags are unique, so
        // at most one live slot matches.
        let mut hits = 0u32;
        for (i, &t) in self.tags.iter().enumerate() {
            hits |= u32::from(t == tag) << i;
        }
        let live = ((1u32 << self.len) - 1) << self.head;
        hits &= (live | live >> Self::CAPACITY) & ((1 << Self::CAPACITY) - 1);
        if hits != 0 {
            let slot = hits.trailing_zeros() as usize;
            let Partition {
                last,
                stride,
                meta2,
            } = self.partitions[slot];
            let delta = word as i64 - last as i64;
            if delta == 0 {
                return None;
            }
            if meta2 && delta == stride {
                self.remove(slot);
                return Some(delta);
            }
            self.partitions[slot] = Partition {
                last: word,
                stride: delta,
                meta2: true,
            };
            return None;
        }
        if self.len == Self::CAPACITY {
            // Evict the oldest.
            self.head = (self.head + 1) % Self::CAPACITY;
            self.len -= 1;
        }
        let slot = (self.head + self.len) % Self::CAPACITY;
        self.tags[slot] = tag;
        self.partitions[slot] = Partition {
            last: word,
            stride: 0,
            meta2: false,
        };
        self.len += 1;
        None
    }

    /// Drops the entry in `slot`, moving each younger entry one slot
    /// toward the head so the ring stays in insertion order.
    fn remove(&mut self, slot: usize) {
        let tail = (self.head + self.len - 1) % Self::CAPACITY;
        let mut i = slot;
        while i != tail {
            let next = (i + 1) % Self::CAPACITY;
            self.tags[i] = self.tags[next];
            self.partitions[i] = self.partitions[next];
            i = next;
        }
        self.len -= 1;
    }
}

/// One trained strided run, filed under its expected next word.
#[derive(Clone, Copy, Debug)]
struct Expect {
    word: u64,
    /// Stride in words; never 0 for a trained run, so 0 marks an empty
    /// slot.
    stride: i64,
    /// Allocation clock at the run's previous fetch.
    clock: u64,
}

impl Expect {
    const EMPTY: Expect = Expect {
        word: 0,
        stride: 0,
        clock: 0,
    };
}

/// Expected word → trained run: a linear-probing hash table that grows
/// with its live entries (at most half full) and deletes by backward
/// shift, so no tombstones build up. It is only ever probed by key.
#[derive(Debug)]
struct ExpectTable {
    /// Power-of-two many slots.
    slots: Vec<Expect>,
    /// `64 - log2(slots.len())`: the hash keeps the top bits.
    shift: u32,
    live: usize,
}

impl ExpectTable {
    const INITIAL_SLOTS: usize = 16;

    fn new() -> Self {
        ExpectTable {
            slots: vec![Expect::EMPTY; Self::INITIAL_SLOTS],
            shift: 64 - Self::INITIAL_SLOTS.trailing_zeros(),
            live: 0,
        }
    }

    fn home(&self, word: u64) -> usize {
        (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `word`, or the empty slot that ends its probe.
    fn find(&self, word: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(word);
        while self.slots[i].stride != 0 && self.slots[i].word != word {
            i = (i + 1) & mask;
        }
        i
    }

    /// Removes the run expecting `word`, returning its (stride, clock).
    fn remove(&mut self, word: u64) -> Option<(i64, u64)> {
        let mut hole = self.find(word);
        let found = self.slots[hole];
        if found.stride == 0 {
            return None;
        }
        // Backward shift: pull each later entry of the probe cluster
        // into the hole when the hole lies on its probe path.
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let entry = self.slots[j];
            if entry.stride == 0 {
                break;
            }
            let home = self.home(entry.word);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = entry;
                hole = j;
            }
        }
        self.slots[hole] = Expect::EMPTY;
        self.live -= 1;
        Some((found.stride, found.clock))
    }

    /// Files a run under `word`, replacing any run already expecting it.
    fn insert(&mut self, word: u64, stride: i64, clock: u64) {
        debug_assert_ne!(stride, 0, "a trained stride is never 0");
        let mut i = self.find(word);
        if self.slots[i].stride == 0 {
            if 2 * (self.live + 1) > self.slots.len() {
                self.grow();
                i = self.find(word);
            }
            self.live += 1;
        }
        self.slots[i] = Expect {
            word,
            stride,
            clock,
        };
    }

    fn grow(&mut self) {
        let slots = vec![Expect::EMPTY; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, slots);
        self.shift -= 1;
        for entry in old.into_iter().filter(|e| e.stride != 0) {
            let i = self.find(entry.word);
            self.slots[i] = entry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(events: &[(bool, u64)]) -> LocalityProfile {
        // (is_fetch, block index); word = block * 8 (32-byte blocks,
        // 4-byte words).
        profile_events(
            32,
            4,
            events.iter().map(|&(is_fetch, block)| {
                if is_fetch {
                    ProfileEvent::Fetch {
                        block,
                        word: block * 8,
                    }
                } else {
                    ProfileEvent::Writeback { block }
                }
            }),
        )
    }

    #[test]
    fn reuse_distances_are_mattson() {
        // Blocks: A B C A  → A's re-touch sees 2 distinct blocks.
        let p = build(&[(true, 1), (true, 2), (true, 3), (true, 1)]);
        assert_eq!(p.reuse[0].count(), 1, "one finite distance");
        assert_eq!(p.events - p.reuse[0].count(), 3, "three first touches");
        assert_eq!(p.reuse[0].count_below(3), 1.0);
        assert_eq!(p.reuse[0].count_below(2), 0.0);
        assert_eq!(p.events, 4);
        assert_eq!(p.fetches, 4);
    }

    #[test]
    fn writebacks_join_the_reuse_stream_but_not_runs() {
        let p = build(&[(true, 1), (false, 1), (true, 2)]);
        assert_eq!(p.events, 3);
        assert_eq!(p.fetches, 2);
        assert_eq!(p.writebacks, 1);
        // The write-back re-touched block 1 at distance 0.
        assert_eq!(p.reuse[0].count_below(1), 1.0);
        // Fetch of block 2 continues the run started by fetch of 1
        // (the write-back does not interrupt the fetch stream).
        assert_eq!(p.streams.pos2_total(), 1);
    }

    #[test]
    fn coarser_granularities_merge_blocks() {
        // Blocks 0 and 1 share a 2x block; distance at 2x is a
        // re-touch, at 1x a cold pair.
        let p = build(&[(true, 0), (true, 1)]);
        assert_eq!(p.reuse[0].count(), 0, "two first touches at 1x");
        assert_eq!(p.reuse[1].count(), 1, "one first touch at 2x");
        assert_eq!(p.reuse[1].count_below(1), 1.0, "distance 0 at 2x");
    }

    #[test]
    fn sequential_fetches_form_one_run() {
        let p = build(&[(true, 10), (true, 11), (true, 12), (true, 13)]);
        assert_eq!(p.streams.runs, 1);
        assert_eq!(p.streams.pos2_total(), 1);
        assert_eq!(p.streams.pos3p_total(), 2);
        // All continuations at stack distance 0: one stream suffices.
        assert_eq!(p.streams.pos2_below(1), 1);
        assert_eq!(p.streams.pos3p_below(1), 2);
        assert_eq!(p.streams.pos3p_alloc_below(1), 2);
    }

    #[test]
    fn interleaved_runs_have_stack_distance_one() {
        // Two interleaved sequential streams: A10 B20 A11 B21 A12 B22.
        let p = build(&[
            (true, 10),
            (true, 20),
            (true, 11),
            (true, 21),
            (true, 12),
            (true, 22),
        ]);
        assert_eq!(p.streams.runs, 2);
        assert_eq!(p.streams.pos2_total() + p.streams.pos3p_total(), 4);
        // Every continuation saw exactly one other run in between.
        assert_eq!(p.streams.pos2_below(2) + p.streams.pos3p_below(2), 4);
        assert_eq!(p.streams.pos2_below(1) + p.streams.pos3p_below(1), 0);
    }

    #[test]
    fn isolated_fetches_do_not_pressure_the_allocation_clock() {
        // Run A advances while isolated blocks intervene: the all-runs
        // distance grows, the allocation distance stays 0 (isolated
        // misses never allocate past a unit filter, so run A's buffer
        // is untouched).
        let p = build(&[
            (true, 10),
            (true, 11), // pos2: establishes run A
            (true, 500),
            (true, 700),
            (true, 12), // pos3: all-sd 2, alloc-d 0
        ]);
        assert_eq!(p.streams.pos3p_below(1), 0);
        assert_eq!(p.streams.pos3p_below(3), 1);
        assert_eq!(p.streams.pos3p_alloc_below(1), 1);
    }

    #[test]
    fn interrupted_runs_survive_when_nothing_allocates() {
        // Run A establishes, then a long burst of isolated fetches
        // intervenes before A continues. Under allocate-on-miss the
        // buffer is long evicted (all-runs distance overflows); under a
        // unit filter nothing allocated, so A still hits.
        let mut events = vec![(true, 10u64), (true, 11)];
        for i in 0..100u64 {
            events.push((true, 1000 + i * 50));
        }
        events.push((true, 12));
        let p = build(&events);
        assert_eq!(p.streams.pos3p_total(), 1);
        assert_eq!(p.streams.pos3p_below(SD_BUCKETS), 0, "touched overflow");
        assert_eq!(p.streams.pos3p_alloc_below(1), 1, "no allocations between");
    }

    #[test]
    fn establishments_advance_the_allocation_clock() {
        // Run A establishes, run B establishes in between, A continues:
        // allocation distance 1 (B's establishment), so A hits with two
        // buffers but not one.
        let p = build(&[
            (true, 10),
            (true, 11), // A pos2
            (true, 20),
            (true, 21), // B pos2
            (true, 12), // A pos3: alloc-d 1
        ]);
        assert_eq!(p.streams.pos3p_alloc_below(1), 0);
        assert_eq!(p.streams.pos3p_alloc_below(2), 1);
    }

    #[test]
    fn czone_sketch_trains_strided_runs() {
        // Stride of 16 blocks = 128 words: a 12-bit czone keeps the run
        // in one partition; an 8-bit czone (256-word partitions) also
        // does (128 < 256)... use a large stride to split them.
        // Stride 512 words: partitions of 2^8=256 words miss it,
        // 2^12=4096 words catch it. Words 0..3584 stay inside one
        // 12-bit partition so training needs exactly three misses.
        let blocks: Vec<(bool, u64)> = (0..8u64).map(|i| (true, i * 64)).collect();
        let p = build(&blocks); // word stride = 64 * 8 = 512
        let s8 = p.streams.nearest_czone(8);
        let s12 = p.streams.nearest_czone(12);
        assert_eq!(s8.trained, 0, "8-bit czone cannot see a 512-word stride");
        assert!(s12.trained >= 1, "12-bit czone trains the run");
        // After training on fetches 1,2,3 the remaining 5 fetches are
        // continuations at distance 0.
        assert_eq!(s12.cont_below(1), 5);
    }

    #[test]
    fn nearest_czone_snaps_to_grid() {
        let p = build(&[(true, 0)]);
        assert_eq!(p.streams.nearest_czone(0).czone_bits, 8);
        assert_eq!(p.streams.nearest_czone(11).czone_bits, 10);
        assert_eq!(p.streams.nearest_czone(13).czone_bits, 12);
        assert_eq!(p.streams.nearest_czone(60).czone_bits, 24);
    }

    #[test]
    fn reuse_at_picks_nearest_granularity() {
        let p = build(&[(true, 0)]);
        assert!(std::ptr::eq(p.reuse_at(32), &p.reuse[0]));
        assert!(std::ptr::eq(p.reuse_at(64), &p.reuse[1]));
        assert!(std::ptr::eq(p.reuse_at(128), &p.reuse[2]));
        assert!(std::ptr::eq(p.reuse_at(4096), &p.reuse[2]));
        assert!(std::ptr::eq(p.reuse_at(8), &p.reuse[0]));
    }

    #[test]
    fn profiles_are_deterministic() {
        let events: Vec<(bool, u64)> = (0..500u64)
            .map(|i| {
                let block = (i * 2654435761) % 97;
                (i % 7 != 0, block)
            })
            .collect();
        let a = build(&events);
        let b = build(&events);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn l1_miss_rate_uses_recorded_counts() {
        let mut p = build(&[(true, 1)]);
        assert_eq!(p.l1_miss_rate(), 0.0);
        p.l1_refs = 200;
        p.l1_misses = 30;
        assert!((p.l1_miss_rate() - 0.15).abs() < 1e-12);
    }
}
