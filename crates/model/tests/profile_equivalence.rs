//! The dense profile pass is pinned, profile for profile, against the
//! frozen map-based [`streamsim_model::reference::ProfileBuilder`]:
//! equal by `PartialEq` and by `Debug` text over randomized event
//! streams. The streams mix the shapes each dense structure has to get
//! right — interleaved unit runs (more of them than the 64-deep run
//! stack holds), two runs predicting one block, strided runs in both
//! directions sized to every czone grid partition, write-backs to
//! blocks no fetch touches, addresses up to the 2^62 bound of a
//! recorded miss event, and re-touches both near and far back.
//!
//! A failing case prints its `STREAMSIM_QC_SEED`; `scripts/ci.sh`
//! runs the property once more on a fresh seed every time.

use streamsim_prng::quickcheck::{check_with, Gen};
use streamsim_prng::Rng;

use streamsim_model::reference::ProfileBuilder;
use streamsim_model::{profile_events, LocalityProfile, ProfileEvent, CZONE_GRID, SD_BUCKETS};

/// Addresses stay below this, the bound of a recorded miss event.
const ADDR_LIMIT: u64 = 1 << 62;

/// The reference builder's profile of `events`.
fn reference(block_bytes: u64, word_bytes: u64, events: &[ProfileEvent]) -> LocalityProfile {
    let mut builder = ProfileBuilder::new(block_bytes, word_bytes, events.len());
    for &event in events {
        match event {
            ProfileEvent::Fetch { block, word } => builder.fetch(block, word),
            ProfileEvent::Writeback { block } => builder.writeback(block),
        }
    }
    builder.finish()
}

fn assert_equivalent(block_bytes: u64, word_bytes: u64, events: &[ProfileEvent]) {
    let dense = profile_events(block_bytes, word_bytes, events.iter().copied());
    let oracle = reference(block_bytes, word_bytes, events);
    assert_eq!(dense, oracle, "{} events", events.len());
    assert_eq!(format!("{dense:?}"), format!("{oracle:?}"));
}

/// An event-stream generator at one L1 block and word size.
struct Stream {
    block_bytes: u64,
    word_bytes: u64,
    events: Vec<ProfileEvent>,
}

impl Stream {
    fn fetch(&mut self, addr: u64) {
        debug_assert!(addr < ADDR_LIMIT);
        self.events.push(ProfileEvent::Fetch {
            block: addr / self.block_bytes,
            word: addr / self.word_bytes,
        });
    }

    fn writeback(&mut self, addr: u64) {
        self.events.push(ProfileEvent::Writeback {
            block: addr / self.block_bytes,
        });
    }
}

/// A base address low in memory, in the middle, or just under the
/// 2^62 bound (leaving `room` bytes above it).
fn base(g: &mut Gen, room: u64) -> u64 {
    match g.gen_range(0u32..3) {
        0 => g.gen_range(0u64..1 << 20),
        1 => g.gen_range(0u64..1 << 40),
        _ => ADDR_LIMIT - room - g.gen_range(0u64..1 << 16),
    }
}

/// `runs` unit-stride runs of up to `len` blocks, fetched round-robin
/// or in random order; with more runs than [`SD_BUCKETS`], the deepest
/// continuations overflow both stream stack distances.
fn unit_runs(g: &mut Gen, s: &mut Stream) {
    let runs = g.pick(&[1usize, 2, 4, 16, SD_BUCKETS + 6]);
    let len = g.gen_range(1u64..10);
    let spacing = s.block_bytes * g.pick(&[1u64, 3, 64, 1 << 12]);
    let start = base(g, runs as u64 * (spacing + len * s.block_bytes));
    let shuffled = g.gen_bool(0.3);
    let mut next = vec![0u64; runs];
    for _ in 0..runs as u64 * len {
        let r = if shuffled {
            g.gen_range(0..runs)
        } else {
            next.iter()
                .enumerate()
                .min_by_key(|&(_, n)| n)
                .map_or(0, |(r, _)| r)
        };
        let addr = start + r as u64 * (spacing + len * s.block_bytes) + next[r] * s.block_bytes;
        next[r] += 1;
        s.fetch(addr);
    }
}

/// Two runs predicting the same block: one block fetched twice without
/// a continuation in between, then continued.
fn shared_prediction(g: &mut Gen, s: &mut Stream) {
    let addr = base(g, 8 * s.block_bytes);
    s.fetch(addr);
    if g.gen_bool(0.5) {
        s.fetch(base(g, s.block_bytes));
    }
    s.fetch(addr);
    for k in 1..g.gen_range(2u64..5) {
        s.fetch(addr + k * s.block_bytes);
    }
}

/// Constant-stride runs, ascending or descending, whose word strides
/// straddle one czone grid partition size so some sizes train them and
/// others never see three misses in one partition.
fn strided_runs(g: &mut Gen, s: &mut Stream) {
    let runs = g.gen_range(1usize..4);
    let len = g.gen_range(3i64..16);
    let mut cursors: Vec<(u64, i64)> = (0..runs)
        .map(|_| {
            let bits = g.pick(&CZONE_GRID);
            let words = (1i64 << (bits - g.gen_range(0u32..3))) + g.gen_range(-3i64..4);
            let words = words.max(2);
            let stride = if g.gen_bool(0.5) { words } else { -words };
            let span = (len as u64 + 1) * words as u64 * s.word_bytes;
            (base(g, span) + span, stride * s.word_bytes as i64)
        })
        .collect();
    for _ in 0..len {
        for cursor in &mut cursors {
            s.fetch(cursor.0);
            if let Some(next) = cursor.0.checked_add_signed(cursor.1) {
                if next < ADDR_LIMIT {
                    cursor.0 = next;
                }
            }
        }
        // Occasional noise between strided misses.
        if g.gen_bool(0.2) {
            s.fetch(base(g, 1 << 12));
        }
    }
}

/// Write-backs: of blocks already fetched (re-touches) or of blocks no
/// fetch ever names.
fn writebacks(g: &mut Gen, s: &mut Stream) {
    for _ in 0..g.gen_range(1usize..20) {
        let earlier = s
            .events
            .iter()
            .filter_map(|e| match *e {
                ProfileEvent::Fetch { block, .. } => Some(block),
                ProfileEvent::Writeback { .. } => None,
            })
            .nth(g.gen_range(0usize..64));
        match earlier {
            Some(block) if g.gen_bool(0.5) => s.events.push(ProfileEvent::Writeback { block }),
            _ => {
                let addr = base(g, 1 << 12);
                s.writeback(addr);
            }
        }
    }
}

/// Re-touches an earlier stretch of the stream, so reuse distances run
/// from a few events back to thousands.
fn repeat(g: &mut Gen, s: &mut Stream) {
    let n = s.events.len();
    if n == 0 {
        return;
    }
    let from = g.gen_range(0..n);
    let len = g.gen_range(1..=(n - from).min(400));
    let stretch: Vec<ProfileEvent> = s.events[from..from + len].to_vec();
    s.events.extend(stretch);
}

fn random_stream(g: &mut Gen) -> Stream {
    let mut s = Stream {
        block_bytes: g.pick(&[16u64, 32, 64, 128]),
        word_bytes: g.pick(&[4u64, 8]),
        events: Vec::new(),
    };
    // Some cases stay empty.
    for _ in 0..g.gen_range(0usize..12) {
        match g.gen_range(0u32..6) {
            0 => unit_runs(g, &mut s),
            1 => shared_prediction(g, &mut s),
            2 => strided_runs(g, &mut s),
            3 => writebacks(g, &mut s),
            4 => repeat(g, &mut s),
            _ => {
                for _ in 0..g.gen_range(1usize..40) {
                    let addr = base(g, 1 << 12);
                    s.fetch(addr);
                }
            }
        }
    }
    s
}

#[test]
fn dense_profile_equals_the_reference_builder() {
    check_with("dense_profile_equals_reference", 128, |g| {
        let s = random_stream(g);
        assert_equivalent(s.block_bytes, s.word_bytes, &s.events);
    });
}

#[test]
fn empty_trace_profiles_equal() {
    assert_equivalent(32, 4, &[]);
    let p = profile_events(32, 4, std::iter::empty());
    assert_eq!((p.events, p.fetches, p.writebacks), (0, 0, 0));
}

/// Writebacks alone: every block is write-only, so no unit run starts
/// and no prediction is ever looked up.
#[test]
fn writeback_only_trace_profiles_equal() {
    let events: Vec<ProfileEvent> = (0..300u64)
        .map(|i| ProfileEvent::Writeback {
            block: (i * 7) % 50,
        })
        .collect();
    assert_equivalent(32, 4, &events);
}
