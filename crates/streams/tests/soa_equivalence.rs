//! The SoA `StreamSystem` is pinned outcome-for-outcome against the
//! frozen pre-SoA [`streamsim_streams::reference::ReferenceStreamSystem`],
//! across every allocation policy and both match policies — the same
//! oracle pattern that pinned `SetAssocCache` against `ReferenceCache`.

use streamsim_prng::quickcheck::check_with;
use streamsim_prng::Rng;

use streamsim_streams::reference::ReferenceStreamSystem;
use streamsim_streams::{Allocation, MatchPolicy, StreamConfig, StreamSystem};
use streamsim_trace::{Addr, BlockSize, WordSize};

fn random_config(g: &mut streamsim_prng::quickcheck::Gen) -> StreamConfig {
    let allocation = match g.gen_range(0u32..4) {
        0 => Allocation::OnMiss,
        1 => Allocation::UnitFilter {
            entries: g.gen_range(1usize..20),
        },
        2 => Allocation::UnitAndStrideFilters {
            unit_entries: g.gen_range(1usize..20),
            stride_entries: g.gen_range(1usize..20),
            czone_bits: g.gen_range(8u32..24),
        },
        _ => Allocation::MinDelta {
            entries: g.gen_range(1usize..12),
            max_stride_words: g.gen_range(1i64..(1 << 20)),
        },
    };
    let policy = if g.gen_bool(0.5) {
        MatchPolicy::HeadOnly
    } else {
        MatchPolicy::AnyEntry
    };
    StreamConfig::new(g.gen_range(1usize..9), g.gen_range(1usize..6), allocation)
        .expect("parameters drawn from valid ranges")
        .with_match_policy(policy)
}

/// A miss stream that exercises hits, skips, filters and invalidations:
/// arithmetic runs (unit and non-unit strides, occasionally descending)
/// interleaved with isolated references and write-backs.
enum Event {
    Miss(u64),
    Writeback(u64),
}

fn random_events(g: &mut streamsim_prng::quickcheck::Gen) -> Vec<Event> {
    let mut events = Vec::new();
    let segments = g.gen_range(1usize..12);
    for _ in 0..segments {
        match g.gen_range(0u32..4) {
            // A strided run: the bread and butter of stream buffers.
            0 | 1 => {
                let base = g.gen_range(0u64..1 << 24);
                let stride = g.pick(&[8i64, 32, 64, 2048, -32, -2048]);
                let len = g.gen_range(2u64..40);
                for i in 0..len {
                    events.push(Event::Miss(base.wrapping_add_signed(stride * i as i64)));
                }
            }
            // Isolated noise.
            2 => {
                for _ in 0..g.gen_range(1usize..10) {
                    events.push(Event::Miss(g.gen_range(0u64..1 << 24)));
                }
            }
            // Write-backs, sometimes aimed near recent traffic so they
            // actually invalidate buffered prefetches.
            _ => {
                for _ in 0..g.gen_range(1usize..5) {
                    events.push(Event::Writeback(g.gen_range(0u64..1 << 24)));
                }
            }
        }
    }
    events
}

#[test]
fn soa_system_matches_the_reference_everywhere() {
    check_with("soa_system_matches_the_reference_everywhere", 96, |g| {
        let cfg = random_config(g);
        let events = random_events(g);
        let mut soa = StreamSystem::new(cfg);
        let mut reference = ReferenceStreamSystem::new(cfg);
        for (i, event) in events.iter().enumerate() {
            match *event {
                Event::Miss(raw) => {
                    let addr = Addr::new(raw);
                    assert_eq!(
                        soa.on_l1_miss(addr),
                        reference.on_l1_miss(addr),
                        "outcome diverged at event {i} for {cfg}"
                    );
                }
                Event::Writeback(raw) => {
                    let block = Addr::new(raw).block(BlockSize::default());
                    soa.on_writeback(block);
                    reference.on_writeback(block);
                }
            }
        }
        assert_eq!(soa.snapshot(), reference_snapshot(&reference));
        soa.finalize();
        reference.finalize();
        assert_eq!(soa.stats(), reference.stats(), "final stats for {cfg}");
    });
}

/// The decoded fast path used by the fused replay observer agrees with
/// the reference under the same randomized drive.
#[test]
fn decoded_soa_path_matches_the_reference() {
    check_with("decoded_soa_path_matches_the_reference", 96, |g| {
        let cfg = random_config(g);
        let events = random_events(g);
        let mut soa = StreamSystem::new(cfg);
        let mut reference = ReferenceStreamSystem::new(cfg);
        for event in &events {
            match *event {
                Event::Miss(raw) => {
                    let addr = Addr::new(raw);
                    let block = addr.block(BlockSize::default());
                    let word = addr.word(WordSize::default());
                    assert_eq!(
                        soa.on_l1_miss_decoded(addr, block, word),
                        reference.on_l1_miss(addr)
                    );
                }
                Event::Writeback(raw) => {
                    let block = Addr::new(raw).block(BlockSize::default());
                    soa.on_writeback(block);
                    reference.on_writeback(block);
                }
            }
        }
        soa.finalize();
        reference.finalize();
        assert_eq!(soa.stats(), reference.stats(), "final stats for {cfg}");
    });
}

/// Renders the reference's buffers in the production snapshot format so
/// the two systems' buffer states can be compared textually.
fn reference_snapshot(reference: &ReferenceStreamSystem) -> String {
    // The reference intentionally has no snapshot method (it is not a
    // debugging tool); rebuild the production format from its buffers.
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "buffer  active  stride      head block  queued  run hits"
    );
    for (i, b) in reference.buffers().iter().enumerate() {
        let head = b
            .head_block()
            .map_or_else(|| "-".to_owned(), |h| format!("{:#x}", h.index()));
        let _ = writeln!(
            out,
            "{i:>6}  {:>6}  {:>+9} B  {head:>10}  {:>6}  {:>8}",
            if b.is_active() { "yes" } else { "no" },
            b.stride_bytes(),
            b.len(),
            b.current_run(),
        );
    }
    out
}
