//! The seed-sweep harness: run a DST property over many seeds, report
//! the failing seed for one-command replay.
//!
//! This mirrors the `streamsim-quickcheck` workflow (the two share a
//! philosophy: deterministic generation makes shrinking unnecessary),
//! but with its own environment variables so a DST replay does not
//! perturb ordinary property tests running in the same process tree:
//!
//! * `STREAMSIM_DST_SEED=<hex or dec>` — run every sweep once, with
//!   exactly that seed and no panic catching (failure replay);
//! * `STREAMSIM_DST_SEEDS=<n>` — override the number of seeds swept.
//!
//! A failing sweep prints
//!
//! ```text
//! [streamsim-dst] sweep 'panic_payload_never_masked' failed on seed 17
//!     of 200 (seed 0x4f3a...); replay with STREAMSIM_DST_SEED=0x4f3a...
//! ```
//!
//! and re-raises the original panic payload.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use streamsim_prng::SplitMix64;

/// Seeds swept per property unless overridden — "a few hundred", kept
/// small enough that the full DST suite stays in tier-1 time budget.
pub const DEFAULT_SWEEP_SEEDS: u64 = 200;

/// Runs `case` over [`DEFAULT_SWEEP_SEEDS`] derived seeds (see
/// [`sweep_with`]).
pub fn sweep(name: &str, case: impl FnMut(u64)) {
    sweep_with(name, DEFAULT_SWEEP_SEEDS, case);
}

/// Runs `case` once per derived seed, reporting the failing seed on the
/// first panic and re-raising it.
///
/// The seed passed to `case` is the *replay* seed: running with
/// `STREAMSIM_DST_SEED` set to the printed value calls `case` exactly
/// once with that value, so a case must derive everything (worker
/// count, fault plan, schedule) from its argument alone — which is
/// precisely what [`crate::SimExecutor::from_seed`] does.
pub fn sweep_with(name: &str, seeds: u64, mut case: impl FnMut(u64)) {
    if let Some(seed) = replay_seed() {
        eprintln!("[streamsim-dst] replaying '{name}' with STREAMSIM_DST_SEED={seed:#x}");
        case(seed);
        return;
    }
    let seeds = seed_count().unwrap_or(seeds).max(1);

    // Mix the sweep name into the seed stream so two sweeps in one test
    // binary never see correlated runs (same scheme as quickcheck).
    let mut mix = SplitMix64::new(0xD57_5EED_u64);
    for b in name.bytes() {
        mix = SplitMix64::new(mix.next() ^ u64::from(b));
    }
    let base = mix.next();

    for i in 0..seeds {
        let seed = SplitMix64::new(base.wrapping_add(i)).next();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(seed))) {
            eprintln!(
                "[streamsim-dst] sweep '{name}' failed on seed {i} of {seeds} \
                 (seed {seed:#018x}); replay with STREAMSIM_DST_SEED={seed:#x}"
            );
            resume_unwind(payload);
        }
    }
}

/// The replay seed from `STREAMSIM_DST_SEED`, if set (hex with `0x`
/// prefix, or decimal).
#[expect(
    clippy::disallowed_methods,
    reason = "STREAMSIM_DST_SEED is the sanctioned replay knob"
)]
pub fn replay_seed() -> Option<u64> {
    let raw = std::env::var("STREAMSIM_DST_SEED").ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("STREAMSIM_DST_SEED is not a valid u64: {raw:?}")))
}

#[expect(
    clippy::disallowed_methods,
    reason = "STREAMSIM_DST_SEEDS is the sanctioned sweep-width knob"
)]
fn seed_count() -> Option<u64> {
    let raw = std::env::var("STREAMSIM_DST_SEEDS").ok()?;
    Some(
        raw.trim()
            .parse()
            .unwrap_or_else(|_| panic!("STREAMSIM_DST_SEEDS is not a valid u64: {raw:?}")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_the_requested_seed_count() {
        let mut runs = 0u64;
        sweep_with("count_probe", 37, |_| runs += 1);
        assert_eq!(runs, 37);
    }

    #[test]
    fn seeds_are_deterministic_across_runs() {
        let collect = || {
            let mut seen = Vec::new();
            sweep_with("determinism_probe", 16, |seed| seen.push(seed));
            seen
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn different_sweeps_get_different_seed_streams() {
        let first = |name: &str| {
            let mut v = 0;
            sweep_with(name, 1, |seed| v = seed);
            v
        };
        assert_ne!(first("sweep_a"), first("sweep_b"));
    }

    #[test]
    fn failures_propagate_with_their_payload() {
        let result = catch_unwind(|| {
            sweep_with("always_fails", 8, |seed| {
                assert_ne!(seed, seed, "intentional failure");
            });
        });
        assert!(result.is_err());
    }
}
