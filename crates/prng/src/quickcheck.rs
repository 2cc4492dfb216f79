//! `streamsim-quickcheck`: a property-test mini-harness.
//!
//! This replaced the `proptest` dev-dependency so the workspace tests run
//! fully offline. It keeps the three properties the suites actually
//! relied on:
//!
//! * **seeded case generation** — every case draws its inputs from a
//!   [`Gen`] seeded deterministically from the property name and case
//!   index, so a run is reproducible end to end;
//! * **failure-seed reporting** — when a case panics, the harness prints
//!   the case seed and the exact environment variable to replay it
//!   before re-raising the panic;
//! * **a fixed default case count** ([`DEFAULT_CASES`]), overridable per
//!   property with [`check_with`] or globally with `STREAMSIM_QC_CASES`.
//!
//! What it deliberately does *not* do is input shrinking: with fully
//! deterministic generation, replaying the failing seed under a debugger
//! has proven to be enough, and shrinking is by far the largest part of
//! a real property-testing library.
//!
//! # Writing a property
//!
//! ```
//! use streamsim_prng::quickcheck::{check, Gen};
//! use streamsim_prng::Rng;
//!
//! fn reverse_twice_is_identity(g: &mut Gen) {
//!     let xs = g.vec(0usize..50, |g| g.gen_range(0u64..1000));
//!     let mut ys = xs.clone();
//!     ys.reverse();
//!     ys.reverse();
//!     assert_eq!(xs, ys);
//! }
//!
//! check("reverse_twice_is_identity", reverse_twice_is_identity);
//! ```
//!
//! # Replaying a failure
//!
//! A failing property prints a line like
//!
//! ```text
//! [streamsim-quickcheck] property 'lru_keeps_the_most_recent_blocks' failed
//!     on case 17 of 96; replay with STREAMSIM_QC_SEED=0x4f3a99... cargo test lru_keeps
//! ```
//!
//! Setting `STREAMSIM_QC_SEED` runs every checked property once, with
//! exactly that generator seed and no panic catching, so the assertion
//! failure surfaces with its own message and backtrace.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::{Rng, SampleRange, SplitMix64, Xoshiro256StarStar};

/// Cases run per property unless overridden. Matches the order of
/// magnitude the former proptest suites used (48–128).
pub const DEFAULT_CASES: u32 = 64;

/// A property that generates more than `MAX_DISCARD_RATIO` discarded
/// cases per executed case fails — its preconditions are too narrow to
/// be testing anything.
pub const MAX_DISCARD_RATIO: u32 = 16;

/// Per-case input source: a seeded [`Xoshiro256StarStar`] plus vector
/// and choice helpers. All [`Rng`] methods are available through
/// `Deref`, so `g.gen_range(..)` / `g.gen_bool(..)` work directly.
pub struct Gen {
    rng: Xoshiro256StarStar,
}

impl Gen {
    /// A generator for one case; normally built by [`check`], public so
    /// properties can be driven manually (e.g. from a fuzzer or a bench).
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }

    /// A vector with uniform length in `len` whose elements come from
    /// `item` — the analogue of `proptest::collection::vec`.
    pub fn vec<T>(
        &mut self,
        len: impl SampleRange<Output = usize>,
        mut item: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.rng.gen_range(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// A uniformly chosen element of `options` — the analogue of
    /// `prop_oneof!` over constants.
    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        self.rng
            .choose(options)
            .expect("pick requires a non-empty slice")
            .clone()
    }

    /// A weighted choice: picks `options[i].1` with probability
    /// proportional to `options[i].0` (the analogue of weighted
    /// `prop_oneof!`).
    pub fn pick_weighted<T: Clone>(&mut self, options: &[(u32, T)]) -> T {
        let total: u32 = options.iter().map(|(w, _)| w).sum();
        assert!(total > 0, "pick_weighted requires positive total weight");
        let mut roll = self.rng.gen_range(0..total);
        for (w, v) in options {
            if roll < *w {
                return v.clone();
            }
            roll -= w;
        }
        unreachable!("roll < total")
    }

    /// Abandons the current case without failing it (the analogue of
    /// `prop_assume!(false)`); the harness draws a fresh case instead.
    /// Properties that discard more than [`MAX_DISCARD_RATIO`] cases per
    /// executed case fail.
    pub fn discard(&self) -> ! {
        std::panic::panic_any(Discarded)
    }

    /// Abandons the current case unless `condition` holds (the analogue
    /// of `prop_assume!`).
    pub fn assume(&self, condition: bool) {
        if !condition {
            self.discard();
        }
    }
}

impl std::ops::Deref for Gen {
    type Target = Xoshiro256StarStar;
    fn deref(&self) -> &Xoshiro256StarStar {
        &self.rng
    }
}

impl std::ops::DerefMut for Gen {
    fn deref_mut(&mut self) -> &mut Xoshiro256StarStar {
        &mut self.rng
    }
}

/// Sentinel panic payload for [`Gen::discard`].
struct Discarded;

/// Runs `property` for [`DEFAULT_CASES`] seeded cases (see [`check_with`]).
pub fn check(name: &str, property: impl FnMut(&mut Gen)) {
    check_with(name, DEFAULT_CASES, property);
}

/// Runs `property` for `cases` seeded cases, reporting the failing seed
/// on the first panic and re-raising it.
///
/// Environment overrides:
///
/// * `STREAMSIM_QC_CASES=<n>` — run `n` cases instead;
/// * `STREAMSIM_QC_SEED=<hex or dec>` — run exactly one case with that
///   generator seed and no panic catching (failure replay).
pub fn check_with(name: &str, cases: u32, mut property: impl FnMut(&mut Gen)) {
    if let Some(seed) = replay_seed() {
        eprintln!("[streamsim-quickcheck] replaying '{name}' with seed {seed:#x}");
        property(&mut Gen::from_seed(seed));
        return;
    }
    let cases = case_count().unwrap_or(cases).max(1);

    // The base seed mixes the property name so two properties in one
    // test binary never see correlated inputs.
    let mut mix = SplitMix64::new(0x5EED_CA5E_u64);
    for b in name.bytes() {
        mix = SplitMix64::new(mix.next() ^ u64::from(b));
    }
    let base = mix.next();

    let mut executed = 0u32;
    let mut discarded = 0u32;
    let mut attempt = 0u64;
    while executed < cases {
        let case_seed = SplitMix64::new(base.wrapping_add(attempt)).next();
        attempt += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            property(&mut Gen::from_seed(case_seed))
        }));
        match outcome {
            Ok(()) => executed += 1,
            Err(payload) if payload.is::<Discarded>() => {
                discarded += 1;
                assert!(
                    discarded / MAX_DISCARD_RATIO <= executed.max(1),
                    "property '{name}' discarded {discarded} cases after executing only \
                     {executed}; its preconditions reject nearly every generated input"
                );
            }
            Err(payload) => {
                eprintln!(
                    "[streamsim-quickcheck] property '{name}' failed on case {executed} \
                     (seed {case_seed:#018x}); replay with STREAMSIM_QC_SEED={case_seed:#x}"
                );
                resume_unwind(payload);
            }
        }
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "STREAMSIM_QC_SEED is the sanctioned replay knob"
)]
fn replay_seed() -> Option<u64> {
    let raw = std::env::var("STREAMSIM_QC_SEED").ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    Some(parsed.unwrap_or_else(|_| panic!("STREAMSIM_QC_SEED is not a valid u64: {raw:?}")))
}

#[expect(
    clippy::disallowed_methods,
    reason = "STREAMSIM_QC_CASES is the sanctioned case-count knob"
)]
fn case_count() -> Option<u32> {
    let raw = std::env::var("STREAMSIM_QC_CASES").ok()?;
    Some(
        raw.trim()
            .parse()
            .unwrap_or_else(|_| panic!("STREAMSIM_QC_CASES is not a valid u32: {raw:?}")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn runs_the_default_case_count() {
        let runs = AtomicU32::new(0);
        check("counts_cases", |_| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.load(Ordering::Relaxed), DEFAULT_CASES);
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let mut seen = Vec::new();
            check_with("determinism_probe", 16, |g| {
                seen.push(g.gen_range(0u64..1 << 40))
            });
            seen
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn different_properties_get_different_inputs() {
        let first_draw = |name: &str| {
            let mut v = 0;
            check_with(name, 1, |g| v = g.gen_range(0u64..u64::MAX));
            v
        };
        assert_ne!(first_draw("property_a"), first_draw("property_b"));
    }

    #[test]
    fn discards_are_replaced_by_fresh_cases() {
        let executed = AtomicU32::new(0);
        check_with("discard_probe", 32, |g| {
            // Discard roughly half of all cases.
            let keep = g.gen_bool(0.5);
            g.assume(keep);
            executed.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(executed.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn excessive_discarding_fails_the_property() {
        let result = catch_unwind(|| {
            check_with("hopeless", 8, |g| g.discard());
        });
        assert!(result.is_err());
    }

    #[test]
    fn failures_propagate() {
        let result = catch_unwind(|| {
            check_with("always_fails", 8, |_| panic!("intentional"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn vec_respects_length_bounds() {
        check_with("vec_lengths", 32, |g| {
            let xs = g.vec(2usize..5, |g| g.gen_range(0u64..10));
            assert!((2..5).contains(&xs.len()));
        });
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut heavy = 0u32;
        check_with("weights", 64, |g| {
            if g.pick_weighted(&[(3, true), (1, false)]) {
                heavy += 1;
            }
        });
        // 3:1 weighting over 64 cases: comfortably more than half.
        assert!(heavy > 32, "heavy = {heavy}");
    }
}
