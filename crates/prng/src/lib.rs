//! Deterministic, zero-dependency pseudo-random numbers for streamsim.
//!
//! The whole workspace builds offline; this crate replaces the `rand`
//! dependency with two tiny, well-studied generators:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer, used to expand
//!   a single `u64` seed into generator state (and nothing else: its
//!   lattice structure makes it a poor stream generator on its own);
//! * [`Xoshiro256StarStar`] — Blackman & Vigna's xoshiro256**, the
//!   workhorse generator behind every seeded decision in the simulator:
//!   random cache replacement, the synthetic kernels' gather/scatter
//!   index streams, and the property-test harness.
//!
//! Determinism is a correctness requirement of the reproduction, not a
//! convenience: trace-driven results are only comparable across stream
//! and cache configurations if the same seed yields a bit-identical
//! reference stream every run, on every platform. Both generators are
//! pinned to their published reference outputs by known-answer tests.
//!
//! The sampling surface ([`Rng::gen_range`], [`Rng::gen_bool`],
//! [`Rng::shuffle`], [`Rng::choose`]) mirrors the subset of `rand` the
//! workspace used, so call sites port one import at a time. Bounded
//! integers use Lemire's multiply-shift rejection method, so ranges are
//! exactly uniform, not merely modulo-reduced.
//!
//! # Example
//!
//! ```
//! use streamsim_prng::{Rng, Xoshiro256StarStar};
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let i = rng.gen_range(0u64..100);
//! assert!(i < 100);
//! let j = rng.gen_range(10usize..=20);
//! assert!((10..=20).contains(&j));
//! let mut xs = [1, 2, 3, 4, 5];
//! rng.shuffle(&mut xs);
//! ```
//!
//! The [`quickcheck`] module holds the property-test mini-harness that
//! replaced the `proptest` dev-dependency; see its docs for the replay
//! workflow (`STREAMSIM_QC_SEED` / `STREAMSIM_QC_CASES`).

#![deny(clippy::print_stdout, clippy::dbg_macro)]

pub mod quickcheck;
mod sample;
mod splitmix;
mod xoshiro;

pub use sample::{Rng, SampleRange};
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256StarStar;

/// The raw 64-bit output interface both generators expose; everything
/// else ([`Rng`]) is derived from it.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;
}
