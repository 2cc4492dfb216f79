//! Set-associative cache simulators for the streamsim workspace.
//!
//! This crate provides every cache the paper's memory systems need:
//!
//! * [`SetAssocCache`] — a generic set-associative cache with configurable
//!   size, associativity, block size, replacement policy ([`Replacement`])
//!   and write policy ([`WritePolicy`]). The paper's primary caches are
//!   64 KB 4-way write-back/write-allocate with random replacement; its
//!   secondary-cache comparison sweeps 64 KB–4 MB, 1–4-way, 64/128-byte
//!   blocks.
//! * [`SplitL1`] — the 64K I + 64K D split primary cache configuration.
//! * [`VictimCache`] — Jouppi's small fully-associative victim buffer
//!   (mentioned by the paper for direct-mapped primaries; used here in
//!   ablations).
//! * [`SetSampling`] — set sampling (Kessler, Hill & Wood) used by the
//!   paper to estimate secondary-cache hit rates cheaply (Table 4).
//!
//! Caches simulate *state*, not data: a line is a tag plus valid/dirty
//! bits, which is all hit-rate studies need.
//!
//! # Example
//!
//! ```
//! use streamsim_cache::{AccessOutcome, CacheConfig, SetAssocCache};
//! use streamsim_trace::{AccessKind, Addr};
//!
//! let mut cache = SetAssocCache::new(CacheConfig::paper_l1()?)?;
//! assert!(matches!(
//!     cache.access(Addr::new(0x1000), AccessKind::Load),
//!     AccessOutcome::Miss { .. }
//! ));
//! assert!(matches!(
//!     cache.access(Addr::new(0x1004), AccessKind::Load),
//!     AccessOutcome::Hit
//! ));
//! # Ok::<(), streamsim_cache::CacheConfigError>(())
//! ```

#![deny(clippy::print_stdout, clippy::dbg_macro)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
mod hierarchy;
pub mod reference;
mod sampling;
mod split;
mod stats;
mod victim;
mod victim_l1;

pub use cache::{AccessOutcome, DetailedOutcome, EvictedLine, SetAssocCache};
pub use config::{CacheConfig, CacheConfigError, Replacement, WritePolicy};
pub use hierarchy::{HierarchyOutcome, TwoLevel};
pub use sampling::SetSampling;
pub use split::SplitL1;
pub use stats::CacheStats;
pub use victim::{VictimCache, VictimOutcome};
pub use victim_l1::{VictimL1, VictimL1Outcome};
