//! Stream buffers — the paper's primary contribution.
//!
//! This crate implements the full prefetching hardware evaluated by
//! Palacharla & Kessler (ISCA 1994):
//!
//! * [`StreamBuffer`] — one FIFO prefetch buffer (Figure 2): a queue of
//!   prefetched cache-block tags with valid bits plus an adder that
//!   generates the next prefetch address.
//! * [`StreamSystem`] — a multi-way collection of stream buffers with LRU
//!   reallocation, head comparison against every buffer in parallel, and
//!   write-back invalidation, exactly as §3 describes. Every system
//!   fetches 32-byte blocks, the block every recorded L1 uses, and
//!   detects strides in 4-byte words. All allocation policies are
//!   supported:
//!     - [`Allocation::OnMiss`] — Jouppi's original scheme: every miss that
//!       also misses the streams reallocates the LRU stream (§5);
//!     - [`Allocation::UnitFilter`] — the paper's bandwidth-saving filter:
//!       allocate only after misses to two consecutive cache blocks (§6,
//!       Figure 4);
//!     - [`Allocation::UnitAndStrideFilters`] — the unit filter backed by
//!       the **czone** non-unit-stride detector with its 3-state FSM
//!       (§7, Figures 6 & 7);
//!     - [`Allocation::MinDelta`] — the alternative "minimum delta"
//!       stride scheme the paper mentions and rejects on hardware-cost
//!       grounds (§7), included for the ablation benchmark.
//! * Full bandwidth accounting ([`StreamStats`]): every prefetch is
//!   tracked to a useful / flushed / invalidated / dead disposition, from
//!   which the paper's *extra bandwidth* (EB) metric is computed directly,
//!   alongside the closed-form approximation the paper uses.
//! * [`LengthHistogram`] — the stream-length distribution of Table 3.
//!
//! # Example
//!
//! ```
//! use streamsim_streams::{StreamConfig, StreamSystem};
//! use streamsim_trace::Addr;
//!
//! // Ten streams of depth two, allocate-on-miss (the paper's §5 setup).
//! let mut streams = StreamSystem::new(StreamConfig::paper_basic(10)?);
//!
//! // A unit-stride miss pattern: block 0, 1, 2, ... (32-byte blocks).
//! let mut hits = 0;
//! for i in 0..100u64 {
//!     if streams.on_l1_miss(Addr::new(i * 32)).is_hit() {
//!         hits += 1;
//!     }
//! }
//! // The first miss allocates; every subsequent miss hits the stream head.
//! assert_eq!(hits, 99);
//! # Ok::<(), streamsim_streams::StreamConfigError>(())
//! ```

#![deny(clippy::print_stdout, clippy::dbg_macro)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod config;
mod czone;
mod min_delta;
pub mod reference;
mod scan;
mod stats;
mod system;
mod unit_filter;

pub use buffer::StreamBuffer;
pub use config::{Allocation, MatchPolicy, StreamConfig, StreamConfigError};
pub use czone::{CzoneFilter, FsmState};
pub use min_delta::MinDeltaDetector;
pub use stats::{FilterStats, LeadHistogram, LengthBucket, LengthHistogram, StreamStats};
pub use system::{StreamOutcome, StreamSystem};
