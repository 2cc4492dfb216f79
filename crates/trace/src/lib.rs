//! Memory reference traces: addresses, accesses, sampling and trace statistics.
//!
//! This crate is the foundation of the `streamsim` workspace, a trace-driven
//! reproduction of Palacharla & Kessler, *Evaluating Stream Buffers as a
//! Secondary Cache Replacement* (ISCA 1994). Everything the simulators
//! consume is expressed in terms of the types defined here:
//!
//! * [`Addr`] — a 64-bit byte address,
//! * [`BlockAddr`] — a cache-block-granular address,
//! * [`Access`] — one memory reference (load, store or instruction fetch),
//! * [`BlockSize`] / [`WordSize`] — validated power-of-two granularities,
//! * [`ChunkSampler`] — the paper's 10 000-on / 90 000-off time-sampling
//!   scheme over chunks of references,
//! * [`TraceStats`] — descriptive statistics over a reference stream,
//! * [`io`] — a compact binary trace format for storing reference streams.
//!
//! # Example
//!
//! ```
//! use streamsim_trace::{Access, Addr, BlockSize, ChunkSampler};
//!
//! let block = BlockSize::new(32)?;
//! let trace: Vec<Access> = (0..8u64).map(|i| Access::load(Addr::new(i * 8))).collect();
//!
//! // Sample 2 references on, 2 off.
//! let mut sampled = Vec::new();
//! ChunkSampler::new(2, 2).sample(&trace, &mut |kept| sampled.extend_from_slice(kept));
//! assert_eq!(sampled.len(), 4);
//! assert_eq!(sampled[2].addr.block(block).index(), 1);
//! # Ok::<(), streamsim_trace::GranularityError>(())
//! ```

#![deny(clippy::print_stdout, clippy::dbg_macro)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod addr;
pub mod io;
mod sample;
mod stats;

pub use access::{Access, AccessKind};
pub use addr::{Addr, BlockAddr, BlockSize, GranularityError, WordAddr, WordSize};
pub use sample::ChunkSampler;
pub use stats::{StrideClass, StrideHistogram, TraceStats};
