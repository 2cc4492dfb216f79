//! # streamsim — stream buffers as a secondary cache replacement
//!
//! A trace-driven reproduction of **Palacharla & Kessler, _Evaluating
//! Stream Buffers as a Secondary Cache Replacement_, ISCA 1994**, built
//! as a Rust workspace:
//!
//! * [`streamsim_trace`] — addresses, references, time sampling, trace
//!   statistics and a binary trace format;
//! * [`streamsim_cache`] — set-associative cache simulators (split L1,
//!   secondary caches, victim buffer, set sampling);
//! * [`streamsim_streams`] — the paper's contribution: multi-way stream
//!   buffers, the unit-stride allocation filter, and czone non-unit-
//!   stride detection (plus the minimum-delta alternative);
//! * [`streamsim_workloads`] — synthetic kernels reproducing the access
//!   patterns of the paper's fifteen NAS/PERFECT benchmarks;
//! * [`streamsim_core`] — miss-trace record/replay (the one way a
//!   memory system is simulated), and a driver for every table and
//!   figure in the paper's evaluation.
//!
//! This facade re-exports the commonly used types so most programs need
//! a single dependency.
//!
//! # Example
//!
//! ```
//! use streamsim::{record_miss_trace, run_streams, RecordOptions, StreamConfig};
//! use streamsim_workloads::generators::SequentialSweep;
//!
//! // Record the paper L1's miss stream once, then replay it into streams.
//! let trace = record_miss_trace(&SequentialSweep::default(), &RecordOptions::default())?;
//! let stats = run_streams(&trace, StreamConfig::paper_filtered(8)?);
//! assert_eq!(stats.lookups, trace.l1().misses());
//! assert!(stats.hit_rate() > 0.9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(clippy::print_stdout, clippy::dbg_macro)]
#![warn(missing_docs)]

pub use streamsim_cache::{
    AccessOutcome, CacheConfig, CacheConfigError, CacheStats, Replacement, SetAssocCache,
    SetSampling, SplitL1, VictimCache, WritePolicy,
};
pub use streamsim_core::{
    experiments, l2_geometry, paper, parse_flat_json_line, profile_trace, record_miss_trace,
    render_json_lines, render_text, replay, replay_chunked, replay_l2, replay_streams, report,
    run_l2, run_streams, stream_geometry, Artifact, ArtifactSink, Cell, ExecutorHandle,
    GuardedSink, JsonLinesSink, JsonValue, L1Summary, L2Observer, MissEvent, MissObserver,
    MissTrace, PartitionedObserver, ProfileArtifact, ProfilePhase, RecordOptions, StreamObserver,
    TextSink, TraceStore, Value,
};
pub use streamsim_streams::{
    Allocation, CzoneFilter, LengthBucket, LengthHistogram, MatchPolicy, MinDeltaDetector,
    StreamBuffer, StreamConfig, StreamConfigError, StreamOutcome, StreamStats, StreamSystem,
};
pub use streamsim_trace::{
    Access, AccessKind, Addr, BlockAddr, BlockSize, ChunkSampler, TraceStats, WordAddr, WordSize,
};
pub use streamsim_workloads::{
    all_benchmarks, benchmark, benchmark_names, collect_trace, generators, kernels, AddressSpace,
    Suite, Workload,
};
