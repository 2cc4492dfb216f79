//! Memory-system composition and the paper's experiment drivers.
//!
//! This crate ties the workspace together. A memory system is simulated
//! one way: record the primary cache's miss stream, then replay it into
//! whatever sits behind the primary cache.
//!
//! * [`MissTrace`] — the key performance lever for the paper's sweeps:
//!   the L1 miss stream does not depend on what sits behind the L1, so it
//!   is recorded once per workload ([`record_miss_trace`], optionally
//!   time-sampled through [`RecordOptions::sampling`]) together with the
//!   split L1's statistics ([`L1Summary`]), and replayed against any
//!   number of stream-buffer or secondary-cache configurations at a tiny
//!   fraction of the full simulation cost.
//! * [`TraceStore`] — memoizes recorded traces per (workload, L1
//!   geometry, sampling) key, and replay results per (trace, observer
//!   configuration); drivers sharing a store via
//!   [`experiments::ExperimentOptions`] simulate each L1, and replay
//!   each configuration over each trace, exactly once.
//! * [`replay`] — drives any number of [`MissObserver`]s over one
//!   recorded trace in a single pass: unified streams
//!   ([`StreamObserver`], or a [`FusedStreamObserver`] family),
//!   instruction/data [`PartitionedObserver`]s, secondary caches
//!   ([`L2Observer`]), or custom observers. [`replay_streams`] and
//!   [`replay_l2`] sweep many configurations; [`run_streams`] and
//!   [`run_l2`] are the one-observer wrappers.
//! * [`experiments`] — one driver per table and figure in the paper's
//!   evaluation (Tables 1–4, Figures 3, 5, 8, 9) plus the ablation suite,
//!   each printing measured results next to the paper's reported values.
//! * [`paper`] — the paper's reported numbers, transcribed.
//! * [`sink`] — structured result emission: every driver implements
//!   [`Artifact`] and renders through an [`ArtifactSink`] as aligned
//!   text tables ([`TextSink`]) or one flat JSON object per row
//!   ([`JsonLinesSink`]), which is what `streamsim-report --json` and
//!   `--diff` build on.
//! * [`report::TextTable`] — plain-text table rendering underneath the
//!   text sink.
//!
//! # Example
//!
//! ```
//! use streamsim_core::{record_miss_trace, run_streams, RecordOptions};
//! use streamsim_streams::StreamConfig;
//! use streamsim_workloads::generators::SequentialSweep;
//!
//! let trace = record_miss_trace(&SequentialSweep::default(), &RecordOptions::default())?;
//! let stats = run_streams(&trace, StreamConfig::paper_basic(4)?);
//! assert!(stats.hit_rate() > 0.9, "sequential sweeps stream perfectly");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(clippy::print_stdout, clippy::dbg_macro)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chart;
pub mod experiments;
pub mod locality;
mod miss_trace;
pub mod paper;
mod profile;
pub mod replay;
pub mod report;
mod runner;
pub mod sink;
mod trace_store;

pub use locality::{l2_geometry, profile_trace, stream_geometry};
pub use miss_trace::{
    record_miss_trace, run_l2, run_streams, L1Summary, MissEvent, MissTrace, RecordOptions,
};
pub use profile::{ProfileArtifact, ProfilePhase};
pub use replay::{
    replay, replay_chunked, replay_l2, replay_streams, FusedStreamObserver, L2Observer,
    MissObserver, MixedGeometry, PartitionedObserver, StreamObserver, REPLAY_CHUNK_EVENTS,
};
pub use runner::{parallel_map, parallel_map_on, parallel_map_with_threads, ExecutorHandle};
pub use sink::{
    parse_flat_json_line, render_json_lines, render_text, Artifact, ArtifactSink, Cell,
    GuardedSink, JsonLinesSink, JsonValue, TextSink, Value,
};
pub use trace_store::TraceStore;

// Re-export the workspace's key types so downstream users need only this
// crate (plus the facade) for common tasks.
pub use streamsim_cache::{CacheConfig, CacheStats, SetSampling};
pub use streamsim_streams::{StreamConfig, StreamStats};
pub use streamsim_trace::Access;
pub use streamsim_workloads::Workload;
