//! Memory-traffic comparison — the paper's cost argument quantified.
//!
//! The paper's economic pitch (§1, §9): replace the megabytes of L2 SRAM
//! with a few stream buffers and spend the savings on main-memory
//! bandwidth, because streams cost *some* extra bandwidth but very little
//! hardware. This experiment measures the bandwidth side of that trade
//! on identical reference streams, for three systems:
//!
//! 1. **L1 + memory** — the demand baseline: every L1 miss and dirty
//!    write-back moves one block.
//! 2. **L1 + filtered streams + memory** — the paper's proposal: demand
//!    traffic plus the useless prefetches the filter failed to prevent.
//! 3. **L1 + 1 MB L2 + memory** — the conventional system: only L2
//!    misses and L2 write-backs reach memory.
//!
//! The stream system always moves *more* than the baseline and the L2
//! system less (when the working set fits); the paper's claim is that the
//! stream overhead is modest once filtered — which is what the measured
//! ratios show.

use std::fmt;

use streamsim_cache::{CacheConfig, TwoLevel};
use streamsim_streams::{StreamConfig, StreamStats};
use streamsim_trace::{BlockSize, ChunkSampler};

use crate::experiments::{workload_set, ExperimentOptions};
use crate::sink::{col, Artifact, ArtifactSink, Cell};
use crate::MissTrace;

/// The conventional system's L2 capacity.
pub const L2_BYTES: u64 = 1 << 20;

/// One benchmark's traffic measurements (all in bytes).
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Demand traffic of the L1-only system.
    pub baseline_bytes: u64,
    /// Traffic of the stream system (demand + useless prefetches).
    pub streams_bytes: u64,
    /// Traffic escaping the 1 MB L2 to memory.
    pub l2_bytes: u64,
    /// The stream statistics behind `streams_bytes`.
    pub streams: StreamStats,
    /// The L2 local hit rate of the conventional system.
    pub l2_local_hit: f64,
}

impl Row {
    /// Stream-system traffic relative to the demand baseline.
    pub fn streams_ratio(&self) -> f64 {
        self.streams_bytes as f64 / self.baseline_bytes.max(1) as f64
    }

    /// Conventional-system traffic relative to the demand baseline.
    pub fn l2_ratio(&self) -> f64 {
        self.l2_bytes as f64 / self.baseline_bytes.max(1) as f64
    }
}

/// Results of the traffic comparison.
#[derive(Clone, Debug)]
pub struct Traffic {
    /// Per-benchmark rows, in Table 1 order.
    pub rows: Vec<Row>,
}

impl Traffic {
    /// The row for one benchmark.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

fn baseline_bytes(trace: &MissTrace) -> u64 {
    (trace.fetches() + trace.writebacks()) * trace.l1_block().bytes()
}

/// Runs the experiment.
///
/// The stream side replays the stored miss trace; the conventional
/// two-level system inherently needs the *full* reference stream (its L1
/// is part of the simulated hierarchy), so it re-generates the workload
/// rather than replaying the trace.
pub fn run(options: &ExperimentOptions) -> Traffic {
    let record = options.record_options();
    let store = options.store.clone();
    let rows = options.parallel_map(workload_set(options.scale), move |w| {
        let trace = store.record(w.as_ref(), &record).expect("valid L1");
        let streams = store
            .stream_stats(
                w.as_ref(),
                &record,
                &[StreamConfig::paper_filtered(10).expect("valid")],
            )
            .expect("valid L1")[0];
        let baseline = baseline_bytes(&trace);
        let streams_bytes = baseline + streams.useless_prefetches() * trace.l1_block().bytes();

        // Conventional system over the same references.
        let l2_cfg = CacheConfig::new(L2_BYTES, 2, BlockSize::default()).expect("valid L2");
        let mut two_level =
            TwoLevel::new(record.icache, record.dcache, l2_cfg).expect("valid hierarchy");
        match record.sampling {
            // The same window record_miss_trace applies: chunks split
            // into kept sub-slices by the sampler.
            Some((on, off)) => {
                let mut sampler = ChunkSampler::new(on, off);
                w.generate_chunks(&mut Vec::new(), &mut |chunk| {
                    sampler.sample(chunk, &mut |kept| {
                        for &a in kept {
                            two_level.access(a);
                        }
                    });
                });
            }
            None => w.generate(&mut |a| {
                two_level.access(a);
            }),
        }
        streamsim_obs::count(
            streamsim_obs::Counter::L1Probes,
            two_level.l1().combined_stats().accesses(),
        );

        Row {
            name: w.name().to_owned(),
            baseline_bytes: baseline,
            streams_bytes,
            l2_bytes: two_level.memory_traffic_bytes(),
            streams,
            l2_local_hit: two_level.l2_stats().hit_rate(),
        }
    });
    Traffic { rows }
}

impl Artifact for Traffic {
    fn artifact(&self) -> &'static str {
        "traffic"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        sink.begin_table(
            self.artifact(),
            "memory_traffic",
            "Memory traffic vs the L1-only demand baseline (10 filtered streams vs a 1 MB L2)",
            &[
                col("bench", "bench"),
                col("baseline MB", "baseline_mb"),
                col("streams x", "streams_ratio"),
                col("L2 x", "l2_ratio"),
                col("stream hit %", "stream_hit_pct"),
                col("L2 local hit %", "l2_local_hit_pct"),
            ],
        );
        for r in &self.rows {
            let baseline_mb = r.baseline_bytes as f64 / (1 << 20) as f64;
            let stream_hit = r.streams.hit_rate() * 100.0;
            let l2_hit = r.l2_local_hit * 100.0;
            sink.row(&[
                Cell::text(r.name.clone()),
                Cell::num(baseline_mb, format!("{baseline_mb:.1}")),
                Cell::num(r.streams_ratio(), format!("{:.2}", r.streams_ratio())),
                Cell::num(r.l2_ratio(), format!("{:.2}", r.l2_ratio())),
                Cell::num(stream_hit, format!("{stream_hit:.0}")),
                Cell::num(l2_hit, format!("{l2_hit:.0}")),
            ]);
        }
        sink.note(
            "streams trade bounded extra bandwidth (the filtered EB) for megabytes of\n\
             SRAM; the L2 saves bandwidth only where the working set fits it",
        );
    }
}

impl fmt::Display for Traffic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_traffic_is_baseline_plus_filtered_eb() {
        let result = run(&ExperimentOptions::quick());
        assert_eq!(result.rows.len(), 15);
        for r in &result.rows {
            assert!(r.streams_ratio() >= 1.0, "{}", r.name);
            // Filtered EB is bounded; traffic should stay within ~2x.
            assert!(r.streams_ratio() < 2.5, "{}: {}", r.name, r.streams_ratio());
        }
    }

    #[test]
    fn l2_never_increases_read_traffic_much() {
        // An L2 can add at most its own write-back inflation; with equal
        // block sizes it cannot multiply demand reads.
        let result = run(&ExperimentOptions::quick());
        for r in &result.rows {
            assert!(r.l2_ratio() <= 1.3, "{}: {}", r.name, r.l2_ratio());
        }
    }

    #[test]
    fn l2_saves_traffic_where_there_is_reuse() {
        let result = run(&ExperimentOptions::quick());
        // At least a handful of benchmarks have enough reuse for the L2
        // to cut traffic substantially.
        let saved = result.rows.iter().filter(|r| r.l2_ratio() < 0.7).count();
        assert!(saved >= 3, "only {saved} benchmarks saved traffic");
    }
}
