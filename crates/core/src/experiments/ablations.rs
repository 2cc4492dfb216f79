//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Beyond the paper's headline figures, these sweeps probe each design
//! decision in isolation:
//!
//! * **depth** — the paper fixes stream depth at two "to make as few
//!   assumptions about the memory system as possible"; how much do
//!   deeper FIFOs matter for hit rate (they mostly cover latency, which
//!   hit rates do not see)?
//! * **match policy** — head-only comparators (the paper's hardware) vs
//!   a fully associative lookup over all entries.
//! * **filter size** — the paper states 8–10 entries suffice; sweep it.
//! * **stride scheme** — the czone partition filter vs the rejected
//!   minimum-delta scheme (§7).
//! * **partitioned streams** — the MacroTek variant with separate
//!   instruction/data streams vs the paper's unified streams.
//! * **victim buffer** — a direct-mapped L1 with Jouppi's victim cache,
//!   the configuration the paper sidesteps by simulating a 4-way L1.
//! * **L1 replacement policy** — the paper's L1 uses random replacement;
//!   random leaves *survivors* in a streamed-over set that punch gaps in
//!   the miss stream and break head-only streams, so LRU/PLRU L1s make
//!   streams look better. Quantified here.
//! * **set sampling** — the paper estimated Table 4's secondary-cache hit
//!   rates by set sampling [11]; this sweep validates the estimator
//!   against full simulation.

use std::fmt;

use streamsim_cache::{CacheConfig, Replacement, SetSampling, VictimL1, VictimL1Outcome};
use streamsim_streams::{Allocation, MatchPolicy, StreamConfig, StreamSystem};
use streamsim_trace::BlockSize;
use streamsim_workloads::Workload;

use crate::experiments::{stream_rows, workload_set, ExperimentOptions};
use crate::sink::{col, Artifact, ArtifactSink, Cell};
use crate::{replay, PartitionedObserver, RecordOptions};

/// The benchmarks used for ablations: one stream-friendly, one strided,
/// one short-burst, one irregular.
pub const ABLATION_BENCHMARKS: [&str; 4] = ["mgrid", "fftpde", "appbt", "adm"];

/// Results of the ablation suite.
#[derive(Clone, Debug)]
pub struct Ablations {
    /// Hit rate per (benchmark, depth) for depths [1, 2, 4, 8].
    pub depth: Vec<(String, Vec<f64>)>,
    /// Hit rate per (benchmark, [head-only, any-entry]).
    pub match_policy: Vec<(String, [f64; 2])>,
    /// (hit rate, EB) per (benchmark, filter entries) for [4, 8, 16, 32].
    pub filter_size: Vec<(String, Vec<(f64, f64)>)>,
    /// Hit rate per (benchmark, [czone, min-delta]).
    pub stride_scheme: Vec<(String, [f64; 2])>,
    /// Hit rate per (benchmark, [unified, partitioned]).
    pub topology: Vec<(String, [f64; 2])>,
    /// Per benchmark: (direct-mapped L1 data miss rate, fraction of those
    /// misses the 16-entry victim buffer recovers, and the stream hit
    /// rate over the surviving misses — Jouppi's full original front end).
    pub victim: Vec<(String, f64, f64, f64)>,
    /// Stream hit rate per (benchmark, [random, LRU, tree-PLRU] L1).
    pub l1_replacement: Vec<(String, [f64; 3])>,
    /// Per benchmark: (full L2 hit rate, 1/4-set-sampled estimate) for a
    /// 1 MB secondary cache.
    pub sampling: Vec<(String, f64, f64)>,
}

/// Stream depths swept.
pub const DEPTHS: [usize; 4] = [1, 2, 4, 8];
/// Filter sizes swept.
pub const FILTER_SIZES: [usize; 4] = [4, 8, 16, 32];

fn ablation_workloads(options: &ExperimentOptions) -> Vec<Box<dyn Workload>> {
    workload_set(options.scale)
        .into_iter()
        .filter(|w| ABLATION_BENCHMARKS.contains(&w.name()))
        .collect()
}

/// Runs the ablation suite.
pub fn run(options: &ExperimentOptions) -> Ablations {
    let record = options.record_options();
    let basic = StreamConfig::paper_basic(10).expect("valid");

    // Each family sweep is one stream request per benchmark: cells other
    // drivers already replayed (the paper's basic, filtered and strided
    // systems) are served from the store and the rest replay as one fused
    // family. The per-benchmark fan-out runs under the Executor seam so
    // DST can drive its interleavings (tests/dst_engine.rs).
    let family = |configs: &[StreamConfig]| {
        stream_rows(options, ablation_workloads(options), configs).into_iter()
    };

    let depth_configs: Vec<StreamConfig> = DEPTHS
        .iter()
        .map(|&d| StreamConfig::new(10, d, Allocation::OnMiss).expect("valid"))
        .collect();
    let depth = family(&depth_configs)
        .map(|(name, stats)| (name, stats.iter().map(|s| s.hit_rate()).collect()))
        .collect();

    let match_policy = family(&[
        basic,
        StreamConfig::new(10, 4, Allocation::OnMiss)
            .expect("valid")
            .with_match_policy(MatchPolicy::AnyEntry),
    ])
    .map(|(name, stats)| (name, [stats[0].hit_rate(), stats[1].hit_rate()]))
    .collect();

    let filter_configs: Vec<StreamConfig> = FILTER_SIZES
        .iter()
        .map(|&entries| {
            StreamConfig::new(10, 2, Allocation::UnitFilter { entries }).expect("valid")
        })
        .collect();
    let filter_size = family(&filter_configs)
        .map(|(name, stats)| {
            let cells = stats
                .iter()
                .map(|s| (s.hit_rate(), s.extra_bandwidth()))
                .collect();
            (name, cells)
        })
        .collect();

    let stride_scheme = family(&[
        StreamConfig::paper_strided(10, 16).expect("valid"),
        StreamConfig::new(
            10,
            2,
            Allocation::MinDelta {
                entries: 16,
                max_stride_words: 1 << 20,
            },
        )
        .expect("valid"),
    ])
    .map(|(name, stats)| (name, [stats[0].hit_rate(), stats[1].hit_rate()]))
    .collect();

    // Topology: the unified system is an ordinary stream request; the
    // partitioned variant couples two systems behind one observer, so it
    // replays the unified miss stream on its own.
    let topology = options.parallel_map(ablation_workloads(options), |w| {
        let unified = options
            .store
            .stream_stats(w.as_ref(), &record, &[basic])
            .expect("valid L1")[0];
        // Instruction misses feed 2 streams and data misses 8: the same
        // total hardware as the unified ten.
        let mut part = PartitionedObserver::new(
            StreamConfig::paper_basic(2).expect("valid"),
            StreamConfig::paper_basic(8).expect("valid"),
        );
        let trace = options.store.record(w.as_ref(), &record).expect("valid L1");
        replay(&trace, &mut [&mut part]);
        (w.name().to_owned(), [unified.hit_rate(), part.hit_rate()])
    });

    // L1 replacement policy: re-record each miss trace under random,
    // LRU and tree-PLRU primaries and compare stream hit rates. The
    // store keys on the full RecordOptions, so each policy gets its own
    // cached trace.
    let l1_replacement = options.parallel_map(ablation_workloads(options), |w| {
        let rates = [
            Replacement::Random { seed: 0x5eed },
            Replacement::Lru,
            Replacement::TreePlru,
        ]
        .map(|policy| {
            let cfg = record.dcache.with_replacement(policy);
            let policy_record = RecordOptions {
                icache: cfg,
                dcache: cfg,
                sampling: record.sampling,
            };
            options
                .store
                .stream_stats(w.as_ref(), &policy_record, &[basic])
                .expect("valid L1")[0]
                .hit_rate()
        });
        (w.name().to_owned(), rates)
    });

    // Set-sampling validation: the paper's Table 4 estimator against
    // full simulation of a 1 MB L2 — one L2 request, so both cells share
    // one pass when neither is stored yet.
    let sampling = options.parallel_map(ablation_workloads(options), |w| {
        let cfg = CacheConfig::new(1 << 20, 2, record.dcache.block()).expect("valid L2");
        let cells = [(cfg, None), (cfg, Some(SetSampling::new(2, 1)))];
        let stats = options
            .store
            .l2_stats(w.as_ref(), &record, &cells)
            .expect("valid");
        (
            w.name().to_owned(),
            stats[0].hit_rate(),
            stats[1].hit_rate(),
        )
    });

    // Victim buffer: Jouppi's original front end — a direct-mapped data
    // cache with a 16-entry victim cache, backed by ten stream buffers
    // that see only the misses the victim buffer could not recover.
    let victim = options.parallel_map(ablation_workloads(options), |w| {
        let l1_bytes = match options.scale {
            crate::experiments::Scale::Paper => 64 << 10,
            crate::experiments::Scale::Quick => 16 << 10,
        };
        let cfg = CacheConfig::new(l1_bytes, 1, BlockSize::default()).expect("valid");
        let mut l1 = VictimL1::new(cfg, 16).expect("valid");
        let mut streams = StreamSystem::new(StreamConfig::paper_basic(10).expect("valid"));
        w.generate_chunks(&mut Vec::new(), &mut |chunk| {
            for &access in chunk {
                if access.kind == streamsim_trace::AccessKind::IFetch {
                    continue;
                }
                if l1.access(access.addr, access.kind) == VictimL1Outcome::Miss {
                    streams.on_l1_miss(access.addr);
                }
            }
        });
        streams.finalize();
        (
            w.name().to_owned(),
            l1.cache_stats().data_miss_rate(),
            l1.recovery_rate(),
            streams.stats().hit_rate(),
        )
    });

    Ablations {
        depth,
        match_policy,
        filter_size,
        stride_scheme,
        topology,
        victim,
        l1_replacement,
        sampling,
    }
}

impl Artifact for Ablations {
    fn artifact(&self) -> &'static str {
        "ablations"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        let pct = |v: f64| Cell::num(v * 100.0, format!("{:.0}", v * 100.0));

        let mut columns = vec![col("bench", "bench")];
        columns.extend(
            DEPTHS
                .iter()
                .map(|d| col(format!("depth {d}"), format!("hit_pct_depth{d}"))),
        );
        sink.begin_table(
            self.artifact(),
            "depth",
            "Ablation: hit rate (%) vs stream depth (10 streams, no filter)",
            &columns,
        );
        for (name, rates) in &self.depth {
            let mut cells = vec![Cell::text(name.clone())];
            cells.extend(rates.iter().map(|&h| pct(h)));
            sink.row(&cells);
        }

        sink.begin_table(
            self.artifact(),
            "match_policy",
            "Ablation: match policy, hit rate (%)",
            &[
                col("bench", "bench"),
                col("head-only", "head_only_hit_pct"),
                col("any-entry (depth 4)", "any_entry_hit_pct"),
            ],
        );
        for (name, [head, any]) in &self.match_policy {
            sink.row(&[Cell::text(name.clone()), pct(*head), pct(*any)]);
        }

        let mut columns = vec![col("bench", "bench")];
        columns.extend(
            FILTER_SIZES
                .iter()
                .map(|s| col(format!("{s} entries"), format!("hit_pct_f{s}"))),
        );
        sink.begin_table(
            self.artifact(),
            "filter_size",
            "Ablation: unit-filter size, hit % / EB %",
            &columns,
        );
        for (name, cells) in &self.filter_size {
            let mut row = vec![Cell::text(name.clone())];
            row.extend(cells.iter().map(|&(h, eb)| {
                Cell::num(h * 100.0, format!("{:.0}/{:.0}", h * 100.0, eb * 100.0))
            }));
            sink.row(&row);
        }

        sink.begin_table(
            self.artifact(),
            "stride_scheme",
            "Ablation: stride-detection scheme, hit rate (%)",
            &[
                col("bench", "bench"),
                col("czone (16b)", "czone_hit_pct"),
                col("min-delta", "min_delta_hit_pct"),
            ],
        );
        for (name, [czone, min_delta]) in &self.stride_scheme {
            sink.row(&[Cell::text(name.clone()), pct(*czone), pct(*min_delta)]);
        }

        sink.begin_table(
            self.artifact(),
            "topology",
            "Ablation: unified vs partitioned (2 I + 8 D) streams, hit rate (%)",
            &[
                col("bench", "bench"),
                col("unified (10)", "unified_hit_pct"),
                col("partitioned", "partitioned_hit_pct"),
            ],
        );
        for (name, [unified, part]) in &self.topology {
            sink.row(&[Cell::text(name.clone()), pct(*unified), pct(*part)]);
        }

        sink.begin_table(
            self.artifact(),
            "victim",
            "Ablation: Jouppi's front end — direct-mapped L1 + 16-entry victim buffer + streams",
            &[
                col("bench", "bench"),
                col("DM miss %", "dm_miss_pct"),
                col("victim recovery %", "victim_recovery_pct"),
                col("stream hit %", "stream_hit_pct"),
            ],
        );
        for (name, miss, recovery, stream_hit) in &self.victim {
            sink.row(&[
                Cell::text(name.clone()),
                Cell::num(miss * 100.0, format!("{:.2}", miss * 100.0)),
                pct(*recovery),
                pct(*stream_hit),
            ]);
        }

        sink.begin_table(
            self.artifact(),
            "l1_replacement",
            "Ablation: stream hit rate (%) vs L1 replacement policy (10 streams)",
            &[
                col("bench", "bench"),
                col("random (paper)", "random_hit_pct"),
                col("LRU", "lru_hit_pct"),
                col("tree-PLRU", "plru_hit_pct"),
            ],
        );
        for (name, [random, lru, plru]) in &self.l1_replacement {
            sink.row(&[
                Cell::text(name.clone()),
                pct(*random),
                pct(*lru),
                pct(*plru),
            ]);
        }

        sink.begin_table(
            self.artifact(),
            "sampling",
            "Ablation: set-sampling estimator vs full simulation (1 MB L2 local hit %)",
            &[
                col("bench", "bench"),
                col("full", "full_hit_pct"),
                col("1/4 sampled", "sampled_hit_pct"),
            ],
        );
        for (name, full, est) in &self.sampling {
            sink.row(&[
                Cell::text(name.clone()),
                Cell::num(full * 100.0, format!("{:.1}", full * 100.0)),
                Cell::num(est * 100.0, format!("{:.1}", est * 100.0)),
            ]);
        }
    }
}

impl fmt::Display for Ablations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Ablations {
        run(&ExperimentOptions::quick())
    }

    #[test]
    fn covers_the_selected_benchmarks() {
        let a = quick();
        assert_eq!(a.depth.len(), ABLATION_BENCHMARKS.len());
        assert_eq!(a.victim.len(), ABLATION_BENCHMARKS.len());
        let text = a.to_string();
        assert!(text.contains("depth 8"));
        assert!(text.contains("min-delta"));
    }

    #[test]
    fn deeper_streams_do_not_hurt_sequential_codes() {
        let a = quick();
        let (_, rates) = a.depth.iter().find(|(n, _)| n == "mgrid").unwrap();
        assert!(
            rates[3] + 0.05 >= rates[0],
            "depth 8 ({}) vs depth 1 ({})",
            rates[3],
            rates[0]
        );
    }

    #[test]
    fn any_entry_matching_never_loses_to_head_only() {
        let a = quick();
        for (name, [head, any]) in &a.match_policy {
            assert!(any + 0.05 >= *head, "{name}: any {any} vs head {head}");
        }
    }

    #[test]
    fn victim_buffer_front_end_produces_sane_numbers() {
        let a = quick();
        for (name, miss, recovery, stream_hit) in &a.victim {
            assert!(*miss > 0.0, "{name} should miss sometimes");
            assert!((0.0..=1.0).contains(recovery), "{name}");
            assert!((0.0..=1.0).contains(stream_hit), "{name}");
        }
    }

    #[test]
    fn lru_l1_streams_at_least_as_well_as_random() {
        // Random replacement leaves survivors that break streams; LRU
        // evicts cleanly, so stream hit rates should not degrade.
        let a = quick();
        for (name, [random, lru, _]) in &a.l1_replacement {
            assert!(
                lru + 0.08 >= *random,
                "{name}: LRU {lru} vs random {random}"
            );
        }
    }

    #[test]
    fn set_sampling_estimates_track_full_simulation() {
        let a = quick();
        for (name, full, est) in &a.sampling {
            assert!(
                (full - est).abs() < 0.12,
                "{name}: full {full} vs estimate {est}"
            );
        }
    }
}
