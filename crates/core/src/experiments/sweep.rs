//! Design-space sweep — stream-buffer configurations scored on the
//! (hit rate, extra bandwidth) plane, with an analytical fast path.
//!
//! The paper's figures each fix all but one axis of the stream-buffer
//! design space. This driver sweeps the whole space at once — stream
//! count × depth × allocation policy, [`cells`]` ≈ 1000` cells — and
//! reports each cell's mean hit rate and mean extra bandwidth across
//! the fifteen benchmarks, marking the Pareto frontier.
//!
//! Simulating every cell replays every trace against the full family.
//! With `prescreen` enabled ([`crate::experiments::ExperimentOptions`]),
//! the driver instead scores all cells in closed form from each
//! workload's [`streamsim_model::LocalityProfile`] (one extra pass per
//! trace, memoized in the shared store), keeps only the predicted
//! Pareto frontier plus a tolerance band ([`PRESCREEN_BAND`]), and
//! simulates just those survivors. The band is calibrated against
//! full-grid simulation (see `tests/model_validation.rs` at the
//! workspace root); the bench harness (`BENCH_model.json`) pins that
//! the pruned sweep reproduces the full sweep's frontier exactly while
//! simulating at most a quarter of the cells.

use std::fmt;
use std::sync::Arc;

use streamsim_model::{keep_with_band, Band, Objectives};
use streamsim_streams::{Allocation, StreamConfig};

use crate::experiments::{miss_traces, workload_set, ExperimentOptions};
use crate::locality::stream_geometry;
use crate::sink::{col, Artifact, ArtifactSink, Cell};
use crate::{replay_streams, MissTrace};

/// Stream counts swept (the paper's 1–10 plus wider points).
pub const STREAM_COUNTS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16];

/// Buffer depths swept (the paper uses 2; 1–8 spans the design space).
pub const DEPTHS: [usize; 5] = [1, 2, 3, 4, 8];

/// Unit-filter sizes swept.
pub const FILTER_ENTRIES: [usize; 5] = [2, 4, 8, 16, 32];

/// Czone sizes swept for the stride-filtered policy (word-address bits).
pub const CZONE_BITS: [u32; 9] = [8, 10, 12, 14, 16, 18, 20, 22, 24];

/// The pruning band, calibrated against full-grid simulation (the
/// `print_model_errors` calibration aid in `tests/model_validation.rs`
/// reports survivors and frontier fidelity per candidate band): the
/// model's predicted frontier already contains every measured-frontier
/// cell, so even a 0.0025 band reproduces the frontier exactly; this
/// band keeps a 2x slack over that while pruning almost nine tenths of
/// the grid. The bench (`BENCH_model.json`) and the reduced-grid test
/// below re-assert exact frontier reproduction whenever the model or
/// the kernels change.
pub const PRESCREEN_BAND: Band = Band {
    hit: 0.005,
    eb: 0.005,
};

/// One swept configuration.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Stable label, e.g. `unit16 n=4 d=2` — the row key in reports.
    pub label: String,
    /// Allocation-policy label, e.g. `onmiss`, `unit16`, `czone12`.
    pub policy: String,
    /// Stream buffers.
    pub streams: usize,
    /// Entries per buffer.
    pub depth: usize,
    /// The simulator configuration.
    pub config: StreamConfig,
}

/// The full cell grid, in deterministic sweep order.
pub fn cells() -> Vec<SweepCell> {
    let mut policies: Vec<(String, Allocation)> = vec![("onmiss".to_owned(), Allocation::OnMiss)];
    for &entries in &FILTER_ENTRIES {
        policies.push((format!("unit{entries}"), Allocation::UnitFilter { entries }));
    }
    for &czone_bits in &CZONE_BITS {
        policies.push((
            format!("czone{czone_bits}"),
            Allocation::UnitAndStrideFilters {
                unit_entries: StreamConfig::PAPER_FILTER_ENTRIES,
                stride_entries: StreamConfig::PAPER_FILTER_ENTRIES,
                czone_bits,
            },
        ));
    }
    let mut grid = Vec::new();
    for (policy, alloc) in &policies {
        for &streams in &STREAM_COUNTS {
            for &depth in &DEPTHS {
                grid.push(SweepCell {
                    label: format!("{policy} n={streams} d={depth}"),
                    policy: policy.clone(),
                    streams,
                    depth,
                    config: StreamConfig::new(streams, depth, *alloc)
                        .expect("sweep grid parameters are valid"),
                });
            }
        }
    }
    grid
}

/// One scored cell in the results.
#[derive(Clone, Debug)]
pub struct Row {
    /// The swept configuration.
    pub cell: SweepCell,
    /// Mean stream hit rate across the benchmarks (fraction).
    pub hit: f64,
    /// Mean extra bandwidth across the benchmarks (paper closed form,
    /// fraction).
    pub eb: f64,
    /// Whether the cell is on the measured Pareto frontier.
    pub frontier: bool,
}

/// Results of the sweep.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Scored cells, in sweep order. Under pre-screening only the
    /// survivors appear (the pruned cells were never simulated).
    pub rows: Vec<Row>,
    /// Total cells in the grid.
    pub cells_total: usize,
    /// Cells actually simulated (equals `cells_total` without
    /// pre-screening).
    pub cells_simulated: usize,
    /// Whether the analytical pre-screen pruned the grid.
    pub prescreened: bool,
}

impl Sweep {
    /// The row for a cell label, if simulated.
    pub fn row(&self, label: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.cell.label == label)
    }

    /// Labels of the measured Pareto-frontier cells, in sweep order.
    pub fn frontier_labels(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| r.frontier)
            .map(|r| r.cell.label.as_str())
            .collect()
    }
}

/// Simulates `grid` against every trace and returns each cell's mean
/// (hit, eb) in grid order. One fused replay pass per workload.
///
/// The replays go to the executor longest trace first, so the last one
/// to start is short and no worker idles behind a long tail; the event
/// count is a property of the input, so every run hands them out in
/// the same order. The rows return to Table 1 order before averaging,
/// so each mean sums in the same order whatever the schedule.
fn simulate(
    options: &ExperimentOptions,
    traces: Vec<(String, Arc<MissTrace>)>,
    grid: &[SweepCell],
) -> Vec<(f64, f64)> {
    let configs: Vec<StreamConfig> = grid.iter().map(|c| c.config).collect();
    let depths: Vec<usize> = grid.iter().map(|c| c.depth).collect();
    let mut longest_first: Vec<(usize, Arc<MissTrace>)> = traces
        .into_iter()
        .map(|(_, trace)| trace)
        .enumerate()
        .collect();
    longest_first.sort_by_key(|(_, trace)| std::cmp::Reverse(trace.events().len()));
    let mut per_workload = options.parallel_map(longest_first, move |(index, trace)| {
        let row = replay_streams(&trace, &configs)
            .iter()
            .zip(&depths)
            .map(|(s, &depth)| (s.hit_rate(), s.extra_bandwidth_paper_formula(depth)))
            .collect::<Vec<(f64, f64)>>();
        (index, row)
    });
    per_workload.sort_unstable_by_key(|&(index, _)| index);
    let workloads = per_workload.len().max(1) as f64;
    let mut means = vec![(0.0, 0.0); grid.len()];
    for (_, row) in &per_workload {
        for (mean, &(hit, eb)) in means.iter_mut().zip(row) {
            mean.0 += hit / workloads;
            mean.1 += eb / workloads;
        }
    }
    means
}

/// Marks the measured Pareto frontier over `scores` (maximize hit,
/// minimize eb).
fn frontier_flags(scores: &[(f64, f64)]) -> Vec<bool> {
    let objectives: Vec<Objectives> = scores
        .iter()
        .map(|&(hit, eb)| Objectives { hit, eb })
        .collect();
    streamsim_model::frontier(&objectives)
}

/// Runs the sweep: full simulation of the grid, or — with
/// `options.prescreen` — the model-pruned subset.
pub fn run(options: &ExperimentOptions) -> Sweep {
    run_grid(options, cells())
}

/// [`run`] over an explicit grid. Tests exercise the pre-screen
/// mechanics on a reduced grid (the full grid is release-bench
/// territory — see `crates/bench/benches/model.rs`).
fn run_grid(options: &ExperimentOptions, grid: Vec<SweepCell>) -> Sweep {
    let cells_total = grid.len();
    let grid = if options.prescreen {
        prescreen(options, grid)
    } else {
        grid
    };
    let traces = miss_traces(options);
    let scores = simulate(options, traces, &grid);
    let flags = frontier_flags(&scores);
    let rows: Vec<Row> = grid
        .into_iter()
        .zip(scores)
        .zip(flags)
        .map(|((cell, (hit, eb)), frontier)| Row {
            cell,
            hit,
            eb,
            frontier,
        })
        .collect();
    Sweep {
        cells_simulated: rows.len(),
        rows,
        cells_total,
        prescreened: options.prescreen,
    }
}

/// Scores every cell of `grid` in closed form from the memoized
/// locality profiles and keeps the predicted frontier plus the band, in
/// grid order.
fn prescreen(options: &ExperimentOptions, grid: Vec<SweepCell>) -> Vec<SweepCell> {
    let workloads = workload_set(options.scale);
    let profiles = options
        .store
        .profiles_on(
            &workloads,
            &options.record_options(),
            options.executor.executor(),
        )
        .expect("paper L1 configuration is valid");
    let n = profiles.len().max(1) as f64;
    let predicted: Vec<Objectives> = grid
        .iter()
        .map(|cell| {
            let mut hit = 0.0;
            let mut eb = 0.0;
            for profile in &profiles {
                let geom = stream_geometry(profile, &cell.config)
                    .expect("every sweep-grid cell is modelled");
                let est = streamsim_model::predict_streams(profile, geom);
                hit += est.hit_rate / n;
                eb += est.extra_bandwidth / n;
            }
            Objectives { hit, eb }
        })
        .collect();
    let keep = keep_with_band(&predicted, PRESCREEN_BAND);
    grid.into_iter()
        .zip(&keep)
        .filter_map(|(cell, &k)| k.then_some(cell))
        .collect()
}

impl Artifact for Sweep {
    fn artifact(&self) -> &'static str {
        "sweep"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        sink.begin_table(
            self.artifact(),
            "cells",
            "Design-space sweep: mean hit rate (%) and extra bandwidth (%) per stream configuration",
            &[
                col("cell", "cell"),
                col("policy", "policy"),
                col("n", "streams"),
                col("depth", "depth"),
                col("hit", "hit_pct"),
                col("EB", "eb_pct"),
                col("front", "frontier"),
            ],
        );
        for r in &self.rows {
            sink.row(&[
                Cell::text(r.cell.label.clone()),
                Cell::text(r.cell.policy.clone()),
                Cell::num(r.cell.streams as f64, r.cell.streams.to_string()),
                Cell::num(r.cell.depth as f64, r.cell.depth.to_string()),
                Cell::num(r.hit * 100.0, format!("{:.1}", r.hit * 100.0)),
                Cell::num(r.eb * 100.0, format!("{:.1}", r.eb * 100.0)),
                Cell::num(
                    if r.frontier { 1.0 } else { 0.0 },
                    if r.frontier { "*" } else { "" }.to_owned(),
                ),
            ]);
        }
        if self.prescreened {
            // The marker table `--diff` uses to tell "pruned by the
            // model" apart from "removed by a code change": rows absent
            // from a file whose artifact carries this marker were
            // skipped, not lost.
            sink.begin_table(
                self.artifact(),
                "prescreen",
                "Analytical pre-screen: cells simulated vs total",
                &[
                    col("mode", "mode"),
                    col("total", "cells_total"),
                    col("simulated", "cells_simulated"),
                    col("band_hit", "band_hit"),
                    col("band_eb", "band_eb"),
                ],
            );
            sink.row(&[
                Cell::text("prescreen"),
                Cell::num(self.cells_total as f64, self.cells_total.to_string()),
                Cell::num(
                    self.cells_simulated as f64,
                    self.cells_simulated.to_string(),
                ),
                Cell::num(PRESCREEN_BAND.hit, format!("{}", PRESCREEN_BAND.hit)),
                Cell::num(PRESCREEN_BAND.eb, format!("{}", PRESCREEN_BAND.eb)),
            ]);
        }
        sink.note(&format!(
            "{} of {} cells simulated ({}); * marks the measured Pareto frontier (max hit, min EB)",
            self.cells_simulated,
            self.cells_total,
            if self.prescreened {
                "model pre-screen kept the predicted frontier + band"
            } else {
                "full sweep"
            },
        ));
    }
}

impl fmt::Display for Sweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_the_documented_size() {
        let grid = cells();
        assert_eq!(
            grid.len(),
            STREAM_COUNTS.len() * DEPTHS.len() * (1 + FILTER_ENTRIES.len() + CZONE_BITS.len())
        );
        assert_eq!(grid.len(), 975);
        // Labels are unique — they are the report row keys.
        let mut labels: Vec<&str> = grid.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), grid.len());
    }

    /// A grid small enough for debug-mode tests: every policy family,
    /// but only a corner of the (streams, depth) plane. The full grid
    /// runs under the release bench and the CI model smoke.
    fn reduced_grid() -> Vec<SweepCell> {
        cells()
            .into_iter()
            .filter(|c| {
                matches!(c.policy.as_str(), "onmiss" | "unit16" | "czone12")
                    && matches!(c.streams, 1 | 2 | 4 | 8)
                    && matches!(c.depth, 1 | 2 | 8)
            })
            .collect()
    }

    #[test]
    fn prescreen_keeps_the_full_sweep_frontier() {
        let mut options = ExperimentOptions::quick();
        let full = run_grid(&options, reduced_grid());
        assert_eq!(full.cells_simulated, full.cells_total);
        options.prescreen = true;
        let pruned = run_grid(&options, reduced_grid());
        assert!(pruned.prescreened);
        assert!(
            pruned.cells_simulated < pruned.cells_total,
            "pre-screen must prune something"
        );
        // Every measured-frontier cell of the full sweep survives, with
        // identical measurements, and the frontier is reproduced
        // exactly.
        assert_eq!(full.frontier_labels(), pruned.frontier_labels());
        for label in full.frontier_labels() {
            let f = full.row(label).unwrap();
            let p = pruned.row(label).unwrap();
            assert_eq!((f.hit, f.eb), (p.hit, p.eb), "{label}");
        }
    }

    /// The longest-first fan-out changes only who replays which trace
    /// when: the pre-screened sweep's rows are bit-identical under
    /// serial, wide and seeded simulated schedules. One store is shared,
    /// so the traces and profiles are recorded once and only the
    /// survivor replay reruns under each executor.
    #[test]
    fn prescreened_rows_are_identical_across_executors() {
        use streamsim_dst::{SimExecutor, ThreadExecutor};

        use crate::ExecutorHandle;

        let base = ExperimentOptions {
            prescreen: true,
            ..ExperimentOptions::quick()
        };
        let rows = |executor: ExecutorHandle| -> Vec<(String, u64, u64, bool)> {
            let options = base.clone().with_executor(executor);
            run_grid(&options, reduced_grid())
                .rows
                .into_iter()
                .map(|r| (r.cell.label, r.hit.to_bits(), r.eb.to_bits(), r.frontier))
                .collect()
        };
        let serial = rows(ExecutorHandle::new(ThreadExecutor::new(1)));
        assert!(!serial.is_empty());
        for threads in [2, 3] {
            let got = rows(ExecutorHandle::new(ThreadExecutor::new(threads)));
            assert_eq!(got, serial, "{threads} threads");
        }
        for seed in 0..4 {
            let got = rows(ExecutorHandle::new(SimExecutor::new(
                seed,
                2 + seed as usize % 3,
            )));
            assert_eq!(got, serial, "SimExecutor seed {seed}");
        }
    }

    #[test]
    fn display_renders_cells_and_frontier() {
        let options = ExperimentOptions {
            prescreen: true,
            ..ExperimentOptions::quick()
        };
        let sweep = run_grid(&options, reduced_grid());
        let text = sweep.to_string();
        assert!(text.contains("onmiss"), "{text}");
        assert!(text.contains("prescreen"), "{text}");
        assert!(!sweep.frontier_labels().is_empty());
    }
}
