//! Figure 3 — stream hit rate vs number of streams.
//!
//! Unified, unfiltered streams of depth two, allocated on every miss, for
//! 1–10 stream buffers. The paper's headline observations: most
//! benchmarks plateau between 50 % and 80 %, seven to eight streams
//! suffice, and `fftpde`/`appsp` (non-unit strides) and `adm`/`dyfesm`
//! (indirections) stay low.

use std::fmt;

use streamsim_streams::StreamConfig;

use crate::experiments::{stream_rows, workload_set, ExperimentOptions};
use crate::paper;
use crate::sink::{col, Artifact, ArtifactSink, Cell};

/// The stream counts swept, as in the figure's x-axis.
pub const STREAM_COUNTS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// One benchmark's hit-rate curve.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Hit rate (fraction) per entry of [`STREAM_COUNTS`].
    pub hit_rates: Vec<f64>,
}

impl Row {
    /// Hit rate with `n` streams, if swept.
    pub fn hit_at(&self, n: usize) -> Option<f64> {
        STREAM_COUNTS
            .iter()
            .position(|&c| c == n)
            .map(|i| self.hit_rates[i])
    }
}

/// Results of the Figure 3 reproduction.
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// Per-benchmark curves, in Table 1 order.
    pub rows: Vec<Row>,
}

impl Fig3 {
    /// The curve for one benchmark.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Runs the experiment. The stream-count configurations not yet
/// replayed replay over each benchmark's trace in a single pass.
pub fn run(options: &ExperimentOptions) -> Fig3 {
    let configs: Vec<StreamConfig> = STREAM_COUNTS
        .iter()
        .map(|&n| StreamConfig::paper_basic(n).expect("stream counts are positive"))
        .collect();
    let rows = stream_rows(options, workload_set(options.scale), &configs)
        .into_iter()
        .map(|(name, stats)| Row {
            name,
            hit_rates: stats.iter().map(|s| s.hit_rate()).collect(),
        })
        .collect();
    Fig3 { rows }
}

impl Artifact for Fig3 {
    fn artifact(&self) -> &'static str {
        "fig3"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        let mut columns = vec![col("bench", "bench")];
        columns.extend(
            STREAM_COUNTS
                .iter()
                .map(|n| col(n.to_string(), format!("hit_pct_{n}"))),
        );
        columns.push(col("paper@10", "paper_hit_pct_10"));
        sink.begin_table(
            self.artifact(),
            "hit_rate",
            "Figure 3: stream hit rate (%) vs number of streams (unified, depth 2, no filter)",
            &columns,
        );
        for r in &self.rows {
            let mut cells = vec![Cell::text(r.name.clone())];
            cells.extend(
                r.hit_rates
                    .iter()
                    .map(|h| Cell::num(h * 100.0, format!("{:.0}", h * 100.0))),
            );
            cells.push(paper::benchmark(&r.name).map_or(Cell::text(""), |p| {
                Cell::num(p.hit_basic_pct, format!("~{:.0}", p.hit_basic_pct))
            }));
            sink.row(&cells);
        }
        // A sketch of the figure for four representative curves.
        let mut chart =
            crate::chart::AsciiChart::new(STREAM_COUNTS.iter().map(|n| n.to_string()).collect());
        for name in ["mgrid", "appbt", "fftpde", "adm"] {
            if let Some(r) = self.row(name) {
                chart.series(name, r.hit_rates.clone());
            }
        }
        sink.note(chart.to_string().trim_end());
    }
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;

    #[test]
    fn hit_rates_are_monotone_enough_and_plateau() {
        let result = run(&ExperimentOptions::quick());
        assert_eq!(result.rows.len(), 15);
        for r in &result.rows {
            // More streams never hurts by much (LRU thrash can wiggle).
            let first = r.hit_rates[0];
            let last = *r.hit_rates.last().unwrap();
            assert!(
                last + 0.02 >= first,
                "{}: {first} -> {last} should not collapse",
                r.name
            );
            for h in &r.hit_rates {
                assert!((0.0..=1.0).contains(h), "{}", r.name);
            }
        }
    }

    #[test]
    fn stream_friendly_benchmarks_beat_irregular_ones() {
        let result = run(&ExperimentOptions::at_scale(Scale::Quick));
        let embar = result.row("embar").unwrap().hit_at(10).unwrap();
        let adm = result.row("adm").unwrap().hit_at(10).unwrap();
        assert!(
            embar > adm + 0.2,
            "embar ({embar}) should far exceed adm ({adm})"
        );
    }

    #[test]
    fn display_includes_paper_reference() {
        let result = run(&ExperimentOptions::quick());
        let text = result.to_string();
        assert!(text.contains("paper@10"));
        assert!(text.contains("fftpde"));
    }
}
