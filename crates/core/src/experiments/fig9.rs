//! Figure 9 — hit-rate sensitivity to czone size.
//!
//! For the three benchmarks with significant non-unit strides (`appsp`,
//! `fftpde`, `trfd`), sweep the czone size. The paper's finding: the
//! czone must be a little more than twice the stride — too small and
//! three strided references never share a partition; too large and
//! unrelated streams collide in one partition and defeat the FSM
//! (fftpde works between 16 and 23 bits).

use std::fmt;

use streamsim_streams::StreamConfig;

use crate::experiments::{stream_rows, workload_set, ExperimentOptions};
use crate::sink::{col, Artifact, ArtifactSink, Cell};

/// The czone sizes swept (bits of the word address), as in the figure.
pub const CZONE_BITS: [u32; 9] = [10, 12, 14, 16, 18, 20, 22, 24, 26];

/// The benchmarks shown in Figure 9.
pub const FIG9_BENCHMARKS: [&str; 3] = ["appsp", "fftpde", "trfd"];

/// One benchmark's sensitivity curve.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub name: String,
    /// Hit rate (fraction) per entry of [`CZONE_BITS`].
    pub hit_rates: Vec<f64>,
}

impl Row {
    /// Hit rate at a given czone size, if swept.
    pub fn hit_at(&self, bits: u32) -> Option<f64> {
        CZONE_BITS
            .iter()
            .position(|&b| b == bits)
            .map(|i| self.hit_rates[i])
    }
}

/// Results of the Figure 9 reproduction.
#[derive(Clone, Debug)]
pub struct Fig9 {
    /// One row per Figure 9 benchmark.
    pub rows: Vec<Row>,
}

impl Fig9 {
    /// The curve for one benchmark.
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Runs the experiment. The czone sizes not yet replayed replay over
/// each benchmark's trace in a single pass.
pub fn run(options: &ExperimentOptions) -> Fig9 {
    let configs: Vec<StreamConfig> = CZONE_BITS
        .iter()
        .map(|&bits| StreamConfig::paper_strided(10, bits).expect("valid czone"))
        .collect();
    let workloads = workload_set(options.scale)
        .into_iter()
        .filter(|w| FIG9_BENCHMARKS.contains(&w.name()))
        .collect();
    let rows = stream_rows(options, workloads, &configs)
        .into_iter()
        .map(|(name, stats)| Row {
            name,
            hit_rates: stats.iter().map(|s| s.hit_rate()).collect(),
        })
        .collect();
    Fig9 { rows }
}

impl Artifact for Fig9 {
    fn artifact(&self) -> &'static str {
        "fig9"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        let mut columns = vec![col("bench", "bench")];
        columns.extend(
            CZONE_BITS
                .iter()
                .map(|b| col(format!("{b}b"), format!("hit_pct_{b}b"))),
        );
        sink.begin_table(
            self.artifact(),
            "czone_sensitivity",
            "Figure 9: hit rate (%) vs czone size (10 streams, unit + czone filters)",
            &columns,
        );
        for r in &self.rows {
            let mut cells = vec![Cell::text(r.name.clone())];
            cells.extend(
                r.hit_rates
                    .iter()
                    .map(|h| Cell::num(h * 100.0, format!("{:.0}", h * 100.0))),
            );
            sink.row(&cells);
        }
        let mut chart =
            crate::chart::AsciiChart::new(CZONE_BITS.iter().map(|b| format!("{b}")).collect());
        for r in &self.rows {
            chart.series(r.name.clone(), r.hit_rates.clone());
        }
        sink.note(chart.to_string().trim_end());
        for anchor in &crate::paper::FIG9 {
            match anchor.degrades_after_bits {
                Some(hi) => sink.note(&format!(
                    "paper {}: effective from ~{} to ~{hi} bits, peak ~{:.0}%",
                    anchor.name, anchor.works_from_bits, anchor.peak_hit_pct
                )),
                None => sink.note(&format!(
                    "paper {}: plateaus from ~{} bits at ~{:.0}%",
                    anchor.name, anchor.works_from_bits, anchor.peak_hit_pct
                )),
            }
        }
    }
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_the_three_benchmarks() {
        let result = run(&ExperimentOptions::quick());
        assert_eq!(result.rows.len(), 3);
        for name in FIG9_BENCHMARKS {
            assert!(result.row(name).is_some(), "{name}");
        }
    }

    #[test]
    fn too_small_czones_miss_large_strides() {
        let result = run(&ExperimentOptions::quick());
        let fftpde = result.row("fftpde").unwrap();
        // At 10 bits the plane stride cannot be detected; at 18 it can.
        let small = fftpde.hit_at(10).unwrap();
        let good = fftpde.hit_at(18).unwrap();
        assert!(good > small, "10 bits {small} vs 18 bits {good}");
    }

    #[test]
    fn curves_respect_the_paper_anchors() {
        let result = run(&ExperimentOptions::quick());
        for anchor in &crate::paper::FIG9 {
            let row = result.row(anchor.name).expect("anchored benchmark");
            // Inside the working range the hit rate must exceed the
            // below-range level.
            let inside = row.hit_at(anchor.works_from_bits.clamp(10, 26));
            let below = row.hit_at(10);
            if let (Some(inside), Some(below)) = (inside, below) {
                assert!(
                    inside + 0.02 >= below,
                    "{}: inside {inside} vs below {below}",
                    anchor.name
                );
            }
        }
    }

    #[test]
    fn trfd_plateaus_once_covered() {
        let result = run(&ExperimentOptions::quick());
        let trfd = result.row("trfd").unwrap();
        let at16 = trfd.hit_at(16).unwrap();
        let at22 = trfd.hit_at(22).unwrap();
        assert!(
            (at16 - at22).abs() < 0.15,
            "trfd should plateau: {at16} vs {at22}"
        );
    }
}
