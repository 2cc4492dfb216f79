//! Multiprogramming extension — stream buffers under context switching.
//!
//! The paper targets "large-scale parallel machines (1K processors or
//! more)", whose nodes multiplex work. Stream buffers hold almost no
//! state (ten tags and a stride), so the interesting question is not the
//! buffers themselves but the *interaction*: when two programs time-slice
//! one processor, every quantum boundary confronts the streams with a
//! stranger's miss pattern and repolluted primary cache.
//!
//! This experiment interleaves pairs of benchmarks at several quantum
//! sizes and compares the combined stream hit rate with the
//! miss-weighted average of the solo hit rates. The gap is the
//! multiprogramming penalty; it shrinks as quanta grow (streams re-lock
//! within a few misses, so the penalty is per-switch, not per-reference).

use std::fmt;

use streamsim_streams::StreamConfig;
use streamsim_workloads::combinators::Interleaved;
use streamsim_workloads::Workload;

use crate::experiments::{workload_set, ExperimentOptions, Scale};
use crate::sink::{col, Artifact, ArtifactSink, Cell};

/// Reference quanta swept (references per time slice).
pub const QUANTA: [usize; 3] = [1_000, 10_000, 100_000];

/// The benchmark pairs interleaved: a streaming pair, a mixed pair and an
/// adversarial pair (streaming + irregular).
pub const PAIRS: [(&str, &str); 3] = [("mgrid", "is"), ("applu", "trfd"), ("cgm", "adm")];

/// One pair's measurements.
#[derive(Clone, Debug)]
pub struct Row {
    /// The two benchmark names.
    pub pair: (String, String),
    /// Miss-weighted average of the two solo hit rates.
    pub solo_hit: f64,
    /// Combined hit rate per entry of [`QUANTA`].
    pub interleaved_hit: Vec<f64>,
}

impl Row {
    /// Multiprogramming penalty (solo − interleaved) at quantum index `i`.
    pub fn penalty(&self, i: usize) -> f64 {
        self.solo_hit - self.interleaved_hit[i]
    }
}

/// Results of the multiprogramming extension.
#[derive(Clone, Debug)]
pub struct Multiprogramming {
    /// One row per pair in [`PAIRS`].
    pub rows: Vec<Row>,
}

fn find(scale: Scale, name: &str) -> Box<dyn Workload> {
    workload_set(scale)
        .into_iter()
        .find(|w| w.name() == name)
        .expect("pair names are Table 1 benchmarks")
}

/// Runs the experiment.
pub fn run(options: &ExperimentOptions) -> Multiprogramming {
    let record = options.record_options();
    let store = options.store.clone();
    let scale = options.scale;
    let config = StreamConfig::paper_filtered(10).expect("valid");
    let rows = options.parallel_map(PAIRS.to_vec(), move |(a, b)| {
        let wa = find(scale, a);
        let wb = find(scale, b);

        // Solo hit rates, miss-weighted. The solo cells come from the
        // shared store, so other drivers' recordings and replays are
        // reused.
        let streams =
            |w: &dyn Workload| store.stream_stats(w, &record, &[config]).expect("valid L1")[0];
        let sa = streams(wa.as_ref());
        let sb = streams(wb.as_ref());
        let solo_hit = (sa.hits + sb.hits) as f64 / (sa.lookups + sb.lookups).max(1) as f64;

        let interleaved_hit = QUANTA
            .iter()
            .map(|&q| {
                let mix =
                    Interleaved::new(format!("{a}+{b}"), vec![find(scale, a), find(scale, b)], q);
                streams(&mix).hit_rate()
            })
            .collect();

        Row {
            pair: (a.to_owned(), b.to_owned()),
            solo_hit,
            interleaved_hit,
        }
    });
    Multiprogramming { rows }
}

impl Artifact for Multiprogramming {
    fn artifact(&self) -> &'static str {
        "multiprogramming"
    }

    fn emit(&self, sink: &mut dyn ArtifactSink) {
        let mut columns = vec![col("pair", "pair"), col("solo", "solo_hit_pct")];
        columns.extend(
            QUANTA
                .iter()
                .map(|q| col(format!("q={q}"), format!("hit_pct_q{q}"))),
        );
        sink.begin_table(
            self.artifact(),
            "quantum_sweep",
            "Multiprogramming extension: stream hit rate (%) when two programs time-slice",
            &columns,
        );
        for r in &self.rows {
            let mut cells = vec![
                Cell::text(format!("{}+{}", r.pair.0, r.pair.1)),
                Cell::num(r.solo_hit * 100.0, format!("{:.0}", r.solo_hit * 100.0)),
            ];
            cells.extend(
                r.interleaved_hit
                    .iter()
                    .map(|h| Cell::num(h * 100.0, format!("{:.0}", h * 100.0))),
            );
            sink.row(&cells);
        }
        sink.note(
            "the gap to 'solo' is the context-switch penalty; it shrinks with the\n\
             quantum because streams re-lock within a few misses of each switch",
        );
    }
}

impl fmt::Display for Multiprogramming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::render_text(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_shrinks_with_quantum() {
        let result = run(&ExperimentOptions::quick());
        assert_eq!(result.rows.len(), PAIRS.len());
        for r in &result.rows {
            let first = r.penalty(0);
            let last = r.penalty(QUANTA.len() - 1);
            assert!(
                last <= first + 0.05,
                "{}+{}: penalty should not grow with quantum ({first} -> {last})",
                r.pair.0,
                r.pair.1
            );
        }
    }

    #[test]
    fn interleaving_never_helps_much() {
        let result = run(&ExperimentOptions::quick());
        for r in &result.rows {
            for (i, &hit) in r.interleaved_hit.iter().enumerate() {
                assert!(
                    hit <= r.solo_hit + 0.08,
                    "{}+{} q={}: {hit} vs solo {}",
                    r.pair.0,
                    r.pair.1,
                    QUANTA[i],
                    r.solo_hit
                );
            }
        }
    }

    #[test]
    fn display_renders() {
        let result = run(&ExperimentOptions::quick());
        let text = result.to_string();
        assert!(text.contains("mgrid+is"));
        assert!(text.contains("q=100000"));
    }
}
