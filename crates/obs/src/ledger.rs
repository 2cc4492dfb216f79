//! The perf-regression ledger: one shared schema for benchmark history.
//!
//! The three tracked `BENCH_*.json` artifacts (recording, replay,
//! model) share one flat-JSONL schema ([`BENCH_SCHEMA`]): the first
//! line is a `"table":"summary"` row carrying the run provenance
//! (`run_config` RunManifest fingerprint, `run_steps` work count) and
//! the aggregate metrics; following lines are per-workload/family
//! detail rows. `streamsim-report --ledger` appends each summary as a
//! [`LedgerEntry`] to `PERF_LEDGER.jsonl` ([`LEDGER_SCHEMA`]), and
//! `--ledger-check` replays the whole history through [`check_ledger`]:
//! every floored benchmark must have a row, its latest entry must clear
//! every [`metric_floors`] bound — the same floors `ci.sh` enforces
//! live — and large regressions against the best recorded entry of the
//! same configuration surface as notes.
//!
//! Everything here is plain data and arithmetic; parsing stays with the
//! callers (the report binary uses the core crate's flat JSON reader),
//! keeping this crate dependency-free.

use crate::json_escape;

/// Schema tag of `PERF_LEDGER.jsonl` rows.
pub const LEDGER_SCHEMA: &str = "streamsim-ledger-v1";

/// Schema tag of the `BENCH_*.json` summary rows (the ledger's input).
pub const BENCH_SCHEMA: &str = "streamsim-bench-v2";

/// The header keys of a ledger row; every other numeric field is a
/// tracked metric.
pub const LEDGER_HEADER_KEYS: [&str; 7] = [
    "schema",
    "seq",
    "benchmark",
    "run_config",
    "scale",
    "samples",
    "run_steps",
];

/// One appended benchmark run.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerEntry {
    /// Monotonic sequence number within the ledger file (append order).
    pub seq: u64,
    /// Benchmark name (`recording`, `replay`, `model`).
    pub benchmark: String,
    /// RunManifest configuration fingerprint of the producing run.
    pub run_config: String,
    /// Input-size scale label.
    pub scale: String,
    /// Timing samples behind the medians.
    pub samples: u64,
    /// Wall-clock-free work count (refs / deliveries / cells): makes
    /// rows comparable across machines.
    pub run_steps: u64,
    /// Tracked numeric metrics, in stable (input) order.
    pub metrics: Vec<(String, f64)>,
}

impl LedgerEntry {
    /// The named metric's value, if tracked.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// The entry as one flat JSONL record.
    pub fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"schema\":{},\"seq\":{},\"benchmark\":{},\"run_config\":{},\
             \"scale\":{},\"samples\":{},\"run_steps\":{}",
            json_escape(LEDGER_SCHEMA),
            self.seq,
            json_escape(&self.benchmark),
            json_escape(&self.run_config),
            json_escape(&self.scale),
            self.samples,
            self.run_steps,
        );
        for (key, value) in &self.metrics {
            line.push_str(&format!(",{}:{value}", json_escape(key)));
        }
        line.push('}');
        line
    }
}

/// A per-metric acceptance bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Floor {
    /// The metric must be at least this value (e.g. a speedup floor).
    AtLeast(f64),
    /// The metric must be at most this value (e.g. a fraction ceiling).
    AtMost(f64),
}

impl Floor {
    /// Whether `value` satisfies the bound.
    pub fn holds(&self, value: f64) -> bool {
        match *self {
            Floor::AtLeast(min) => value >= min,
            Floor::AtMost(max) => value <= max,
        }
    }
}

/// The per-metric floors `--ledger-check` enforces, `(benchmark,
/// metric, bound)`. These mirror the live `ci.sh` perf smokes (1.15× /
/// 1.3× / 3× `STREAMSIM_BENCH_ENFORCE` floors) plus the model's ≤ ¼
/// simulated-fraction contract, so the committed history and the live
/// gate cannot silently disagree.
pub fn metric_floors() -> &'static [(&'static str, &'static str, Floor)] {
    &[
        ("recording", "speedup", Floor::AtLeast(1.15)),
        ("replay", "speedup", Floor::AtLeast(1.3)),
        ("model", "speedup", Floor::AtLeast(3.0)),
        ("model", "simulated_fraction", Floor::AtMost(0.25)),
    ]
}

/// Fractional regression against the best recorded value of the same
/// configuration that turns into an advisory note (not a failure —
/// floors decide pass/fail).
pub const DRIFT_NOTE_FRACTION: f64 = 0.10;

/// The outcome of a ledger check.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerVerdict {
    /// Floor violations: any entry here fails the check.
    pub failures: Vec<String>,
    /// Advisory drift notes (latest well below the best recorded run).
    pub notes: Vec<String>,
}

impl LedgerVerdict {
    /// Whether the check passed (no floor violations).
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Checks a ledger history: every benchmark named in [`metric_floors`]
/// must have at least one entry, and its entry with the highest `seq`
/// (ties: latest in input order) must clear every matching floor; a
/// latest metric more than [`DRIFT_NOTE_FRACTION`] below the best value
/// a floored `AtLeast` metric recorded under the latest entry's
/// `run_config` earns an advisory note. Rows of other configurations
/// are skipped: a ratio timed against a different baseline or input is
/// not a regression of this one.
pub fn check_ledger(entries: &[LedgerEntry]) -> LedgerVerdict {
    let mut verdict = LedgerVerdict::default();
    for (benchmark, metric, floor) in metric_floors() {
        let history: Vec<&LedgerEntry> = entries
            .iter()
            .filter(|e| e.benchmark == *benchmark)
            .collect();
        let Some(latest) = history.iter().max_by_key(|e| e.seq).copied() else {
            // One failure per benchmark, however many floors it has.
            let missing = format!("{benchmark}: no row, so nothing clears its floors");
            if !verdict.failures.contains(&missing) {
                verdict.failures.push(missing);
            }
            continue;
        };
        let Some(value) = latest.metric(metric) else {
            verdict.failures.push(format!(
                "{benchmark} seq {}: metric '{metric}' missing (floor {floor:?})",
                latest.seq
            ));
            continue;
        };
        if !floor.holds(value) {
            verdict.failures.push(format!(
                "{benchmark} seq {}: {metric} = {value} violates {floor:?}",
                latest.seq
            ));
        }
        if let Floor::AtLeast(_) = floor {
            let best = history
                .iter()
                .filter(|e| e.run_config == latest.run_config)
                .filter_map(|e| e.metric(metric))
                .fold(f64::NEG_INFINITY, f64::max);
            if best.is_finite() && value < best * (1.0 - DRIFT_NOTE_FRACTION) {
                verdict.notes.push(format!(
                    "{benchmark}: latest {metric} {value} is more than {:.0}% below the \
                     best recorded {best}",
                    DRIFT_NOTE_FRACTION * 100.0
                ));
            }
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, benchmark: &str, metrics: &[(&str, f64)]) -> LedgerEntry {
        LedgerEntry {
            seq,
            benchmark: benchmark.to_owned(),
            run_config: "deadbeefdeadbeef".to_owned(),
            scale: "quick".to_owned(),
            samples: 3,
            run_steps: 1_000_000,
            metrics: metrics.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    #[test]
    fn entry_renders_one_flat_line() {
        let e = entry(4, "recording", &[("speedup", 1.5), ("reference_ns", 2e9)]);
        let line = e.to_json_line();
        assert!(line.starts_with("{\"schema\":\"streamsim-ledger-v1\",\"seq\":4,"));
        assert!(line.contains("\"benchmark\":\"recording\""), "{line}");
        assert!(line.contains("\"run_steps\":1000000"), "{line}");
        assert!(line.contains("\"speedup\":1.5"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert_eq!(e.metric("speedup"), Some(1.5));
        assert_eq!(e.metric("absent"), None);
    }

    /// One healthy row per floored benchmark, at seqs 1..=3.
    fn healthy() -> Vec<LedgerEntry> {
        vec![
            entry(1, "recording", &[("speedup", 1.48)]),
            entry(2, "replay", &[("speedup", 1.36)]),
            entry(
                3,
                "model",
                &[("speedup", 6.9), ("simulated_fraction", 0.117)],
            ),
        ]
    }

    #[test]
    fn healthy_history_passes() {
        let verdict = check_ledger(&healthy());
        assert!(verdict.pass(), "{:?}", verdict.failures);
        assert!(verdict.notes.is_empty(), "{:?}", verdict.notes);
    }

    #[test]
    fn floor_violation_fails_on_latest_only() {
        // An old bad row is history; only the latest entry is judged.
        let mut healed = healthy();
        healed.push(entry(0, "recording", &[("speedup", 0.9)]));
        assert!(check_ledger(&healed).pass());

        let mut regressed = healthy();
        regressed.push(entry(4, "recording", &[("speedup", 0.9)]));
        let verdict = check_ledger(&regressed);
        assert!(!verdict.pass());
        assert!(verdict.failures[0].contains("speedup"), "{verdict:?}");
        // And the drift against the best run is noted too.
        assert!(!verdict.notes.is_empty(), "{verdict:?}");
    }

    #[test]
    fn missing_floored_metric_fails() {
        let mut entries = healthy();
        entries.push(entry(4, "model", &[("speedup", 5.0)]));
        let verdict = check_ledger(&entries);
        assert!(!verdict.pass());
        assert!(
            verdict.failures[0].contains("simulated_fraction"),
            "{verdict:?}"
        );
    }

    #[test]
    fn missing_floored_benchmark_fails_once_per_benchmark() {
        // No replay row: the replay floor cannot hold. The model, with
        // two floors, is named once.
        let entries = vec![
            entry(1, "recording", &[("speedup", 1.48)]),
            entry(4, "lint", &[("files_scanned", 180.0)]),
        ];
        let verdict = check_ledger(&entries);
        assert_eq!(
            verdict.failures,
            [
                "replay: no row, so nothing clears its floors",
                "model: no row, so nothing clears its floors",
            ],
        );
        assert_eq!(check_ledger(&[]).failures.len(), 3, "empty history");
    }

    #[test]
    fn drift_notes_compare_rows_of_one_configuration() {
        let configured = |seq, speedup, run_config: &str| LedgerEntry {
            run_config: run_config.to_owned(),
            ..entry(seq, "recording", &[("speedup", speedup)])
        };
        // A best row timed under another configuration earns no note...
        let mut entries = healthy();
        entries.push(configured(4, 1.477, "ea9751496364ebea"));
        entries.push(configured(5, 1.292, "615305571fb5adf3"));
        let verdict = check_ledger(&entries);
        assert!(verdict.pass(), "{verdict:?}");
        assert!(verdict.notes.is_empty(), "{verdict:?}");

        // ...while a better row of the latest row's own configuration
        // still does.
        entries.push(configured(6, 1.45, "615305571fb5adf3"));
        entries.push(configured(7, 1.25, "615305571fb5adf3"));
        let verdict = check_ledger(&entries);
        assert!(verdict.pass(), "{verdict:?}");
        assert_eq!(verdict.notes.len(), 1, "{verdict:?}");
        assert!(
            verdict.notes[0].contains("best recorded 1.45"),
            "{verdict:?}"
        );
    }

    #[test]
    fn drift_note_without_floor_violation() {
        let mut entries = healthy();
        entries.push(entry(0, "replay", &[("speedup", 2.0)]));
        entries.push(entry(4, "replay", &[("speedup", 1.4)]));
        let verdict = check_ledger(&entries);
        assert!(verdict.pass(), "1.4 clears the 1.3 floor");
        assert_eq!(verdict.notes.len(), 1, "{verdict:?}");
    }
}
