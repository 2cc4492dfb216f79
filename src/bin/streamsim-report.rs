//! `streamsim-report` — regenerate the paper's evaluation as one report.
//!
//! ```text
//! USAGE:
//!   streamsim-report [OPTIONS] [EXPERIMENT...]
//!   streamsim-report --diff <A.jsonl> <B.jsonl> [--summary]
//!   streamsim-report --ledger <BENCH.json>... [--ledger-file <FILE>]
//!   streamsim-report --ledger-check [FILE]
//!   streamsim-report --trace-check <FILE>
//!
//! OPTIONS:
//!   --quick           run reduced inputs (smoke test)
//!   --sampling        enable the paper's 10k-on/90k-off time sampling
//!   --prescreen       prune sweeps to the model-predicted Pareto frontier
//!   --profile         time the engine phases; append a per-phase table
//!                     (wall clock, throughput, p50/p90/p99/max latency)
//!   --out <FILE>      write the text report to FILE instead of stdout
//!   --json <FILE>     additionally write one JSON line per table row to FILE
//!   --diff <A> <B>    compare two --json outputs; exit 1 on drift
//!   --summary         with --diff: one drift rollup line per artifact
//!   --ledger <BENCH>  append a BENCH_*.json summary to the perf ledger
//!                     (repeatable; ledger defaults to PERF_LEDGER.jsonl)
//!   --ledger-file <F> destination ledger for --ledger
//!   --ledger-check [F]  verify the ledger's latest entries against the
//!                     per-metric floors; exit 1 on violation, on a
//!                     missing file or row, or on a malformed row
//!   --trace-check <F> validate an exported trace_event file (well-formed
//!                     flat JSON, balanced B/E events); exit 1 on failure
//!   --list            list experiment names and exit
//!   -h, --help        show this help
//!
//! EXPERIMENTS (default: all but `sweep`):
//!   table1 table2 table3 table4 fig3 fig5 fig8 fig9
//!   ablations baselines latency traffic multiprogramming scorecard cpi
//!   topology sweep
//! ```
//!
//! `sweep` scores the whole stream-buffer design space (~1000 cells) and
//! must be selected by name — it costs roughly sixty single figures.
//! With `--prescreen`, the analytical model in `streamsim-model` scores
//! every cell in closed form first and only the predicted Pareto
//! frontier (plus a tolerance band) is simulated; the emitted artifact
//! then carries a `prescreen` marker table recording the pruning, and
//! `--diff` reports rows absent behind such a marker as *skipped by
//! model* — informational, not drift.
//!
//! Every experiment runs against one shared trace store, so the full
//! report simulates each (benchmark, L1 configuration) pair exactly
//! once and replays the recorded miss trace for every driver that needs
//! it.
//!
//! The `--json` file holds one flat JSON object per table row (see
//! DESIGN.md for the schema). Its first line is the *run manifest*
//! (`"artifact":"manifest"`) — PRNG seed, configuration fingerprint and
//! thread count — and every data row carries the deterministic subset as
//! `run_*` keys. `--diff` re-reads two such files and reports rows whose
//! numeric fields differ by more than `5e-5` or whose text fields differ
//! at all — the regression gate for the golden scorecard. Provenance is
//! excluded from the comparison: `manifest` and `profile` rows are
//! skipped and `run_*` keys are ignored, so wall clock and thread count
//! never register as drift.
//!
//! Observability is controlled by `STREAMSIM_LOG` (`off`/`info`/`debug`);
//! `--profile` raises `off` to `info`. At `debug` with `--json FILE`,
//! span and counter events stream to `FILE.events.jsonl`. With
//! `STREAMSIM_TRACE_OUT=FILE`, the run additionally exports a Chrome
//! `trace_event` timeline of every span (and, under the DST
//! `SimExecutor`, every scheduler slice) to FILE — loadable in
//! `about:tracing` or Perfetto, checkable with `--trace-check`.
//!
//! `--ledger` ingests `BENCH_*.json` artifacts (the flat
//! `streamsim-bench-v2` schema) and appends one sequenced row per file to
//! `PERF_LEDGER.jsonl`; `--ledger-check` re-reads the whole history and
//! fails if the file is missing, if a row lacks the ledger schema tag or
//! a benchmark, if a floored benchmark has no row, or if the latest entry
//! of any benchmark violates a per-metric floor (the same floors the CI
//! perf smokes enforce live).

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::process::ExitCode;
#[expect(
    clippy::disallowed_types,
    reason = "per-artifact runtimes printed to stderr are operator feedback and never enter an artifact"
)]
use std::time::Instant;

use streamsim::experiments::{self, ExperimentOptions, Scale, ARTIFACT_NAMES};
use streamsim::{parse_flat_json_line, JsonLinesSink, JsonValue, ProfileArtifact, Value};
use streamsim_obs::{LedgerEntry, RunManifest, StampValue};

/// Numeric tolerance for `--diff`: golden values are pinned to four
/// decimals, so anything past 5e-5 is real drift.
const DIFF_EPS: f64 = 5e-5;

/// How one row (or one of its fields) drifted between the two files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DriftKind {
    /// The row exists in both files with a differing field.
    Changed,
    /// The row exists only in the second file.
    Added,
    /// The row exists only in the first file.
    Removed,
    /// The row exists in one file only because the other file's run
    /// pre-screened the artifact with the analytical model (it carries
    /// a `prescreen` marker table). Informational — not drift.
    Skipped,
}

/// One drift finding, carrying enough structure for the `--summary`
/// rollup (per-artifact grouping, numeric magnitude) next to the
/// human-readable `message` the plain mode prints.
#[derive(Clone, Debug)]
struct DriftRecord {
    artifact: String,
    row: String,
    kind: DriftKind,
    /// `|Δ|` for a numeric field drift; `None` for text/structural drift.
    delta: Option<f64>,
    message: String,
}

fn diff_values(key: &str, a: &JsonValue, b: &JsonValue) -> Option<(String, Option<f64>)> {
    match (a, b) {
        (JsonValue::Num(x), JsonValue::Num(y)) => {
            let delta = (x - y).abs();
            if delta > DIFF_EPS {
                Some((
                    format!("{key}: {x} != {y} (|Δ| = {delta:.3e})"),
                    Some(delta),
                ))
            } else {
                None
            }
        }
        _ if a == b => None,
        _ => Some((format!("{key}: {a:?} != {b:?}"), None)),
    }
}

/// A row's identity: its text-valued fields (artifact, table, benchmark,
/// configuration labels, ...) in file order. Numbers are the
/// measurements under comparison, so they stay out of the key — and so
/// do `run_*` provenance stamps, which describe the run, not the row.
fn row_key(fields: &[(String, JsonValue)]) -> String {
    let mut key = String::new();
    for (k, v) in fields {
        if k.starts_with("run_") {
            continue;
        }
        if let JsonValue::Text(s) = v {
            if !key.is_empty() {
                key.push(' ');
            }
            key.push_str(k);
            key.push('=');
            key.push_str(s);
        }
    }
    key
}

/// Whether a row is pure provenance (`manifest`) or timing (`profile`):
/// machine- and run-specific by nature, so `--diff` skips it entirely.
fn is_provenance_row(fields: &[(String, JsonValue)]) -> bool {
    fields.iter().any(|(k, v)| {
        k == "artifact" && matches!(v, JsonValue::Text(s) if s == "manifest" || s == "profile")
    })
}

/// Whether a row is an analytical pre-screen marker (`table` =
/// `prescreen`): it declares that the run deliberately pruned the
/// artifact's grid, so rows missing from that file are *skipped by
/// model*, not removed by a code change. Marker rows describe the
/// pruning run itself and stay out of the row comparison.
fn is_prescreen_marker(fields: &[(String, JsonValue)]) -> bool {
    fields
        .iter()
        .any(|(k, v)| k == "table" && matches!(v, JsonValue::Text(s) if s == "prescreen"))
}

/// The `artifact` field of a row, for the `--summary` grouping.
fn artifact_of(fields: &[(String, JsonValue)]) -> String {
    fields
        .iter()
        .find_map(|(k, v)| match v {
            JsonValue::Text(s) if k == "artifact" => Some(s.clone()),
            _ => None,
        })
        .unwrap_or_else(|| "<no artifact>".to_owned())
}

/// One parsed JSONL row: display label, occurrence index (for duplicate
/// keys), and the parsed fields.
type Row = (String, usize, Vec<(String, JsonValue)>);

/// Compares two JSONL report files. Rows are matched by their key
/// columns — the text-valued fields — so adding, removing or reordering
/// rows between runs lines up the survivors instead of cascading
/// positional mismatches down the rest of the group. Rows sharing a key
/// pair up in occurrence order (an all-numeric row's key is empty, which
/// degrades to exactly the old positional behaviour); rows whose key
/// exists in only one file are reported as such. Provenance is invisible
/// here: `manifest`/`profile` rows and `run_*` keys are skipped.
fn diff_reports(path_a: &str, path_b: &str) -> Result<Vec<DriftRecord>, String> {
    let read = |path: &str| -> Result<(Vec<Row>, BTreeSet<String>), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let mut rows = Vec::new();
        let mut prescreened = BTreeSet::new();
        let mut occurrences: BTreeMap<String, usize> = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields =
                parse_flat_json_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            if is_provenance_row(&fields) {
                continue;
            }
            if is_prescreen_marker(&fields) {
                prescreened.insert(artifact_of(&fields));
                continue;
            }
            let key = row_key(&fields);
            let occ = occurrences.entry(key.clone()).or_insert(0);
            rows.push((key, *occ, fields));
            *occ += 1;
        }
        Ok((rows, prescreened))
    };

    let (a, prescreened_a) = read(path_a)?;
    let (b, prescreened_b) = read(path_b)?;
    let mut drift: Vec<DriftRecord> = Vec::new();

    let label = |key: &str, occ: usize| {
        let name = if key.is_empty() {
            "<untitled row>"
        } else {
            key
        };
        if occ == 0 {
            name.to_owned()
        } else {
            format!("{name} (#{})", occ + 1)
        }
    };

    let index_b: BTreeMap<(&str, usize), &Vec<(String, JsonValue)>> = b
        .iter()
        .map(|(key, occ, fields)| ((key.as_str(), *occ), fields))
        .collect();
    let mut matched: BTreeMap<(&str, usize), bool> = BTreeMap::new();

    for (key, occ, fa) in &a {
        let row = label(key, *occ);
        let Some(fb) = index_b.get(&(key.as_str(), *occ)) else {
            let artifact = artifact_of(fa);
            let (kind, message) = if prescreened_b.contains(&artifact) {
                (
                    DriftKind::Skipped,
                    format!("{row}: skipped by model pre-screen in {path_b}"),
                )
            } else {
                (DriftKind::Removed, format!("{row}: only in {path_a}"))
            };
            drift.push(DriftRecord {
                artifact,
                kind,
                delta: None,
                message,
                row,
            });
            continue;
        };
        matched.insert((key.as_str(), *occ), true);
        for (field, va) in fa {
            if field.starts_with("run_") {
                continue;
            }
            match fb.iter().find(|(k, _)| k == field) {
                Some((_, vb)) => {
                    if let Some((msg, delta)) = diff_values(field, va, vb) {
                        drift.push(DriftRecord {
                            artifact: artifact_of(fa),
                            kind: DriftKind::Changed,
                            delta,
                            message: format!("{row}: {msg}"),
                            row: row.clone(),
                        });
                    }
                }
                None => drift.push(DriftRecord {
                    artifact: artifact_of(fa),
                    kind: DriftKind::Changed,
                    delta: None,
                    message: format!("{row}: {field} missing in {path_b}"),
                    row: row.clone(),
                }),
            }
        }
        for (field, _) in fb.iter() {
            if field.starts_with("run_") {
                continue;
            }
            if !fa.iter().any(|(k, _)| k == field) {
                drift.push(DriftRecord {
                    artifact: artifact_of(fa),
                    kind: DriftKind::Changed,
                    delta: None,
                    message: format!("{row}: {field} missing in {path_a}"),
                    row: row.clone(),
                });
            }
        }
    }
    for (key, occ, fb) in &b {
        if !matched.contains_key(&(key.as_str(), *occ)) {
            let row = label(key, *occ);
            let artifact = artifact_of(fb);
            let (kind, message) = if prescreened_a.contains(&artifact) {
                (
                    DriftKind::Skipped,
                    format!("{row}: skipped by model pre-screen in {path_a}"),
                )
            } else {
                (DriftKind::Added, format!("{row}: only in {path_b}"))
            };
            drift.push(DriftRecord {
                artifact,
                kind,
                delta: None,
                message,
                row,
            });
        }
    }
    Ok(drift)
}

/// Rolls drift up per artifact: one line each with the distinct rows
/// changed, rows added/removed, and the largest numeric drift.
fn summarize_drift(drift: &[DriftRecord]) -> Vec<String> {
    #[derive(Default)]
    struct ArtifactDrift<'a> {
        changed_rows: BTreeSet<&'a str>,
        added: usize,
        removed: usize,
        skipped: usize,
        max_delta: f64,
    }
    let mut agg: BTreeMap<&str, ArtifactDrift<'_>> = BTreeMap::new();
    for d in drift {
        let entry = agg.entry(d.artifact.as_str()).or_default();
        match d.kind {
            DriftKind::Changed => {
                entry.changed_rows.insert(d.row.as_str());
                if let Some(delta) = d.delta {
                    entry.max_delta = entry.max_delta.max(delta);
                }
            }
            DriftKind::Added => entry.added += 1,
            DriftKind::Removed => entry.removed += 1,
            DriftKind::Skipped => entry.skipped += 1,
        }
    }
    agg.into_iter()
        .map(|(artifact, d)| {
            let max = if d.max_delta > 0.0 {
                format!("{:.3e}", d.max_delta)
            } else {
                "-".to_owned()
            };
            let skipped = if d.skipped > 0 {
                format!(", {} skipped by model", d.skipped)
            } else {
                String::new()
            };
            format!(
                "{artifact}: {} row(s) changed, {} added, {} removed, max |Δ| = {max}{skipped}",
                d.changed_rows.len(),
                d.added,
                d.removed,
            )
        })
        .collect()
}

fn field_text(fields: &[(String, JsonValue)], key: &str) -> Option<String> {
    fields.iter().find_map(|(k, v)| match v {
        JsonValue::Text(s) if k == key => Some(s.clone()),
        _ => None,
    })
}

fn field_num(fields: &[(String, JsonValue)], key: &str) -> Option<f64> {
    fields.iter().find_map(|(k, v)| match v {
        JsonValue::Num(n) if k == key => Some(*n),
        _ => None,
    })
}

/// Builds a ledger entry (seq 0 when absent — the appender assigns the
/// real one) from parsed row fields tagged `"schema":schema`: header
/// keys by name, every other numeric field a metric. The schema tag and
/// the text header keys are required.
fn entry_from_fields(fields: &[(String, JsonValue)], schema: &str) -> Result<LedgerEntry, String> {
    if field_text(fields, "schema").as_deref() != Some(schema) {
        return Err(format!("row lacks \"schema\":\"{schema}\""));
    }
    let text = |key: &str| field_text(fields, key).ok_or_else(|| format!("row lacks \"{key}\""));
    let header = streamsim_obs::LEDGER_HEADER_KEYS;
    Ok(LedgerEntry {
        seq: field_num(fields, "seq").unwrap_or(0.0) as u64,
        benchmark: text("benchmark")?,
        run_config: text("run_config")?,
        scale: text("scale")?,
        samples: field_num(fields, "samples").unwrap_or(0.0) as u64,
        run_steps: field_num(fields, "run_steps").unwrap_or(0.0) as u64,
        metrics: fields
            .iter()
            .filter_map(|(k, v)| match v {
                JsonValue::Num(n) if !header.contains(&k.as_str()) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect(),
    })
}

/// Reads one `BENCH_*.json` artifact into a ledger entry: flat
/// `streamsim-bench-v2` JSONL led by a `"table":"summary"` row.
fn bench_summary_entry(path: &str) -> Result<LedgerEntry, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let first = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty file"))?;
    let fields = parse_flat_json_line(first).map_err(|e| format!("{path}: {e}"))?;
    if field_text(&fields, "table").as_deref() != Some("summary") {
        return Err(format!(
            "{path}: first row is not a \"table\":\"summary\" row"
        ));
    }
    entry_from_fields(&fields, streamsim_obs::BENCH_SCHEMA).map_err(|e| format!("{path}: {e}"))
}

/// Parses a `PERF_LEDGER.jsonl` file; every row must be a
/// `streamsim-ledger-v1` row naming its benchmark.
fn read_ledger(path: &str) -> Result<Vec<LedgerEntry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = parse_flat_json_line(line)
            .and_then(|fields| entry_from_fields(&fields, streamsim_obs::LEDGER_SCHEMA))
            .map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        entries.push(entry);
    }
    Ok(entries)
}

/// Appends the summaries of `bench_paths` to the ledger at
/// `ledger_path` (created if missing), sequencing each new row after the
/// highest existing `seq`.
fn append_to_ledger(ledger_path: &str, bench_paths: &[String]) -> Result<usize, String> {
    let existing = if std::path::Path::new(ledger_path).exists() {
        read_ledger(ledger_path)?
    } else {
        Vec::new()
    };
    let mut seq = existing.iter().map(|e| e.seq).max().unwrap_or(0);
    let mut lines = String::new();
    for path in bench_paths {
        let mut entry = bench_summary_entry(path)?;
        seq += 1;
        entry.seq = seq;
        lines.push_str(&entry.to_json_line());
        lines.push('\n');
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ledger_path)
        .map_err(|e| format!("cannot open {ledger_path}: {e}"))?;
    file.write_all(lines.as_bytes())
        .map_err(|e| format!("cannot write {ledger_path}: {e}"))?;
    Ok(bench_paths.len())
}

/// Validates an exported Chrome `trace_event` file: the envelope is the
/// exact shape the exporter renders, every event line is flat JSON, and
/// `B`/`E` events balance per thread lane. Returns (begin events, total
/// events).
fn check_trace_file(path: &str) -> Result<(usize, usize), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut lines = text.lines();
    if lines.next() != Some("{\"traceEvents\":[") {
        return Err(format!("{path}: missing {{\"traceEvents\":[ header"));
    }
    let mut begins = 0usize;
    let mut total = 0usize;
    let mut open: BTreeMap<i64, i64> = BTreeMap::new();
    let mut closed = false;
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        if line == "]}" {
            closed = true;
            continue;
        }
        if closed {
            return Err(format!("{path}:{lineno}: content after the closing ]}}"));
        }
        let event = line.strip_suffix(',').unwrap_or(line);
        let fields = parse_flat_json_line(event).map_err(|e| format!("{path}:{lineno}: {e}"))?;
        total += 1;
        let tid = field_num(&fields, "tid").unwrap_or(0.0) as i64;
        match field_text(&fields, "ph").as_deref() {
            Some("B") => {
                begins += 1;
                *open.entry(tid).or_insert(0) += 1;
            }
            Some("E") => {
                let depth = open.entry(tid).or_insert(0);
                *depth -= 1;
                if *depth < 0 {
                    return Err(format!(
                        "{path}:{lineno}: E without matching B on tid {tid}"
                    ));
                }
            }
            Some("X") => {}
            other => {
                return Err(format!("{path}:{lineno}: unexpected ph {other:?}"));
            }
        }
    }
    if !closed {
        return Err(format!("{path}: missing ]}} footer"));
    }
    if let Some((tid, depth)) = open.iter().find(|(_, d)| **d != 0) {
        return Err(format!("{path}: {depth} unclosed B event(s) on tid {tid}"));
    }
    Ok((begins, total))
}

/// The manifest describing this run: the L1 PRNG seed, a fingerprint of
/// the full recording configuration, and the machine's parallelism.
fn run_manifest(options: &ExperimentOptions) -> RunManifest {
    let record = options.record_options();
    let seed = match record.dcache.replacement() {
        streamsim::Replacement::Random { seed } => seed,
        _ => 0,
    };
    let scale = format!("{:?}", options.scale);
    let sampling = match options.sampling {
        Some((on, off)) => format!("{on}/{off}"),
        None => "off".to_owned(),
    };
    let config_text = format!("{record:?} scale={scale} sampling={sampling}");
    RunManifest::new(seed, &config_text, &scale, &sampling)
}

fn write_file(path: &str, contents: &str) -> Result<(), ExitCode> {
    let mut file = std::fs::File::create(path).map_err(|e| {
        eprintln!("error: cannot create {path}: {e}");
        ExitCode::FAILURE
    })?;
    file.write_all(contents.as_bytes()).map_err(|e| {
        eprintln!("error: cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut options = ExperimentOptions::default();
    let mut out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut diff_paths: Option<(String, String)> = None;
    let mut summary = false;
    let mut profile = false;
    let mut ledger_inputs: Vec<String> = Vec::new();
    let mut ledger_file = "PERF_LEDGER.jsonl".to_owned();
    let mut ledger_check: Option<Option<String>> = None;
    let mut trace_check: Option<String> = None;

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.scale = Scale::Quick,
            "--sampling" => options.sampling = Some((10_000, 90_000)),
            "--prescreen" => options.prescreen = true,
            "--profile" => profile = true,
            "--summary" => summary = true,
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => {
                    eprintln!("error: --out needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match args.next() {
                Some(path) => json_out = Some(path),
                None => {
                    eprintln!("error: --json needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--diff" => {
                let (Some(a), Some(b)) = (args.next(), args.next()) else {
                    eprintln!("error: --diff needs two JSONL file paths");
                    return ExitCode::FAILURE;
                };
                diff_paths = Some((a, b));
            }
            "--ledger" => match args.next() {
                Some(path) => ledger_inputs.push(path),
                None => {
                    eprintln!("error: --ledger needs a BENCH_*.json file path");
                    return ExitCode::FAILURE;
                }
            },
            "--ledger-file" => match args.next() {
                Some(path) => ledger_file = path,
                None => {
                    eprintln!("error: --ledger-file needs a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--ledger-check" => {
                // The file operand is optional: a following flag or
                // experiment name means "use the default ledger".
                let explicit = args
                    .peek()
                    .filter(|a| !a.starts_with('-') && !ARTIFACT_NAMES.contains(&a.as_str()))
                    .is_some();
                ledger_check = Some(if explicit {
                    Some(args.next().expect("peeked"))
                } else {
                    None // resolved to the (possibly later) --ledger-file
                });
            }
            "--trace-check" => match args.next() {
                Some(path) => trace_check = Some(path),
                None => {
                    eprintln!("error: --trace-check needs a trace_event file path");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => {
                for name in ARTIFACT_NAMES {
                    println!("{name}");
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!(
                    "streamsim-report: regenerate the evaluation of Palacharla & Kessler \
                     (ISCA 1994)\n\nUSAGE: streamsim-report [--quick] [--sampling] [--prescreen] \
                     [--profile] [--out FILE] [--json FILE] [--list] [EXPERIMENT...]\n       \
                     streamsim-report --diff A.jsonl B.jsonl [--summary]\n       \
                     streamsim-report --ledger BENCH.json... [--ledger-file FILE]\n       \
                     streamsim-report --ledger-check [FILE]\n       \
                     streamsim-report --trace-check FILE\n\nEXPERIMENTS: {}\n\n\
                     `sweep` (the ~1000-cell design-space grid) must be selected by name; \
                     --prescreen prunes it to the model-predicted Pareto frontier.\n\
                     STREAMSIM_TRACE_OUT=FILE exports a Chrome trace_event timeline of the run.",
                    ARTIFACT_NAMES.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            name if ARTIFACT_NAMES.contains(&name) => selected.push(name.to_owned()),
            other => {
                eprintln!("error: unknown argument or experiment '{other}' (try --list)");
                return ExitCode::FAILURE;
            }
        }
    }

    // Ledger and trace maintenance modes run instead of experiments.
    if !ledger_inputs.is_empty() || ledger_check.is_some() || trace_check.is_some() {
        if !ledger_inputs.is_empty() {
            match append_to_ledger(&ledger_file, &ledger_inputs) {
                Ok(n) => println!("{n} benchmark run(s) appended to {ledger_file}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = ledger_check {
            let path = path.unwrap_or_else(|| ledger_file.clone());
            let entries = match read_ledger(&path) {
                Ok(entries) => entries,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let verdict = streamsim_obs::check_ledger(&entries);
            for note in &verdict.notes {
                println!("note: {note}");
            }
            for failure in &verdict.failures {
                eprintln!("error: {path}: ledger floor violation: {failure}");
            }
            if !verdict.pass() {
                eprintln!(
                    "{}: {} floor violation(s) across {} entries",
                    path,
                    verdict.failures.len(),
                    entries.len()
                );
                return ExitCode::FAILURE;
            }
            println!(
                "{path}: {} entries, latest per benchmark clears every metric floor",
                entries.len()
            );
        }
        if let Some(path) = trace_check {
            match check_trace_file(&path) {
                Ok((begins, total)) => {
                    if begins == 0 {
                        eprintln!("error: {path}: no span B events — nothing was traced");
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "{path}: {total} events well-formed, {begins} B/E span pairs balanced"
                    );
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    if let Some((a, b)) = diff_paths {
        return match diff_reports(&a, &b) {
            Ok(drift) if drift.is_empty() => {
                println!("no drift between {a} and {b}");
                ExitCode::SUCCESS
            }
            Ok(drift) => {
                if summary {
                    for line in summarize_drift(&drift) {
                        println!("{line}");
                    }
                } else {
                    for d in &drift {
                        println!("{}", d.message);
                    }
                }
                let skipped = drift
                    .iter()
                    .filter(|d| d.kind == DriftKind::Skipped)
                    .count();
                let real = drift.len() - skipped;
                if real == 0 {
                    // Model pruning is deliberate, not drift: a pruned
                    // run diffs clean against its full-sweep golden.
                    eprintln!("{skipped} row(s) skipped by model pre-screen; no drift between {a} and {b}");
                    ExitCode::SUCCESS
                } else {
                    eprintln!(
                        "{real} drifting row(s) between {a} and {b}{}",
                        if skipped > 0 {
                            format!(" ({skipped} skipped by model)")
                        } else {
                            String::new()
                        }
                    );
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if selected.is_empty() {
        // The default run regenerates the paper's artifacts; the
        // whole-design-space `sweep` is on-demand only.
        selected = experiments::default_artifacts()
            .into_iter()
            .map(str::to_owned)
            .collect();
    }

    // `--profile` needs the span registry filling; honour a stronger
    // STREAMSIM_LOG (debug) but raise `off` to `info`.
    if profile && streamsim_obs::level() == streamsim_obs::Level::Off {
        streamsim_obs::set_level(streamsim_obs::Level::Info);
    }
    let manifest = run_manifest(&options);
    let stamp: Vec<(String, Value)> = manifest
        .row_stamp()
        .into_iter()
        .map(|(key, value)| {
            let value = match value {
                StampValue::Int(n) => Value::Int(n as i64),
                StampValue::Text(s) => Value::Text(s),
            };
            (key.to_owned(), value)
        })
        .collect();

    // The JSON sink streams: rows land on disk as each experiment
    // finishes, so a partial file is useful (and memory flat) even if a
    // later experiment dies mid-report.
    let mut json_file = match &json_out {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(std::io::BufWriter::new(file)),
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let mut json_rows = 0usize;
    if let Some(file) = json_file.as_mut() {
        // The manifest leads the file, so a reader knows the run's
        // provenance before the first data row.
        if let Err(e) = writeln!(file, "{}", manifest.to_json_line()) {
            eprintln!("error: cannot write {}: {e}", json_out.as_deref().unwrap());
            return ExitCode::FAILURE;
        }
        json_rows += 1;
    }

    let mut report = String::new();
    report.push_str(&format!(
        "streamsim report — Palacharla & Kessler, ISCA 1994 (scale: {:?}, sampling: {})\n",
        options.scale,
        if options.sampling.is_some() {
            "paper 10%"
        } else {
            "off"
        },
    ));
    report.push_str(&format!(
        "run: config {} seed {} threads {}\n\n",
        manifest.config, manifest.seed, manifest.threads
    ));
    let emit_json = |artifact: &dyn streamsim::Artifact,
                     file: &mut Option<std::io::BufWriter<std::fs::File>>,
                     rows: &mut usize|
     -> Result<(), ExitCode> {
        if let Some(file) = file.as_mut() {
            let mut sink = JsonLinesSink::with_stamp(stamp.clone());
            artifact.emit(&mut sink);
            for line in sink.into_lines() {
                if let Err(e) = writeln!(file, "{line}") {
                    eprintln!("error: cannot write {}: {e}", json_out.as_deref().unwrap());
                    return Err(ExitCode::FAILURE);
                }
                *rows += 1;
            }
        }
        Ok(())
    };
    for name in &selected {
        #[expect(
            clippy::disallowed_types,
            reason = "progress timing for the operator: the value goes to stderr and the text footer only"
        )]
        let start = Instant::now();
        let artifact = {
            // Span "report": drivers' record/replay phases nest under it
            // on this thread and stand alone on parallel_map workers; the
            // profile table aggregates both by leaf name.
            let _span = streamsim_obs::span("report");
            experiments::run_artifact(name, &options).expect("validated above")
        };
        report.push_str(&format!(
            "=== {name} ===\n{}",
            streamsim::render_text(artifact.as_ref())
        ));
        if let Err(code) = emit_json(artifact.as_ref(), &mut json_file, &mut json_rows) {
            return code;
        }
        report.push_str(&format!("[{name}: {:.2?}]\n\n", start.elapsed()));
        eprintln!("{name} done in {:.2?}", start.elapsed());
    }
    if streamsim_obs::enabled(streamsim_obs::Level::Info) {
        // The trace store's replay memo: (trace, configuration) cells the
        // drivers shared versus cells actually simulated.
        eprintln!(
            "replay memo: {} cells served, {} simulated",
            streamsim_obs::counter(streamsim_obs::Counter::ReplayMemoHits),
            streamsim_obs::counter(streamsim_obs::Counter::ReplayMemoMisses)
        );
    }

    let phases = ProfileArtifact::capture();
    if profile {
        report.push_str(&format!(
            "=== profile ===\n{}\n",
            streamsim::render_text(&phases)
        ));
        if let Err(code) = emit_json(&phases, &mut json_file, &mut json_rows) {
            return code;
        }
    }

    if let Some(path) = &json_out {
        if let Some(file) = json_file.as_mut() {
            // The manifest led the file with `run_steps: 0` (nothing had
            // run); the measured span-derived work count trails it.
            let steps = phases.total_items();
            if steps > 0 {
                let stamped = manifest.clone().with_run_steps(steps);
                if let Err(e) = writeln!(file, "{}", stamped.steps_json_line()) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                json_rows += 1;
            }
            if let Err(e) = file.flush() {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("{json_rows} JSON rows written to {path}");

        // At debug, the event log streams next to the artifact output.
        if streamsim_obs::level() == streamsim_obs::Level::Debug {
            streamsim_obs::emit_counter_events();
            let events = streamsim_obs::drain_events();
            let events_path = format!("{path}.events.jsonl");
            let mut contents = events.join("\n");
            if !contents.is_empty() {
                contents.push('\n');
            }
            if let Err(code) = write_file(&events_path, &contents) {
                return code;
            }
            eprintln!("{} events written to {events_path}", events.len());
        }
    }
    match out {
        Some(path) => {
            if let Err(code) = write_file(&path, &report) {
                return code;
            }
            eprintln!("report written to {path}");
        }
        None => print!("{report}"),
    }
    // STREAMSIM_TRACE_OUT: flush the collected trace_event timeline.
    match streamsim_obs::flush_trace() {
        None => {}
        Some(Ok((path, events))) => eprintln!("{events} trace events written to {path}"),
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
