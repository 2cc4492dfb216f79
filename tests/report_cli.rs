//! Integration tests for the `streamsim-report` binary.

use std::process::Command;

fn report() -> Command {
    Command::new(env!("CARGO_BIN_EXE_streamsim-report"))
}

#[test]
fn list_prints_all_experiments() {
    let out = report().arg("--list").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in [
        "table1",
        "table2",
        "table3",
        "table4",
        "fig3",
        "fig5",
        "fig8",
        "fig9",
        "ablations",
        "baselines",
        "latency",
        "traffic",
        "multiprogramming",
        "sweep",
    ] {
        assert!(text.contains(name), "missing {name} in {text}");
    }
}

#[test]
fn help_exits_successfully() {
    let out = report().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
}

#[test]
fn unknown_experiment_fails() {
    let out = report().arg("fig42").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("fig42"));
}

#[test]
fn quick_single_experiment_prints_its_table() {
    let out = report()
        .args(["--quick", "table2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("=== table2 ==="), "{text}");
    assert!(text.contains("trfd"), "{text}");
    assert!(text.contains("scale: Quick"), "{text}");
}

#[test]
fn out_flag_writes_a_file() {
    let dir = std::env::temp_dir().join("streamsim-report-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.txt");
    let out = report()
        .args(["--quick", "--out", path.to_str().unwrap(), "fig9"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(written.contains("=== fig9 ==="));
    assert!(written.contains("czone"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn json_flag_writes_parseable_rows() {
    let dir = std::env::temp_dir().join("streamsim-report-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rows.jsonl");
    let out = report()
        .args([
            "--quick",
            "--out",
            "/dev/null",
            "--json",
            path.to_str().unwrap(),
            "table2",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let written = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = written.lines().filter(|l| !l.is_empty()).collect();
    // First line is the run manifest, then one row per benchmark.
    assert_eq!(
        lines.len(),
        16,
        "manifest + one row per benchmark: {written}"
    );
    let manifest = streamsim::parse_flat_json_line(lines[0]).expect("valid manifest line");
    assert!(
        manifest
            .iter()
            .any(|(k, v)| k == "artifact" && *v == streamsim::JsonValue::Text("manifest".into())),
        "{}",
        lines[0]
    );
    assert!(
        manifest.iter().any(|(k, _)| k == "run_seed"),
        "{}",
        lines[0]
    );
    for line in &lines[1..] {
        let fields = streamsim::parse_flat_json_line(line).expect("valid JSON line");
        assert!(fields.iter().any(|(k, _)| k == "artifact"), "{line}");
        assert!(fields.iter().any(|(k, _)| k == "table"), "{line}");
        assert!(fields.iter().any(|(k, _)| k == "eb_pct"), "{line}");
        // Every data row carries the deterministic provenance stamp.
        for stamp in ["run_config", "run_seed", "run_threads"] {
            assert!(fields.iter().any(|(k, _)| k == stamp), "{stamp}: {line}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn info_level_reports_replay_memo_cells() {
    // Table 3 replays Table 2's cell (ten basic streams) over the same
    // fifteen traces, so the second driver is served in full. Off, the
    // line is absent.
    let run = |level: Option<&str>| {
        let mut cmd = report();
        cmd.args(["--quick", "--out", "/dev/null", "table2", "table3"]);
        match level {
            Some(level) => cmd.env("STREAMSIM_LOG", level),
            None => cmd.env_remove("STREAMSIM_LOG"),
        };
        let out = cmd.output().expect("binary runs");
        assert!(out.status.success());
        String::from_utf8(out.stderr).unwrap()
    };
    let info = run(Some("info"));
    assert!(
        info.contains("replay memo: 15 cells served, 15 simulated"),
        "{info}"
    );
    assert!(!run(None).contains("replay memo"));
}

#[test]
fn profile_flag_emits_phase_timings() {
    let dir = std::env::temp_dir().join("streamsim-report-profile-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("profile.jsonl");
    let out = report()
        .args([
            "--quick",
            "--profile",
            "--out",
            "/dev/null",
            "--json",
            path.to_str().unwrap(),
            "scorecard",
        ])
        .env_remove("STREAMSIM_LOG")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let written = std::fs::read_to_string(&path).unwrap();
    let phases: Vec<String> = written
        .lines()
        .filter(|l| l.contains("\"artifact\":\"profile\""))
        .map(|l| {
            streamsim::parse_flat_json_line(l)
                .expect("valid profile line")
                .into_iter()
                .find_map(|(k, v)| match v {
                    streamsim::JsonValue::Text(s) if k == "phase" => Some(s),
                    _ => None,
                })
                .expect("profile row has a phase")
        })
        .collect();
    for phase in ["record", "replay", "report"] {
        assert!(phases.iter().any(|p| p == phase), "{phase} in {phases:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn debug_level_streams_events_beside_the_json_artifact() {
    let dir = std::env::temp_dir().join("streamsim-report-events-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");
    let out = report()
        .args([
            "--quick",
            "--out",
            "/dev/null",
            "--json",
            path.to_str().unwrap(),
            "table2",
        ])
        .env("STREAMSIM_LOG", "debug")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let events_path = format!("{}.events.jsonl", path.to_str().unwrap());
    let events = std::fs::read_to_string(&events_path).unwrap();
    let mut saw_span = false;
    let mut saw_counter = false;
    for line in events.lines().filter(|l| !l.is_empty()) {
        let fields = streamsim::parse_flat_json_line(line).expect("valid event line");
        match fields.first() {
            Some((k, streamsim::JsonValue::Text(s))) if k == "event" => {
                saw_span |= s == "span";
                saw_counter |= s == "counter";
            }
            other => panic!("event line must lead with an event kind, got {other:?}: {line}"),
        }
    }
    assert!(saw_span, "no span events in {events}");
    assert!(saw_counter, "no counter events in {events}");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&events_path).ok();
}

#[test]
fn diff_ignores_provenance_and_summarizes_per_artifact() {
    let dir = std::env::temp_dir().join("streamsim-report-summary-test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    // Files differ in: manifest row (skipped), run_threads stamp
    // (ignored), one fig3 value (drift), one table2 row present only in
    // b (drift).
    std::fs::write(
        &a,
        concat!(
            "{\"artifact\":\"manifest\",\"table\":\"run\",\"run_seed\":1,\"run_threads\":8}\n",
            "{\"artifact\":\"fig3\",\"table\":\"hit_rate\",\"bench\":\"mgrid\",\"hit_pct\":71.0,\"run_threads\":8}\n",
        ),
    )
    .unwrap();
    std::fs::write(
        &b,
        concat!(
            "{\"artifact\":\"manifest\",\"table\":\"run\",\"run_seed\":1,\"run_threads\":2}\n",
            "{\"artifact\":\"fig3\",\"table\":\"hit_rate\",\"bench\":\"mgrid\",\"hit_pct\":71.5,\"run_threads\":2}\n",
            "{\"artifact\":\"table2\",\"table\":\"eb\",\"bench\":\"adm\",\"eb_pct\":4.0}\n",
        ),
    )
    .unwrap();
    let out = report()
        .args([
            "--diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--summary",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "drift must exit nonzero");
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one rollup line per artifact: {text}");
    assert!(
        lines[0].starts_with("fig3: 1 row(s) changed, 0 added, 0 removed, max |Δ| = 5.000e-1"),
        "{text}"
    );
    assert!(
        lines[1].starts_with("table2: 0 row(s) changed, 1 added, 0 removed"),
        "{text}"
    );
    assert!(
        !text.contains("run_threads"),
        "provenance must not register as drift: {text}"
    );

    // Identical-but-for-provenance files diff clean.
    let out = report()
        .args(["--diff", a.to_str().unwrap(), a.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    for p in [&a, &b] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn diff_reports_prescreened_rows_as_skipped_not_drift() {
    let dir = std::env::temp_dir().join("streamsim-report-prescreen-test");
    std::fs::create_dir_all(&dir).unwrap();
    let full = dir.join("full.jsonl");
    let pruned = dir.join("pruned.jsonl");
    // A full sweep next to a model-pruned one: the pruned file carries
    // the `prescreen` marker table, so its missing cell reads as
    // "skipped by model", not as a removed row, and the diff is clean.
    std::fs::write(
        &full,
        concat!(
            "{\"artifact\":\"sweep\",\"table\":\"cells\",\"cell\":\"onmiss n=1 d=1\",\"hit_pct\":10.0}\n",
            "{\"artifact\":\"sweep\",\"table\":\"cells\",\"cell\":\"unit16 n=8 d=2\",\"hit_pct\":80.0}\n",
        ),
    )
    .unwrap();
    std::fs::write(
        &pruned,
        concat!(
            "{\"artifact\":\"sweep\",\"table\":\"cells\",\"cell\":\"unit16 n=8 d=2\",\"hit_pct\":80.0}\n",
            "{\"artifact\":\"sweep\",\"table\":\"prescreen\",\"mode\":\"prescreen\",\"cells_total\":975,\"cells_simulated\":1}\n",
        ),
    )
    .unwrap();
    let out = report()
        .args(["--diff", full.to_str().unwrap(), pruned.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "model pruning must not register as drift: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("skipped by model"), "{text}");

    // Swapped operands: the surplus full-sweep row is still a skip.
    let swapped = report()
        .args([
            "--diff",
            pruned.to_str().unwrap(),
            full.to_str().unwrap(),
            "--summary",
        ])
        .output()
        .expect("binary runs");
    assert!(swapped.status.success(), "skips are symmetric");
    let text = String::from_utf8(swapped.stdout).unwrap();
    assert!(
        text.starts_with(
            "sweep: 0 row(s) changed, 0 added, 0 removed, max |Δ| = -, 1 skipped by model"
        ),
        "{text}"
    );

    // A surviving cell that drifts is still a failure, and the marker
    // only shields the artifact it belongs to.
    std::fs::write(
        &pruned,
        concat!(
            "{\"artifact\":\"sweep\",\"table\":\"cells\",\"cell\":\"unit16 n=8 d=2\",\"hit_pct\":79.0}\n",
            "{\"artifact\":\"sweep\",\"table\":\"prescreen\",\"mode\":\"prescreen\",\"cells_total\":975,\"cells_simulated\":1}\n",
            "{\"artifact\":\"fig3\",\"table\":\"hit_rate\",\"bench\":\"mgrid\",\"hit_pct\":71.0}\n",
        ),
    )
    .unwrap();
    let drift = report()
        .args(["--diff", full.to_str().unwrap(), pruned.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!drift.status.success(), "surviving-cell drift must fail");
    let text = String::from_utf8(drift.stdout).unwrap();
    assert!(text.contains("hit_pct: 80 != 79"), "{text}");
    assert!(
        text.contains("only in"),
        "fig3 has no marker, so its extra row is real drift: {text}"
    );
    for p in [&full, &pruned] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn diff_detects_identity_and_drift() {
    let dir = std::env::temp_dir().join("streamsim-report-diff-test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    let c = dir.join("c.jsonl");
    std::fs::write(
        &a,
        "{\"artifact\":\"fig3\",\"table\":\"hit_rate\",\"bench\":\"mgrid\",\"hit_pct_10\":71.2345}\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "{\"artifact\":\"fig3\",\"table\":\"hit_rate\",\"bench\":\"mgrid\",\"hit_pct_10\":71.2345}\n",
    )
    .unwrap();
    std::fs::write(
        &c,
        "{\"artifact\":\"fig3\",\"table\":\"hit_rate\",\"bench\":\"mgrid\",\"hit_pct_10\":71.3345}\n",
    )
    .unwrap();

    let same = report()
        .args(["--diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(same.status.success(), "identical files must not drift");

    let drift = report()
        .args(["--diff", a.to_str().unwrap(), c.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!drift.status.success(), "drift must exit nonzero");
    let text = String::from_utf8(drift.stdout).unwrap();
    assert!(text.contains("hit_pct_10"), "{text}");

    for p in [&a, &b, &c] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn diff_pairs_duplicate_key_rows_in_occurrence_order() {
    let dir = std::env::temp_dir().join("streamsim-report-dupkey-test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    // Three rows sharing one key in `b`, two in `a`: occurrences pair
    // first-with-first, so only the second occurrence registers as
    // changed and the surplus third as added — not a cascade of
    // positional mismatches.
    std::fs::write(
        &a,
        concat!(
            "{\"artifact\":\"t\",\"table\":\"x\",\"bench\":\"dup\",\"v\":1.0}\n",
            "{\"artifact\":\"t\",\"table\":\"x\",\"bench\":\"dup\",\"v\":2.0}\n",
        ),
    )
    .unwrap();
    std::fs::write(
        &b,
        concat!(
            "{\"artifact\":\"t\",\"table\":\"x\",\"bench\":\"dup\",\"v\":1.0}\n",
            "{\"artifact\":\"t\",\"table\":\"x\",\"bench\":\"dup\",\"v\":9.0}\n",
            "{\"artifact\":\"t\",\"table\":\"x\",\"bench\":\"dup\",\"v\":5.0}\n",
        ),
    )
    .unwrap();
    let out = report()
        .args([
            "--diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--summary",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "drift must exit nonzero");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.starts_with("t: 1 row(s) changed, 1 added, 0 removed, max |Δ| = 7.000e0"),
        "{text}"
    );

    // The duplicate-occurrence label distinguishes the paired copies.
    let plain = report()
        .args(["--diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let plain_text = String::from_utf8(plain.stdout).unwrap();
    assert!(plain_text.contains("(#2): v: 2 != 9"), "{plain_text}");
    assert!(plain_text.contains("(#3)"), "{plain_text}");

    // Identical duplicate rows are not drift.
    let same = report()
        .args(["--diff", a.to_str().unwrap(), a.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        same.status.success(),
        "identical duplicates must diff clean"
    );
    for p in [&a, &b] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn diff_reports_an_artifact_present_on_one_side_only() {
    let dir = std::env::temp_dir().join("streamsim-report-oneside-test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    let shared =
        "{\"artifact\":\"fig3\",\"table\":\"hit_rate\",\"bench\":\"mgrid\",\"hit_pct\":71.0}\n";
    std::fs::write(&a, shared).unwrap();
    std::fs::write(
        &b,
        format!(
            "{shared}\
             {{\"artifact\":\"fig8\",\"table\":\"depth\",\"bench\":\"mgrid\",\"hit_pct\":60.0}}\n\
             {{\"artifact\":\"fig8\",\"table\":\"depth\",\"bench\":\"trfd\",\"hit_pct\":61.0}}\n"
        ),
    )
    .unwrap();
    let out = report()
        .args([
            "--diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--summary",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "a one-sided artifact is drift");
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The shared fig3 row is clean, so only fig8 rolls up.
    assert_eq!(lines.len(), 1, "{text}");
    assert!(
        lines[0].starts_with("fig8: 0 row(s) changed, 2 added, 0 removed"),
        "{text}"
    );

    // Swapped operands: the same artifact reads as removed.
    let swapped = report()
        .args([
            "--diff",
            b.to_str().unwrap(),
            a.to_str().unwrap(),
            "--summary",
        ])
        .output()
        .expect("binary runs");
    let text = String::from_utf8(swapped.stdout).unwrap();
    assert!(
        text.starts_with("fig8: 0 row(s) changed, 0 added, 2 removed"),
        "{text}"
    );
    for p in [&a, &b] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn diff_tolerates_non_finite_values_only_when_both_sides_agree() {
    let dir = std::env::temp_dir().join("streamsim-report-nonfinite-test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    // The sink renders NaN/inf as JSON null, and the parser maps an
    // overflowing literal (1e999) to f64 infinity — both must diff
    // clean when the two sides agree, and register as drift when only
    // one side is non-finite.
    let rows = |nan_field: &str, inf: &str| {
        format!(
            "{{\"artifact\":\"t\",\"table\":\"x\",\"bench\":\"nan\",\"v\":{nan_field}}}\n\
             {{\"artifact\":\"t\",\"table\":\"x\",\"bench\":\"inf\",\"v\":{inf}}}\n"
        )
    };
    std::fs::write(&a, rows("null", "1e999")).unwrap();
    std::fs::write(&b, rows("null", "1e999")).unwrap();
    let same = report()
        .args(["--diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        same.status.success(),
        "matching non-finite values must diff clean: {}",
        String::from_utf8_lossy(&same.stdout)
    );

    // null vs number and +inf vs finite are both real drift.
    std::fs::write(&b, rows("71.0", "2.5")).unwrap();
    let drift = report()
        .args(["--diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!drift.status.success(), "non-finite vs finite is drift");
    let text = String::from_utf8(drift.stdout).unwrap();
    assert!(text.contains("bench=nan"), "{text}");
    assert!(text.contains("bench=inf"), "{text}");

    // Opposite-signed infinities drift too (|Δ| is infinite).
    std::fs::write(&b, rows("null", "-1e999")).unwrap();
    let signs = report()
        .args(["--diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!signs.status.success(), "+inf vs -inf is drift");
    for p in [&a, &b] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn golden_scorecard_round_trips_through_diff() {
    // The regression gate from the README: two --json runs of the same
    // quick-scale scorecard must diff clean.
    let dir = std::env::temp_dir().join("streamsim-report-golden-test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("run-a.jsonl");
    let b = dir.join("run-b.jsonl");
    for path in [&a, &b] {
        let out = report()
            .args([
                "--quick",
                "--out",
                "/dev/null",
                "--json",
                path.to_str().unwrap(),
                "table2",
                "fig3",
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
    }
    let diff = report()
        .args(["--diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        diff.status.success(),
        "repeated runs drifted: {}",
        String::from_utf8_lossy(&diff.stdout)
    );
    for p in [&a, &b] {
        std::fs::remove_file(p).ok();
    }
}

/// A `streamsim-bench-v2` summary row for `benchmark` carrying `metrics`.
fn bench_summary(benchmark: &str, metrics: &str) -> String {
    format!(
        "{{\"schema\":\"streamsim-bench-v2\",\"table\":\"summary\",\"benchmark\":\"{benchmark}\",\
         \"scale\":\"quick\",\"samples\":3,\"run_config\":\"00ff\",\"run_steps\":100,\
         \"work_unit\":\"refs\",\"reference_ns\":200,\"current_ns\":100,{metrics}}}\n"
    )
}

#[test]
fn ledger_append_and_check_round_trip() {
    let dir = std::env::temp_dir().join("streamsim-report-ledger-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bench = dir.join("BENCH_fake.json");
    let replay = dir.join("BENCH_fake_replay.json");
    let model = dir.join("BENCH_fake_model.json");
    let ledger = dir.join("ledger.jsonl");
    std::fs::remove_file(&ledger).ok();
    // v2 flat bench artifacts, one per floored benchmark: summary row
    // first, detail rows after.
    std::fs::write(
        &bench,
        bench_summary("recording", "\"speedup\":2.0")
            + "{\"schema\":\"streamsim-bench-v2\",\"table\":\"workload\",\
               \"benchmark\":\"recording\",\"name\":\"w0\",\"refs\":100}\n",
    )
    .unwrap();
    std::fs::write(&replay, bench_summary("replay", "\"speedup\":1.5")).unwrap();
    std::fs::write(
        &model,
        bench_summary("model", "\"speedup\":5.0,\"simulated_fraction\":0.1"),
    )
    .unwrap();

    let append = report()
        .args([
            "--ledger",
            bench.to_str().unwrap(),
            "--ledger",
            replay.to_str().unwrap(),
            "--ledger",
            model.to_str().unwrap(),
            "--ledger-file",
            ledger.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        append.status.success(),
        "{}",
        String::from_utf8_lossy(&append.stderr)
    );
    let history = std::fs::read_to_string(&ledger).unwrap();
    assert!(
        history.starts_with("{\"schema\":\"streamsim-ledger-v1\",\"seq\":1,"),
        "{history}"
    );
    assert!(history.contains("\"speedup\":2"), "{history}");
    // The detail row stayed out of the ledger.
    assert_eq!(history.lines().count(), 3, "{history}");

    let check = report()
        .args(["--ledger-check", ledger.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );

    // A second append sequences after the first three.
    let append2 = report()
        .args([
            "--ledger",
            bench.to_str().unwrap(),
            "--ledger-file",
            ledger.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(append2.status.success());
    let history = std::fs::read_to_string(&ledger).unwrap();
    assert!(history.contains("\"seq\":4,"), "{history}");

    // A nested (pre-v2) artifact is rejected, and the ledger is untouched.
    std::fs::write(
        &bench,
        "{\n  \"benchmark\": \"replay\",\n  \"speedup\": 2.0\n}\n",
    )
    .unwrap();
    let nested = report()
        .args([
            "--ledger",
            bench.to_str().unwrap(),
            "--ledger-file",
            ledger.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(!nested.status.success(), "a nested artifact must fail");
    let err = String::from_utf8_lossy(&nested.stderr);
    assert!(err.contains("error:"), "{err}");
    assert_eq!(std::fs::read_to_string(&ledger).unwrap(), history);

    for p in [&bench, &replay, &model, &ledger] {
        std::fs::remove_file(p).ok();
    }
}

/// One `streamsim-ledger-v1` row.
fn ledger_row(seq: u64, benchmark: &str, metrics: &str) -> String {
    format!(
        "{{\"schema\":\"streamsim-ledger-v1\",\"seq\":{seq},\"benchmark\":\"{benchmark}\",\
         \"run_config\":\"00ff\",\"scale\":\"quick\",\"samples\":3,\"run_steps\":100,\
         {metrics}}}\n"
    )
}

#[test]
fn ledger_check_fails_on_a_regressed_latest_row() {
    let dir = std::env::temp_dir().join("streamsim-report-ledger-fail-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = dir.join("regressed.jsonl");
    std::fs::write(
        &ledger,
        ledger_row(1, "recording", "\"speedup\":1.5")
            + &ledger_row(2, "replay", "\"speedup\":1.5")
            + &ledger_row(3, "model", "\"speedup\":5.0,\"simulated_fraction\":0.1")
            + &ledger_row(4, "recording", "\"speedup\":0.9"),
    )
    .unwrap();
    let check = report()
        .args(["--ledger-check", ledger.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!check.status.success(), "a regressed latest row must fail");
    let err = String::from_utf8_lossy(&check.stderr);
    assert!(err.contains("floor violation"), "{err}");
    assert!(err.contains("speedup"), "{err}");
    std::fs::remove_file(&ledger).ok();
}

/// `--ledger-check` fails with an `error:` line naming the file and the
/// line or benchmark at fault: on a missing file, an empty file, a row
/// without the ledger schema or a benchmark, and the committed ledger
/// minus a floored benchmark's only row.
#[test]
fn ledger_check_rejects_missing_files_rows_and_benchmarks() {
    let dir = std::env::temp_dir().join("streamsim-report-ledger-missing-test");
    std::fs::create_dir_all(&dir).unwrap();
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/PERF_LEDGER.jsonl")).unwrap();
    let without_replay: String = committed
        .lines()
        .filter(|l| !l.contains("\"benchmark\":\"replay\""))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        without_replay.lines().count() + 1,
        committed.lines().count()
    );

    let nonexistent = dir.join("nonexistent.jsonl");
    std::fs::remove_file(&nonexistent).ok();
    let empty = dir.join("empty.jsonl");
    let schemaless = dir.join("schemaless.jsonl");
    let no_replay = dir.join("no-replay.jsonl");
    std::fs::write(&empty, "").unwrap();
    std::fs::write(&schemaless, "{\"foo\":1}\n").unwrap();
    std::fs::write(&no_replay, &without_replay).unwrap();
    for (path, expected) in [
        (&nonexistent, "cannot read"),
        (&empty, "recording: no row"),
        (
            &schemaless,
            ":1: row lacks \"schema\":\"streamsim-ledger-v1\"",
        ),
        (&no_replay, "replay: no row"),
    ] {
        let path = path.to_str().unwrap();
        let out = report()
            .args(["--ledger-check", path])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{path}: {err}");
        assert!(
            err.lines().any(|l| l.starts_with(&format!("error: {path}"))
                || l.starts_with(&format!("error: cannot read {path}"))),
            "{path}: {err}"
        );
        assert!(err.contains(expected), "{path}: {err}");
    }

    // A row naming no benchmark fails on its line too.
    std::fs::write(
        &schemaless,
        "{\"schema\":\"streamsim-ledger-v1\",\"seq\":1,\"speedup\":2.0}\n",
    )
    .unwrap();
    let out = report()
        .args(["--ledger-check", schemaless.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(err.contains(":1: row lacks \"benchmark\""), "{err}");

    for p in [&empty, &schemaless, &no_replay] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn trace_export_round_trips_through_trace_check() {
    let dir = std::env::temp_dir().join("streamsim-report-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    std::fs::remove_file(&trace).ok();
    let out = report()
        .args(["--quick", "--out", "/dev/null", "fig3"])
        .env("STREAMSIM_TRACE_OUT", trace.to_str().unwrap())
        .env_remove("STREAMSIM_LOG")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.starts_with("{\"traceEvents\":[\n"), "{text}");
    for phase in ["report", "prefill", "record", "replay"] {
        assert!(
            text.contains(&format!(
                "\"name\":\"{phase}\",\"cat\":\"span\",\"ph\":\"B\""
            )),
            "phase {phase} missing from the timeline"
        );
    }
    // Nesting is explicit: the prefill B event links to report's id.
    let report_b = text
        .lines()
        .find(|l| l.contains("\"path\":\"report\""))
        .expect("report span");
    let report_id: u64 = report_b
        .split("\"id\":")
        .nth(1)
        .unwrap()
        .split(',')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    let prefill_b = text
        .lines()
        .find(|l| l.contains("\"path\":\"report/prefill\""))
        .expect("prefill nests under report");
    assert!(
        prefill_b.contains(&format!("\"parent\":{report_id}")),
        "{prefill_b}"
    );

    let check = report()
        .args(["--trace-check", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let verdict = String::from_utf8_lossy(&check.stdout);
    assert!(verdict.contains("balanced"), "{verdict}");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn trace_check_rejects_malformed_and_unbalanced_files() {
    let dir = std::env::temp_dir().join("streamsim-report-trace-bad-test");
    std::fs::create_dir_all(&dir).unwrap();

    let malformed = dir.join("malformed.json");
    std::fs::write(&malformed, "{\"traceEvents\":[\nnot json\n]}\n").unwrap();
    let out = report()
        .args(["--trace-check", malformed.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "malformed event must fail");

    let unbalanced = dir.join("unbalanced.json");
    std::fs::write(
        &unbalanced,
        "{\"traceEvents\":[\n\
         {\"name\":\"a\",\"cat\":\"span\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":0.0,\"id\":1,\"parent\":0,\"path\":\"a\"}\n\
         ]}\n",
    )
    .unwrap();
    let out = report()
        .args(["--trace-check", unbalanced.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "unclosed B must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unclosed"), "{err}");

    for p in [&malformed, &unbalanced] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn run_steps_trails_the_json_artifact() {
    let dir = std::env::temp_dir().join("streamsim-report-steps-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("steps.jsonl");
    let out = report()
        .args([
            "--quick",
            "--profile",
            "--out",
            "/dev/null",
            "--json",
            path.to_str().unwrap(),
            "table2",
        ])
        .env_remove("STREAMSIM_LOG")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let written = std::fs::read_to_string(&path).unwrap();
    let first = written.lines().next().unwrap();
    assert!(
        first.contains("\"run_steps\":0"),
        "the leading manifest has no measured work yet: {first}"
    );
    let steps_row = written
        .lines()
        .find(|l| l.contains("\"table\":\"run_steps\""))
        .expect("trailing run_steps record");
    let fields = streamsim::parse_flat_json_line(steps_row).expect("valid steps row");
    let steps = fields
        .iter()
        .find_map(|(k, v)| match v {
            streamsim::JsonValue::Num(n) if k == "run_steps" => Some(*n),
            _ => None,
        })
        .expect("run_steps value");
    assert!(steps > 0.0, "measured work count is positive: {steps_row}");
    // The profile table carries the new latency quantile columns.
    let profile_row = written
        .lines()
        .find(|l| l.contains("\"artifact\":\"profile\""))
        .expect("profile row");
    for key in ["p50_ms", "p90_ms", "p99_ms", "max_ms"] {
        assert!(profile_row.contains(key), "{key} in {profile_row}");
    }
    std::fs::remove_file(&path).ok();
}
