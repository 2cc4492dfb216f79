//! End-to-end tests for the `streamsim-lint` binary: exit codes, the
//! `--quiet` failure path (a failing gate must still say why), and JSON
//! byte-identity between quiet and verbose runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_streamsim-lint"))
        .args(args)
        .output()
        .expect("spawn streamsim-lint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

#[test]
fn violating_fixture_fails_in_verbose_and_quiet_alike() {
    let root = fixture("violating");
    let root = root.to_str().unwrap();

    let verbose = run(&["--root", root, "--workspace", "--deny-warnings"]);
    assert_eq!(verbose.status.code(), Some(1), "verbose must fail");
    let text = stdout(&verbose);
    assert!(text.contains("[deny] no-hash-collections"), "{text}");
    assert!(text.contains("[deny] determinism-taint"), "{text}");

    let quiet = run(&["--root", root, "--workspace", "--deny-warnings", "--quiet"]);
    assert_eq!(quiet.status.code(), Some(1), "quiet must fail identically");
    let text = stdout(&quiet);
    // The bug this guards against: --quiet swallowing the findings on
    // the failure path, leaving an exit 1 with no explanation.
    assert!(
        text.contains("[deny] no-hash-collections"),
        "quiet failure must still print the violations:\n{text}"
    );
    assert!(
        text.contains("streamsim-lint:"),
        "summary line survives --quiet:\n{text}"
    );
}

#[test]
fn json_findings_are_byte_identical_in_quiet_and_verbose() {
    let dir = std::env::temp_dir().join("streamsim-lint-cli-json");
    std::fs::create_dir_all(&dir).unwrap();
    let verbose_json = dir.join("verbose.jsonl");
    let quiet_json = dir.join("quiet.jsonl");
    let root = fixture("violating");
    let root = root.to_str().unwrap();

    run(&[
        "--root",
        root,
        "--workspace",
        "--json",
        verbose_json.to_str().unwrap(),
    ]);
    run(&[
        "--root",
        root,
        "--workspace",
        "--quiet",
        "--json",
        quiet_json.to_str().unwrap(),
    ]);

    let verbose = std::fs::read(&verbose_json).unwrap();
    let quiet = std::fs::read(&quiet_json).unwrap();
    assert!(!verbose.is_empty());
    assert_eq!(verbose, quiet, "--quiet must not change the JSON artifact");
}

#[test]
fn suppressed_fixture_passes_under_deny_warnings() {
    let root = fixture("suppressed");
    let out = run(&[
        "--root",
        root.to_str().unwrap(),
        "--workspace",
        "--deny-warnings",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn list_rules_names_every_rule() {
    let out = run(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for rule in streamsim_lint::RULES {
        assert!(text.contains(rule), "missing {rule} in --list-rules");
    }
}
