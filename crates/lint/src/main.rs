//! `streamsim-lint` — enforce the workspace's determinism, hermeticity
//! and safety invariants.
//!
//! ```text
//! USAGE:
//!   streamsim-lint [OPTIONS]
//!
//! OPTIONS:
//!   --workspace       lint every member crate (default: root package only)
//!   --deny-warnings   exit nonzero when any unsuppressed violation or
//!                     warning (dead suppression) remains
//!   --root <DIR>      lint DIR instead of the current directory
//!   --json <FILE>     write one flat JSON object per finding to FILE
//!   --bench-out <FILE> write a streamsim-bench-v2 summary row to FILE
//!                     (files scanned, resolution edges, wall seconds)
//!                     for the perf ledger
//!   --quiet           print only the summary line
//!   --list-rules      print the rule catalog and exit
//!   -h, --help        show this help
//! ```
//!
//! Exit status: `0` when clean (or without `--deny-warnings`), `1` when
//! `--deny-warnings` is set and violations or warnings remain, `2` on
//! usage or I/O errors.

use std::io::Write as _;
use std::process::ExitCode;

use streamsim_lint::{lint_tree, Level, LintConfig, RULES};

fn main() -> ExitCode {
    let mut workspace = false;
    let mut deny_warnings = false;
    let mut quiet = false;
    let mut root = String::from(".");
    let mut json_out: Option<String> = None;
    let mut bench_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--deny-warnings" => deny_warnings = true,
            "--quiet" => quiet = true,
            "--root" => match args.next() {
                Some(dir) => root = dir,
                None => {
                    eprintln!("error: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(path) => json_out = Some(path),
                None => {
                    eprintln!("error: --json needs a file path");
                    return ExitCode::from(2);
                }
            },
            "--bench-out" => match args.next() {
                Some(path) => bench_out = Some(path),
                None => {
                    eprintln!("error: --bench-out needs a file path");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for rule in RULES {
                    println!("{rule}");
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!(
                    "streamsim-lint: static analysis for the streamsim workspace's \
                     determinism, hermeticity and safety invariants\n\n\
                     USAGE: streamsim-lint [--workspace] [--deny-warnings] [--root DIR] \
                     [--json FILE] [--bench-out FILE] [--quiet] [--list-rules]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument '{other}' (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    // The one sanctioned clock read in this binary: the bench row's
    // wall_seconds is operator telemetry, never simulation state.
    // lint:allow(no-wall-clock, bench-row wall_seconds is operator telemetry, not simulation state)
    let started = std::time::Instant::now();
    let config = LintConfig::default();
    let report = match lint_tree(std::path::Path::new(&root), workspace, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: cannot lint {root}: {e}");
            return ExitCode::from(2);
        }
    };
    let wall_seconds = started.elapsed().as_secs_f64();

    if !quiet {
        for finding in &report.findings {
            println!("{finding}");
        }
    }
    if let Some(path) = &json_out {
        let write = std::fs::File::create(path).and_then(|file| {
            let mut w = std::io::BufWriter::new(file);
            for line in report.json_lines() {
                writeln!(w, "{line}")?;
            }
            w.flush()
        });
        if let Err(e) = write {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &bench_out {
        let scale = if workspace { "workspace" } else { "root" };
        let line = format!(
            "{{\"schema\":\"streamsim-bench-v2\",\"table\":\"summary\",\
             \"benchmark\":\"lint\",\"run_config\":\"lint-{scale}\",\
             \"scale\":\"{scale}\",\"samples\":1,\"run_steps\":{files},\
             \"files_scanned\":{files},\"resolution_edges\":{edges},\
             \"findings\":{findings},\"wall_seconds\":{wall_seconds:.6}}}",
            files = report.files_scanned,
            edges = report.resolution_edges,
            findings = report.findings.len(),
        );
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let deny = report.deny_count();
    let warn = report.warn_count();
    let mode = if workspace {
        "workspace"
    } else {
        "root package"
    };
    println!(
        "streamsim-lint: {} file(s) scanned ({mode}), {deny} violation(s), \
         {warn} warning(s), {} suppression(s)",
        report.files_scanned,
        report.allow_count(),
    );
    let failing = deny > 0 || (deny_warnings && warn > 0);
    if failing && deny_warnings {
        // Under --quiet the violations were not listed above; a failing
        // gate must still say why.
        if quiet {
            for finding in report
                .findings
                .iter()
                .filter(|f| matches!(f.level, Level::Deny | Level::Warn))
            {
                println!("{finding}");
            }
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
