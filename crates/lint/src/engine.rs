//! Walking a workspace tree and aggregating findings.
//!
//! The walk is deterministic: directory entries are visited in sorted
//! order and findings are sorted by (file, line, rule), so two runs
//! over the same tree produce byte-identical reports — the lint holds
//! itself to the invariant it enforces.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::LintConfig;
use crate::findings::{summary_json_line, Finding, Level};
use crate::resolve::Resolver;
use crate::rules::{check_file_with_semantics, check_manifest};
use crate::taint::{hot_gate_findings, seam_findings, taint_findings};

/// The outcome of linting a tree.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Number of files scanned (`.rs` + `Cargo.toml`).
    pub files_scanned: usize,
    /// Every finding, violations and recorded suppressions alike.
    pub findings: Vec<Finding>,
    /// The hot-loop modules in effect for this run: the caller's
    /// configured entries plus every file carrying the
    /// [`crate::config::HOT_MODULE_MARKER`] comment, sorted and
    /// deduplicated.
    pub hot_modules: Vec<String>,
    /// Name-resolution edges followed while resolving aliases, calls
    /// and taint flows (a proxy for semantic-analysis work done).
    pub resolution_edges: u64,
}

impl Report {
    /// Number of unsuppressed violations.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.level == Level::Deny)
            .count()
    }

    /// Number of advisory findings (dead suppressions).
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.level == Level::Warn)
            .count()
    }

    /// Number of recorded suppressions.
    pub fn allow_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.level == Level::Allow)
            .count()
    }

    /// The report as flat JSON lines: one object per finding plus a
    /// closing summary object.
    pub fn json_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.findings.iter().map(Finding::to_json_line).collect();
        lines.push(summary_json_line(
            self.files_scanned,
            self.deny_count(),
            self.warn_count(),
            self.allow_count(),
        ));
        lines
    }
}

/// Directories never descended into: build output, VCS metadata, and
/// the lint's own seeded-violation fixtures.
fn skip_dir(name: &str) -> bool {
    name == "target" || name == "fixtures" || name.starts_with('.')
}

/// Collects the files to lint under `root`, sorted. With
/// `workspace = false` the `crates/` subtree is skipped — that is the
/// root-package gate; `--workspace` covers every member crate.
fn collect_files(root: &Path, workspace: bool) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![(root.to_path_buf(), 0usize)];
    while let Some((dir, depth)) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_owned();
            if path.is_dir() {
                if skip_dir(&name) || (!workspace && depth == 0 && name == "crates") {
                    continue;
                }
                stack.push((path, depth + 1));
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Reads the lintable files under `root` as `(workspace-relative path,
/// source)` pairs, sorted by path.
fn read_files(root: &Path, workspace: bool) -> io::Result<Vec<(String, String)>> {
    collect_files(root, workspace)?
        .into_iter()
        .map(|path| {
            let rel: String = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let source = std::fs::read_to_string(&path)?;
            Ok((rel, source))
        })
        .collect()
}

/// The hot-loop modules under `root`: every `.rs` file carrying the
/// [`crate::config::HOT_MODULE_MARKER`] comment, as sorted
/// workspace-relative paths. This is how the hot list stays honest —
/// the marker lives in the hot module itself, and [`lint_tree`] derives
/// the list from the tree it is linting instead of a hand-maintained
/// table.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading files.
pub fn scan_hot_modules(root: &Path, workspace: bool) -> io::Result<Vec<String>> {
    Ok(read_files(root, workspace)?
        .into_iter()
        .filter(|(rel, source)| rel.ends_with(".rs") && LintConfig::marks_hot_module(source))
        .map(|(rel, _)| rel)
        .collect())
}

/// Lints every `.rs` and `Cargo.toml` under `root`.
///
/// The effective hot-module list is the caller's `config.hot_modules`
/// plus the tree's own [`crate::config::HOT_MODULE_MARKER`] carriers
/// (see [`scan_hot_modules`]); the result is recorded on the report.
///
/// # Errors
///
/// Returns the first I/O error hit while walking or reading files.
pub fn lint_tree(root: &Path, workspace: bool, config: &LintConfig) -> io::Result<Report> {
    let files = read_files(root, workspace)?;
    let mut effective = config.clone();
    effective.hot_modules.extend(
        files
            .iter()
            .filter(|(rel, source)| rel.ends_with(".rs") && LintConfig::marks_hot_module(source))
            .map(|(rel, _)| rel.clone()),
    );
    effective.hot_modules.sort();
    effective.hot_modules.dedup();

    // Parse every Rust file and build the workspace-wide resolver over
    // the ASTs.
    let asts: BTreeMap<String, _> = files
        .iter()
        .filter(|(rel, _)| rel.ends_with(".rs"))
        .map(|(rel, source)| (rel.clone(), crate::parser::parse(source)))
        .collect();

    let resolver = Resolver::build(&files, &asts);

    // The workspace-wide semantic passes, grouped per file so each
    // file's denies run through its own suppression machinery.
    let mut semantic: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    let mut global = taint_findings(&resolver, &effective);
    global.extend(seam_findings(&resolver, &effective));
    global.extend(hot_gate_findings(&resolver));
    for finding in global {
        semantic
            .entry(finding.file.clone())
            .or_default()
            .push(finding);
    }

    let mut report = Report {
        hot_modules: effective.hot_modules.clone(),
        ..Report::default()
    };
    for (rel, source) in &files {
        report.files_scanned += 1;
        if rel.ends_with("Cargo.toml") {
            report.findings.extend(check_manifest(rel, source));
        } else {
            let banned = resolver.banned_names(rel);
            let extra = semantic.remove(rel).unwrap_or_default();
            report.findings.extend(check_file_with_semantics(
                rel, source, &effective, &banned, extra,
            ));
        }
    }
    report.resolution_edges = resolver.edges();
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_list_covers_build_output_and_fixtures() {
        assert!(skip_dir("target"));
        assert!(skip_dir("fixtures"));
        assert!(skip_dir(".git"));
        assert!(!skip_dir("src"));
        assert!(!skip_dir("crates"));
    }

    #[test]
    fn report_counts_split_by_level() {
        let report = Report {
            files_scanned: 2,
            findings: vec![
                Finding::deny("todo-tag", "a.rs", 1, "x"),
                Finding::warn("dead-suppression", "a.rs", 2, "y"),
                Finding::allow("no-wall-clock", "b.rs", 2, "why"),
            ],
            ..Report::default()
        };
        assert_eq!(report.deny_count(), 1);
        assert_eq!(report.warn_count(), 1);
        assert_eq!(report.allow_count(), 1);
        let lines = report.json_lines();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("\"table\":\"summary\""), "{}", lines[3]);
        assert!(lines[3].contains("\"files\":2"), "{}", lines[3]);
        assert!(lines[3].contains("\"warn\":1"), "{}", lines[3]);
    }
}
