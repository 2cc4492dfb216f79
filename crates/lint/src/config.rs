//! Workspace policy: which rules apply where.
//!
//! Rules are universal; *applicability* is not. The timing harness may
//! read the monotonic clock — that is its job — and the observability
//! crate owns the sanctioned `STREAMSIM_LOG` environment read. This
//! module captures those decisions as data: path prefixes checked
//! against workspace-relative paths (always `/`-separated), so the rule
//! implementations stay mechanical.
//!
//! The default configuration encodes this repository's DESIGN.md
//! contracts. Fixture trees used by the lint's own tests get the same
//! defaults, which is exactly the point: a seeded violation must fire
//! under the production policy.

/// The comment marker that declares a file a hot-loop module. Written
/// as a line comment in the module itself (`// lint:hot-module — why`),
/// so the hot list lives next to the hot loops instead of in a
/// hand-maintained table here; [`crate::engine::lint_tree`] scans for
/// it and applies `no-unwrap-hot` to every marked file.
pub const HOT_MODULE_MARKER: &str = "lint:hot-module";

/// Path-based applicability policy for the rule catalog.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Prefixes where wall-clock reads (`Instant`, `SystemTime`,
    /// `thread::sleep`) are sanctioned: the observability crate and the
    /// timing harness.
    pub wall_clock_sanctioned: Vec<String>,
    /// Prefixes (or exact files) sanctioned to read the environment:
    /// the config entry points (`STREAMSIM_LOG`, `STREAMSIM_QC_*`,
    /// `STREAMSIM_DST_*`, `STREAMSIM_BENCH_*`).
    pub env_read_sanctioned: Vec<String>,
    /// Prefixes where `println!`/`print!` output is the product
    /// (binaries, examples, the bench harness's reports).
    pub print_sanctioned: Vec<String>,
    /// Hot-loop modules where `.unwrap()`/`.expect(` need
    /// justification. Empty by default: the list is derived from the
    /// [`HOT_MODULE_MARKER`] comments the tree itself carries (see
    /// [`crate::engine::scan_hot_modules`]); entries added here apply
    /// on top of the scan.
    pub hot_modules: Vec<String>,
    /// Files (or prefixes) sanctioned to spawn threads directly: the
    /// `Executor` seam's own implementation. Everywhere else, fan-out
    /// goes through `parallel_map_on`/`prefill_on` (`executor-seam`
    /// rule), so DST schedules can replay it.
    pub spawn_sanctioned: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            wall_clock_sanctioned: vec!["crates/obs/".into(), "crates/bench/".into()],
            env_read_sanctioned: vec![
                "crates/obs/src/lib.rs".into(),
                "crates/prng/src/quickcheck.rs".into(),
                "crates/dst/src/sweep.rs".into(),
                "crates/bench/".into(),
            ],
            print_sanctioned: vec![
                "src/bin/".into(),
                "examples/".into(),
                "crates/bench/".into(),
                "crates/lint/src/main.rs".into(),
            ],
            hot_modules: Vec::new(),
            spawn_sanctioned: vec!["crates/dst/src/executor.rs".into()],
        }
    }
}

impl LintConfig {
    /// Whether `path` (workspace-relative, `/`-separated) is test-like:
    /// an integration-test, bench or example tree. Wall-clock, env,
    /// unwrap and print rules do not apply there — test scaffolding
    /// legitimately sleeps, times and unwraps.
    pub fn is_test_path(path: &str) -> bool {
        ["tests/", "benches/", "examples/"]
            .iter()
            .any(|dir| path.starts_with(dir) || path.contains(&format!("/{dir}")))
    }

    fn matches_any(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// Whether the wall-clock rule applies to `path`.
    pub fn wall_clock_applies(&self, path: &str) -> bool {
        !Self::is_test_path(path) && !Self::matches_any(path, &self.wall_clock_sanctioned)
    }

    /// Whether the env-read rule applies to `path`.
    pub fn env_read_applies(&self, path: &str) -> bool {
        !Self::is_test_path(path) && !Self::matches_any(path, &self.env_read_sanctioned)
    }

    /// Whether the debug-print rule applies to `path`.
    pub fn print_applies(&self, path: &str) -> bool {
        !Self::is_test_path(path) && !Self::matches_any(path, &self.print_sanctioned)
    }

    /// Whether the hash-collection rule applies to `path` (everywhere
    /// but examples: demo code is not simulation state).
    pub fn hash_applies(&self, path: &str) -> bool {
        !(path.starts_with("examples/") || path.contains("/examples/"))
    }

    /// Whether `path` is a configured hot-loop module.
    pub fn is_hot_module(&self, path: &str) -> bool {
        self.hot_modules.iter().any(|m| path == m.as_str())
    }

    /// Whether `path` is sanctioned to spawn threads directly (the
    /// `Executor` seam implementation).
    pub fn spawn_sanctioned(&self, path: &str) -> bool {
        Self::matches_any(path, &self.spawn_sanctioned)
    }

    /// Whether `source` carries a [`HOT_MODULE_MARKER`] comment: a line
    /// comment (`//` or `//!`) whose first word is the marker. Matching
    /// on comment structure rather than the bare substring keeps this
    /// module — which spells the marker out in a string literal — off
    /// the hot list.
    pub fn marks_hot_module(source: &str) -> bool {
        source.lines().any(|line| {
            let trimmed = line.trim_start();
            let comment = trimmed
                .strip_prefix("//!")
                .or_else(|| trimmed.strip_prefix("//"));
            matches!(
                comment.map(str::trim_start),
                Some(rest) if rest.split_whitespace().next() == Some(HOT_MODULE_MARKER)
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_the_workspace_contracts() {
        let c = LintConfig::default();
        assert!(!c.wall_clock_applies("crates/obs/src/span.rs"));
        assert!(!c.wall_clock_applies("crates/bench/src/timing.rs"));
        assert!(c.wall_clock_applies("crates/core/src/runner.rs"));
        assert!(c.wall_clock_applies("src/bin/streamsim-report.rs"));

        assert!(!c.env_read_applies("crates/obs/src/lib.rs"));
        assert!(c.env_read_applies("crates/obs/src/span.rs"));
        assert!(!c.env_read_applies("crates/prng/src/quickcheck.rs"));
        assert!(!c.env_read_applies("crates/dst/src/sweep.rs"));

        assert!(!c.print_applies("src/bin/streamsim-report.rs"));
        assert!(c.print_applies("crates/core/src/replay.rs"));

        assert!(c.hash_applies("src/bin/streamsim-report.rs"));
        assert!(!c.hash_applies("examples/quickstart.rs"));

        // Hot modules come from the marker scan, not a built-in table.
        assert!(c.hot_modules.is_empty());
        let scanned = LintConfig {
            hot_modules: vec!["crates/cache/src/cache.rs".into()],
            ..LintConfig::default()
        };
        assert!(scanned.is_hot_module("crates/cache/src/cache.rs"));
        assert!(!scanned.is_hot_module("crates/cache/src/stats.rs"));

        assert!(c.spawn_sanctioned("crates/dst/src/executor.rs"));
        assert!(!c.spawn_sanctioned("crates/core/src/runner.rs"));
    }

    #[test]
    fn hot_module_marker_matches_comments_not_string_literals() {
        assert!(LintConfig::marks_hot_module(
            "// lint:hot-module — replay inner loop\npub fn f() {}\n"
        ));
        assert!(LintConfig::marks_hot_module("//! lint:hot-module\n"));
        assert!(LintConfig::marks_hot_module("    // lint:hot-module\n"));
        // The marker inside code or string literals does not mark.
        assert!(!LintConfig::marks_hot_module(
            "pub const M: &str = \"lint:hot-module\";\n"
        ));
        // Nor does a comment that merely mentions it mid-sentence.
        assert!(!LintConfig::marks_hot_module(
            "// see the lint:hot-module marker in cache.rs\n"
        ));
        assert!(!LintConfig::marks_hot_module("// lint:hot-modules\n"));
    }

    #[test]
    fn test_paths_are_exempt_from_scaffolding_rules() {
        let c = LintConfig::default();
        for p in [
            "tests/end_to_end.rs",
            "crates/core/tests/replay_properties.rs",
            "crates/bench/benches/recording.rs",
            "examples/quickstart.rs",
        ] {
            assert!(LintConfig::is_test_path(p), "{p}");
            assert!(!c.wall_clock_applies(p), "{p}");
            assert!(!c.env_read_applies(p), "{p}");
            assert!(!c.print_applies(p), "{p}");
        }
    }
}
