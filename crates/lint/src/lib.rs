//! `streamsim-lint` — the workspace's invariants as an executable gate.
//!
//! The reproduction rests on three contracts that no compiler flag
//! checks: **determinism** (a replayed miss trace must be
//! byte-identical across runs and thread counts, so nothing in the
//! simulation or report path may iterate a randomized hash map, read
//! the wall clock, or read ad-hoc environment), **hermeticity** (zero
//! crates.io dependencies, no build scripts, no out-of-tree includes —
//! `cargo build --offline` is the build), and **safety discipline**
//! (`unsafe` and `SeqCst` carry written justifications; hot-loop
//! modules do not panic on `.unwrap()`). This crate turns those prose
//! rules from DESIGN.md into a dependency-free static-analysis pass:
//! a hand-rolled Rust [`lexer`] feeds a [`rules`] engine that walks
//! every workspace `.rs` and `Cargo.toml`.
//!
//! Violations are suppressed inline with a `lint:allow` comment naming
//! the rule and a mandatory reason; suppressions are first-class
//! findings (level `allow`) in the JSON report, so nothing disappears
//! silently. The JSON output is one flat object per finding — the
//! exact line shape `streamsim-report --diff` parses — so a lint run
//! can be golden-diffed like any experiment artifact.
//!
//! # Example
//!
//! ```
//! use streamsim_lint::{check_rust_source, LintConfig};
//!
//! let source = "use std::collections::HashMap;\n";
//! let findings = check_rust_source("crates/core/src/x.rs", source, &LintConfig::default());
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "no-hash-collections");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod engine;
pub mod findings;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;
pub mod taint;

pub use config::{LintConfig, HOT_MODULE_MARKER};
pub use engine::{lint_tree, scan_hot_modules, Report};
pub use findings::{Finding, Level};
pub use lexer::{lex, Token, TokenKind};
pub use rules::{check_manifest, check_rust_source, RULES};
