//! Planted violations, one per invariant. Each comment names the check
//! that must report it.

// Library crates deny debug output, as every simulator crate does.
#![deny(clippy::print_stdout, clippy::dbg_macro)]

pub mod clock;
pub mod config;
pub mod fanout;
pub mod fast_map;
pub mod hot;
pub mod stamp;

/// A module re-export under another name: `config` calls `e::var`.
pub use std::env as e;

/// `clippy::print_stdout`.
pub fn report(value: u64) {
    println!("{value}");
}

/// `clippy::allow_attributes_without_reason`.
#[allow(clippy::needless_return)]
pub fn reasonless() -> u64 {
    return 1;
}

/// `unfulfilled_lint_expectations`: nothing here calls `expect`.
#[expect(clippy::expect_used, reason = "a stale suppression")]
pub fn stale() -> u64 {
    2
}
