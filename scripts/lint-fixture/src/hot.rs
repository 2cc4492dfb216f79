//! `clippy::expect_used` in a module that denies it, as the simulator's
//! hot-loop modules do.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub fn first(values: &[u64]) -> u64 {
    *values.first().expect("non-empty")
}
