//! A banned type re-exported under another name; `stamp` uses it.

pub use std::time::Instant as Clock;
