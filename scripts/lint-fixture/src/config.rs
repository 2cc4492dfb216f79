//! `disallowed-methods` through a renamed module re-export.

pub fn knob() -> Option<String> {
    crate::e::var("STREAMSIM_FIXTURE").ok()
}
