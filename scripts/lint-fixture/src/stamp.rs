//! `disallowed-types` through a renamed re-export from another file.

use crate::clock::Clock;

pub fn now() -> Clock {
    Clock::now()
}
