//! `disallowed-types` through a type alias: clippy reports the alias's
//! declaration, not its later uses.

pub type FastMap = std::collections::HashMap<u64, u64>;

pub fn empty() -> FastMap {
    FastMap::new()
}
