//! The split primary cache (separate instruction and data caches).

use streamsim_trace::{Access, AccessKind, Addr};

use crate::{AccessOutcome, CacheConfig, CacheConfigError, CacheStats, SetAssocCache};

/// A split L1: separate instruction and data caches, as in the paper's
/// simulated processor (64 KB I + 64 KB D, 4-way).
///
/// Instruction fetches go to the I-cache; loads and stores go to the
/// D-cache. Misses from either side form the unified miss stream presented
/// to the stream buffers.
///
/// # Example
///
/// ```
/// use streamsim_cache::SplitL1;
/// use streamsim_trace::{Access, Addr};
///
/// let mut l1 = SplitL1::paper()?;
/// let outcome = l1.access(Access::ifetch(Addr::new(0x400000)));
/// assert!(outcome.is_miss());
/// assert_eq!(l1.icache().stats().misses(), 1);
/// assert_eq!(l1.dcache().stats().accesses(), 0);
/// # Ok::<(), streamsim_cache::CacheConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SplitL1 {
    icache: SetAssocCache,
    dcache: SetAssocCache,
}

impl SplitL1 {
    /// Creates a split L1 from separate I and D configurations.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from either side.
    pub fn new(icfg: CacheConfig, dcfg: CacheConfig) -> Result<Self, CacheConfigError> {
        Ok(SplitL1 {
            icache: SetAssocCache::new(icfg)?,
            dcache: SetAssocCache::new(dcfg)?,
        })
    }

    /// The paper's configuration: 64 KB I + 64 KB D, both 4-way with
    /// random replacement and write-back/write-allocate data handling.
    ///
    /// # Errors
    ///
    /// Never fails in practice; fallible for uniformity.
    pub fn paper() -> Result<Self, CacheConfigError> {
        let cfg = CacheConfig::paper_l1()?;
        Self::new(cfg, cfg)
    }

    /// Routes one reference to the appropriate side.
    #[inline(always)]
    pub fn access(&mut self, access: Access) -> AccessOutcome {
        match access.kind {
            AccessKind::IFetch => self.icache.access(access.addr, access.kind),
            AccessKind::Load | AccessKind::Store => self.dcache.access(access.addr, access.kind),
        }
    }

    /// The instruction cache.
    pub fn icache(&self) -> &SetAssocCache {
        &self.icache
    }

    /// The data cache.
    pub fn dcache(&self) -> &SetAssocCache {
        &self.dcache
    }

    /// Invalidates a block in the data cache (e.g. external intervention).
    pub fn invalidate_data(&mut self, addr: Addr) -> Option<bool> {
        self.dcache.invalidate(addr)
    }

    /// Combined statistics of both sides.
    pub fn combined_stats(&self) -> CacheStats {
        let mut stats = *self.icache.stats();
        stats += *self.dcache.stats();
        stats
    }

    /// Total misses across both sides (the length of the unified miss
    /// stream the stream buffers observe).
    pub fn total_misses(&self) -> u64 {
        self.icache.stats().misses() + self.dcache.stats().misses()
    }

    /// Zeroes statistics on both sides, retaining contents.
    pub fn reset_stats(&mut self) {
        self.icache.reset_stats();
        self.dcache.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim_trace::BlockSize;

    fn tiny() -> SplitL1 {
        let cfg = CacheConfig::new(256, 2, BlockSize::new(32).unwrap()).unwrap();
        SplitL1::new(cfg, cfg).unwrap()
    }

    #[test]
    fn routes_by_kind() {
        let mut l1 = tiny();
        l1.access(Access::ifetch(Addr::new(0)));
        l1.access(Access::load(Addr::new(0)));
        l1.access(Access::store(Addr::new(0)));
        assert_eq!(l1.icache().stats().accesses(), 1);
        assert_eq!(l1.dcache().stats().accesses(), 2);
    }

    #[test]
    fn same_address_is_independent_per_side() {
        let mut l1 = tiny();
        assert!(l1.access(Access::ifetch(Addr::new(64))).is_miss());
        // The D-cache has not seen the block: still a miss there.
        assert!(l1.access(Access::load(Addr::new(64))).is_miss());
        assert!(l1.access(Access::ifetch(Addr::new(64))).is_hit());
    }

    #[test]
    fn combined_stats_sum_sides() {
        let mut l1 = tiny();
        l1.access(Access::ifetch(Addr::new(0)));
        l1.access(Access::load(Addr::new(1024)));
        l1.access(Access::load(Addr::new(1024)));
        let stats = l1.combined_stats();
        assert_eq!(stats.accesses(), 3);
        assert_eq!(stats.hits(), 1);
        assert_eq!(l1.total_misses(), 2);
    }

    #[test]
    fn invalidate_data_touches_only_dcache() {
        let mut l1 = tiny();
        l1.access(Access::ifetch(Addr::new(0)));
        l1.access(Access::store(Addr::new(0)));
        assert_eq!(l1.invalidate_data(Addr::new(0)), Some(true));
        assert!(l1.icache().probe(Addr::new(0)), "icache copy untouched");
    }

    #[test]
    fn paper_preset_sizes() {
        let l1 = SplitL1::paper().unwrap();
        assert_eq!(l1.icache().config().size_bytes(), 64 * 1024);
        assert_eq!(l1.dcache().config().size_bytes(), 64 * 1024);
        assert_eq!(l1.dcache().config().assoc(), 4);
    }

    #[test]
    fn reset_stats_clears_both() {
        let mut l1 = tiny();
        l1.access(Access::ifetch(Addr::new(0)));
        l1.access(Access::load(Addr::new(0)));
        l1.reset_stats();
        assert_eq!(l1.combined_stats().accesses(), 0);
    }
}
