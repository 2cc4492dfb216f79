//! Jouppi's original front end: a direct-mapped L1 with a victim cache.
//!
//! The paper simulates a 4-way primary so that "the associativity
//! minimized the effect of cache conflicts … (In a direct-mapped cache,
//! Jouppi's victim buffers may also be needed.)" [`VictimL1`] is that
//! sidestepped configuration, built so the ablation suite can measure it:
//! a direct-mapped (or any) cache whose evictions — clean *and* dirty —
//! spill into a small fully-associative [`VictimCache`], and whose misses
//! first try to recover the block from there before going to memory (and
//! the stream buffers).

use streamsim_trace::{AccessKind, Addr, BlockSize};

use crate::{CacheConfig, CacheConfigError, CacheStats, SetAssocCache, VictimCache, VictimOutcome};

/// Where a reference was serviced by a [`VictimL1`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VictimL1Outcome {
    /// Hit in the primary cache.
    Hit,
    /// Missed the primary but recovered from the victim cache (a fast
    /// swap, not a memory access).
    VictimHit,
    /// True miss: the block must come from the next level.
    Miss,
}

/// A cache coupled with a victim buffer that captures every eviction.
///
/// # Example
///
/// ```
/// use streamsim_cache::{CacheConfig, VictimL1, VictimL1Outcome};
/// use streamsim_trace::{AccessKind, Addr, BlockSize};
///
/// // Direct-mapped 4 KB cache + 4-entry victim buffer.
/// let cfg = CacheConfig::new(4096, 1, BlockSize::new(32)?)?;
/// let mut l1 = VictimL1::new(cfg, 4)?;
/// // Two conflicting blocks ping-pong; the victim cache recovers them.
/// let (a, b) = (Addr::new(0), Addr::new(4096));
/// l1.access(a, AccessKind::Load);
/// l1.access(b, AccessKind::Load); // evicts a into the victim buffer
/// assert_eq!(l1.access(a, AccessKind::Load), VictimL1Outcome::VictimHit);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct VictimL1 {
    cache: SetAssocCache,
    victims: VictimCache,
    block: BlockSize,
    victim_hits: u64,
    true_misses: u64,
}

impl VictimL1 {
    /// Creates the coupled pair with a victim buffer of
    /// `victim_entries` blocks.
    ///
    /// # Errors
    ///
    /// Propagates cache configuration errors.
    pub fn new(config: CacheConfig, victim_entries: usize) -> Result<Self, CacheConfigError> {
        Ok(VictimL1 {
            cache: SetAssocCache::new(config)?,
            victims: VictimCache::new(victim_entries),
            block: config.block(),
            victim_hits: 0,
            true_misses: 0,
        })
    }

    /// Processes one reference.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> VictimL1Outcome {
        match self.cache.access_detailed(addr, kind) {
            crate::DetailedOutcome { hit: true, .. } => VictimL1Outcome::Hit,
            crate::DetailedOutcome {
                hit: false,
                evicted,
            } => {
                // Every displaced line — clean or dirty — goes to the
                // victim buffer (this is what distinguishes a victim
                // cache from a plain write buffer).
                if let Some(e) = evicted {
                    self.victims.insert_victim(e.block, e.dirty);
                }
                if self.victims.lookup(addr.block(self.block)) == VictimOutcome::Hit {
                    self.victim_hits += 1;
                    VictimL1Outcome::VictimHit
                } else {
                    self.true_misses += 1;
                    VictimL1Outcome::Miss
                }
            }
        }
    }

    /// The primary cache's statistics (its misses include the ones the
    /// victim buffer recovered).
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Primary misses recovered by the victim buffer.
    pub fn victim_hits(&self) -> u64 {
        self.victim_hits
    }

    /// Misses that escaped both structures.
    pub fn true_misses(&self) -> u64 {
        self.true_misses
    }

    /// Fraction of primary misses the victim buffer recovered.
    pub fn recovery_rate(&self) -> f64 {
        let total = self.victim_hits + self.true_misses;
        if total == 0 {
            0.0
        } else {
            self.victim_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(kb: u64, victims: usize) -> VictimL1 {
        let cfg = CacheConfig::new(kb * 1024, 1, BlockSize::new(32).unwrap()).unwrap();
        VictimL1::new(cfg, victims).unwrap()
    }

    #[test]
    fn ping_pong_is_fully_recovered() {
        let mut l1 = dm(4, 4);
        let (a, b) = (Addr::new(0), Addr::new(4096));
        l1.access(a, AccessKind::Load);
        l1.access(b, AccessKind::Load);
        for _ in 0..20 {
            assert_eq!(l1.access(a, AccessKind::Load), VictimL1Outcome::VictimHit);
            assert_eq!(l1.access(b, AccessKind::Load), VictimL1Outcome::VictimHit);
        }
        assert_eq!(l1.true_misses(), 2, "only the cold misses escape");
        assert!(l1.recovery_rate() > 0.9);
    }

    #[test]
    fn five_way_conflict_defeats_a_small_victim_buffer() {
        // 5 blocks conflicting in one set cycle through a 2-entry victim
        // buffer faster than they return: recovery stays low.
        let mut l1 = dm(4, 2);
        for round in 0..10u64 {
            for i in 0..5u64 {
                l1.access(Addr::new(i * 4096), AccessKind::Load);
            }
            let _ = round;
        }
        assert!(
            l1.recovery_rate() < 0.2,
            "recovery {} should be low",
            l1.recovery_rate()
        );
    }

    #[test]
    fn sequential_misses_are_not_recovered() {
        // Streaming has no conflicts to recover — the victim buffer is
        // orthogonal to what stream buffers fix.
        let mut l1 = dm(4, 8);
        for i in 0..1000u64 {
            l1.access(Addr::new(i * 32), AccessKind::Load);
        }
        assert_eq!(l1.victim_hits(), 0);
    }

    #[test]
    fn capacity_witness_outcomes_partition() {
        let mut l1 = dm(4, 4);
        let mut counts = [0u64; 3];
        for i in 0..500u64 {
            match l1.access(Addr::new((i * 131) % 16384), AccessKind::Load) {
                VictimL1Outcome::Hit => counts[0] += 1,
                VictimL1Outcome::VictimHit => counts[1] += 1,
                VictimL1Outcome::Miss => counts[2] += 1,
            }
        }
        assert_eq!(counts.iter().sum::<u64>(), 500);
        assert_eq!(counts[1], l1.victim_hits());
        assert_eq!(counts[2], l1.true_misses());
    }
}
