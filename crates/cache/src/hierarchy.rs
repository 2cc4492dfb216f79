//! A coupled two-level cache hierarchy (the conventional system).
//!
//! The paper's baseline is "a processor with an on-chip cache augmented
//! by an off-chip (secondary SRAM) cache of a megabyte or more". The
//! [`SetAssocCache`] observer used by the hit-rate experiments sees the
//! L1 miss stream but does not model the coupled traffic; [`TwoLevel`]
//! does: L1 misses fetch through the L2, write-backs propagate, and the
//! traffic that escapes to main memory is counted — which is what the
//! memory-bandwidth comparison between a stream-buffer system and a
//! secondary-cache system needs.

use streamsim_trace::{Access, AccessKind, BlockSize};

use crate::{AccessOutcome, CacheConfig, CacheConfigError, CacheStats, SetAssocCache, SplitL1};

/// Where a reference was serviced in a [`TwoLevel`] hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HierarchyOutcome {
    /// Serviced by the primary cache.
    L1Hit,
    /// Missed the L1, hit the secondary cache.
    L2Hit,
    /// Missed both levels; fetched from main memory.
    Memory,
}

/// A split L1 backed by a unified L2 backed by main memory.
///
/// # Example
///
/// ```
/// use streamsim_cache::{CacheConfig, HierarchyOutcome, TwoLevel};
/// use streamsim_trace::{Access, Addr, BlockSize};
///
/// let l1 = CacheConfig::paper_l1()?;
/// let l2 = CacheConfig::new(1 << 20, 2, BlockSize::new(32)?)?;
/// let mut system = TwoLevel::new(l1, l1, l2)?;
/// assert_eq!(system.access(Access::load(Addr::new(0))), HierarchyOutcome::Memory);
/// assert_eq!(system.access(Access::load(Addr::new(8))), HierarchyOutcome::L1Hit);
/// assert_eq!(system.memory_read_blocks(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct TwoLevel {
    l1: SplitL1,
    l2: SetAssocCache,
    l1_block: BlockSize,
    memory_reads: u64,
    memory_writes: u64,
}

impl TwoLevel {
    /// Creates a hierarchy from the two L1 configurations and the L2.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any level.
    pub fn new(
        icache: CacheConfig,
        dcache: CacheConfig,
        l2: CacheConfig,
    ) -> Result<Self, CacheConfigError> {
        Ok(TwoLevel {
            l1: SplitL1::new(icache, dcache)?,
            l2: SetAssocCache::new(l2)?,
            l1_block: dcache.block(),
            memory_reads: 0,
            memory_writes: 0,
        })
    }

    fn l2_access(&mut self, addr: streamsim_trace::Addr, kind: AccessKind) -> bool {
        match self.l2.access(addr, kind) {
            AccessOutcome::Hit => true,
            AccessOutcome::Miss { writeback } => {
                self.memory_reads += 1;
                if writeback.is_some() {
                    self.memory_writes += 1;
                }
                false
            }
        }
    }

    /// Processes one reference through both levels.
    pub fn access(&mut self, access: Access) -> HierarchyOutcome {
        match self.l1.access(access) {
            AccessOutcome::Hit => HierarchyOutcome::L1Hit,
            AccessOutcome::Miss { writeback } => {
                // Dirty L1 victims are written into the L2 (write-back,
                // write-allocate at both levels).
                if let Some(victim) = writeback {
                    self.l2_access(victim.base_addr(self.l1_block), AccessKind::Store);
                }
                if self.l2_access(access.addr, access.kind) {
                    HierarchyOutcome::L2Hit
                } else {
                    HierarchyOutcome::Memory
                }
            }
        }
    }

    /// The primary cache.
    pub fn l1(&self) -> &SplitL1 {
        &self.l1
    }

    /// The secondary cache's statistics (its hit rate over L1 misses and
    /// write-backs is the paper's *local* hit rate).
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Blocks fetched from main memory (L2 misses).
    pub fn memory_read_blocks(&self) -> u64 {
        self.memory_reads
    }

    /// Dirty blocks written back to main memory from the L2.
    pub fn memory_write_blocks(&self) -> u64 {
        self.memory_writes
    }

    /// Total main-memory traffic in bytes (reads + writes of L2 blocks).
    pub fn memory_traffic_bytes(&self) -> u64 {
        (self.memory_reads + self.memory_writes) * self.l2.config().block().bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim_trace::Addr;

    fn system(l2_bytes: u64) -> TwoLevel {
        let l1 = CacheConfig::new(1024, 2, BlockSize::new(32).unwrap()).unwrap();
        let l2 = CacheConfig::new(l2_bytes, 2, BlockSize::new(32).unwrap()).unwrap();
        TwoLevel::new(l1, l1, l2).unwrap()
    }

    #[test]
    fn l2_captures_l1_capacity_misses() {
        // Footprint 4 KB: four times the 1 KB L1, well inside the 16 KB L2.
        let mut sys = system(16 * 1024);
        for pass in 0..3 {
            for i in 0..128u64 {
                let outcome = sys.access(Access::load(Addr::new(i * 32)));
                if pass > 0 {
                    assert_ne!(outcome, HierarchyOutcome::Memory, "pass {pass}, i {i}");
                }
            }
        }
        assert_eq!(
            sys.memory_read_blocks(),
            128,
            "only cold misses reach memory"
        );
    }

    #[test]
    fn memory_traffic_counts_reads_and_dirty_writebacks() {
        let mut sys = system(1024); // L2 same size as L1: thrashes
                                    // Write a 4 KB region twice: dirty blocks must eventually escape.
        for _ in 0..2 {
            for i in 0..128u64 {
                sys.access(Access::store(Addr::new(i * 32)));
            }
        }
        assert!(sys.memory_write_blocks() > 0);
        assert_eq!(
            sys.memory_traffic_bytes(),
            (sys.memory_read_blocks() + sys.memory_write_blocks()) * 32
        );
    }

    #[test]
    fn outcomes_partition_the_reference_stream() {
        let mut sys = system(4 * 1024);
        let mut counts = [0u64; 3];
        for i in 0..1000u64 {
            let a = Addr::new((i * 97) % 8192);
            match sys.access(Access::load(a)) {
                HierarchyOutcome::L1Hit => counts[0] += 1,
                HierarchyOutcome::L2Hit => counts[1] += 1,
                HierarchyOutcome::Memory => counts[2] += 1,
            }
        }
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert_eq!(
            sys.l1().combined_stats().hits(),
            counts[0],
            "L1 outcome accounting matches cache stats"
        );
    }

    #[test]
    fn bigger_l2_reduces_memory_traffic() {
        let run = |l2_bytes| {
            let mut sys = system(l2_bytes);
            for _ in 0..3 {
                for i in 0..256u64 {
                    sys.access(Access::load(Addr::new(i * 32)));
                }
            }
            sys.memory_traffic_bytes()
        };
        assert!(run(16 * 1024) < run(1024));
    }
}
