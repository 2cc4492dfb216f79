//! The generic set-associative cache simulator.

// Hot-loop module: the per-access lookup below is the simulation's inner loop.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use streamsim_prng::{Rng, Xoshiro256StarStar};

use streamsim_trace::{AccessKind, Addr, BlockAddr};

use crate::{CacheConfig, CacheStats, Replacement};

/// Result of presenting one reference to a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block was present.
    Hit,
    /// The block was absent; it has been filled, and `writeback`, when
    /// present, is a dirty victim block that must be written to the next
    /// level.
    Miss {
        /// Dirty victim evicted by the fill, if any.
        writeback: Option<BlockAddr>,
    },
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// `true` for [`AccessOutcome::Miss`].
    pub const fn is_miss(self) -> bool {
        matches!(self, AccessOutcome::Miss { .. })
    }
}

/// A line displaced by a fill, with its dirtiness — reported by
/// [`SetAssocCache::access_detailed`] so victim caches can capture clean
/// evictions too (plain [`SetAssocCache::access`] only reports dirty
/// write-backs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedLine {
    /// The evicted block.
    pub block: BlockAddr,
    /// Whether it was dirty (needs writing back).
    pub dirty: bool,
}

/// Detailed result of [`SetAssocCache::access_detailed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetailedOutcome {
    /// Whether the block was present.
    pub hit: bool,
    /// The line displaced by the fill (misses only; `None` when an
    /// invalid way absorbed the fill).
    pub evicted: Option<EvictedLine>,
}

/// Sentinel stored in the tag array for invalid lines. A real tag is
/// `block >> set_bits` where `block = addr >> block_log2`, so it always
/// has at least one zero high bit for any practical geometry (block ≥ 2
/// bytes or ≥ 2 sets) and can never equal `u64::MAX`; a `debug_assert`
/// in `locate` guards the pathological remainder. Encoding validity in
/// the tag itself keeps the probe to a single dependent load: no
/// separate valid-bit lookup.
const INVALID_TAG: u64 = u64::MAX;

/// A packed bitmap, one bit per cache line — used for the dirty bits,
/// which only the store/fill/evict paths touch.
#[derive(Clone, Debug, Default)]
struct BitVec {
    words: Vec<u64>,
}

impl BitVec {
    fn new(bits: usize) -> Self {
        BitVec {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    #[inline(always)]
    fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    /// Branchless `bit |= v` — the hot paths call this with a
    /// data-dependent `v` (is the access a store?), and an unconditional
    /// read-modify-write beats a mispredict-prone branch.
    #[inline(always)]
    fn or_assign(&mut self, i: usize, v: bool) {
        self.words[i >> 6] |= (v as u64) << (i & 63);
    }

    /// Branchless `bit = v`.
    #[inline(always)]
    fn assign(&mut self, i: usize, v: bool) {
        let w = &mut self.words[i >> 6];
        *w = (*w & !(1 << (i & 63))) | ((v as u64) << (i & 63));
    }
}

/// A set-associative cache simulating tags and dirty bits (no data).
///
/// Supports LRU, seeded-random and tree-PLRU replacement with
/// write-back/write-allocate handling. It simulates every set; set
/// sampling is a replay-layer choice of which sets to count.
///
/// # Layout
///
/// Storage is structure-of-arrays, sized for the recording hot loop: a
/// dense way-contiguous tag array probed with a precomputed shift/mask,
/// packed valid/dirty bitmaps, and replacement stamps allocated (and
/// touched) only for the policy that reads them (LRU). A per-set
/// MRU way is probed first — it is a pure hint (replacement state is
/// untouched), but it turns the ~95 % of references that hit the most
/// recently used way into a single compare. Outcomes, statistics and
/// PRNG consumption are bit-identical to the pre-SoA implementation
/// ([`crate::reference::ReferenceCache`]), pinned by property tests.
///
/// # Example
///
/// ```
/// use streamsim_cache::{CacheConfig, SetAssocCache};
/// use streamsim_trace::{AccessKind, Addr, BlockSize};
///
/// let cfg = CacheConfig::new(1024, 2, BlockSize::new(32)?)?;
/// let mut cache = SetAssocCache::new(cfg)?;
/// cache.access(Addr::new(0), AccessKind::Load);
/// assert!(cache.probe(Addr::new(16)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Dense tag array, way-contiguous: line `set * assoc + way`.
    /// [`INVALID_TAG`] marks an invalid line, so validity costs no
    /// second load on the probe.
    tags: Vec<u64>,
    dirty: BitVec,
    /// LRU last-touch times. Empty for random and tree-PLRU, which never
    /// read stamps.
    stamps: Vec<u64>,
    /// Most recently *hit or filled* way per set — a probe hint only.
    mru: Vec<u32>,
    set_mask: u64,
    set_bits: u32,
    /// `log2(block bytes)`: the probe's only address arithmetic.
    block_log2: u32,
    assoc: u32,
    replacement: Replacement,
    /// Policy flags precomputed from `replacement`, so the hit path
    /// branches on a byte instead of matching the enum.
    lru: bool,
    plru_on: bool,
    clock: u64,
    rng: Option<Xoshiro256StarStar>,
    /// One word of tree bits per set (tree-PLRU only).
    plru: Vec<u64>,
    stats: CacheStats,
}

/// Tree-PLRU helpers: the tree is stored one bit per internal node in a
/// u64 (heap order, root at bit 1); bit 0 sends the victim search left,
/// bit 1 right, and touches point the bits *away* from the touched way.
fn plru_touch(bits: &mut u64, assoc: u32, way: u32) {
    let mut node = 1u32;
    let mut span = assoc;
    while span > 1 {
        span /= 2;
        let right = way & span != 0;
        if right {
            *bits &= !(1 << node); // point left, away from the touched way
        } else {
            *bits |= 1 << node; // point right
        }
        node = node * 2 + right as u32;
    }
}

/// Branchless way scan over a fixed-width tag slice: returns the hit way
/// and the first invalid way (each `usize::MAX` when absent). The const
/// width lets the compiler unroll the whole scan into straight-line
/// compares and conditional moves — no data-dependent branch, no loop.
#[inline(always)]
fn scan_ways<const N: usize>(tags: &[u64; N], tag: u64) -> (usize, usize) {
    let mut hit_way = usize::MAX;
    let mut first_invalid = usize::MAX;
    for (way, &t) in tags.iter().enumerate() {
        hit_way = if t == tag { way } else { hit_way };
        let invalid_first = t == INVALID_TAG && first_invalid == usize::MAX;
        first_invalid = if invalid_first { way } else { first_invalid };
    }
    (hit_way, first_invalid)
}

/// [`scan_ways`] for associativities without a const specialization.
#[inline(always)]
fn scan_ways_dyn(tags: &[u64], tag: u64) -> (usize, usize) {
    let mut hit_way = usize::MAX;
    let mut first_invalid = usize::MAX;
    for (way, &t) in tags.iter().enumerate() {
        hit_way = if t == tag { way } else { hit_way };
        let invalid_first = t == INVALID_TAG && first_invalid == usize::MAX;
        first_invalid = if invalid_first { way } else { first_invalid };
    }
    (hit_way, first_invalid)
}

fn plru_victim(bits: u64, assoc: u32) -> u32 {
    let mut node = 1u32;
    let mut span = assoc;
    let mut way = 0u32;
    while span > 1 {
        span /= 2;
        let bit = (bits >> node) & 1;
        if bit == 1 {
            way += span;
        }
        node = node * 2 + bit as u32;
    }
    way
}

impl SetAssocCache {
    /// Creates a cache simulating every set of `config`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CacheConfigError::PlruNeedsPowerOfTwoAssoc`] if
    /// `config` asks for tree-PLRU replacement over an associativity that
    /// is not a power of two, or above 64.
    pub fn new(config: CacheConfig) -> Result<Self, crate::CacheConfigError> {
        let sets = config.num_sets();
        let rng = match config.replacement() {
            Replacement::Random { seed } => Some(Xoshiro256StarStar::seed_from_u64(seed)),
            _ => None,
        };
        let plru = if config.replacement() == Replacement::TreePlru {
            if !config.assoc().is_power_of_two() || config.assoc() > 64 {
                return Err(crate::CacheConfigError::PlruNeedsPowerOfTwoAssoc {
                    assoc: config.assoc(),
                });
            }
            vec![0u64; sets as usize]
        } else {
            Vec::new()
        };
        let lines = (sets * config.assoc() as u64) as usize;
        let lru = config.replacement() == Replacement::Lru;
        let stamps = if lru { vec![0u64; lines] } else { Vec::new() };
        Ok(SetAssocCache {
            config,
            tags: vec![INVALID_TAG; lines],
            dirty: BitVec::new(lines),
            stamps,
            mru: vec![0; sets as usize],
            set_mask: sets - 1,
            set_bits: config.set_index_bits(),
            block_log2: config.block().log2(),
            assoc: config.assoc(),
            replacement: config.replacement(),
            lru,
            plru_on: config.replacement() == Replacement::TreePlru,
            clock: 0,
            rng,
            plru,
            stats: CacheStats::new(),
        })
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the statistics (cache contents are retained), e.g. after a
    /// warm-up period.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// `(set, tag)` for `addr` — shift/mask only.
    #[inline(always)]
    fn locate(&self, addr: Addr) -> (u64, u64) {
        let block = addr.raw() >> self.block_log2;
        let tag = block >> self.set_bits;
        debug_assert!(tag != INVALID_TAG, "tag collides with the invalid sentinel");
        (block & self.set_mask, tag)
    }

    /// Presents one reference; fills on miss.
    #[inline(always)]
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessOutcome {
        match self.access_detailed(addr, kind) {
            DetailedOutcome { hit: true, .. } => AccessOutcome::Hit,
            DetailedOutcome {
                hit: false,
                evicted,
            } => AccessOutcome::Miss {
                writeback: evicted.filter(|e| e.dirty).map(|e| e.block),
            },
        }
    }

    /// Hit bookkeeping shared by the MRU fast path and the full way
    /// scan. `idx` is the line index (`set * assoc + way`).
    #[inline(always)]
    fn register_hit(&mut self, set: u64, way: u32, idx: usize, kind: AccessKind) {
        if self.lru {
            self.stamps[idx] = self.clock;
        } else if self.plru_on {
            plru_touch(&mut self.plru[set as usize], self.assoc, way);
        }
        self.dirty.or_assign(idx, kind.is_store());
        self.mru[set as usize] = way;
        self.stats.record_hit(kind);
    }

    /// Like [`SetAssocCache::access`] but reports the evicted line even
    /// when clean, which a victim cache needs.
    #[inline(always)]
    pub fn access_detailed(&mut self, addr: Addr, kind: AccessKind) -> DetailedOutcome {
        let (set, tag) = self.locate(addr);
        let base = set as usize * self.assoc as usize;
        // The clock only feeds LRU stamps; skip the counter when no stamp
        // will ever read it.
        if self.lru {
            self.clock += 1;
        }

        // Fast path: most references hit the most recently used way, and
        // the sentinel encoding makes the probe one load + compare. The
        // hint never changes replacement state, so probing it first is
        // outcome-identical to the scan (a tag lives in at most one
        // valid way per set).
        let hint = self.mru[set as usize];
        let idx = base + hint as usize;
        if self.tags[idx] == tag {
            self.register_hit(set, hint, idx, kind);
            return DetailedOutcome {
                hit: true,
                evicted: None,
            };
        }
        self.scan_or_fill(set, tag, kind)
    }

    /// The slow half of [`SetAssocCache::access_detailed`]: full way
    /// scan, then the miss/fill path.
    #[inline]
    fn scan_or_fill(&mut self, set: u64, tag: u64, kind: AccessKind) -> DetailedOutcome {
        let assoc = self.assoc as usize;
        let base = set as usize * assoc;

        // One branchless pass over the dense tag slice: a hit lives in at
        // most one valid way, and the first invalid way is the fill's
        // preferred victim. Conditional moves keep the scan free of
        // data-dependent branches — which way matches is unpredictable,
        // and an early-exit compare per way costs a mispredict each. The
        // 4-way case (every L1 in the paper) gets a fixed-length scan the
        // compiler fully unrolls; other associativities take the dynamic
        // loop.
        #[expect(
            clippy::expect_used,
            reason = "the slice is base..base+4 by construction, so the array conversion cannot fail"
        )]
        let (hit_way, first_invalid) = if assoc == 4 {
            scan_ways::<4>(self.tags[base..base + 4].try_into().expect("len 4"), tag)
        } else {
            scan_ways_dyn(&self.tags[base..base + assoc], tag)
        };
        if hit_way != usize::MAX {
            self.register_hit(set, hit_way as u32, base + hit_way, kind);
            return DetailedOutcome {
                hit: true,
                evicted: None,
            };
        }

        self.stats.record_miss(kind);

        // Choose a victim: first invalid way, otherwise per policy.
        #[expect(
            clippy::expect_used,
            reason = "CacheConfig rejects associativity 0, so a set is never empty; the \
                      constructor seeds an rng whenever the policy is Random"
        )]
        let victim = if first_invalid != usize::MAX {
            first_invalid
        } else {
            match self.replacement {
                // min_by_key returns the FIRST minimum — ties break to
                // the lowest way, as before.
                Replacement::Lru => self.stamps[base..base + assoc]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, s)| s)
                    .map(|(w, _)| w)
                    .expect("associativity >= 1"),
                // Exactly one PRNG draw per full-set eviction, over the
                // same range as the pre-SoA implementation.
                Replacement::Random { .. } => self
                    .rng
                    .as_mut()
                    .expect("random replacement has an rng")
                    .gen_range(0..assoc),
                Replacement::TreePlru => plru_victim(self.plru[set as usize], self.assoc) as usize,
            }
        };

        let vidx = base + victim;
        let evicted = if self.tags[vidx] != INVALID_TAG {
            let dirty = self.dirty.get(vidx);
            if dirty {
                self.stats.writebacks += 1;
            }
            Some(EvictedLine {
                block: BlockAddr::from_index((self.tags[vidx] << self.set_bits) | set),
                dirty,
            })
        } else {
            None
        };
        self.tags[vidx] = tag;
        self.dirty.assign(vidx, kind.is_store());
        if self.lru {
            self.stamps[vidx] = self.clock;
        } else if self.plru_on {
            plru_touch(&mut self.plru[set as usize], self.assoc, victim as u32);
        }
        self.mru[set as usize] = victim as u32;
        DetailedOutcome {
            hit: false,
            evicted,
        }
    }

    /// Whether the block containing `addr` is present (no state change,
    /// no statistics).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.locate(addr);
        let base = set as usize * self.assoc as usize;
        (0..self.assoc as usize).any(|w| self.tags[base + w] == tag)
    }

    /// Number of valid lines currently held.
    pub fn resident_blocks(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim_trace::BlockSize;

    fn small(assoc: u32, replacement: Replacement) -> SetAssocCache {
        // 4 sets x assoc x 32B blocks.
        let cfg = CacheConfig::new(4 * assoc as u64 * 32, assoc, BlockSize::new(32).unwrap())
            .unwrap()
            .with_replacement(replacement);
        SetAssocCache::new(cfg).unwrap()
    }

    fn block_addr(set: u64, tag: u64) -> Addr {
        // 4 sets, 32-byte blocks.
        Addr::new(((tag << 2) | set) * 32)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(2, Replacement::Lru);
        assert!(c.access(Addr::new(0x100), AccessKind::Load).is_miss());
        assert!(c.access(Addr::new(0x11f), AccessKind::Load).is_hit());
        assert_eq!(c.stats().accesses(), 2);
        assert_eq!(c.stats().hits(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(2, Replacement::Lru);
        let a = block_addr(0, 1);
        let b = block_addr(0, 2);
        let d = block_addr(0, 3);
        c.access(a, AccessKind::Load);
        c.access(b, AccessKind::Load);
        c.access(a, AccessKind::Load); // a now MRU
        c.access(d, AccessKind::Load); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn random_replacement_is_reproducible() {
        let run = || {
            let mut c = small(2, Replacement::Random { seed: 7 });
            let mut hits = 0;
            for i in 0..1000u64 {
                if c.access(Addr::new((i * 97) % 4096 * 32), AccessKind::Load)
                    .is_hit()
                {
                    hits += 1;
                }
            }
            hits
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn plru_behaves_like_lru_for_two_way() {
        // With associativity 2 the PLRU tree is a single bit: exactly LRU.
        let mk = |policy| {
            let cfg = CacheConfig::new(4 * 2 * 32, 2, BlockSize::new(32).unwrap())
                .unwrap()
                .with_replacement(policy);
            SetAssocCache::new(cfg).unwrap()
        };
        let mut lru = mk(Replacement::Lru);
        let mut plru = mk(Replacement::TreePlru);
        // A deterministic mixed pattern within one set.
        let addrs: Vec<Addr> = [1u64, 2, 3, 1, 4, 2, 5, 1, 2, 3, 4, 5, 1]
            .iter()
            .map(|&t| block_addr(0, t))
            .collect();
        for &a in &addrs {
            assert_eq!(
                lru.access(a, AccessKind::Load).is_hit(),
                plru.access(a, AccessKind::Load).is_hit(),
                "diverged at {a}"
            );
        }
    }

    #[test]
    fn plru_four_way_protects_recently_touched_ways() {
        let cfg = CacheConfig::new(4 * 4 * 32, 4, BlockSize::new(32).unwrap())
            .unwrap()
            .with_replacement(Replacement::TreePlru);
        let mut c = SetAssocCache::new(cfg).unwrap();
        // Fill a set with tags 1-4, touch 1 and 2, then force an eviction:
        // the victim must not be 1 or 2.
        for t in 1..=4 {
            c.access(block_addr(0, t), AccessKind::Load);
        }
        c.access(block_addr(0, 1), AccessKind::Load);
        c.access(block_addr(0, 2), AccessKind::Load);
        c.access(block_addr(0, 9), AccessKind::Load); // evicts 3 or 4
        assert!(c.probe(block_addr(0, 1)));
        assert!(c.probe(block_addr(0, 2)));
    }

    #[test]
    fn plru_rejects_non_power_of_two_assoc() {
        let cfg = CacheConfig::new(3 * 32 * 4, 3, BlockSize::new(32).unwrap());
        // 3-way with 4 sets: geometry valid, PLRU invalid.
        let cfg = cfg.unwrap().with_replacement(Replacement::TreePlru);
        assert!(matches!(
            SetAssocCache::new(cfg),
            Err(crate::CacheConfigError::PlruNeedsPowerOfTwoAssoc { assoc: 3 })
        ));
    }

    #[test]
    fn writeback_produced_only_for_dirty_victims() {
        let mut c = small(1, Replacement::Lru);
        let a = block_addr(1, 1);
        let b = block_addr(1, 2);
        let d = block_addr(1, 3);
        c.access(a, AccessKind::Store); // dirty
        let out = c.access(b, AccessKind::Load); // evicts dirty a
        assert_eq!(
            out,
            AccessOutcome::Miss {
                writeback: Some(a.block(BlockSize::new(32).unwrap()))
            }
        );
        let out = c.access(d, AccessKind::Load); // evicts clean b
        assert_eq!(out, AccessOutcome::Miss { writeback: None });
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = small(1, Replacement::Lru);
        let a = block_addr(0, 1);
        c.access(a, AccessKind::Load);
        c.access(a, AccessKind::Store); // hit, dirties the line
        let b = block_addr(0, 2);
        let out = c.access(b, AccessKind::Load);
        assert!(matches!(out, AccessOutcome::Miss { writeback: Some(_) }));
    }

    #[test]
    fn resident_blocks_counts_valid_lines() {
        let mut c = small(2, Replacement::Lru);
        assert_eq!(c.resident_blocks(), 0);
        c.access(block_addr(0, 1), AccessKind::Load);
        c.access(block_addr(2, 1), AccessKind::Load);
        assert_eq!(c.resident_blocks(), 2);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small(2, Replacement::Lru);
        let a = block_addr(0, 1);
        c.access(a, AccessKind::Load);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.access(a, AccessKind::Load).is_hit());
    }
}
