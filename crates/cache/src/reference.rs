//! The pre-SoA reference cache model.
//!
//! [`ReferenceCache`] is the array-of-structs implementation
//! [`SetAssocCache`](crate::SetAssocCache) used before its storage was
//! restructured into structure-of-arrays, less the options `SetAssocCache`
//! no longer has (every set is simulated). It is kept for two jobs:
//!
//! * **equivalence oracle** — the SoA cache must match it outcome for
//!   outcome (stats, hits, eviction sequence) under every policy and
//!   geometry, which the `soa_equivalence` property tests check against
//!   randomized traces;
//! * **benchmark baseline** — the `recording` bench measures the SoA
//!   hot loop against this model reading the same chunks reference by
//!   reference, so the tracked speedup is the cache model's and the
//!   event recording's, not the generator's.
//!
//! It is deliberately *not* optimised; do not use it in drivers.

use streamsim_prng::{Rng, Xoshiro256StarStar};

use streamsim_trace::{AccessKind, Addr, BlockAddr};

use crate::{AccessOutcome, CacheConfig, CacheStats, DetailedOutcome, EvictedLine, Replacement};

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU: last-touch time. Unused for random and tree-PLRU.
    stamp: u64,
}

/// Tree-PLRU helpers, identical to the original implementation.
fn plru_touch(bits: &mut u64, assoc: u32, way: u32) {
    let mut node = 1u32;
    let mut span = assoc;
    while span > 1 {
        span /= 2;
        let right = way & span != 0;
        if right {
            *bits &= !(1 << node);
        } else {
            *bits |= 1 << node;
        }
        node = node * 2 + right as u32;
    }
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

/// The array-of-structs set-associative cache, exactly as it was before
/// the SoA restructuring. Same outcomes, same statistics, same PRNG
/// consumption — only slower.
#[derive(Clone, Debug)]
pub struct ReferenceCache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_mask: u64,
    set_bits: u32,
    clock: u64,
    rng: Option<Xoshiro256StarStar>,
    plru: Vec<u64>,
    stats: CacheStats,
}

impl ReferenceCache {
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
        Ok(ReferenceCache {
            config,
            lines: vec![Line::default(); (sets * config.assoc() as u64) as usize],
            set_mask: sets - 1,
            set_bits: config.set_index_bits(),
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

    fn locate(&self, addr: Addr) -> (u64, u64) {
        let block = addr.block(self.config.block()).index();
        (block & self.set_mask, block >> self.set_bits)
    }

    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let assoc = self.config.assoc() as usize;
        let start = set as usize * assoc;
        start..start + assoc
    }

    /// Presents one reference; fills on miss.
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

    /// Like [`ReferenceCache::access`] but reports the evicted line even
    /// when clean.
    pub fn access_detailed(&mut self, addr: Addr, kind: AccessKind) -> DetailedOutcome {
        let (set, tag) = self.locate(addr);
        let replacement = self.config.replacement();
        let range = self.set_range(set);
        self.clock += 1;
        let clock = self.clock;

        // Hit?
        for (way, line) in self.lines[range.clone()].iter_mut().enumerate() {
            if line.valid && line.tag == tag {
                if replacement == Replacement::Lru {
                    line.stamp = clock;
                }
                if replacement == Replacement::TreePlru {
                    plru_touch(
                        &mut self.plru[set as usize],
                        self.config.assoc(),
                        way as u32,
                    );
                }
                if kind.is_store() {
                    line.dirty = true;
                }
                self.stats.record(kind, true);
                return DetailedOutcome {
                    hit: true,
                    evicted: None,
                };
            }
        }

        self.stats.record(kind, false);

        // Choose a victim: first invalid line, otherwise per policy.
        let victim_index = {
            let ways = &self.lines[range.clone()];
            match ways.iter().position(|l| !l.valid) {
                Some(i) => i,
                None => match replacement {
                    Replacement::Lru => ways
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.stamp)
                        .map(|(i, _)| i)
                        .expect("associativity >= 1"),
                    Replacement::Random { .. } => self
                        .rng
                        .as_mut()
                        .expect("random replacement has an rng")
                        .gen_range(0..range.len()),
                    Replacement::TreePlru => {
                        plru_victim(self.plru[set as usize], self.config.assoc()) as usize
                    }
                },
            }
        };

        let line = &mut self.lines[range.start + victim_index];
        let evicted = if line.valid {
            if line.dirty {
                self.stats.writebacks += 1;
            }
            Some(EvictedLine {
                block: BlockAddr::from_index((line.tag << self.set_bits) | set),
                dirty: line.dirty,
            })
        } else {
            None
        };
        *line = Line {
            tag,
            valid: true,
            dirty: kind.is_store(),
            stamp: clock,
        };
        if replacement == Replacement::TreePlru {
            plru_touch(
                &mut self.plru[set as usize],
                self.config.assoc(),
                victim_index as u32,
            );
        }
        DetailedOutcome {
            hit: false,
            evicted,
        }
    }

    /// Whether the block containing `addr` is present (no state change,
    /// no statistics).
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.locate(addr);
        self.lines[self.set_range(set)]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Number of valid lines currently held.
    pub fn resident_blocks(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid).count() as u64
    }
}
