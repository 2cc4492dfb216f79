//! Property-based tests for the cache replacement policies, on the
//! in-tree `streamsim-quickcheck` harness.

use streamsim_prng::quickcheck::{check, check_with};
use streamsim_prng::Rng;

use streamsim_cache::{CacheConfig, Replacement, SetAssocCache};
use streamsim_trace::{AccessKind, Addr, BlockSize};

const BLOCK: u64 = 32;

/// Build a small cache with the given policy: 4 sets × `assoc` ways.
fn cache(assoc: u32, policy: Replacement) -> SetAssocCache {
    let cfg = CacheConfig::new(
        4 * assoc as u64 * BLOCK,
        assoc,
        BlockSize::new(BLOCK).unwrap(),
    )
    .unwrap()
    .with_replacement(policy);
    SetAssocCache::new(cfg).unwrap()
}

/// Address of block `tag` in set `set` (4 sets).
fn addr(set: u64, tag: u64) -> Addr {
    Addr::new(((tag << 2) | set) * BLOCK)
}

/// LRU invariant: after any access sequence confined to one set, the
/// `assoc` most recently used distinct blocks are exactly the resident
/// ones.
#[test]
fn lru_keeps_the_most_recent_blocks() {
    check_with("lru_keeps_the_most_recent_blocks", 96, |g| {
        let tags = g.vec(1usize..60, |g| g.gen_range(0u64..12));
        let assoc = g.gen_range(1u32..5);
        let mut c = cache(assoc, Replacement::Lru);
        for &t in &tags {
            c.access(addr(2, t), AccessKind::Load);
        }
        // Most-recent distinct tags, newest first.
        let mut recent: Vec<u64> = Vec::new();
        for &t in tags.iter().rev() {
            if !recent.contains(&t) {
                recent.push(t);
            }
            if recent.len() == assoc as usize {
                break;
            }
        }
        for &t in &recent {
            assert!(c.probe(addr(2, t)), "tag {t} should be resident");
        }
        // And any distinct tag beyond the assoc most recent is absent.
        let mut all: Vec<u64> = Vec::new();
        for &t in tags.iter().rev() {
            if !all.contains(&t) {
                all.push(t);
            }
        }
        for &t in all.iter().skip(assoc as usize) {
            assert!(!c.probe(addr(2, t)), "tag {t} should be evicted");
        }
    });
}

/// All policies agree on a working set that fits: no evictions ever
/// happen, so every policy gives the same (perfect) behaviour after the
/// cold misses.
#[test]
fn policies_agree_below_capacity() {
    check_with("policies_agree_below_capacity", 96, |g| {
        // 4 distinct tags into a 4-way set: never evicts.
        let tags = g.vec(1usize..50, |g| g.gen_range(0u64..4));
        let policies = [
            Replacement::Lru,
            Replacement::Random { seed: 1 },
            Replacement::TreePlru,
        ];
        let mut results = Vec::new();
        for p in policies {
            let mut c = cache(4, p);
            let mut hits = 0u64;
            for &t in &tags {
                if c.access(addr(0, t), AccessKind::Load).is_hit() {
                    hits += 1;
                }
            }
            results.push((hits, c.stats().misses()));
        }
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    });
}

/// Misses never exceed accesses and writebacks never exceed fills, for
/// any policy and any store-heavy access pattern.
#[test]
fn counters_stay_consistent() {
    check("counters_stay_consistent", |g| {
        let ops = g.vec(1usize..200, |g| (g.gen_range(0u64..64), g.gen_bool(0.5)));
        let policy = g.pick(&[
            Replacement::Lru,
            Replacement::Random { seed: 7 },
            Replacement::TreePlru,
        ]);
        let mut c = cache(2, policy);
        for &(block, store) in &ops {
            let kind = if store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            c.access(Addr::new(block * BLOCK), kind);
        }
        let stats = c.stats();
        assert!(stats.misses() <= stats.accesses());
        assert!(stats.writebacks <= stats.misses());
        assert_eq!(stats.accesses(), ops.len() as u64);
    });
}
