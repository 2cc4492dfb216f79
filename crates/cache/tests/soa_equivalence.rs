//! The SoA `SetAssocCache` must be outcome-for-outcome identical to the
//! pre-restructure array-of-structs model kept in
//! `streamsim_cache::reference`. These property tests drive both caches
//! with the same randomized traces over randomized geometries and demand
//! byte-identical results: every detailed outcome (hit flag, evicted
//! block, dirtiness), every probe, the final counter struct, and the
//! resident-line count.
//!
//! Any divergence here means recorded miss traces would change, which
//! the PR contract forbids.

use streamsim_prng::quickcheck::{check_with, Gen};
use streamsim_prng::Rng;

use streamsim_cache::reference::ReferenceCache;
use streamsim_cache::{CacheConfig, Replacement, SetAssocCache};
use streamsim_trace::{AccessKind, Addr, BlockSize};

/// Draw a random but valid cache geometry + policy pair.
fn gen_config(g: &mut Gen) -> CacheConfig {
    let assoc = g.pick(&[1u32, 2, 3, 4, 8]);
    let sets = g.pick(&[1u64, 2, 4, 8, 16, 64]);
    let block = g.pick(&[16u64, 32, 64]);
    let replacement = match g.gen_range(0u32..3) {
        0 => Replacement::Lru,
        1 => Replacement::Random {
            seed: g.gen_range(0u64..1 << 32),
        },
        _ => {
            if assoc.is_power_of_two() {
                Replacement::TreePlru
            } else {
                Replacement::Random { seed: 0x5eed }
            }
        }
    };
    CacheConfig::new(
        sets * assoc as u64 * block,
        assoc,
        BlockSize::new(block).unwrap(),
    )
    .unwrap()
    .with_replacement(replacement)
}

/// One randomized operation against both caches.
#[derive(Clone, Copy, Debug)]
enum Op {
    Access(u64, bool),
    Probe(u64),
}

fn gen_ops(g: &mut Gen, blocks: u64) -> Vec<Op> {
    g.vec(1usize..400, |g| {
        let block = g.gen_range(0..blocks);
        match g.gen_range(0u32..10) {
            0 => Op::Probe(block),
            _ => Op::Access(block, g.gen_bool(0.3)),
        }
    })
}

fn run_pair(soa: &mut SetAssocCache, aos: &mut ReferenceCache, ops: &[Op]) {
    let block_bytes = soa.config().block().bytes();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(block, store) => {
                // Stay off block boundaries to exercise offset masking.
                let addr = Addr::new(block * block_bytes + (i as u64 % block_bytes));
                let kind = if store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                assert_eq!(
                    soa.access_detailed(addr, kind),
                    aos.access_detailed(addr, kind),
                    "outcome diverged at op {i} ({op:?})"
                );
            }
            Op::Probe(block) => {
                let addr = Addr::new(block * block_bytes);
                assert_eq!(soa.probe(addr), aos.probe(addr), "probe diverged at op {i}");
            }
        }
    }
    assert_eq!(soa.stats(), aos.stats(), "final statistics diverged");
    assert_eq!(
        soa.resident_blocks(),
        aos.resident_blocks(),
        "resident-line count diverged"
    );
}

/// Full-cache equivalence: every policy, geometry, and mixed trace.
#[test]
fn soa_matches_reference_cache() {
    check_with("soa_matches_reference_cache", 192, |g| {
        let cfg = gen_config(g);
        // Tags beyond the set count so evictions and full-index
        // reconstruction both get exercised.
        let blocks = cfg.num_sets() * 8;
        let ops = gen_ops(g, blocks);
        let mut soa = SetAssocCache::new(cfg).unwrap();
        let mut aos = ReferenceCache::new(cfg).unwrap();
        run_pair(&mut soa, &mut aos, &ops);
    });
}
