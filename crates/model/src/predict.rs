//! Closed-form performance predictors over a [`LocalityProfile`].
//!
//! Given a profile measured once per workload, these functions estimate
//! in microseconds what a full replay computes in milliseconds:
//!
//! * [`predict_streams`] — hit rate and extra-bandwidth fraction of a
//!   stream-buffer system (allocate-on-miss, unit-filtered, or
//!   unit + stride-filtered) with any buffer count and depth, from the
//!   stream-stack-distance histograms.
//! * [`predict_l2`] — hit rate of a set-associative LRU secondary
//!   cache, from the reuse-distance histogram via the standard
//!   binomial/Poisson set-occupancy approximation.
//!
//! The estimates are approximations with documented error bounds (see
//! the validation harness in the root crate's tests); their job is to
//! *rank* configurations well enough that pruning a sweep to the
//! predicted Pareto frontier plus a tolerance band never drops a true
//! frontier point.

use crate::profile::{LocalityProfile, StreamProfile};

/// Stream-allocation policy, mirrored from the simulator's
/// `Allocation` but carrying only what the model consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocModel {
    /// Allocate a buffer on every stream miss (§4 baseline).
    OnMiss,
    /// Allocate only on the second consecutive-block miss, gated by a
    /// unit-stride filter with this many entries (§6).
    UnitFilter {
        /// Filter table entries.
        entries: usize,
    },
    /// Unit filter plus the §7 czone stride filter.
    UnitStride {
        /// Unit filter table entries.
        entries: usize,
        /// Czone size in bits of the word address.
        czone_bits: u32,
    },
}

/// A stream-buffer system geometry to score.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamGeometry {
    /// Number of stream buffers.
    pub num_streams: usize,
    /// Entries per buffer.
    pub depth: usize,
    /// Allocation policy.
    pub alloc: AllocModel,
}

/// Predicted stream-system metrics, on the same scale as the
/// simulator's `StreamStats` accessors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamEstimate {
    /// Predicted fraction of L1 misses served by a stream buffer.
    pub hit_rate: f64,
    /// Predicted extra-bandwidth fraction by the paper's closed form:
    /// `allocations x depth / lookups`.
    pub extra_bandwidth: f64,
}

/// Unit-filtered hits and allocations: position-≥3 continuations whose
/// allocation distance fits in `n` buffers hit; runs whose second fetch
/// arrives while the filter entry is still resident allocate.
fn unit_filter_parts(s: &StreamProfile, n: usize, entries: usize) -> (f64, f64) {
    (s.pos3p_alloc_below(n) as f64, s.pos2_below(entries) as f64)
}

/// Predicts hit rate and extra bandwidth for `geom` against the
/// profiled workload. Returns zeros for an empty fetch stream.
pub fn predict_streams(profile: &LocalityProfile, geom: StreamGeometry) -> StreamEstimate {
    let s = &profile.streams;
    if s.fetches == 0 {
        return StreamEstimate {
            hit_rate: 0.0,
            extra_bandwidth: 0.0,
        };
    }
    let n = geom.num_streams;
    let fetches = s.fetches as f64;

    let (hits, allocs) = match geom.alloc {
        AllocModel::OnMiss => {
            // Every miss allocates, so a continuation hits iff fewer
            // than n distinct runs were touched since the run's last
            // fetch. Evicted continuations re-allocate instantly, so
            // there is no retrain penalty.
            let hits = (s.pos2_below(n) + s.pos3p_below(n)) as f64;
            (hits, fetches - hits)
        }
        AllocModel::UnitFilter { entries } => {
            // Only establishments (position-2 continuations) allocate,
            // so a buffer survives any interruption during which fewer
            // than n runs established; position-2 fetches themselves
            // allocate rather than hit.
            unit_filter_parts(s, n, entries)
        }
        AllocModel::UnitStride {
            entries,
            czone_bits,
        } => {
            let (unit_hits, unit_allocs) = unit_filter_parts(s, n, entries);
            let cz = s.nearest_czone(czone_bits);
            let hits = unit_hits + cz.cont_below(n) as f64;
            (hits, unit_allocs + cz.trained as f64)
        }
    };

    StreamEstimate {
        hit_rate: (hits / fetches).clamp(0.0, 1.0),
        extra_bandwidth: (allocs.max(0.0) * geom.depth as f64 / fetches).max(0.0),
    }
}

/// A secondary-cache geometry to score.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Geometry {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity (ways).
    pub assoc: u64,
    /// Block size in bytes.
    pub block_bytes: u64,
}

/// Predicted secondary-cache metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct L2Estimate {
    /// Predicted fraction of L2 accesses (fetches + write-backs) that
    /// hit, matching `CacheStats::hit_rate`.
    pub hit_rate: f64,
}

/// `P(X < assoc)` for `X ~ Poisson(lambda)` — the probability that
/// fewer than `assoc` of the intervening distinct blocks landed in the
/// victim's set, i.e. that an LRU set-associative cache still holds the
/// block.
fn poisson_hit(assoc: u64, lambda: f64) -> f64 {
    let mut term = (-lambda).exp();
    let mut sum = 0.0;
    for i in 0..assoc {
        sum += term;
        term *= lambda / (i + 1) as f64;
    }
    sum.clamp(0.0, 1.0)
}

/// Predicts the hit rate of a set-associative LRU secondary cache from
/// the reuse-distance histogram nearest `geom.block_bytes`.
///
/// Fully associative caches use the exact Mattson inclusion property
/// (hit iff stack distance < capacity); set-associative ones weight
/// each distance by the Poisson set-occupancy survival probability.
/// Cold misses never hit. Returns zero for an empty trace.
pub fn predict_l2(profile: &LocalityProfile, geom: L2Geometry) -> L2Estimate {
    // Snap to the profiled granularity and express capacity in its
    // units so distances and capacity agree.
    let hist = profile.reuse_at(geom.block_bytes);
    let unit_bytes = profile.l1_block_bytes.max(1).saturating_mul(
        match profile.reuse.iter().position(|h| std::ptr::eq(h, hist)) {
            Some(i) => crate::profile::REUSE_GRANULARITIES[i],
            None => 1,
        },
    );
    let accesses = profile.events;
    if accesses == 0 {
        return L2Estimate { hit_rate: 0.0 };
    }
    let blocks = (geom.bytes / unit_bytes).max(1);
    let assoc = geom.assoc.clamp(1, blocks);
    let sets = (blocks / assoc).max(1);

    let hits = if sets == 1 {
        hist.count_below(blocks)
    } else {
        hist.nonempty_buckets()
            .map(|(low, width, count)| {
                // A width-1 bucket holds one exact distance; a wider one
                // stands in at its midpoint.
                let d = if width == 1 {
                    low as f64
                } else {
                    low as f64 + width as f64 / 2.0
                };
                let p = if d < assoc as f64 {
                    1.0
                } else {
                    poisson_hit(assoc, d / sets as f64)
                };
                p * count as f64
            })
            .sum()
    };
    L2Estimate {
        hit_rate: (hits / accesses as f64).clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfileBuilder;

    fn sequential_profile(runs: u64, len: u64) -> LocalityProfile {
        // `runs` far-apart unit runs of `len` blocks each, visited
        // round-robin so every continuation sees `runs - 1` others.
        let mut b = ProfileBuilder::new(32, 4, (runs * len) as usize);
        for step in 0..len {
            for r in 0..runs {
                let block = r * 1_000_000 + step;
                b.fetch(block, block * 8);
            }
        }
        b.finish()
    }

    #[test]
    fn on_miss_hits_match_buffer_count() {
        let p = sequential_profile(4, 50);
        // 4 interleaved runs: with >= 5 buffers every continuation
        // hits; with 4 they also all hit (distance 3 < 4).
        let geom = |n| StreamGeometry {
            num_streams: n,
            depth: 2,
            alloc: AllocModel::OnMiss,
        };
        let e4 = predict_streams(&p, geom(4));
        let e2 = predict_streams(&p, geom(2));
        // 49 continuations per run, 196 of 200 fetches.
        assert!((e4.hit_rate - 196.0 / 200.0).abs() < 1e-9, "{e4:?}");
        assert_eq!(e2.hit_rate, 0.0, "2 buffers can't hold 4 streams");
        // 4 allocations at depth 2 over 200 fetches.
        assert!((e4.extra_bandwidth - 8.0 / 200.0).abs() < 1e-9);
        assert!(e2.extra_bandwidth > e4.extra_bandwidth);
    }

    #[test]
    fn unit_filter_trades_pos2_hits_for_bandwidth() {
        let p = sequential_profile(2, 100);
        let om = predict_streams(
            &p,
            StreamGeometry {
                num_streams: 4,
                depth: 2,
                alloc: AllocModel::OnMiss,
            },
        );
        let uf = predict_streams(
            &p,
            StreamGeometry {
                num_streams: 4,
                depth: 2,
                alloc: AllocModel::UnitFilter { entries: 16 },
            },
        );
        // The filter forfeits the two position-2 hits...
        assert!(uf.hit_rate < om.hit_rate);
        assert!(uf.hit_rate > 0.9, "long runs still mostly hit: {uf:?}");
        // ...but allocates the same two streams (no isolated misses
        // here), so bandwidth is identical for this trace.
        assert!((uf.extra_bandwidth - om.extra_bandwidth).abs() < 1e-9);
    }

    #[test]
    fn unit_filter_suppresses_isolated_allocations() {
        // One real run drowned in isolated noise.
        let mut b = ProfileBuilder::new(32, 4, 300);
        for i in 0..100u64 {
            b.fetch(10_000 + i, (10_000 + i) * 8); // run
            let noise = 1_000_000 + i * 7919;
            b.fetch(noise, noise * 8); // isolated
        }
        let p = b.finish();
        let om = predict_streams(
            &p,
            StreamGeometry {
                num_streams: 4,
                depth: 2,
                alloc: AllocModel::OnMiss,
            },
        );
        let uf = predict_streams(
            &p,
            StreamGeometry {
                num_streams: 4,
                depth: 2,
                alloc: AllocModel::UnitFilter { entries: 16 },
            },
        );
        assert!(
            uf.extra_bandwidth < om.extra_bandwidth / 10.0,
            "filter kills noise allocations: uf={uf:?} om={om:?}"
        );
    }

    #[test]
    fn stride_filter_adds_strided_hits() {
        // A long strided (non-unit) run: stride 4 blocks = 32 words.
        let mut b = ProfileBuilder::new(32, 4, 200);
        for i in 0..200u64 {
            let block = i * 4;
            b.fetch(block, block * 8);
        }
        let p = b.finish();
        let uf = predict_streams(
            &p,
            StreamGeometry {
                num_streams: 4,
                depth: 2,
                alloc: AllocModel::UnitFilter { entries: 16 },
            },
        );
        let us = predict_streams(
            &p,
            StreamGeometry {
                num_streams: 4,
                depth: 2,
                alloc: AllocModel::UnitStride {
                    entries: 16,
                    czone_bits: 12,
                },
            },
        );
        assert_eq!(uf.hit_rate, 0.0, "no unit runs to catch");
        assert!(us.hit_rate > 0.9, "stride filter catches the run: {us:?}");
    }

    #[test]
    fn l2_fully_associative_is_exact_mattson() {
        // 64 distinct blocks touched twice round-robin: distance 63.
        let mut b = ProfileBuilder::new(32, 4, 128);
        for _ in 0..2 {
            for blk in 0..64u64 {
                b.fetch(blk * 100, blk * 800);
            }
        }
        let p = b.finish();
        // Fully associative, capacity 64 blocks of 32B = 2048B.
        let big = predict_l2(
            &p,
            L2Geometry {
                bytes: 2048,
                assoc: 64,
                block_bytes: 32,
            },
        );
        let small = predict_l2(
            &p,
            L2Geometry {
                bytes: 1024,
                assoc: 32,
                block_bytes: 32,
            },
        );
        assert!((big.hit_rate - 64.0 / 128.0).abs() < 1e-9, "{big:?}");
        assert_eq!(small.hit_rate, 0.0, "distance 63 >= 32 blocks");
    }

    #[test]
    fn l2_set_associative_interpolates() {
        let mut b = ProfileBuilder::new(32, 4, 128);
        for _ in 0..2 {
            for blk in 0..64u64 {
                b.fetch(blk * 100, blk * 800);
            }
        }
        let p = b.finish();
        // Same capacity, 4-way: distance 63 across 16 sets gives
        // lambda ~ 3.9; P(< 4) is strictly between 0 and 1.
        let e = predict_l2(
            &p,
            L2Geometry {
                bytes: 2048,
                assoc: 4,
                block_bytes: 32,
            },
        );
        assert!(e.hit_rate > 0.05 && e.hit_rate < 0.5, "{e:?}");
    }

    #[test]
    fn poisson_tail_sanity() {
        assert!((poisson_hit(1, 0.0) - 1.0).abs() < 1e-12);
        assert!(poisson_hit(4, 0.1) > 0.99);
        assert!(poisson_hit(4, 100.0) < 1e-12);
        assert!(poisson_hit(8, 4.0) > poisson_hit(4, 4.0));
    }

    #[test]
    fn empty_profile_predicts_zero() {
        let p = ProfileBuilder::new(32, 4, 0).finish();
        let e = predict_streams(
            &p,
            StreamGeometry {
                num_streams: 4,
                depth: 2,
                alloc: AllocModel::OnMiss,
            },
        );
        assert_eq!(e.hit_rate, 0.0);
        assert_eq!(e.extra_bandwidth, 0.0);
        let l2 = predict_l2(
            &p,
            L2Geometry {
                bytes: 1 << 20,
                assoc: 2,
                block_bytes: 32,
            },
        );
        assert_eq!(l2.hit_rate, 0.0);
    }
}
