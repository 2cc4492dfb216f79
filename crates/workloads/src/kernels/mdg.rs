//! `mdg` — PERFECT, liquid-water molecular dynamics.
//!
//! MDG simulates 343 water molecules: the molecular data itself is tiny
//! (the paper reports a 0.2 MB footprint and a 0.03 % miss rate — it
//! lives in the primary cache), so the observable miss stream comes from
//! sweeping the O(n²) pair list plus the occasional evicted molecule
//! block. Misses are few and half-regular, putting mdg mid-pack among
//! the PERFECT codes in Figure 3.

use streamsim_prng::{Rng, Xoshiro256StarStar};

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The MDG kernel model.
#[derive(Clone, Debug)]
pub struct Mdg {
    /// Number of molecules (343 in the paper).
    pub molecules: u64,
    /// Dynamics steps.
    pub steps: u32,
    /// PRNG seed for pair ordering.
    pub seed: u64,
}

impl Mdg {
    /// Paper input: 343 molecules, 100 time steps in the original; a few
    /// steps reproduce the pattern.
    pub fn paper() -> Self {
        Mdg {
            molecules: 343,
            steps: 6,
            seed: 0x3d,
        }
    }
}

impl Mdg {
    fn trace(&self, mut t: Tracer<'_>) {
        let n = self.molecules;
        let mut mem = AddressSpace::new();
        let pos = mem.array2(n * 9, 1, 8); // 3 atoms × 3 coords per molecule
        let force = mem.array2(n * 9, 1, 8);
        let pairs = mem.array1(n * (n - 1) / 2, 8);

        let mut rng = Xoshiro256StarStar::seed_from_u64(self.seed);
        // The pair list comes from a spatial cell sort, so molecule
        // indices within it are *not* sequential: shuffle the pairs.
        let mut pair_order: Vec<(u64, u64)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        rng.shuffle(&mut pair_order);
        for _ in 0..self.steps {
            // Pairwise force loop: the pair list itself streams
            // sequentially, but the referenced molecules jump around.
            t.branch_to(0);
            for (p, &(i, j)) in pair_order.iter().enumerate() {
                t.load(pairs.at(p as u64));
                // O-O interaction first; 20 % of pairs are within the
                // cut-off and do full 3×3 site work.
                t.load(pos.at(i * 9, 0));
                t.load(pos.at(j * 9, 0));
                if rng.gen_range(0..100) < 20 {
                    for a in 0..3 {
                        for b in 0..3 {
                            t.load(pos.at(i * 9 + a * 3, 0));
                            t.load(pos.at(j * 9 + b * 3, 0));
                        }
                    }
                    t.store(force.at(i * 9, 0));
                    t.store(force.at(j * 9, 0));
                }
            }
            // Integration sweep.
            t.branch_to(2048);
            for i in 0..n * 9 {
                t.load(force.at(i, 0));
                t.load(pos.at(i, 0));
                t.store(pos.at(i, 0));
            }
        }
    }
}

impl Workload for Mdg {
    fn name(&self) -> &str {
        "mdg"
    }

    fn suite(&self) -> Suite {
        Suite::Perfect
    }

    fn description(&self) -> &str {
        "water MD: cache-resident molecule data with a large sequential pair list driving the misses"
    }

    fn data_set_bytes(&self) -> u64 {
        let n = self.molecules;
        // 3 atoms × 3 coords positions+forces, plus the pair list.
        n * 9 * 2 * 8 + n * (n - 1) / 2 * 8
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        self.trace(Tracer::new(batch, emit, 4096));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_trace;
    use streamsim_trace::TraceStats;

    fn tiny() -> Mdg {
        Mdg {
            molecules: 64,
            steps: 1,
            seed: 4,
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn molecule_data_is_cache_resident() {
        // Positions + forces must fit comfortably in a 64 KB cache.
        let w = Mdg::paper();
        assert!(w.molecules * 9 * 2 * 8 < 64 * 1024);
    }

    #[test]
    fn pair_list_dominates_footprint() {
        let w = Mdg::paper();
        let list = w.molecules * (w.molecules - 1) / 2 * 8;
        assert!(list * 2 > w.data_set_bytes());
        let stats = TraceStats::from_trace(collect_trace(&tiny()));
        assert!(stats.total() > 0);
    }
}
