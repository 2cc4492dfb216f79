//! `is` (buk) — NAS IS, the integer bucket sort.
//!
//! IS ranks 64 K integer keys with `maxkey = 2048`. The key and rank
//! arrays are read and written sequentially; the 8 KB count array is
//! updated at data-dependent offsets but is small enough to stay resident
//! in the 64 KB primary cache. The miss stream is therefore almost purely
//! sequential — IS sits in Figure 3's upper group, and the unit-stride
//! filter cuts its extra bandwidth from 48 % to 7 % at almost no hit-rate
//! cost (Figure 5).

use streamsim_prng::{Rng, Xoshiro256StarStar};

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The IS kernel model.
#[derive(Clone, Debug)]
pub struct Is {
    /// Number of keys (64 K in the paper).
    pub keys: u64,
    /// Key range (2048 in the paper).
    pub max_key: u64,
    /// Ranking iterations.
    pub iters: u32,
    /// PRNG seed for key values.
    pub seed: u64,
}

impl Is {
    /// Paper input: 64 K keys, maxkey 2048.
    pub fn paper() -> Self {
        Is {
            keys: 64 * 1024,
            max_key: 2048,
            iters: 10,
            seed: 0x15,
        }
    }
}

impl Is {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        let key = mem.array1(self.keys, 4);
        let rank = mem.array1(self.keys, 4);
        let count = mem.array1(self.max_key, 4);

        let mut rng = Xoshiro256StarStar::seed_from_u64(self.seed);
        let values: Vec<u64> = (0..self.keys)
            .map(|_| rng.gen_range(0..self.max_key))
            .collect();

        for _ in 0..self.iters {
            // Counting pass: sequential keys, data-dependent counts.
            t.branch_to(0);
            for i in 0..self.keys {
                t.load(key.at(i));
                let k = values[i as usize];
                t.load(count.at(k));
                t.store(count.at(k));
            }
            // Prefix-sum pass over the (resident) count array.
            t.branch_to(1024);
            for k in 1..self.max_key {
                t.load(count.at(k - 1));
                t.load(count.at(k));
                t.store(count.at(k));
            }
            // Ranking pass: sequential keys, sequential rank stores.
            for i in 0..self.keys {
                t.load(key.at(i));
                t.load(count.at(values[i as usize]));
                t.store(rank.at(i));
            }
        }
    }
}

impl Workload for Is {
    fn name(&self) -> &str {
        "is"
    }

    fn suite(&self) -> Suite {
        Suite::Nas
    }

    fn description(&self) -> &str {
        "integer bucket sort: sequential key/rank sweeps with an L1-resident count array"
    }

    fn data_set_bytes(&self) -> u64 {
        // keys + ranks (i32) + counts.
        self.keys * 4 * 2 + self.max_key * 4
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        self.trace(Tracer::new(batch, emit, 2048));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_trace;
    use streamsim_trace::{AccessKind, TraceStats};

    fn tiny() -> Is {
        Is {
            keys: 4096,
            max_key: 512,
            iters: 1,
            seed: 3,
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn stores_present_for_counts_and_ranks() {
        let stats = TraceStats::from_trace(collect_trace(&tiny()));
        assert!(stats.count(AccessKind::Store) > 0);
        assert!(stats.store_fraction() > 0.2);
    }

    #[test]
    fn count_array_is_l1_sized() {
        let w = Is::paper();
        assert!(w.max_key * 4 <= 16 * 1024, "count array must stay resident");
    }

    #[test]
    fn footprint_matches_paper_order() {
        // Paper: 0.8 MB data set.
        let kb = Is::paper().data_set_bytes() / 1024;
        assert!((256..2048).contains(&kb), "{kb} KB");
    }
}
