//! `adm` — PERFECT, air-pollution modelling.
//!
//! ADM's transport phase is dominated by scatter/gather: concentration
//! updates indexed through data-dependent index arrays ("a high
//! percentage of the references made by these programs reference data via
//! array indirections"). Isolated random misses constantly steal stream
//! buffers, so adm shows the lowest hit rates in Figure 3, the shortest
//! runs in Table 3 (73 % of hits from runs of 1–5) and the worst
//! unfiltered bandwidth waste in Table 2 (150 %) — and it is the workload
//! the unit-stride filter rescues most in bandwidth terms.

use streamsim_prng::{Rng, Xoshiro256StarStar};

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The ADM kernel model.
#[derive(Clone, Debug)]
pub struct Adm {
    /// Number of tracked cells.
    pub cells: u64,
    /// Transport steps.
    pub steps: u32,
    /// Fraction (0–100) of references that are indirect.
    pub indirect_pct: u32,
    /// PRNG seed for the index arrays.
    pub seed: u64,
}

impl Adm {
    /// Paper-scale input.
    pub fn paper() -> Self {
        Adm {
            cells: 96 * 1024,
            steps: 4,
            indirect_pct: 65,
            seed: 0xad,
        }
    }
}

impl Adm {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        let conc = mem.array1(self.cells, 8);
        let conc2 = mem.array1(self.cells, 8);
        let wind = mem.array1(self.cells, 8);
        let idx = mem.array1(self.cells, 4);
        let idx2 = mem.array1(self.cells, 4);

        let mut rng = Xoshiro256StarStar::seed_from_u64(self.seed);
        let gathers: Vec<u64> = (0..self.cells)
            .map(|_| rng.gen_range(0..self.cells))
            .collect();
        let scatters: Vec<u64> = (0..self.cells)
            .map(|_| rng.gen_range(0..self.cells))
            .collect();

        for _ in 0..self.steps {
            t.branch_to(0);
            for i in 0..self.cells {
                // The index arrays themselves are read sequentially.
                t.load(idx.at(i));
                t.load(wind.at(i));
                if (i * 100 / self.cells.max(1) + i) % 100 < self.indirect_pct as u64 {
                    // Indirect transport update: gather + scatter.
                    t.load(conc.at(gathers[i as usize]));
                    t.load(idx2.at(i));
                    t.store(conc2.at(scatters[i as usize]));
                } else {
                    // Local update.
                    t.load(conc.at(i));
                    t.store(conc2.at(i));
                }
            }
        }
    }
}

impl Workload for Adm {
    fn name(&self) -> &str {
        "adm"
    }

    fn suite(&self) -> Suite {
        Suite::Perfect
    }

    fn description(&self) -> &str {
        "air-pollution transport: gather/scatter of concentrations through data-dependent index arrays"
    }

    fn data_set_bytes(&self) -> u64 {
        // Two concentration fields, wind field, two index arrays.
        self.cells * (8 + 8 + 8 + 4 + 4)
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        self.trace(Tracer::new(batch, emit, 4096));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_trace;
    use streamsim_trace::{BlockSize, StrideClass, TraceStats};

    fn tiny() -> Adm {
        Adm {
            cells: 8 * 1024,
            steps: 1,
            indirect_pct: 65,
            seed: 1,
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn irregular_references_are_substantial() {
        let stats = TraceStats::from_trace(collect_trace(&tiny()));
        let irr = stats
            .strides()
            .class_fraction(StrideClass::Irregular, BlockSize::default());
        assert!(irr > 0.3, "irregular = {irr}");
    }

    #[test]
    fn indirect_fraction_knob_changes_pattern() {
        let lo = Adm {
            indirect_pct: 10,
            ..tiny()
        };
        let hi = Adm {
            indirect_pct: 90,
            ..tiny()
        };
        let s_lo = TraceStats::from_trace(collect_trace(&lo));
        let s_hi = TraceStats::from_trace(collect_trace(&hi));
        let b = BlockSize::default();
        assert!(
            s_hi.strides().class_fraction(StrideClass::Irregular, b)
                > s_lo.strides().class_fraction(StrideClass::Irregular, b)
        );
    }
}
