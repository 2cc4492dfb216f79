//! `bdna` — PERFECT, nucleic-acid molecular dynamics.
//!
//! BDNA's force loops walk a neighbour list: the pair-list arrays are read
//! sequentially (stream-friendly), while the gathered neighbour positions
//! and scattered force updates have only partial locality (neighbours are
//! spatially sorted but not contiguous). The half-regular mix puts bdna
//! in the middle of the PERFECT group in Figure 3 with a bimodal run
//! distribution in Table 3 (36 % of hits from runs of 1–5, 33 % from runs
//! over 20).

use streamsim_prng::{Rng, Xoshiro256StarStar};

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The BDNA kernel model.
#[derive(Clone, Debug)]
pub struct Bdna {
    /// Number of atoms.
    pub atoms: u64,
    /// Average neighbours per atom.
    pub neighbours: u64,
    /// Locality window: neighbour indices fall within ± this many atoms.
    pub window: u64,
    /// Dynamics steps.
    pub steps: u32,
    /// PRNG seed for the neighbour lists.
    pub seed: u64,
}

impl Bdna {
    /// Paper-scale input (500 molecules ≈ 16 K atoms with counter-ions
    /// and solvent).
    pub fn paper() -> Self {
        Bdna {
            atoms: 16 * 1024,
            neighbours: 24,
            window: 192,
            steps: 3,
            seed: 0xb0,
        }
    }
}

impl Bdna {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        let pos = mem.array2(self.atoms, 3, 8);
        let force = mem.array2(self.atoms, 3, 8);
        let list = mem.array1(self.atoms * self.neighbours, 4);

        let mut rng = Xoshiro256StarStar::seed_from_u64(self.seed);
        let partners: Vec<u64> = (0..self.atoms * self.neighbours)
            .map(|p| {
                let i = p / self.neighbours;
                let lo = i.saturating_sub(self.window);
                let hi = (i + self.window).min(self.atoms - 1);
                rng.gen_range(lo..=hi)
            })
            .collect();

        for _ in 0..self.steps {
            t.branch_to(0);
            let mut p = 0u64;
            for i in 0..self.atoms {
                // Own position: sequential.
                t.load(pos.at(i, 0));
                for _ in 0..self.neighbours {
                    // The list itself streams sequentially.
                    t.load(list.at(p));
                    let j = partners[p as usize];
                    // Gather the neighbour position, scatter the force.
                    t.load(pos.at(j, 0));
                    t.store(force.at(j, 0));
                    p += 1;
                }
                t.store(force.at(i, 0));
            }
            // Integration: sequential update of positions from forces.
            t.branch_to(2048);
            for i in 0..self.atoms {
                for c in 0..3 {
                    t.load(force.at(i, c));
                    t.load(pos.at(i, c));
                    t.store(pos.at(i, c));
                }
            }
        }
    }
}

impl Workload for Bdna {
    fn name(&self) -> &str {
        "bdna"
    }

    fn suite(&self) -> Suite {
        Suite::Perfect
    }

    fn description(&self) -> &str {
        "molecular dynamics: sequential neighbour-list reads plus windowed gathers/scatters of positions and forces"
    }

    fn data_set_bytes(&self) -> u64 {
        // Positions + forces (3 coords each) + the pair list.
        self.atoms * 6 * 8 + self.atoms * self.neighbours * 4
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

    fn tiny() -> Bdna {
        Bdna {
            atoms: 2048,
            neighbours: 8,
            window: 64,
            steps: 1,
            seed: 5,
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn gathers_have_windowed_structure() {
        let w = tiny();
        let stats = TraceStats::from_trace(collect_trace(&w));
        // The gather→scatter pair (pos[j] then force[j]) repeats a single
        // constant inter-array stride; uniform random traffic would not
        // concentrate like this.
        let top = stats.strides().top(1)[0];
        assert!(
            top.1 as f64 > stats.strides().total() as f64 * 0.1,
            "top stride {top:?} not dominant"
        );
        let b = BlockSize::default();
        let zero = stats.strides().class_fraction(StrideClass::Zero, b);
        assert!(zero < 0.5);
    }

    #[test]
    fn footprint_in_paper_range() {
        // Paper Table 1: 2.1 MB.
        let mb = Bdna::paper().data_set_bytes() as f64 / (1 << 20) as f64;
        assert!((0.5..4.0).contains(&mb), "{mb} MB");
    }
}
