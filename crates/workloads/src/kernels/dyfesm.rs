//! `dyfesm` — PERFECT, structural dynamics by finite elements.
//!
//! DYFESM assembles element contributions through a connectivity table:
//! each element gathers its nodes' displacements, does dense local work,
//! and scatter-adds forces back. The paper groups it with `adm` as
//! indirection-dominated ("a high percentage of the references … via
//! array indirections (scatter/gather)"), giving low Figure 3 hit rates
//! and a short-run-heavy Table 3 row (50 % of hits from runs of 1–5).

use streamsim_prng::{Rng, Xoshiro256StarStar};

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The DYFESM kernel model.
#[derive(Clone, Debug)]
pub struct Dyfesm {
    /// Number of finite elements.
    pub elements: u64,
    /// Nodes in the mesh.
    pub nodes: u64,
    /// Nodes per element.
    pub nodes_per_elem: u64,
    /// Time steps.
    pub steps: u32,
    /// PRNG seed for connectivity.
    pub seed: u64,
}

impl Dyfesm {
    /// Paper-scale input.
    pub fn paper() -> Self {
        Dyfesm {
            elements: 12 * 1024,
            nodes: 48 * 1024,
            nodes_per_elem: 8,
            steps: 4,
            seed: 0xd7,
        }
    }
}

impl Dyfesm {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        let disp = mem.array2(self.nodes, 3, 8);
        let force = mem.array2(self.nodes, 3, 8);
        let conn = mem.array1(self.elements * self.nodes_per_elem, 4);
        let scratch = mem.array1(512, 8);

        // Unstructured mesh: elements touch loosely clustered nodes with
        // a long-range tail (renumbered mesh with fill).
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.seed);
        let nodes_of: Vec<u64> = (0..self.elements * self.nodes_per_elem)
            .map(|p| {
                let e = p / self.nodes_per_elem;
                let centre = e * self.nodes / self.elements;
                if rng.gen_range(0..100) < 78 {
                    let lo = centre.saturating_sub(192);
                    let hi = (centre + 192).min(self.nodes - 1);
                    rng.gen_range(lo..=hi)
                } else {
                    rng.gen_range(0..self.nodes)
                }
            })
            .collect();

        let mut sp = 0u64;
        for _ in 0..self.steps {
            t.branch_to(0);
            let mut p = 0u64;
            for _e in 0..self.elements {
                // Gather phase.
                for _ in 0..self.nodes_per_elem {
                    t.load(conn.at(p));
                    let nd = nodes_of[p as usize];
                    t.load(disp.at(nd, 0));
                    t.load(disp.at(nd, 1));
                    p += 1;
                }
                // Dense element work in a small scratch matrix.
                for _ in 0..self.nodes_per_elem * 2 {
                    sp = (sp + 1) % scratch.len();
                    t.load(scratch.at(sp));
                }
                // Scatter-add phase.
                for q in 0..self.nodes_per_elem {
                    let nd = nodes_of[(p - self.nodes_per_elem + q) as usize];
                    t.load(force.at(nd, 0));
                    t.store(force.at(nd, 0));
                }
            }
            // Central-difference time integration: a sequential sweep
            // updating every nodal displacement from its force.
            t.branch_to(2048);
            for nd in 0..self.nodes {
                for dof in 0..3 {
                    t.load(force.at(nd, dof));
                    t.load(disp.at(nd, dof));
                    t.store(disp.at(nd, dof));
                }
            }
        }
    }
}

impl Workload for Dyfesm {
    fn name(&self) -> &str {
        "dyfesm"
    }

    fn suite(&self) -> Suite {
        Suite::Perfect
    }

    fn description(&self) -> &str {
        "finite-element assembly: connectivity-driven gathers of nodal displacements and scatter-adds of forces"
    }

    fn data_set_bytes(&self) -> u64 {
        // Displacements + forces (3 dof) + connectivity.
        self.nodes * 6 * 8 + self.elements * self.nodes_per_elem * 4
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

    fn tiny() -> Dyfesm {
        Dyfesm {
            elements: 512,
            nodes: 4096,
            nodes_per_elem: 8,
            steps: 1,
            seed: 2,
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn trace_volume_scales_with_elements() {
        let one = collect_trace(&tiny()).len();
        let two = collect_trace(&Dyfesm {
            elements: 1024,
            ..tiny()
        })
        .len();
        // The per-step integration sweep is independent of the element
        // count, so doubling elements slightly less than doubles refs.
        let ratio = two as f64 / one as f64;
        assert!((1.3..=2.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn footprint_is_positive_and_small() {
        // Paper Table 1 reports a very small data set (0.1 MB class).
        let stats = TraceStats::from_trace(collect_trace(&tiny()));
        assert!(stats.total() > 0);
        assert!(Dyfesm::paper().data_set_bytes() > 0);
    }
}
