//! `qcd` — PERFECT, lattice quantum chromodynamics.
//!
//! QCD sweeps a 4-D lattice of SU(3) link matrices (144-byte bursts). The
//! x-direction is contiguous, the other three directions jump by
//! power-of-two-ish site strides, and staple sums revisit neighbours in
//! short bursts — a mixture of short unit runs and medium strides that
//! lands qcd mid-pack in Figure 3 with a 50/43 split between short and
//! long runs in Table 3.

use streamsim_trace::Access;

use crate::{AddressSpace, Array2, Suite, Tracer, Workload};

/// The QCD kernel model.
#[derive(Clone, Debug)]
pub struct Qcd {
    /// Lattice extent per dimension (12 in the paper's 12⁴).
    pub l: u64,
    /// Monte-Carlo sweeps.
    pub sweeps: u32,
}

impl Qcd {
    /// Paper input: 12 × 12 × 12 × 12 lattice.
    pub fn paper() -> Self {
        Qcd { l: 12, sweeps: 1 }
    }
}

/// Reals per SU(3) matrix (3×3 complex).
const MATRIX: u64 = 18;

impl Qcd {
    fn trace(&self, mut t: Tracer<'_>) {
        let l = self.l;
        let sites = l.pow(4);
        let mut mem = AddressSpace::new();
        // links(18, site, mu): matrix elements fastest, then site, then
        // direction.
        let links: Vec<Array2> = (0..4).map(|_| mem.array2(MATRIX, sites, 8)).collect();
        let scratch = mem.array1(256, 8);

        let strides = [1u64, l, l * l, l * l * l];
        let mut sp = 0u64;
        for _ in 0..self.sweeps {
            t.branch_to(0);
            // Heat-bath updates visit the lattice in checkerboard (even
            // sites, then odd) order, as the physics requires.
            for half in 0..2u64 {
                for pair in 0..sites / 2 {
                    let site = pair * 2 + ((pair + half) & 1);
                    for (mu, link) in links.iter().enumerate() {
                        // The updated link: one 144-byte burst.
                        for e in 0..MATRIX {
                            t.load(link.at(e, site));
                        }
                        // Staple: neighbours in both directions of the
                        // other dimensions.
                        for (nu, other) in links.iter().enumerate() {
                            if nu == mu {
                                continue;
                            }
                            let fwd = (site + strides[nu]) % sites;
                            let bwd = (site + sites - strides[nu]) % sites;
                            for e in [0u64, 5, 13] {
                                t.load(other.at(e, fwd));
                                t.load(other.at(e, bwd));
                            }
                        }
                        // Local SU(3) algebra.
                        for _ in 0..8 {
                            sp = (sp + 1) % scratch.len();
                            t.load(scratch.at(sp));
                        }
                        for e in 0..MATRIX {
                            t.store(link.at(e, site));
                        }
                    }
                }
            }
        }
    }
}

impl Workload for Qcd {
    fn name(&self) -> &str {
        "qcd"
    }

    fn suite(&self) -> Suite {
        Suite::Perfect
    }

    fn description(&self) -> &str {
        "lattice QCD: 144-byte SU(3) link bursts, contiguous in x, strided in y/z/t, with staple neighbour gathers"
    }

    fn data_set_bytes(&self) -> u64 {
        let sites = self.l.pow(4);
        sites * 4 * MATRIX * 8
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        self.trace(Tracer::new(batch, emit, 8192));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_trace;
    use streamsim_trace::{BlockSize, StrideClass, TraceStats};

    fn tiny() -> Qcd {
        Qcd { l: 4, sweeps: 1 }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn bursts_dominate() {
        let stats = TraceStats::from_trace(collect_trace(&tiny()));
        let seq = stats
            .strides()
            .class_fraction(StrideClass::WithinBlock, BlockSize::default());
        assert!(seq > 0.3, "seq = {seq}");
    }

    #[test]
    fn paper_footprint() {
        // 12⁴ × 4 dirs × 144 B ≈ 11.4 MB modelled (the original packs
        // harder; the pattern, not the size, is what matters here).
        assert!(Qcd::paper().data_set_bytes() > 1 << 20);
    }
}
