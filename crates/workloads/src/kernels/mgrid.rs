//! `mgrid` — NAS MG, the multigrid V-cycle kernel.
//!
//! MG applies 27-point stencils over a hierarchy of 3-D grids. In Fortran
//! layout the stencil's nine neighbour rows are nine offsets within
//! contiguous planes, so each relaxation sweep drives a handful of long
//! unit-stride miss streams (the leading plane of `u` plus `v` and `r`) —
//! the paper's prototypical stream-friendly code: hit rates near the top
//! of Figure 3 and a stream-length distribution dominated by runs longer
//! than 20 (86 % in Table 3). Restriction and prolongation access the
//! fine grid at stride two, which is still sub-block and therefore remains
//! a unit-stride *block* stream.

use streamsim_trace::Access;

use crate::{AddressSpace, Array3, Suite, Tracer, Workload};

/// The MG kernel model.
#[derive(Clone, Debug)]
pub struct Mgrid {
    /// Finest grid dimension (the paper uses 32³, Table 4 also 64³).
    pub n: u64,
    /// Number of V-cycles.
    pub cycles: u32,
}

impl Mgrid {
    /// Paper input: 32 × 32 × 32 grid.
    pub fn paper() -> Self {
        Mgrid { n: 32, cycles: 3 }
    }

    /// Table 4 small input (same as the paper default).
    pub fn small() -> Self {
        Self::paper()
    }

    /// Table 4 large input (the original's 64³ run; 48³ here keeps the
    /// stencil reuse distances in the same regime relative to the cache).
    pub fn large() -> Self {
        Mgrid { n: 48, cycles: 2 }
    }

    /// Relaxation sweep: u ← smooth(u, r) with a 27-point stencil.
    fn relax(t: &mut Tracer<'_>, u: &Array3, r: &Array3) {
        let n = u.dims()[0];
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    // Nine contiguous neighbour rows collapse to nine
                    // streaming loads; emit the leading-edge accesses the
                    // cache actually sees: three rows of the k+1 plane
                    // plus the centre row and the residual.
                    t.load(u.at(i, j - 1, k + 1));
                    t.load(u.at(i, j, k + 1));
                    t.load(u.at(i, j + 1, k + 1));
                    t.load(u.at(i, j, k));
                    t.load(r.at(i, j, k));
                    t.store(u.at(i, j, k));
                }
            }
        }
    }

    /// Residual: r ← v − A·u.
    fn resid(t: &mut Tracer<'_>, u: &Array3, v: &Array3, r: &Array3) {
        let n = u.dims()[0];
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    t.load(u.at(i, j - 1, k + 1));
                    t.load(u.at(i, j + 1, k + 1));
                    t.load(u.at(i, j, k));
                    t.load(v.at(i, j, k));
                    t.store(r.at(i, j, k));
                }
            }
        }
    }

    /// Restriction: coarse ← fine at stride 2.
    fn restrict(t: &mut Tracer<'_>, fine: &Array3, coarse: &Array3) {
        let nc = coarse.dims()[0];
        for k in 0..nc {
            for j in 0..nc {
                for i in 0..nc {
                    t.load(fine.at(2 * i, 2 * j, 2 * k));
                    t.load(fine.at((2 * i + 1).min(fine.dims()[0] - 1), 2 * j, 2 * k));
                    t.store(coarse.at(i, j, k));
                }
            }
        }
    }

    /// Prolongation: fine ← fine + interpolate(coarse).
    fn interp(t: &mut Tracer<'_>, coarse: &Array3, fine: &Array3) {
        let nc = coarse.dims()[0];
        for k in 0..nc {
            for j in 0..nc {
                for i in 0..nc {
                    t.load(coarse.at(i, j, k));
                    t.store(fine.at(2 * i, 2 * j, 2 * k));
                    t.store(fine.at((2 * i + 1).min(fine.dims()[0] - 1), 2 * j, 2 * k));
                }
            }
        }
    }
}

impl Mgrid {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        // Grid hierarchy down to 4³.
        let mut dims = Vec::new();
        let mut d = self.n;
        while d >= 4 {
            dims.push(d);
            d /= 2;
        }
        let levels: Vec<(Array3, Array3, Array3)> = dims
            .iter()
            .map(|&d| {
                (
                    mem.array3(d, d, d, 8),
                    mem.array3(d, d, d, 8),
                    mem.array3(d, d, d, 8),
                )
            })
            .collect();

        for _ in 0..self.cycles {
            // Down-sweep: relax + residual + restrict.
            for l in 0..levels.len() - 1 {
                let (u, v, r) = &levels[l];
                t.branch_to(0);
                Self::relax(&mut t, u, r);
                Self::resid(&mut t, u, v, r);
                let (_, v_c, _) = &levels[l + 1];
                t.branch_to(2048);
                Self::restrict(&mut t, r, v_c);
            }
            // Coarsest solve: a few relaxations.
            let (u, _, r) = levels.last().expect("at least one level");
            for _ in 0..4 {
                Self::relax(&mut t, u, r);
            }
            // Up-sweep: interpolate + relax.
            for l in (0..levels.len() - 1).rev() {
                let (u_c, _, _) = &levels[l + 1];
                let (u, _, r) = &levels[l];
                t.branch_to(4096);
                Self::interp(&mut t, u_c, u);
                Self::relax(&mut t, u, r);
            }
        }
    }
}

impl Workload for Mgrid {
    fn name(&self) -> &str {
        "mgrid"
    }

    fn suite(&self) -> Suite {
        Suite::Nas
    }

    fn description(&self) -> &str {
        "multigrid V-cycle: 27-point stencil relaxation over a grid hierarchy; long unit-stride plane sweeps"
    }

    fn data_set_bytes(&self) -> u64 {
        // u, v, r on the finest grid plus the coarse hierarchy (~1/7 more
        // per array).
        let fine = self.n * self.n * self.n * 8;
        3 * fine + 3 * fine / 7
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

    fn tiny() -> Mgrid {
        Mgrid { n: 16, cycles: 1 }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn sweeps_are_dominated_by_small_strides() {
        let stats = TraceStats::from_trace(collect_trace(&tiny()));
        let b = BlockSize::default();
        let local = stats.strides().class_fraction(StrideClass::WithinBlock, b)
            + stats.strides().class_fraction(StrideClass::Near, b)
            + stats.strides().class_fraction(StrideClass::Zero, b);
        // Stencil reads jump between planes, but each array is swept
        // contiguously; the mixture is still strongly local.
        assert!(local > 0.2, "local = {local}");
    }

    #[test]
    fn large_input_outgrows_small() {
        assert!(Mgrid::large().data_set_bytes() > 2 * Mgrid::small().data_set_bytes());
    }

    #[test]
    fn trace_volume_scales_with_cycles() {
        let one = collect_trace(&Mgrid { n: 16, cycles: 1 }).len();
        let two = collect_trace(&Mgrid { n: 16, cycles: 2 }).len();
        assert!((two as f64 / one as f64 - 2.0).abs() < 0.01);
    }
}
