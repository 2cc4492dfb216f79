//! `appsp` — NAS SP, the scalar pentadiagonal ADI solver.
//!
//! SP sweeps a 3-D grid in all three directions each time step. Its
//! Fortran arrays are `u(5, i, j, k)` — the five solution components are
//! *contiguous per grid point* — so the x-sweep is one long unit-stride
//! stream, while the y- and z-sweeps touch a 40-byte burst per point and
//! then jump a whole row (5·n doubles) or plane (5·n² doubles). Roughly
//! two thirds of the solver's misses are therefore non-unit-stride, which
//! is why the paper reports only ~33 % for unit-only streams (Figure 3)
//! with 134 % extra bandwidth (Table 2), and a jump to ~65 % once the
//! czone filter can follow the y/z strides (Figure 8). Table 4 runs the
//! same solver at 12³ and 24³.

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The SP kernel model.
#[derive(Clone, Debug)]
pub struct Appsp {
    /// Grid dimension per side.
    pub n: u64,
    /// ADI time steps.
    pub iters: u32,
}

impl Appsp {
    /// Paper input: 24 × 24 × 24 grid.
    pub fn paper() -> Self {
        Appsp { n: 24, iters: 6 }
    }

    /// Table 4 small input (dimensions scaled so the per-array
    /// footprint-to-cache ratio matches the original program's 12³ run;
    /// our kernels carry fewer bytes per grid point).
    pub fn small() -> Self {
        Appsp { n: 18, iters: 8 }
    }

    /// Table 4 large input (the original's 24³ run, similarly scaled).
    pub fn large() -> Self {
        Appsp { n: 30, iters: 3 }
    }
}

impl Appsp {
    fn trace(&self, mut t: Tracer<'_>) {
        let n = self.n;
        let mut mem = AddressSpace::new();
        let u = mem.array4(5, n, n, n, 8);
        // rhs lives in its own storage region (a separate COMMON block in
        // the Fortran original), so no czone size swept by Figure 9 can
        // merge the two arrays' partitions.
        mem.skip_to(0x5000_0000);
        let rhs = mem.array4(5, n, n, n, 8);

        for _ in 0..self.iters {
            // compute_rhs: one pass over u and rhs in storage order — two
            // long unit-stride streams.
            t.branch_to(0);
            for k in 1..n - 1 {
                for j in 1..n - 1 {
                    for i in 1..n - 1 {
                        for c in 0..5 {
                            t.load(u.at(c, i, j, k));
                        }
                        t.load(u.at(0, i, j, k + 1));
                        for c in 0..5 {
                            t.store(rhs.at(c, i, j, k));
                        }
                    }
                }
            }
            // x-solve: points contiguous along i (Thomas recurrences).
            t.branch_to(2048);
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        for c in 0..5 {
                            t.load(rhs.at(c, i, j, k));
                            t.store(rhs.at(c, i, j, k));
                        }
                    }
                }
            }
            // y-solve: 40-byte point bursts at a stride of 5·n doubles.
            t.branch_to(4096);
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        for c in 0..5 {
                            t.load(rhs.at(c, i, j, k));
                            t.store(rhs.at(c, i, j, k));
                        }
                    }
                }
            }
            // z-solve: bursts at a stride of 5·n² doubles.
            t.branch_to(6144);
            for j in 0..n {
                for i in 0..n {
                    for k in 0..n {
                        for c in 0..5 {
                            t.load(rhs.at(c, i, j, k));
                            t.store(u.at(c, i, j, k));
                        }
                    }
                }
            }
        }
    }
}

impl Workload for Appsp {
    fn name(&self) -> &str {
        "appsp"
    }

    fn suite(&self) -> Suite {
        Suite::Nas
    }

    fn description(&self) -> &str {
        "scalar pentadiagonal ADI: unit-stride x-sweeps, 40-byte bursts at stride 5n/5n² along y and z"
    }

    fn data_set_bytes(&self) -> u64 {
        // u + rhs, five components per point.
        2 * 5 * self.n * self.n * self.n * 8
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

    fn tiny() -> Appsp {
        Appsp { n: 8, iters: 1 }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn has_both_unit_and_strided_components() {
        let w = Appsp { n: 16, iters: 1 };
        let stats = TraceStats::from_trace(collect_trace(&w));
        let b = BlockSize::default();
        let unit = stats.strides().class_fraction(StrideClass::WithinBlock, b);
        let strided = stats.strides().class_fraction(StrideClass::LargeStrided, b)
            + stats.strides().class_fraction(StrideClass::Near, b);
        assert!(unit > 0.3, "unit = {unit}");
        assert!(strided > 0.05, "strided = {strided}");
    }

    #[test]
    fn components_are_contiguous_per_point() {
        let mut mem = AddressSpace::new();
        let u = mem.array4(5, 8, 8, 8, 8);
        assert_eq!(u.at(1, 0, 0, 0).raw() - u.at(0, 0, 0, 0).raw(), 8);
        assert_eq!(u.at(0, 1, 0, 0).raw() - u.at(0, 0, 0, 0).raw(), 40);
    }

    #[test]
    fn table4_large_input_outgrows_small() {
        assert!(Appsp::large().data_set_bytes() > 2 * Appsp::small().data_set_bytes());
    }
}
