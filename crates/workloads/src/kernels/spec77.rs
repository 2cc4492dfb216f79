//! `spec77` — PERFECT, spectral weather simulation.
//!
//! A spectral atmosphere model alternates Legendre transforms (long
//! sequential reductions over coefficient arrays), small FFTs along
//! latitude circles, and grid-point physics sweeps. Nearly everything is
//! a long unit-stride pass over a handful of large arrays, which is why
//! the paper's spec77 leads the PERFECT group in Figure 3 (~73 %) with a
//! long-run-dominated length distribution (84 % of hits from runs over
//! 20, Table 3).

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The spec77 kernel model.
#[derive(Clone, Debug)]
pub struct Spec77 {
    /// Spectral truncation (number of wavenumbers).
    pub waves: u64,
    /// Grid latitudes per transform.
    pub lats: u64,
    /// Vertical levels.
    pub levels: u64,
    /// Time steps.
    pub steps: u32,
}

impl Spec77 {
    /// Paper-scale input (9.2 MB footprint, 720 modelled time steps in
    /// the original; a handful of steps reproduce the pattern).
    pub fn paper() -> Self {
        Spec77 {
            waves: 96,
            lats: 128,
            levels: 12,
            steps: 2,
        }
    }
}

impl Spec77 {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        let spec = mem.array2(self.waves * self.waves, self.levels, 8);
        let legendre = mem.array1(self.waves * self.waves, 8);
        let four = mem.array2(self.waves * self.lats, self.levels, 8);
        let grid = mem.array2(self.lats * self.lats, self.levels, 8);
        let grid2 = mem.array2(self.lats * self.lats, self.levels, 8);
        let scratch = mem.array1(2048, 8);

        let mut sp = 0u64;
        for _ in 0..self.steps {
            // Inverse Legendre transform: for each level, a long
            // sequential reduction over the spectral coefficients against
            // the Legendre table, accumulating Fourier coefficients.
            t.branch_to(0);
            for l in 0..self.levels {
                for s in 0..self.waves * self.waves {
                    t.load(spec.at(s, l));
                    t.load(legendre.at(s));
                    sp = (sp + 1) % scratch.len();
                    t.store(scratch.at(sp));
                }
                for f in 0..self.waves * self.lats / 4 {
                    t.store(four.at(f * 4, l));
                }
            }
            // FFTs along latitude circles: short unit-stride passes.
            t.branch_to(2048);
            for l in 0..self.levels {
                for line in 0..self.lats {
                    let base = line * self.waves;
                    for pass in 0..2 {
                        for i in 0..self.waves {
                            t.load(four.at(base + i, l));
                            if pass == 1 {
                                t.store(four.at(base + i, l));
                            }
                        }
                    }
                }
            }
            // Grid-point physics: sequential sweeps over the grid fields.
            t.branch_to(4096);
            for l in 0..self.levels {
                for g in 0..self.lats * self.lats {
                    t.load(grid.at(g, l));
                    t.load(grid2.at(g, l));
                    sp = (sp + 1) % scratch.len();
                    t.load(scratch.at(sp));
                    t.store(grid.at(g, l));
                }
            }
        }
    }
}

impl Workload for Spec77 {
    fn name(&self) -> &str {
        "spec77"
    }

    fn suite(&self) -> Suite {
        Suite::Perfect
    }

    fn description(&self) -> &str {
        "spectral weather model: long sequential Legendre/FFT/physics sweeps over several large arrays"
    }

    fn data_set_bytes(&self) -> u64 {
        let spec = self.waves * self.waves * self.levels * 8; // coefficients
        let four = self.waves * self.lats * self.levels * 8; // Fourier
        let grid = 2 * self.lats * self.lats * self.levels * 8; // grid fields
        spec + four + grid
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

    fn tiny() -> Spec77 {
        Spec77 {
            waves: 16,
            lats: 16,
            levels: 2,
            steps: 1,
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn sequential_references_dominate() {
        let stats = TraceStats::from_trace(collect_trace(&tiny()));
        let b = BlockSize::default();
        let local = stats.strides().class_fraction(StrideClass::WithinBlock, b)
            + stats.strides().class_fraction(StrideClass::Near, b)
            + stats.strides().class_fraction(StrideClass::Zero, b);
        assert!(local > 0.35, "local = {local}");
    }

    #[test]
    fn paper_footprint_is_several_megabytes() {
        let mb = Spec77::paper().data_set_bytes() as f64 / (1 << 20) as f64;
        assert!((4.0..16.0).contains(&mb), "{mb} MB");
    }
}
