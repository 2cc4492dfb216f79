//! `fftpde` — NAS FT, a 3-D PDE solver using FFTs.
//!
//! FT applies 1-D FFTs along each dimension of a 64³ complex array. The
//! dimension-1 transforms are unit-stride, but dimensions 2 and 3 walk the
//! array at strides of n and n² complex elements — large powers of two.
//! This is *the* motivating workload for the paper's non-unit-stride
//! extension: unit-only streams manage a 26 % hit rate, the czone scheme
//! lifts it to 71 %, and Figure 9 shows detection works for czone sizes of
//! roughly 16–23 bits (large enough to span twice the plane stride, small
//! enough that the decimated work array — which this kernel processes
//! concurrently at a different stride — stays in separate partitions).

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The FT kernel model.
#[derive(Clone, Debug)]
pub struct Fftpde {
    /// Grid dimension (64 in the paper).
    pub n: u64,
    /// FFT evolution steps.
    pub steps: u32,
    /// Butterfly passes modelled per 1-D transform (the address pattern
    /// repeats per pass; two passes capture it without inflating traces).
    pub passes: u32,
}

impl Fftpde {
    /// Paper input: 64 × 64 × 64 complex array.
    pub fn paper() -> Self {
        Fftpde {
            n: 64,
            steps: 1,
            passes: 2,
        }
    }

    fn trace(&self, mut t: Tracer<'_>) {
        let n = self.n;
        let mut mem = AddressSpace::new();
        let x = mem.alloc(n * n * n * COMPLEX, 64);
        // Place the decimated work array 2^25 bytes (2^23 words) away: its
        // transforms run concurrently at half the stride, so a czone of
        // 24+ bits merges the two into one partition and defeats the FSM —
        // reproducing Figure 9's upper cut-off.
        mem.skip_to(x.raw() + (1 << 25));
        let y = mem.alloc(n * n * n * COMPLEX / 2, 64);

        let at_x = |e: u64| streamsim_trace::Addr::new(x.raw() + e * COMPLEX);
        let at_y = |e: u64| streamsim_trace::Addr::new(y.raw() + e * COMPLEX);

        for _ in 0..self.steps {
            // Evolve step: pointwise multiply by the exponential factors —
            // one sequential read-modify-write pass over the whole array.
            t.branch_to(6144);
            for e in 0..n * n * n {
                t.load(at_x(e));
                t.store(at_x(e));
            }
            // Dimension 1: unit stride along lines of n elements.
            t.branch_to(0);
            for line in 0..n * n {
                let base = line * n;
                for _ in 0..self.passes {
                    for i in 0..n {
                        t.load(at_x(base + i));
                        t.store(at_x(base + i));
                    }
                }
            }
            // Dimensions 2 and 3: stride n and n² elements. The decimated
            // work array is transformed in lockstep at half the stride.
            for (dim, x_stride, y_stride) in [(2u32, n, n / 2), (3, n * n, n * n / 2)] {
                t.branch_to(4096);
                let lines = n * n / 2; // sample half the lines per pass
                for l in 0..lines {
                    // Line bases enumerate the non-strided dimensions.
                    let base = match dim {
                        2 => (l % n) + (l / n) * n * n,
                        _ => l, // i + j·n enumerates dim-3 line bases
                    };
                    let y_total = n * n * n / 2;
                    let y_span = y_stride * (n - 1) + 1;
                    let ybase = (l * 977) % (y_total - y_span);
                    for _ in 0..self.passes {
                        for i in 0..n {
                            t.load(at_x(base + i * x_stride));
                            t.load(at_y(ybase + i * y_stride));
                            t.store(at_x(base + i * x_stride));
                        }
                    }
                }
            }
        }
    }
}

const COMPLEX: u64 = 16;

impl Workload for Fftpde {
    fn name(&self) -> &str {
        "fftpde"
    }

    fn suite(&self) -> Suite {
        Suite::Nas
    }

    fn description(&self) -> &str {
        "3-D FFT: unit-stride dim-1 transforms plus large power-of-two strides along dims 2 and 3"
    }

    fn data_set_bytes(&self) -> u64 {
        // x plus the half-size decimated work array.
        self.n * self.n * self.n * COMPLEX * 3 / 2
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

    fn tiny() -> Fftpde {
        Fftpde {
            n: 16,
            steps: 1,
            passes: 1,
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn large_strides_dominate_the_strided_passes() {
        let w = Fftpde {
            n: 32,
            steps: 1,
            passes: 1,
        };
        let stats = TraceStats::from_trace(collect_trace(&w));
        let strided = stats
            .strides()
            .class_fraction(StrideClass::LargeStrided, BlockSize::default());
        assert!(strided > 0.2, "strided = {strided}");
    }

    #[test]
    fn work_array_is_far_from_x() {
        // The czone upper cut-off depends on the 2^25-byte separation.
        let trace = collect_trace(&tiny());
        let stats = TraceStats::from_trace(trace);
        assert!(stats.address_span() >= (1 << 25));
    }

    #[test]
    fn paper_footprint_is_several_megabytes() {
        let mb = Fftpde::paper().data_set_bytes() as f64 / (1 << 20) as f64;
        assert!((4.0..16.0).contains(&mb), "{mb} MB");
    }
}
