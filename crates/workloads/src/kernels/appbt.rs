//! `appbt` — NAS BT, the block-tridiagonal ADI solver.
//!
//! BT factors 5×5 blocks at every grid point, but the block Jacobians are
//! computed per line into cache-resident buffers; the *memory* traffic is
//! the solution and right-hand-side fields — `u(5, i, j, k)` layout, a
//! 40-byte burst per point. Along x the points are contiguous (long unit
//! streams); along y and z each burst is followed by a jump of 5·n or
//! 5·n² doubles, so a stream supplies only a hit or two before breaking.
//! That is the paper's shortest length distribution (63 % of hits from
//! runs of 1–5, Table 3) and exactly why the unit-stride filter *hurts*
//! BT: paying two misses to verify each one- or two-block burst forfeits
//! most of its hits (65 % → 45 %, Figure 5) — the paper's argument for
//! making the filter switchable.

use streamsim_trace::Access;

use crate::{AddressSpace, Array4, Suite, Tracer, Workload};

/// The BT kernel model.
#[derive(Clone, Debug)]
pub struct Appbt {
    /// Grid dimension per side.
    pub n: u64,
    /// ADI time steps.
    pub iters: u32,
}

impl Appbt {
    /// Paper input: 18 × 18 × 18 grid.
    pub fn paper() -> Self {
        Appbt { n: 18, iters: 4 }
    }

    /// Table 4 small input (dimensions scaled so the footprint-to-cache
    /// ratio matches the original's 12³ run).
    pub fn small() -> Self {
        Appbt { n: 18, iters: 4 }
    }

    /// Table 4 large input (the original's 24³ run, similarly scaled).
    pub fn large() -> Self {
        Appbt { n: 30, iters: 1 }
    }

    /// One grid point of a solve sweep: burst-read the fields, factor the
    /// 5×5 blocks in the (resident) line buffer, store the rhs.
    #[expect(
        clippy::too_many_arguments,
        reason = "a grid point needs its three fields, the line buffer and its cursor, and \
                  (i, j, k); a parameter struct would only rename them"
    )]
    fn point(
        t: &mut Tracer<'_>,
        u: &Array4,
        rhs: &Array4,
        qs: &Array4,
        lhs_line: &crate::Array1,
        lhs_pos: &mut u64,
        i: u64,
        j: u64,
        k: u64,
    ) {
        for c in 0..5 {
            t.load(u.at(c, i, j, k));
        }
        t.load(qs.at(0, i, j, k));
        // 5×5 block elimination against the per-line lhs buffer, which
        // stays cache-resident (it is rebuilt every line).
        for _ in 0..25 {
            *lhs_pos = (*lhs_pos + 1) % lhs_line.len();
            t.load(lhs_line.at(*lhs_pos));
        }
        for c in 0..5 {
            t.load(rhs.at(c, i, j, k));
            t.store(rhs.at(c, i, j, k));
        }
    }
}

impl Appbt {
    fn trace(&self, mut t: Tracer<'_>) {
        let n = self.n;
        let mut mem = AddressSpace::new();
        let u = mem.array4(5, n, n, n, 8);
        let rhs = mem.array4(5, n, n, n, 8);
        let forcing = mem.array4(5, n, n, n, 8);
        let qs = mem.array4(1, n, n, n, 8);
        // Per-line block Jacobians: 3 blocks of 5×5 per point of a line,
        // rebuilt each line — resident by construction.
        let lhs_line = mem.array1(3 * 25 * n, 8);

        let mut lp = 0u64;
        for _ in 0..self.iters {
            // compute_rhs: storage-order pass over u, forcing and rhs.
            t.branch_to(0);
            for k in 1..n - 1 {
                for j in 1..n - 1 {
                    for i in 1..n - 1 {
                        for c in 0..5 {
                            t.load(u.at(c, i, j, k));
                        }
                        t.load(u.at(0, i, j, k + 1));
                        for c in 0..5 {
                            t.load(forcing.at(c, i, j, k));
                            t.store(rhs.at(c, i, j, k));
                        }
                    }
                }
            }
            // x-solve: points contiguous along i.
            t.branch_to(2048);
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        Self::point(&mut t, &u, &rhs, &qs, &lhs_line, &mut lp, i, j, k);
                    }
                }
            }
            // y-solve: consecutive points jump 5·n doubles.
            t.branch_to(4096);
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        Self::point(&mut t, &u, &rhs, &qs, &lhs_line, &mut lp, i, j, k);
                    }
                }
            }
            // z-solve: consecutive points jump 5·n² doubles.
            t.branch_to(6144);
            for j in 0..n {
                for i in 0..n {
                    for k in 0..n {
                        Self::point(&mut t, &u, &rhs, &qs, &lhs_line, &mut lp, i, j, k);
                    }
                }
            }
        }
    }
}

impl Workload for Appbt {
    fn name(&self) -> &str {
        "appbt"
    }

    fn suite(&self) -> Suite {
        Suite::Nas
    }

    fn description(&self) -> &str {
        "block-tridiagonal ADI: 40-byte field bursts per point, contiguous along x, stride 5n/5n² along y/z"
    }

    fn data_set_bytes(&self) -> u64 {
        let points = self.n * self.n * self.n;
        // u + rhs + forcing (5 components) + qs; the per-line lhs buffer
        // is transient.
        (5 + 5 + 5 + 1) * points * 8
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

    fn tiny() -> Appbt {
        Appbt { n: 6, iters: 1 }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn resident_lhs_dominates_references() {
        // Most references go to the per-line lhs buffer (the 5×5 block
        // math), keeping the modelled compute/memory ratio realistic.
        let stats = TraceStats::from_trace(collect_trace(&tiny()));
        let b = BlockSize::default();
        let local = stats.strides().class_fraction(StrideClass::WithinBlock, b)
            + stats.strides().class_fraction(StrideClass::Zero, b);
        assert!(local > 0.3, "local = {local}");
    }

    #[test]
    fn table4_large_input_outgrows_small() {
        assert!(Appbt::large().data_set_bytes() > 2 * Appbt::small().data_set_bytes());
    }

    #[test]
    fn lhs_line_buffer_is_cache_resident() {
        let w = Appbt::paper();
        assert!(3 * 25 * w.n * 8 < 64 * 1024, "line buffer must fit L1");
    }
}
