//! `applu` — NAS LU, the SSOR solver.
//!
//! LU performs symmetric successive over-relaxation over `u(5, i, j, k)`
//! fields. The Jacobian blocks are computed per point into resident
//! buffers; the memory traffic is the field arrays. The lower-triangular
//! sweep (`blts`) walks the grid in ascending storage order — long
//! unit-stride streams — while the upper sweep (`buts`) walks it in
//! *descending* order, a backward pattern Jouppi's incrementer cannot
//! follow but the paper's general-stride extension can (a constant
//! negative stride). The mix lands LU in the middle of Figure 3 (~62 %)
//! with Table 3 showing both a short-run component (22 % of hits from
//! 1–5) and a long tail (64 % over 20). Table 4 runs 12³ and 24³.

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The LU kernel model.
#[derive(Clone, Debug)]
pub struct Applu {
    /// Grid dimension per side.
    pub n: u64,
    /// SSOR iterations.
    pub iters: u32,
}

impl Applu {
    /// Paper input: 18 × 18 × 18 grid.
    pub fn paper() -> Self {
        Applu { n: 18, iters: 5 }
    }

    /// Table 4 small input (dimensions scaled so the footprint-to-cache
    /// ratio matches the original's 12³ run).
    pub fn small() -> Self {
        Applu { n: 18, iters: 5 }
    }

    /// Table 4 large input (the original's 24³ run, similarly scaled).
    pub fn large() -> Self {
        Applu { n: 24, iters: 3 }
    }
}

impl Applu {
    fn trace(&self, mut t: Tracer<'_>) {
        let n = self.n;
        let mut mem = AddressSpace::new();
        let u = mem.array4(5, n, n, n, 8);
        let rhs = mem.array4(5, n, n, n, 8);
        let frct = mem.array4(5, n, n, n, 8);
        // Per-point 5×5 Jacobian blocks, rebuilt each point — resident.
        let jac = mem.array1(4 * 25, 8);

        let mut jp = 0u64;
        let mut block_math = |t: &mut Tracer<'_>, refs: u64| {
            for _ in 0..refs {
                jp = (jp + 1) % jac.len();
                t.load(jac.at(jp));
            }
        };
        for _ in 0..self.iters {
            // rhs: storage-order residual evaluation.
            t.branch_to(0);
            for k in 1..n - 1 {
                for j in 1..n - 1 {
                    for i in 1..n - 1 {
                        for c in 0..5 {
                            t.load(u.at(c, i, j, k));
                        }
                        t.load(u.at(0, i, j, k + 1));
                        for c in 0..5 {
                            t.load(frct.at(c, i, j, k));
                            t.store(rhs.at(c, i, j, k));
                        }
                    }
                }
            }
            // blts: lower solve, ascending lexicographic order — the
            // field bursts are contiguous, forming long unit streams.
            t.branch_to(2048);
            for k in 1..n {
                for j in 1..n {
                    for i in 1..n {
                        for c in 0..5 {
                            t.load(rhs.at(c, i, j, k));
                        }
                        block_math(&mut t, 20);
                        for c in 0..5 {
                            t.store(rhs.at(c, i, j, k));
                        }
                    }
                }
            }
            // buts: upper solve, descending order — backward unit
            // strides only the general adder can prefetch.
            t.branch_to(4096);
            for k in (0..n - 1).rev() {
                for j in (0..n - 1).rev() {
                    for i in (0..n - 1).rev() {
                        for c in 0..5 {
                            t.load(rhs.at(c, i, j, k));
                        }
                        block_math(&mut t, 20);
                        for c in 0..5 {
                            t.store(u.at(c, i, j, k));
                        }
                    }
                }
            }
        }
    }
}

impl Workload for Applu {
    fn name(&self) -> &str {
        "applu"
    }

    fn suite(&self) -> Suite {
        Suite::Nas
    }

    fn description(&self) -> &str {
        "SSOR: ascending lower solve (unit streams) and descending upper solve (backward streams) over AOS fields"
    }

    fn data_set_bytes(&self) -> u64 {
        let points = self.n * self.n * self.n;
        // u + rhs + frct (5 components each).
        3 * 5 * points * 8
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        self.trace(Tracer::new(batch, emit, 8192));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_trace;
    use streamsim_trace::{AccessKind, TraceStats};

    fn tiny() -> Applu {
        Applu { n: 6, iters: 1 }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn has_substantial_store_traffic() {
        let stats = TraceStats::from_trace(collect_trace(&tiny()));
        assert!(stats.store_fraction() > 0.15, "{}", stats.store_fraction());
        assert!(stats.count(AccessKind::IFetch) > 0);
    }

    #[test]
    fn table4_large_input_outgrows_small() {
        assert!(Applu::large().data_set_bytes() > 2 * Applu::small().data_set_bytes());
    }

    #[test]
    fn jacobian_buffer_is_resident() {
        let jac_bytes = 4u64 * 25 * 8;
        assert!(jac_bytes < 16 * 1024, "{jac_bytes} B must fit a quick L1");
    }
}
