//! `cgm` — NAS CG, conjugate gradient on a sparse matrix.
//!
//! CG alternates a CSR sparse mat-vec with dense vector operations. The
//! paper highlights it twice: it performs *surprisingly well* with streams
//! despite its indirections, because the index and value arrays are read
//! sequentially and the gathered vector `x` is small enough to live in the
//! primary cache; and it is the Table 4 *anomaly* — at the larger input
//! the matrix's "very irregular distribution of elements" makes the
//! gathers dominate and stream performance drops (85 % → 51 %) while a
//! 64 KB secondary cache suffices. The kernel reproduces both regimes via
//! the `bandwidth` parameter (None = fully scattered columns).

use streamsim_prng::{Rng, Xoshiro256StarStar};

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The CG kernel model.
#[derive(Clone, Debug)]
pub struct Cgm {
    /// Matrix dimension.
    pub rows: u64,
    /// Non-zero entries.
    pub nnz: u64,
    /// Column locality: `Some(b)` clusters columns within ±`b` of the
    /// diagonal (the paper's small input), `None` scatters them uniformly
    /// (the paper's large, irregular input).
    pub bandwidth: Option<u64>,
    /// CG iterations.
    pub iters: u32,
    /// PRNG seed for the sparsity pattern.
    pub seed: u64,
}

impl Cgm {
    /// Paper input: 1400 × 1400, 78 148 non-zeros, banded.
    pub fn paper() -> Self {
        Cgm {
            rows: 1400,
            nnz: 78_148,
            bandwidth: Some(160),
            iters: 12,
            seed: 0xc6,
        }
    }

    /// Table 4 small input (same as the paper default).
    pub fn small() -> Self {
        Self::paper()
    }

    /// Table 4 large input: 5600 × 5600, 98 148 non-zeros, scattered.
    pub fn large() -> Self {
        Cgm {
            rows: 5600,
            nnz: 98_148,
            bandwidth: None,
            iters: 10,
            seed: 0xc6,
        }
    }

    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        let a = mem.array1(self.nnz, 8);
        let colidx = mem.array1(self.nnz, 4);
        let rowptr = mem.array1(self.rows + 1, 4);
        let x = mem.array1(self.rows, 8);
        let q = mem.array1(self.rows, 8);
        let p = mem.array1(self.rows, 8);
        let r = mem.array1(self.rows, 8);
        let z = mem.array1(self.rows, 8);

        // Deterministic sparsity pattern: nnz spread evenly over rows,
        // columns banded or scattered.
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.seed);
        let per_row = (self.nnz / self.rows).max(1);
        let mut columns = Vec::with_capacity((self.rows * per_row) as usize);
        for row in 0..self.rows {
            for _ in 0..per_row {
                columns.push(match self.bandwidth {
                    Some(b) => {
                        let lo = row.saturating_sub(b);
                        let hi = (row + b).min(self.rows - 1);
                        rng.gen_range(lo..=hi)
                    }
                    None => rng.gen_range(0..self.rows),
                });
            }
        }

        for _ in 0..self.iters {
            // q = A · p  (mat-vec).
            t.branch_to(0);
            let mut nz = 0usize;
            for row in 0..self.rows {
                t.load(rowptr.at(row));
                for _ in 0..per_row {
                    t.load(colidx.at(nz as u64));
                    t.load(a.at(nz as u64));
                    t.load(x.at(columns[nz]));
                    nz += 1;
                }
                t.store(q.at(row));
            }
            // Dense CG updates: dot products and AXPYs.
            t.branch_to(2048);
            for i in 0..self.rows {
                t.load(p.at(i));
                t.load(q.at(i));
                t.load(r.at(i));
                t.store(r.at(i));
                t.load(z.at(i));
                t.store(z.at(i));
                t.store(p.at(i));
            }
        }
    }
}

impl Workload for Cgm {
    fn name(&self) -> &str {
        "cgm"
    }

    fn suite(&self) -> Suite {
        Suite::Nas
    }

    fn description(&self) -> &str {
        "conjugate gradient: CSR sparse mat-vec (sequential values/indices, gathered x) plus dense vector ops"
    }

    fn data_set_bytes(&self) -> u64 {
        // a (f64) + colidx (i32) + rowptr + 5 dense vectors.
        self.nnz * 8 + self.nnz * 4 + (self.rows + 1) * 4 + 5 * self.rows * 8
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

    fn tiny(bandwidth: Option<u64>) -> Cgm {
        Cgm {
            rows: 400,
            nnz: 8_000,
            bandwidth,
            iters: 2,
            seed: 9,
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            collect_trace(&tiny(Some(50))),
            collect_trace(&tiny(Some(50)))
        );
    }

    #[test]
    fn banded_and_scattered_differ() {
        assert_ne!(collect_trace(&tiny(Some(10))), collect_trace(&tiny(None)));
    }

    #[test]
    fn footprint_matches_paper_order() {
        // Paper Table 1: 2.9 MB for the small input.
        let mb = Cgm::paper().data_set_bytes() as f64 / (1 << 20) as f64;
        assert!((0.5..4.0).contains(&mb), "{mb} MB");
    }

    #[test]
    fn trace_covers_matrix_and_vectors() {
        let w = tiny(Some(50));
        let stats = TraceStats::from_trace(collect_trace(&w));
        // a (64 KB) + colidx + vectors: span must cover the footprint.
        assert!(stats.address_span() > 64 * 1024);
    }

    #[test]
    fn large_preset_is_scattered() {
        assert!(Cgm::large().bandwidth.is_none());
        assert!(Cgm::large().rows > Cgm::paper().rows);
    }
}
