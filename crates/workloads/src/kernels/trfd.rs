//! `trfd` — PERFECT, two-electron integral transformation.
//!
//! TRFD is a sequence of matrix-product passes over packed integral
//! arrays far larger than the primary cache (the paper reports an 8 MB
//! data set against a 64 KB cache). With Fortran column-major layout,
//! the first half-transformation sweeps its operands down columns (unit
//! stride) while the second walks across rows — a constant stride of one
//! whole column. Half the misses are therefore large-constant-stride:
//! unit-only streams reach ~50 % (Figure 3) while wasting 96 % extra
//! bandwidth (Table 2, the worst of the PERFECT group), the filter
//! removes almost all of that waste (96 % → 11 %, Figure 5), and czone
//! detection lifts the hit rate to ~65 % (Figure 8). Runs are long (90 %
//! of hits from runs over 20, Table 3) because each operand sweep covers
//! a full column or row.

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The TRFD kernel model.
#[derive(Clone, Debug)]
pub struct Trfd {
    /// Basis dimension (matrix side). Matrices are `n × n` doubles and
    /// must far exceed the primary cache for faithful streaming.
    pub n: u64,
    /// Column-sweep (unit-stride) passes per transformation.
    pub unit_passes: u32,
    /// Row-sweep (column-strided) passes per transformation.
    pub strided_passes: u32,
    /// Scratch references per matrix element (the transformation's
    /// register-blocked arithmetic).
    pub compute_refs: u32,
}

impl Trfd {
    /// Paper-scale input: 1.1 MB matrices (≫ the 64 KB primary cache).
    pub fn paper() -> Self {
        Trfd {
            n: 384,
            unit_passes: 3,
            strided_passes: 2,
            compute_refs: 2,
        }
    }
}

impl Trfd {
    fn trace(&self, mut t: Tracer<'_>) {
        let n = self.n;
        let mut mem = AddressSpace::new();
        let a = mem.array2(n, n, 8);
        let b = mem.array2(n, n, 8);
        let c = mem.array2(n, n, 8);
        // The two-electron integrals are stored packed lower-triangular;
        // walking a "row" of a packed matrix has a *growing* stride
        // (offset(i,k) = k(k+1)/2 + i), which no constant-stride
        // detector can follow.
        let packed = mem.array1(n * (n + 1) / 2, 8);
        let scratch = mem.array1(1024, 8);

        let mut sp = 0u64;
        // First half-transformation, C = Aᵀ·B accumulated over occupied
        // orbitals: every pass sweeps both operands down columns (the
        // whole matrix is contiguous column-major) and stores C.
        t.branch_to(0);
        for _ in 0..self.unit_passes {
            for j in 0..n {
                for k in 0..n {
                    t.load(a.at(k, j));
                    t.load(b.at(k, j));
                    for _ in 0..self.compute_refs {
                        sp = (sp + 1) % scratch.len();
                        t.load(scratch.at(sp));
                    }
                    if k % 4 == 0 {
                        t.store(c.at(k, j));
                    }
                }
            }
        }
        // Second half-transformation, B' = C·A: even rows walk the
        // square C across a row (constant stride of one column, n·8
        // bytes); odd rows walk the packed integral array, whose row
        // stride grows with the column index — a pattern no
        // constant-stride detector can follow.
        t.branch_to(2048);
        for _ in 0..self.strided_passes {
            for i in 0..n {
                for k in 0..n {
                    if i % 2 == 0 {
                        t.load(c.at(i, k)); // constant stride n·8
                    } else {
                        // Packed lower-triangular: offset k(k+1)/2 + row.
                        let row = i / 2;
                        let col = k.max(row);
                        t.load(packed.at(col * (col + 1) / 2 + row));
                    }
                    t.load(a.at(k, i % n)); // column: unit stride
                    for _ in 0..self.compute_refs {
                        sp = (sp + 1) % scratch.len();
                        t.load(scratch.at(sp));
                    }
                    if k % 4 == 0 {
                        t.store(b.at(k, i));
                    }
                }
            }
        }
    }
}

impl Workload for Trfd {
    fn name(&self) -> &str {
        "trfd"
    }

    fn suite(&self) -> Suite {
        Suite::Perfect
    }

    fn description(&self) -> &str {
        "integral transformation: matrix-product passes mixing unit-stride column sweeps with whole-column strided row sweeps"
    }

    fn data_set_bytes(&self) -> u64 {
        // Three n×n matrices.
        3 * self.n * self.n * 8
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

    fn tiny() -> Trfd {
        Trfd {
            n: 64,
            unit_passes: 1,
            strided_passes: 1,
            compute_refs: 1,
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(collect_trace(&tiny()), collect_trace(&tiny()));
    }

    #[test]
    fn operand_interleave_has_constant_deltas() {
        // Consecutive references alternate between matrices and scratch,
        // so the raw stride histogram shows constant *inter-array* deltas
        // rather than the per-array unit/column strides; a dominant
        // repeated delta distinguishes this from random traffic.
        let stats = TraceStats::from_trace(collect_trace(&tiny()));
        let top = stats.strides().top(1)[0];
        assert!(
            top.1 as f64 > stats.strides().total() as f64 * 0.1,
            "top stride {top:?} should dominate"
        );
        let b = BlockSize::default();
        let wild = stats.strides().class_fraction(StrideClass::LargeStrided, b)
            + stats.strides().class_fraction(StrideClass::Irregular, b)
            + stats.strides().class_fraction(StrideClass::Near, b);
        assert!(wild > 0.2, "strided phase must show: {wild}");
    }

    #[test]
    fn matrices_far_exceed_the_primary_cache() {
        let w = Trfd::paper();
        assert!(
            w.n * w.n * 8 >= 16 * 64 * 1024,
            "each matrix must be at least 16x the 64 KB L1"
        );
    }

    #[test]
    fn volume_scales_with_passes() {
        let one = collect_trace(&tiny()).len();
        let two = collect_trace(&Trfd {
            unit_passes: 2,
            strided_passes: 2,
            ..tiny()
        })
        .len();
        assert!((two as f64 / one as f64 - 2.0).abs() < 0.05);
    }
}
