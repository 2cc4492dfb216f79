//! Generic synthetic access-pattern generators.
//!
//! These are the primitive patterns the benchmark kernels compose —
//! exposed publicly because they are also the right tool for validating a
//! memory system against *known* ground truth (e.g. a pure sequential
//! sweep must give a stream hit rate near 1, a uniform random gather near
//! 0). The integration tests and several benches use them directly.

use streamsim_prng::{Rng, Xoshiro256StarStar};

use streamsim_trace::{Access, Addr};

use crate::{AddressSpace, Suite, Tracer, Workload};

/// Sequential sweeps over one or more arrays, one after another.
///
/// With `passes` > 1 each array is swept repeatedly, so footprints larger
/// than the primary cache produce a steady unit-stride miss stream.
#[derive(Clone, Debug)]
pub struct SequentialSweep {
    /// Number of distinct arrays.
    pub arrays: usize,
    /// Size of each array in bytes.
    pub bytes_per_array: u64,
    /// Number of full sweeps over each array.
    pub passes: u32,
    /// Bytes per element reference.
    pub elem: u64,
}

impl Default for SequentialSweep {
    fn default() -> Self {
        SequentialSweep {
            arrays: 2,
            bytes_per_array: 512 * 1024,
            passes: 2,
            elem: 8,
        }
    }
}

impl SequentialSweep {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        let arrays: Vec<_> = (0..self.arrays)
            .map(|_| mem.array1(self.bytes_per_array / self.elem, self.elem))
            .collect();
        for _ in 0..self.passes {
            for a in &arrays {
                for i in 0..a.len() {
                    t.load(a.at(i));
                }
            }
        }
    }
}

impl Workload for SequentialSweep {
    fn name(&self) -> &str {
        "seq-sweep"
    }

    fn suite(&self) -> Suite {
        Suite::Synthetic
    }

    fn description(&self) -> &str {
        "back-to-back unit-stride sweeps over large arrays"
    }

    fn data_set_bytes(&self) -> u64 {
        self.arrays as u64 * self.bytes_per_array
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        self.trace(Tracer::new(batch, emit, 2048));
    }
}

/// `num_streams` interleaved unit-stride streams advancing in lockstep —
/// the pattern that motivates multi-way stream buffers (one loop reading
/// several arrays).
#[derive(Clone, Debug)]
pub struct InterleavedStreams {
    /// Number of concurrent streams (arrays).
    pub num_streams: usize,
    /// Elements per array.
    pub elements: u64,
    /// Bytes per element.
    pub elem: u64,
}

impl Default for InterleavedStreams {
    fn default() -> Self {
        InterleavedStreams {
            num_streams: 4,
            elements: 64 * 1024,
            elem: 8,
        }
    }
}

impl InterleavedStreams {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        let arrays: Vec<_> = (0..self.num_streams)
            .map(|_| mem.array1(self.elements, self.elem))
            .collect();
        for i in 0..self.elements {
            for a in &arrays {
                t.load(a.at(i));
            }
        }
    }
}

impl Workload for InterleavedStreams {
    fn name(&self) -> &str {
        "interleaved"
    }

    fn suite(&self) -> Suite {
        Suite::Synthetic
    }

    fn description(&self) -> &str {
        "several unit-stride arrays read in lockstep within one loop"
    }

    fn data_set_bytes(&self) -> u64 {
        self.num_streams as u64 * self.elements * self.elem
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        self.trace(Tracer::new(batch, emit, 1024));
    }
}

/// A constant-stride sweep: the pattern only the czone extension can
/// prefetch when the stride exceeds one cache block.
#[derive(Clone, Debug)]
pub struct StridedSweep {
    /// Stride between consecutive references, in bytes.
    pub stride_bytes: u64,
    /// References per sweep.
    pub count: u64,
    /// Number of sweeps (restarting from the base each time).
    pub repeats: u32,
}

impl Default for StridedSweep {
    fn default() -> Self {
        StridedSweep {
            stride_bytes: 4096,
            count: 4096,
            repeats: 2,
        }
    }
}

impl StridedSweep {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        let base = mem.alloc(self.stride_bytes * self.count + 8, 64);
        for _ in 0..self.repeats {
            for i in 0..self.count {
                t.load(Addr::new(base.raw() + i * self.stride_bytes));
            }
        }
    }
}

impl Workload for StridedSweep {
    fn name(&self) -> &str {
        "strided"
    }

    fn suite(&self) -> Suite {
        Suite::Synthetic
    }

    fn description(&self) -> &str {
        "large constant-stride sweep (column accesses of a row-major matrix)"
    }

    fn data_set_bytes(&self) -> u64 {
        self.stride_bytes * self.count
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        self.trace(Tracer::new(batch, emit, 1024));
    }
}

/// Uniform random references over a footprint — the worst case for any
/// prefetcher, modelling pathological scatter/gather.
#[derive(Clone, Debug)]
pub struct RandomGather {
    /// Footprint in bytes.
    pub footprint: u64,
    /// Number of references.
    pub count: u64,
    /// PRNG seed (determinism).
    pub seed: u64,
}

impl Default for RandomGather {
    fn default() -> Self {
        RandomGather {
            footprint: 4 << 20,
            count: 200_000,
            seed: 42,
        }
    }
}

impl RandomGather {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        let words = self.footprint / 8;
        let a = mem.array1(words, 8);
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.seed);
        for _ in 0..self.count {
            t.load(a.at(rng.gen_range(0..words)));
        }
    }
}

impl Workload for RandomGather {
    fn name(&self) -> &str {
        "random-gather"
    }

    fn suite(&self) -> Suite {
        Suite::Synthetic
    }

    fn description(&self) -> &str {
        "uniform random word references over a large footprint"
    }

    fn data_set_bytes(&self) -> u64 {
        self.footprint
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        self.trace(Tracer::new(batch, emit, 1024));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_trace;
    use streamsim_trace::{AccessKind, BlockSize, StrideClass, TraceStats};

    #[test]
    fn sequential_sweep_is_sequential() {
        let w = SequentialSweep {
            arrays: 1,
            bytes_per_array: 64 * 1024,
            passes: 1,
            elem: 8,
        };
        let stats = TraceStats::from_trace(collect_trace(&w));
        let frac = stats
            .strides()
            .class_fraction(StrideClass::WithinBlock, BlockSize::default());
        assert!(frac > 0.99, "frac = {frac}");
    }

    #[test]
    fn interleaved_streams_alternate_arrays() {
        let w = InterleavedStreams {
            num_streams: 3,
            elements: 1000,
            elem: 8,
        };
        let trace = collect_trace(&w);
        let data: Vec<_> = trace
            .iter()
            .filter(|a| a.kind != AccessKind::IFetch)
            .collect();
        assert_eq!(data.len(), 3000);
        // Consecutive refs from different arrays: large strides dominate.
        let stats = TraceStats::from_trace(trace.clone());
        let seq = stats
            .strides()
            .class_fraction(StrideClass::WithinBlock, BlockSize::default());
        assert!(seq < 0.1, "lockstep reads are not sequential: {seq}");
    }

    #[test]
    fn strided_sweep_has_constant_stride() {
        let w = StridedSweep {
            stride_bytes: 4096,
            count: 100,
            repeats: 1,
        };
        let stats = TraceStats::from_trace(collect_trace(&w));
        let top = stats.strides().top(1);
        assert_eq!(top[0].0, 4096);
    }

    #[test]
    fn random_gather_is_irregular() {
        let w = RandomGather {
            footprint: 1 << 20,
            count: 10_000,
            seed: 1,
        };
        let stats = TraceStats::from_trace(collect_trace(&w));
        let frac = stats
            .strides()
            .class_fraction(StrideClass::Irregular, BlockSize::default());
        assert!(frac > 0.6, "frac = {frac}");
    }

    #[test]
    fn generators_are_deterministic() {
        let w = RandomGather::default();
        assert_eq!(collect_trace(&w), collect_trace(&w));
    }

    #[test]
    fn default_footprints_are_reported() {
        assert_eq!(SequentialSweep::default().data_set_bytes(), 1 << 20);
        assert!(RandomGather::default().data_set_bytes() > 0);
        assert!(StridedSweep::default().data_set_bytes() > 0);
        assert!(InterleavedStreams::default().data_set_bytes() > 0);
    }
}
