//! `embar` — NAS EP, the embarrassingly parallel kernel.
//!
//! EP generates pseudorandom pairs in registers (vranlc keeps its state
//! in floating-point registers), maps them through a Gaussian acceptance
//! test with a small scratch working set, and appends accepted deviates
//! to a results log. The only steady memory traffic is the sequential
//! log — which is why the paper reports a very low data miss rate
//! (0.28 %) and near-perfect stream behaviour (hit rates at the top of
//! Figure 3 and only 8 % extra bandwidth in Table 2): what little misses
//! is almost purely one long unit-stride stream.

use streamsim_trace::Access;

use crate::{AddressSpace, Suite, Tracer, Workload};

/// The EP kernel model.
#[derive(Clone, Debug)]
pub struct Embar {
    /// Pairs generated per batch.
    pub chunk: u64,
    /// Number of batches.
    pub batches: u32,
    /// Scratch references per pair (the register/stack-resident Gaussian
    /// transform, modelled as small-working-set references).
    pub compute_refs: u32,
}

impl Embar {
    /// Paper-scale input.
    pub fn paper() -> Self {
        Embar {
            chunk: 1024,
            batches: 96,
            compute_refs: 14,
        }
    }
}

impl Embar {
    fn trace(&self, mut t: Tracer<'_>) {
        let mut mem = AddressSpace::new();
        // Scratch scales with the chunk so it stays cache-resident at
        // any simulated scale.
        let scratch = mem.array1(self.chunk.max(256), 8);
        let bins = mem.array1(16, 8);
        let log = mem.array1((self.batches as u64) * self.chunk * 2, 8);

        let mut log_pos = 0u64;
        let mut sp = 0u64;
        for _batch in 0..self.batches {
            for pair in 0..self.chunk {
                // The LCG and acceptance test live in registers and a
                // small scratch working set.
                for _ in 0..self.compute_refs {
                    sp = (sp + 1) % scratch.len();
                    t.load(scratch.at(sp));
                }
                // Tally the annulus (bins are L1-resident).
                t.load(bins.at(pair % 10));
                t.store(bins.at(pair % 10));
                // Append the accepted deviates to the log.
                t.store(log.at(log_pos));
                t.store(log.at(log_pos + 1));
                log_pos += 2;
            }
        }
    }
}

impl Workload for Embar {
    fn name(&self) -> &str {
        "embar"
    }

    fn suite(&self) -> Suite {
        Suite::Nas
    }

    fn description(&self) -> &str {
        "embarrassingly parallel random pairs: register-resident generation plus one sequential results log"
    }

    fn data_set_bytes(&self) -> u64 {
        // Scratch + tally bins + the results log (two deviates per pair).
        self.chunk.max(256) * 8 + 16 * 8 + (self.batches as u64) * self.chunk * 2 * 8
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

    #[test]
    fn trace_is_deterministic() {
        let w = Embar {
            chunk: 256,
            batches: 2,
            compute_refs: 4,
        };
        assert_eq!(collect_trace(&w), collect_trace(&w));
    }

    #[test]
    fn working_set_is_mostly_local() {
        let w = Embar {
            chunk: 512,
            batches: 2,
            compute_refs: 8,
        };
        let stats = TraceStats::from_trace(collect_trace(&w));
        let local = stats
            .strides()
            .class_fraction(StrideClass::WithinBlock, BlockSize::default())
            + stats
                .strides()
                .class_fraction(StrideClass::Near, BlockSize::default())
            + stats
                .strides()
                .class_fraction(StrideClass::Zero, BlockSize::default());
        assert!(local > 0.3, "local = {local}");
    }

    #[test]
    fn paper_footprint_is_about_a_megabyte() {
        let w = Embar::paper();
        let mb = w.data_set_bytes() as f64 / (1 << 20) as f64;
        assert!((0.5..4.0).contains(&mb), "footprint {mb} MB");
    }

    #[test]
    fn log_grows_with_batches() {
        let small = Embar {
            chunk: 256,
            batches: 2,
            compute_refs: 4,
        };
        let big = Embar {
            batches: 4,
            ..small.clone()
        };
        assert!(big.data_set_bytes() > small.data_set_bytes());
    }
}
