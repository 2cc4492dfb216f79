//! Workload combinators: replaying and time-slicing.
//!
//! The paper motivates stream buffers for large parallel machines, where
//! each processor multiplexes work. [`Interleaved`] models exactly that:
//! several workloads sharing one processor in fixed reference quanta, so
//! every context switch confronts the stream buffers (and the primary
//! cache) with a cold stranger's miss stream. [`RecordedTrace`] adapts a
//! stored trace back into a [`Workload`].

use streamsim_trace::Access;

use crate::{Suite, Workload, DEFAULT_CHUNK};

/// A workload that replays a pre-recorded reference trace.
///
/// Combined with [`crate::collect_trace`] and the `streamsim-trace` `io`
/// module this closes the loop: generate once, store, replay anywhere a
/// [`Workload`] is accepted.
///
/// # Example
///
/// ```
/// use streamsim_workloads::combinators::RecordedTrace;
/// use streamsim_workloads::{collect_trace, Workload};
/// use streamsim_workloads::generators::SequentialSweep;
///
/// let original = SequentialSweep::default();
/// let recorded = RecordedTrace::new("sweep-replay", collect_trace(&original));
/// assert_eq!(collect_trace(&recorded), collect_trace(&original));
/// ```
#[derive(Clone, Debug)]
pub struct RecordedTrace {
    name: String,
    trace: Vec<Access>,
}

impl RecordedTrace {
    /// Wraps a trace under the given name.
    pub fn new(name: impl Into<String>, trace: Vec<Access>) -> Self {
        RecordedTrace {
            name: name.into(),
            trace,
        }
    }

    /// Number of references in the trace.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

impl Workload for RecordedTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn suite(&self) -> Suite {
        Suite::Synthetic
    }

    fn description(&self) -> &str {
        "replay of a recorded reference trace"
    }

    fn data_set_bytes(&self) -> u64 {
        let (lo, hi) = self.trace.iter().fold((u64::MAX, 0u64), |(lo, hi), a| {
            (lo.min(a.addr.raw()), hi.max(a.addr.raw()))
        });
        hi.saturating_sub(lo)
    }

    /// A stored trace is already contiguous, so chunks are emitted as
    /// zero-copy slices; `batch` only supplies the chunk size.
    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        let cap = match batch.capacity() {
            0 => DEFAULT_CHUNK,
            c => c,
        };
        for chunk in self.trace.chunks(cap) {
            emit(chunk);
        }
    }

    /// The derived `Debug` output would embed the entire trace, so the
    /// fingerprint hashes it instead (FNV-1a over every reference).
    fn fingerprint(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for a in &self.trace {
            mix(a.addr.raw());
            mix(a.kind as u64);
        }
        format!(
            "RecordedTrace({}, len={}, fnv={h:#018x})",
            self.name,
            self.trace.len()
        )
    }
}

/// Time-slices several workloads in fixed reference quanta — a
/// multiprogrammed processor.
///
/// The traces are emitted round-robin, `quantum` references at a time,
/// until all are drained. The first workload streams from its own
/// generator; the others are materialised once, since their quanta are
/// needed between the first one's. Each workload keeps its own address
/// space (the kernels allocate from the same base, so their footprints
/// overlap like separate virtual address spaces sharing a
/// physically-indexed cache — the worst case for pollution).
#[derive(Debug)]
pub struct Interleaved {
    name: String,
    parts: Vec<Box<dyn Workload>>,
    quantum: usize,
}

impl Interleaved {
    /// Interleaves `parts` with the given reference quantum.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero or `parts` is empty.
    pub fn new(name: impl Into<String>, parts: Vec<Box<dyn Workload>>, quantum: usize) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        assert!(!parts.is_empty(), "need at least one workload");
        Interleaved {
            name: name.into(),
            parts,
            quantum,
        }
    }

    /// The reference quantum.
    pub fn quantum(&self) -> usize {
        self.quantum
    }
}

impl Workload for Interleaved {
    fn name(&self) -> &str {
        &self.name
    }

    fn suite(&self) -> Suite {
        Suite::Synthetic
    }

    fn description(&self) -> &str {
        "workloads time-sliced in fixed reference quanta (multiprogramming)"
    }

    fn data_set_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.data_set_bytes()).sum()
    }

    /// Part 0's chunks are cut at its quantum boundaries, and after each
    /// of its quanta the other parts emit one quantum each, as
    /// contiguous slices of their materialised traces. Once part 0 is
    /// drained (its last quantum possibly short) the other parts go on
    /// in rounds until they drain too.
    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        let quantum = self.quantum;
        let rest: Vec<Vec<Access>> = self.parts[1..]
            .iter()
            .map(|p| crate::collect_trace(p.as_ref()))
            .collect();
        let mut cursors = vec![0usize; rest.len()];
        // One round of the other parts; `false` once all are drained.
        let mut round = |emit: &mut dyn FnMut(&[Access])| {
            let mut emitted = false;
            for (trace, cursor) in rest.iter().zip(cursors.iter_mut()) {
                let end = (*cursor + quantum).min(trace.len());
                if end > *cursor {
                    emit(&trace[*cursor..end]);
                    emitted = true;
                }
                *cursor = end;
            }
            emitted
        };
        // References part 0 has emitted in its current quantum.
        let mut filled = 0;
        self.parts[0].generate_chunks(batch, &mut |mut chunk: &[Access]| {
            while !chunk.is_empty() {
                let take = (quantum - filled).min(chunk.len());
                emit(&chunk[..take]);
                chunk = &chunk[take..];
                filled += take;
                if filled == quantum {
                    round(&mut *emit);
                    filled = 0;
                }
            }
        });
        while round(&mut *emit) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_trace;
    use crate::generators::{RandomGather, SequentialSweep};

    fn sweep(bytes: u64) -> SequentialSweep {
        SequentialSweep {
            arrays: 1,
            bytes_per_array: bytes,
            passes: 1,
            elem: 8,
        }
    }

    #[test]
    fn recorded_trace_round_trips() {
        let w = sweep(4096);
        let recorded = RecordedTrace::new("replay", collect_trace(&w));
        assert_eq!(collect_trace(&recorded), collect_trace(&w));
        assert!(!recorded.is_empty());
        assert!(recorded.data_set_bytes() > 0);
    }

    #[test]
    fn interleave_preserves_every_reference() {
        let a = sweep(2048);
        let b = sweep(4096);
        let (la, lb) = (collect_trace(&a).len(), collect_trace(&b).len());
        let mix = Interleaved::new("mix", vec![Box::new(a), Box::new(b)], 7);
        assert_eq!(collect_trace(&mix).len(), la + lb);
    }

    #[test]
    fn interleave_respects_the_quantum() {
        let a = sweep(2048);
        let b = RandomGather {
            footprint: 1 << 20,
            count: 500,
            seed: 2,
        };
        let quantum = 50;
        let mix = Interleaved::new("mix", vec![Box::new(a.clone()), Box::new(b)], quantum);
        let combined = collect_trace(&mix);
        let first_of_a = collect_trace(&a);
        // The first quantum must be exactly the start of workload A.
        assert_eq!(&combined[..quantum], &first_of_a[..quantum]);
        assert_ne!(
            &combined[quantum..2 * quantum],
            &first_of_a[quantum..2 * quantum]
        );
    }

    #[test]
    fn uneven_lengths_drain_completely() {
        let short = sweep(512);
        let long = sweep(8192);
        let (ls, ll) = (collect_trace(&short).len(), collect_trace(&long).len());
        let mix = Interleaved::new("mix", vec![Box::new(short), Box::new(long)], 10);
        assert_eq!(collect_trace(&mix).len(), ls + ll);
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_panics() {
        let _ = Interleaved::new("bad", vec![Box::new(sweep(64))], 0);
    }
}
