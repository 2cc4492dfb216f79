//! Every workload emits its trace in chunks, and the stream is the
//! concatenation of those chunks whatever the batch capacity.
//!
//! These tests pin that contract for all fifteen paper kernels, every
//! synthetic generator and both combinators, across awkward batch
//! capacities so chunk-boundary bookkeeping cannot hide an off-by-one:
//! no chunk is empty, a reused batch leaks nothing into the next
//! stream, and the per-reference `Workload::generate` adapter pushes
//! exactly the concatenated chunks.

use streamsim_prng::quickcheck::{check, Gen};
use streamsim_prng::Rng;
use streamsim_trace::{Access, Addr};
use streamsim_workloads::combinators::{Interleaved, RecordedTrace};
use streamsim_workloads::generators::{
    InterleavedStreams, RandomGather, SequentialSweep, StridedSweep,
};
use streamsim_workloads::{collect_trace, Suite, Workload, DEFAULT_CHUNK};

mod common;
use common::small_kernels;

fn synthetic_workloads() -> Vec<Box<dyn Workload>> {
    let sweep = SequentialSweep {
        arrays: 2,
        bytes_per_array: 2_048,
        passes: 2,
        elem: 8,
    };
    let strided = StridedSweep {
        stride_bytes: 128,
        count: 500,
        repeats: 3,
    };
    vec![
        Box::new(sweep.clone()),
        Box::new(InterleavedStreams {
            num_streams: 3,
            elements: 300,
            elem: 8,
        }),
        Box::new(strided.clone()),
        Box::new(RandomGather {
            footprint: 64 * 1024,
            count: 1_000,
            seed: 9,
        }),
        Box::new(RecordedTrace::new(
            "recorded",
            collect_trace(&StridedSweep {
                stride_bytes: 64,
                count: 700,
                repeats: 1,
            }),
        )),
        Box::new(Interleaved::new(
            "interleaved",
            vec![Box::new(sweep), Box::new(strided)],
            17,
        )),
    ]
}

fn all_workloads() -> impl Iterator<Item = Box<dyn Workload>> {
    small_kernels().into_iter().chain(synthetic_workloads())
}

/// Collects a workload's trace with a batch of the given capacity (0 =
/// let the workload pick the default), checking that no emitted chunk is
/// empty along the way.
fn collect_chunked(w: &dyn Workload, capacity: usize) -> Vec<Access> {
    let mut batch = Vec::with_capacity(capacity);
    let mut out = Vec::new();
    w.generate_chunks(&mut batch, &mut |chunk: &[Access]| {
        assert!(!chunk.is_empty(), "{}: empty chunk emitted", w.name());
        out.extend_from_slice(chunk);
    });
    out
}

#[test]
fn stream_does_not_depend_on_batch_capacity() {
    for w in all_workloads() {
        let stream = collect_trace(w.as_ref());
        for capacity in [1usize, 7, 4096] {
            assert_eq!(
                stream,
                collect_chunked(w.as_ref(), capacity),
                "{} diverges at batch capacity {capacity}",
                w.name()
            );
        }
    }
}

#[test]
fn generate_equals_the_concatenated_chunks() {
    for w in all_workloads() {
        let mut pushed = Vec::new();
        w.generate(&mut |a| pushed.push(a));
        assert_eq!(pushed, collect_chunked(w.as_ref(), 0), "{}", w.name());
    }
}

/// A reused batch vector (dirty contents, pre-grown capacity) must not
/// leak stale references into the next workload's stream.
#[test]
fn batch_reuse_across_workloads_is_clean() {
    let mut batch = Vec::with_capacity(33);
    let mut streams: Vec<Vec<Access>> = Vec::new();
    for w in synthetic_workloads() {
        let mut out = Vec::new();
        w.generate_chunks(&mut batch, &mut |chunk: &[Access]| {
            out.extend_from_slice(chunk);
        });
        streams.push(out);
    }
    for (w, stream) in synthetic_workloads().iter().zip(&streams) {
        assert_eq!(
            collect_trace(w.as_ref()),
            *stream,
            "{} stream corrupted by batch reuse",
            w.name()
        );
    }
}

/// The reference round-robin: every part materialised, then `quantum`
/// references from each part in turn until all are drained.
fn materialised_round_robin(traces: &[Vec<Access>], quantum: usize) -> Vec<Access> {
    let mut cursors = vec![0usize; traces.len()];
    let mut out = Vec::new();
    loop {
        let mut emitted = false;
        for (trace, cursor) in traces.iter().zip(cursors.iter_mut()) {
            let end = (*cursor + quantum).min(trace.len());
            out.extend_from_slice(&trace[*cursor..end]);
            emitted |= end > *cursor;
            *cursor = end;
        }
        if !emitted {
            return out;
        }
    }
}

/// A stored trace emitted through a batch it fills reference by
/// reference, so its chunks are refills of `batch` rather than slices of
/// the trace.
#[derive(Debug)]
struct BatchFilling(Vec<Access>);

impl Workload for BatchFilling {
    fn name(&self) -> &str {
        "batch-filling"
    }

    fn suite(&self) -> Suite {
        Suite::Synthetic
    }

    fn description(&self) -> &str {
        "a stored trace emitted through refills of the caller's batch"
    }

    fn data_set_bytes(&self) -> u64 {
        0
    }

    fn generate_chunks(&self, batch: &mut Vec<Access>, emit: &mut dyn FnMut(&[Access])) {
        batch.clear();
        if batch.capacity() == 0 {
            batch.reserve(DEFAULT_CHUNK);
        }
        let capacity = batch.capacity();
        for &a in &self.0 {
            batch.push(a);
            if batch.len() == capacity {
                emit(batch);
                batch.clear();
            }
        }
        if !batch.is_empty() {
            emit(batch);
        }
    }
}

/// Part lengths for one case: 1-3 parts of random length, or a shape
/// that puts a boundary where the streamed first part meets the rest.
fn part_lengths(g: &mut Gen, quantum: usize) -> Vec<usize> {
    let parts = g.gen_range(1usize..=3);
    let random = |g: &mut Gen| g.gen_range(0usize..=300);
    match g.gen_range(0..5) {
        // Random lengths.
        0 => (0..parts).map(|_| random(g)).collect(),
        // An empty first part.
        1 => std::iter::once(0)
            .chain((1..parts).map(|_| random(g)))
            .collect(),
        // The first part ends rounds before the others.
        2 => {
            let first = g.gen_range(1usize..=100);
            std::iter::once(first)
                .chain((1..parts).map(|_| first + quantum + random(g)))
                .collect()
        }
        // The first part ends rounds after the others.
        3 => {
            let rest: Vec<usize> = (1..parts).map(|_| random(g)).collect();
            let longest = rest.iter().copied().max().unwrap_or(0);
            std::iter::once(longest + quantum + random(g))
                .chain(rest)
                .collect()
        }
        // Exact multiples of the quantum.
        _ => (0..parts)
            .map(|_| quantum * g.gen_range(0usize..=5))
            .collect(),
    }
}

/// `Interleaved` streams its first part and materialises the rest; its
/// stream must equal the materialising round-robin for any quantum,
/// part lengths, part chunking and batch capacity.
#[test]
fn interleaved_matches_the_materialised_round_robin() {
    check("interleaved_matches_the_materialised_round_robin", |g| {
        let quantum = g.gen_range(1usize..=64);
        let traces: Vec<Vec<Access>> = part_lengths(g, quantum)
            .into_iter()
            .enumerate()
            .map(|(part, len)| {
                (0..len as u64)
                    .map(|i| Access::load(Addr::new((part as u64) << 32 | i)))
                    .collect()
            })
            .collect();
        let parts: Vec<Box<dyn Workload>> = traces
            .iter()
            .map(|t| -> Box<dyn Workload> {
                if g.gen_bool(0.5) {
                    Box::new(RecordedTrace::new("part", t.clone()))
                } else {
                    Box::new(BatchFilling(t.clone()))
                }
            })
            .collect();
        let mix = Interleaved::new("mix", parts, quantum);
        let expected = materialised_round_robin(&traces, quantum);
        for capacity in [0usize, 1, 7, 4096] {
            assert_eq!(
                collect_chunked(&mix, capacity),
                expected,
                "batch capacity {capacity}, quantum {quantum}"
            );
        }
    });
}
