//! Chunked reference emission.
//!
//! Pushing one `Access` at a time through a `&mut dyn FnMut(Access)`
//! costs an indirect call per reference — the dominant overhead of the
//! recording hot loop once the L1 probe itself is cheap. The chunked
//! path amortises it: kernels fill a caller-provided `Vec<Access>` batch
//! and hand it over a `&mut dyn FnMut(&[Access])`, one indirect call per
//! [`DEFAULT_CHUNK`] references instead of per reference.
//!
//! Two pieces make every workload chunk-capable without duplicating any
//! emission logic:
//!
//! * [`RefSink`] — the destination trait the [`Tracer`](crate::Tracer)
//!   is generic over. Closures get it via a blanket impl (the classic
//!   push path); [`ChunkSink`] gets it by batching.
//! * [`ChunkSink`] — batches pushed references and flushes full batches
//!   to a chunk consumer. A kernel whose body is written once against
//!   `RefSink` serves both [`Workload::generate`](crate::Workload::generate)
//!   and [`Workload::generate_chunks`](crate::Workload::generate_chunks)
//!   from the same code, so the two paths are byte-identical by
//!   construction (pinned by the `chunk_equivalence` property tests).

use streamsim_trace::Access;

/// Default batch capacity used when the caller passes an unallocated
/// `Vec`: 1024 references (16 KB) — large enough that the per-chunk
/// indirect call vanishes, small enough that the batch stays resident in
/// the L1 data cache between the generator writing it and the consumer
/// reading it back (a 4096-entry batch measurably loses that residency).
pub const DEFAULT_CHUNK: usize = 1024;

/// A destination for generated references.
///
/// The blanket impl covers every closure (including `dyn FnMut(Access)`
/// behind a reference), so existing push-style code keeps working;
/// [`ChunkSink`] is the batching implementation behind
/// [`Workload::generate_chunks`](crate::Workload::generate_chunks).
pub trait RefSink {
    /// Accepts one reference.
    fn emit(&mut self, access: Access);
}

impl<F: FnMut(Access) + ?Sized> RefSink for F {
    #[inline(always)]
    fn emit(&mut self, access: Access) {
        self(access)
    }
}

/// A [`RefSink`] that batches references into a borrowed `Vec` and hands
/// full batches to a chunk consumer.
///
/// The batch `Vec` is caller-provided so one allocation serves a whole
/// run of workloads. Its capacity *is* the chunk size; an unallocated
/// `Vec` is grown to [`DEFAULT_CHUNK`]. Call [`ChunkSink::flush`] after
/// the generator finishes to deliver the final partial batch (dropping
/// the sink flushes too, as a safety net).
///
/// # Example
///
/// ```
/// use streamsim_trace::{Access, Addr};
/// use streamsim_workloads::{ChunkSink, RefSink};
///
/// let mut batch = Vec::with_capacity(2);
/// let mut seen = Vec::new();
/// {
///     let mut emit = |chunk: &[Access]| seen.push(chunk.len());
///     let mut sink = ChunkSink::new(&mut batch, &mut emit);
///     for i in 0..5u64 {
///         sink.emit(Access::load(Addr::new(i)));
///     }
///     sink.flush();
/// }
/// assert_eq!(seen, [2, 2, 1]);
/// ```
pub struct ChunkSink<'a> {
    batch: &'a mut Vec<Access>,
    emit: &'a mut dyn FnMut(&[Access]),
    capacity: usize,
}

impl std::fmt::Debug for ChunkSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkSink")
            .field("capacity", &self.capacity)
            .field("buffered", &self.batch.len())
            .finish_non_exhaustive()
    }
}

impl<'a> ChunkSink<'a> {
    /// Wraps `batch` (cleared; grown to [`DEFAULT_CHUNK`] if
    /// unallocated) as a batching sink in front of `emit`.
    pub fn new(batch: &'a mut Vec<Access>, emit: &'a mut dyn FnMut(&[Access])) -> Self {
        batch.clear();
        if batch.capacity() == 0 {
            batch.reserve(DEFAULT_CHUNK);
        }
        let capacity = batch.capacity();
        ChunkSink {
            batch,
            emit,
            capacity,
        }
    }

    /// Delivers any buffered references as a final (possibly short)
    /// chunk.
    pub fn flush(&mut self) {
        if !self.batch.is_empty() {
            (self.emit)(self.batch);
            self.batch.clear();
        }
    }
}

impl RefSink for ChunkSink<'_> {
    #[inline(always)]
    fn emit(&mut self, access: Access) {
        self.batch.push(access);
        if self.batch.len() == self.capacity {
            (self.emit)(self.batch);
            self.batch.clear();
        }
    }
}

impl Drop for ChunkSink<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim_trace::Addr;

    fn push_n(sink: &mut ChunkSink<'_>, n: u64) {
        for i in 0..n {
            sink.emit(Access::load(Addr::new(i * 8)));
        }
    }

    #[test]
    fn batches_at_capacity_and_flushes_remainder() {
        let mut batch = Vec::with_capacity(4);
        let mut chunks: Vec<Vec<Access>> = Vec::new();
        {
            let mut emit = |c: &[Access]| chunks.push(c.to_vec());
            let mut sink = ChunkSink::new(&mut batch, &mut emit);
            push_n(&mut sink, 10);
            sink.flush();
        }
        let lens: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(lens, [4, 4, 2]);
        let flat: Vec<Access> = chunks.concat();
        assert_eq!(flat.len(), 10);
        assert_eq!(flat[9].addr.raw(), 72);
    }

    #[test]
    fn unallocated_batch_gets_default_capacity() {
        let mut batch = Vec::new();
        let mut total = 0usize;
        {
            let mut emit = |c: &[Access]| total += c.len();
            let mut sink = ChunkSink::new(&mut batch, &mut emit);
            push_n(&mut sink, 100);
            sink.flush();
        }
        assert_eq!(total, 100);
        assert!(batch.capacity() >= DEFAULT_CHUNK);
    }

    #[test]
    fn drop_flushes_the_tail() {
        let mut batch = Vec::with_capacity(8);
        let mut total = 0usize;
        {
            let mut emit = |c: &[Access]| total += c.len();
            let mut sink = ChunkSink::new(&mut batch, &mut emit);
            push_n(&mut sink, 5);
            // No explicit flush: Drop must deliver the 5 buffered refs.
        }
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_generator_emits_no_chunks() {
        let mut batch = Vec::with_capacity(8);
        let mut calls = 0usize;
        {
            let mut emit = |_c: &[Access]| calls += 1;
            let mut sink = ChunkSink::new(&mut batch, &mut emit);
            sink.flush();
        }
        assert_eq!(calls, 0);
    }

    #[test]
    fn closures_are_ref_sinks() {
        let mut seen = Vec::new();
        let mut sink = |a: Access| seen.push(a);
        RefSink::emit(&mut sink, Access::load(Addr::new(4)));
        let dyn_sink: &mut dyn FnMut(Access) = &mut sink;
        RefSink::emit(dyn_sink, Access::load(Addr::new(8)));
        assert_eq!(seen.len(), 2);
    }
}
