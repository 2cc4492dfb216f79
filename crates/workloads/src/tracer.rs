//! Chunked trace emission with modelled instruction fetches.
//!
//! Kernels drive a [`Tracer`], which batches data references into a
//! caller-provided chunk and interleaves instruction fetches from a
//! modelled loop body. The paper's stream buffers are *unified*
//! (instructions and data share streams) but its 64 KB I-cache absorbs
//! nearly all instruction fetches; emitting periodic fetches from a small
//! cyclic code region reproduces both facts: ifetches are present in the
//! trace, and almost none of them miss.
//!
//! Handing references over one at a time through a `&mut dyn
//! FnMut(Access)` would cost an indirect call per reference, the
//! dominant overhead of the recording hot loop once the L1 probe itself
//! is cheap. The tracer amortises it: full batches go to a `&mut dyn
//! FnMut(&[Access])`, one indirect call per [`DEFAULT_CHUNK`] references.

use streamsim_trace::{Access, Addr};

/// Default batch capacity used when the caller passes an unallocated
/// `Vec`: 1024 references (16 KB) — large enough that the per-chunk
/// indirect call vanishes, small enough that the batch stays resident in
/// the L1 data cache between the generator writing it and the consumer
/// reading it back (a 4096-entry batch measurably loses that residency).
pub const DEFAULT_CHUNK: usize = 1024;

/// Base of the modelled code segment, well below the data segment.
const CODE_BASE: u64 = 0x0040_0000;
/// Modelled instruction-fetch granularity (one fetch per access emitted).
const FETCH_BYTES: u64 = 32;
/// Data references per modelled instruction fetch.
const IFETCH_INTERVAL: u32 = 3;

/// Emits a kernel's references in chunks, interleaving instruction
/// fetches.
///
/// One instruction fetch is emitted every three data references, walking
/// cyclically through a loop body of `code_bytes` bytes. References are
/// batched into a borrowed `Vec` whose capacity is the chunk size (an
/// unallocated `Vec` is grown to [`DEFAULT_CHUNK`]); each full batch is
/// handed to the chunk consumer, and dropping the tracer hands over the
/// last, possibly short, batch.
///
/// # Example
///
/// ```
/// use streamsim_trace::{Access, AccessKind, Addr};
/// use streamsim_workloads::Tracer;
///
/// let mut batch = Vec::with_capacity(4);
/// let mut chunks: Vec<Vec<Access>> = Vec::new();
/// {
///     let mut emit = |chunk: &[Access]| chunks.push(chunk.to_vec());
///     let mut t = Tracer::new(&mut batch, &mut emit, 4096);
///     for i in 0..7u64 {
///         t.load(Addr::new(0x1000_0000 + i * 8));
///     }
/// } // dropping the tracer hands over the one-reference tail
/// let refs = chunks.concat();
/// let ifetches = refs.iter().filter(|a| a.kind == AccessKind::IFetch).count();
/// assert_eq!((ifetches, refs.len()), (2, 9));
/// assert_eq!(chunks.iter().map(Vec::len).collect::<Vec<_>>(), [4, 4, 1]);
/// ```
pub struct Tracer<'a> {
    batch: &'a mut Vec<Access>,
    emit: &'a mut dyn FnMut(&[Access]),
    capacity: usize,
    code_bytes: u64,
    code_pos: u64,
    countdown: u32,
}

impl std::fmt::Debug for Tracer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity)
            .field("buffered", &self.batch.len())
            .finish_non_exhaustive()
    }
}

impl<'a> Tracer<'a> {
    /// Creates a tracer that fills `batch` (cleared; grown to
    /// [`DEFAULT_CHUNK`] if unallocated) and hands each full batch to
    /// `emit`, with a loop body of `code_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `code_bytes` is not a positive multiple of the 32-byte
    /// fetch granularity.
    pub fn new(
        batch: &'a mut Vec<Access>,
        emit: &'a mut dyn FnMut(&[Access]),
        code_bytes: u64,
    ) -> Self {
        assert!(
            code_bytes > 0 && code_bytes.is_multiple_of(FETCH_BYTES),
            "code region must be a positive multiple of {FETCH_BYTES} bytes"
        );
        batch.clear();
        if batch.capacity() == 0 {
            batch.reserve(DEFAULT_CHUNK);
        }
        let capacity = batch.capacity();
        Tracer {
            batch,
            emit,
            capacity,
            code_bytes,
            code_pos: 0,
            countdown: IFETCH_INTERVAL,
        }
    }

    /// Emits a data load.
    #[inline]
    pub fn load(&mut self, addr: Addr) {
        self.data(Access::load(addr));
    }

    /// Emits a data store.
    #[inline]
    pub fn store(&mut self, addr: Addr) {
        self.data(Access::store(addr));
    }

    #[inline]
    fn data(&mut self, access: Access) {
        self.push(access);
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = IFETCH_INTERVAL;
            let addr = Addr::new(CODE_BASE + self.code_pos);
            self.code_pos = (self.code_pos + FETCH_BYTES) % self.code_bytes;
            self.push(Access::ifetch(addr));
        }
    }

    #[inline(always)]
    fn push(&mut self, access: Access) {
        self.batch.push(access);
        if self.batch.len() == self.capacity {
            (self.emit)(self.batch);
            self.batch.clear();
        }
    }

    /// Models a branch to a different part of the loop body (e.g. entering
    /// an inner solver): subsequent fetches continue from `offset` bytes
    /// into the code region.
    pub fn branch_to(&mut self, offset: u64) {
        self.code_pos = (offset / FETCH_BYTES * FETCH_BYTES) % self.code_bytes;
    }
}

impl Drop for Tracer<'_> {
    /// Hands over the last, possibly short, batch.
    fn drop(&mut self) {
        if !self.batch.is_empty() {
            (self.emit)(self.batch);
            self.batch.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamsim_trace::AccessKind;

    /// The chunks a tracer over a 1 KB loop body emits for `body`,
    /// through a batch of `capacity` references.
    fn chunks(capacity: usize, body: impl FnOnce(&mut Tracer<'_>)) -> Vec<Vec<Access>> {
        let mut batch = Vec::with_capacity(capacity);
        let mut chunks = Vec::new();
        let mut emit = |c: &[Access]| chunks.push(c.to_vec());
        body(&mut Tracer::new(&mut batch, &mut emit, 1024));
        chunks
    }

    /// Loads the data words numbered `words`.
    fn loads(t: &mut Tracer<'_>, words: std::ops::Range<u64>) {
        for i in words {
            t.load(Addr::new(0x2000_0000 + i * 8));
        }
    }

    fn ifetch_addrs(refs: &[Access]) -> Vec<u64> {
        refs.iter()
            .filter(|a| a.kind == AccessKind::IFetch)
            .map(|a| a.addr.raw() - CODE_BASE)
            .collect()
    }

    #[test]
    fn ifetch_rate_matches_interval() {
        let refs = chunks(0, |t| loads(t, 0..30)).concat();
        assert_eq!(ifetch_addrs(&refs).len(), 10);
        assert_eq!(refs.len(), 40);
        assert_eq!(refs[3].kind, AccessKind::IFetch);
    }

    #[test]
    fn ifetches_cycle_through_the_code_region() {
        // 64 ifetches over a 1 KB = 32-slot region.
        let addrs = ifetch_addrs(&chunks(0, |t| loads(t, 0..3 * 64)).concat());
        assert_eq!(addrs.len(), 64);
        assert_eq!(addrs[0], addrs[32], "wraps after 32 fetches");
        assert_eq!(addrs[1] - addrs[0], 32);
    }

    #[test]
    fn code_and_data_segments_are_disjoint() {
        for a in chunks(0, |t| loads(t, 0..20)).concat() {
            match a.kind {
                AccessKind::IFetch => assert!(a.addr.raw() < 0x1000_0000),
                _ => assert!(a.addr.raw() >= 0x1000_0000),
            }
        }
    }

    #[test]
    fn branch_to_retargets_fetches() {
        let refs = chunks(0, |t| {
            loads(t, 0..3);
            t.branch_to(512);
            loads(t, 3..6);
        })
        .concat();
        assert_eq!(ifetch_addrs(&refs), [0, 512]);
    }

    #[test]
    fn stores_are_forwarded() {
        let refs = chunks(0, |t| t.store(Addr::new(0x3000_0000))).concat();
        assert_eq!(refs[0].kind, AccessKind::Store);
    }

    #[test]
    fn full_batches_go_out_at_capacity_and_drop_delivers_the_tail() {
        // 9 loads and 3 ifetches through a 5-reference batch.
        let chunks = chunks(5, |t| loads(t, 0..9));
        let lens: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(lens, [5, 5, 2]);
        let flat = chunks.concat();
        assert_eq!(flat[10].addr.raw(), 0x2000_0000 + 8 * 8);
        assert_eq!(flat[11].kind, AccessKind::IFetch);
    }

    #[test]
    fn unallocated_batch_grows_to_the_default_chunk() {
        let chunks = chunks(0, |t| loads(t, 0..3 * DEFAULT_CHUNK as u64));
        assert!(chunks[0].len() >= DEFAULT_CHUNK, "{}", chunks[0].len());
        assert_eq!(chunks.concat().len(), 4 * DEFAULT_CHUNK);
    }

    #[test]
    fn an_empty_body_emits_no_chunk() {
        assert!(chunks(8, |_| {}).is_empty());
    }

    #[test]
    #[should_panic(expected = "code region")]
    fn bad_code_region_panics() {
        let mut batch = Vec::new();
        let mut emit = |_c: &[Access]| {};
        let _ = Tracer::new(&mut batch, &mut emit, 33);
    }
}
