//! Time sampling of reference traces.
//!
//! The paper reduced trace sizes by *time sampling* (Kessler, Hill & Wood
//! [11]): tracing is switched on for 10 000 references, then off for
//! 90 000, so 10 % of the full trace is observed. [`ChunkSampler`]
//! implements the same scheme over the chunks workloads emit.

use crate::Access;

/// On/off time-sampling over *chunks* of references: keeps `on`
/// references, then skips `off`, repeating — reference `i` of the stream
/// survives exactly when `i % (on + off) < on`. The paper's configuration
/// is `ChunkSampler::new(10_000, 90_000)`; `off == 0` keeps everything.
///
/// Workloads hand whole slices to their consumer, so per-reference
/// windowing would add a branch per reference. `ChunkSampler` instead
/// splits each incoming chunk into kept and skipped sub-slices by range
/// arithmetic, and the window position persists across chunks.
///
/// # Example
///
/// ```
/// use streamsim_trace::{Access, Addr, ChunkSampler};
///
/// let refs: Vec<Access> = (0..10u64).map(|i| Access::load(Addr::new(i))).collect();
/// let mut kept = Vec::new();
/// let mut s = ChunkSampler::new(2, 3);
/// s.sample(&refs, &mut |keep| kept.extend(keep.iter().map(|a| a.addr.raw())));
/// assert_eq!(kept, [0, 1, 5, 6]);
/// ```
#[derive(Clone, Debug)]
pub struct ChunkSampler {
    on: u64,
    period: u64,
    /// Position within the current on+off period (0 ≤ phase < period).
    phase: u64,
}

impl ChunkSampler {
    /// Creates a sampler that keeps `on` references then skips `off`,
    /// repeating.
    ///
    /// # Panics
    ///
    /// Panics if `on == 0` (the sampler would keep nothing forever).
    pub fn new(on: u64, off: u64) -> Self {
        assert!(on > 0, "sampling window must keep at least one reference");
        ChunkSampler {
            on,
            period: on + off,
            phase: 0,
        }
    }

    /// Feeds one chunk through the sampling window, handing every kept
    /// sub-slice to `keep` in order. The window position persists across
    /// chunks, so chunk boundaries never affect which references survive.
    pub fn sample(&mut self, chunk: &[Access], keep: &mut dyn FnMut(&[Access])) {
        let mut pos = 0usize;
        let len = chunk.len();
        while pos < len {
            let remaining = (len - pos) as u64;
            if self.phase < self.on {
                let take = (self.on - self.phase).min(remaining) as usize;
                keep(&chunk[pos..pos + take]);
                pos += take;
                self.phase += take as u64;
            } else {
                let skip = (self.period - self.phase).min(remaining) as usize;
                pos += skip;
                self.phase += skip as u64;
            }
            if self.phase == self.period {
                self.phase = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Addr;

    fn seq(n: u64) -> Vec<Access> {
        (0..n).map(|i| Access::load(Addr::new(i))).collect()
    }

    /// Samples `refs` fed in `chunk_size` slices, returning the kept
    /// addresses.
    fn sampled(refs: &[Access], on: u64, off: u64, chunk_size: usize) -> Vec<u64> {
        let mut kept = Vec::new();
        let mut s = ChunkSampler::new(on, off);
        for chunk in refs.chunks(chunk_size) {
            s.sample(chunk, &mut |keep| {
                kept.extend(keep.iter().map(|a| a.addr.raw()))
            });
        }
        kept
    }

    /// The closed-form window: reference `i` survives iff
    /// `i % (on + off) < on`.
    fn oracle(n: u64, on: u64, off: u64) -> Vec<u64> {
        (0..n).filter(|i| i % (on + off) < on).collect()
    }

    #[test]
    fn keeps_on_window_and_skips_off() {
        assert_eq!(
            sampled(&seq(20), 3, 2, 20),
            [0, 1, 2, 5, 6, 7, 10, 11, 12, 15, 16, 17]
        );
    }

    #[test]
    fn off_zero_passes_everything() {
        assert_eq!(sampled(&seq(7), 4, 0, 3).len(), 7);
    }

    #[test]
    fn stops_when_input_ends_mid_skip() {
        // 5 kept of the first window; the input ends during the skip.
        assert_eq!(sampled(&seq(8), 5, 10, 8), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn matches_the_closed_form_window_across_chunk_boundaries() {
        let refs = seq(500);
        for (on, off) in [(1u64, 1u64), (3, 2), (10, 90), (4, 0), (7, 13)] {
            let expected = oracle(500, on, off);
            for chunk_size in [1usize, 3, 7, 64, 500, 1000] {
                assert_eq!(
                    sampled(&refs, on, off, chunk_size),
                    expected,
                    "on={on} off={off} chunk={chunk_size}"
                );
            }
        }
    }

    #[test]
    fn ignores_empty_chunks() {
        let mut s = ChunkSampler::new(2, 2);
        let mut calls = 0;
        s.sample(&[], &mut |_| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    #[should_panic(expected = "at least one reference")]
    fn zero_on_window_panics() {
        let _ = ChunkSampler::new(0, 5);
    }
}
