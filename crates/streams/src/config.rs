//! Stream-buffer system configuration.

use std::fmt;

/// How a primary-cache miss is compared against a stream buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MatchPolicy {
    /// Compare only against the entry at the head of each FIFO — the
    /// paper's hardware ("subsequent primary cache misses compare their
    /// address against the head of the stream buffer").
    #[default]
    HeadOnly,
    /// Compare against every entry; on a match at position *k* the *k*
    /// entries ahead of it are discarded. A more expensive associative
    /// lookup, evaluated as an ablation.
    AnyEntry,
}

impl fmt::Display for MatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchPolicy::HeadOnly => f.write_str("head-only"),
            MatchPolicy::AnyEntry => f.write_str("any-entry"),
        }
    }
}

/// When a miss that also missed the streams is allowed to (re)allocate a
/// stream buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Allocation {
    /// Allocate on every stream miss (Jouppi's original policy, §5).
    OnMiss,
    /// Allocate only when the miss address hits the unit-stride filter —
    /// i.e. after misses to two consecutive cache blocks (§6).
    UnitFilter {
        /// History-buffer entries (the paper finds 8–10 sufficient and
        /// uses 16 in its experiments).
        entries: usize,
    },
    /// The unit-stride filter backed by the czone non-unit-stride filter:
    /// references that miss the unit filter are passed to the partition
    /// scheme of §7, which allocates a strided stream after three
    /// constant-stride misses within one czone partition.
    UnitAndStrideFilters {
        /// Unit-stride filter entries.
        unit_entries: usize,
        /// Non-unit-stride (czone) filter entries.
        stride_entries: usize,
        /// Size of the concentration zone in bits of the *word* address.
        /// The optimal value is "a little more than twice the stride" —
        /// Figure 9 sweeps this parameter.
        czone_bits: u32,
    },
    /// The "minimum delta" alternative (§7): keep the last N miss
    /// addresses and use the minimum distance to any of them as the
    /// stride. Allocates on every stream miss once history exists.
    MinDelta {
        /// History entries.
        entries: usize,
        /// Ignore candidate strides larger than this many words.
        max_stride_words: i64,
    },
}

impl fmt::Display for Allocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Allocation::OnMiss => f.write_str("allocate-on-miss"),
            Allocation::UnitFilter { entries } => write!(f, "unit filter ({entries} entries)"),
            Allocation::UnitAndStrideFilters {
                unit_entries,
                stride_entries,
                czone_bits,
            } => write!(
                f,
                "unit filter ({unit_entries}) + czone filter ({stride_entries}, czone {czone_bits} bits)"
            ),
            Allocation::MinDelta { entries, .. } => write!(f, "min-delta ({entries} entries)"),
        }
    }
}

/// Error constructing a [`StreamConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamConfigError {
    /// At least one stream buffer is required.
    NoStreams,
    /// Streams must prefetch at least one block ahead.
    ZeroDepth,
    /// A filter must have at least one entry.
    EmptyFilter,
    /// The czone must cover at least one block and leave tag bits.
    BadCzone {
        /// The offending czone size in bits.
        bits: u32,
    },
    /// The min-delta detector's stride bound must be positive.
    NonPositiveMaxStride {
        /// The offending bound in words.
        max_stride_words: i64,
    },
}

impl fmt::Display for StreamConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamConfigError::NoStreams => f.write_str("at least one stream buffer is required"),
            StreamConfigError::ZeroDepth => f.write_str("stream depth must be at least 1"),
            StreamConfigError::EmptyFilter => f.write_str("filters need at least one entry"),
            StreamConfigError::BadCzone { bits } => {
                write!(
                    f,
                    "czone size of {bits} bits is outside the usable 1..=62 range"
                )
            }
            StreamConfigError::NonPositiveMaxStride { max_stride_words } => write!(
                f,
                "min-delta maximum stride of {max_stride_words} words must be positive"
            ),
        }
    }
}

impl std::error::Error for StreamConfigError {}

/// Complete configuration of a [`crate::StreamSystem`].
///
/// The geometry is fixed: every stream system fetches 32-byte blocks
/// ([`BlockSize::default`](streamsim_trace::BlockSize::default)), the
/// block every recorded L1 uses, and detects strides in 4-byte words
/// ([`WordSize::default`](streamsim_trace::WordSize::default)).
///
/// Use the `paper_*` presets for the paper's experimental setups, or
/// [`StreamConfig::new`] plus [`StreamConfig::with_match_policy`] for
/// custom systems.
///
/// # Example
///
/// ```
/// use streamsim_streams::{Allocation, StreamConfig};
///
/// let cfg = StreamConfig::paper_strided(10, 16)?;
/// assert_eq!(cfg.num_streams(), 10);
/// assert_eq!(cfg.depth(), 2);
/// assert!(matches!(cfg.allocation(), Allocation::UnitAndStrideFilters { .. }));
/// # Ok::<(), streamsim_streams::StreamConfigError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    num_streams: usize,
    depth: usize,
    match_policy: MatchPolicy,
    allocation: Allocation,
}

impl StreamConfig {
    /// Filter size used throughout the paper's experiments.
    pub const PAPER_FILTER_ENTRIES: usize = 16;
    /// Stream depth assumed throughout the paper ("a constant stream
    /// buffer depth of two").
    pub const PAPER_DEPTH: usize = 2;

    /// Creates a configuration with `num_streams` buffers of `depth`
    /// entries, head-only matching and the given allocation policy.
    ///
    /// # Errors
    ///
    /// Returns [`StreamConfigError`] for zero streams/depth, empty filters,
    /// an unusable czone size or a non-positive min-delta stride bound.
    pub fn new(
        num_streams: usize,
        depth: usize,
        allocation: Allocation,
    ) -> Result<Self, StreamConfigError> {
        if num_streams == 0 {
            return Err(StreamConfigError::NoStreams);
        }
        if depth == 0 {
            return Err(StreamConfigError::ZeroDepth);
        }
        match allocation {
            Allocation::UnitFilter { entries: 0 } => return Err(StreamConfigError::EmptyFilter),
            Allocation::UnitAndStrideFilters {
                unit_entries,
                stride_entries,
                czone_bits,
            } => {
                if unit_entries == 0 || stride_entries == 0 {
                    return Err(StreamConfigError::EmptyFilter);
                }
                if czone_bits == 0 || czone_bits > 62 {
                    return Err(StreamConfigError::BadCzone { bits: czone_bits });
                }
            }
            Allocation::MinDelta {
                entries,
                max_stride_words,
            } => {
                if entries == 0 {
                    return Err(StreamConfigError::EmptyFilter);
                }
                if max_stride_words <= 0 {
                    return Err(StreamConfigError::NonPositiveMaxStride { max_stride_words });
                }
            }
            _ => {}
        }
        Ok(StreamConfig {
            num_streams,
            depth,
            match_policy: MatchPolicy::HeadOnly,
            allocation,
        })
    }

    /// §5 setup: `n` unified streams of depth 2, allocate on every miss.
    ///
    /// # Errors
    ///
    /// Returns [`StreamConfigError::NoStreams`] when `n == 0`.
    pub fn paper_basic(n: usize) -> Result<Self, StreamConfigError> {
        Self::new(n, Self::PAPER_DEPTH, Allocation::OnMiss)
    }

    /// §6 setup: `n` streams behind a 16-entry unit-stride filter.
    ///
    /// # Errors
    ///
    /// Returns [`StreamConfigError::NoStreams`] when `n == 0`.
    pub fn paper_filtered(n: usize) -> Result<Self, StreamConfigError> {
        Self::new(
            n,
            Self::PAPER_DEPTH,
            Allocation::UnitFilter {
                entries: Self::PAPER_FILTER_ENTRIES,
            },
        )
    }

    /// §7 setup: `n` streams, 16-entry unit filter backed by a 16-entry
    /// czone filter with the given czone size in bits (of the word
    /// address).
    ///
    /// # Errors
    ///
    /// See [`StreamConfig::new`].
    pub fn paper_strided(n: usize, czone_bits: u32) -> Result<Self, StreamConfigError> {
        Self::new(
            n,
            Self::PAPER_DEPTH,
            Allocation::UnitAndStrideFilters {
                unit_entries: Self::PAPER_FILTER_ENTRIES,
                stride_entries: Self::PAPER_FILTER_ENTRIES,
                czone_bits,
            },
        )
    }

    /// Replaces the match policy (default head-only).
    #[must_use]
    pub fn with_match_policy(mut self, policy: MatchPolicy) -> Self {
        self.match_policy = policy;
        self
    }

    /// Number of stream buffers.
    pub fn num_streams(self) -> usize {
        self.num_streams
    }

    /// Entries per stream buffer.
    pub fn depth(self) -> usize {
        self.depth
    }

    /// Match policy.
    pub fn match_policy(self) -> MatchPolicy {
        self.match_policy
    }

    /// Allocation policy.
    pub fn allocation(self) -> Allocation {
        self.allocation
    }
}

impl fmt::Display for StreamConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} streams x depth {}, {}, {}",
            self.num_streams, self.depth, self.match_policy, self.allocation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_parameters() {
        let basic = StreamConfig::paper_basic(8).unwrap();
        assert_eq!(basic.num_streams(), 8);
        assert_eq!(basic.depth(), 2);
        assert_eq!(basic.allocation(), Allocation::OnMiss);
        assert_eq!(basic.match_policy(), MatchPolicy::HeadOnly);

        let filtered = StreamConfig::paper_filtered(10).unwrap();
        assert_eq!(
            filtered.allocation(),
            Allocation::UnitFilter { entries: 16 }
        );

        let strided = StreamConfig::paper_strided(10, 18).unwrap();
        assert_eq!(
            strided.allocation(),
            Allocation::UnitAndStrideFilters {
                unit_entries: 16,
                stride_entries: 16,
                czone_bits: 18
            }
        );
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert_eq!(
            StreamConfig::paper_basic(0),
            Err(StreamConfigError::NoStreams)
        );
        assert_eq!(
            StreamConfig::new(1, 0, Allocation::OnMiss),
            Err(StreamConfigError::ZeroDepth)
        );
        assert_eq!(
            StreamConfig::new(1, 1, Allocation::UnitFilter { entries: 0 }),
            Err(StreamConfigError::EmptyFilter)
        );
        assert_eq!(
            StreamConfig::new(
                1,
                1,
                Allocation::UnitAndStrideFilters {
                    unit_entries: 16,
                    stride_entries: 0,
                    czone_bits: 16
                }
            ),
            Err(StreamConfigError::EmptyFilter)
        );
        assert_eq!(
            StreamConfig::paper_strided(4, 0),
            Err(StreamConfigError::BadCzone { bits: 0 })
        );
        assert_eq!(
            StreamConfig::paper_strided(4, 63),
            Err(StreamConfigError::BadCzone { bits: 63 })
        );
        assert_eq!(
            StreamConfig::new(
                1,
                1,
                Allocation::MinDelta {
                    entries: 0,
                    max_stride_words: 10
                }
            ),
            Err(StreamConfigError::EmptyFilter)
        );
        for max_stride_words in [0, -1, i64::MIN] {
            assert_eq!(
                StreamConfig::new(
                    4,
                    2,
                    Allocation::MinDelta {
                        entries: 16,
                        max_stride_words
                    }
                ),
                Err(StreamConfigError::NonPositiveMaxStride { max_stride_words })
            );
        }
    }

    #[test]
    fn builders_override_defaults() {
        let cfg = StreamConfig::paper_basic(4)
            .unwrap()
            .with_match_policy(MatchPolicy::AnyEntry);
        assert_eq!(cfg.match_policy(), MatchPolicy::AnyEntry);
    }

    #[test]
    fn error_messages_are_specific() {
        assert!(StreamConfigError::BadCzone { bits: 63 }
            .to_string()
            .contains("63"));
        assert!(StreamConfigError::NoStreams.to_string().contains("stream"));
        assert!(StreamConfigError::NonPositiveMaxStride {
            max_stride_words: -3
        }
        .to_string()
        .contains("-3"));
    }

    #[test]
    fn display_mentions_policy() {
        let cfg = StreamConfig::paper_filtered(10).unwrap();
        let s = cfg.to_string();
        assert!(s.contains("10 streams"), "{s}");
        assert!(s.contains("unit filter"), "{s}");
    }
}
