//! Cache geometry and policy configuration.

use std::fmt;

use streamsim_trace::BlockSize;

/// Line replacement policy within a set.
///
/// The paper's primary caches use *random* replacement ("the caches use a
/// random replacement policy"); its secondary caches are conventional, for
/// which we default to LRU. The replacement ablation compares all three.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Replacement {
    /// Least-recently-used.
    #[default]
    Lru,
    /// Uniform random among the lines of the set, from a seeded PRNG so
    /// simulations stay reproducible.
    Random {
        /// PRNG seed; equal seeds give bit-identical simulations.
        seed: u64,
    },
    /// Tree-based pseudo-LRU — the policy most real set-associative
    /// hardware implements (one bit per tree node instead of full LRU
    /// ordering). Requires a power-of-two associativity.
    TreePlru,
}

impl fmt::Display for Replacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replacement::Lru => f.write_str("LRU"),
            Replacement::Random { seed } => write!(f, "random(seed={seed})"),
            Replacement::TreePlru => f.write_str("tree-PLRU"),
        }
    }
}

/// Error produced when a [`CacheConfig`] is geometrically impossible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Capacity is zero or not divisible into whole sets of whole blocks.
    BadCapacity {
        /// The offending capacity in bytes.
        size_bytes: u64,
        /// Bytes per set (associativity × block size).
        set_bytes: u64,
    },
    /// Associativity of zero.
    ZeroAssociativity,
    /// The number of sets must be a power of two for index extraction.
    SetsNotPowerOfTwo {
        /// The computed (non-power-of-two) set count.
        sets: u64,
    },
    /// Tree-PLRU replacement needs a power-of-two associativity.
    PlruNeedsPowerOfTwoAssoc {
        /// The offending associativity.
        assoc: u32,
    },
    /// A replayed secondary cache must use LRU replacement: the replay
    /// reads every cell from a recency stack.
    L2NeedsLru {
        /// The cell's replacement policy.
        replacement: Replacement,
    },
    /// A set sampling must keep at least one set of the cache.
    SamplingFinerThanSets {
        /// The cache's set count.
        sets: u64,
        /// `log2` of the inverse sampling fraction.
        log2_fraction: u32,
    },
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::BadCapacity {
                size_bytes,
                set_bytes,
            } => write!(
                f,
                "capacity {size_bytes} bytes is not a positive multiple of the set size {set_bytes} bytes"
            ),
            CacheConfigError::ZeroAssociativity => f.write_str("associativity must be at least 1"),
            CacheConfigError::SetsNotPowerOfTwo { sets } => {
                write!(f, "number of sets ({sets}) must be a power of two")
            }
            CacheConfigError::PlruNeedsPowerOfTwoAssoc { assoc } => {
                write!(f, "tree-PLRU requires a power-of-two associativity, got {assoc}")
            }
            CacheConfigError::L2NeedsLru { replacement } => {
                write!(f, "a replayed secondary cache must use LRU, got {replacement}")
            }
            CacheConfigError::SamplingFinerThanSets {
                sets,
                log2_fraction,
            } => write!(
                f,
                "set sampling of 1/2^{log2_fraction} of the sets is finer than the cache's {sets} sets"
            ),
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Complete configuration of one set-associative cache.
///
/// Every cache is write-back/write-allocate, the paper's data-cache
/// policy: stores allocate on a miss and dirty the line, and dirty
/// victims produce write-backs.
///
/// Construct with [`CacheConfig::new`] then customise with
/// [`CacheConfig::with_replacement`], or start from a preset such as
/// [`CacheConfig::paper_l1`].
///
/// # Example
///
/// ```
/// use streamsim_cache::{CacheConfig, Replacement};
/// use streamsim_trace::BlockSize;
///
/// let l2 = CacheConfig::new(1 << 20, 2, BlockSize::new(64)?)?
///     .with_replacement(Replacement::Lru);
/// assert_eq!(l2.num_sets(), (1 << 20) / (2 * 64));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    size_bytes: u64,
    assoc: u32,
    block: BlockSize,
    replacement: Replacement,
}

impl CacheConfig {
    /// Creates a configuration with the given capacity, associativity and
    /// block size, and LRU replacement.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if the capacity is not a positive
    /// multiple of `assoc × block`, if `assoc` is zero, or if the implied
    /// number of sets is not a power of two.
    pub fn new(size_bytes: u64, assoc: u32, block: BlockSize) -> Result<Self, CacheConfigError> {
        if assoc == 0 {
            return Err(CacheConfigError::ZeroAssociativity);
        }
        let set_bytes = assoc as u64 * block.bytes();
        if size_bytes == 0 || !size_bytes.is_multiple_of(set_bytes) {
            return Err(CacheConfigError::BadCapacity {
                size_bytes,
                set_bytes,
            });
        }
        let sets = size_bytes / set_bytes;
        if !sets.is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo { sets });
        }
        Ok(CacheConfig {
            size_bytes,
            assoc,
            block,
            replacement: Replacement::Lru,
        })
    }

    /// The paper's primary-cache configuration: 64 KB, 4-way, 32-byte
    /// blocks, random replacement.
    ///
    /// (The paper states 64 KB 4-way with random replacement; it does not
    /// state the primary block size, for which we adopt 32 bytes — see
    /// DESIGN.md.)
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature is fallible only because it
    /// delegates to [`CacheConfig::new`].
    pub fn paper_l1() -> Result<Self, CacheConfigError> {
        Ok(Self::new(
            64 * 1024,
            4,
            BlockSize::new(32).expect("32 is a power of two"),
        )?
        .with_replacement(Replacement::Random { seed: 0x5eed }))
    }

    /// A secondary-cache configuration as swept in the paper's Table 4:
    /// capacity in bytes, associativity 1–4 and a 64- or 128-byte block,
    /// with LRU replacement.
    ///
    /// # Errors
    ///
    /// See [`CacheConfig::new`].
    pub fn secondary(
        size_bytes: u64,
        assoc: u32,
        block: BlockSize,
    ) -> Result<Self, CacheConfigError> {
        Self::new(size_bytes, assoc, block)
    }

    /// Replaces the replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// Capacity in bytes.
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Associativity (lines per set).
    pub fn assoc(self) -> u32 {
        self.assoc
    }

    /// Cache block size.
    pub fn block(self) -> BlockSize {
        self.block
    }

    /// Replacement policy.
    pub fn replacement(self) -> Replacement {
        self.replacement
    }

    /// Number of sets (always a power of two).
    pub fn num_sets(self) -> u64 {
        self.size_bytes / (self.assoc as u64 * self.block.bytes())
    }

    /// `log2` of the number of sets.
    pub fn set_index_bits(self) -> u32 {
        self.num_sets().trailing_zeros()
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = self.size_bytes;
        if size >= 1 << 20 && size.is_multiple_of(1 << 20) {
            write!(f, "{} MB", size >> 20)?;
        } else if size >= 1 << 10 && size.is_multiple_of(1 << 10) {
            write!(f, "{} KB", size >> 10)?;
        } else {
            write!(f, "{size} B")?;
        }
        write!(
            f,
            " {}-way, {} blocks, {}",
            self.assoc, self.block, self.replacement
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config_geometry() {
        let c = CacheConfig::new(64 * 1024, 4, BlockSize::new(32).unwrap()).unwrap();
        assert_eq!(c.num_sets(), 512);
        assert_eq!(c.set_index_bits(), 9);
        assert_eq!(c.assoc(), 4);
        assert_eq!(c.size_bytes(), 65536);
    }

    #[test]
    fn rejects_zero_assoc() {
        assert_eq!(
            CacheConfig::new(1024, 0, BlockSize::default()),
            Err(CacheConfigError::ZeroAssociativity)
        );
    }

    #[test]
    fn rejects_indivisible_capacity() {
        let err = CacheConfig::new(1000, 4, BlockSize::new(32).unwrap()).unwrap_err();
        assert!(matches!(err, CacheConfigError::BadCapacity { .. }));
        assert!(err.to_string().contains("1000"));
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(CacheConfig::new(0, 1, BlockSize::default()).is_err());
    }

    #[test]
    fn rejects_non_power_of_two_sets() {
        // 3 sets of 1 × 32 bytes.
        let err = CacheConfig::new(96, 1, BlockSize::new(32).unwrap()).unwrap_err();
        assert_eq!(err, CacheConfigError::SetsNotPowerOfTwo { sets: 3 });
    }

    #[test]
    fn fully_associative_single_set() {
        let c = CacheConfig::new(1024, 32, BlockSize::new(32).unwrap()).unwrap();
        assert_eq!(c.num_sets(), 1);
        assert_eq!(c.set_index_bits(), 0);
    }

    #[test]
    fn paper_l1_preset() {
        let c = CacheConfig::paper_l1().unwrap();
        assert_eq!(c.size_bytes(), 64 * 1024);
        assert_eq!(c.assoc(), 4);
        assert!(matches!(c.replacement(), Replacement::Random { .. }));
    }

    #[test]
    fn builders_replace_policies() {
        let c = CacheConfig::new(1024, 1, BlockSize::default())
            .unwrap()
            .with_replacement(Replacement::TreePlru);
        assert_eq!(c.replacement(), Replacement::TreePlru);
    }

    #[test]
    fn display_humanises_sizes() {
        let c = CacheConfig::new(1 << 20, 2, BlockSize::new(64).unwrap()).unwrap();
        assert!(c.to_string().starts_with("1 MB"));
        let c = CacheConfig::new(64 << 10, 4, BlockSize::new(32).unwrap()).unwrap();
        assert!(c.to_string().starts_with("64 KB"));
        let c = CacheConfig::new(512, 1, BlockSize::new(32).unwrap()).unwrap();
        assert!(c.to_string().starts_with("512 B"));
    }
}
