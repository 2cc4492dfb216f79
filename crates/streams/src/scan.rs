//! Scans over the stream system's structure-of-arrays state.
//!
//! These replace per-buffer `VecDeque` walks with flat `&[u64]` sweeps,
//! mirroring the way-scan rebuild of `streamsim_cache::SetAssocCache`:
//! the win is the layout — one contiguous cache line or two instead of a
//! pointer chase per buffer. [`find_first`] keeps the early exit (match
//! positions are front-loaded in practice, and measurement beat a
//! branchless conditional-move chain on every workload mix); the
//! victim-choice [`min_index`] always reads every key, so it *is* the
//! branchless conditional-move scan. Both scans resolve ties to the
//! *lowest* index, exactly as the `Iterator::position` / `min_by_key`
//! code they replace did — the unit filter can legitimately hold
//! duplicate predictions, so first-match semantics are load-bearing, not
//! a nicety.

// Hot-loop module: every stream lookup and LRU victim choice runs these scans.
#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Index of the first element equal to `needle`, or `usize::MAX` if
/// absent.
///
/// A plain early-exit scan over the flat key array. Two branchless
/// variants (a conditional-move chain and a per-lane match mask resolved
/// with `trailing_zeros`) were both measured slower on every workload
/// mix: matches are front-loaded in practice, so the early exit wins and
/// the flat `&[u64]` layout is where the speedup actually comes from.
#[inline(always)]
pub(crate) fn find_first(keys: &[u64], needle: u64) -> usize {
    keys.iter().position(|&k| k == needle).unwrap_or(usize::MAX)
}

/// Index of the first minimum element. Returns `0` for an empty slice —
/// callers guarantee non-empty (`StreamConfig` validates at least one
/// buffer), which a debug assertion pins.
#[inline(always)]
pub(crate) fn min_index(keys: &[u64]) -> usize {
    debug_assert!(!keys.is_empty(), "min_index over an empty key array");
    let mut best = 0usize;
    let mut best_key = u64::MAX;
    for (i, &k) in keys.iter().enumerate() {
        let better = k < best_key;
        best = if better { i } else { best };
        best_key = if better { k } else { best_key };
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_first_returns_the_first_of_duplicates() {
        assert_eq!(find_first(&[5, 3, 5, 1], 5), 0);
        assert_eq!(find_first(&[9, 3, 5, 3], 3), 1);
    }

    #[test]
    fn find_first_misses_cleanly() {
        assert_eq!(find_first(&[1, 2, 3], 7), usize::MAX);
        assert_eq!(find_first(&[], 7), usize::MAX);
    }

    #[test]
    fn find_first_locates_the_sentinel_itself() {
        // The head-tag array uses u64::MAX as "no valid head"; a scan for
        // it must still behave sanely (the system never searches for it,
        // but the helper should not special-case values).
        assert_eq!(find_first(&[0, u64::MAX], u64::MAX), 1);
    }

    #[test]
    fn min_index_breaks_ties_to_the_lowest_index() {
        assert_eq!(min_index(&[4, 2, 2, 9]), 1);
        assert_eq!(min_index(&[0, 0, 0]), 0);
        assert_eq!(min_index(&[u64::MAX, u64::MAX]), 0);
    }

    #[test]
    fn min_index_finds_a_unique_minimum_anywhere() {
        assert_eq!(min_index(&[7, 5, 1, 6]), 2);
        assert_eq!(min_index(&[1]), 0);
    }
}
