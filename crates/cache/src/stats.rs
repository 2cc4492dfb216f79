//! Per-cache counters and derived rates.

use std::fmt;
use std::ops::AddAssign;

use streamsim_trace::AccessKind;

/// Counters accumulated by a cache simulator.
///
/// Counters are split by [`AccessKind`] so the paper's Table 1 metrics —
/// *data miss rate* (data misses / data references) and *MPI* (misses per
/// instruction) — fall straight out.
///
/// # Example
///
/// ```
/// use streamsim_cache::CacheStats;
/// use streamsim_trace::AccessKind;
///
/// let mut s = CacheStats::new();
/// s.record(AccessKind::Load, true);
/// s.record(AccessKind::Load, false);
/// assert_eq!(s.hit_rate(), 0.5);
/// assert_eq!(s.misses(), 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    accesses: [u64; 3],
    /// Misses, not hits: the hit path is the hot one, and counting the
    /// rare outcome keeps [`CacheStats::record_hit`] to one increment.
    misses: [u64; 3],
    /// Dirty blocks written back to the next level.
    pub writebacks: u64,
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access of `kind` which either hit or missed.
    #[inline]
    pub fn record(&mut self, kind: AccessKind, hit: bool) {
        if hit {
            self.record_hit(kind);
        } else {
            self.record_miss(kind);
        }
    }

    /// Records a hit of `kind` — one counter touch, for call sites that
    /// already know the outcome.
    #[inline(always)]
    pub fn record_hit(&mut self, kind: AccessKind) {
        self.accesses[kind.as_index()] += 1;
    }

    /// Records a miss of `kind`.
    #[inline(always)]
    pub fn record_miss(&mut self, kind: AccessKind) {
        let i = kind.as_index();
        self.accesses[i] += 1;
        self.misses[i] += 1;
    }

    /// Accesses of one kind.
    pub fn accesses_of(&self, kind: AccessKind) -> u64 {
        self.accesses[kind.as_index()]
    }

    /// Hits of one kind.
    pub fn hits_of(&self, kind: AccessKind) -> u64 {
        self.accesses_of(kind) - self.misses_of(kind)
    }

    /// Misses of one kind.
    pub fn misses_of(&self, kind: AccessKind) -> u64 {
        self.misses[kind.as_index()]
    }

    /// Total accesses, all kinds.
    pub fn accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Total hits, all kinds.
    pub fn hits(&self) -> u64 {
        self.accesses() - self.misses()
    }

    /// Total misses, all kinds.
    pub fn misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Hits / accesses over all kinds (0.0 when empty).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits(), self.accesses())
    }

    /// Misses / accesses over all kinds (0.0 when empty).
    pub fn miss_rate(&self) -> f64 {
        ratio(self.misses(), self.accesses())
    }

    /// Data accesses (loads + stores).
    pub fn data_accesses(&self) -> u64 {
        self.accesses_of(AccessKind::Load) + self.accesses_of(AccessKind::Store)
    }

    /// Data misses (loads + stores).
    pub fn data_misses(&self) -> u64 {
        self.misses_of(AccessKind::Load) + self.misses_of(AccessKind::Store)
    }

    /// Data misses / data accesses — the paper's Table 1 "Data Miss Rate".
    pub fn data_miss_rate(&self) -> f64 {
        ratio(self.data_misses(), self.data_accesses())
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: Self) {
        for i in 0..3 {
            self.accesses[i] += rhs.accesses[i];
            self.misses[i] += rhs.misses[i];
        }
        self.writebacks += rhs.writebacks;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses (miss rate {:.3}%), {} writebacks",
            self.accesses(),
            self.misses(),
            self.miss_rate() * 100.0,
            self.writebacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rates_are_zero() {
        let s = CacheStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.data_miss_rate(), 0.0);
    }

    #[test]
    fn per_kind_counters() {
        let mut s = CacheStats::new();
        s.record(AccessKind::Load, true);
        s.record(AccessKind::Store, false);
        s.record(AccessKind::IFetch, true);
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses_of(AccessKind::Store), 1);
        assert_eq!(s.data_accesses(), 2);
        assert_eq!(s.data_misses(), 1);
        assert_eq!(s.data_miss_rate(), 0.5);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = CacheStats::new();
        a.record(AccessKind::Load, true);
        a.writebacks = 2;
        let mut b = CacheStats::new();
        b.record(AccessKind::Load, false);
        b.writebacks = 1;
        a += b;
        assert_eq!(a.accesses(), 2);
        assert_eq!(a.hits(), 1);
        assert_eq!(a.writebacks, 3);
    }

    #[test]
    fn display_contains_rates() {
        let mut s = CacheStats::new();
        s.record(AccessKind::Load, false);
        assert!(s.to_string().contains("1 misses"));
    }
}
