//! Log-linear latency/throughput histograms (HDR-style, fixed layout).
//!
//! A [`Hist`] buckets `u64` values into a fixed log-linear layout:
//! [`SUB_BUCKETS`] linear sub-buckets per power-of-two octave, so every
//! recorded value lands in a bucket whose lower bound is within 1/16
//! (6.25%) of the value. The layout is a compile-time constant —
//! [`NUM_BUCKETS`] counters cover the full `u64` range — which makes
//! merging commutative bucket-wise addition: merge order, shard count
//! and thread count cannot change the result, so cross-thread
//! aggregation is deterministic by construction (pinned by
//! `crates/obs/tests/hist_properties.rs`).
//!
//! Two users share the layout:
//!
//! * **Per-span histograms** — every span close records its duration
//!   into a [`Hist`] beside the phase registry entry, giving
//!   `--profile` p50/p90/p99/max columns per phase.
//! * **The model** — `streamsim-model` keeps its reuse-distance
//!   histograms in [`Hist`]s; [`Hist::count_below`] and
//!   [`Hist::nonempty_buckets`] are the queries its secondary-cache
//!   predictor walks.

// Hot-loop module: the model's profile pass calls `Hist::record` once per event.
#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Linear sub-buckets per octave: 2^4 = 16.
const SUB_BITS: u32 = 4;

/// Number of linear sub-buckets per power-of-two octave.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total buckets covering the full `u64` range: one linear group for
/// values below [`SUB_BUCKETS`], then 16 sub-buckets for each of the 60
/// octaves above it.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// The bucket index of `value`. Total function — every `u64` maps into
/// `0..NUM_BUCKETS` — and branch-light: one `leading_zeros` plus shifts.
#[inline(always)]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        // leading_zeros <= 59 here, so msb >= SUB_BITS and the shifts
        // below cannot underflow.
        let msb = 63 - value.leading_zeros();
        let group = (msb - SUB_BITS + 1) as usize;
        let offset = ((value >> (msb - SUB_BITS)) as usize) - SUB_BUCKETS;
        group * SUB_BUCKETS + offset
    }
}

/// The smallest value that maps to bucket `index` — the deterministic
/// representative quantile reporting uses. Inverse of [`bucket_index`]
/// on bucket lower bounds.
pub fn bucket_low(index: usize) -> u64 {
    let group = index / SUB_BUCKETS;
    let offset = (index % SUB_BUCKETS) as u64;
    if group == 0 {
        offset
    } else {
        (SUB_BUCKETS as u64 + offset) << (group - 1)
    }
}

/// The width of bucket `index`: 1 for values below `2 * SUB_BUCKETS`,
/// then doubling with each octave.
fn bucket_width(index: usize) -> u64 {
    1 << (index / SUB_BUCKETS).saturating_sub(1)
}

/// A histogram: plain counters over the fixed log-linear layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Box<[u64; NUM_BUCKETS]>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Box::new([0; NUM_BUCKETS]),
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Adds every recorded value of `other` into `self`. Bucket-wise
    /// addition: commutative and associative, so any merge tree over
    /// any sharding yields the same histogram.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0.0..=1.0`) as the lower bound of the bucket
    /// holding that rank — deterministic and within 6.25% below the
    /// true value. `1.0` returns the exact maximum; empty histograms
    /// return 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The first bucket's lower bound is the exact minimum.
                return bucket_low(i).max(self.min);
            }
        }
        self.max
    }

    /// Estimated number of recorded values strictly below `limit`.
    /// Buckets wholly below `limit` count in full; the bucket holding
    /// `limit` contributes the share of its range below `limit`, as if
    /// its values were spread evenly. Exact while `limit` falls in a
    /// width-1 bucket.
    pub fn count_below(&self, limit: u64) -> f64 {
        let cut = bucket_index(limit);
        let below: u64 = self.buckets[..cut].iter().sum();
        let share = (limit - bucket_low(cut)) as f64 / bucket_width(cut) as f64;
        below as f64 + self.buckets[cut] as f64 * share
    }

    /// The non-empty buckets in value order, as `(low, width, count)`:
    /// `count` recorded values lie in `low..low + width`.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_low(i), bucket_width(i), n))
    }

    /// A stable, compact text encoding: header fields plus the sparse
    /// bucket list. Equal histograms encode byte-identically, which is
    /// what the determinism tests pin.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "n={};sum={};min={};max={};b=",
            self.count,
            self.sum,
            self.min().unwrap_or(0),
            self.max
        );
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{i}:{n}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_total_and_monotonic() {
        // Every bucket's lower bound round-trips, and bounds strictly
        // increase — together: the layout partitions u64.
        let mut prev = None;
        for i in 0..NUM_BUCKETS {
            let low = bucket_low(i);
            assert_eq!(bucket_index(low), i, "bucket {i} low {low}");
            if let Some(p) = prev {
                assert!(low > p, "bucket {i} not monotonic");
            }
            prev = Some(low);
        }
        // Probe boundaries: powers of two and their neighbours.
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            for probe in [v.saturating_sub(1), v, v.saturating_add(1), u64::MAX] {
                let idx = bucket_index(probe);
                assert!(idx < NUM_BUCKETS);
                assert!(bucket_low(idx) <= probe);
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        for &v in &[17u64, 100, 999, 12_345, 1 << 40, u64::MAX / 3] {
            let low = bucket_low(bucket_index(v));
            assert!(low <= v);
            assert!(
                (v - low) as f64 <= v as f64 / 16.0 + 1.0,
                "value {v} bucket low {low}"
            );
        }
    }

    #[test]
    fn quantiles_and_extremes() {
        let mut h = Hist::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        assert_eq!(h.quantile(1.0), 1000);
        let p50 = h.quantile(0.5);
        assert!((440..=500).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((900..=990).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(0.0) >= 1);
    }

    #[test]
    fn bucket_widths_tile_the_layout() {
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_low(i) + bucket_width(i),
                bucket_low(i + 1),
                "bucket {i}"
            );
        }
        let last = NUM_BUCKETS - 1;
        assert_eq!(
            bucket_low(last).checked_add(bucket_width(last) - 1),
            Some(u64::MAX)
        );
    }

    #[test]
    fn count_below_is_exact_in_width_one_buckets() {
        let mut h = Hist::new();
        for v in [0, 1, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.count_below(0), 0.0);
        assert_eq!(h.count_below(1), 1.0);
        assert_eq!(h.count_below(2), 3.0);
        assert_eq!(h.count_below(31), 4.0);
        assert_eq!(h.count_below(32), 5.0);
        assert_eq!(h.count_below(u64::MAX), 5.0);
    }

    #[test]
    fn count_below_interpolates_inside_a_bucket() {
        let mut h = Hist::new();
        // 8192..8704 is one bucket of the 2^13 octave (width 8192/16).
        for _ in 0..100 {
            h.record(8192);
        }
        assert_eq!(h.count_below(8192), 0.0);
        assert_eq!(h.count_below(8704), 100.0, "bucket fully covered");
        let half = h.count_below(8448);
        assert!((half - 50.0).abs() < 1e-9, "half-covered bucket: {half}");
    }

    #[test]
    fn nonempty_buckets_cover_every_value() {
        let mut h = Hist::new();
        let values = [3, 700, 5000, 12345, 1 << 20, u64::MAX];
        for v in values {
            h.record(v);
        }
        let buckets: Vec<(u64, u64, u64)> = h.nonempty_buckets().collect();
        assert_eq!(buckets.len(), values.len());
        for (&v, &(low, width, n)) in values.iter().zip(&buckets) {
            assert_eq!(n, 1);
            assert!(low <= v && v - low < width, "{v} outside {low}+{width}");
        }
    }

    #[test]
    fn merge_equals_sequential_record() {
        let values: Vec<u64> = (0..500).map(|i| i * i * 37 + 5).collect();
        let mut whole = Hist::new();
        for &v in &values {
            whole.record(v);
        }
        let (a_vals, b_vals) = values.split_at(123);
        let mut a = Hist::new();
        let mut b = Hist::new();
        for &v in a_vals {
            a.record(v);
        }
        for &v in b_vals {
            b.record(v);
        }
        let mut merged = Hist::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, whole);
        assert_eq!(merged.encode(), whole.encode());
    }
}
