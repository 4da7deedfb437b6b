//! Log2-bucketed histograms.
//!
//! Values are `u64` (counts, nanoseconds, quantized residuals). Bucket `0`
//! holds exactly the value `0`; bucket `i > 0` holds the half-open power-of-
//! two range `[2^(i-1), 2^i - 1]`, so bucket 1 is `{1}`, bucket 2 is
//! `{2, 3}`, bucket 64 is `[2^63, u64::MAX]`. Sixty-five buckets cover the
//! full `u64` domain with no overflow and no value left out, and recording
//! is a handful of integer ops — cheap enough for per-solve hot paths.

/// Number of buckets: one for zero plus one per bit position.
pub const BUCKETS: usize = 65;

/// Returns the bucket index for `value` (see module docs for the ranges).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Lower bound of bucket `index`: 0 for bucket 0, `2^(index-1)` otherwise.
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// A log2-bucketed histogram over `u64` values.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (u128: cannot overflow for any realistic
    /// number of u64 observations).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value, or 0 for an empty histogram.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 for an empty histogram.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The raw bucket counts, indexed by [`bucket_index`].
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs, in increasing
    /// bucket order — the sparse form the exporters serialize.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_bound(i), c))
            .collect()
    }
}

/// An immutable copy of a histogram, as captured by
/// [`Registry::snapshot`](crate::Registry::snapshot).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u128,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Sparse `(bucket lower bound, count)` pairs in increasing order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Captures the current contents of `hist`.
    pub fn of(hist: &Histogram) -> Self {
        Self {
            count: hist.count(),
            sum: hist.sum(),
            min: hist.min(),
            max: hist.max(),
            buckets: hist.nonzero_buckets(),
        }
    }

    /// Mean of the observed values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_goes_to_bucket_zero() {
        assert_eq!(bucket_index(0), 0);
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_powers_of_two_start_their_own_bucket() {
        for bit in 0..64u32 {
            let v = 1u64 << bit;
            assert_eq!(bucket_index(v), bit as usize + 1, "value {v}");
            if v > 1 {
                assert_eq!(bucket_index(v - 1), bit as usize, "value {}", v - 1);
            }
            assert_eq!(bucket_lower_bound(bit as usize + 1), v);
        }
    }

    #[test]
    fn u64_max_lands_in_the_last_bucket() {
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.buckets()[BUCKETS - 1], 2);
        assert_eq!(h.sum(), 2 * u128::from(u64::MAX));
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn snapshot_is_sparse_and_ordered() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 7, 1024] {
            h.record(v);
        }
        let snap = HistogramSnapshot::of(&h);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1033);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 1024);
        assert_eq!(snap.buckets, vec![(0, 1), (1, 2), (4, 1), (1024, 1)]);
        assert!((snap.mean() - 1033.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let snap = HistogramSnapshot::of(&Histogram::new());
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert!(snap.buckets.is_empty());
        assert_eq!(snap.mean(), 0.0);
    }
}
