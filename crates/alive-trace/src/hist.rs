//! Log2-bucketed histograms for metric samples.
//!
//! Samples (learned-clause lengths, queue wait times, ...) span many
//! orders of magnitude, so the stats aggregator buckets them by the
//! power of two they fall in: bucket 0 holds exactly `0`, bucket `i`
//! (1 ≤ i ≤ 64) holds `2^(i-1) ..= 2^i - 1` (bucket 64's upper bound
//! saturates at `u64::MAX`). Bucketing round-trips: every sample lies
//! inside the bounds of the bucket it is assigned to — the property the
//! proptest in `tests/hist_prop.rs` pins down.

/// Number of buckets: one for zero plus one per bit position.
pub const NUM_BUCKETS: usize = 65;

/// A fixed-size log2 histogram of `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a sample falls in: 0 for `0`, else
    /// `64 - leading_zeros(v)` (the position of the highest set bit,
    /// one-based).
    pub fn index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive `(lo, hi)` range of samples stored in bucket `i`.
    ///
    /// # Panics
    /// If `i >= NUM_BUCKETS`.
    pub fn bounds(i: usize) -> (u64, u64) {
        assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Number of samples in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// An upper bound on the `q`-quantile (0.0 ..= 1.0): the inclusive
    /// high end of the first bucket whose cumulative count reaches
    /// `q * count`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_over(&self.buckets, self.count, self.max, q)
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, low to high.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = Self::bounds(i);
                (lo, hi, n)
            })
            .collect()
    }
}

/// Quantile over a raw log2 bucket array: the inclusive high end of the
/// first bucket whose cumulative count reaches `ceil(q * count)`,
/// capped at `max`. Shared by [`Histogram::quantile`] and the atomic
/// windowed telemetry registry, which snapshots its `AtomicU64` buckets
/// into a plain array before asking for percentiles.
pub fn quantile_over(buckets: &[u64; NUM_BUCKETS], count: u64, max: u64, q: f64) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= target {
            return Some(Histogram::bounds(i).1.min(max));
        }
    }
    Some(max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_matches_bounds_at_edges() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX - 1, u64::MAX] {
            let i = Histogram::index(v);
            let (lo, hi) = Histogram::bounds(i);
            assert!(lo <= v && v <= hi, "{v} not in bucket {i} = [{lo}, {hi}]");
        }
    }

    #[test]
    fn buckets_partition_the_domain() {
        // Consecutive buckets tile u64 with no gap or overlap.
        for i in 0..NUM_BUCKETS - 1 {
            let (_, hi) = Histogram::bounds(i);
            let (lo_next, _) = Histogram::bounds(i + 1);
            assert_eq!(hi + 1, lo_next);
        }
        assert_eq!(Histogram::bounds(NUM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn summary_statistics() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.mean(), Some(26.5));
        // p50 upper bound comes from bucket [2,3]; p100 is capped at max.
        assert_eq!(h.quantile(0.5), Some(3));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    fn nonzero_buckets_report_ranges() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(5);
        h.record(6);
        let b = h.nonzero_buckets();
        assert_eq!(b, vec![(0, 0, 1), (4, 7, 2)]);
    }
}
