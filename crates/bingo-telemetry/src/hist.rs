//! Deterministic log2-bucketed histograms.
//!
//! Every recorded value lands in one of [`NUM_BUCKETS`] fixed buckets:
//! bucket 0 holds the value `0`, and bucket `i >= 1` holds the half-open
//! range `[2^(i-1), 2^i)`. The boundaries are a pure function of the value
//! — no configuration, no dynamic resizing, no floating point — so two
//! histograms recorded on different platforms, different thread counts, or
//! different runs bucket identical values identically, and their snapshots
//! [`merge`](HistogramSnapshot::merge) by plain bucket-wise addition
//! (associative and commutative, exercised by the tier-1 tests).
//!
//! Quantiles are reported as the **lower edge** of the bucket containing
//! the requested rank. That makes them conservative (never above the true
//! value's bucket) and *exact* whenever the recorded values sit on bucket
//! edges: a histogram of `2^k`s reports `p50 == 2^k`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: one for `0`, one per bit position of a `u64`.
pub const NUM_BUCKETS: usize = 65;

/// The bucket a value lands in: `0 -> 0`, else `1 + floor(log2(value))`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive lower edge of bucket `i` (the value `quantile` reports).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    debug_assert!(i < NUM_BUCKETS);
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// The shared, lock-free recording core of a histogram. Handles returned
/// by the registry point at one of these; recording is a pair of relaxed
/// `fetch_add`s.
#[derive(Debug)]
pub struct HistogramCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    /// A fresh, empty core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a histogram's buckets. Snapshots from different
/// shards/processes merge by bucket-wise addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; NUM_BUCKETS],
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// The raw per-bucket counts (`buckets[i]` counts values in
    /// `[2^(i-1), 2^i)`, bucket 0 counts zeros).
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// Fold another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }

    /// The lower edge of the bucket containing the `q`-quantile value
    /// (`q` in `[0, 1]`; 0 when the histogram is empty). Exact when the
    /// recorded values are powers of two.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_lower_bound(i);
            }
        }
        bucket_lower_bound(NUM_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_log2_ranges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i, "lower edge of {i}");
        }
    }

    #[test]
    fn quantiles_exact_at_bucket_edges() {
        let core = HistogramCore::new();
        for _ in 0..100 {
            core.record(1 << 10);
        }
        let snap = core.snapshot();
        assert_eq!(snap.quantile(0.0), 1 << 10);
        assert_eq!(snap.quantile(0.5), 1 << 10);
        assert_eq!(snap.quantile(1.0), 1 << 10);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = HistogramCore::new();
        let b = HistogramCore::new();
        a.record(5);
        b.record(5);
        b.record(900);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum(), 910);
        assert_eq!(merged.buckets()[bucket_index(5)], 2);
        assert_eq!(merged.buckets()[bucket_index(900)], 1);
    }
}
