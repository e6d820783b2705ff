//! Log-bucketed (HDR-style) histograms.
//!
//! Values are `u64` (the simulator measures everything in integer
//! microseconds or counts). Buckets are log-linear: exact below 16, then 8
//! sub-buckets per power of two, bounding the relative recording error at
//! 12.5 % while keeping the whole table a flat 500-slot array — recording is
//! a couple of shifts, no allocation, no floating point.

use crate::merge_by_key;

/// Sub-bucket resolution: 2^3 = 8 sub-buckets per octave.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets `0..LINEAR` hold exactly one value each.
const LINEAR: u64 = SUB * 2;
/// Total bucket count needed to cover all of `u64` (the highest index is
/// produced by values with the top bit set: exponent 63).
const N_BUCKETS: usize = (63 - SUB_BITS as usize) * SUB as usize + LINEAR as usize;

/// Index of the bucket holding `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS + 1
        let mantissa = (v >> (exp - SUB_BITS)) - SUB; // 0..SUB
        ((exp - SUB_BITS) as usize - 1) * SUB as usize + mantissa as usize + LINEAR as usize
    }
}

/// Smallest value mapping to bucket `idx` (the bucket's lower bound).
pub fn bucket_lower_bound(idx: usize) -> u64 {
    if (idx as u64) < LINEAR {
        idx as u64
    } else {
        let k = idx - LINEAR as usize;
        let exp = (k / SUB as usize) as u32 + SUB_BITS + 1;
        let mantissa = (k % SUB as usize) as u64;
        (SUB + mantissa) << (exp - SUB_BITS)
    }
}

/// A fixed-size log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Box<[u64; N_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; N_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_bound(i), c))
            .collect()
    }

    /// Freezes the histogram into a serialisable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut s = HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: None,
            p90: None,
            p99: None,
            buckets: self.nonzero_buckets(),
        };
        s.set_quantiles();
        s
    }
}

impl HistSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) by nearest rank over the buckets, as a
    /// bucket lower bound clamped to the exact `[min, max]` range. `None`
    /// when empty.
    fn quantile(&self, q: f64) -> Option<u64> {
        let (min, max) = (self.min?, self.max?);
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(lb, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return Some(lb.clamp(min, max));
            }
        }
        Some(max)
    }

    fn set_quantiles(&mut self) {
        self.p50 = self.quantile(0.5);
        self.p90 = self.quantile(0.9);
        self.p99 = self.quantile(0.99);
    }

    /// Folds another snapshot into this one, as if every sample behind both
    /// had been recorded into a single [`Histogram`]: bucket counts are
    /// merged by lower bound and the quantiles are recomputed from the
    /// merged buckets. Used by the sweep executor to aggregate one metric
    /// across the runs of a multi-seed sweep.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        merge_by_key(&self.buckets, &other.buckets, |&lb, a, b| {
            merged.push((lb, a.unwrap_or(&0) + b.unwrap_or(&0)));
        });
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        };
        self.max = match (self.max, other.max) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        };
        self.set_quantiles();
    }
}

/// An immutable summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact minimum.
    pub min: Option<u64>,
    /// Exact maximum.
    pub max: Option<u64>,
    /// Median (bucket lower bound).
    pub p50: Option<u64>,
    /// 90th percentile (bucket lower bound).
    pub p90: Option<u64>,
    /// 99th percentile (bucket lower bound).
    pub p99: Option<u64>,
    /// Non-empty `(lower_bound, count)` buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range_is_exact() {
        for v in 0..LINEAR {
            assert_eq!(bucket_lower_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_bounds_are_monotone_and_consistent() {
        // Every bucket's lower bound must map back to that bucket, and
        // bounds must strictly increase.
        let mut prev = None;
        for idx in 0..N_BUCKETS {
            let lb = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lb), idx, "lb {lb} of bucket {idx}");
            if let Some(p) = prev {
                assert!(lb > p, "bounds not increasing at {idx}");
            }
            prev = Some(lb);
        }
    }

    #[test]
    fn edge_values_map_in_range() {
        for v in [
            0,
            1,
            15,
            16,
            17,
            1023,
            1024,
            1025,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < N_BUCKETS, "{v} -> {idx}");
            let lb = bucket_lower_bound(idx);
            assert!(lb <= v, "{v} below its bucket bound {lb}");
            // Relative bucketing error is bounded by one sub-bucket (12.5 %).
            if v >= LINEAR {
                assert!((v - lb) as f64 / v as f64 <= 0.125 + 1e-9);
            }
        }
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let s = h.snapshot();
        assert_eq!((s.p50, s.p90, s.p99), (None, None, None));
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn quantiles_of_uniform_range() {
        let mut h = Histogram::new();
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        let s = h.snapshot();
        let p50 = s.p50.unwrap();
        assert!((450..=560).contains(&p50), "p50 {p50}");
        let p99 = s.p99.unwrap();
        assert!((875..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(
            s.quantile(1.0),
            Some(s.quantile(1.0).unwrap().clamp(1, 1000))
        );
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(777);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(777));
        }
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..500u64 {
            let x = v * v % 7919;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let all = all.snapshot();
        assert_eq!(merged.count, all.count);
        assert_eq!(merged.sum, all.sum);
        assert_eq!((merged.min, merged.max), (all.min, all.max));
        assert_eq!(merged.buckets, all.buckets);
        assert_eq!(merged.quantile(0.9), all.quantile(0.9));
        assert_eq!(
            (merged.p50, merged.p90, merged.p99),
            (all.p50, all.p90, all.p99)
        );
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = a.snapshot();
        let mut s = before.clone();
        s.merge(&Histogram::new().snapshot());
        assert_eq!(s, before);
        let mut e = Histogram::new().snapshot();
        e.merge(&before);
        assert_eq!(e, before);
        let mut ee = Histogram::new().snapshot();
        ee.merge(&Histogram::new().snapshot());
        assert_eq!(ee, Histogram::new().snapshot());
    }

    #[test]
    fn snapshot_merge_matches_histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..400u64 {
            let (h, x) = if v % 3 == 0 {
                (&mut a, v * 17 % 5011)
            } else {
                (&mut b, v * 29 % 7919)
            };
            h.record(x);
            all.record(x);
        }
        let mut merged_snap = a.snapshot();
        merged_snap.merge(&b.snapshot());
        assert_eq!(merged_snap, all.snapshot());
    }

    #[test]
    fn snapshot_merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(123);
        let mut s = h.snapshot();
        let before = s.clone();
        s.merge(&Histogram::new().snapshot());
        assert_eq!(s, before);
        let mut e = Histogram::new().snapshot();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
