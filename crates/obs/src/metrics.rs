//! The log-bucketed [`Histogram`]: the single percentile implementation
//! for the whole workspace — no latency sample is ever stored or sorted.
//!
//! Histograms are plain values that their caller owns. They are
//! *mergeable*: per-rank (or per-thread) instances combine after the fact by
//! bucket-wise addition, so no cross-rank synchronisation is needed while
//! measurements are taken.

use std::time::Duration;

/// Sub-bucket resolution exponent of [`Histogram`]: each power-of-two octave
/// is split into `2^SUB_BITS = 32` linear sub-buckets.
///
/// The worst-case relative quantile error is half a sub-bucket width,
/// `2^-(SUB_BITS+1)` ≈ 1.6%, and the guaranteed bound is one sub-bucket,
/// `2^-SUB_BITS` ≈ 3.1%. Values below `2^SUB_BITS` are recorded exactly.
pub const SUB_BITS: u32 = 5;

const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Bucket-array length: one linear region (`SUB_COUNT` exact buckets for the
/// first two octaves) plus 32 sub-buckets for each of the remaining octaves
/// of a `u64`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_COUNT as usize;

/// A mergeable log-linear (HDR-style) histogram over `u64` samples.
///
/// Recording is O(1) (a shift and two adds — no allocation, no sorting);
/// quantiles are read by a single forward walk over the bucket array.
/// `count`, `sum`, `min`, and `max` are tracked exactly; quantiles in
/// between are accurate to one sub-bucket (see [`SUB_BITS`]). Merging two
/// histograms is bucket-wise addition, which makes the operation
/// associative and commutative — per-rank histograms can be reduced in any
/// order and the quantiles come out identical.
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

/// Bucket index for a sample value.
fn bucket_of(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    ((((msb - SUB_BITS + 1) as u64) << SUB_BITS) + ((v >> shift) & (SUB_COUNT - 1))) as usize
}

/// Inclusive-lower / exclusive-upper bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB_COUNT {
        return (i, i + 1);
    }
    let oct = i >> SUB_BITS;
    let pos = i & (SUB_COUNT - 1);
    let msb = oct as u32 + SUB_BITS - 1;
    let width = 1u64 << (msb - SUB_BITS);
    let lo = (1u64 << msb) + pos * width;
    (lo, lo.saturating_add(width))
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration as nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile `q` in `[0, 1]`.
    ///
    /// Rank selection matches the sort-based estimator this replaces
    /// (`samples[round((n-1)·q)]` on the sorted samples): the returned
    /// value is the midpoint of the bucket holding that rank, clamped to
    /// the exact `[min, max]`, so it differs from the sorted answer by at
    /// most one sub-bucket (see [`SUB_BITS`]).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum > rank {
                let (lo, hi) = bucket_bounds(i);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// [`Histogram::quantile`] of a nanosecond histogram, as a `Duration`.
    pub fn quantile_duration(&self, q: f64) -> Duration {
        Duration::from_nanos(self.quantile(q))
    }

    /// Merges `other` into `self` by bucket-wise addition (associative and
    /// commutative; exact for `count`/`sum`/`min`/`max`).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty `(bucket_lo, bucket_hi, count)` triples.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let rank = ((h.count() - 1) as f64 * q).round() as u64;
            assert_eq!(h.quantile(q), rank, "q={q}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.sum(), (0..32).sum::<u64>() as u128);
    }

    #[test]
    fn quantile_error_within_one_subbucket() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (0..10_000u64)
            .map(|i| (i * 2654435761) % 1_000_000)
            .collect();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 0.999] {
            let exact = sorted[((sorted.len() - 1) as f64 * q).round() as usize];
            let approx = h.quantile(q);
            let err = (approx as f64 - exact as f64).abs() / (exact.max(1) as f64);
            assert!(err <= 1.0 / 32.0, "q={q} exact={exact} approx={approx}");
        }
        // Extremes are tracked exactly.
        assert_eq!(h.quantile(0.0), sorted[0]);
        assert_eq!(h.quantile(1.0), *sorted.last().unwrap());
    }

    #[test]
    fn bucket_bounds_cover_values() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1 << 20,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            // The topmost bucket's upper bound saturates at u64::MAX.
            assert!(
                lo <= v && (v < hi || hi == u64::MAX),
                "v={v} lo={lo} hi={hi}"
            );
        }
    }

    #[test]
    fn merge_matches_single_histogram() {
        let mut all = Histogram::new();
        let mut parts: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for i in 0..1000u64 {
            let v = (i * 37) % 5000;
            all.record(v);
            parts[(i % 4) as usize].record(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.count(), all.count());
        assert_eq!(merged.sum(), all.sum());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(merged.quantile(q), all.quantile(q));
        }
    }
}
