//! The shared log-bucketed histogram.
//!
//! One histogram type serves every layer that needs cheap percentiles over
//! millions of samples: the YCSB harness's latency statistics, the metrics
//! registry's histogram series, and the sharded runtime's per-shard series
//! (merged exactly like the hot-key sketches — bucket-wise addition).
//!
//! Logarithmic bucketing: 1 microsecond resolution at the bottom, ~1%
//! relative resolution above ([`SUB_BUCKETS`] linear sub-buckets per power
//! of two). Merging is exact — a merged histogram is bucket-identical to one
//! built from the concatenated sample streams, so percentile queries agree
//! to bucket resolution no matter how the samples were partitioned.

use harmony_sim::clock::SimTime;
use serde::Serialize;

/// Number of linear sub-buckets per power of two (controls relative error).
const SUB_BUCKETS: usize = 64;

/// A log-bucketed histogram over non-negative microsecond (or unit-less)
/// values.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_us: f64,
    min_us: f64,
    max_us: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum_us: 0.0,
            min_us: f64::INFINITY,
            max_us: 0.0,
        }
    }

    fn bucket_index(us: f64) -> usize {
        let v = us.max(0.0) as u64;
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as usize; // floor(log2 v), >= 6
        let shift = exp - (SUB_BUCKETS.trailing_zeros() as usize);
        let sub = (v >> shift) as usize - SUB_BUCKETS; // 0..SUB_BUCKETS
        let idx = (shift + 1) * SUB_BUCKETS + sub;
        idx.min(64 * SUB_BUCKETS - 1)
    }

    fn bucket_value(index: usize) -> f64 {
        if index < SUB_BUCKETS {
            return index as f64;
        }
        let shift = index / SUB_BUCKETS - 1;
        let sub = index % SUB_BUCKETS;
        ((SUB_BUCKETS + sub) << shift) as f64
    }

    /// Records one latency observation.
    pub fn record(&mut self, latency: SimTime) {
        self.record_us(latency.as_micros_f64());
    }

    /// Records one raw observation in microseconds (or any non-negative
    /// unit-less value — registry histograms use this directly).
    pub fn record_us(&mut self, us: f64) {
        self.buckets[Self::bucket_index(us)] += 1;
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values in microseconds.
    pub fn sum_us(&self) -> f64 {
        self.sum_us
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64 / 1e3
        }
    }

    /// Minimum observed latency in milliseconds.
    pub fn min_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_us / 1e3
        }
    }

    /// Maximum observed latency in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_us / 1e3
    }

    /// The `q`-quantile (q in `[0, 1]`) in milliseconds, approximated to the
    /// histogram's bucket resolution.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i) / 1e3;
            }
        }
        self.max_ms()
    }

    /// Merges another histogram into this one. The result is bucket-identical
    /// to a histogram built from the concatenated sample streams.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        if other.count > 0 {
            self.min_us = self.min_us.min(other.min_us);
            self.max_us = self.max_us.max(other.max_us);
        }
    }

    /// Non-empty buckets as `(upper_bound_us, cumulative_count)` pairs —
    /// what Prometheus-text exposition renders as `_bucket{le=...}` lines.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            if *c > 0 {
                cum += c;
                out.push((Self::bucket_value(i), cum));
            }
        }
        out
    }

    /// A compact summary of this histogram.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_ms: self.mean_ms(),
            min_ms: self.min_ms(),
            max_ms: self.max_ms(),
            p50_ms: self.percentile_ms(0.50),
            p95_ms: self.percentile_ms(0.95),
            p99_ms: self.percentile_ms(0.99),
        }
    }
}

/// A compact latency summary (what experiment reports carry around).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Mean (ms).
    pub mean_ms: f64,
    /// Minimum (ms).
    pub min_ms: f64,
    /// Maximum (ms).
    pub max_ms: f64,
    /// Median (ms).
    pub p50_ms: f64,
    /// 95th percentile (ms).
    pub p95_ms: f64,
    /// 99th percentile (ms) — the metric of the paper's Figure 5(a)/(b).
    pub p99_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.percentile_ms(0.99), 0.0);
        assert_eq!(h.min_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn single_observation() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_millis(5));
        assert_eq!(h.count(), 1);
        assert!((h.mean_ms() - 5.0).abs() < 1e-9);
        assert!((h.percentile_ms(0.5) - 5.0).abs() / 5.0 < 0.02);
        assert!((h.percentile_ms(0.99) - 5.0).abs() / 5.0 < 0.02);
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(SimTime::from_micros(i * 100)); // 0.1 .. 100 ms
        }
        let p50 = h.percentile_ms(0.50);
        let p99 = h.percentile_ms(0.99);
        assert!((p50 - 50.0).abs() / 50.0 < 0.03, "p50={p50}");
        assert!((p99 - 99.0).abs() / 99.0 < 0.03, "p99={p99}");
        assert!(h.min_ms() <= 0.11 && h.max_ms() >= 99.0);
        assert!(h.percentile_ms(1.0) >= p99);
        assert!(h.percentile_ms(0.0) <= p50);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        let value_ms = 37.123;
        for _ in 0..100 {
            h.record(SimTime::from_millis_f64(value_ms));
        }
        let p = h.percentile_ms(0.5);
        assert!((p - value_ms).abs() / value_ms < 0.02, "p={p}");
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimTime::from_millis(1));
        b.record(SimTime::from_millis(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max_ms() >= 99.0);
        assert!(a.min_ms() <= 1.01);
        // Merging an empty histogram changes nothing.
        let before = a.summary();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.summary(), before);
    }

    #[test]
    fn merge_equals_concatenation_exactly() {
        let mut merged = LatencyHistogram::new();
        let mut concat = LatencyHistogram::new();
        let mut part = LatencyHistogram::new();
        for i in 0..500u64 {
            let us = (i * 37 + 11) as f64;
            concat.record_us(us);
            part.record_us(us);
            if i % 100 == 99 {
                merged.merge(&part);
                part = LatencyHistogram::new();
            }
        }
        merged.merge(&part);
        assert_eq!(merged, concat);
    }

    #[test]
    fn cumulative_buckets_cover_count() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(SimTime::from_millis(i));
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.last().unwrap().1, 100);
        let mut prev = 0u64;
        for (_, c) in &buckets {
            assert!(*c > prev);
            prev = *c;
        }
    }

    #[test]
    fn summary_is_consistent() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(SimTime::from_millis(i));
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms);
        assert!(s.min_ms <= s.p50_ms && s.p99_ms <= s.max_ms);
        assert!(s.mean_ms > 0.0);
    }

    #[test]
    fn bucket_round_trip_is_monotone() {
        let mut prev = -1.0;
        for us in [0.0, 1.0, 10.0, 63.0, 64.0, 100.0, 1000.0, 65_536.0, 1e7] {
            let idx = LatencyHistogram::bucket_index(us);
            let v = LatencyHistogram::bucket_value(idx);
            assert!(v >= prev, "us={us} v={v} prev={prev}");
            assert!(
                v <= us + 1.0,
                "bucket value {v} should not exceed input {us}"
            );
            prev = v;
        }
    }
}
