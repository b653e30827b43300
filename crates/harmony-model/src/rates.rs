//! Access-rate estimation from monitored counters.
//!
//! The paper's monitoring module periodically reads cumulative read/write
//! counters from every node ("Cassandra Nodetool") and converts the deltas to
//! rates, explicitly accounting for the time the monitoring sweep itself took
//! (§V.A). [`SlidingWindowRate`] keeps the rates over the last `window`
//! seconds of samples, the behaviour closest to the paper's periodic
//! collection. A window no longer than the sweep interval keeps exactly the
//! latest sample.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A point-in-time estimate of the cluster-wide access rates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RateEstimate {
    /// Read operations per second.
    pub reads_per_sec: f64,
    /// Write/update operations per second.
    pub writes_per_sec: f64,
}

impl RateEstimate {
    /// A zero-rate estimate (idle system).
    pub fn idle() -> Self {
        RateEstimate::default()
    }

    /// True if either rate is non-zero.
    pub fn is_active(&self) -> bool {
        self.reads_per_sec > 0.0 || self.writes_per_sec > 0.0
    }
}

/// Rates computed over a sliding window of recent samples.
#[derive(Debug, Clone)]
pub struct SlidingWindowRate {
    window_secs: f64,
    samples: VecDeque<(f64, u64, u64)>, // (elapsed, reads, writes)
    total_elapsed: f64,
    total_reads: u64,
    total_writes: u64,
}

impl SlidingWindowRate {
    /// Creates an estimator keeping roughly the last `window_secs` seconds of
    /// samples.
    ///
    /// # Panics
    /// Panics if `window_secs` is not strictly positive.
    pub fn new(window_secs: f64) -> Self {
        assert!(window_secs > 0.0, "window must be positive");
        SlidingWindowRate {
            window_secs,
            samples: VecDeque::new(),
            total_elapsed: 0.0,
            total_reads: 0,
            total_writes: 0,
        }
    }

    /// The configured window length in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }

    /// Number of samples currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been observed (or all have expired).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn evict(&mut self) {
        while self.total_elapsed > self.window_secs && self.samples.len() > 1 {
            if let Some((e, r, w)) = self.samples.pop_front() {
                self.total_elapsed -= e;
                self.total_reads -= r;
                self.total_writes -= w;
            }
        }
    }

    /// Records that `reads` read operations and `writes` write operations
    /// were counted over the last `elapsed_secs` seconds.
    pub fn observe(&mut self, elapsed_secs: f64, reads: u64, writes: u64) {
        if elapsed_secs <= 0.0 {
            return;
        }
        self.samples.push_back((elapsed_secs, reads, writes));
        self.total_elapsed += elapsed_secs;
        self.total_reads += reads;
        self.total_writes += writes;
        self.evict();
    }

    /// The current estimate.
    pub fn estimate(&self) -> RateEstimate {
        if self.total_elapsed <= 0.0 {
            return RateEstimate::idle();
        }
        RateEstimate {
            reads_per_sec: self.total_reads as f64 / self.total_elapsed,
            writes_per_sec: self.total_writes as f64 / self.total_elapsed,
        }
    }

    /// Forgets all history.
    pub fn reset(&mut self) {
        self.samples.clear();
        self.total_elapsed = 0.0;
        self.total_reads = 0;
        self.total_writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_estimate() {
        let e = RateEstimate::idle();
        assert!(!e.is_active());
        assert!(RateEstimate {
            reads_per_sec: 1.0,
            writes_per_sec: 0.0
        }
        .is_active());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        SlidingWindowRate::new(0.0);
    }

    #[test]
    fn sliding_window_basic_rates() {
        let mut est = SlidingWindowRate::new(10.0);
        est.observe(1.0, 100, 50);
        est.observe(1.0, 300, 150);
        let e = est.estimate();
        assert!((e.reads_per_sec - 200.0).abs() < 1e-9);
        assert!((e.writes_per_sec - 100.0).abs() < 1e-9);
        assert_eq!(est.len(), 2);
    }

    #[test]
    fn sliding_window_evicts_old_samples() {
        let mut est = SlidingWindowRate::new(2.0);
        est.observe(1.0, 1000, 0); // will be evicted
        est.observe(1.0, 0, 0);
        est.observe(1.0, 0, 0);
        let e = est.estimate();
        // Only the last two 1-second samples remain, both with zero ops.
        assert!(e.reads_per_sec < 1e-9, "reads={}", e.reads_per_sec);
        assert_eq!(est.len(), 2);
    }

    #[test]
    fn sliding_window_keeps_at_least_one_sample() {
        let mut est = SlidingWindowRate::new(1.0);
        est.observe(10.0, 500, 100);
        let e = est.estimate();
        assert!((e.reads_per_sec - 50.0).abs() < 1e-9);
        assert_eq!(est.len(), 1);
    }

    #[test]
    fn sliding_window_ignores_nonpositive_elapsed() {
        let mut est = SlidingWindowRate::new(5.0);
        est.observe(0.0, 100, 100);
        est.observe(-1.0, 100, 100);
        assert!(est.is_empty());
        assert_eq!(est.estimate(), RateEstimate::idle());
    }

    #[test]
    fn sliding_window_reset() {
        let mut est = SlidingWindowRate::new(5.0);
        est.observe(1.0, 10, 10);
        est.reset();
        assert!(est.is_empty());
        assert_eq!(est.estimate(), RateEstimate::idle());
    }

    #[test]
    fn short_window_tracks_latest() {
        // A window no longer than one sample keeps exactly the latest one.
        let mut est = SlidingWindowRate::new(1.0);
        est.observe(1.0, 100, 10);
        est.observe(1.0, 700, 70);
        let e = est.estimate();
        assert!((e.reads_per_sec - 700.0).abs() < 1e-9);
        assert!((e.writes_per_sec - 70.0).abs() < 1e-9);
        assert_eq!(est.len(), 1);
    }

    #[test]
    fn window_accessor() {
        assert_eq!(SlidingWindowRate::new(7.5).window_secs(), 7.5);
    }
}
