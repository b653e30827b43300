//! Latency and throughput statistics.
//!
//! The paper reports 99th-percentile read latency (Figure 5a/5b), overall
//! throughput (Figure 5c/5d) and the number of stale reads (Figure 6).
//! Latencies go into `harmony-obs`'s log-bucketed [`LatencyHistogram`],
//! which the metrics registry and the sharded merge share.

use harmony_obs::hist::LatencyHistogram;
use harmony_sim::clock::SimTime;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of one experiment run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Read-latency histogram.
    pub read_latency: LatencyHistogram,
    /// Write-latency histogram.
    pub write_latency: LatencyHistogram,
    /// Total operations completed.
    pub operations: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Stale reads observed via the simulator's ground truth.
    pub stale_reads: u64,
    /// Stale reads observed via the paper's dual-read measurement (only
    /// populated when that mode is enabled).
    pub stale_reads_dual_read: u64,
    /// Reads of the workload's designated hot keys (only populated when the
    /// experiment spec marks a hot-key prefix for reporting).
    pub hot_reads: u64,
    /// Stale reads among the hot-key reads (ground truth).
    pub hot_stale_reads: u64,
    /// Operations aborted by injected faults (unavailable replica sets,
    /// coordinator crashes, stall timeouts). Zero on fault-free runs. With a
    /// retry policy active, only operations abandoned after exhausting their
    /// attempts are counted here — converted aborts land in `retries`.
    pub aborted_ops: u64,
    /// Client retry attempts issued after aborted operations (always zero
    /// without an active retry policy).
    pub retries: u64,
    /// Hedged duplicate reads raced against slow primaries (always zero
    /// without an active hedging policy).
    pub hedged_reads: u64,
    /// Hedged reads where the duplicate answered before the primary.
    pub hedge_wins: u64,
    /// Virtual time at which the measured phase started.
    pub started_at: SimTime,
    /// Virtual time at which the measured phase ended.
    pub ended_at: SimTime,
}

impl RunStats {
    /// Wall-clock (virtual) duration of the run in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.ended_at.saturating_sub(self.started_at).as_secs_f64()
    }

    /// Overall throughput in operations per second.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        let d = self.duration_secs();
        if d <= 0.0 {
            0.0
        } else {
            self.operations as f64 / d
        }
    }

    /// Fraction of reads that were stale (ground truth).
    pub fn stale_fraction(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.stale_reads as f64 / self.reads as f64
        }
    }

    /// Fraction of hot-key reads that were stale (ground truth); zero when no
    /// hot-key prefix was designated or no hot key was read.
    pub fn hot_stale_fraction(&self) -> f64 {
        if self.hot_reads == 0 {
            0.0
        } else {
            self.hot_stale_reads as f64 / self.hot_reads as f64
        }
    }

    /// Merges another run's statistics into this one (the sharded runtime
    /// folds per-shard stats into one cluster result): histograms merge,
    /// counters add, and the time span becomes the union of both spans — so
    /// aggregate throughput is total operations over the longest shard's
    /// virtual duration, exactly what a cluster-wide observer would measure.
    pub fn absorb(&mut self, other: &RunStats) {
        self.read_latency.merge(&other.read_latency);
        self.write_latency.merge(&other.write_latency);
        self.operations += other.operations;
        self.reads += other.reads;
        self.writes += other.writes;
        self.stale_reads += other.stale_reads;
        self.stale_reads_dual_read += other.stale_reads_dual_read;
        self.hot_reads += other.hot_reads;
        self.hot_stale_reads += other.hot_stale_reads;
        self.aborted_ops += other.aborted_ops;
        self.retries += other.retries;
        self.hedged_reads += other.hedged_reads;
        self.hedge_wins += other.hedge_wins;
        self.started_at = self.started_at.min(other.started_at);
        self.ended_at = self.ended_at.max(other.ended_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The histogram moved to `harmony-obs`; this re-export smoke test (and
    /// the full histogram suite over there) keeps the old call sites honest.
    #[test]
    fn reexported_histogram_still_works() {
        let mut h = LatencyHistogram::new();
        h.record(SimTime::from_millis(5));
        assert_eq!(h.count(), 1);
        assert!((h.mean_ms() - 5.0).abs() < 1e-9);
        assert!((h.percentile_ms(0.99) - 5.0).abs() / 5.0 < 0.02);
        let s = h.summary();
        assert_eq!(s.count, 1);
    }

    #[test]
    fn run_stats_throughput_and_staleness() {
        let mut s = RunStats {
            operations: 10_000,
            reads: 6_000,
            writes: 4_000,
            stale_reads: 600,
            started_at: SimTime::from_secs(10),
            ended_at: SimTime::from_secs(20),
            ..RunStats::default()
        };
        assert!((s.duration_secs() - 10.0).abs() < 1e-12);
        assert!((s.throughput_ops_per_sec() - 1000.0).abs() < 1e-9);
        assert!((s.stale_fraction() - 0.1).abs() < 1e-12);
        s.hot_reads = 1_000;
        s.hot_stale_reads = 250;
        assert!((s.hot_stale_fraction() - 0.25).abs() < 1e-12);
        s.hot_reads = 0;
        assert_eq!(s.hot_stale_fraction(), 0.0);
        s.reads = 0;
        assert_eq!(s.stale_fraction(), 0.0);
        s.ended_at = s.started_at;
        assert_eq!(s.throughput_ops_per_sec(), 0.0);
    }

    #[test]
    fn absorb_folds_shard_stats() {
        let mut a = RunStats {
            operations: 10,
            reads: 6,
            writes: 4,
            started_at: SimTime::from_secs(1),
            ended_at: SimTime::from_secs(5),
            ..RunStats::default()
        };
        a.read_latency.record(SimTime::from_millis(2));
        let mut b = RunStats {
            operations: 20,
            reads: 12,
            writes: 8,
            stale_reads: 1,
            started_at: SimTime::from_secs(2),
            ended_at: SimTime::from_secs(9),
            ..RunStats::default()
        };
        b.read_latency.record(SimTime::from_millis(7));
        a.absorb(&b);
        assert_eq!(a.operations, 30);
        assert_eq!(a.read_latency.count(), 2);
        assert_eq!(a.started_at, SimTime::from_secs(1));
        assert_eq!(a.ended_at, SimTime::from_secs(9));
        assert!((a.duration_secs() - 8.0).abs() < 1e-12);
    }
}
