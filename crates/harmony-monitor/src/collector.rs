//! The periodic collector: turns raw counters and latency probes into the
//! rate and latency estimates the adaptive-consistency module consumes.
//!
//! Like the paper's implementation, the collector (a) works from *deltas* of
//! cumulative counters between consecutive sweeps, (b) measures the duration
//! of the sweep itself and includes it in the elapsed time used to compute
//! rates, and (c) takes the probe's latency figure as `Ln`.

use crate::heavy_hitters::HotKeyTracker;
use crate::probe::ClusterProbe;
use harmony_model::queueing::MG1Queue;
use harmony_model::rates::SlidingWindowRate;
use harmony_sim::clock::SimTime;
use harmony_store::keys::KeyId;

/// The rate estimator the monitor feeds its counter deltas into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Rates over a sliding window of the given length in seconds.
    SlidingWindow(f64),
}

/// Monitor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// Time between sweeps, in seconds (the paper's monitoring period).
    pub interval_secs: f64,
    /// Rate estimator fed by the counter deltas.
    pub estimator: EstimatorKind,
    /// Modelled cost of probing one node, in milliseconds. The paper's
    /// monitor is multithreaded to keep this overhead low; the overhead is
    /// still accounted for in the rate computation.
    pub probe_cost_per_node_ms: f64,
    /// How many monitoring threads the sweep is spread over (the paper's
    /// monitor collects from sets of nodes in parallel).
    pub probe_threads: usize,
    /// Counter capacity of the heavy-hitter (space-saving) sketch tracking
    /// per-key write arrivals. Bounds the monitor's per-key memory.
    pub hot_key_capacity: usize,
    /// Minimum guaranteed share of all writes for a tracked key to count as
    /// hot (fraction; the `total/capacity` noise floor applies on top).
    pub hot_key_min_share: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval_secs: 1.0,
            estimator: EstimatorKind::SlidingWindow(5.0),
            probe_cost_per_node_ms: 0.5,
            probe_threads: 8,
            hot_key_capacity: 64,
            hot_key_min_share: 0.02,
        }
    }
}

impl MonitorConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        // The runner re-arms its monitoring tick every `interval`: an
        // interval that rounds to zero virtual nanoseconds (or is not a
        // number at all) would tick forever at one instant.
        let interval = self.interval_secs;
        if !interval.is_finite() || SimTime::from_secs_f64(interval) <= SimTime::ZERO {
            return Err("monitor interval must be finite and at least one nanosecond".into());
        }
        let EstimatorKind::SlidingWindow(window) = self.estimator;
        if !(window.is_finite() && window > 0.0) {
            return Err("rate estimator window must be finite and positive".into());
        }
        if !(0.0..=1.0).contains(&self.hot_key_min_share) {
            return Err("hot-key minimum share must be within [0, 1]".into());
        }
        Ok(())
    }
}

/// One monitoring sweep's results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorSample {
    /// When the sweep completed.
    pub at: SimTime,
    /// Seconds elapsed since the previous sweep (including sweep duration).
    pub elapsed_secs: f64,
    /// Read operations completed since the previous sweep.
    pub reads_delta: u64,
    /// Write operations completed since the previous sweep.
    pub writes_delta: u64,
    /// Smoothed read rate (operations/second).
    pub read_rate: f64,
    /// Smoothed write rate (operations/second).
    pub write_rate: f64,
    /// Aggregated network latency (milliseconds).
    pub latency_ms: f64,
    /// Mean mutation-stage backlog per node (milliseconds of expected extra
    /// write-apply delay); zero for backends that cannot measure it.
    pub backlog_ms: f64,
    /// Standard deviation of the per-node mutation backlog across replicas
    /// (milliseconds) — the queue-wait dispersion that widens the staleness
    /// window; zero for backends reporting only the aggregate backlog.
    pub backlog_spread_ms: f64,
    /// Rate of change of the mean backlog over the recent sweep history
    /// (milliseconds of backlog per second); positive while the queue grows.
    pub backlog_trend_ms_per_s: f64,
    /// Smoothed replica-write arrival rate per node's mutation stage (jobs/s).
    pub write_arrival_rate_per_replica: f64,
    /// Measured mean mutation service time (milliseconds), normalised by the
    /// node's service concurrency so it is directly comparable with the
    /// backlog-per-queued-mutation figure.
    pub write_service_mean_ms: f64,
    /// Squared coefficient of variation of the measured mutation service time
    /// (1.0 when nothing has been measured yet — the exponential assumption).
    pub write_service_scv: f64,
    /// M/G/1 *predicted* mean queue wait (milliseconds): the
    /// Pollaczek–Khinchine wait of this sweep's smoothed arrival/service fit,
    /// saturated to the trend window so it stays finite at ρ ≥ 1. Moves one
    /// monitoring period before the measured backlog does — it reacts to the
    /// arrival rate, not to the queue the arrivals have yet to build.
    pub predicted_wait_ms: f64,
    /// Rate of change of the predicted wait over the recent sweep history
    /// (milliseconds per second); the earliest divergence signal available.
    pub predicted_wait_trend_ms_per_s: f64,
    /// How long the sweep itself took (milliseconds).
    pub sweep_duration_ms: f64,
}

/// One hot key's monitored state after a sweep: the per-key signals the
/// split controller specialises the staleness model with.
#[derive(Debug, Clone, PartialEq)]
pub struct HotKeyStat {
    /// The interned key (what the read path's hot-set lookup matches on).
    pub key: KeyId,
    /// The key's human-readable name, resolved once per sweep for reports.
    pub name: String,
    /// Smoothed per-key write arrival rate (writes/second).
    pub write_rate: f64,
    /// Guaranteed share of all observed writes going to this key.
    pub share: f64,
    /// Deepest per-replica pending-mutation backlog for this key (ms).
    pub backlog_ms: f64,
    /// Guaranteed (certain) occurrence count from the sketch.
    pub guaranteed_count: u64,
}

/// The periodic monitoring module.
pub struct Monitor {
    config: MonitorConfig,
    estimator: SlidingWindowRate,
    /// Smooths the replica-write (mutation-stage) arrival counts the same way
    /// client rates are smoothed; writes side unused.
    arrival_estimator: SlidingWindowRate,
    last_sweep_at: Option<SimTime>,
    last_reads: u64,
    last_writes: u64,
    last_write_arrivals: u64,
    last_service_completed: u64,
    last_service_ms_total: f64,
    last_service_ms_sq_total: f64,
    /// Most recent per-sweep service-time estimates, retained across sweeps
    /// that complete no mutations (or hit a counter reset).
    last_service_mean_ms: f64,
    last_service_scv: f64,
    last_latency_ms: f64,
    /// Recent (time, mean backlog) points used for the trend estimate.
    backlog_history: std::collections::VecDeque<(SimTime, f64)>,
    /// Recent (time, predicted wait) points for the predicted-wait trend.
    predicted_history: std::collections::VecDeque<(SimTime, f64)>,
    /// The probe's fault epoch at the previous sweep; any change segments the
    /// trend histories (a membership change shifts the backlog baseline, so a
    /// slope spanning it would be spurious).
    last_fault_epoch: u64,
    /// Heavy-hitter tracking over the probe's write-key sample stream.
    hot_tracker: HotKeyTracker,
    /// Hot-key stats of the most recent sweep (sorted hottest first).
    hot_stats: Vec<HotKeyStat>,
    history: Vec<MonitorSample>,
}

/// Debug-asserting clamp for backlog telemetry crossing the probe boundary:
/// a negative backlog is an upstream sign bug (the store's own scans assert
/// the same invariant at the source), so debug builds fail loudly while
/// release builds clamp and keep serving — the
/// `stale_probability_saturating` convention.
fn non_negative_telemetry(ms: f64) -> f64 {
    debug_assert!(ms >= 0.0, "negative backlog reported by the probe: {ms} ms");
    ms.max(0.0)
}

/// Population mean and standard deviation of a slice; (0, 0) when empty.
fn mean_and_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.max(0.0).sqrt())
}

impl Monitor {
    /// Creates a monitor.
    ///
    /// # Panics
    /// Panics if the interval or the estimator window is not strictly
    /// positive.
    pub fn new(config: MonitorConfig) -> Self {
        assert!(
            config.interval_secs > 0.0,
            "monitoring interval must be positive"
        );
        let EstimatorKind::SlidingWindow(window) = config.estimator;
        Monitor {
            estimator: SlidingWindowRate::new(window),
            arrival_estimator: SlidingWindowRate::new(window),
            hot_tracker: HotKeyTracker::new(config.hot_key_capacity, config.hot_key_min_share),
            hot_stats: Vec::new(),
            config,
            last_sweep_at: None,
            last_reads: 0,
            last_writes: 0,
            last_write_arrivals: 0,
            last_service_completed: 0,
            last_service_ms_total: 0.0,
            last_service_ms_sq_total: 0.0,
            last_service_mean_ms: 0.0,
            last_service_scv: 1.0,
            last_latency_ms: 0.0,
            backlog_history: std::collections::VecDeque::new(),
            predicted_history: std::collections::VecDeque::new(),
            last_fault_epoch: 0,
            history: Vec::new(),
        }
    }

    /// How far back the backlog-trend estimate looks: the sliding-window
    /// length, and never less than a few sweeps.
    fn trend_window_secs(&self) -> f64 {
        let EstimatorKind::SlidingWindow(window) = self.config.estimator;
        window.max(self.config.interval_secs * 5.0)
    }

    /// The monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// The monitoring interval as a [`SimTime`].
    pub fn interval(&self) -> SimTime {
        SimTime::from_secs_f64(self.config.interval_secs)
    }

    /// The modelled duration of one sweep over `nodes` nodes, given the
    /// configured per-node probe cost and probing parallelism.
    pub fn sweep_duration(&self, nodes: usize) -> SimTime {
        let threads = self.config.probe_threads.max(1);
        let per_thread = nodes.div_ceil(threads);
        SimTime::from_millis_f64(self.config.probe_cost_per_node_ms.max(0.0) * per_thread as f64)
    }

    /// Performs one monitoring sweep against the probe at virtual time `now`.
    pub fn sweep<P: ClusterProbe + ?Sized>(&mut self, now: SimTime, probe: &P) -> MonitorSample {
        let reads = probe.total_reads();
        let writes = probe.total_writes();
        let sweep_duration = self.sweep_duration(probe.node_count());

        // Topology change since the previous sweep (crash, heal, join,
        // decommission, partition): the backlog baseline just shifted, so any
        // trend slope spanning the change would be spurious — a join draining
        // load reads as a crash-grade collapse, a decommission as runaway
        // growth. Segment both trend histories at the epoch boundary; the
        // first post-change sweep reports a zero trend and the slope rebuilds
        // from in-epoch points only.
        let fault_epoch = probe.fault_epoch();
        if fault_epoch != self.last_fault_epoch {
            self.last_fault_epoch = fault_epoch;
            self.backlog_history.clear();
            self.predicted_history.clear();
        }

        // Latency probe: the probe reports one figure. (Richer probes may
        // fold several pairwise measurements themselves.)
        let latency_ms = probe.probe_latency_ms();

        // Backlog: prefer the per-node view (mean + cross-replica spread);
        // fall back to the scalar aggregate for backends without it.
        let replica_backlogs = probe.replica_backlog_ms();
        let (backlog_ms, backlog_spread_ms) = if replica_backlogs.is_empty() {
            (probe.mutation_backlog_ms().max(0.0), 0.0)
        } else {
            mean_and_std(&replica_backlogs)
        };

        // Write-stage telemetry: arrival counts feed a smoothed per-replica
        // arrival rate; per-sweep *deltas* of the accumulated sampled service
        // times give the measured service mean and SCV (normalised per
        // concurrency slot), so a drifting service time is visible within one
        // sweep instead of being averaged away by the run's history. A
        // counter reset (node restart) makes a delta go negative; the sweep
        // then retains the previous estimates and re-baselines.
        let telemetry = probe.write_stage_telemetry();
        let write_arrivals: u64 = telemetry.iter().map(|t| t.arrivals).sum();
        let completed: u64 = telemetry.iter().map(|t| t.completed).sum();
        let service_total_ms: f64 = telemetry.iter().map(|t| t.service_ms_total).sum();
        let service_sq_total: f64 = telemetry.iter().map(|t| t.service_ms_sq_total).sum();
        let concurrency = probe.write_stage_concurrency().max(1) as f64;
        let completed_delta = completed.saturating_sub(self.last_service_completed);
        let service_ms_delta = service_total_ms - self.last_service_ms_total;
        let service_sq_delta = service_sq_total - self.last_service_ms_sq_total;
        let reset = completed < self.last_service_completed
            || service_ms_delta < 0.0
            || service_sq_delta < 0.0;
        if !reset && completed_delta > 0 && service_ms_delta > 0.0 {
            let raw_mean = service_ms_delta / completed_delta as f64;
            let raw_var =
                (service_sq_delta / completed_delta as f64 - raw_mean * raw_mean).max(0.0);
            self.last_service_mean_ms = raw_mean / concurrency;
            self.last_service_scv = raw_var / (raw_mean * raw_mean);
        }
        self.last_service_completed = completed;
        self.last_service_ms_total = service_total_ms;
        self.last_service_ms_sq_total = service_sq_total;
        let (write_service_mean_ms, write_service_scv) =
            (self.last_service_mean_ms, self.last_service_scv);

        let elapsed_secs = match self.last_sweep_at {
            Some(prev) => now.saturating_sub(prev).as_secs_f64(),
            None => self.config.interval_secs,
        } + sweep_duration.as_secs_f64();

        let reads_delta = reads.saturating_sub(self.last_reads);
        let writes_delta = writes.saturating_sub(self.last_writes);
        let arrivals_delta = write_arrivals.saturating_sub(self.last_write_arrivals);
        if elapsed_secs > 0.0 {
            self.estimator
                .observe(elapsed_secs, reads_delta, writes_delta);
            self.arrival_estimator
                .observe(elapsed_secs, arrivals_delta, 0);
        }

        // Heavy hitters: feed this sweep's write-key samples to the sketch,
        // then snapshot the hot set with its per-key backlogs. Backends
        // without per-key signals produce an empty stream and the snapshot
        // stays empty — the per-key layer degrades to the global model. A
        // sharded backend publishes per-shard cumulative sketches instead of
        // a sample stream; they fold into one cluster sketch here, at the
        // same point of the sweep, so everything downstream (hot set,
        // per-key backlogs, split decisions) is shard-count agnostic.
        match probe.write_key_sketches() {
            Some(shard_sketches) => {
                let mut merged =
                    crate::heavy_hitters::SpaceSavingSketch::new(self.config.hot_key_capacity);
                for sketch in &shard_sketches {
                    merged.merge(sketch);
                }
                self.hot_tracker.observe_merged(merged, elapsed_secs);
            }
            None => {
                let key_samples = probe.drain_write_key_samples();
                self.hot_tracker.observe_sweep(&key_samples, elapsed_secs);
            }
        }
        let hot = self.hot_tracker.hot_keys();
        self.hot_stats = if hot.is_empty() {
            Vec::new()
        } else {
            let keys: Vec<KeyId> = hot.iter().map(|h| h.key).collect();
            let backlogs = probe.per_key_backlog_ms(&keys);
            hot.into_iter()
                .enumerate()
                .map(|(i, h)| HotKeyStat {
                    key: h.key,
                    name: probe.key_name(h.key),
                    write_rate: h.rate,
                    share: h.share,
                    backlog_ms: non_negative_telemetry(backlogs.get(i).copied().unwrap_or(0.0)),
                    guaranteed_count: h.guaranteed_count,
                })
                .collect()
        };

        // Backlog trend: slope between the oldest retained point and now.
        let backlog_trend_ms_per_s = match self.backlog_history.front() {
            Some(&(t0, b0)) => {
                let dt = now.saturating_sub(t0).as_secs_f64();
                if dt > 0.0 {
                    (backlog_ms - b0) / dt
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        self.backlog_history.push_back((now, backlog_ms));
        let horizon = SimTime::from_secs_f64(self.trend_window_secs());
        while let Some(&(t0, _)) = self.backlog_history.front() {
            if now.saturating_sub(t0) > horizon && self.backlog_history.len() > 2 {
                self.backlog_history.pop_front();
            } else {
                break;
            }
        }

        // Per-replica normalisation over the nodes that actually produced
        // telemetry this sweep: a crashed replica contributes no arrivals,
        // and dividing by the full node count would read its silence as a
        // lower per-replica rate — dragging the utilisation estimate down
        // exactly when replicas are lost.
        let nodes = probe.live_node_count().max(1) as f64;
        let write_arrival_rate_per_replica =
            self.arrival_estimator.estimate().reads_per_sec / nodes;

        // Predicted queue wait: the Pollaczek–Khinchine wait of this sweep's
        // smoothed arrival/service fit, through the *saturating* accessor so
        // a sweep at ρ ≥ 1 reports the trend-window worst case instead of
        // infinity (an infinite point would poison the trend slope below with
        // `inf - inf = NaN`). The prediction moves with the arrival rate, one
        // monitoring period before the backlog those arrivals will build.
        let predicted_wait_ms = MG1Queue::new(
            write_arrival_rate_per_replica,
            write_service_mean_ms / 1e3,
            write_service_scv,
        )
        .mean_wait_secs_saturating(self.trend_window_secs())
            * 1e3;
        let predicted_wait_trend_ms_per_s = match self.predicted_history.front() {
            Some(&(t0, p0)) => {
                let dt = now.saturating_sub(t0).as_secs_f64();
                if dt > 0.0 {
                    (predicted_wait_ms - p0) / dt
                } else {
                    0.0
                }
            }
            None => 0.0,
        };
        self.predicted_history.push_back((now, predicted_wait_ms));
        while let Some(&(t0, _)) = self.predicted_history.front() {
            if now.saturating_sub(t0) > horizon && self.predicted_history.len() > 2 {
                self.predicted_history.pop_front();
            } else {
                break;
            }
        }

        self.last_sweep_at = Some(now);
        self.last_reads = reads;
        self.last_writes = writes;
        self.last_write_arrivals = write_arrivals;
        self.last_latency_ms = latency_ms;

        let est = self.estimator.estimate();
        let sample = MonitorSample {
            at: now,
            elapsed_secs,
            reads_delta,
            writes_delta,
            read_rate: est.reads_per_sec,
            write_rate: est.writes_per_sec,
            latency_ms,
            backlog_ms,
            backlog_spread_ms,
            backlog_trend_ms_per_s,
            write_arrival_rate_per_replica,
            write_service_mean_ms,
            write_service_scv,
            predicted_wait_ms,
            predicted_wait_trend_ms_per_s,
            sweep_duration_ms: sweep_duration.as_millis_f64(),
        };
        self.history.push(sample);
        sample
    }

    /// The latest aggregated latency (milliseconds).
    pub fn current_latency_ms(&self) -> f64 {
        self.last_latency_ms
    }

    /// All sweeps performed so far.
    pub fn history(&self) -> &[MonitorSample] {
        &self.history
    }

    /// The hot-key stats of the most recent sweep, hottest first. Empty while
    /// the sketch warms up, under unskewed load, or on backends that cannot
    /// observe per-key writes.
    pub fn hot_key_stats(&self) -> &[HotKeyStat] {
        &self.hot_stats
    }

    /// Read-only access to the heavy-hitter tracker (tests, tools).
    pub fn hot_tracker(&self) -> &HotKeyTracker {
        &self.hot_tracker
    }

    /// Upper bound on the write share of any key outside the current hot set
    /// (see [`HotKeyTracker::cold_share_bound`]).
    pub fn cold_share_bound(&self) -> f64 {
        self.hot_tracker.cold_share_bound()
    }

    /// Exports the monitor's latest sweep (gauges) and its full sweep history
    /// (histograms over the per-sweep signals) into a metrics registry.
    /// Collect-on-scrape: nothing here runs during the simulation.
    pub fn export_metrics(&self, registry: &harmony_obs::MetricsRegistry) {
        let Some(last) = self.history.last() else {
            return;
        };
        for (name, value) in [
            ("harmony_monitor_read_rate", last.read_rate),
            ("harmony_monitor_write_rate", last.write_rate),
            ("harmony_monitor_latency_ms", last.latency_ms),
            ("harmony_monitor_backlog_ms", last.backlog_ms),
            ("harmony_monitor_backlog_spread_ms", last.backlog_spread_ms),
            (
                "harmony_monitor_backlog_trend_ms_per_s",
                last.backlog_trend_ms_per_s,
            ),
            ("harmony_monitor_predicted_wait_ms", last.predicted_wait_ms),
        ] {
            registry.gauge(name).set(value);
        }
        registry
            .counter("harmony_monitor_sweeps_total")
            .add(self.history.len() as u64);
        // Distribution of the signals over the whole run, one sample per
        // sweep: histograms answer "how bad did the backlog get and how
        // often" where the gauges only show the final state.
        let backlog = registry.histogram("harmony_monitor_backlog_us");
        let predicted = registry.histogram("harmony_monitor_predicted_wait_us");
        for s in &self.history {
            backlog.record_us(s.backlog_ms.max(0.0) * 1e3);
            predicted.record_us(s.predicted_wait_ms.max(0.0) * 1e3);
        }
        for stat in &self.hot_stats {
            registry
                .gauge(&harmony_obs::series_name(
                    "harmony_monitor_hot_key_backlog_ms",
                    &[("key", &stat.name)],
                ))
                .set(stat.backlog_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::MockProbe;

    fn monitor() -> Monitor {
        Monitor::new(MonitorConfig::default())
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_panics() {
        Monitor::new(MonitorConfig {
            interval_secs: 0.0,
            ..MonitorConfig::default()
        });
    }

    #[test]
    fn rates_from_counter_deltas() {
        let mut m = monitor();
        let mut probe = MockProbe {
            reads: 0,
            writes: 0,
            latency_ms: 0.4,
            nodes: 8,
            backlog_ms: 0.0,
            ..MockProbe::default()
        };
        m.sweep(SimTime::from_secs(1), &probe);
        probe.reads = 1000;
        probe.writes = 500;
        let s = m.sweep(SimTime::from_secs(2), &probe);
        assert_eq!(s.reads_delta, 1000);
        assert_eq!(s.writes_delta, 500);
        // The sliding window spans both sweeps (the first one had zero
        // deltas), so the smoothed rate is ~1000 ops over ~2 seconds.
        assert!(
            s.read_rate > 450.0 && s.read_rate <= 500.0,
            "rate={}",
            s.read_rate
        );
        assert!(
            s.write_rate > 225.0 && s.write_rate <= 250.0,
            "rate={}",
            s.write_rate
        );
        assert!((m.current_latency_ms() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn counter_reset_does_not_underflow() {
        let mut m = monitor();
        let mut probe = MockProbe {
            reads: 1000,
            writes: 1000,
            latency_ms: 1.0,
            nodes: 4,
            backlog_ms: 0.0,
            ..MockProbe::default()
        };
        m.sweep(SimTime::from_secs(1), &probe);
        // A node restart could reset the counters; delta saturates at zero.
        probe.reads = 10;
        probe.writes = 5;
        let s = m.sweep(SimTime::from_secs(2), &probe);
        assert_eq!(s.reads_delta, 0);
        assert_eq!(s.writes_delta, 0);
    }

    #[test]
    fn sweep_duration_accounts_for_parallel_probing() {
        let m = Monitor::new(MonitorConfig {
            probe_cost_per_node_ms: 1.0,
            probe_threads: 4,
            ..MonitorConfig::default()
        });
        // 20 nodes over 4 threads = 5 sequential probes of 1 ms each.
        assert_eq!(m.sweep_duration(20), SimTime::from_millis(5));
        // More threads than nodes: a single probe's cost.
        assert_eq!(m.sweep_duration(2), SimTime::from_millis(1));
        assert_eq!(m.sweep_duration(0), SimTime::ZERO);
    }

    #[test]
    fn sweep_duration_is_added_to_elapsed_time() {
        let mut m = Monitor::new(MonitorConfig {
            probe_cost_per_node_ms: 100.0, // deliberately huge: 1 node => 0.1 s
            probe_threads: 1,
            estimator: EstimatorKind::SlidingWindow(1.0),
            ..MonitorConfig::default()
        });
        let mut probe = MockProbe {
            reads: 0,
            writes: 0,
            latency_ms: 1.0,
            nodes: 1,
            backlog_ms: 0.0,
            ..MockProbe::default()
        };
        m.sweep(SimTime::from_secs(1), &probe);
        probe.reads = 1100;
        let s = m.sweep(SimTime::from_secs(2), &probe);
        // Elapsed is 1.0 s between sweeps + 0.1 s sweep cost = 1.1 s,
        // so the rate is 1100 / 1.1 = 1000, not 1100.
        assert!((s.read_rate - 1000.0).abs() < 1.0, "rate={}", s.read_rate);
    }

    #[test]
    fn per_replica_backlogs_produce_mean_and_spread() {
        // Run the same sweep twice: once with only the scalar aggregate and
        // once with the per-replica view layered on top. The per-replica view
        // must win whenever it is present — the sample reports the replica
        // mean, not whatever the scalar fallback claims.
        let scalar_only = MockProbe {
            nodes: 4,
            latency_ms: 0.3,
            backlog_ms: 99.0,
            ..MockProbe::default()
        };
        let s = monitor().sweep(SimTime::from_secs(1), &scalar_only);
        assert_eq!(
            s.backlog_ms, 99.0,
            "without a per-replica view the scalar is used"
        );

        let with_replica_view = MockProbe {
            replica_backlogs: vec![1.0, 3.0, 5.0, 7.0],
            ..scalar_only
        };
        let s = monitor().sweep(SimTime::from_secs(1), &with_replica_view);
        assert!(
            (s.backlog_ms - 4.0).abs() < 1e-12,
            "the per-replica mean must win over the scalar aggregate, got {}",
            s.backlog_ms
        );
        assert_ne!(s.backlog_ms, with_replica_view.backlog_ms);
        // Population std of [1,3,5,7] = sqrt(5).
        assert!((s.backlog_spread_ms - 5.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn scalar_backlog_fallback_has_zero_spread() {
        let mut m = monitor();
        let probe = MockProbe {
            nodes: 4,
            latency_ms: 0.3,
            backlog_ms: 2.5,
            ..MockProbe::default()
        };
        let s = m.sweep(SimTime::from_secs(1), &probe);
        assert_eq!(s.backlog_ms, 2.5);
        assert_eq!(s.backlog_spread_ms, 0.0);
    }

    #[test]
    fn backlog_trend_tracks_growth_and_plateau() {
        let mut m = monitor();
        let mut probe = MockProbe {
            nodes: 2,
            latency_ms: 0.3,
            ..MockProbe::default()
        };
        // Growing backlog: 0 → 2 → 4 ms over two 1-second steps.
        for (i, b) in [0.0, 2.0, 4.0].iter().enumerate() {
            probe.backlog_ms = *b;
            m.sweep(SimTime::from_secs(i as u64 + 1), &probe);
        }
        let s = m.history().last().copied().unwrap();
        assert!(
            (s.backlog_trend_ms_per_s - 2.0).abs() < 1e-9,
            "trend={}",
            s.backlog_trend_ms_per_s
        );
        // Plateau: the trend decays back towards zero.
        for i in 4..=12u64 {
            probe.backlog_ms = 4.0;
            m.sweep(SimTime::from_secs(i), &probe);
        }
        let s = m.history().last().copied().unwrap();
        assert!(
            s.backlog_trend_ms_per_s.abs() < 0.2,
            "trend={}",
            s.backlog_trend_ms_per_s
        );
    }

    #[test]
    fn write_stage_telemetry_yields_arrival_rate_and_service_stats() {
        use harmony_store::node::WriteStageTelemetry;
        let mut m = Monitor::new(MonitorConfig {
            estimator: EstimatorKind::SlidingWindow(1.0),
            probe_cost_per_node_ms: 0.0,
            ..MonitorConfig::default()
        });
        let mut probe = MockProbe {
            nodes: 2,
            latency_ms: 0.3,
            write_concurrency: 2,
            ..MockProbe::default()
        };
        m.sweep(SimTime::from_secs(1), &probe);
        // 400 mutations arrive across 2 nodes in 1 s; mean sampled service
        // 0.5 ms with some dispersion.
        probe.write_telemetry = vec![
            WriteStageTelemetry {
                arrivals: 200,
                completed: 200,
                service_ms_total: 100.0,
                service_ms_sq_total: 100.0,
                queued: 0,
                busy: 0,
            },
            WriteStageTelemetry {
                arrivals: 200,
                completed: 200,
                service_ms_total: 100.0,
                service_ms_sq_total: 50.0,
                queued: 0,
                busy: 0,
            },
        ];
        let s = m.sweep(SimTime::from_secs(2), &probe);
        // 400 arrivals / 1 s / 2 nodes = 200 jobs/s per replica.
        assert!(
            (s.write_arrival_rate_per_replica - 200.0).abs() < 1.0,
            "rate={}",
            s.write_arrival_rate_per_replica
        );
        // Raw mean 0.5 ms normalised by concurrency 2 → 0.25 ms.
        assert!(
            (s.write_service_mean_ms - 0.25).abs() < 1e-9,
            "mean={}",
            s.write_service_mean_ms
        );
        // SCV = var / mean² on the raw scale: (0.375/0.25 - 1) = 0.5.
        assert!(
            (s.write_service_scv - 0.5).abs() < 1e-9,
            "scv={}",
            s.write_service_scv
        );
    }

    #[test]
    fn service_stats_track_drift_and_survive_counter_resets() {
        use harmony_store::node::WriteStageTelemetry;
        let mut m = monitor();
        let mut probe = MockProbe {
            nodes: 1,
            latency_ms: 0.3,
            write_concurrency: 1,
            ..MockProbe::default()
        };
        let telemetry = |completed: u64, per_job_ms: f64| {
            vec![WriteStageTelemetry {
                arrivals: completed,
                completed,
                service_ms_total: completed as f64 * per_job_ms,
                service_ms_sq_total: completed as f64 * per_job_ms * per_job_ms,
                queued: 0,
                busy: 0,
            }]
        };
        // 100 jobs at 0.5 ms each.
        probe.write_telemetry = telemetry(100, 0.5);
        let s = m.sweep(SimTime::from_secs(1), &probe);
        assert!((s.write_service_mean_ms - 0.5).abs() < 1e-9);
        // The next 100 jobs take 2 ms each (noisy neighbour): the per-sweep
        // delta sees the new mean immediately, not the run-lifetime average.
        probe.write_telemetry = vec![WriteStageTelemetry {
            arrivals: 200,
            completed: 200,
            service_ms_total: 100.0 * 0.5 + 100.0 * 2.0,
            service_ms_sq_total: 100.0 * 0.25 + 100.0 * 4.0,
            queued: 0,
            busy: 0,
        }];
        let s = m.sweep(SimTime::from_secs(2), &probe);
        assert!(
            (s.write_service_mean_ms - 2.0).abs() < 1e-9,
            "mean={}",
            s.write_service_mean_ms
        );
        // Node restart: counters reset below the baseline. The sweep keeps
        // the previous estimates instead of mixing epochs.
        probe.write_telemetry = telemetry(10, 0.5);
        let s = m.sweep(SimTime::from_secs(3), &probe);
        assert!((s.write_service_mean_ms - 2.0).abs() < 1e-9);
        // After re-baselining, fresh deltas are measured again.
        probe.write_telemetry = telemetry(60, 0.5);
        let s = m.sweep(SimTime::from_secs(4), &probe);
        assert!(
            (s.write_service_mean_ms - 0.5).abs() < 1e-9,
            "mean={}",
            s.write_service_mean_ms
        );
    }

    #[test]
    fn silent_node_does_not_drag_the_cluster_estimate_down() {
        // Regression: a replica with zero samples in a tick (crashed, cut
        // off, or simply not probed) must read as "no telemetry", not as a
        // 0.0 rate or a 0.0 backlog averaged into the cluster estimate.
        use harmony_store::node::WriteStageTelemetry;
        let mut m = Monitor::new(MonitorConfig {
            estimator: EstimatorKind::SlidingWindow(1.0),
            probe_cost_per_node_ms: 0.0,
            ..MonitorConfig::default()
        });
        let telemetry = |completed: u64| WriteStageTelemetry {
            arrivals: completed,
            completed,
            service_ms_total: completed as f64 * 0.5,
            service_ms_sq_total: completed as f64 * 0.25,
            queued: 0,
            busy: 0,
        };
        let mut probe = MockProbe {
            nodes: 4,
            live_nodes: Some(4),
            latency_ms: 0.3,
            write_concurrency: 1,
            write_telemetry: vec![telemetry(0); 4],
            replica_backlogs: vec![8.0, 8.0, 8.0, 8.0],
            ..MockProbe::default()
        };
        m.sweep(SimTime::from_secs(1), &probe);

        // One node dies: its counters freeze, its backlog entry disappears,
        // and only three nodes produce telemetry. 300 arrivals over 3 live
        // nodes is 100 jobs/s per replica — dividing by the full node count
        // would report 75 and understate the write-stage utilisation by 25%
        // exactly when a replica was lost.
        probe.live_nodes = Some(3);
        probe.write_telemetry = vec![telemetry(100), telemetry(100), telemetry(100), telemetry(0)];
        probe.replica_backlogs = vec![8.0, 8.0, 8.0];
        let s = m.sweep(SimTime::from_secs(2), &probe);
        assert!(
            (s.write_arrival_rate_per_replica - 100.0).abs() < 1.0,
            "per-replica rate must be normalised over live nodes, got {}",
            s.write_arrival_rate_per_replica
        );
        // The dead node's missing backlog entry is skipped, not read as 0:
        // the mean stays at the live replicas' 8 ms and the dispersion stays
        // zero (a phantom 0 would report mean 6 and a wide spread).
        assert!((s.backlog_ms - 8.0).abs() < 1e-12, "mean={}", s.backlog_ms);
        assert_eq!(s.backlog_spread_ms, 0.0);
        // The frozen counters produce no service-time delta and the measured
        // mean survives instead of collapsing; no NaN anywhere.
        assert!((s.write_service_mean_ms - 0.5).abs() < 1e-9);
        assert!(s.write_service_scv.is_finite());
        assert!(s.read_rate.is_finite() && s.write_rate.is_finite());
        assert!(s.backlog_trend_ms_per_s.is_finite());
    }

    #[test]
    fn sharded_sweep_normalises_by_the_post_change_live_view() {
        // Sharded extension of the silent-node regression: the probe feeds
        // the monitor per-shard sketches (the merge path, not the sample
        // drain) and a node joins *between two shard merges* — so by the
        // time the monitor sweeps, live_node_count already reports the
        // post-join membership while the older shard's telemetry still has
        // the pre-join width. Per-replica normalisation must follow the
        // fresh live view, and the hot set must come out of the merged
        // sketches.
        use crate::heavy_hitters::SpaceSavingSketch;
        use harmony_store::node::WriteStageTelemetry;
        let telemetry = |completed: u64| WriteStageTelemetry {
            arrivals: completed,
            completed,
            service_ms_total: completed as f64 * 0.5,
            service_ms_sq_total: completed as f64 * 0.25,
            queued: 0,
            busy: 0,
        };
        let mut m = Monitor::new(MonitorConfig {
            estimator: EstimatorKind::SlidingWindow(1.0),
            probe_cost_per_node_ms: 0.0,
            hot_key_capacity: 8,
            hot_key_min_share: 0.05,
            ..MonitorConfig::default()
        });
        let mut probe = MockProbe {
            nodes: 4,
            live_nodes: Some(4),
            latency_ms: 0.3,
            write_concurrency: 1,
            write_telemetry: vec![telemetry(0); 4],
            ..MockProbe::default()
        };
        let hot = probe.intern("user0");
        let cold = probe.intern("user17");
        let sketch_pair = |hot_n: u64, cold_n: u64| {
            let mut a = SpaceSavingSketch::new(8);
            let mut b = SpaceSavingSketch::new(8);
            for _ in 0..hot_n {
                a.observe(hot);
            }
            for _ in 0..cold_n {
                b.observe(cold);
            }
            vec![a, b]
        };
        // Several steady sweeps with growing *cumulative* sketches — exactly
        // what the sharded runtime publishes — warm the tracker up.
        for sweep in 1..=5u64 {
            probe.sketches = Some(sketch_pair(90 * sweep, 10 * sweep));
            m.sweep(SimTime::from_secs(sweep), &probe);
        }

        // The join lands mid-sweep: epoch bumps, the live view is already
        // the post-join one, and this sweep's telemetry spans the new width.
        probe.nodes = 5;
        probe.live_nodes = Some(5);
        probe.epoch = 1;
        probe.write_telemetry = vec![
            telemetry(100),
            telemetry(100),
            telemetry(100),
            telemetry(100),
            telemetry(100),
        ];
        probe.sketches = Some(sketch_pair(90 * 6, 10 * 6));
        let s = m.sweep(SimTime::from_secs(6), &probe);
        // 500 arrivals over 5 live nodes = 100 jobs/s per replica; dividing
        // by the stale 4-node view would claim 125 and overstate pressure
        // exactly when capacity was just added.
        assert!(
            (s.write_arrival_rate_per_replica - 100.0).abs() < 1.0,
            "per-replica rate must use the post-join live view, got {}",
            s.write_arrival_rate_per_replica
        );
        // The merged sketches reached the hot tracker: the skewed key
        // surfaces with its cross-shard share, the cold one does not.
        let stats = m.hot_key_stats();
        assert!(!stats.is_empty(), "hot key must surface via sketch merge");
        assert_eq!(stats[0].key, hot);
        assert!(stats[0].share > 0.5, "share = {}", stats[0].share);
        assert!(s.read_rate.is_finite() && s.write_rate.is_finite());
    }

    #[test]
    fn missing_write_telemetry_defaults_to_exponential_assumption() {
        let mut m = monitor();
        let probe = MockProbe {
            nodes: 3,
            latency_ms: 0.2,
            ..MockProbe::default()
        };
        let s = m.sweep(SimTime::from_secs(1), &probe);
        assert_eq!(s.write_arrival_rate_per_replica, 0.0);
        assert_eq!(s.write_service_mean_ms, 0.0);
        assert_eq!(s.write_service_scv, 1.0);
    }

    #[test]
    fn hot_keys_surface_with_rates_and_backlogs() {
        let mut m = Monitor::new(MonitorConfig {
            estimator: EstimatorKind::SlidingWindow(1.0),
            probe_cost_per_node_ms: 0.0,
            hot_key_capacity: 8,
            hot_key_min_share: 0.05,
            ..MonitorConfig::default()
        });
        let mut probe = MockProbe {
            nodes: 4,
            latency_ms: 0.3,
            ..MockProbe::default()
        };
        probe.key_backlogs.insert("user0".to_string(), 12.5);
        // Skewed stream: 60% of writes hit user0, the rest a cold tail.
        for sweep in 1..=6u64 {
            let mut batch = Vec::new();
            for i in 0..100u64 {
                if i % 5 < 3 {
                    batch.push("user0".to_string());
                } else {
                    batch.push(format!("user{}", 1 + (sweep * 100 + i) % 40));
                }
            }
            probe.set_write_keys(&batch);
            m.sweep(SimTime::from_secs(sweep), &probe);
        }
        let stats = m.hot_key_stats();
        assert!(!stats.is_empty(), "hot key should surface");
        assert_eq!(stats[0].key, probe.intern("user0"));
        assert_eq!(stats[0].name, "user0");
        assert!(stats[0].share > 0.5, "share = {}", stats[0].share);
        assert!(
            (stats[0].write_rate - 60.0).abs() < 10.0,
            "rate = {}",
            stats[0].write_rate
        );
        assert_eq!(stats[0].backlog_ms, 12.5);
    }

    #[test]
    fn unskewed_stream_produces_no_hot_keys() {
        let mut m = Monitor::new(MonitorConfig {
            probe_cost_per_node_ms: 0.0,
            hot_key_capacity: 8,
            ..MonitorConfig::default()
        });
        let probe = MockProbe {
            nodes: 4,
            latency_ms: 0.3,
            ..MockProbe::default()
        };
        for sweep in 1..=8u64 {
            let batch: Vec<String> = (0..100u64)
                .map(|i| format!("user{}", (sweep * 100 + i * 13) % 400))
                .collect();
            probe.set_write_keys(&batch);
            m.sweep(SimTime::from_secs(sweep), &probe);
        }
        assert!(m.hot_key_stats().is_empty());
    }

    #[test]
    fn predicted_wait_matches_the_mg1_fit_and_saturates() {
        use harmony_store::node::WriteStageTelemetry;
        let mut m = Monitor::new(MonitorConfig {
            estimator: EstimatorKind::SlidingWindow(1.0),
            probe_cost_per_node_ms: 0.0,
            ..MonitorConfig::default()
        });
        let telemetry = |arrivals: u64, per_job_ms: f64| {
            vec![WriteStageTelemetry {
                arrivals,
                completed: arrivals,
                service_ms_total: arrivals as f64 * per_job_ms,
                service_ms_sq_total: arrivals as f64 * per_job_ms * per_job_ms,
                queued: 0,
                busy: 0,
            }]
        };
        let mut probe = MockProbe {
            nodes: 1,
            latency_ms: 0.3,
            write_concurrency: 1,
            write_telemetry: telemetry(0, 1.0),
            ..MockProbe::default()
        };
        let s = m.sweep(SimTime::from_secs(1), &probe);
        assert_eq!(s.predicted_wait_ms, 0.0);
        // 500 arrivals/s at a deterministic 1 ms service: ρ = 0.5, and the
        // P-K wait for c² = 0 is ρ/2 · E[S]/(1-ρ) = 0.5 ms.
        probe.write_telemetry = telemetry(500, 1.0);
        let s = m.sweep(SimTime::from_secs(2), &probe);
        let expected_ms = MG1Queue::new(
            s.write_arrival_rate_per_replica,
            s.write_service_mean_ms / 1e3,
            s.write_service_scv,
        )
        .mean_wait_secs()
            * 1e3;
        assert!(
            (s.predicted_wait_ms - expected_ms).abs() < 1e-9,
            "predicted={} expected={}",
            s.predicted_wait_ms,
            expected_ms
        );
        assert!(s.predicted_wait_ms > 0.0);
        // Past saturation the raw wait is infinite; the published prediction
        // saturates at the trend window and every derived figure stays finite.
        probe.write_telemetry = telemetry(2000, 1.0);
        let s = m.sweep(SimTime::from_secs(3), &probe);
        assert!(s.predicted_wait_ms.is_finite());
        assert!((s.predicted_wait_ms - m.trend_window_secs() * 1e3).abs() < 1e-9);
        assert!(s.predicted_wait_trend_ms_per_s.is_finite());
    }

    #[test]
    fn predicted_wait_trend_tracks_the_arrival_ramp() {
        use harmony_store::node::WriteStageTelemetry;
        let mut m = Monitor::new(MonitorConfig {
            estimator: EstimatorKind::SlidingWindow(1.0),
            probe_cost_per_node_ms: 0.0,
            ..MonitorConfig::default()
        });
        let telemetry = |cumulative: u64| {
            vec![WriteStageTelemetry {
                arrivals: cumulative,
                completed: cumulative,
                service_ms_total: cumulative as f64,
                service_ms_sq_total: cumulative as f64,
                queued: 0,
                busy: 0,
            }]
        };
        let mut probe = MockProbe {
            nodes: 1,
            latency_ms: 0.3,
            write_concurrency: 1,
            ..MockProbe::default()
        };
        // Ramp the arrival rate sweep over sweep: the predicted wait grows
        // although the measured backlog never moves — this is exactly the
        // lead the proactive controller escalates on.
        let mut cumulative = 0u64;
        let mut last_trend = 0.0;
        for (i, rate) in [100u64, 300, 600, 850].iter().enumerate() {
            cumulative += rate;
            probe.write_telemetry = telemetry(cumulative);
            let s = m.sweep(SimTime::from_secs(i as u64 + 1), &probe);
            assert_eq!(s.backlog_trend_ms_per_s, 0.0);
            last_trend = s.predicted_wait_trend_ms_per_s;
        }
        assert!(last_trend > 0.0, "trend={last_trend}");
    }

    #[test]
    fn topology_change_segments_the_trend_histories() {
        let mut m = monitor();
        let mut probe = MockProbe {
            nodes: 2,
            latency_ms: 0.3,
            ..MockProbe::default()
        };
        // Growing backlog inside one epoch: the slope is real.
        for (i, b) in [0.0, 2.0, 4.0].iter().enumerate() {
            probe.backlog_ms = *b;
            m.sweep(SimTime::from_secs(i as u64 + 1), &probe);
        }
        assert!(m.history().last().unwrap().backlog_trend_ms_per_s > 1.0);
        // A node joins mid-window and takes over load: the baseline shifts
        // (here: sharply down). Without segmentation the slope spanning the
        // join would read as a crash-grade collapse — and the mirror case, a
        // decommission shifting the baseline up, as runaway growth feeding
        // the divergence detector.
        probe.epoch = 1;
        probe.nodes = 3;
        probe.backlog_ms = 0.5;
        let s = m.sweep(SimTime::from_secs(4), &probe);
        assert_eq!(
            s.backlog_trend_ms_per_s, 0.0,
            "the first post-change sweep must not span the rebuild"
        );
        assert_eq!(s.predicted_wait_trend_ms_per_s, 0.0);
        // Within the new epoch the trend rebuilds from in-epoch points only.
        probe.backlog_ms = 1.5;
        let s = m.sweep(SimTime::from_secs(5), &probe);
        assert!(
            (s.backlog_trend_ms_per_s - 1.0).abs() < 1e-9,
            "trend={}",
            s.backlog_trend_ms_per_s
        );
        // A stable epoch does not segment (the counter only moves on faults).
        probe.backlog_ms = 2.5;
        let s = m.sweep(SimTime::from_secs(6), &probe);
        assert!(s.backlog_trend_ms_per_s > 0.9);
    }

    #[test]
    fn non_negative_telemetry_passes_valid_values_through() {
        assert_eq!(non_negative_telemetry(0.0), 0.0);
        assert_eq!(non_negative_telemetry(7.5), 7.5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "negative backlog reported by the probe")]
    fn non_negative_telemetry_panics_on_sign_bugs_in_debug() {
        non_negative_telemetry(-0.25);
    }

    #[test]
    fn history_accumulates() {
        let mut m = monitor();
        let probe = MockProbe {
            nodes: 2,
            latency_ms: 0.2,
            ..MockProbe::default()
        };
        for i in 1..=5 {
            m.sweep(SimTime::from_secs(i), &probe);
        }
        assert_eq!(m.history().len(), 5);
        assert!(m.history().windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn interval_conversion() {
        let m = Monitor::new(MonitorConfig {
            interval_secs: 0.5,
            ..MonitorConfig::default()
        });
        assert_eq!(m.interval(), SimTime::from_millis(500));
    }
}
