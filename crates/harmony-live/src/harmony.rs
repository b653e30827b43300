//! Harmony running against the live, real-threaded cluster.
//!
//! [`LiveHarmony`] wraps a [`LiveCluster`] together with an
//! [`AdaptiveController`]: callers read and write through it, a monitoring
//! probe reports the live counters and propagation delay, and `adapt()` runs
//! one control iteration (the caller decides the cadence — a background
//! thread, a timer, or explicit calls as in the tests).

use crate::cluster::{LiveCluster, Unavailable};
use harmony_adaptive::config::ControllerConfig;
use harmony_adaptive::controller::AdaptiveController;
use harmony_adaptive::policy::ConsistencyPolicy;
use harmony_monitor::probe::ClusterProbe;
use harmony_sim::clock::SimTime;
use harmony_store::consistency::ConsistencyLevel;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

struct LiveProbe<'a> {
    cluster: &'a LiveCluster,
}

impl ClusterProbe for LiveProbe<'_> {
    fn total_reads(&self) -> u64 {
        self.cluster.counters().reads.load(Ordering::Relaxed)
    }
    fn total_writes(&self) -> u64 {
        self.cluster.counters().writes.load(Ordering::Relaxed)
    }
    fn probe_latency_ms(&self) -> f64 {
        self.cluster.config().propagation_delay.as_secs_f64() * 1e3
    }
    fn node_count(&self) -> usize {
        self.cluster.node_count()
    }
    fn live_node_count(&self) -> usize {
        self.cluster.live_node_count()
    }
    fn mutation_backlog_ms(&self) -> f64 {
        self.cluster.mutation_backlog_ms()
    }
    fn replica_backlog_ms(&self) -> Vec<f64> {
        self.cluster.replica_backlog_ms()
    }
    fn write_stage_telemetry(&self) -> Vec<harmony_store::node::WriteStageTelemetry> {
        self.cluster.write_stage_telemetry()
    }
    fn drain_write_key_samples(&self) -> Vec<harmony_store::keys::KeyId> {
        self.cluster.drain_write_key_samples()
    }
    fn key_name(&self, key: harmony_store::keys::KeyId) -> String {
        self.cluster.key_name(key)
    }
    fn fault_epoch(&self) -> u64 {
        self.cluster.fault_state().counters().total()
    }
}

/// Bounded-exponential-backoff retry policy for the live client path: how
/// many attempts an unavailable operation gets, and how long to back off
/// between them. The wall-clock sibling of the YCSB runner's deterministic
/// `RetryPolicy` — an operation that finds no reachable replica sleeps and
/// tries again, because a replica restart or a partition heal can land
/// between attempts. Disabled by default (one attempt, no retries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveRetryPolicy {
    /// Total attempts including the first; `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each subsequent one.
    pub base_backoff: Duration,
    /// Ceiling the doubling backoff clamps to.
    pub max_backoff: Duration,
}

impl Default for LiveRetryPolicy {
    fn default() -> Self {
        LiveRetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(64),
        }
    }
}

impl LiveRetryPolicy {
    /// The backoff before retry number `retry` (1-based): base doubled per
    /// step, clamped to the ceiling.
    pub fn backoff(&self, retry: u32) -> Duration {
        let doubled = self
            .base_backoff
            .saturating_mul(1u32 << retry.saturating_sub(1).min(20));
        doubled.min(self.max_backoff)
    }
}

/// A live cluster with the Harmony control loop attached.
pub struct LiveHarmony {
    cluster: LiveCluster,
    controller: Mutex<AdaptiveController>,
    started: Instant,
}

impl LiveHarmony {
    /// Wraps a running cluster with an adaptive controller using `policy`.
    pub fn new(
        cluster: LiveCluster,
        controller_config: ControllerConfig,
        policy: Box<dyn ConsistencyPolicy>,
    ) -> Self {
        let rf = cluster.config().replication_factor;
        LiveHarmony {
            cluster,
            controller: Mutex::new(AdaptiveController::new(controller_config, rf, policy)),
            started: Instant::now(),
        }
    }

    /// The wrapped cluster.
    pub fn cluster(&self) -> &LiveCluster {
        &self.cluster
    }

    /// Runs one monitoring + adaptation iteration and returns the read level
    /// subsequent reads will use.
    pub fn adapt(&self) -> ConsistencyLevel {
        let now = SimTime::from_duration(self.started.elapsed());
        let probe = LiveProbe {
            cluster: &self.cluster,
        };
        self.controller.lock().tick(now, &probe)
    }

    /// The consistency level the controller currently prescribes for reads.
    pub fn current_read_level(&self) -> ConsistencyLevel {
        self.controller.lock().current_read_level()
    }

    /// The stale-read estimate from the most recent adaptation, if the policy
    /// computes one.
    pub fn last_estimate(&self) -> Option<f64> {
        self.controller
            .lock()
            .decisions()
            .last()
            .and_then(|d| d.estimate)
    }

    /// The hot keys currently escalated above the default level (split mode).
    pub fn hot_set(&self) -> Vec<harmony_adaptive::controller::HotKeyDecision> {
        self.controller.lock().hot_set().to_vec()
    }

    /// Applies one fault event to the underlying cluster (the same typed
    /// schedule the simulated cluster consumes drives the threaded one).
    pub fn apply_fault(&self, fault: &harmony_chaos::FaultEvent) {
        self.cluster.apply_fault(fault);
    }

    /// Reads through the adaptive level, consulting the controller's hot set
    /// per operation: an escalated hot key reads at its own (stronger) level,
    /// everything else at the cheap default. A key that has never been
    /// written has no interned id and cannot be hot, so it reads at the
    /// default level.
    pub fn read(&self, key: &str) -> Option<(Vec<u8>, u64)> {
        let controller = self.controller.lock();
        let level = match self.cluster.key_id(key) {
            Some(id) => controller.read_level_for(id),
            None => controller.current_read_level(),
        };
        drop(controller);
        self.cluster.read(key, level)
    }

    /// Writes at the controller's write level (level ONE, as in the paper).
    pub fn write(&self, key: &str, value: Vec<u8>) -> u64 {
        let level = self.controller.lock().current_write_level();
        self.cluster.write(key, value, level)
    }

    /// [`LiveHarmony::read`] with bounded-backoff retries: an unavailable
    /// read (the key exists but no replica is reachable) sleeps and tries
    /// again up to the policy's attempt budget — a restart or heal between
    /// attempts turns the failure into a success. The adaptive level is
    /// re-resolved per attempt, so a retry benefits from any controller
    /// decision made in the meantime.
    pub fn read_with_retry(
        &self,
        key: &str,
        retry: LiveRetryPolicy,
    ) -> Result<Option<(Vec<u8>, u64)>, Unavailable> {
        let mut attempt = 1;
        loop {
            let level = {
                let controller = self.controller.lock();
                match self.cluster.key_id(key) {
                    Some(id) => controller.read_level_for(id),
                    None => controller.current_read_level(),
                }
            };
            match self.cluster.try_read(key, level) {
                Ok(result) => return Ok(result),
                Err(err) => {
                    if attempt >= retry.max_attempts.max(1) {
                        return Err(err);
                    }
                    std::thread::sleep(retry.backoff(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// [`LiveHarmony::write`] with bounded-backoff retries: a write that no
    /// reachable replica could receive (it survives only as hints) sleeps
    /// and re-issues up to the policy's attempt budget. Returns the version
    /// of the attempt that reached a replica.
    pub fn write_with_retry(
        &self,
        key: &str,
        value: Vec<u8>,
        retry: LiveRetryPolicy,
    ) -> Result<u64, Unavailable> {
        let mut attempt = 1;
        loop {
            let level = self.controller.lock().current_write_level();
            match self.cluster.try_write(key, value.clone(), level) {
                Ok(version) => return Ok(version),
                Err(err) => {
                    if attempt >= retry.max_attempts.max(1) {
                        return Err(err);
                    }
                    std::thread::sleep(retry.backoff(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Arms the controller's decision audit log: every subsequent `adapt()`
    /// records a [`harmony_obs::DecisionAudit`] with the estimate inputs.
    pub fn enable_decision_audit(&self) {
        self.controller.lock().enable_decision_audit();
    }

    /// Scrapes the live cluster and controller into `registry` (collect-on-
    /// scrape, like the simulated stack): client counters, membership and
    /// backlog gauges, plus the controller's decision series.
    pub fn export_metrics(&self, registry: &harmony_obs::MetricsRegistry) {
        let counters = self.cluster.counters();
        for (name, value) in [
            (
                "harmony_live_reads_total",
                counters.reads.load(Ordering::Relaxed),
            ),
            (
                "harmony_live_writes_total",
                counters.writes.load(Ordering::Relaxed),
            ),
            (
                "harmony_live_stale_reads_total",
                counters.stale_reads.load(Ordering::Relaxed),
            ),
            (
                "harmony_live_fault_epoch",
                self.cluster.fault_state().counters().total(),
            ),
        ] {
            registry.counter(name).set_total(value);
        }
        registry
            .gauge("harmony_live_nodes")
            .set(self.cluster.live_node_count() as f64);
        registry
            .gauge("harmony_live_mutation_backlog_ms")
            .set(self.cluster.mutation_backlog_ms());
        self.controller.lock().export_metrics(registry);
    }

    /// Dumps the current observability state as an [`harmony_obs::ObsReport`]:
    /// a fresh metrics scrape and the decision audit log accumulated since
    /// [`LiveHarmony::enable_decision_audit`]. The live client path has no
    /// per-op tracer (ops are synchronous calls, not simulated events), so
    /// the report's flight recorder is empty.
    pub fn obs_report(&self) -> harmony_obs::ObsReport {
        let registry = harmony_obs::MetricsRegistry::new();
        self.export_metrics(&registry);
        harmony_obs::ObsReport {
            registry,
            recorder: harmony_obs::FlightRecorder::new(0, 0),
            audit: self.controller.lock().audit_log().to_vec(),
        }
    }

    /// Shuts the cluster down.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LiveConfig;
    use harmony_adaptive::policy::{HarmonyPolicy, StaticPolicy};
    use std::time::Duration;

    fn live_cluster() -> LiveCluster {
        LiveCluster::start(LiveConfig {
            nodes: 4,
            replication_factor: 3,
            propagation_delay: Duration::from_micros(100),
            jitter: 0.1,
            seed: 3,
            suspicion_threshold: 8.0,
        })
    }

    #[test]
    fn starts_at_consistency_one() {
        let h = LiveHarmony::new(
            live_cluster(),
            ControllerConfig::default(),
            Box::new(HarmonyPolicy::new(3, 0.4)),
        );
        assert_eq!(h.current_read_level(), ConsistencyLevel::One);
        h.shutdown();
    }

    #[test]
    fn read_your_own_writes_through_the_wrapper() {
        let h = LiveHarmony::new(
            live_cluster(),
            ControllerConfig::default(),
            Box::new(StaticPolicy::Strong),
        );
        h.adapt();
        let v = h.write("k", b"value".to_vec());
        // Static strong policy reads at ALL, which always sees the newest
        // acknowledged version.
        let (value, version) = h.read("k").unwrap();
        assert_eq!(value, b"value");
        assert!(version >= v);
        h.shutdown();
    }

    #[test]
    fn split_mode_escalates_hot_keys_in_the_live_path() {
        let mut config = ControllerConfig {
            per_key_split: true,
            ..ControllerConfig::default()
        };
        // A small sketch so the warmup threshold is reached within the test.
        config.monitor.hot_key_capacity = 16;
        let h = LiveHarmony::new(live_cluster(), config, Box::new(HarmonyPolicy::new(3, 0.1)));
        h.adapt();
        // 95% of the writes hammer one key; the rest is a cold tail. The hot
        // key's own arrival intensity breaches the 10% tolerance while the
        // residual cold-tail load stays far below it.
        for i in 0..2_000u64 {
            let key = if i % 20 < 19 {
                "hot".to_string()
            } else {
                format!("cold{}", i % 37)
            };
            h.write(&key, vec![1, 2, 3]);
            let _ = h.read(&key);
        }
        std::thread::sleep(Duration::from_millis(5));
        h.adapt();
        let hot = h.hot_set();
        let default_level = h.current_read_level();
        assert!(
            hot.iter().any(|d| d.key == "hot" && d.replicas > 1),
            "expected the hot key escalated above the default, got {hot:?} \
             (default level {default_level})"
        );
        // The cold tail still reads at the cheap default.
        let cold_id = h.cluster().key_id("cold1").unwrap();
        let cold_level = h.controller.lock().read_level_for(cold_id);
        assert_eq!(cold_level, default_level);
        h.shutdown();
    }

    #[test]
    fn retry_backoff_doubles_and_clamps() {
        let p = LiveRetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(2), Duration::from_millis(4));
        assert_eq!(p.backoff(3), Duration::from_millis(8));
        assert_eq!(p.backoff(4), Duration::from_millis(10));
        assert_eq!(p.backoff(40), Duration::from_millis(10));
    }

    #[test]
    fn retry_converts_unavailability_once_replicas_return() {
        use harmony_chaos::FaultEvent;
        use harmony_sim::topology::NodeId;
        use std::sync::Arc;

        let h = Arc::new(LiveHarmony::new(
            live_cluster(),
            ControllerConfig::default(),
            Box::new(StaticPolicy::Strong),
        ));
        h.write("k", b"v".to_vec());
        let victims = h.cluster().replicas_for("k");
        for r in &victims {
            h.apply_fault(&FaultEvent::CrashNode {
                node: NodeId(*r as u32),
            });
        }
        // Retries disabled (the default): the unavailability surfaces
        // immediately instead of blocking.
        assert!(h.read_with_retry("k", LiveRetryPolicy::default()).is_err());
        assert!(h
            .write_with_retry("k", b"w".to_vec(), LiveRetryPolicy::default())
            .is_err());
        // Revive the replicas mid-retry: a later attempt finds them back
        // and the operation completes instead of failing.
        let reviver = {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(15));
                for r in &victims {
                    h.apply_fault(&FaultEvent::RestartNode {
                        node: NodeId(*r as u32),
                    });
                }
            })
        };
        let retry = LiveRetryPolicy {
            max_attempts: 40,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(10),
        };
        assert!(h.write_with_retry("k", b"w".to_vec(), retry).is_ok());
        assert!(h.read_with_retry("k", retry).is_ok());
        reviver.join().unwrap();
        match Arc::try_unwrap(h) {
            Ok(h) => h.shutdown(),
            Err(_) => panic!("cluster still referenced"),
        }
    }

    #[test]
    fn obs_report_scrapes_the_live_cluster_and_audits_decisions() {
        let h = LiveHarmony::new(
            live_cluster(),
            ControllerConfig::default(),
            Box::new(HarmonyPolicy::new(3, 0.2)),
        );
        h.enable_decision_audit();
        h.adapt();
        for i in 0..100u64 {
            h.write(&format!("k{}", i % 5), vec![7]);
            let _ = h.read(&format!("k{}", i % 5));
        }
        h.adapt();
        let report = h.obs_report();
        let snap = report.registry.snapshot();
        let reads = snap
            .counters
            .iter()
            .find(|c| c.name == "harmony_live_reads_total")
            .expect("live read counter")
            .value;
        assert_eq!(reads, 100);
        assert!(snap
            .gauges
            .iter()
            .any(|g| g.name == "harmony_live_nodes" && g.value == 4.0));
        assert!(!report.audit.is_empty(), "both adapts were audited");
        assert!(report
            .prometheus_text()
            .contains("harmony_live_reads_total 100"));
        h.shutdown();
    }

    #[test]
    fn adaptation_raises_level_under_write_pressure() {
        let h = LiveHarmony::new(
            live_cluster(),
            ControllerConfig::default(),
            Box::new(HarmonyPolicy::new(3, 0.05)),
        );
        h.adapt();
        // Hammer the cluster with writes and reads, then adapt.
        for i in 0..400u64 {
            h.write(&format!("k{}", i % 10), vec![1, 2, 3]);
            let _ = h.read(&format!("k{}", i % 10));
        }
        std::thread::sleep(Duration::from_millis(5));
        let level = h.adapt();
        // With a 5% tolerance and real measured rates the estimate exceeds the
        // tolerance and the level rises above ONE.
        assert!(
            level.required_acks(3) > 1,
            "expected elevated level, got {level} (estimate {:?})",
            h.last_estimate()
        );
        assert!(h.last_estimate().unwrap_or(0.0) > 0.05);
        h.shutdown();
    }
}
