//! The adaptive-consistency control loop.
//!
//! On every monitoring tick the controller (a) runs a monitoring sweep,
//! (b) converts the aggregated latency and average write size into the
//! propagation time `Tp`, (c) asks its policy for the consistency level the
//! next batch of reads should use, and (d) records the decision so the
//! estimate timeline of Figure 4 can be reconstructed.

use crate::config::ControllerConfig;
use crate::policy::{ConsistencyPolicy, PolicyContext};
use harmony_model::perkey::{self, KeyLoad};
use harmony_model::queueing::{StalenessEstimate, WriteStageObservation};
use harmony_model::staleness::{PropagationModel, StaleReadModel};
use harmony_monitor::collector::Monitor;
use harmony_monitor::probe::ClusterProbe;
use harmony_obs::audit::DecisionAudit;
use harmony_sim::clock::SimTime;
use harmony_sim::FixedState;
use harmony_store::consistency::ConsistencyLevel;
use harmony_store::keys::KeyId;
use serde::Serialize;
use std::collections::HashMap;

/// One control decision, recorded per monitoring tick.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DecisionRecord {
    /// When the decision was taken.
    pub at: SimTime,
    /// Monitored read rate (ops/s).
    pub read_rate: f64,
    /// Monitored write rate (ops/s).
    pub write_rate: f64,
    /// Aggregated network latency (ms).
    pub latency_ms: f64,
    /// Monitored mean mutation-stage backlog (ms). Informational: only its
    /// cross-replica *spread* widens the propagation window.
    pub backlog_ms: f64,
    /// Cross-replica backlog dispersion (ms, standard deviation).
    pub backlog_spread_ms: f64,
    /// Write-stage utilisation `ρ` from the M/G/1 model.
    pub utilization: f64,
    /// Whether the write-stage queue was judged to be diverging.
    pub diverging: bool,
    /// Mean propagation time fed to the model (seconds): network transfer
    /// plus the queue-wait spread mean.
    pub tp_secs: f64,
    /// M/G/1 predicted mean queue wait for the sweep (ms, saturated to the
    /// trend window — always finite). Informational when proactive control is
    /// disabled; the escalation input when enabled.
    pub predicted_wait_ms: f64,
    /// The policy's stale-read estimate, if it computes one.
    pub estimate: Option<f64>,
    /// Number of replicas the chosen (default) level will involve in reads.
    pub replicas_in_read: usize,
    /// Number of hot keys given individual per-key decisions this tick (zero
    /// when per-key splitting is disabled or the workload is unskewed).
    pub hot_keys: usize,
}

/// One hot key's individual decision, as recorded by the split controller.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HotKeyDecision {
    /// The hot key's human-readable name (reports and tests compare these).
    pub key: String,
    /// The hot key's interned id (what the read path matches on).
    pub key_id: KeyId,
    /// Replicas reads of this key must touch.
    pub replicas: usize,
    /// The key's monitored write arrival rate (writes/s).
    pub write_rate: f64,
    /// The key's monitored pending-mutation backlog (ms, laggard replica).
    pub backlog_ms: f64,
}

/// The periodic controller binding monitor, model and policy together.
pub struct AdaptiveController {
    config: ControllerConfig,
    monitor: Monitor,
    policy: Box<dyn ConsistencyPolicy>,
    model: StaleReadModel,
    replication_factor: usize,
    current_read_level: ConsistencyLevel,
    current_write_level: ConsistencyLevel,
    /// Hot keys currently escalated above the default level (split mode).
    /// Keyed by interned id: the per-read lookup hashes 4 bytes, not a
    /// string.
    hot_set: HashMap<KeyId, ConsistencyLevel, FixedState>,
    /// The same escalations in stable (key-sorted) order, for reporting.
    hot_decisions: Vec<HotKeyDecision>,
    decisions: Vec<DecisionRecord>,
    /// Opt-in decision audit trail ([`DecisionAudit`] per tick): `None` (the
    /// default) records nothing, keeping the pinned decision timelines
    /// byte-identical. Kept separate from `decisions` on purpose — the
    /// determinism suite serialises `DecisionRecord` strictly.
    audit: Option<Vec<DecisionAudit>>,
}

impl AdaptiveController {
    /// Creates a controller for a store with the given replication factor.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(
        config: ControllerConfig,
        replication_factor: usize,
        policy: Box<dyn ConsistencyPolicy>,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid controller configuration: {e}"));
        AdaptiveController {
            monitor: Monitor::new(config.monitor),
            config,
            policy,
            model: StaleReadModel::new(replication_factor.max(1)),
            replication_factor: replication_factor.max(1),
            current_read_level: ConsistencyLevel::One,
            current_write_level: ConsistencyLevel::One,
            hot_set: HashMap::default(),
            hot_decisions: Vec::new(),
            decisions: Vec::new(),
            audit: None,
        }
    }

    /// Enables the decision audit trail: every subsequent tick records a
    /// [`DecisionAudit`] with the estimate inputs that produced the decision.
    pub fn enable_decision_audit(&mut self) {
        if self.audit.is_none() {
            self.audit = Some(Vec::new());
        }
    }

    /// The audit trail recorded so far (empty unless
    /// [`AdaptiveController::enable_decision_audit`] was called).
    pub fn audit_log(&self) -> &[DecisionAudit] {
        self.audit.as_deref().unwrap_or(&[])
    }

    /// Exports the controller's decision outcomes into a metrics registry:
    /// one counter per chosen replica count, escalation/relaxation tallies,
    /// and the current default level as a gauge. Collect-on-scrape.
    pub fn export_metrics(&self, registry: &harmony_obs::MetricsRegistry) {
        registry
            .counter("harmony_decisions_total")
            .add(self.decisions.len() as u64);
        let mut escalations = 0u64;
        let mut relaxations = 0u64;
        for pair in self.decisions.windows(2) {
            if pair[1].replicas_in_read > pair[0].replicas_in_read {
                escalations += 1;
            } else if pair[1].replicas_in_read < pair[0].replicas_in_read {
                relaxations += 1;
            }
        }
        registry
            .counter("harmony_decision_escalations_total")
            .add(escalations);
        registry
            .counter("harmony_decision_relaxations_total")
            .add(relaxations);
        for d in &self.decisions {
            registry
                .counter(&harmony_obs::series_name(
                    "harmony_decision_level_total",
                    &[("replicas", &d.replicas_in_read.to_string())],
                ))
                .inc();
        }
        if let Some(last) = self.decisions.last() {
            registry
                .gauge("harmony_current_read_replicas")
                .set(last.replicas_in_read as f64);
            registry
                .gauge("harmony_hot_keys_escalated")
                .set(last.hot_keys as f64);
        }
        self.monitor.export_metrics(registry);
    }

    /// The monitoring interval (how often [`AdaptiveController::tick`] should
    /// be called).
    pub fn interval(&self) -> SimTime {
        self.monitor.interval()
    }

    /// The policy's report name (e.g. `"harmony-20"`, `"eventual"`).
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// The consistency level reads should currently use — the *default*
    /// level; reads of escalated hot keys must consult
    /// [`AdaptiveController::read_level_for`] instead.
    pub fn current_read_level(&self) -> ConsistencyLevel {
        self.current_read_level
    }

    /// The consistency level a read of `key` should use: the key's escalated
    /// level when it is in the hot set, the default level otherwise. With
    /// per-key splitting disabled (or no hot keys) this is exactly
    /// [`AdaptiveController::current_read_level`]. `Copy` id in, no
    /// allocation, no string hashing — this sits on the per-read hot path.
    pub fn read_level_for(&self, key: KeyId) -> ConsistencyLevel {
        self.hot_set
            .get(&key)
            .copied()
            .unwrap_or(self.current_read_level)
    }

    /// The hot keys currently escalated above the default level, in stable
    /// (key-sorted) order.
    pub fn hot_set(&self) -> &[HotKeyDecision] {
        &self.hot_decisions
    }

    /// The consistency level writes should currently use.
    pub fn current_write_level(&self) -> ConsistencyLevel {
        self.current_write_level
    }

    /// All decisions taken so far (one per tick).
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Runs one control iteration at virtual time `now` against the given
    /// cluster probe and returns the (possibly unchanged) read level.
    pub fn tick<P: ClusterProbe + ?Sized>(&mut self, now: SimTime, probe: &P) -> ConsistencyLevel {
        let sample = self.monitor.sweep(now, probe);
        // The network-transfer component of `Tp` from the propagation model;
        // the replica-side queueing behaviour enters as a *distribution* via
        // the queueing model rather than being folded into the scalar. Near
        // saturation this is the difference between a high-but-stable backlog
        // (narrow spread — cheap reads stay safe) and a diverging queue
        // (escalate), which is exactly the regime Figure 5(c)/(d) sweeps.
        let tp_network_secs = self
            .config
            .propagation
            .propagation_time_secs(sample.latency_ms, self.config.avg_write_size_bytes);
        let observation = WriteStageObservation {
            arrival_rate_per_replica: sample.write_arrival_rate_per_replica,
            service_mean_ms: sample.write_service_mean_ms,
            service_scv: sample.write_service_scv,
            backlog_mean_ms: sample.backlog_ms,
            backlog_variance_ms2: sample.backlog_spread_ms * sample.backlog_spread_ms,
            backlog_trend_ms_per_s: sample.backlog_trend_ms_per_s,
            predicted_wait_ms: sample.predicted_wait_ms,
            predicted_wait_trend_ms_per_s: sample.predicted_wait_trend_ms_per_s,
        };
        let staleness = self
            .config
            .queueing
            .estimate_with_prediction(
                &observation,
                tp_network_secs,
                self.replication_factor,
                &self.config.proactive,
            )
            // Active anti-entropy repair tightens the window (identity at
            // rate 0, so the disabled controller stays byte-identical).
            .with_repair(self.config.anti_entropy_repair_rate);
        let tp_secs = staleness.tp_mean_secs();

        // Per-key split. The paper's closed form is a single-object race
        // model — `λr`/`λw` as if every read and write contended on the same
        // key — so evaluated at aggregate rates it effectively prices every
        // read as a read of the hottest key. With the heavy hitters tracked,
        // the controller can do better on both sides of the split:
        //
        // * the *default* level is decided at the cold tail's provable
        //   worst-case per-key intensity — the space-saving bound says no key
        //   outside the hot set can have a write share above
        //   `cold_share_bound()`, so scaling the rates by that bound covers
        //   every cold key without charging it for hot-key pressure;
        // * each *hot* key is decided individually from its own measured
        //   arrival rate and per-key backlog, against the same tolerance.
        //
        // With splitting disabled, no tolerance-bearing policy, or no hot
        // keys (unskewed load, warmup, incapable backend), the scaling is
        // skipped entirely and the decision is byte-identical to the global
        // controller's.
        let tolerance = self.policy.tolerated_stale_rate();
        let split_active = self.config.per_key_split
            && tolerance.is_some()
            && !self.monitor.hot_key_stats().is_empty();
        let (default_read_rate, default_write_rate) = if split_active {
            let bound = self.monitor.cold_share_bound().clamp(0.0, 1.0);
            (sample.read_rate * bound, sample.write_rate * bound)
        } else {
            (sample.read_rate, sample.write_rate)
        };

        let ctx = PolicyContext {
            read_rate: default_read_rate,
            write_rate: default_write_rate,
            tp_secs,
            staleness,
            replication_factor: self.replication_factor,
        };
        self.current_read_level = self.policy.read_level(&ctx);
        self.current_write_level = self.policy.write_level(&ctx);

        // Decide every hot key individually; reads of these keys bypass the
        // default level entirely.
        self.hot_set.clear();
        self.hot_decisions.clear();
        if split_active {
            let asr = tolerance.expect("split_active implies a tolerance");
            // Per-key decisions use the paper's full propagation window on
            // top of the same queue-health signals. The global window is
            // differential because at aggregate rates the single-object
            // closed form badly over-counts; evaluated at one key's own
            // rates the model's assumptions actually hold.
            let per_key_staleness = StalenessEstimate {
                tp_network_secs: PropagationModel::default()
                    .propagation_time_secs(sample.latency_ms, self.config.avg_write_size_bytes),
                ..staleness
            };
            for stat in self.monitor.hot_key_stats() {
                // Reads follow the same key popularity as writes (YCSB draws
                // both from one chooser), so the key's read rate is its
                // write-share slice of the aggregate read rate.
                let load = KeyLoad {
                    read_rate: stat.share.clamp(0.0, 1.0) * sample.read_rate,
                    write_rate: stat.write_rate.max(0.0),
                    backlog_ms: stat.backlog_ms.max(0.0),
                };
                let replicas =
                    perkey::required_replicas(&self.model, asr, &per_key_staleness, &load);
                let level = ConsistencyLevel::from_replica_count(replicas, self.replication_factor);
                self.hot_set.insert(stat.key, level);
                self.hot_decisions.push(HotKeyDecision {
                    key: stat.name.clone(),
                    key_id: stat.key,
                    replicas,
                    write_rate: stat.write_rate,
                    backlog_ms: stat.backlog_ms,
                });
            }
            self.hot_decisions.sort_by(|a, b| a.key.cmp(&b.key));
        }

        if self.audit.is_some() {
            let previous_replicas = self
                .decisions
                .last()
                .map(|d| d.replicas_in_read as u64)
                .unwrap_or(0);
            let record = DecisionAudit {
                at_secs: now.as_secs_f64(),
                read_rate: sample.read_rate,
                write_rate: sample.write_rate,
                latency_ms: sample.latency_ms,
                measured_backlog_ms: sample.backlog_ms,
                backlog_spread_ms: sample.backlog_spread_ms,
                predicted_wait_ms: sample.predicted_wait_ms,
                utilization: staleness.utilization,
                diverging: staleness.diverging,
                tp_secs,
                repair_rate: self.config.anti_entropy_repair_rate,
                fault_epoch: probe.fault_epoch(),
                live_nodes: probe.live_node_count() as u64,
                estimate: self.policy.last_estimate().unwrap_or(-1.0),
                tolerance: tolerance.unwrap_or(-1.0),
                replicas_in_read: self
                    .current_read_level
                    .required_acks(self.replication_factor)
                    as u64,
                previous_replicas,
                hot_keys: self.hot_set.len() as u64,
            };
            if let Some(audit) = self.audit.as_mut() {
                audit.push(record);
            }
        }
        self.decisions.push(DecisionRecord {
            at: now,
            read_rate: sample.read_rate,
            write_rate: sample.write_rate,
            latency_ms: sample.latency_ms,
            backlog_ms: sample.backlog_ms,
            backlog_spread_ms: sample.backlog_spread_ms,
            utilization: staleness.utilization,
            diverging: staleness.diverging,
            tp_secs,
            predicted_wait_ms: sample.predicted_wait_ms,
            estimate: self.policy.last_estimate(),
            replicas_in_read: self
                .current_read_level
                .required_acks(self.replication_factor),
            hot_keys: self.hot_set.len(),
        });
        self.current_read_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{HarmonyPolicy, StaticPolicy};
    use harmony_monitor::probe::MockProbe;

    fn controller(policy: Box<dyn ConsistencyPolicy>) -> AdaptiveController {
        AdaptiveController::new(ControllerConfig::default(), 5, policy)
    }

    #[test]
    fn static_policies_never_change_level() {
        let mut c = controller(Box::new(StaticPolicy::Strong));
        let mut probe = MockProbe {
            nodes: 10,
            latency_ms: 1.0,
            ..MockProbe::default()
        };
        for i in 1..=10u64 {
            probe.reads += 5_000;
            probe.writes += 5_000;
            let level = c.tick(SimTime::from_secs(i), &probe);
            assert_eq!(level, ConsistencyLevel::All);
        }
        assert_eq!(c.policy_name(), "strong");
        assert_eq!(c.decisions().len(), 10);
    }

    #[test]
    fn harmony_raises_level_when_update_load_appears() {
        let mut c = controller(Box::new(HarmonyPolicy::new(5, 0.2)));
        let mut probe = MockProbe {
            nodes: 10,
            latency_ms: 1.0,
            ..MockProbe::default()
        };
        // Idle system: level ONE.
        let level = c.tick(SimTime::from_secs(1), &probe);
        assert_eq!(level, ConsistencyLevel::One);
        // Sudden heavy read-update load.
        probe.reads += 5_000;
        probe.writes += 4_000;
        let level = c.tick(SimTime::from_secs(2), &probe);
        assert!(level.required_acks(5) > 1, "level={level}");
        let last = c.decisions().last().unwrap();
        assert!(last.estimate.unwrap() > 0.2);
        assert!(last.tp_secs > 0.0);
        assert_eq!(last.replicas_in_read, level.required_acks(5));
    }

    #[test]
    fn harmony_relaxes_back_when_load_subsides() {
        let mut c = AdaptiveController::new(
            ControllerConfig {
                monitor: harmony_monitor::collector::MonitorConfig {
                    estimator: harmony_monitor::collector::EstimatorKind::SlidingWindow(1.0),
                    ..Default::default()
                },
                ..Default::default()
            },
            5,
            Box::new(HarmonyPolicy::new(5, 0.4)),
        );
        let mut probe = MockProbe {
            nodes: 10,
            latency_ms: 1.0,
            ..MockProbe::default()
        };
        probe.reads = 5_000;
        probe.writes = 4_000;
        let busy = c.tick(SimTime::from_secs(1), &probe);
        assert!(busy.required_acks(5) > 1);
        // Load disappears; with a window of one sweep the very next tick
        // sees it.
        let calm = c.tick(SimTime::from_secs(10), &probe);
        assert_eq!(calm, ConsistencyLevel::One);
    }

    #[test]
    fn decision_history_is_chronological_and_complete() {
        let mut c = controller(Box::new(HarmonyPolicy::new(5, 0.4)));
        let probe = MockProbe {
            nodes: 3,
            latency_ms: 0.5,
            ..MockProbe::default()
        };
        for i in 1..=20u64 {
            c.tick(SimTime::from_secs(i), &probe);
        }
        let d = c.decisions();
        assert_eq!(d.len(), 20);
        assert!(d.windows(2).all(|w| w[0].at < w[1].at));
        assert!(d.iter().all(|r| r.estimate.is_some()));
    }

    #[test]
    fn uniform_backlog_keeps_cheap_reads_but_dispersion_escalates() {
        let build = || {
            AdaptiveController::new(
                ControllerConfig {
                    monitor: harmony_monitor::collector::MonitorConfig {
                        estimator: harmony_monitor::collector::EstimatorKind::SlidingWindow(1.0),
                        ..Default::default()
                    },
                    ..Default::default()
                },
                5,
                Box::new(HarmonyPolicy::new(5, 0.4)),
            )
        };
        // Uniform 20 ms backlog on every node: the spread is zero, so even a
        // modest load keeps reads at ONE — the estimate is driven by the
        // network window alone.
        let mut uniform = build();
        let mut probe = MockProbe {
            nodes: 10,
            latency_ms: 0.2,
            replica_backlogs: vec![20.0; 10],
            ..MockProbe::default()
        };
        probe.reads = 300;
        probe.writes = 200;
        let level = uniform.tick(SimTime::from_secs(1), &probe);
        assert_eq!(level, ConsistencyLevel::One);
        let rec = uniform.decisions().last().copied().unwrap();
        assert!((rec.backlog_ms - 20.0).abs() < 1e-9);
        assert_eq!(rec.backlog_spread_ms, 0.0);
        assert!(!rec.diverging);

        // The same mean backlog with heavy cross-replica dispersion widens
        // the window and escalates the level.
        let mut dispersed = build();
        probe.replica_backlogs = vec![0.0, 0.0, 0.0, 0.0, 0.0, 40.0, 40.0, 40.0, 40.0, 40.0];
        let level = dispersed.tick(SimTime::from_secs(1), &probe);
        assert!(level.required_acks(5) > 1, "level={level}");
        let rec = dispersed.decisions().last().copied().unwrap();
        assert!(rec.backlog_spread_ms > 19.0);
        assert!(rec.tp_secs > 0.001);
    }

    fn split_config(tolerance_policy: Box<dyn ConsistencyPolicy>) -> AdaptiveController {
        AdaptiveController::new(
            ControllerConfig {
                monitor: harmony_monitor::collector::MonitorConfig {
                    estimator: harmony_monitor::collector::EstimatorKind::SlidingWindow(1.0),
                    hot_key_capacity: 4,
                    ..Default::default()
                },
                per_key_split: true,
                ..Default::default()
            },
            5,
            tolerance_policy,
        )
    }

    /// A skewed batch: half the writes hit "hot", the rest a rotating tail.
    fn skewed_batch(tick: u64) -> Vec<String> {
        (0..80u64)
            .map(|i| {
                if i % 2 == 0 {
                    "hot".to_string()
                } else {
                    format!("cold{}", (tick * 40 + i) % 30)
                }
            })
            .collect()
    }

    /// Scripts the probe's pending write-key samples from readable names.
    fn set_batch(probe: &MockProbe, batch: Vec<String>) {
        probe.set_write_keys(&batch);
    }

    #[test]
    fn split_escalates_the_hot_key_and_keeps_the_tail_cheap() {
        let mut c = split_config(Box::new(HarmonyPolicy::new(5, 0.4)));
        let mut probe = MockProbe {
            nodes: 10,
            latency_ms: 1.0,
            ..MockProbe::default()
        };
        probe.key_backlogs.insert("hot".to_string(), 20.0);
        for tick in 1..=5u64 {
            probe.reads += 240;
            probe.writes += 80;
            set_batch(&probe, skewed_batch(tick));
            c.tick(SimTime::from_secs(tick), &probe);
        }
        // The default level stays cheap: the cold tail's residual load is
        // well within the tolerance.
        assert_eq!(c.current_read_level(), ConsistencyLevel::One);
        // The hot key is escalated above the default.
        let hot = c.hot_set();
        assert_eq!(hot.len(), 1, "hot set: {hot:?}");
        assert_eq!(hot[0].key, "hot");
        assert!(hot[0].replicas > 1, "replicas = {}", hot[0].replicas);
        assert!(hot[0].backlog_ms > 0.0);
        assert_eq!(hot[0].key_id, probe.intern("hot"));
        assert!(
            c.read_level_for(probe.intern("hot")).required_acks(5) > 1,
            "hot key must read above ONE"
        );
        assert_eq!(
            c.read_level_for(probe.intern("cold7")),
            ConsistencyLevel::One
        );
        let last = c.decisions().last().unwrap();
        assert_eq!(last.hot_keys, 1);
        assert_eq!(last.replicas_in_read, 1);
    }

    #[test]
    fn split_with_uniform_stream_is_byte_identical_to_global() {
        let run = |enabled: bool| {
            let mut c = AdaptiveController::new(
                ControllerConfig {
                    monitor: harmony_monitor::collector::MonitorConfig {
                        estimator: harmony_monitor::collector::EstimatorKind::SlidingWindow(1.0),
                        hot_key_capacity: 4,
                        ..Default::default()
                    },
                    per_key_split: enabled,
                    ..Default::default()
                },
                5,
                Box::new(HarmonyPolicy::new(5, 0.2)),
            );
            let mut probe = MockProbe {
                nodes: 10,
                latency_ms: 1.0,
                ..MockProbe::default()
            };
            for tick in 1..=6u64 {
                probe.reads += 4_000;
                probe.writes += 3_000;
                // Uniform stream: no key ever clears the hot thresholds.
                let batch: Vec<String> = (0..100u64)
                    .map(|i| format!("u{}", (tick * 100 + i) % 400))
                    .collect();
                set_batch(&probe, batch);
                c.tick(SimTime::from_secs(tick), &probe);
            }
            assert!(c.hot_set().is_empty());
            c.decisions().to_vec()
        };
        assert_eq!(
            run(true),
            run(false),
            "with no hot keys the split controller must decide exactly like the global one"
        );
    }

    #[test]
    fn static_policies_are_never_split() {
        let mut c = split_config(Box::new(StaticPolicy::Eventual));
        let mut probe = MockProbe {
            nodes: 10,
            latency_ms: 1.0,
            ..MockProbe::default()
        };
        probe.key_backlogs.insert("hot".to_string(), 50.0);
        for tick in 1..=5u64 {
            probe.reads += 240;
            probe.writes += 80;
            set_batch(&probe, skewed_batch(tick));
            c.tick(SimTime::from_secs(tick), &probe);
        }
        assert!(
            c.hot_set().is_empty(),
            "a policy without a tolerance has nothing to escalate against"
        );
        assert_eq!(c.read_level_for(probe.intern("hot")), ConsistencyLevel::One);
    }

    /// Drives a controller through an arrival ramp into write-stage
    /// saturation while the *measured* backlog dispersion stays flat, and
    /// returns the tick index of the first above-ONE decision (None if it
    /// never escalates).
    fn first_escalation_under_arrival_ramp(
        proactive: harmony_model::queueing::ProactiveConfig,
    ) -> Option<usize> {
        use harmony_store::node::WriteStageTelemetry;
        let mut c = AdaptiveController::new(
            ControllerConfig {
                monitor: harmony_monitor::collector::MonitorConfig {
                    estimator: harmony_monitor::collector::EstimatorKind::SlidingWindow(1.0),
                    ..Default::default()
                },
                proactive,
                ..Default::default()
            },
            5,
            Box::new(HarmonyPolicy::new(5, 0.2)),
        );
        let mut probe = MockProbe {
            nodes: 1,
            latency_ms: 0.05,
            write_concurrency: 1,
            replica_backlogs: vec![1.0],
            ..MockProbe::default()
        };
        // Mutation arrivals ramp to ρ > 1 (1 ms deterministic service) while
        // the probed backlog and its dispersion stay put — the measured
        // signals lag the arrivals by design of the scenario.
        let mut cumulative = 0u64;
        let mut first = None;
        for (i, rate) in [100u64, 400, 800, 1100, 1300, 1300].iter().enumerate() {
            cumulative += rate;
            probe.write_telemetry = vec![WriteStageTelemetry {
                arrivals: cumulative,
                completed: cumulative,
                service_ms_total: cumulative as f64,
                service_ms_sq_total: cumulative as f64,
                queued: 0,
                busy: 0,
            }];
            probe.reads += 50;
            probe.writes += 50;
            let level = c.tick(SimTime::from_secs(i as u64 + 1), &probe);
            if first.is_none() && level.required_acks(5) > 1 {
                first = Some(i);
            }
        }
        for d in c.decisions() {
            assert!(d.predicted_wait_ms.is_finite());
            assert!(d.utilization.is_finite());
        }
        first
    }

    #[test]
    fn proactive_controller_escalates_before_the_reactive_one() {
        let reactive = first_escalation_under_arrival_ramp(
            harmony_model::queueing::ProactiveConfig::default(),
        );
        let proactive = first_escalation_under_arrival_ramp(
            harmony_model::queueing::ProactiveConfig::enabled(),
        );
        let p = proactive.expect("the proactive controller must escalate on the ramp");
        match reactive {
            // The reactive controller never sees a reason to escalate (the
            // measured dispersion never moves) — the proactive one does.
            None => {}
            Some(r) => assert!(p < r, "proactive tick {p} must precede reactive tick {r}"),
        }
    }

    /// The repair term at rate zero is the identity: the decision stream is
    /// byte-identical to a controller that has never heard of repair.
    #[test]
    fn zero_repair_rate_is_byte_identical() {
        let run = |rate: f64| {
            let mut c = AdaptiveController::new(
                ControllerConfig {
                    anti_entropy_repair_rate: rate,
                    ..Default::default()
                },
                5,
                Box::new(HarmonyPolicy::new(5, 0.2)),
            );
            let mut probe = MockProbe {
                nodes: 10,
                latency_ms: 1.0,
                replica_backlogs: vec![1.0, 2.0, 5.0, 0.5, 3.0, 1.0, 2.0, 4.0, 0.0, 2.5],
                ..MockProbe::default()
            };
            for tick in 1..=8u64 {
                probe.reads += 4_000;
                probe.writes += 3_000;
                c.tick(SimTime::from_secs(tick), &probe);
            }
            c.decisions().to_vec()
        };
        assert_eq!(run(0.0), run(0.0));
        // And the default config *is* the rate-zero config.
        assert_eq!(ControllerConfig::default().anti_entropy_repair_rate, 0.0);
    }

    /// A fast repair cadence tightens the staleness estimate enough to keep
    /// reads at ONE under a load that escalates the repair-free controller.
    #[test]
    fn repair_progress_relaxes_the_consistency_decision() {
        let run = |rate: f64| {
            let mut c = AdaptiveController::new(
                ControllerConfig {
                    monitor: harmony_monitor::collector::MonitorConfig {
                        estimator: harmony_monitor::collector::EstimatorKind::SlidingWindow(1.0),
                        ..Default::default()
                    },
                    anti_entropy_repair_rate: rate,
                    ..Default::default()
                },
                5,
                Box::new(HarmonyPolicy::new(5, 0.2)),
            );
            let mut probe = MockProbe {
                nodes: 10,
                latency_ms: 1.0,
                ..MockProbe::default()
            };
            probe.reads = 5_000;
            probe.writes = 4_000;
            c.tick(SimTime::from_secs(1), &probe)
        };
        let without = run(0.0);
        assert!(
            without.required_acks(5) > 1,
            "the load must escalate without repair: {without}"
        );
        let with = run(10_000.0);
        assert!(
            with.required_acks(5) < without.required_acks(5),
            "fast repair must relax the decision: {with} vs {without}"
        );
    }

    #[test]
    fn write_level_defaults_to_one() {
        let mut c = controller(Box::new(HarmonyPolicy::new(5, 0.2)));
        let probe = MockProbe {
            nodes: 3,
            latency_ms: 0.5,
            ..MockProbe::default()
        };
        c.tick(SimTime::from_secs(1), &probe);
        assert_eq!(c.current_write_level(), ConsistencyLevel::One);
    }

    #[test]
    #[should_panic(expected = "invalid controller configuration")]
    fn invalid_config_panics() {
        let cfg = ControllerConfig {
            avg_write_size_bytes: -1.0,
            ..ControllerConfig::default()
        };
        AdaptiveController::new(cfg, 5, Box::new(StaticPolicy::Eventual));
    }
}
