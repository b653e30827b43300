//! The decision audit log: one record per control decision capturing the
//! *inputs* that produced it — measured vs predicted wait, the repair term,
//! the fault epoch — so a specific escalation can be explained after the
//! fact without re-running the experiment.
//!
//! This is deliberately a separate opt-in log rather than extra fields on
//! the controller's `DecisionRecord`: decision timelines are pinned
//! byte-for-byte by the determinism suite, and the audit trail must never
//! perturb them.

use serde::Serialize;

/// The estimate inputs and outcome of one control decision.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionAudit {
    /// Virtual time of the decision (seconds).
    pub at_secs: f64,
    /// Monitored read rate (ops/s) fed to the model.
    pub read_rate: f64,
    /// Monitored write rate (ops/s) fed to the model.
    pub write_rate: f64,
    /// Aggregated network latency (ms).
    pub latency_ms: f64,
    /// Measured mean mutation-stage backlog (ms).
    pub measured_backlog_ms: f64,
    /// Cross-replica backlog dispersion (ms).
    pub backlog_spread_ms: f64,
    /// M/G/1 predicted mean queue wait (ms) — the proactive signal.
    pub predicted_wait_ms: f64,
    /// Write-stage utilisation `ρ`.
    pub utilization: f64,
    /// Whether the queue was judged diverging.
    pub diverging: bool,
    /// Propagation time fed to the model (seconds), after the repair term.
    pub tp_secs: f64,
    /// Anti-entropy repair rate applied (`0` = repair term inert).
    pub repair_rate: f64,
    /// Fault epoch at decision time (counts fault events so far).
    pub fault_epoch: u64,
    /// Live nodes at decision time.
    pub live_nodes: u64,
    /// The policy's stale-read estimate (negative when the policy computes
    /// none — static baselines).
    pub estimate: f64,
    /// The policy's tolerated stale-read rate (negative when it has none).
    pub tolerance: f64,
    /// Replicas the chosen default read level involves.
    pub replicas_in_read: u64,
    /// Replicas the *previous* tick's level involved (0 on the first tick).
    pub previous_replicas: u64,
    /// Hot keys individually escalated this tick.
    pub hot_keys: u64,
}

impl DecisionAudit {
    /// True when this decision raised the default read level.
    pub fn escalated(&self) -> bool {
        self.previous_replicas > 0 && self.replicas_in_read > self.previous_replicas
    }

    /// True when this decision relaxed the default read level.
    pub fn relaxed(&self) -> bool {
        self.previous_replicas > 0 && self.replicas_in_read < self.previous_replicas
    }

    /// One-line human-readable explanation of the decision.
    pub fn explain(&self) -> String {
        let verdict = if self.escalated() {
            format!(
                "ESCALATED {}→{} replicas",
                self.previous_replicas, self.replicas_in_read
            )
        } else if self.relaxed() {
            format!(
                "relaxed {}→{} replicas",
                self.previous_replicas, self.replicas_in_read
            )
        } else {
            format!("held {} replicas", self.replicas_in_read)
        };
        format!(
            "t={:.2}s {verdict}: estimate={:.4} vs tolerance={:.2} \
             (rates r={:.0}/w={:.0} ops/s, backlog measured={:.2}ms predicted={:.2}ms, \
             rho={:.3}{}, tp={:.4}s, repair_rate={:.0}, epoch={}, live={})",
            self.at_secs,
            self.estimate,
            self.tolerance,
            self.read_rate,
            self.write_rate,
            self.measured_backlog_ms,
            self.predicted_wait_ms,
            self.utilization,
            if self.diverging { " DIVERGING" } else { "" },
            self.tp_secs,
            self.repair_rate,
            self.fault_epoch,
            self.live_nodes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(prev: u64, now: u64) -> DecisionAudit {
        DecisionAudit {
            at_secs: 2.5,
            read_rate: 1000.0,
            write_rate: 800.0,
            latency_ms: 1.0,
            measured_backlog_ms: 3.0,
            backlog_spread_ms: 1.0,
            predicted_wait_ms: 5.0,
            utilization: 0.7,
            diverging: false,
            tp_secs: 0.004,
            repair_rate: 0.0,
            fault_epoch: 2,
            live_nodes: 9,
            estimate: 0.31,
            tolerance: 0.2,
            replicas_in_read: now,
            previous_replicas: prev,
            hot_keys: 0,
        }
    }

    #[test]
    fn escalation_detection() {
        assert!(audit(1, 3).escalated());
        assert!(!audit(3, 1).escalated());
        assert!(audit(3, 1).relaxed());
        assert!(!audit(2, 2).escalated());
        // The first tick (no previous level) is never an "escalation".
        assert!(!audit(0, 3).escalated());
    }

    #[test]
    fn explanation_mentions_the_inputs() {
        let text = audit(1, 3).explain();
        assert!(text.contains("ESCALATED 1→3"), "{text}");
        assert!(text.contains("estimate=0.31"), "{text}");
        assert!(text.contains("epoch=2"), "{text}");
        assert!(text.contains("predicted=5.00ms"), "{text}");
    }
}
