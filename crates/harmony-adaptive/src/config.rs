//! Configuration of the adaptive-consistency controller.

use harmony_model::queueing::{ProactiveConfig, QueueingModel};
use harmony_model::staleness::PropagationModel;
use harmony_monitor::collector::{EstimatorKind, MonitorConfig};
use serde::{Deserialize, Serialize};

/// Configuration of an [`crate::controller::AdaptiveController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Monitoring module configuration (sweep period, estimator, aggregation).
    pub monitor: MonitorConfig,
    /// How the network latency and write size are converted into the update
    /// propagation time `Tp`.
    pub propagation: PropagationModel,
    /// How the monitored write-stage queue signals (backlog dispersion,
    /// arrival/service rates, growth trend) become the queue-wait spread of
    /// the propagation-time distribution.
    pub queueing: QueueingModel,
    /// Per-key split decisions for skewed workloads: a strong-read hot set
    /// escalated against the policy's tolerance, plus the policy's own
    /// decision as the cheap default for the cold tail. Off, the controller
    /// is exactly the cluster-wide (global) controller.
    pub per_key_split: bool,
    /// Proactive (predicted-wait) control: blend the M/G/1 predicted wait
    /// dispersion into the staleness window and escalate on predicted
    /// divergence. Disabled by default; disabled, the controller is
    /// byte-identical to the reactive one.
    pub proactive: ProactiveConfig,
    /// Average write payload size in bytes, fed to the propagation model
    /// (the paper's `avg_w`).
    pub avg_write_size_bytes: f64,
    /// Anti-entropy repair rate the store is running at, in rounds per
    /// second (`0.0` = no repair). When positive, the staleness estimate is
    /// tightened through the effective-window transform
    /// `Tp / (1 + ρ·Tp)` (see `StalenessEstimate::with_repair`) — a lagging
    /// replica is healed by the next repair round even if normal
    /// propagation has not reached it. At `0.0` the controller is
    /// byte-identical to one without the knob.
    pub anti_entropy_repair_rate: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            monitor: MonitorConfig::default(),
            propagation: PropagationModel::default(),
            queueing: QueueingModel::default(),
            per_key_split: false,
            proactive: ProactiveConfig::default(),
            avg_write_size_bytes: 1024.0,
            anti_entropy_repair_rate: 0.0,
        }
    }
}

impl ControllerConfig {
    /// The calibrated controller every figure runs: a monitoring sweep
    /// every 50 ms (so even the shortest runs span several adaptation
    /// periods), rates smoothed over a 250 ms window, and a differential
    /// propagation window — writes are acknowledged once the first replica
    /// has applied them, so the staleness window fed to the model is the
    /// *spread* of replica propagation times rather than the full one-way
    /// latency. The same calibration applies to the queueing model: only the
    /// differential fraction of the cross-replica queue-wait dispersion
    /// widens the window.
    pub fn calibrated() -> Self {
        ControllerConfig {
            monitor: MonitorConfig {
                // The paper's monitor runs continuously over minutes-long
                // runs; our scaled runs last a few virtual seconds, so the
                // monitoring period is scaled down proportionally.
                interval_secs: 0.05,
                estimator: EstimatorKind::SlidingWindow(0.25),
                ..MonitorConfig::default()
            },
            propagation: PropagationModel::differential(0.02, 0.005),
            // The queueing analogue of the differential latency window: only
            // a small calibrated fraction of the measured cross-replica
            // backlog dispersion enters the staleness window (the
            // conditional closed form overweights long windows at high
            // access rates), and the divergence detector requires the
            // backlog to outgrow 4x its own magnitude per second so stable
            // saturation is not misread as a runaway queue.
            queueing: QueueingModel {
                divergence_growth: 4.0,
                ..QueueingModel::differential(1e-4)
            },
            avg_write_size_bytes: 100.0,
            ..ControllerConfig::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.monitor.validate()?;
        if !self.avg_write_size_bytes.is_finite() || self.avg_write_size_bytes < 0.0 {
            return Err("average write size must be finite and non-negative".into());
        }
        if !self.anti_entropy_repair_rate.is_finite() || self.anti_entropy_repair_rate < 0.0 {
            return Err("anti-entropy repair rate must be finite and non-negative".into());
        }
        self.queueing.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ControllerConfig::default().validate().is_ok());
        assert!(ControllerConfig::calibrated().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        for bad in [0.0, -1.0, 1e-12, f64::INFINITY, f64::NAN] {
            let mut c = ControllerConfig::default();
            c.monitor.interval_secs = bad;
            assert!(c.validate().is_err(), "interval {bad} must be rejected");
        }

        for bad in [-1.0, f64::INFINITY, f64::NAN] {
            let c = ControllerConfig {
                avg_write_size_bytes: bad,
                ..ControllerConfig::default()
            };
            assert!(c.validate().is_err(), "write size {bad} must be rejected");
        }

        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut c = ControllerConfig::default();
            c.monitor.estimator = EstimatorKind::SlidingWindow(bad);
            assert!(c.validate().is_err(), "window {bad} must be rejected");
        }

        for bad in [f64::NAN, -0.1, 1.5] {
            let mut c = ControllerConfig::default();
            c.monitor.hot_key_min_share = bad;
            assert!(c.validate().is_err(), "min share {bad} must be rejected");
        }
    }

    #[test]
    fn per_key_split_is_off_by_default() {
        assert!(!ControllerConfig::default().per_key_split);
    }

    #[test]
    fn repair_rate_defaults_to_zero_and_is_validated() {
        assert_eq!(ControllerConfig::default().anti_entropy_repair_rate, 0.0);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let c = ControllerConfig {
                anti_entropy_repair_rate: bad,
                ..ControllerConfig::default()
            };
            assert!(c.validate().is_err(), "rate {bad} must be rejected");
        }
        let c = ControllerConfig {
            anti_entropy_repair_rate: 0.5,
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn proactive_control_is_off_by_default_and_validated() {
        assert!(!ControllerConfig::default().proactive.enabled);
        let c = ControllerConfig {
            proactive: ProactiveConfig::enabled(),
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}
