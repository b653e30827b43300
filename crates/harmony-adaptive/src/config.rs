//! Configuration of the adaptive-consistency controller.

use harmony_model::perkey::PerKeyModel;
use harmony_model::queueing::{ProactiveConfig, QueueingModel};
use harmony_model::staleness::PropagationModel;
use harmony_monitor::collector::MonitorConfig;
use harmony_sim::clock::SimTime;
use serde::{Deserialize, Serialize};

/// Configuration of the controller's per-key split decisions: a strong-read
/// hot set escalated against the policy's tolerance, plus the policy's own
/// decision as the cheap default for the cold tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PerKeySplitConfig {
    /// Whether split decisions are made at all. Disabled, the controller is
    /// exactly the cluster-wide (global) controller.
    pub enabled: bool,
    /// How a hot key's backlog and arrival intensity specialise the global
    /// staleness estimate.
    pub model: PerKeyModel,
    /// The propagation window used for *per-key* decisions. The global
    /// controller is typically calibrated with a differential window (only a
    /// fraction of the latency counts, because at aggregate rates the
    /// single-object closed form badly over-counts); evaluated at one key's
    /// own rates the model's assumptions actually hold, so the per-key window
    /// defaults to the paper's conservative full propagation time.
    pub propagation: harmony_model::staleness::PropagationModel,
}

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
    /// Per-key split decisions for skewed workloads (hot set + cheap default).
    pub per_key: PerKeySplitConfig,
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
            per_key: PerKeySplitConfig::default(),
            proactive: ProactiveConfig::default(),
            avg_write_size_bytes: 1024.0,
            anti_entropy_repair_rate: 0.0,
        }
    }
}

impl ControllerConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        // The runner re-arms its monitoring tick every `interval`: an
        // interval that rounds to zero virtual nanoseconds (or is not a
        // number at all) would tick forever at one instant.
        let interval = self.monitor.interval_secs;
        if !interval.is_finite() || SimTime::from_secs_f64(interval) <= SimTime::ZERO {
            return Err("monitor interval must be finite and at least one nanosecond".into());
        }
        if !self.avg_write_size_bytes.is_finite() || self.avg_write_size_bytes < 0.0 {
            return Err("average write size must be finite and non-negative".into());
        }
        if !self.anti_entropy_repair_rate.is_finite() || self.anti_entropy_repair_rate < 0.0 {
            return Err("anti-entropy repair rate must be finite and non-negative".into());
        }
        self.queueing.validate()?;
        self.per_key.model.validate()?;
        self.proactive.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ControllerConfig::default().validate().is_ok());
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

        let mut c = ControllerConfig::default();
        c.queueing.spread_shape = -1.0;
        assert!(c.validate().is_err());

        let mut c = ControllerConfig::default();
        c.per_key.model.backlog_fraction = 2.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn per_key_split_is_off_by_default() {
        assert!(!ControllerConfig::default().per_key.enabled);
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
        let mut c = ControllerConfig::default();
        c.proactive.prediction_weight = 2.0;
        assert!(c.validate().is_err());
    }
}
