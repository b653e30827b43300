//! The queueing-aware staleness model: the write stage of each replica as an
//! M/G/1 queue, and the update propagation time `Tp` as a *distribution*
//! rather than a single number.
//!
//! ## Why a queue model
//!
//! The scalar model of [`crate::staleness`] folds the replica-side mutation
//! backlog straight into `Tp`. That is the right thing to do while the write
//! stage is far from saturation (the backlog then *is* extra propagation
//! delay), but past the saturation knee it conflates two situations the
//! controller must tell apart:
//!
//! * **High but stable backlog.** Every replica's mutation queue is equally
//!   long. A write reaches its first replica late — but it reaches the *other*
//!   replicas essentially at the same time, so the window during which a
//!   partial read can observe stale data is still only the *spread* of the
//!   per-replica waits, not their absolute size. Escalating to near-ALL reads
//!   here costs the entire Figure 5(c)/(d) throughput gap for no staleness
//!   benefit.
//! * **Diverging queue.** Arrivals exceed the service capacity (`ρ ≥ 1`) and
//!   the backlog grows without bound, or individual replicas fall behind
//!   their peers. The propagation window really is exploding and strong
//!   consistency is the only safe answer.
//!
//! The write stage of a replica is modelled as an M/G/1 queue (Poisson
//! mutation arrivals — the same assumption the paper makes for client writes —
//! with a general service-time distribution summarised by its mean and squared
//! coefficient of variation). The Pollaczek–Khinchine formulas give the mean
//! and variance of the queueing delay; the monitored cross-replica backlog
//! dispersion grounds the model in what the cluster actually does.
//!
//! ## The `Tp` distribution
//!
//! `Tp = T_net + D`, where `T_net` is the deterministic network-transfer
//! component (the old model's `Tp`) and `D ≥ 0` is the *queue-wait spread*:
//! the extra time the laggard replicas need beyond the replica whose
//! acknowledgement completed the write. `D` is modelled as a Gamma variable
//! with fixed shape and a mean proportional to the standard deviation of the
//! per-replica queue waits (the expected range of `N` i.i.d. waits is
//! `≈ κ_N · σ` with `κ_N` the range coefficient). The stale-read probability
//! then *integrates* the closed form over `D` instead of point-estimating it;
//! the integral has an exact expression through the Laplace transform of the
//! Gamma distribution, so no numerics are involved.
//!
//! With zero queue-wait variance the distribution collapses to a point mass
//! and every formula reduces exactly to the closed form of
//! [`crate::staleness::StaleReadModel`].

/// An M/G/1 queue: Poisson arrivals at `arrival_rate`, service times with the
/// given mean and squared coefficient of variation (SCV; 1 = exponential,
/// 0 = deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MG1Queue {
    /// Arrival rate λ (jobs per second).
    pub arrival_rate: f64,
    /// Mean service time E\[S\] in seconds.
    pub service_mean_secs: f64,
    /// Squared coefficient of variation of the service time,
    /// `c² = Var[S] / E[S]²`.
    pub service_scv: f64,
}

impl MG1Queue {
    /// Creates a queue description; negative inputs are clamped to zero.
    pub fn new(arrival_rate: f64, service_mean_secs: f64, service_scv: f64) -> Self {
        MG1Queue {
            arrival_rate: arrival_rate.max(0.0),
            service_mean_secs: service_mean_secs.max(0.0),
            service_scv: service_scv.max(0.0),
        }
    }

    /// The offered load `ρ = λ · E[S]`.
    pub fn utilization(&self) -> f64 {
        self.arrival_rate * self.service_mean_secs
    }

    /// True if the queue is stable (`ρ < 1`), i.e. the expected wait is finite.
    pub fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }

    /// Mean waiting time in queue (Pollaczek–Khinchine):
    /// `Wq = ρ (1 + c²) / 2 · E[S] / (1 - ρ)`.
    /// Returns `f64::INFINITY` for an unstable queue.
    pub fn mean_wait_secs(&self) -> f64 {
        let rho = self.utilization();
        if rho <= 0.0 || self.service_mean_secs <= 0.0 {
            return 0.0;
        }
        if rho >= 1.0 {
            return f64::INFINITY;
        }
        rho * (1.0 + self.service_scv) / 2.0 * self.service_mean_secs / (1.0 - rho)
    }

    /// Variance of the waiting time in queue. Uses the M/G/1 transform moments
    /// `E[Wq²] = 2·Wq² + λ·E[S³] / (3 (1 - ρ))`, with the third service moment
    /// taken from a Gamma fit to (mean, SCV):
    /// `E[S³] = E[S]³ (1 + c²)(1 + 2c²)`.
    /// Returns `f64::INFINITY` for an unstable queue.
    pub fn wait_variance_secs2(&self) -> f64 {
        let rho = self.utilization();
        if rho <= 0.0 || self.service_mean_secs <= 0.0 {
            return 0.0;
        }
        if rho >= 1.0 {
            return f64::INFINITY;
        }
        let wq = self.mean_wait_secs();
        let m = self.service_mean_secs;
        let c2 = self.service_scv;
        let s3 = m * m * m * (1.0 + c2) * (1.0 + 2.0 * c2);
        let second_moment = 2.0 * wq * wq + self.arrival_rate * s3 / (3.0 * (1.0 - rho));
        (second_moment - wq * wq).max(0.0)
    }

    /// [`MG1Queue::mean_wait_secs`] clamped to `cap_secs` — the propagation-
    /// window worst case the caller is prepared to reason about. An unstable
    /// queue (`ρ ≥ 1`) reports the cap instead of `f64::INFINITY`: within any
    /// finite observation window the backlog a diverging queue can build is
    /// bounded by the window itself, and a finite value keeps EWMAs, trend
    /// slopes and decision inputs free of `inf - inf = NaN`.
    pub fn mean_wait_secs_saturating(&self, cap_secs: f64) -> f64 {
        let cap = cap_secs.max(0.0);
        let w = self.mean_wait_secs();
        if w.is_finite() {
            w.min(cap)
        } else {
            cap
        }
    }

    /// Standard deviation of the waiting time, clamped to `cap_secs` (see
    /// [`MG1Queue::mean_wait_secs_saturating`] for the saturation rationale).
    pub fn wait_std_secs_saturating(&self, cap_secs: f64) -> f64 {
        let cap = cap_secs.max(0.0);
        let v = self.wait_variance_secs2();
        if v.is_finite() {
            v.sqrt().min(cap)
        } else {
            cap
        }
    }

    /// Confidence `[0, 1]` of the M/G/1 prediction for this queue fit.
    ///
    /// Zero when the telemetry is sparse (no arrivals or no measured service
    /// time), when the fit is below a utilization of 0.3, or at ρ ≥ 1 —
    /// there the P-K formulas no longer describe a steady state, so the
    /// magnitude discounts fully toward the reactive estimate (the
    /// *divergence flag* still fires; only the blended spread falls back).
    /// In between the confidence ramps linearly from 0.3 to 1.
    pub fn prediction_confidence(&self) -> f64 {
        if self.arrival_rate <= 0.0 || self.service_mean_secs <= 0.0 {
            return 0.0;
        }
        let rho = self.utilization();
        if rho >= 1.0 {
            return 0.0;
        }
        ((rho - PREDICTION_MIN_UTILIZATION) / (1.0 - PREDICTION_MIN_UTILIZATION)).clamp(0.0, 1.0)
    }
}

/// One monitoring sweep's view of the write stage, aggregated over replicas.
/// All fields are clamped to be non-negative by consumers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WriteStageObservation {
    /// Replica-write arrival rate *per replica service slot group*, i.e. the
    /// arrival rate one node's mutation stage sees (jobs/s).
    pub arrival_rate_per_replica: f64,
    /// Measured mean mutation service time (milliseconds), normalised by the
    /// per-node service concurrency.
    pub service_mean_ms: f64,
    /// Squared coefficient of variation of the mutation service time.
    pub service_scv: f64,
    /// Mean pending-mutation wait per replica (milliseconds) — the absolute
    /// backlog (`nodetool tpstats` analogue).
    pub backlog_mean_ms: f64,
    /// Variance of the pending-mutation wait *across* replicas (ms²) — the
    /// queue-wait dispersion that actually widens the staleness window.
    pub backlog_variance_ms2: f64,
    /// Rate of change of the mean backlog (ms of backlog per second of run
    /// time). A sustained positive trend at high utilization means the queue
    /// is diverging rather than merely full.
    pub backlog_trend_ms_per_s: f64,
    /// M/G/1 *predicted* mean queue wait (milliseconds), derived by the
    /// monitor from the arrival/service telemetry of the same sweep via the
    /// saturating accessors — always finite, even at ρ ≥ 1. Zero when the
    /// backend publishes no prediction.
    pub predicted_wait_ms: f64,
    /// Rate of change of the predicted wait (ms per second of run time). The
    /// prediction moves one monitoring period before the measured backlog, so
    /// its trend is the earliest divergence signal available.
    pub predicted_wait_trend_ms_per_s: f64,
}

/// Weight of the predicted wait dispersion in the blended spread once the
/// prediction is fully confident. The effective weight is this value scaled
/// by [`MG1Queue::prediction_confidence`], so the blend always discounts
/// toward the measured (reactive) dispersion when telemetry is thin.
const PREDICTION_WEIGHT: f64 = 0.5;

/// Utilization below which the prediction carries zero confidence: an
/// almost-idle M/G/1 fit says nothing the measured dispersion doesn't.
const PREDICTION_MIN_UTILIZATION: f64 = 0.3;

/// Saturation cap (seconds) for the predicted wait moments — the
/// propagation-window worst case. Caps the P-K wait near ρ = 1 and replaces
/// the infinite wait at ρ ≥ 1 (see [`MG1Queue::mean_wait_secs_saturating`]).
const PREDICTION_HORIZON_SECS: f64 = 1.0;

/// Gamma shape of the queue-wait spread distribution `D`: the
/// mean-to-variance relation is `Var[D] = E[D]² / shape`.
pub(crate) const SPREAD_SHAPE: f64 = 2.0;

/// Utilization above which a sustained backlog growth is interpreted as a
/// diverging queue.
const DIVERGENCE_UTILIZATION: f64 = 0.9;

/// The proactive (predicted-wait) control switch.
///
/// Disabled by default; with `enabled = false` every estimate is bit-for-bit
/// identical to the reactive model — the proactive terms are never even
/// computed, so no `0·∞` arithmetic can leak a NaN into the reactive path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProactiveConfig {
    /// Master switch. Off ⇒ the reactive estimate, byte-identically.
    pub enabled: bool,
}

impl ProactiveConfig {
    /// Proactive control switched on.
    pub fn enabled() -> Self {
        ProactiveConfig { enabled: true }
    }
}

/// The queueing-aware staleness model configuration.
///
/// `spread_fraction` plays the same role for queueing delay that
/// [`crate::staleness::PropagationModel::latency_fraction`] plays for network
/// latency: writes are acknowledged by the *first* replica to apply them, so
/// only a calibrated fraction of the measured dispersion contributes to the
/// window during which the remaining replicas lag. The default of 1.0 is the
/// conservative interpretation; the experiment harness calibrates it per
/// platform exactly like the latency fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueingModel {
    /// Fraction of the measured queue-wait dispersion entering the staleness
    /// window (calibration knob, `[0, 1]`).
    pub spread_fraction: f64,
    /// Relative backlog growth per second (fraction of the current backlog,
    /// floored by one service time) above which the queue counts as diverging
    /// when utilization is also high.
    pub divergence_growth: f64,
}

impl Default for QueueingModel {
    fn default() -> Self {
        QueueingModel {
            spread_fraction: 1.0,
            divergence_growth: 1.0,
        }
    }
}

impl QueueingModel {
    /// A model using only `spread_fraction` of the measured queue-wait
    /// dispersion (the analogue of
    /// [`crate::staleness::PropagationModel::differential`]).
    pub fn differential(spread_fraction: f64) -> Self {
        QueueingModel {
            spread_fraction: spread_fraction.clamp(0.0, 1.0),
            ..QueueingModel::default()
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.spread_fraction) {
            return Err("spread_fraction must be within [0, 1]".into());
        }
        if self.divergence_growth <= 0.0 {
            return Err("divergence_growth must be positive".into());
        }
        Ok(())
    }

    /// The expected min-to-max spread of `n` i.i.d. exponential waits in units
    /// of their standard deviation: `κ_n = Σ_{i=1}^{n-1} 1/i` (the harmonic
    /// range coefficient; 0 for n ≤ 1).
    pub fn range_coefficient(n: usize) -> f64 {
        (1..n).map(|i| 1.0 / i as f64).sum()
    }

    /// Builds the staleness estimate for one monitoring sweep.
    ///
    /// * `obs` — the monitored write-stage signals;
    /// * `tp_network_secs` — the deterministic network-transfer component of
    ///   `Tp` (the old model's entire `Tp`);
    /// * `replication_factor` — `N`, used for the range coefficient.
    pub fn estimate(
        &self,
        obs: &WriteStageObservation,
        tp_network_secs: f64,
        replication_factor: usize,
    ) -> StalenessEstimate {
        self.estimate_with_prediction(
            obs,
            tp_network_secs,
            replication_factor,
            &ProactiveConfig::default(),
        )
    }

    /// [`QueueingModel::estimate`] with the proactive (predicted-wait) path.
    ///
    /// With `proactive.enabled = false` this is byte-for-byte the reactive
    /// estimate (apart from carrying the observation's predicted wait along
    /// as an informational field). Enabled, it makes two additions:
    ///
    /// * the spread standard deviation becomes a confidence-weighted blend of
    ///   the *measured* cross-replica dispersion and the M/G/1 *predicted*
    ///   wait dispersion, so the window widens one monitoring period before
    ///   the backlog materialises — and narrows again as soon as the fit
    ///   predicts drain, before the measured backlog has fully cleared;
    /// * divergence additionally fires on predicted signals: ρ ≥ 1 (the fit
    ///   says the queue cannot reach a steady state at all), or high
    ///   utilization with the *predicted* wait growing faster than
    ///   `divergence_growth` times its own magnitude per second.
    pub fn estimate_with_prediction(
        &self,
        obs: &WriteStageObservation,
        tp_network_secs: f64,
        replication_factor: usize,
        proactive: &ProactiveConfig,
    ) -> StalenessEstimate {
        let service_mean_ms = obs.service_mean_ms.max(0.0);
        let queue = MG1Queue::new(
            obs.arrival_rate_per_replica,
            service_mean_ms / 1e3,
            obs.service_scv,
        );
        let utilization = queue.utilization();

        // Queue-wait dispersion: the monitored cross-replica variance is the
        // reactive signal. A backend that cannot measure per-replica backlogs
        // reports zero variance and degrades to the pure network model.
        let sigma_s = (obs.backlog_variance_ms2.max(0.0) / 1e6).sqrt();

        // Proactive blend: mix in the predicted wait dispersion, discounted
        // by the prediction confidence. Guarded so the disabled (and the
        // zero-confidence) path performs *no* extra arithmetic on sigma —
        // `0.0 · ∞` would be NaN, and the reactive estimate must stay
        // bit-identical when the prediction contributes nothing.
        //
        // The blend is directional. A prediction *above* the measurement is
        // the fit seeing arrivals whose waits have not materialised yet —
        // widen ahead of the backlog. A prediction *below* it discounts the
        // measured dispersion only while the fit says the queue is
        // *draining* — the predicted wait falling faster than
        // `divergence_growth` times its own magnitude, the mirror image of
        // the divergence criterion, so sweep-to-sweep jitter never counts.
        // In a steady state a small predicted wait is not evidence against
        // the measured cross-replica spread: the aggregate M/G/1 fit is
        // blind to a single laggard replica.
        let mut spread_sigma = sigma_s;
        let mut predicted_diverging = false;
        if proactive.enabled {
            let weight = PREDICTION_WEIGHT * queue.prediction_confidence();
            if weight > 0.0 {
                let sigma_pred = queue.wait_std_secs_saturating(PREDICTION_HORIZON_SECS);
                let drain_floor = obs.predicted_wait_ms.max(service_mean_ms).max(1e-9);
                let draining =
                    obs.predicted_wait_trend_ms_per_s < -self.divergence_growth * drain_floor;
                if sigma_pred >= sigma_s || draining {
                    spread_sigma = (1.0 - weight) * sigma_s + weight * sigma_pred;
                }
            }
            // Predicted divergence: an unstable fit is diverging by
            // definition; below that, a predicted wait growing faster than
            // its own magnitude (floored by one service time) at high
            // utilization flags the escalation one sweep before the measured
            // backlog trend can.
            if utilization >= 1.0 {
                predicted_diverging = true;
            } else if utilization >= DIVERGENCE_UTILIZATION {
                let predicted_floor = obs.predicted_wait_ms.max(service_mean_ms).max(1e-9);
                predicted_diverging =
                    obs.predicted_wait_trend_ms_per_s > self.divergence_growth * predicted_floor;
            }
        }

        let kappa = Self::range_coefficient(replication_factor.max(1));
        let spread_mean_secs = self.spread_fraction.clamp(0.0, 1.0) * kappa * spread_sigma;
        let spread_variance_secs2 = spread_mean_secs * spread_mean_secs / SPREAD_SHAPE;

        // Divergence: high utilization plus a backlog growing faster than
        // `divergence_growth` times its own magnitude per second (floored by
        // one service time so an empty queue ramping up still registers).
        let growth_floor = obs.backlog_mean_ms.max(service_mean_ms).max(1e-9);
        let growing = obs.backlog_trend_ms_per_s > self.divergence_growth * growth_floor;
        let diverging = (utilization >= DIVERGENCE_UTILIZATION && growing) || predicted_diverging;

        StalenessEstimate {
            tp_network_secs: tp_network_secs.max(0.0),
            queue_wait_secs: obs.backlog_mean_ms.max(0.0) / 1e3,
            spread_mean_secs,
            spread_variance_secs2,
            utilization,
            diverging,
            predicted_wait_secs: obs.predicted_wait_ms.max(0.0) / 1e3,
        }
    }
}

/// The update propagation time as a distribution: a deterministic network
/// component plus a Gamma-distributed queue-wait spread, along with the queue
/// health indicators the policy consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessEstimate {
    /// Deterministic network-transfer component of `Tp` (seconds).
    pub tp_network_secs: f64,
    /// Mean absolute queue wait per replica (seconds) — informational; it does
    /// *not* widen the staleness window (only the spread does).
    pub queue_wait_secs: f64,
    /// Mean of the queue-wait spread `D` (seconds).
    pub spread_mean_secs: f64,
    /// Variance of the queue-wait spread `D` (seconds²).
    pub spread_variance_secs2: f64,
    /// Offered load `ρ` of the write stage.
    pub utilization: f64,
    /// True if the write-stage queue is diverging (unbounded wait): the stale
    /// probability is pinned at its ceiling and the policy should go strong.
    pub diverging: bool,
    /// M/G/1 predicted mean queue wait (seconds), saturated to the
    /// propagation-window worst case — informational like
    /// [`StalenessEstimate::queue_wait_secs`]; the prediction enters the
    /// window through the blended spread, not through this field.
    pub predicted_wait_secs: f64,
}

impl Default for StalenessEstimate {
    fn default() -> Self {
        StalenessEstimate::deterministic(0.0)
    }
}

impl StalenessEstimate {
    /// A point-mass estimate: `Tp = tp_secs` exactly (zero spread). With this
    /// estimate every queueing-aware formula reduces to the scalar closed
    /// form, which is how the legacy scalar path is expressed.
    pub fn deterministic(tp_secs: f64) -> Self {
        StalenessEstimate {
            tp_network_secs: tp_secs.max(0.0),
            queue_wait_secs: 0.0,
            spread_mean_secs: 0.0,
            spread_variance_secs2: 0.0,
            utilization: 0.0,
            diverging: false,
            predicted_wait_secs: 0.0,
        }
    }

    /// The mean of the `Tp` distribution (seconds).
    pub fn tp_mean_secs(&self) -> f64 {
        self.tp_network_secs + self.spread_mean_secs
    }

    /// Tightens the estimate for active anti-entropy repair running at
    /// `rate_per_sec` rounds per second: a lagging replica is healed by
    /// whichever comes first, normal propagation (window `Tp`) or the next
    /// repair round (mean gap `1/ρ`), so the effective mean window is
    /// `Tp / (1 + ρ·Tp)` — the same transform as
    /// `StaleReadModel::stale_probability_with_repair`. Every `Tp` component
    /// is scaled by the common factor (variance by its square), so a
    /// zero-spread estimate reduces exactly to the scalar formula.
    ///
    /// A non-positive rate returns the estimate **unchanged** (same bits) —
    /// repair disabled is provably free. A diverging estimate is also
    /// returned unchanged: periodic repair bounds the *mean* lag, but the
    /// policy's go-strong reaction to an unbounded queue must not be
    /// softened by a background repair promise.
    pub fn with_repair(self, rate_per_sec: f64) -> Self {
        if rate_per_sec <= 0.0 || self.diverging {
            return self;
        }
        let tp = self.tp_mean_secs();
        if tp <= 0.0 {
            return self;
        }
        let factor = 1.0 / (1.0 + rate_per_sec * tp);
        StalenessEstimate {
            tp_network_secs: self.tp_network_secs * factor,
            spread_mean_secs: self.spread_mean_secs * factor,
            spread_variance_secs2: self.spread_variance_secs2 * factor * factor,
            ..self
        }
    }

    /// The Laplace transform `E[e^{-s·Tp}]` of the propagation-time
    /// distribution, exact for the deterministic + Gamma decomposition:
    ///
    /// `E[e^{-s·Tp}] = e^{-s·T_net} · (1 + s·Var[D]/E[D])^{-E[D]²/Var[D]}`
    ///
    /// For zero spread variance the Gamma factor degenerates to
    /// `e^{-s·E[D]}`, recovering the scalar closed form exactly.
    pub fn laplace(&self, s: f64) -> f64 {
        if s <= 0.0 {
            return 1.0;
        }
        let net = (-s * self.tp_network_secs.max(0.0)).exp();
        let m = self.spread_mean_secs.max(0.0);
        let v = self.spread_variance_secs2.max(0.0);
        let spread = if m <= 0.0 {
            1.0
        } else if v <= 0.0 {
            (-s * m).exp()
        } else {
            let shape = m * m / v;
            let x = s * v / m; // s / rate
            (-shape * x.ln_1p()).exp()
        };
        net * spread
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    /// `with_repair` at a non-positive rate is the identity (same bits), and
    /// on a deterministic estimate it reproduces the scalar
    /// `Tp / (1 + ρ·Tp)` transform exactly.
    #[test]
    fn with_repair_identity_and_scalar_equivalence() {
        let est = StalenessEstimate {
            tp_network_secs: 0.002,
            spread_mean_secs: 0.001,
            spread_variance_secs2: 5e-7,
            ..StalenessEstimate::default()
        };
        assert_eq!(est.with_repair(0.0), est);
        assert_eq!(est.with_repair(-1.0), est);

        let det = StalenessEstimate::deterministic(0.004);
        let repaired = det.with_repair(50.0);
        let expected = 0.004 / (1.0 + 50.0 * 0.004);
        assert!(close(repaired.tp_mean_secs(), expected, 1e-15));

        // The mean of the full distribution contracts by the same factor.
        let r = est.with_repair(100.0);
        let tp = est.tp_mean_secs();
        assert!(close(r.tp_mean_secs(), tp / (1.0 + 100.0 * tp), 1e-15));
        assert!(r.spread_variance_secs2 < est.spread_variance_secs2);
    }

    /// Repair must not soften the go-strong reaction to a diverging queue.
    #[test]
    fn with_repair_leaves_diverging_estimates_alone() {
        let est = StalenessEstimate {
            diverging: true,
            ..StalenessEstimate::deterministic(0.01)
        };
        assert_eq!(est.with_repair(1000.0), est);
    }

    #[test]
    fn mg1_idle_and_degenerate() {
        let q = MG1Queue::new(0.0, 0.001, 1.0);
        assert_eq!(q.utilization(), 0.0);
        assert!(q.is_stable());
        assert_eq!(q.mean_wait_secs(), 0.0);
        assert_eq!(q.wait_variance_secs2(), 0.0);
        // Negative inputs clamp.
        let q = MG1Queue::new(-5.0, -1.0, -0.5);
        assert_eq!(q.utilization(), 0.0);
    }

    #[test]
    fn mg1_matches_mm1_closed_form() {
        // c² = 1 (exponential service): Wq = ρ/(1-ρ) · E[S].
        let q = MG1Queue::new(500.0, 0.001, 1.0); // ρ = 0.5
        assert!(close(q.mean_wait_secs(), 0.001, 1e-12));
        // M/M/1 wait variance: E[Wq²] = 2ρ E[S]² / (1-ρ)² ... cross-check the
        // transform-moment formula against the known M/M/1 value
        // Var[Wq] = ρ(2-ρ) E[S]²/(1-ρ)².
        let rho: f64 = 0.5;
        let es = 0.001f64;
        let expected = rho * (2.0 - rho) * es * es / ((1.0 - rho) * (1.0 - rho));
        assert!(
            close(q.wait_variance_secs2(), expected, 1e-12),
            "got {} expected {}",
            q.wait_variance_secs2(),
            expected
        );
    }

    #[test]
    fn mg1_deterministic_service_halves_the_wait() {
        let exp = MG1Queue::new(500.0, 0.001, 1.0);
        let det = MG1Queue::new(500.0, 0.001, 0.0);
        assert!(close(
            det.mean_wait_secs(),
            exp.mean_wait_secs() / 2.0,
            1e-12
        ));
    }

    #[test]
    fn mg1_wait_grows_with_utilization_and_diverges() {
        let mut prev = 0.0;
        for rho in [0.1, 0.3, 0.5, 0.7, 0.9, 0.99] {
            let q = MG1Queue::new(rho * 1000.0, 0.001, 1.0);
            let w = q.mean_wait_secs();
            assert!(w > prev, "rho={rho}");
            assert!(w.is_finite());
            prev = w;
        }
        let unstable = MG1Queue::new(1100.0, 0.001, 1.0);
        assert!(!unstable.is_stable());
        assert_eq!(unstable.mean_wait_secs(), f64::INFINITY);
        assert_eq!(unstable.wait_variance_secs2(), f64::INFINITY);
    }

    #[test]
    fn range_coefficient_is_harmonic() {
        assert_eq!(QueueingModel::range_coefficient(0), 0.0);
        assert_eq!(QueueingModel::range_coefficient(1), 0.0);
        assert_eq!(QueueingModel::range_coefficient(2), 1.0);
        assert!(close(
            QueueingModel::range_coefficient(5),
            1.0 + 0.5 + 1.0 / 3.0 + 0.25,
            1e-12
        ));
    }

    #[test]
    fn default_config_is_valid() {
        assert!(QueueingModel::default().validate().is_ok());
        assert!(QueueingModel::differential(0.02).validate().is_ok());
        assert_eq!(QueueingModel::differential(7.0).spread_fraction, 1.0);
    }

    #[test]
    fn validation_catches_bad_values() {
        let q = QueueingModel {
            spread_fraction: 1.5,
            ..QueueingModel::default()
        };
        assert!(q.validate().is_err());
        let q = QueueingModel {
            divergence_growth: 0.0,
            ..QueueingModel::default()
        };
        assert!(q.validate().is_err());
    }

    #[test]
    fn estimate_with_no_queue_signal_is_the_network_model() {
        let est = QueueingModel::default().estimate(&WriteStageObservation::default(), 0.0005, 5);
        assert_eq!(est.tp_network_secs, 0.0005);
        assert_eq!(est.spread_mean_secs, 0.0);
        assert_eq!(est.spread_variance_secs2, 0.0);
        assert!(!est.diverging);
        assert_eq!(est.tp_mean_secs(), 0.0005);
    }

    #[test]
    fn stable_backlog_does_not_widen_the_window() {
        // Huge but perfectly uniform backlog: zero cross-replica variance and
        // a stable queue — the window stays the network component.
        let obs = WriteStageObservation {
            arrival_rate_per_replica: 500.0,
            service_mean_ms: 1.0, // ρ = 0.5
            service_scv: 1.0,
            backlog_mean_ms: 50.0,
            ..Default::default()
        };
        let est = QueueingModel::default().estimate(&obs, 0.0001, 5);
        assert_eq!(est.spread_mean_secs, 0.0);
        assert!(!est.diverging);
        assert!(close(est.queue_wait_secs, 0.05, 1e-12));
    }

    #[test]
    fn cross_replica_variance_widens_the_window() {
        let mut obs = WriteStageObservation {
            arrival_rate_per_replica: 100.0,
            service_mean_ms: 1.0,
            service_scv: 1.0,
            backlog_mean_ms: 5.0,
            ..Default::default()
        };
        let model = QueueingModel::default();
        obs.backlog_variance_ms2 = 1.0;
        let narrow = model.estimate(&obs, 0.0001, 5);
        obs.backlog_variance_ms2 = 9.0;
        let wide = model.estimate(&obs, 0.0001, 5);
        assert!(wide.spread_mean_secs > narrow.spread_mean_secs);
        // spread mean = fraction · κ_5 · σ.
        let kappa = QueueingModel::range_coefficient(5);
        assert!(close(narrow.spread_mean_secs, kappa * 1e-3, 1e-12));
        assert!(close(wide.spread_mean_secs, kappa * 3e-3, 1e-12));
    }

    #[test]
    fn growing_backlog_at_high_utilization_is_diverging() {
        let obs = WriteStageObservation {
            arrival_rate_per_replica: 980.0,
            service_mean_ms: 1.0, // ρ = 0.98
            service_scv: 1.0,
            backlog_mean_ms: 10.0,
            backlog_variance_ms2: 1.0,
            backlog_trend_ms_per_s: 50.0, // growing by 5x its size per second
            ..Default::default()
        };
        let model = QueueingModel::default();
        assert!(model.estimate(&obs, 0.0001, 5).diverging);
        // The same growth at low utilization is a transient, not divergence.
        let calm = WriteStageObservation {
            arrival_rate_per_replica: 100.0,
            service_mean_ms: 1.0,
            ..obs
        };
        assert!(!model.estimate(&calm, 0.0001, 5).diverging);
        // High utilization with a flat backlog is saturated-but-stable.
        let flat = WriteStageObservation {
            backlog_trend_ms_per_s: 0.0,
            ..obs
        };
        assert!(!model.estimate(&flat, 0.0001, 5).diverging);
    }

    #[test]
    fn unstable_queue_with_growth_diverges_but_stays_finite() {
        let obs = WriteStageObservation {
            arrival_rate_per_replica: 2000.0,
            service_mean_ms: 1.0, // ρ = 2
            service_scv: 1.0,
            backlog_mean_ms: 2.0,
            backlog_variance_ms2: 0.5,
            backlog_trend_ms_per_s: 40.0,
            ..Default::default()
        };
        let est = QueueingModel::default().estimate(&obs, 0.0001, 5);
        assert!(est.diverging);
        assert!(est.utilization >= 1.0);
        // The estimate's fields stay finite even though the M/G/1 wait is
        // unbounded (`mean_wait_secs` returns infinity for ρ ≥ 1).
        assert!(est.spread_mean_secs.is_finite());
        assert!(est.tp_mean_secs().is_finite());
    }

    #[test]
    fn laplace_transform_basics() {
        let det = StalenessEstimate::deterministic(0.002);
        assert!(close(det.laplace(1000.0), (-2.0f64).exp(), 1e-15));
        assert_eq!(det.laplace(0.0), 1.0);
        // Gamma spread: matches (1 + s/β)^{-k}.
        let est = StalenessEstimate {
            tp_network_secs: 0.0,
            spread_mean_secs: 0.001,
            spread_variance_secs2: 0.5e-6, // shape 2
            utilization: 0.5,
            ..StalenessEstimate::default()
        };
        let s = 1000.0;
        let expected = (1.0f64 + s * 0.5e-6 / 0.001).powf(-2.0);
        assert!(close(est.laplace(s), expected, 1e-12));
        // More spread variance at the same mean ⇒ larger transform (Jensen).
        let spikier = StalenessEstimate {
            spread_variance_secs2: 2e-6,
            ..est
        };
        assert!(spikier.laplace(s) > est.laplace(s));
    }

    #[test]
    fn saturating_accessors_never_return_inf_or_nan() {
        let cap = 2.5;
        for arrivals in [0.0, 100.0, 500.0, 990.0, 1000.0, 1500.0, 1e9] {
            for scv in [0.0, 1.0, 4.0] {
                let q = MG1Queue::new(arrivals, 0.001, scv);
                let w = q.mean_wait_secs_saturating(cap);
                let s = q.wait_std_secs_saturating(cap);
                assert!(w.is_finite() && (0.0..=cap).contains(&w), "w={w}");
                assert!(s.is_finite() && (0.0..=cap).contains(&s), "s={s}");
                if q.is_stable() && q.mean_wait_secs() <= cap {
                    assert_eq!(w, q.mean_wait_secs());
                }
                if !q.is_stable() {
                    assert_eq!(w, cap);
                    assert_eq!(s, cap);
                }
            }
        }
        // A negative cap clamps to zero rather than going negative.
        let unstable = MG1Queue::new(2000.0, 0.001, 1.0);
        assert_eq!(unstable.mean_wait_secs_saturating(-1.0), 0.0);
    }

    #[test]
    fn saturated_waits_mix_into_running_statistics_without_nan() {
        // The regression the saturating accessors exist for: an EWMA and a
        // difference-based trend fed across the stability boundary must stay
        // finite (`inf - inf` and `0 · inf` both poison them as NaN).
        let cap = 5.0;
        let mut ewma = 0.0;
        let mut prev = 0.0;
        for arrivals in [800.0, 950.0, 1000.0, 1200.0, 900.0, 400.0] {
            let q = MG1Queue::new(arrivals, 0.001, 1.0);
            let w = q.mean_wait_secs_saturating(cap);
            ewma = 0.7 * ewma + 0.3 * w;
            let trend = w - prev;
            prev = w;
            assert!(ewma.is_finite());
            assert!(trend.is_finite());
        }
    }

    #[test]
    fn prediction_confidence_ramps_and_discounts() {
        let confidence =
            |arrivals, service| MG1Queue::new(arrivals, service, 1.0).prediction_confidence();
        // Sparse telemetry ⇒ zero confidence.
        assert_eq!(confidence(0.0, 0.001), 0.0);
        assert_eq!(confidence(100.0, 0.0), 0.0);
        // Below ρ = 0.3 ⇒ zero; above ⇒ ramps toward 1.
        assert_eq!(confidence(100.0, 0.001), 0.0); // ρ=0.1
        let mid = confidence(650.0, 0.001); // ρ=0.65
        let high = confidence(950.0, 0.001); // ρ=0.95
        assert!(mid > 0.0 && mid < high && high < 1.0);
        // At and beyond saturation the magnitude discounts fully.
        assert_eq!(confidence(1000.0, 0.001), 0.0);
        assert_eq!(confidence(5000.0, 0.001), 0.0);
    }

    #[test]
    fn disabled_proactive_estimate_is_bit_identical_to_reactive() {
        let model = QueueingModel::differential(0.02);
        let disabled = ProactiveConfig::default();
        for arrivals in [0.0, 100.0, 900.0, 980.0, 1200.0] {
            let obs = WriteStageObservation {
                arrival_rate_per_replica: arrivals,
                service_mean_ms: 1.0,
                service_scv: 1.3,
                backlog_mean_ms: 4.0,
                backlog_variance_ms2: 2.0,
                backlog_trend_ms_per_s: 6.0,
                predicted_wait_ms: 42.0,
                predicted_wait_trend_ms_per_s: 100.0,
            };
            let reactive = model.estimate(&obs, 0.0002, 5);
            let proactive_off = model.estimate_with_prediction(&obs, 0.0002, 5, &disabled);
            assert_eq!(reactive, proactive_off);
        }
    }

    #[test]
    fn proactive_estimate_widens_before_the_backlog_materialises() {
        // High utilization, but the measured cross-replica dispersion has not
        // yet moved: the reactive window stays narrow, the proactive one
        // already widens from the predicted wait dispersion.
        let obs = WriteStageObservation {
            arrival_rate_per_replica: 950.0,
            service_mean_ms: 1.0, // ρ = 0.95
            service_scv: 1.0,
            backlog_mean_ms: 1.0,
            backlog_variance_ms2: 0.0,
            ..Default::default()
        };
        let model = QueueingModel::default();
        let reactive = model.estimate(&obs, 0.0001, 5);
        let proactive =
            model.estimate_with_prediction(&obs, 0.0001, 5, &ProactiveConfig::enabled());
        assert_eq!(reactive.spread_mean_secs, 0.0);
        assert!(proactive.spread_mean_secs > 0.0);
        assert!(proactive.spread_mean_secs.is_finite());
        // And as the fit drains (ρ drops below 0.3), the
        // proactive window relaxes back to the reactive one immediately.
        let drained = WriteStageObservation {
            arrival_rate_per_replica: 100.0,
            ..obs
        };
        let relaxed =
            model.estimate_with_prediction(&drained, 0.0001, 5, &ProactiveConfig::enabled());
        assert_eq!(relaxed.spread_mean_secs, 0.0);
    }

    #[test]
    fn proactive_estimate_flags_divergence_at_saturation() {
        // ρ ≥ 1 with no measured backlog trend yet: reactive says stable,
        // proactive flags divergence — and every field stays finite.
        let obs = WriteStageObservation {
            arrival_rate_per_replica: 1200.0,
            service_mean_ms: 1.0, // ρ = 1.2
            service_scv: 1.0,
            backlog_mean_ms: 0.5,
            ..Default::default()
        };
        let model = QueueingModel::default();
        assert!(!model.estimate(&obs, 0.0001, 5).diverging);
        let proactive =
            model.estimate_with_prediction(&obs, 0.0001, 5, &ProactiveConfig::enabled());
        assert!(proactive.diverging);
        assert!(proactive.spread_mean_secs.is_finite());
        assert!(proactive.spread_variance_secs2.is_finite());
        assert!(proactive.tp_mean_secs().is_finite());
    }

    #[test]
    fn proactive_estimate_flags_divergence_on_predicted_growth() {
        // ρ in the divergence band, measured backlog still flat, but the
        // *predicted* wait is growing faster than its own magnitude: the
        // proactive path escalates one sweep before the measured trend can.
        let obs = WriteStageObservation {
            arrival_rate_per_replica: 950.0,
            service_mean_ms: 1.0, // ρ = 0.95
            service_scv: 1.0,
            backlog_mean_ms: 10.0,
            backlog_trend_ms_per_s: 0.0,
            predicted_wait_ms: 8.0,
            predicted_wait_trend_ms_per_s: 30.0,
            ..Default::default()
        };
        let model = QueueingModel::default();
        assert!(!model.estimate(&obs, 0.0001, 5).diverging);
        let proactive =
            model.estimate_with_prediction(&obs, 0.0001, 5, &ProactiveConfig::enabled());
        assert!(proactive.diverging);
        // A flat prediction at the same utilization does not escalate.
        let flat = WriteStageObservation {
            predicted_wait_trend_ms_per_s: 0.0,
            ..obs
        };
        let calm = model.estimate_with_prediction(&flat, 0.0001, 5, &ProactiveConfig::enabled());
        assert!(!calm.diverging);
    }

    #[test]
    fn laplace_zero_variance_matches_point_mass() {
        let est = StalenessEstimate {
            tp_network_secs: 0.0005,
            spread_mean_secs: 0.0015,
            ..StalenessEstimate::default()
        };
        assert!(close(est.laplace(700.0), (-700.0f64 * 0.002).exp(), 1e-15));
    }
}
