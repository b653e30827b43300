//! The stale-read probability estimator (paper Eq. 1-6) and the replica-count
//! computation (paper Eq. 7-8).
//!
//! ## Notation
//!
//! The paper models read and write arrivals as Poisson processes. Reads arrive
//! at rate `λr`; writes are parameterised by `λw` such that the write arrival
//! rate is `1/λw` (the inversion is purely to simplify the algebra in the
//! paper, and we keep it internally so the implemented formulas are literally
//! the published ones). The public API takes plain *rates* — reads per second
//! and writes per second — because that is what a monitoring module measures.
//!
//! A read that starts within the propagation window `[Xw, Xw + Tp]` of some
//! write may observe a replica the write has not reached yet; with `X`
//! replicas involved in the read out of `N` total, the probability that the
//! read hits only not-yet-updated replicas is `(N - X)/N` in the paper's
//! single-stale-replica approximation.

use crate::poisson::{exponential_cdf, gamma_pdf};
use crate::queueing::StalenessEstimate;

/// Debug-assert that model inputs are physical (non-negative). Release builds
/// clamp instead (see the `*_saturating` entry points), matching the paper's
/// monitor which can only ever produce non-negative rates — a negative value
/// reaching the model is a caller bug worth catching early in development.
macro_rules! debug_check_rates {
    ($read_rate:expr, $write_rate:expr, $tp_secs:expr) => {
        debug_assert!(
            $read_rate >= 0.0,
            "read_rate must be non-negative, got {}",
            $read_rate
        );
        debug_assert!(
            $write_rate >= 0.0,
            "write_rate must be non-negative, got {}",
            $write_rate
        );
        debug_assert!(
            $tp_secs >= 0.0,
            "tp_secs must be non-negative, got {}",
            $tp_secs
        );
    };
}

/// Models the update propagation time `Tp(Ln, avg_write_size)` (paper §IV):
/// the time for a write to reach all replicas once it has been committed on
/// the first one, as a function of the network latency and the payload size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropagationModel {
    /// Fixed per-replica processing overhead added on top of the network
    /// latency, in milliseconds (commit-log append, memtable insert, ...).
    pub base_overhead_ms: f64,
    /// Effective network bandwidth used to transfer the write payload, in
    /// megabytes per second.
    pub bandwidth_mb_per_s: f64,
    /// The fraction of the one-way network latency `Ln` that contributes to
    /// the staleness window. With writes acknowledged once the *first*
    /// replica has applied them, the window during which other replicas lag
    /// is the *spread* of the per-replica propagation times rather than the
    /// full latency; a fraction below 1 models that differential. The default
    /// of 1.0 is the paper's conservative interpretation (`Tp` = full
    /// propagation time); the experiment harness calibrates it per platform.
    pub latency_fraction: f64,
}

impl Default for PropagationModel {
    fn default() -> Self {
        // Gigabit-Ethernet-class defaults: 0.1 ms processing overhead and
        // ~100 MB/s effective payload bandwidth.
        PropagationModel {
            base_overhead_ms: 0.1,
            bandwidth_mb_per_s: 100.0,
            latency_fraction: 1.0,
        }
    }
}

impl PropagationModel {
    /// A propagation model using only a fraction of the measured latency for
    /// the staleness window (see [`PropagationModel::latency_fraction`]).
    pub fn differential(latency_fraction: f64, base_overhead_ms: f64) -> Self {
        PropagationModel {
            base_overhead_ms,
            latency_fraction: latency_fraction.clamp(0.0, 1.0),
            ..PropagationModel::default()
        }
    }

    /// Computes `Tp` in **seconds** from the one-way network latency `Ln`
    /// (milliseconds) and the average write size (bytes).
    pub fn propagation_time_secs(&self, latency_ms: f64, avg_write_size_bytes: f64) -> f64 {
        let latency_ms = latency_ms.max(0.0) * self.latency_fraction.clamp(0.0, 1.0);
        let transfer_ms = if self.bandwidth_mb_per_s > 0.0 {
            (avg_write_size_bytes.max(0.0) / (self.bandwidth_mb_per_s * 1e6)) * 1e3
        } else {
            0.0
        };
        (latency_ms + self.base_overhead_ms.max(0.0) + transfer_ms) / 1e3
    }

    /// Same as [`PropagationModel::propagation_time_secs`] but returning
    /// milliseconds, convenient for reporting.
    pub fn propagation_time_ms(&self, latency_ms: f64, avg_write_size_bytes: f64) -> f64 {
        self.propagation_time_secs(latency_ms, avg_write_size_bytes) * 1e3
    }
}

/// The stale-read estimation model for a store with a fixed replication factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleReadModel {
    replication_factor: usize,
}

impl StaleReadModel {
    /// Creates a model for a store with `replication_factor` replicas per key.
    ///
    /// # Panics
    /// Panics if `replication_factor` is zero.
    pub fn new(replication_factor: usize) -> Self {
        assert!(replication_factor >= 1, "replication factor must be >= 1");
        StaleReadModel { replication_factor }
    }

    /// The replication factor `N`.
    pub fn replication_factor(&self) -> usize {
        self.replication_factor
    }

    /// The quorum size `(N / 2) + 1` (paper §II.B).
    pub fn quorum(&self) -> usize {
        self.replication_factor / 2 + 1
    }

    /// The "staleness window intensity" `A = (1 - e^{-λr·Tp}) (1 + λr·λw) / (λr·λw)`.
    ///
    /// The closed-form probability for a read touching `X` replicas is
    /// `(N - X)/N · A` (clamped to `[0, 1]`); `A` itself can exceed 1 under
    /// heavy write load, which is why the clamping lives in the callers.
    fn intensity(&self, read_rate: f64, write_rate: f64, tp_secs: f64) -> f64 {
        if read_rate <= 0.0 || write_rate <= 0.0 || tp_secs <= 0.0 {
            return 0.0;
        }
        let lambda_r = read_rate;
        let lambda_w = 1.0 / write_rate; // paper parameterisation: write rate = 1/λw
        let product = lambda_r * lambda_w; // = read_rate / write_rate
        (1.0 - (-lambda_r * tp_secs).exp()) * (1.0 + product) / product
    }

    /// Paper Eq. (6): the probability that the next read is stale when reads
    /// are served by a single replica (consistency level ONE / basic eventual
    /// consistency). The result is clamped to `[0, 1]`.
    ///
    /// # Panics
    /// Debug builds panic on negative rates or propagation time (degenerate
    /// inputs indicate a caller bug); release builds clamp them to zero, which
    /// yields a zero probability — use
    /// [`StaleReadModel::stale_probability_saturating`] to get the clamped
    /// behaviour without the assertion.
    pub fn stale_probability(&self, read_rate: f64, write_rate: f64, tp_secs: f64) -> f64 {
        debug_check_rates!(read_rate, write_rate, tp_secs);
        self.stale_probability_saturating(read_rate, write_rate, tp_secs)
    }

    /// The non-asserting variant of [`StaleReadModel::stale_probability`]:
    /// degenerate (negative) inputs are clamped to zero instead of tripping a
    /// debug assertion, yielding a zero probability. This is the release-mode
    /// behaviour of every entry point, made available explicitly for callers
    /// that feed the model unsanitised telemetry.
    pub fn stale_probability_saturating(
        &self,
        read_rate: f64,
        write_rate: f64,
        tp_secs: f64,
    ) -> f64 {
        let n = self.replication_factor as f64;
        let a = self.intensity(read_rate.max(0.0), write_rate.max(0.0), tp_secs.max(0.0));
        (((n - 1.0) / n) * a).clamp(0.0, 1.0)
    }

    /// [`StaleReadModel::stale_probability`] under active anti-entropy
    /// repair running at `repair_rate` rounds per second.
    ///
    /// A lagging replica is healed by whichever comes first: normal update
    /// propagation (window `Tp`) or the next anti-entropy round (mean
    /// inter-round gap `1/ρ`). Combining the two healing rates
    /// `1/Tp_eff = 1/Tp + ρ` gives the effective window
    ///
    /// `Tp_eff = Tp / (1 + ρ·Tp)`
    ///
    /// which is what the closed form sees. A non-positive `repair_rate`
    /// delegates to [`StaleReadModel::stale_probability_saturating`]
    /// **exactly** (same code path, bit-identical result) — repair disabled
    /// is provably free. As `ρ → ∞` the window, and with it the stale
    /// probability, collapses to zero.
    pub fn stale_probability_with_repair(
        &self,
        read_rate: f64,
        write_rate: f64,
        tp_secs: f64,
        repair_rate: f64,
    ) -> f64 {
        if repair_rate <= 0.0 {
            return self.stale_probability_saturating(read_rate, write_rate, tp_secs);
        }
        let tp = tp_secs.max(0.0);
        let tp_eff = tp / (1.0 + repair_rate * tp);
        self.stale_probability_saturating(read_rate, write_rate, tp_eff)
    }

    /// [`StaleReadModel::required_replicas`] under active anti-entropy
    /// repair (see [`StaleReadModel::stale_probability_with_repair`] for the
    /// effective-window derivation). A non-positive `repair_rate` delegates
    /// exactly; repair can only shrink the replica count, never grow it.
    pub fn required_replicas_with_repair(
        &self,
        app_stale_rate: f64,
        read_rate: f64,
        write_rate: f64,
        tp_secs: f64,
        repair_rate: f64,
    ) -> usize {
        if repair_rate <= 0.0 {
            return self.required_replicas(app_stale_rate, read_rate, write_rate, tp_secs);
        }
        let tp = tp_secs.max(0.0);
        let tp_eff = tp / (1.0 + repair_rate * tp);
        self.required_replicas(app_stale_rate, read_rate, write_rate, tp_eff)
    }

    /// The generalisation of Eq. (6) to a read touching `replicas_in_read`
    /// replicas (the `X` of Eq. 7). With `X = N` the probability is zero —
    /// reading all replicas always observes the latest committed write.
    ///
    /// # Panics
    /// Debug builds panic on negative rates or propagation time; release
    /// builds clamp (see [`StaleReadModel::stale_probability`]).
    pub fn stale_probability_with_replicas(
        &self,
        replicas_in_read: usize,
        read_rate: f64,
        write_rate: f64,
        tp_secs: f64,
    ) -> f64 {
        debug_check_rates!(read_rate, write_rate, tp_secs);
        let n = self.replication_factor as f64;
        let x = replicas_in_read.clamp(1, self.replication_factor) as f64;
        let a = self.intensity(read_rate, write_rate, tp_secs);
        (((n - x) / n) * a).clamp(0.0, 1.0)
    }

    /// The queueing-aware counterpart of [`StaleReadModel::stale_probability`]:
    /// `Tp` is a distribution (deterministic network component plus the
    /// Gamma-distributed queue-wait spread of a [`StalenessEstimate`]) and the
    /// closed form is integrated over it exactly via the Laplace transform:
    ///
    /// `A = (1 - E[e^{-λr·Tp}]) (1 + λr·λw) / (λr·λw)`
    ///
    /// With zero spread variance this reduces to the scalar closed form at
    /// `Tp = tp_mean_secs()` exactly. A diverging estimate pins the intensity
    /// at its `Tp → ∞` ceiling.
    pub fn stale_probability_estimate(
        &self,
        read_rate: f64,
        write_rate: f64,
        estimate: &StalenessEstimate,
    ) -> f64 {
        self.stale_probability_with_replicas_estimate(1, read_rate, write_rate, estimate)
    }

    /// [`StaleReadModel::stale_probability_with_replicas`] over a `Tp`
    /// distribution (see [`StaleReadModel::stale_probability_estimate`]).
    pub fn stale_probability_with_replicas_estimate(
        &self,
        replicas_in_read: usize,
        read_rate: f64,
        write_rate: f64,
        estimate: &StalenessEstimate,
    ) -> f64 {
        debug_check_rates!(read_rate, write_rate, estimate.tp_mean_secs());
        let n = self.replication_factor as f64;
        let x = replicas_in_read.clamp(1, self.replication_factor) as f64;
        let a = self.intensity_estimate(read_rate, write_rate, estimate);
        (((n - x) / n) * a).clamp(0.0, 1.0)
    }

    /// [`StaleReadModel::required_replicas`] over a `Tp` distribution: the
    /// minimal `Xn` keeping the integrated stale-read estimate within
    /// `app_stale_rate`. A diverging estimate requires all `N` replicas
    /// unless the tolerance already covers the ceiling.
    pub fn required_replicas_estimate(
        &self,
        app_stale_rate: f64,
        read_rate: f64,
        write_rate: f64,
        estimate: &StalenessEstimate,
    ) -> usize {
        let n = self.replication_factor;
        let asr = app_stale_rate.clamp(0.0, 1.0);
        let a = self.intensity_estimate(read_rate, write_rate, estimate);
        if a <= 0.0 {
            return 1;
        }
        if estimate.diverging {
            // The intensity ceiling is finite, so the closed form alone would
            // still permit fewer than N replicas — not safe while the real
            // propagation window is unbounded. Either the tolerance covers
            // the (clamped) ceiling estimate, or every replica must be read.
            let theta = self.stale_probability_estimate(read_rate, write_rate, estimate);
            return if asr >= theta { 1 } else { n };
        }
        let xn = n as f64 * (1.0 - asr / a);
        if xn <= 1.0 {
            1
        } else {
            (xn.ceil() as usize).min(n)
        }
    }

    /// The staleness window intensity `A` integrated over the `Tp`
    /// distribution (exact, via the Laplace transform of the queue-wait
    /// spread).
    fn intensity_estimate(
        &self,
        read_rate: f64,
        write_rate: f64,
        estimate: &StalenessEstimate,
    ) -> f64 {
        let read_rate = read_rate.max(0.0);
        let write_rate = write_rate.max(0.0);
        if read_rate <= 0.0 || write_rate <= 0.0 {
            return 0.0;
        }
        let product = read_rate / write_rate; // λr·λw in the paper's notation
        let ceiling = (1.0 + product) / product;
        if estimate.diverging {
            // Tp → ∞: the transform vanishes and the intensity hits its cap.
            return ceiling;
        }
        if estimate.tp_mean_secs() <= 0.0 {
            return 0.0;
        }
        (1.0 - estimate.laplace(read_rate)) * ceiling
    }

    /// Paper Eq. (8): the minimal number of replicas `Xn` a read must touch so
    /// that the estimated stale-read rate does not exceed the tolerated rate
    /// `app_stale_rate` (a fraction in `[0, 1]`). The result is clamped to
    /// `[1, N]`.
    pub fn required_replicas(
        &self,
        app_stale_rate: f64,
        read_rate: f64,
        write_rate: f64,
        tp_secs: f64,
    ) -> usize {
        debug_check_rates!(read_rate, write_rate, tp_secs);
        let n = self.replication_factor;
        let asr = app_stale_rate.clamp(0.0, 1.0);
        let a = self.intensity(read_rate, write_rate, tp_secs);
        if a <= 0.0 {
            return 1;
        }
        // Xn >= N (1 - ASR / A); equivalently the paper's
        // N ((1-e^{-λrTp})(1+λrλw) - ASR·λrλw) / ((1-e^{-λrTp})(1+λrλw)).
        let xn = n as f64 * (1.0 - asr / a);
        if xn <= 1.0 {
            1
        } else {
            (xn.ceil() as usize).min(n)
        }
    }

    /// Numerical evaluation of the pre-simplification form (paper Eq. 2):
    ///
    /// `Σ_i ∫ f_w^i(t) (Fr(t + Tp) - Fr(t)) dt · (N-1)/N`
    ///
    /// where `f_w^i` is the Gamma(i, 1/λw) density of the i-th write arrival
    /// and `Fr` the exponential CDF of the next read. Used to cross-validate
    /// the closed form; `max_terms` bounds the series and the integration is
    /// a trapezoidal rule over an automatically chosen horizon.
    pub fn stale_probability_numeric(
        &self,
        read_rate: f64,
        write_rate: f64,
        tp_secs: f64,
        max_terms: usize,
    ) -> f64 {
        if read_rate <= 0.0 || write_rate <= 0.0 || tp_secs <= 0.0 {
            return 0.0;
        }
        let n = self.replication_factor as f64;
        let lambda_r = read_rate;
        let gamma_rate = write_rate; // rate parameter of the i-th write arrival time

        // i = 0 term: the "write" at t = 0 (point mass), contributes Fr(Tp) - Fr(0).
        let mut total = exponential_cdf(lambda_r, tp_secs);

        // Integration horizon: far enough that both the Gamma mass and the
        // exponential read CDF have converged.
        let horizon = (max_terms as f64 / gamma_rate) * 2.0 + 10.0 / lambda_r + 10.0 * tp_secs;
        let steps = 4000usize;
        let h = horizon / steps as f64;

        for i in 1..=max_terms {
            let mut term = 0.0;
            for s in 0..steps {
                let t0 = s as f64 * h;
                let t1 = t0 + h;
                let f0 = gamma_pdf(i as f64, gamma_rate, t0)
                    * (exponential_cdf(lambda_r, t0 + tp_secs) - exponential_cdf(lambda_r, t0));
                let f1 = gamma_pdf(i as f64, gamma_rate, t1)
                    * (exponential_cdf(lambda_r, t1 + tp_secs) - exponential_cdf(lambda_r, t1));
                term += 0.5 * h * (f0 + f1);
            }
            total += term;
            if term < 1e-12 {
                break;
            }
        }
        ((n - 1.0) / n * total).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn zero_replication_factor_panics() {
        StaleReadModel::new(0);
    }

    #[test]
    fn quorum_arithmetic() {
        assert_eq!(StaleReadModel::new(1).quorum(), 1);
        assert_eq!(StaleReadModel::new(3).quorum(), 2);
        assert_eq!(StaleReadModel::new(5).quorum(), 3);
        assert_eq!(StaleReadModel::new(6).quorum(), 4);
    }

    #[test]
    fn degenerate_inputs_give_zero_probability() {
        let m = StaleReadModel::new(5);
        assert_eq!(m.stale_probability(0.0, 100.0, 0.001), 0.0);
        assert_eq!(m.stale_probability(100.0, 0.0, 0.001), 0.0);
        assert_eq!(m.stale_probability(100.0, 100.0, 0.0), 0.0);
    }

    /// The release-mode (clamping) contract for negative inputs, available in
    /// all builds through the explicitly saturating entry point.
    #[test]
    fn negative_inputs_saturate_to_zero_probability() {
        let m = StaleReadModel::new(5);
        assert_eq!(m.stale_probability_saturating(-5.0, 100.0, 0.001), 0.0);
        assert_eq!(m.stale_probability_saturating(100.0, -1.0, 0.001), 0.0);
        assert_eq!(m.stale_probability_saturating(100.0, 100.0, -0.2), 0.0);
        // Non-degenerate inputs agree with the asserting entry point.
        assert_eq!(
            m.stale_probability_saturating(100.0, 100.0, 0.001),
            m.stale_probability(100.0, 100.0, 0.001)
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "read_rate must be non-negative")]
    fn negative_read_rate_panics_in_debug() {
        StaleReadModel::new(5).stale_probability(-5.0, 100.0, 0.001);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "write_rate must be non-negative")]
    fn negative_write_rate_panics_in_debug() {
        StaleReadModel::new(5).stale_probability(100.0, -5.0, 0.001);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "tp_secs must be non-negative")]
    fn negative_tp_panics_in_debug() {
        StaleReadModel::new(5).required_replicas(0.2, 100.0, 100.0, -0.001);
    }

    #[test]
    fn probability_is_clamped_to_unit_interval() {
        let m = StaleReadModel::new(5);
        // Extremely heavy write load and long propagation: raw formula > 1.
        let p = m.stale_probability(10.0, 100_000.0, 0.5);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(p, 1.0);
    }

    #[test]
    fn reading_all_replicas_is_never_stale() {
        let m = StaleReadModel::new(5);
        assert_eq!(
            m.stale_probability_with_replicas(5, 1000.0, 1000.0, 0.01),
            0.0
        );
        // Values above N are clamped to N.
        assert_eq!(
            m.stale_probability_with_replicas(9, 1000.0, 1000.0, 0.01),
            0.0
        );
    }

    #[test]
    fn probability_decreases_with_more_replicas_in_read() {
        let m = StaleReadModel::new(5);
        let mut prev = f64::INFINITY;
        for x in 1..=5 {
            let p = m.stale_probability_with_replicas(x, 500.0, 200.0, 0.002);
            assert!(p <= prev);
            prev = p;
        }
    }

    #[test]
    fn probability_increases_with_propagation_time() {
        let m = StaleReadModel::new(5);
        let p_fast = m.stale_probability(1000.0, 500.0, 0.0002);
        let p_slow = m.stale_probability(1000.0, 500.0, 0.005);
        assert!(p_slow > p_fast, "p_slow={p_slow} p_fast={p_fast}");
    }

    #[test]
    fn probability_increases_with_write_rate() {
        let m = StaleReadModel::new(5);
        let p_light = m.stale_probability(1000.0, 50.0, 0.001);
        let p_heavy = m.stale_probability(1000.0, 2000.0, 0.001);
        assert!(p_heavy > p_light);
    }

    #[test]
    fn matches_hand_computed_value() {
        // N=5, λr=1000/s, write rate 800/s (λw=1/800), Tp=1ms.
        // λrλw = 1.25, A = (1-e^{-1})(1+1.25)/1.25 = 0.6321*1.8 = 1.1378...
        // Pr = 4/5 * A = 0.9103 (clamped below 1).
        let m = StaleReadModel::new(5);
        let p = m.stale_probability(1000.0, 800.0, 0.001);
        let expected = 0.8 * (1.0 - (-1.0f64).exp()) * (1.0 + 1.25) / 1.25;
        assert!(close(p, expected, 1e-12), "p={p} expected={expected}");
    }

    #[test]
    fn low_load_approximation() {
        // For rare reads and writes, Pr ≈ (N-1)/N · Tp · write_rate · ... stays small.
        let m = StaleReadModel::new(3);
        let p = m.stale_probability(1.0, 1.0, 0.001);
        assert!(p < 0.01);
    }

    #[test]
    fn required_replicas_monotone_in_tolerance() {
        let m = StaleReadModel::new(5);
        let (r, w, tp) = (2000.0, 1500.0, 0.002);
        let mut prev = usize::MAX;
        for asr in [0.0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let x = m.required_replicas(asr, r, w, tp);
            assert!(x <= prev, "asr={asr}");
            assert!((1..=5).contains(&x));
            prev = x;
        }
    }

    #[test]
    fn required_replicas_satisfies_tolerance() {
        // The returned Xn must actually bring the estimate under ASR
        // (or be the maximum N when even that is not enough).
        let m = StaleReadModel::new(5);
        for &(r, w, tp) in &[
            (100.0, 50.0, 0.0005),
            (1000.0, 800.0, 0.001),
            (5000.0, 4000.0, 0.003),
            (50.0, 2000.0, 0.01),
        ] {
            for asr in [0.05, 0.2, 0.4, 0.6] {
                let x = m.required_replicas(asr, r, w, tp);
                if x < 5 {
                    let p = m.stale_probability_with_replicas(x, r, w, tp);
                    assert!(p <= asr + 1e-9, "x={x} p={p} asr={asr} r={r} w={w} tp={tp}");
                }
            }
        }
    }

    #[test]
    fn zero_tolerance_requires_all_replicas_under_load() {
        let m = StaleReadModel::new(5);
        assert_eq!(m.required_replicas(0.0, 1000.0, 800.0, 0.001), 5);
    }

    #[test]
    fn full_tolerance_needs_one_replica() {
        let m = StaleReadModel::new(5);
        assert_eq!(m.required_replicas(1.0, 1000.0, 800.0, 0.001), 1);
    }

    #[test]
    fn idle_system_needs_one_replica() {
        let m = StaleReadModel::new(5);
        assert_eq!(m.required_replicas(0.0, 0.0, 0.0, 0.0), 1);
    }

    #[test]
    fn numeric_series_matches_closed_form() {
        let m = StaleReadModel::new(5);
        // Moderate load so the series converges quickly and nothing clamps.
        for &(r, w, tp) in &[
            (200.0, 100.0, 0.0005),
            (50.0, 20.0, 0.001),
            (500.0, 100.0, 0.0002),
        ] {
            let closed = m.stale_probability(r, w, tp);
            let numeric = m.stale_probability_numeric(r, w, tp, 60);
            assert!(
                close(closed, numeric, 0.02),
                "closed={closed} numeric={numeric} r={r} w={w} tp={tp}"
            );
        }
    }

    #[test]
    fn deterministic_estimate_reduces_to_closed_form() {
        let m = StaleReadModel::new(5);
        for &(r, w, tp) in &[
            (1000.0, 800.0, 0.001),
            (200.0, 50.0, 0.0004),
            (5000.0, 5000.0, 0.01),
        ] {
            let est = StalenessEstimate::deterministic(tp);
            assert!(
                close(
                    m.stale_probability_estimate(r, w, &est),
                    m.stale_probability(r, w, tp),
                    1e-12
                ),
                "r={r} w={w} tp={tp}"
            );
            for asr in [0.0, 0.2, 0.6] {
                assert_eq!(
                    m.required_replicas_estimate(asr, r, w, &est),
                    m.required_replicas(asr, r, w, tp)
                );
            }
        }
    }

    #[test]
    fn spread_widens_the_estimate() {
        let m = StaleReadModel::new(5);
        let narrow = StalenessEstimate::deterministic(0.0002);
        let wide = StalenessEstimate {
            spread_mean_secs: 0.0005,
            spread_variance_secs2: 0.0005f64.powi(2) / 2.0,
            ..narrow
        };
        let p_narrow = m.stale_probability_estimate(800.0, 600.0, &narrow);
        let p_wide = m.stale_probability_estimate(800.0, 600.0, &wide);
        assert!(p_wide > p_narrow, "wide={p_wide} narrow={p_narrow}");
    }

    #[test]
    fn diverging_estimate_hits_the_ceiling() {
        let m = StaleReadModel::new(5);
        let diverging = StalenessEstimate {
            diverging: true,
            ..StalenessEstimate::deterministic(0.0001)
        };
        // The ceiling equals the Tp → ∞ limit of the closed form.
        let limit = m.stale_probability(800.0, 600.0, 1e6);
        assert_eq!(
            m.stale_probability_estimate(800.0, 600.0, &diverging),
            limit
        );
        // Zero tolerance under a diverging queue reads everything.
        assert_eq!(
            m.required_replicas_estimate(0.0, 800.0, 600.0, &diverging),
            5
        );
        // An idle system is never stale even if flagged diverging.
        assert_eq!(m.stale_probability_estimate(0.0, 600.0, &diverging), 0.0);
    }

    /// Disabled repair (rate ≤ 0) must be *bit-identical* to the plain
    /// closed form — the free-when-disabled contract the controller's
    /// golden pins rely on.
    #[test]
    fn zero_repair_rate_is_bit_identical_to_plain_model() {
        let m = StaleReadModel::new(5);
        for &(r, w, tp) in &[
            (1000.0, 800.0, 0.001),
            (200.0, 50.0, 0.0004),
            (5000.0, 5000.0, 0.01),
            (0.0, 0.0, 0.0),
        ] {
            assert_eq!(
                m.stale_probability_with_repair(r, w, tp, 0.0).to_bits(),
                m.stale_probability_saturating(r, w, tp).to_bits()
            );
            assert_eq!(
                m.stale_probability_with_repair(r, w, tp, -3.0).to_bits(),
                m.stale_probability_saturating(r, w, tp).to_bits()
            );
            for asr in [0.0, 0.2, 0.6] {
                assert_eq!(
                    m.required_replicas_with_repair(asr, r, w, tp, 0.0),
                    m.required_replicas(asr, r, w, tp)
                );
            }
        }
    }

    /// Faster repair rounds tighten the staleness estimate monotonically and
    /// collapse it entirely in the limit.
    #[test]
    fn repair_rate_tightens_the_estimate_monotonically() {
        let m = StaleReadModel::new(5);
        // An operating point where the closed form does not clamp at 1, so
        // strict monotonicity is observable.
        let (r, w, tp) = (1000.0, 800.0, 0.001);
        let mut prev = m.stale_probability_with_repair(r, w, tp, 0.0);
        assert!(prev > 0.0 && prev < 1.0);
        for rate in [100.0, 1000.0, 10_000.0, 100_000.0] {
            let p = m.stale_probability_with_repair(r, w, tp, rate);
            assert!(p < prev, "rate={rate} p={p} prev={prev}");
            prev = p;
        }
        // ρ → ∞: the effective window vanishes.
        assert!(m.stale_probability_with_repair(r, w, tp, 1e12) < 1e-6);
    }

    /// Repair progress can only relax the replica requirement, and under
    /// heavy repair a single replica suffices at any nonzero tolerance.
    #[test]
    fn repair_never_raises_the_replica_requirement() {
        let m = StaleReadModel::new(5);
        for &(r, w, tp) in &[(1000.0, 800.0, 0.001), (5000.0, 4000.0, 0.003)] {
            for asr in [0.05, 0.2, 0.6] {
                let plain = m.required_replicas(asr, r, w, tp);
                for rate in [1.0, 50.0, 5000.0] {
                    let repaired = m.required_replicas_with_repair(asr, r, w, tp, rate);
                    assert!(repaired <= plain, "asr={asr} rate={rate}");
                }
                assert_eq!(m.required_replicas_with_repair(asr, r, w, tp, 1e12), 1);
            }
        }
    }

    #[test]
    fn propagation_model_components() {
        let p = PropagationModel::default();
        // Latency dominates for small writes.
        let tp = p.propagation_time_secs(0.5, 1024.0);
        assert!(tp > 0.0005 && tp < 0.001, "tp={tp}");
        // Larger writes take longer.
        assert!(p.propagation_time_secs(0.5, 1_000_000.0) > tp);
        // Milliseconds variant is consistent.
        assert!(close(p.propagation_time_ms(0.5, 1024.0), tp * 1e3, 1e-12));
    }

    #[test]
    fn propagation_model_degenerate_inputs() {
        let p = PropagationModel {
            base_overhead_ms: 0.0,
            bandwidth_mb_per_s: 0.0,
            latency_fraction: 1.0,
        };
        assert_eq!(p.propagation_time_secs(-1.0, -5.0), 0.0);
        assert_eq!(p.propagation_time_secs(1.0, 1e9), 0.001);
    }

    #[test]
    fn differential_propagation_scales_the_latency_term() {
        let full = PropagationModel::default();
        let diff = PropagationModel::differential(0.1, 0.0);
        let tp_full = full.propagation_time_secs(10.0, 0.0);
        let tp_diff = diff.propagation_time_secs(10.0, 0.0);
        assert!(tp_diff < tp_full);
        assert!((tp_diff - 0.001).abs() < 1e-9, "tp_diff={tp_diff}");
        // The fraction is clamped to [0, 1].
        assert_eq!(
            PropagationModel::differential(5.0, 0.0).propagation_time_secs(1.0, 0.0),
            PropagationModel::differential(1.0, 0.0).propagation_time_secs(1.0, 0.0)
        );
    }
}
