//! Parametric network latency models.
//!
//! The Harmony paper's central environmental variable is the update
//! propagation time `Tp`, which is driven by inter-replica network latency
//! (§IV). Grid'5000 shows low, stable LAN latencies while EC2 exhibits a mean
//! roughly five times higher with substantial variability (§V.E, Figure 4b).
//! The [`Latency`] enum captures the distribution families needed to model
//! both environments, plus combinators to shift/scale/spike a base model.

use crate::clock::SimTime;
use rand::Rng;
use rand_distr::{Distribution, LogNormal, Normal, Pareto};

/// A sampleable one-way network latency model.
///
/// All parameters are expressed in milliseconds; samples are returned as
/// [`SimTime`]. Every variant clamps at a non-negative value.
#[derive(Debug, Clone)]
pub enum Latency {
    /// A fixed latency.
    Constant {
        /// Latency in milliseconds.
        ms: f64,
    },
    /// Uniformly distributed latency in `[lo_ms, hi_ms]`.
    Uniform {
        /// Lower bound (ms).
        lo_ms: f64,
        /// Upper bound (ms).
        hi_ms: f64,
    },
    /// Normally distributed latency truncated below at `min_ms`.
    Normal {
        /// Mean (ms).
        mean_ms: f64,
        /// Standard deviation (ms).
        std_ms: f64,
        /// Truncation floor (ms).
        min_ms: f64,
    },
    /// Log-normally distributed latency (natural parametrisation by the
    /// median and the multiplicative spread `sigma`).
    LogNormal {
        /// Median latency (ms).
        median_ms: f64,
        /// Log-space standard deviation (dimensionless).
        sigma: f64,
    },
    /// Pareto-tailed latency: `scale_ms * Pareto(shape)`, modelling the rare
    /// very slow packets seen on shared cloud networks.
    ParetoTail {
        /// Scale, i.e. the minimum value of the distribution (ms).
        scale_ms: f64,
        /// Tail index; smaller means heavier tail. Must be > 0.
        shape: f64,
    },
    /// A base model plus occasional multiplicative spikes: with probability
    /// `spike_prob` the sample is multiplied by `spike_factor`.
    Spiky {
        /// The base latency model.
        base: Box<Latency>,
        /// Probability of a spike on any given sample (0..=1).
        spike_prob: f64,
        /// Multiplier applied when a spike occurs.
        spike_factor: f64,
    },
    /// A base model scaled by a constant factor.
    Scaled {
        /// The base latency model.
        base: Box<Latency>,
        /// Multiplicative factor.
        factor: f64,
    },
    /// A base model shifted up by a constant number of milliseconds.
    Shifted {
        /// The base latency model.
        base: Box<Latency>,
        /// Additive offset (ms).
        offset_ms: f64,
    },
}

impl Latency {
    /// A fixed latency of `ms` milliseconds.
    pub fn constant_ms(ms: f64) -> Self {
        Latency::Constant { ms }
    }

    /// A uniform latency in `[lo_ms, hi_ms]` milliseconds.
    pub fn uniform_ms(lo_ms: f64, hi_ms: f64) -> Self {
        Latency::Uniform { lo_ms, hi_ms }
    }

    /// A truncated normal latency.
    pub fn normal_ms(mean_ms: f64, std_ms: f64) -> Self {
        Latency::Normal {
            mean_ms,
            std_ms,
            min_ms: (mean_ms - 3.0 * std_ms).max(0.01),
        }
    }

    /// A log-normal latency given its median and spread.
    pub fn lognormal_ms(median_ms: f64, sigma: f64) -> Self {
        Latency::LogNormal { median_ms, sigma }
    }

    /// Wraps `self` in a spiky model.
    pub fn with_spikes(self, spike_prob: f64, spike_factor: f64) -> Self {
        Latency::Spiky {
            base: Box::new(self),
            spike_prob,
            spike_factor,
        }
    }

    /// Wraps `self` in a scaling model.
    pub fn scaled(self, factor: f64) -> Self {
        Latency::Scaled {
            base: Box::new(self),
            factor,
        }
    }

    /// Wraps `self` in a shifting model.
    pub fn shifted_ms(self, offset_ms: f64) -> Self {
        Latency::Shifted {
            base: Box::new(self),
            offset_ms,
        }
    }

    /// Draws one latency sample in milliseconds.
    pub fn sample_ms<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let v = match self {
            Latency::Constant { ms } => *ms,
            Latency::Uniform { lo_ms, hi_ms } => {
                if hi_ms <= lo_ms {
                    *lo_ms
                } else {
                    rng.gen_range(*lo_ms..*hi_ms)
                }
            }
            Latency::Normal {
                mean_ms,
                std_ms,
                min_ms,
            } => {
                let d = Normal::new(*mean_ms, (*std_ms).max(1e-9)).expect("valid normal");
                d.sample(rng).max(*min_ms)
            }
            Latency::LogNormal { median_ms, sigma } => {
                let mu = median_ms.max(1e-9).ln();
                let d = LogNormal::new(mu, (*sigma).max(1e-9)).expect("valid lognormal");
                d.sample(rng)
            }
            Latency::ParetoTail { scale_ms, shape } => {
                let d =
                    Pareto::new((*scale_ms).max(1e-9), (*shape).max(1e-3)).expect("valid pareto");
                d.sample(rng)
            }
            Latency::Spiky {
                base,
                spike_prob,
                spike_factor,
            } => {
                let v = base.sample_ms(rng);
                if rng.gen_bool(spike_prob.clamp(0.0, 1.0)) {
                    v * spike_factor
                } else {
                    v
                }
            }
            Latency::Scaled { base, factor } => base.sample_ms(rng) * factor,
            Latency::Shifted { base, offset_ms } => base.sample_ms(rng) + offset_ms,
        };
        v.max(0.0)
    }

    /// Draws one latency sample as a [`SimTime`].
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        SimTime::from_millis_f64(self.sample_ms(rng))
    }

    /// The analytic (or, for spiky/heavy-tailed models, approximate) mean in
    /// milliseconds, used by the monitor-free estimation paths and tests.
    pub fn mean_ms(&self) -> f64 {
        match self {
            Latency::Constant { ms } => *ms,
            Latency::Uniform { lo_ms, hi_ms } => (lo_ms + hi_ms) / 2.0,
            Latency::Normal { mean_ms, .. } => *mean_ms,
            Latency::LogNormal { median_ms, sigma } => median_ms * (sigma * sigma / 2.0).exp(),
            Latency::ParetoTail { scale_ms, shape } => {
                if *shape > 1.0 {
                    scale_ms * shape / (shape - 1.0)
                } else {
                    // Infinite-mean regime: report a large finite proxy.
                    scale_ms * 100.0
                }
            }
            Latency::Spiky {
                base,
                spike_prob,
                spike_factor,
            } => {
                let m = base.mean_ms();
                m * (1.0 - spike_prob) + m * spike_factor * spike_prob
            }
            Latency::Scaled { base, factor } => base.mean_ms() * factor,
            Latency::Shifted { base, offset_ms } => base.mean_ms() + offset_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    fn empirical_mean(l: &Latency, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| l.sample_ms(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let l = Latency::constant_ms(2.5);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(l.sample_ms(&mut r), 2.5);
        }
        assert_eq!(l.mean_ms(), 2.5);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let l = Latency::uniform_ms(1.0, 3.0);
        let mut r = rng();
        for _ in 0..1000 {
            let v = l.sample_ms(&mut r);
            assert!((1.0..3.0).contains(&v));
        }
        assert!((empirical_mean(&l, 20_000) - 2.0).abs() < 0.05);
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let l = Latency::uniform_ms(2.0, 2.0);
        assert_eq!(l.sample_ms(&mut rng()), 2.0);
    }

    #[test]
    fn normal_respects_floor_and_mean() {
        let l = Latency::normal_ms(5.0, 1.0);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(l.sample_ms(&mut r) >= 0.01);
        }
        assert!((empirical_mean(&l, 20_000) - 5.0).abs() < 0.1);
    }

    #[test]
    fn lognormal_mean_matches_analytic() {
        let l = Latency::lognormal_ms(2.0, 0.5);
        let analytic = l.mean_ms();
        let emp = empirical_mean(&l, 100_000);
        assert!(
            (emp - analytic).abs() / analytic < 0.05,
            "emp={emp} analytic={analytic}"
        );
    }

    #[test]
    fn pareto_is_at_least_scale() {
        let l = Latency::ParetoTail {
            scale_ms: 1.0,
            shape: 2.5,
        };
        let mut r = rng();
        for _ in 0..1000 {
            assert!(l.sample_ms(&mut r) >= 1.0);
        }
        assert!(l.mean_ms() > 1.0);
    }

    #[test]
    fn spiky_raises_the_mean() {
        let base = Latency::constant_ms(1.0);
        let spiky = base.clone().with_spikes(0.5, 10.0);
        assert!(empirical_mean(&spiky, 20_000) > empirical_mean(&base, 100) + 1.0);
        assert!((spiky.mean_ms() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn scaled_and_shifted_compose() {
        let l = Latency::constant_ms(2.0).scaled(3.0).shifted_ms(1.0);
        assert_eq!(l.sample_ms(&mut rng()), 7.0);
        assert_eq!(l.mean_ms(), 7.0);
    }

    #[test]
    fn samples_are_never_negative() {
        let l = Latency::normal_ms(0.1, 5.0);
        let mut r = rng();
        for _ in 0..2000 {
            assert!(l.sample_ms(&mut r) >= 0.0);
        }
    }

    #[test]
    fn sample_to_simtime() {
        let l = Latency::constant_ms(1.5);
        assert_eq!(l.sample(&mut rng()), SimTime::from_millis_f64(1.5));
    }
}
