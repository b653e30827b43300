//! The high-level consistency decision scheme (paper §III).
//!
//! ```text
//! if app_stale_rate >= θ_stale:
//!     choose eventual consistency (consistency level ONE)
//! else:
//!     compute Xn, the number of replicas needed so that the estimated
//!     stale-read rate stays below app_stale_rate, and read at level Xn
//! ```

use crate::queueing::StalenessEstimate;
use crate::staleness::StaleReadModel;

/// The outcome of the Harmony decision scheme for the next batch of reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyDecision {
    /// The estimated stale-read rate is already within the tolerated rate:
    /// read from a single replica (consistency level ONE).
    Eventual,
    /// Read from this many replicas to keep the estimate within tolerance.
    Replicas(usize),
}

impl ConsistencyDecision {
    /// The number of replicas a read should contact under this decision.
    pub fn replicas(&self) -> usize {
        match self {
            ConsistencyDecision::Eventual => 1,
            ConsistencyDecision::Replicas(x) => *x,
        }
    }
}

/// Applies the paper's decision scheme.
///
/// * `app_stale_rate` — the fraction of stale reads the application tolerates
///   (0.0 = strong consistency required, 1.0 = anything goes).
/// * `read_rate`, `write_rate` — monitored access rates (operations/second).
/// * `tp_secs` — the estimated update propagation time in seconds.
pub fn decide(
    model: &StaleReadModel,
    app_stale_rate: f64,
    read_rate: f64,
    write_rate: f64,
    tp_secs: f64,
) -> ConsistencyDecision {
    let asr = app_stale_rate.clamp(0.0, 1.0);
    let theta = model.stale_probability(read_rate, write_rate, tp_secs);
    if asr >= theta {
        ConsistencyDecision::Eventual
    } else {
        let xn = model.required_replicas(asr, read_rate, write_rate, tp_secs);
        if xn <= 1 {
            ConsistencyDecision::Eventual
        } else {
            ConsistencyDecision::Replicas(xn)
        }
    }
}

/// The queueing-aware decision scheme: identical control flow to [`decide`],
/// but the stale-read estimate integrates over the propagation-time
/// distribution of a [`StalenessEstimate`] instead of point-estimating `Tp`.
/// With a zero-spread estimate this is exactly [`decide`] at
/// `tp_secs = estimate.tp_mean_secs()`.
pub fn decide_with_estimate(
    model: &StaleReadModel,
    app_stale_rate: f64,
    read_rate: f64,
    write_rate: f64,
    estimate: &StalenessEstimate,
) -> ConsistencyDecision {
    let asr = app_stale_rate.clamp(0.0, 1.0);
    let theta = model.stale_probability_estimate(read_rate, write_rate, estimate);
    if asr >= theta {
        ConsistencyDecision::Eventual
    } else {
        let xn = model.required_replicas_estimate(asr, read_rate, write_rate, estimate);
        if xn <= 1 {
            ConsistencyDecision::Eventual
        } else {
            ConsistencyDecision::Replicas(xn)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerant_application_gets_eventual_consistency() {
        let model = StaleReadModel::new(5);
        // 100% tolerance = archival workload of the paper's example.
        let d = decide(&model, 1.0, 5000.0, 4000.0, 0.01);
        assert_eq!(d, ConsistencyDecision::Eventual);
        assert_eq!(d.replicas(), 1);
    }

    #[test]
    fn idle_system_gets_eventual_consistency() {
        let model = StaleReadModel::new(5);
        assert_eq!(
            decide(&model, 0.0, 0.0, 0.0, 0.0),
            ConsistencyDecision::Eventual
        );
    }

    #[test]
    fn strict_application_under_load_gets_more_replicas() {
        let model = StaleReadModel::new(5);
        let d = decide(&model, 0.05, 2000.0, 1500.0, 0.002);
        match d {
            ConsistencyDecision::Replicas(x) => assert!(x > 1 && x <= 5),
            ConsistencyDecision::Eventual => panic!("expected elevated consistency"),
        }
    }

    #[test]
    fn zero_tolerance_under_load_reads_all_replicas() {
        let model = StaleReadModel::new(5);
        assert_eq!(
            decide(&model, 0.0, 2000.0, 1500.0, 0.002),
            ConsistencyDecision::Replicas(5)
        );
    }

    #[test]
    fn decision_replica_count_is_monotone_in_tolerance() {
        let model = StaleReadModel::new(5);
        let mut prev = usize::MAX;
        for asr in [0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let x = decide(&model, asr, 3000.0, 2500.0, 0.0015).replicas();
            assert!(x <= prev, "asr={asr} x={x} prev={prev}");
            prev = x;
        }
    }

    #[test]
    fn decision_is_consistent_with_model_estimate() {
        // Whenever the decision is Replicas(x) with x < N, the resulting
        // estimated stale rate must be within tolerance.
        let model = StaleReadModel::new(5);
        for &(r, w, tp) in &[(500.0, 300.0, 0.001), (4000.0, 3500.0, 0.0025)] {
            for asr in [0.1, 0.2, 0.4, 0.6] {
                let d = decide(&model, asr, r, w, tp);
                let p = model.stale_probability_with_replicas(d.replicas(), r, w, tp);
                if d.replicas() < 5 {
                    assert!(p <= asr + 1e-9, "asr={asr} p={p} d={d:?}");
                }
            }
        }
    }

    #[test]
    fn estimate_decision_matches_scalar_decision_at_zero_spread() {
        let model = StaleReadModel::new(5);
        for &(r, w, tp) in &[(500.0, 300.0, 0.001), (4000.0, 3500.0, 0.0025)] {
            for asr in [0.0, 0.1, 0.4, 1.0] {
                let est = StalenessEstimate::deterministic(tp);
                assert_eq!(
                    decide_with_estimate(&model, asr, r, w, &est),
                    decide(&model, asr, r, w, tp),
                    "asr={asr} r={r} w={w} tp={tp}"
                );
            }
        }
    }

    #[test]
    fn diverging_estimate_decides_strong_for_strict_tolerance() {
        let model = StaleReadModel::new(5);
        let est = StalenessEstimate {
            diverging: true,
            ..StalenessEstimate::deterministic(0.0001)
        };
        assert_eq!(
            decide_with_estimate(&model, 0.0, 2000.0, 1500.0, &est),
            ConsistencyDecision::Replicas(5)
        );
        // Mid-range tolerances get ALL replicas too, not the N-1 the finite
        // intensity ceiling alone would permit: while the queue diverges the
        // real propagation window is unbounded.
        for asr in [0.1, 0.3, 0.6, 0.9] {
            assert_eq!(
                decide_with_estimate(&model, asr, 2000.0, 1500.0, &est),
                ConsistencyDecision::Replicas(5),
                "asr={asr}"
            );
        }
        // A fully tolerant application still reads at ONE.
        assert_eq!(
            decide_with_estimate(&model, 1.0, 2000.0, 1500.0, &est),
            ConsistencyDecision::Eventual
        );
    }

    #[test]
    fn out_of_range_tolerance_is_clamped() {
        let model = StaleReadModel::new(5);
        assert_eq!(
            decide(&model, 7.3, 2000.0, 1500.0, 0.002),
            ConsistencyDecision::Eventual
        );
        assert_eq!(
            decide(&model, -0.5, 2000.0, 1500.0, 0.002),
            ConsistencyDecision::Replicas(5)
        );
    }
}
