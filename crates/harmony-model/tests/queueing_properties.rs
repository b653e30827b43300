//! Property-based tests for the queueing-aware staleness model: the M/G/1
//! write-stage queue, the propagation-time distribution, and the integrated
//! stale-read probability.
//!
//! The key contracts locked in here:
//!
//! * the integrated stale probability is always within `[0, 1]`,
//! * it is monotone (non-decreasing) in the queue-wait variance,
//! * it degrades gracefully as `ρ → 1` (finite, bounded, no NaN) and the
//!   diverging regime dominates every stable one,
//! * with zero queue-wait variance the model reduces to the existing scalar
//!   closed form to 1e-9.

use harmony_model::decision::{decide, decide_with_estimate};
use harmony_model::queueing::{
    MG1Queue, ProactiveConfig, QueueingModel, StalenessEstimate, WriteStageObservation,
};
use harmony_model::staleness::StaleReadModel;
use proptest::prelude::*;

fn observation(
    arrival: f64,
    service_ms: f64,
    scv: f64,
    backlog_ms: f64,
    variance_ms2: f64,
    trend: f64,
) -> WriteStageObservation {
    WriteStageObservation {
        arrival_rate_per_replica: arrival,
        service_mean_ms: service_ms,
        service_scv: scv,
        backlog_mean_ms: backlog_ms,
        backlog_variance_ms2: variance_ms2,
        backlog_trend_ms_per_s: trend,
        ..Default::default()
    }
}

proptest! {
    /// The integrated probability is clamped to the unit interval for
    /// arbitrary (non-negative) inputs, including extreme spreads.
    #[test]
    fn integrated_probability_always_in_unit_interval(
        n in 1usize..10,
        read_rate in 0.0f64..50_000.0,
        write_rate in 0.0f64..50_000.0,
        tp_net in 0.0f64..0.5,
        variance_ms2 in 0.0f64..1e6,
        arrival in 0.0f64..20_000.0,
        service_ms in 0.0f64..10.0,
    ) {
        let m = StaleReadModel::new(n);
        let est = QueueingModel::default().estimate(
            &observation(arrival, service_ms, 1.0, 5.0, variance_ms2, 0.0),
            tp_net,
            n,
        );
        let p = m.stale_probability_estimate(read_rate, write_rate, &est);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        prop_assert!(p.is_finite());
        for x in 1..=n {
            let px = m.stale_probability_with_replicas_estimate(x, read_rate, write_rate, &est);
            prop_assert!((0.0..=1.0).contains(&px));
        }
    }

    /// Stale probability is monotone (non-decreasing) in the queue-wait
    /// variance, everything else held fixed.
    #[test]
    fn probability_monotone_in_queue_wait_variance(
        n in 2usize..9,
        read_rate in 1.0f64..20_000.0,
        write_rate in 1.0f64..20_000.0,
        tp_net in 0.0f64..0.01,
        base_var in 0.0f64..100.0,
        steps in 2usize..8,
    ) {
        let m = StaleReadModel::new(n);
        let model = QueueingModel::default();
        let mut prev = -1.0f64;
        for i in 0..steps {
            let variance = base_var + i as f64 * (10.0 + base_var);
            let est = model.estimate(
                &observation(100.0, 0.5, 1.0, 5.0, variance, 0.0),
                tp_net,
                n,
            );
            let p = m.stale_probability_estimate(read_rate, write_rate, &est);
            prop_assert!(
                p >= prev - 1e-12,
                "variance={variance} p={p} prev={prev}"
            );
            prev = p;
        }
    }

    /// Zero queue-wait variance reduces the queueing-aware model to the
    /// scalar closed form at the same mean propagation time, to 1e-9.
    #[test]
    fn zero_variance_reduces_to_closed_form(
        n in 1usize..10,
        read_rate in 0.0f64..20_000.0,
        write_rate in 0.0f64..20_000.0,
        tp_net in 0.0f64..0.1,
        backlog_ms in 0.0f64..100.0,
        arrival in 0.0f64..900.0,
        asr in 0.0f64..1.0,
    ) {
        let m = StaleReadModel::new(n);
        // Stable queue (ρ < 0.9), uniform backlog, flat trend: zero variance.
        let est = QueueingModel::default().estimate(
            &observation(arrival, 1.0, 1.0, backlog_ms, 0.0, 0.0),
            tp_net,
            n,
        );
        prop_assert_eq!(est.spread_variance_secs2, 0.0);
        prop_assert!(!est.diverging);
        let integrated = m.stale_probability_estimate(read_rate, write_rate, &est);
        let closed = m.stale_probability_saturating(read_rate, write_rate, est.tp_mean_secs());
        prop_assert!(
            (integrated - closed).abs() <= 1e-9,
            "integrated={integrated} closed={closed}"
        );
        // The decision scheme agrees too.
        prop_assert_eq!(
            decide_with_estimate(&m, asr, read_rate, write_rate, &est),
            decide(&m, asr, read_rate.max(0.0), write_rate.max(0.0), est.tp_mean_secs())
        );
    }

    /// Graceful degradation at ρ → 1: the M/G/1 wait moments grow
    /// monotonically and the integrated probability stays bounded and finite
    /// right up to (and past) the stability boundary; a diverging queue
    /// dominates every stable estimate.
    #[test]
    fn degrades_gracefully_towards_saturation(
        n in 2usize..8,
        read_rate in 1.0f64..10_000.0,
        write_rate in 1.0f64..10_000.0,
        service_ms in 0.05f64..2.0,
        scv in 0.0f64..4.0,
    ) {
        let m = StaleReadModel::new(n);
        let model = QueueingModel::default();
        let service_secs = service_ms / 1e3;
        let mut prev_wait = 0.0f64;
        for rho in [0.1, 0.5, 0.9, 0.99, 0.999, 1.0, 1.5] {
            let arrival = rho / service_secs;
            let queue = MG1Queue::new(arrival, service_secs, scv);
            let wait = queue.mean_wait_secs();
            prop_assert!(wait >= prev_wait, "rho={rho}");
            prop_assert!(!wait.is_nan());
            prop_assert!(queue.wait_variance_secs2() >= 0.0);
            prev_wait = wait;

            // Probability stays valid whatever the utilization (the window is
            // driven by the measured dispersion, which stays finite).
            let est = model.estimate(
                &observation(arrival, service_ms, scv, 10.0, 4.0, 0.0),
                0.0001,
                n,
            );
            let p = m.stale_probability_estimate(read_rate, write_rate, &est);
            prop_assert!((0.0..=1.0).contains(&p) && p.is_finite(), "rho={rho} p={p}");
        }
        // ρ ≥ 1 with a growing backlog: diverging, and the estimate dominates
        // every stable configuration at the same rates.
        let runaway = model.estimate(
            &observation(1.2 / service_secs, service_ms, scv, 10.0, 4.0, 1000.0),
            0.0001,
            n,
        );
        prop_assert!(runaway.diverging);
        let p_runaway = m.stale_probability_estimate(read_rate, write_rate, &runaway);
        prop_assert!((0.0..=1.0).contains(&p_runaway));
        for rho in [0.1, 0.5, 0.9] {
            let stable = model.estimate(
                &observation(rho / service_secs, service_ms, scv, 10.0, 4.0, 0.0),
                0.0001,
                n,
            );
            let p_stable = m.stale_probability_estimate(read_rate, write_rate, &stable);
            prop_assert!(p_runaway >= p_stable - 1e-12, "rho={rho}");
        }
    }

    /// `required_replicas_estimate` stays within `[1, N]`, is sufficient when
    /// below `N`, and is monotone in the tolerance.
    #[test]
    fn required_replicas_estimate_valid_and_sufficient(
        n in 1usize..9,
        asr in 0.0f64..1.0,
        read_rate in 1.0f64..10_000.0,
        write_rate in 1.0f64..10_000.0,
        tp_net in 1e-6f64..0.01,
        variance_ms2 in 0.0f64..25.0,
    ) {
        let m = StaleReadModel::new(n);
        let est = QueueingModel::default().estimate(
            &observation(100.0, 0.5, 1.0, 5.0, variance_ms2, 0.0),
            tp_net,
            n,
        );
        let x = m.required_replicas_estimate(asr, read_rate, write_rate, &est);
        prop_assert!(x >= 1 && x <= n);
        if x < n {
            let p = m.stale_probability_with_replicas_estimate(x, read_rate, write_rate, &est);
            prop_assert!(p <= asr + 1e-9, "x={x} p={p} asr={asr}");
        }
        // Monotone in tolerance.
        let stricter = m.required_replicas_estimate((asr - 0.1).max(0.0), read_rate, write_rate, &est);
        prop_assert!(stricter >= x);
    }

    /// The saturating M/G/1 accessors are finite and within `[0, cap]` for
    /// arbitrary inputs — including ρ ≥ 1, where the raw accessors return
    /// `f64::INFINITY` — and agree with the raw values whenever those are
    /// below the cap.
    #[test]
    fn saturating_wait_accessors_are_bounded_and_exact(
        arrival in 0.0f64..50_000.0,
        service_ms in 0.0f64..10.0,
        scv in 0.0f64..8.0,
        cap in 0.0f64..30.0,
    ) {
        let q = MG1Queue::new(arrival, service_ms / 1e3, scv);
        let w = q.mean_wait_secs_saturating(cap);
        let s = q.wait_std_secs_saturating(cap);
        prop_assert!(w.is_finite() && (0.0..=cap).contains(&w), "w={w}");
        prop_assert!(s.is_finite() && (0.0..=cap).contains(&s), "s={s}");
        let raw = q.mean_wait_secs();
        if raw.is_finite() && raw <= cap {
            prop_assert_eq!(w, raw);
        }
        let raw_var = q.wait_variance_secs2();
        if raw_var.is_finite() && raw_var.sqrt() <= cap {
            prop_assert_eq!(s, raw_var.sqrt());
        }
    }

    /// Satellite-1 regression: across arbitrary telemetry — saturated queues
    /// included — no NaN or infinity ever reaches a `decide()` call through
    /// the proactive estimate, and the decision stays within `[1, N]`.
    #[test]
    fn no_nan_or_inf_ever_reaches_decide(
        n in 1usize..9,
        asr in 0.0f64..1.0,
        read_rate in 0.0f64..20_000.0,
        write_rate in 0.0f64..20_000.0,
        tp_net in 0.0f64..0.1,
        arrival in 0.0f64..50_000.0,
        service_ms in 0.0f64..10.0,
        scv in 0.0f64..8.0,
        backlog_ms in -5.0f64..500.0,
        variance_ms2 in 0.0f64..1e6,
        trend in -1e4f64..1e4,
        predicted_ms in 0.0f64..5e3,
        predicted_trend in -1e4f64..1e4,
    ) {
        let m = StaleReadModel::new(n);
        let model = QueueingModel::default();
        let proactive = ProactiveConfig::enabled();
        let mut obs = observation(arrival, service_ms, scv, backlog_ms, variance_ms2, trend);
        obs.predicted_wait_ms = predicted_ms;
        obs.predicted_wait_trend_ms_per_s = predicted_trend;
        let est = model.estimate_with_prediction(&obs, tp_net, n, &proactive);
        prop_assert!(est.tp_network_secs.is_finite());
        prop_assert!(est.queue_wait_secs.is_finite());
        prop_assert!(est.spread_mean_secs.is_finite());
        prop_assert!(est.spread_variance_secs2.is_finite());
        prop_assert!(est.utilization.is_finite());
        prop_assert!(est.predicted_wait_secs.is_finite());
        let p = m.stale_probability_estimate(read_rate, write_rate, &est);
        prop_assert!(p.is_finite() && (0.0..=1.0).contains(&p), "p={p}");
        let decision = decide_with_estimate(&m, asr, read_rate, write_rate, &est);
        prop_assert!(decision.replicas() >= 1 && decision.replicas() <= n);
    }

    /// The Laplace transform of the spread distribution is a valid transform:
    /// within (0, 1], decreasing in `s`, and increasing in variance at fixed
    /// mean (Jensen).
    #[test]
    fn laplace_transform_is_well_behaved(
        tp_net in 0.0f64..0.01,
        mean in 0.0f64..0.05,
        shape in 0.5f64..16.0,
        s_lo in 1.0f64..5_000.0,
    ) {
        let est = StalenessEstimate {
            tp_network_secs: tp_net,
            spread_mean_secs: mean,
            spread_variance_secs2: mean * mean / shape,
            ..StalenessEstimate::default()
        };
        let s_hi = s_lo * 3.0;
        let lo = est.laplace(s_lo);
        let hi = est.laplace(s_hi);
        prop_assert!(lo > 0.0 && lo <= 1.0);
        prop_assert!(hi <= lo + 1e-15);
        // Jensen: more variance at the same mean increases the transform.
        if mean > 0.0 {
            let spikier = StalenessEstimate {
                spread_variance_secs2: 4.0 * mean * mean / shape,
                ..est
            };
            prop_assert!(spikier.laplace(s_lo) >= lo - 1e-15);
        }
    }
}

/// A deterministic spot-check of the monotone-in-variance property across a
/// wide variance sweep, with the exact spread construction the controller
/// uses.
#[test]
fn variance_sweep_is_monotone_end_to_end() {
    let m = StaleReadModel::new(5);
    let model = QueueingModel::differential(0.02);
    let mut prev = -1.0;
    for k in 0..40 {
        let variance_ms2 = k as f64 * k as f64 * 0.25; // 0 .. ~380 ms²
        let est = model.estimate(
            &observation(8_000.0, 0.1, 1.0, 5.0, variance_ms2, 0.0),
            1.2e-5,
            5,
        );
        let p = m.stale_probability_estimate(15_000.0, 15_000.0, &est);
        assert!(p >= prev - 1e-12, "k={k} p={p} prev={prev}");
        assert!((0.0..=1.0).contains(&p));
        prev = p;
    }
    // The sweep actually moves the estimate (not a degenerate constant).
    assert!(prev > 0.2, "final probability {prev}");
}
