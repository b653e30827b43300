//! Property-based tests for the stale-read model and rate estimators, plus a
//! Monte-Carlo cross-validation of the closed-form probability in the
//! low-contention regime where the paper's independence approximation holds.

use harmony_model::decision::{decide, ConsistencyDecision};
use harmony_model::rates::SlidingWindowRate;
use harmony_model::staleness::{PropagationModel, StaleReadModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #[test]
    fn probability_always_in_unit_interval(
        n in 1usize..10,
        read_rate in 0.0f64..50_000.0,
        write_rate in 0.0f64..50_000.0,
        tp in 0.0f64..1.0,
    ) {
        let m = StaleReadModel::new(n);
        let p = m.stale_probability(read_rate, write_rate, tp);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    #[test]
    fn probability_monotone_in_replicas_involved(
        n in 2usize..9,
        read_rate in 1.0f64..10_000.0,
        write_rate in 1.0f64..10_000.0,
        tp in 1e-5f64..0.1,
    ) {
        let m = StaleReadModel::new(n);
        let mut prev = f64::INFINITY;
        for x in 1..=n {
            let p = m.stale_probability_with_replicas(x, read_rate, write_rate, tp);
            prop_assert!(p <= prev + 1e-12);
            prev = p;
        }
        // Reading every replica can never be stale.
        prop_assert_eq!(m.stale_probability_with_replicas(n, read_rate, write_rate, tp), 0.0);
    }

    #[test]
    fn required_replicas_in_valid_range_and_sufficient(
        n in 1usize..9,
        asr in 0.0f64..1.0,
        read_rate in 1.0f64..10_000.0,
        write_rate in 1.0f64..10_000.0,
        tp in 1e-6f64..0.05,
    ) {
        let m = StaleReadModel::new(n);
        let x = m.required_replicas(asr, read_rate, write_rate, tp);
        prop_assert!(x >= 1 && x <= n);
        if x < n {
            let p = m.stale_probability_with_replicas(x, read_rate, write_rate, tp);
            prop_assert!(p <= asr + 1e-9, "x={x} p={p} asr={asr}");
        }
        // One fewer replica (if possible) must NOT satisfy the tolerance,
        // i.e. the result is minimal.
        if x > 1 {
            let p_less = m.stale_probability_with_replicas(x - 1, read_rate, write_rate, tp);
            prop_assert!(p_less > asr - 1e-9, "x={x} p_less={p_less} asr={asr}");
        }
    }

    #[test]
    fn decision_matches_model(
        asr in 0.0f64..1.0,
        read_rate in 1.0f64..10_000.0,
        write_rate in 1.0f64..10_000.0,
        tp in 1e-6f64..0.05,
    ) {
        let m = StaleReadModel::new(5);
        let d = decide(&m, asr, read_rate, write_rate, tp);
        let theta = m.stale_probability(read_rate, write_rate, tp);
        match d {
            ConsistencyDecision::Eventual => {
                // Either the tolerance covers the estimate, or one replica is enough anyway.
                prop_assert!(asr >= theta || m.required_replicas(asr, read_rate, write_rate, tp) <= 1);
            }
            ConsistencyDecision::Replicas(x) => {
                prop_assert!(asr < theta);
                prop_assert!((2..=5).contains(&x));
            }
        }
    }

    #[test]
    fn propagation_time_monotone(
        lat_a in 0.0f64..50.0,
        lat_b in 0.0f64..50.0,
        size_a in 0.0f64..1e7,
        size_b in 0.0f64..1e7,
    ) {
        let p = PropagationModel::default();
        let (lo_lat, hi_lat) = if lat_a <= lat_b { (lat_a, lat_b) } else { (lat_b, lat_a) };
        let (lo_sz, hi_sz) = if size_a <= size_b { (size_a, size_b) } else { (size_b, size_a) };
        prop_assert!(p.propagation_time_secs(lo_lat, 100.0) <= p.propagation_time_secs(hi_lat, 100.0));
        prop_assert!(p.propagation_time_secs(1.0, lo_sz) <= p.propagation_time_secs(1.0, hi_sz));
    }

    #[test]
    fn sliding_window_rates_are_never_negative(
        samples in prop::collection::vec((0.01f64..5.0, 0u64..10_000, 0u64..10_000), 1..50),
        window in 0.5f64..30.0,
    ) {
        let mut est = SlidingWindowRate::new(window);
        for (e, r, w) in samples {
            est.observe(e, r, w);
            let v = est.estimate();
            prop_assert!(v.reads_per_sec >= 0.0);
            prop_assert!(v.writes_per_sec >= 0.0);
        }
    }
}

/// Monte-Carlo cross-check of Eq. (6), simulating exactly the probabilistic
/// situation of the paper's Figure 2 / Eq. (1).
///
/// The paper's model is anchored at the time of the *last write* (the write at
/// the origin in Figure 2): the next read arrives `Xr ~ Exp(λr)` later, the
/// i-th subsequent write arrives at `Xw^i ~ Gamma(i, 1/λw)`, and the read may
/// be stale when it falls inside a propagation window `[Xw^i, Xw^i + Tp]`
/// (including the window of the anchoring write at the origin, the `i = 0`
/// term of the sum), landing on a not-yet-updated replica with probability
/// `(N-1)/N`. The Monte-Carlo estimate of that event must match the closed
/// form. Note this quantity is *conditioned on a write having just happened*
/// and therefore deliberately overestimates the steady-state stale fraction —
/// a conservative bias that pushes Harmony towards stronger consistency.
#[test]
fn monte_carlo_agrees_with_closed_form() {
    let n = 5usize;
    let model = StaleReadModel::new(n);
    let read_rate = 200.0;
    let write_rate = 40.0;
    let tp = 0.001; // 1 ms

    let mut rng = StdRng::seed_from_u64(20120917); // CLUSTER 2012 submission date
    let trials = 400_000u64;
    let mut stale = 0u64;
    for _ in 0..trials {
        // Next read, measured from the anchoring write at t = 0.
        let xr = -(1.0 - rng.gen::<f64>()).ln() / read_rate;
        // Walk subsequent writes until they pass the read time.
        let mut in_window = xr < tp; // window of the anchoring write (i = 0 term)
        let mut t_write = 0.0;
        loop {
            t_write += -(1.0 - rng.gen::<f64>()).ln() / write_rate;
            if t_write > xr {
                break;
            }
            if xr - t_write < tp {
                in_window = true;
            }
        }
        if in_window && rng.gen_range(0..n) != 0 {
            stale += 1;
        }
    }
    let empirical = stale as f64 / trials as f64;
    let predicted = model.stale_probability(read_rate, write_rate, tp);
    let diff = (empirical - predicted).abs();
    // The closed form sums per-write window probabilities; the Monte-Carlo
    // measures their union, so a small positive gap (overlapping windows) is
    // expected on top of sampling noise.
    assert!(
        diff < 0.02,
        "empirical={empirical:.4} predicted={predicted:.4} diff={diff:.4}"
    );
}

/// The paper's Figure 4(a) observation: workload B (few writes) must always
/// have a lower estimated stale-read probability than workload A (heavy
/// read-update mix) at the same total throughput.
#[test]
fn workload_b_estimates_below_workload_a() {
    let model = StaleReadModel::new(5);
    let tp = 0.0005;
    for total_ops in [100.0, 1000.0, 10_000.0] {
        // Workload A: 50% reads / 50% updates; workload B: 95% reads / 5% updates.
        let a = model.stale_probability(total_ops * 0.5, total_ops * 0.5, tp);
        let b = model.stale_probability(total_ops * 0.95, total_ops * 0.05, tp);
        assert!(b < a, "total={total_ops} a={a} b={b}");
    }
}

/// Figure 4(b) observation: higher network latency (hence higher Tp) dominates
/// the stale-read estimate regardless of thread count / rates.
#[test]
fn latency_dominates_estimate() {
    let model = StaleReadModel::new(5);
    let prop = PropagationModel::default();
    for rates in [(100.0, 50.0), (1000.0, 500.0), (10_000.0, 5_000.0)] {
        let p_low =
            model.stale_probability(rates.0, rates.1, prop.propagation_time_secs(0.2, 1024.0));
        let p_high =
            model.stale_probability(rates.0, rates.1, prop.propagation_time_secs(40.0, 1024.0));
        assert!(p_high >= p_low);
        assert!(
            p_high > 0.9,
            "40ms latency should push the estimate close to its ceiling"
        );
    }
}
