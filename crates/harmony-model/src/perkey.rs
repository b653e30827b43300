//! Per-key (hot-spot) staleness: specialising the queueing-aware estimate
//! with one key's own arrival intensity and mutation backlog.
//!
//! The cluster-wide model of [`crate::staleness`] and [`crate::queueing`]
//! works with aggregate rates, so under skewed (Zipfian / hotspot) key
//! popularity it faces an impossible trade-off: tuned for the hot keys it
//! forces strong reads on the entire keyspace; tuned for the aggregate it
//! lets the hot keys read stale. The per-key layer resolves this by
//! evaluating the *same* closed form with per-key inputs:
//!
//! * the key's own read and write arrival rates (`λr`, `λw` of paper Eq. 6
//!   restricted to the key) — for a hot key the write rate is far above the
//!   per-key average, which raises the staleness-window intensity;
//! * the key's own mutation backlog: mutations queued for the key on its
//!   laggard replica *are* propagation delay for that key, so they widen the
//!   key's `Tp` distribution (they are added to the queue-wait spread rather
//!   than to the deterministic component, preserving the integrate-over-the-
//!   spread behaviour of the global model).
//!
//! Untracked keys fall back to the global estimate unchanged: with a zero
//! per-key backlog the specialised estimate *is* the global estimate, so the
//! layer degrades gracefully on unskewed workloads and on backends without
//! per-key telemetry.

use crate::queueing::{StalenessEstimate, SPREAD_SHAPE};
use crate::staleness::StaleReadModel;

/// One key's monitored load: the inputs the per-key model specialises on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KeyLoad {
    /// The key's read arrival rate (reads/second).
    pub read_rate: f64,
    /// The key's write arrival rate (writes/second).
    pub write_rate: f64,
    /// Deepest per-replica pending-mutation backlog for the key (ms).
    pub backlog_ms: f64,
}

/// Specialises the global propagation-time distribution for one key: the
/// key's backlog widens the queue-wait spread; everything else (network
/// component, utilisation, divergence flag) is inherited. A key's pending
/// mutations translate one-for-one into staleness for reads of that key, so
/// the whole backlog counts. With a zero backlog the result is exactly the
/// global estimate.
pub fn specialise(global: &StalenessEstimate, load: &KeyLoad) -> StalenessEstimate {
    let extra_secs = load.backlog_ms.max(0.0) / 1e3;
    if extra_secs <= 0.0 {
        return *global;
    }
    let mean = global.spread_mean_secs.max(0.0) + extra_secs;
    // Keep the global spread's Gamma shape if it has one; otherwise use the
    // model's default shape (the mean-to-variance relation of a Gamma is
    // `Var = mean² / shape`).
    let shape = if global.spread_mean_secs > 0.0 && global.spread_variance_secs2 > 0.0 {
        global.spread_mean_secs * global.spread_mean_secs / global.spread_variance_secs2
    } else {
        SPREAD_SHAPE
    };
    StalenessEstimate {
        spread_mean_secs: mean,
        spread_variance_secs2: mean * mean / shape.max(1e-12),
        ..*global
    }
}

/// The key's stale-read probability: the queueing-aware closed form with the
/// key's own rates over the key's specialised `Tp` distribution.
pub fn stale_probability(
    model: &StaleReadModel,
    global: &StalenessEstimate,
    load: &KeyLoad,
) -> f64 {
    let est = specialise(global, load);
    model.stale_probability_estimate(load.read_rate.max(0.0), load.write_rate.max(0.0), &est)
}

/// The minimal replica count keeping the key's stale-read estimate within
/// `app_stale_rate` (the per-key counterpart of paper Eq. 8).
pub fn required_replicas(
    model: &StaleReadModel,
    app_stale_rate: f64,
    global: &StalenessEstimate,
    load: &KeyLoad,
) -> usize {
    let est = specialise(global, load);
    model.required_replicas_estimate(
        app_stale_rate,
        load.read_rate.max(0.0),
        load.write_rate.max(0.0),
        &est,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn global() -> StalenessEstimate {
        StalenessEstimate {
            tp_network_secs: 0.0004,
            queue_wait_secs: 0.002,
            spread_mean_secs: 0.0002,
            spread_variance_secs2: 0.0002f64.powi(2) / 2.0,
            utilization: 0.6,
            diverging: false,
            predicted_wait_secs: 0.0,
        }
    }

    #[test]
    fn zero_backlog_specialisation_is_the_global_estimate() {
        let g = global();
        let load = KeyLoad {
            read_rate: 120.0,
            write_rate: 80.0,
            backlog_ms: 0.0,
        };
        assert_eq!(specialise(&g, &load), g);
        // And the probability at equal rates is exactly the global model's.
        let model = StaleReadModel::new(5);
        assert_eq!(
            stale_probability(&model, &g, &load),
            model.stale_probability_estimate(120.0, 80.0, &g)
        );
    }

    #[test]
    fn backlog_widens_the_window_monotonically() {
        let model = StaleReadModel::new(5);
        let g = global();
        let mut prev = -1.0;
        for backlog in [0.0, 0.5, 2.0, 10.0, 50.0] {
            let load = KeyLoad {
                read_rate: 400.0,
                write_rate: 300.0,
                backlog_ms: backlog,
            };
            let p = stale_probability(&model, &g, &load);
            assert!(p >= prev, "backlog={backlog} p={p} prev={prev}");
            prev = p;
        }
        assert!(prev > model.stale_probability_estimate(400.0, 300.0, &g));
    }

    #[test]
    fn hotter_keys_need_more_replicas() {
        let model = StaleReadModel::new(5);
        let g = global();
        let cold = KeyLoad {
            read_rate: 5.0,
            write_rate: 2.0,
            backlog_ms: 0.0,
        };
        let hot = KeyLoad {
            read_rate: 900.0,
            write_rate: 700.0,
            backlog_ms: 8.0,
        };
        let x_cold = required_replicas(&model, 0.2, &g, &cold);
        let x_hot = required_replicas(&model, 0.2, &g, &hot);
        assert!(x_hot > x_cold, "hot={x_hot} cold={x_cold}");
        assert!(x_hot > 1);
    }

    #[test]
    fn inherits_the_global_spread_shape_when_present() {
        let g = global(); // shape 2 by construction
        let load = KeyLoad {
            read_rate: 100.0,
            write_rate: 100.0,
            backlog_ms: 5.0,
        };
        let est = specialise(&g, &load);
        let shape = est.spread_mean_secs * est.spread_mean_secs / est.spread_variance_secs2;
        assert!((shape - 2.0).abs() < 1e-9, "shape = {shape}");
        // Without a global spread, the model's default shape applies.
        let flat = StalenessEstimate {
            spread_mean_secs: 0.0,
            spread_variance_secs2: 0.0,
            ..g
        };
        let est = specialise(&flat, &load);
        let shape = est.spread_mean_secs * est.spread_mean_secs / est.spread_variance_secs2;
        assert!((shape - SPREAD_SHAPE).abs() < 1e-9, "shape = {shape}");
    }

    #[test]
    fn divergence_is_inherited() {
        let g = StalenessEstimate {
            diverging: true,
            ..global()
        };
        let load = KeyLoad {
            read_rate: 100.0,
            write_rate: 100.0,
            backlog_ms: 3.0,
        };
        assert!(specialise(&g, &load).diverging);
        // A diverging queue forces all replicas for a strict tolerance.
        let model = StaleReadModel::new(5);
        assert_eq!(required_replicas(&model, 0.0, &g, &load), 5);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        let model = StaleReadModel::new(5);
        let g = global();
        let load = KeyLoad {
            read_rate: -5.0,
            write_rate: -3.0,
            backlog_ms: -10.0,
        };
        assert_eq!(stale_probability(&model, &g, &load), 0.0);
        assert_eq!(required_replicas(&model, 0.5, &g, &load), 1);
    }
}
