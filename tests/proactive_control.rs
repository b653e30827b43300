//! Proactive (predicted-wait) control, end to end (ISSUE 6 acceptance): the
//! proactive controller escalates at least one monitoring period before the
//! reactive one after a correlated crash, relaxes no later once the cluster
//! heals, and keeps every decision input finite through a chaos schedule
//! that changes the topology mid-trend-window.
//!
//! Everything runs the full stack on the calibrated Grid'5000 figure
//! configuration, the same scenario the `proactive_sweep` binary sweeps: a
//! correlated eight-node outage (every other node, so every key keeps live
//! replicas) that steps the per-replica arrival rate past saturation. The
//! predicted wait sees that step in the very next sweep; the measured
//! backlog trend cannot, because the monitor segments its histories on the
//! topology change and the dispersion only widens once queues actually fill.

use harmony::prelude::*;
use harmony::sim::topology::NodeId;
use harmony_bench::experiments::{
    grid5000_experiment_config, scaled_workload_a, ExperimentConfig, PolicySpec,
};

/// The figure configuration's monitoring period (seconds).
const INTERVAL_SECS: f64 = 0.05;

/// Client threads: a calm regime, comfortably inside the 20% tolerance, so
/// the first escalation is the controller's response to the fault.
const THREADS: usize = 16;

/// The scaled experiment configuration shared by every test here: the
/// Grid'5000 figure configuration shrunk to CI size, with the write stage
/// near saturation (two service slots, slower mutations) so losing nodes
/// has headroom to push it past ρ = 1.
fn config() -> ExperimentConfig {
    let mut config = grid5000_experiment_config();
    config.records = 4_000;
    config.operations_per_thread = 300;
    config.min_operations = 9_000;
    config.store.node_concurrency = 2;
    config.store.write_service_ms = 0.6;
    config
}

/// The main load phase every run starts with.
fn load_phase(config: &ExperimentConfig) -> Phase {
    Phase::new(THREADS, config.operations_for(THREADS))
}

/// A near-idle tail appended to the step-response runs: the post-heal drain
/// completes under it, so both controllers get room to settle back to cheap
/// reads and the relax comparison is not cut off by the end of the run.
fn idle_tail() -> Phase {
    Phase::new(4, 2_000)
}

/// Runs workload A under the global Harmony controller, reactive or
/// proactive — every other input byte-identical.
fn run(
    config: &ExperimentConfig,
    proactive: bool,
    phases: Vec<Phase>,
    faults: FaultSchedule,
) -> ExperimentResult {
    let mut config = config.clone();
    if proactive {
        config.controller.proactive = ProactiveConfig::enabled();
    }
    let spec = ExperimentSpec {
        phases,
        ..config.spec(scaled_workload_a(config.records), 1)
    };
    config
        .runner(&PolicySpec::Harmony(0.20), spec)
        .with_faults(faults)
        .run()
}

/// The correlated outage: eight alternating nodes crash together and restart
/// together later.
fn outage() -> Vec<NodeId> {
    (0..8).map(|i| NodeId(2 * i + 1)).collect()
}

fn crash_schedule(crash_at: f64, restart_at: f64) -> FaultSchedule {
    let mut schedule = FaultSchedule::empty();
    for node in outage() {
        schedule = schedule
            .crash_at(crash_at, node)
            .restart_at(restart_at, node);
    }
    schedule
}

/// When the controller first left cheap reads at/after `step_secs` (either
/// by raising the default level or by flagging divergence).
fn first_escalation_secs(result: &ExperimentResult, step_secs: f64) -> Option<f64> {
    let step = SimTime::from_secs_f64(step_secs);
    result
        .decisions
        .iter()
        .find(|d| d.at >= step && (d.replicas_in_read > 1 || d.diverging))
        .map(|d| d.at.as_secs_f64())
}

/// The earliest tick at/after `from_secs` from which every remaining
/// decision reads at ONE (`None` if the run never settles).
fn relaxed_from_secs(result: &ExperimentResult, from_secs: f64) -> Option<f64> {
    let from = SimTime::from_secs_f64(from_secs);
    let mut relaxed_at: Option<f64> = None;
    for d in result.decisions.iter().filter(|d| d.at >= from) {
        if d.replicas_in_read == 1 {
            relaxed_at.get_or_insert(d.at.as_secs_f64());
        } else {
            relaxed_at = None;
        }
    }
    relaxed_at
}

/// Acceptance: after a correlated crash the proactive controller escalates
/// at least one monitoring period before the reactive one, and relaxes no
/// later once the replicas are back and the hint drain completes.
#[test]
fn proactive_escalates_a_period_earlier_and_relaxes_no_later() {
    let config = config();
    let baseline = run(
        &config,
        false,
        vec![load_phase(&config)],
        FaultSchedule::empty(),
    );
    let duration = baseline.stats.duration_secs();
    assert!(duration > 0.3, "baseline too short: {duration}s");
    let crash_at = duration * 0.3;
    let restart_at = duration * 0.65;
    // The pre-crash regime really is calm: the reactive baseline stays at
    // cheap reads until well past the crash point, so the first escalation
    // in the fault runs is fault response, not workload drift.
    assert!(
        baseline
            .decisions
            .iter()
            .filter(|d| d.at.as_secs_f64() <= restart_at)
            .all(|d| d.replicas_in_read == 1),
        "pre-fault regime escalated on its own — the lag comparison would be vacuous"
    );

    let phases = || vec![load_phase(&config), idle_tail()];
    let reactive = run(
        &config,
        false,
        phases(),
        crash_schedule(crash_at, restart_at),
    );
    let proactive = run(
        &config,
        true,
        phases(),
        crash_schedule(crash_at, restart_at),
    );
    assert_eq!(proactive.fault_counters.crashes, 8);
    assert_eq!(proactive.fault_counters.restarts, 8);
    assert_eq!(reactive.fault_counters.crashes, 8);

    // Escalation: the proactive controller reads the post-crash utilisation
    // step out of the predicted wait in the next sweep; the reactive one
    // has to wait for the backlog to materialise (its trend history was
    // segmented by the very topology change it needs to react to).
    let p = first_escalation_secs(&proactive, crash_at)
        .expect("proactive controller never escalated after the crash");
    let r = first_escalation_secs(&reactive, crash_at)
        .expect("reactive controller never escalated after the crash");
    assert!(
        p + INTERVAL_SECS <= r + 1e-9,
        "proactive escalated at {p:.3}s, reactive at {r:.3}s — less than one \
         monitoring period ({INTERVAL_SECS}s) of lead"
    );

    // Relax: once the restarted replicas drain their hints the predicted
    // wait collapses ahead of the measured dispersion, so the proactive
    // controller settles back to cheap reads no later than the reactive one.
    let p_relax = relaxed_from_secs(&proactive, restart_at);
    let r_relax = relaxed_from_secs(&reactive, restart_at);
    match (p_relax, r_relax) {
        (Some(p), Some(r)) => assert!(
            p <= r + 1e-9,
            "proactive relaxed at {p:.3}s, later than reactive at {r:.3}s"
        ),
        (Some(_), None) => {} // reactive never settled; proactive did.
        (p, r) => {
            panic!("proactive failed to settle after the heal: proactive {p:?}, reactive {r:?}")
        }
    }
    // And the lead was not bought with weaker reads overall: per post-crash
    // tick, the proactive controller reads at least as many replicas while
    // the cluster is degraded.
    let escalated_ticks = |result: &ExperimentResult| {
        result
            .decisions
            .iter()
            .filter(|d| d.at >= SimTime::from_secs_f64(crash_at) && d.replicas_in_read > 1)
            .count()
    };
    assert!(escalated_ticks(&proactive) > 0);
    assert!(escalated_ticks(&reactive) > 0);
}

/// Satellite regression, end to end: a chaos schedule whose topology changes
/// land mid-trend-window (crashes, a join, restarts, another join) never
/// feeds the decision layer a NaN or infinity — the M/G/1 accessors
/// saturate instead of overflowing at ρ ≥ 1, negative backlogs cannot leave
/// the store, and the monitor segments its slopes at every epoch change
/// rather than spanning the membership shift.
#[test]
fn chaos_with_mid_window_joins_keeps_every_decision_input_finite() {
    let config = config();
    let baseline = run(
        &config,
        true,
        vec![load_phase(&config)],
        FaultSchedule::empty(),
    );
    let duration = baseline.stats.duration_secs();
    let schedule = FaultSchedule::empty()
        .crash_at(duration * 0.2, NodeId(2))
        .crash_at(duration * 0.22, NodeId(5))
        .join_at(duration * 0.35, 0, 0)
        .restart_at(duration * 0.5, NodeId(2))
        .restart_at(duration * 0.52, NodeId(5))
        .join_at(duration * 0.7, 0, 1);
    for proactive in [false, true] {
        let result = run(
            &config,
            proactive,
            vec![load_phase(&config)],
            schedule.clone(),
        );
        assert_eq!(result.fault_counters.crashes, 2);
        assert_eq!(result.fault_counters.joins, 2);
        assert!(!result.decisions.is_empty());
        for d in &result.decisions {
            assert!(d.read_rate.is_finite() && d.read_rate >= 0.0);
            assert!(d.write_rate.is_finite() && d.write_rate >= 0.0);
            assert!(d.latency_ms.is_finite() && d.latency_ms >= 0.0);
            assert!(d.backlog_ms.is_finite() && d.backlog_ms >= 0.0);
            assert!(d.backlog_spread_ms.is_finite() && d.backlog_spread_ms >= 0.0);
            assert!(d.utilization.is_finite() && d.utilization >= 0.0);
            assert!(d.tp_secs.is_finite() && d.tp_secs >= 0.0);
            assert!(
                d.predicted_wait_ms.is_finite() && d.predicted_wait_ms >= 0.0,
                "predicted wait must saturate, not overflow: {} ms at {:?} (proactive={proactive})",
                d.predicted_wait_ms,
                d.at
            );
            if let Some(e) = d.estimate {
                assert!(e.is_finite() && (0.0..=1.0).contains(&e));
            }
        }
    }
}
