//! Integration tests of the adaptive behaviour itself: the estimate timeline
//! (Figure 4) and the controller's reaction to workload and latency changes,
//! exercised through the full monitoring → model → policy → store loop.

use harmony::adaptive::controller::AdaptiveController;
use harmony::monitor::probe::MockProbe;
use harmony::prelude::*;

fn controller_config() -> ControllerConfig {
    // Shared with the figure binaries and the paper-claim tests, so a future
    // recalibration cannot silently diverge between them.
    ControllerConfig::calibrated()
}

fn store_config() -> StoreConfig {
    StoreConfig {
        replication_factor: 5,
        write_service_ms: 0.4,
        ..StoreConfig::default()
    }
}

fn run_phased(workload: WorkloadSpec, phases: Vec<Phase>) -> ExperimentResult {
    let spec = ExperimentSpec {
        workload,
        phases,
        seed: 31,
        dual_read_measurement: false,
        hot_key_prefix: 0,
        max_virtual_secs: 600.0,
    };
    run_experiment(
        &harmony::profiles::grid5000_with_nodes(10),
        store_config(),
        controller_config(),
        // 100% tolerance: observe the estimator without it changing the level.
        Box::new(HarmonyPolicy::new(5, 1.0)),
        spec,
    )
}

fn small_workload_a() -> WorkloadSpec {
    let mut w = WorkloadSpec::workload_a(2_000);
    w.field_count = 2;
    w.field_size = 32;
    w
}

fn small_workload_b() -> WorkloadSpec {
    let mut w = WorkloadSpec::workload_b(2_000);
    w.field_count = 2;
    w.field_size = 32;
    w
}

fn mean_estimate(result: &ExperimentResult) -> f64 {
    let estimates: Vec<f64> = result
        .decisions
        .iter()
        .filter_map(|d| d.estimate)
        .filter(|e| *e > 0.0)
        .collect();
    if estimates.is_empty() {
        0.0
    } else {
        estimates.iter().sum::<f64>() / estimates.len() as f64
    }
}

/// Figure 4(a): the update-heavy workload A causes far more *actual* stale
/// reads than the read-heavy workload B at the same concurrency — the paper's
/// observation that "the number of updates plays a very important role in
/// causing stale reads". (The estimate-ordering property of the closed-form
/// model itself is covered by the property tests in `harmony-model`, which
/// compare the two mixes at matched total access rates.)
#[test]
fn workload_a_causes_more_staleness_than_workload_b() {
    let threads = 50;
    let ops = 20_000;
    let a = run_phased(small_workload_a(), vec![Phase::new(threads, ops)]);
    let b = run_phased(small_workload_b(), vec![Phase::new(threads, ops)]);
    assert!(
        mean_estimate(&a) > 0.0,
        "workload A must produce a non-zero estimate"
    );
    assert!(
        a.stats.stale_reads > b.stats.stale_reads,
        "workload A stale reads ({}) should exceed workload B ({})",
        a.stats.stale_reads,
        b.stats.stale_reads
    );
    // The write rate the monitor observed is far higher under A than B.
    let peak_writes = |r: &ExperimentResult| {
        r.decisions
            .iter()
            .map(|d| d.write_rate)
            .fold(0.0f64, f64::max)
    };
    assert!(peak_writes(&a) > 3.0 * peak_writes(&b));
}

/// Figure 4(a): stepping the thread count down lowers the access rates and
/// with them the stale-read estimate.
#[test]
fn estimate_decreases_as_threads_step_down() {
    let result = run_phased(
        small_workload_a(),
        vec![
            Phase::new(80, 20_000),
            Phase::new(30, 10_000),
            Phase::new(4, 3_000),
        ],
    );
    // Mean estimate per phase, sliced by the phase end times.
    let mut per_phase = Vec::new();
    let mut start = 0.0;
    for pr in &result.phase_results {
        let end = pr.stats.ended_at.as_secs_f64();
        let estimates: Vec<f64> = result
            .decisions
            .iter()
            .filter(|d| d.at.as_secs_f64() > start && d.at.as_secs_f64() <= end)
            .filter_map(|d| d.estimate)
            .collect();
        let mean = if estimates.is_empty() {
            0.0
        } else {
            estimates.iter().sum::<f64>() / estimates.len() as f64
        };
        per_phase.push(mean);
        start = end;
    }
    assert_eq!(per_phase.len(), 3);
    assert!(
        per_phase[0] > per_phase[2],
        "estimate at 80 threads ({:.3}) should exceed estimate at 4 threads ({:.3})",
        per_phase[0],
        per_phase[2]
    );
}

/// Figure 4(b): a latency spike dominates the estimate and drives the chosen
/// consistency level up; recovery brings it back down.
#[test]
fn latency_spike_raises_then_relaxes_the_level() {
    let mut controller = AdaptiveController::new(
        ControllerConfig {
            monitor: harmony::monitor::collector::MonitorConfig {
                estimator: harmony::monitor::collector::EstimatorKind::SlidingWindow(1.0),
                ..Default::default()
            },
            ..ControllerConfig::default()
        },
        5,
        Box::new(HarmonyPolicy::new(5, 0.4)),
    );
    let mut probe = MockProbe {
        nodes: 20,
        latency_ms: 0.3,
        ..MockProbe::default()
    };
    // Steady moderate load, low latency: level stays at ONE.
    let mut steady_level = ConsistencyLevel::All;
    for s in 1..=5u64 {
        probe.reads += 200;
        probe.writes += 100;
        steady_level = controller.tick(SimTime::from_secs(s), &probe);
    }
    assert_eq!(steady_level, ConsistencyLevel::One);
    // Latency spike (EC2-style): estimate saturates, level rises.
    probe.latency_ms = 30.0;
    probe.reads += 200;
    probe.writes += 100;
    let spiked = controller.tick(SimTime::from_secs(6), &probe);
    assert!(
        spiked.required_acks(5) > 1,
        "level should rise during the spike"
    );
    // Recovery.
    probe.latency_ms = 0.3;
    probe.reads += 200;
    probe.writes += 100;
    let recovered = controller.tick(SimTime::from_secs(7), &probe);
    assert_eq!(recovered, ConsistencyLevel::One);
}

/// The decision records expose everything Figure 4 needs: timestamps, rates,
/// latency, estimate and the chosen replica count, in chronological order.
#[test]
fn decision_timeline_is_complete_and_ordered() {
    let result = run_phased(small_workload_a(), vec![Phase::new(40, 15_000)]);
    assert!(result.decisions.len() >= 3);
    assert!(result.decisions.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(result.decisions.iter().all(|d| d.estimate.is_some()));
    assert!(result
        .decisions
        .iter()
        .any(|d| d.read_rate > 0.0 && d.write_rate > 0.0));
    assert!(result
        .decisions
        .iter()
        .all(|d| d.latency_ms >= 0.0 && d.tp_secs >= 0.0));
}

/// The dual-read measurement of §V.F perturbs the system (every read issues a
/// second, strong read) — throughput with measurement enabled must not exceed
/// the unperturbed run, mirroring the paper's caveat.
#[test]
fn dual_read_measurement_perturbs_throughput() {
    let spec_base = ExperimentSpec {
        workload: small_workload_a(),
        phases: vec![Phase::new(30, 10_000)],
        seed: 5,
        dual_read_measurement: false,
        hot_key_prefix: 0,
        max_virtual_secs: 600.0,
    };
    let mut spec_measured = spec_base.clone();
    spec_measured.dual_read_measurement = true;
    let profile = harmony::profiles::grid5000_with_nodes(10);
    let base = run_experiment(
        &profile,
        store_config(),
        controller_config(),
        Box::new(StaticPolicy::Eventual),
        spec_base,
    );
    let measured = run_experiment(
        &profile,
        store_config(),
        controller_config(),
        Box::new(StaticPolicy::Eventual),
        spec_measured,
    );
    assert!(measured.throughput() <= base.throughput());
}
