//! Quickstart: run the paper's main scenario at laptop scale.
//!
//! YCSB workload A (heavy read-update) on a Grid'5000-like cluster with
//! replication factor 5, comparing four read-consistency policies:
//! static eventual consistency (ONE), static strong consistency (ALL), and
//! Harmony with 20% / 40% tolerated stale reads.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Pass `--obs` to re-run the Harmony-40% arm with the observability layer
//! on: the example then dumps the Prometheus metrics snapshot, the flight
//! recorder's slowest per-op traces, and the controller's decision audit.

use harmony::prelude::*;

fn main() {
    // `--quick` (used by the smoke tests) shrinks the run so it finishes in
    // a few seconds even in debug builds, while still spanning several of
    // the calibrated controller's 50 ms monitoring periods.
    let quick = std::env::args().any(|a| a == "--quick");
    let obs = std::env::args().any(|a| a == "--obs");
    let (records, ops) = if quick {
        (500, 10_000)
    } else {
        (5_000, 30_000)
    };

    let profile = harmony::profiles::grid5000();
    let store = StoreConfig {
        replication_factor: profile.replication_factor,
        ..StoreConfig::default()
    };

    // A scaled-down workload A on 80 client threads (5 000 records and
    // 30 000 ops by default; 500 and 10 000 under --quick): enough load that
    // replicas lag and Harmony has a stale-read rate to act on.
    let mut workload = WorkloadSpec::workload_a(records);
    workload.field_count = 4;
    workload.field_size = 64;
    let spec = ExperimentSpec::single_phase(workload, 80, ops);

    let policies: Vec<Box<dyn ConsistencyPolicy>> = vec![
        Box::new(StaticPolicy::Eventual),
        Box::new(HarmonyPolicy::new(profile.replication_factor, 0.40)),
        Box::new(HarmonyPolicy::new(profile.replication_factor, 0.20)),
        Box::new(StaticPolicy::Strong),
    ];

    println!(
        "Harmony quickstart — workload A on the {} profile",
        profile.name
    );
    println!(
        "{:<14} {:>12} {:>14} {:>14} {:>12} {:>12} {:>14}",
        "policy",
        "ops/s",
        "read p99 (ms)",
        "read mean (ms)",
        "stale reads",
        "stale %",
        "replicas/read"
    );
    for policy in policies {
        let result = run_experiment(
            &profile,
            store.clone(),
            ControllerConfig::calibrated(),
            policy,
            spec.clone(),
        );
        let reads: u64 = result.read_level_histogram.values().sum();
        let replicas: u64 = result
            .read_level_histogram
            .iter()
            .map(|(replicas, count)| *replicas as u64 * count)
            .sum();
        println!(
            "{:<14} {:>12.0} {:>14.3} {:>14.3} {:>12} {:>11.2}% {:>14.2}",
            result.policy,
            result.throughput(),
            result.read_p99_ms(),
            result.stats.read_latency.mean_ms(),
            result.stats.stale_reads,
            result.stats.stale_fraction() * 100.0,
            replicas as f64 / reads.max(1) as f64,
        );
    }
    println!();
    println!(
        "Expected shape (paper §V): eventual is fastest but stalest, strong is slowest with zero\n\
         staleness, and Harmony sits between them: it reads more replicas than eventual only when\n\
         the estimated stale-read rate exceeds its tolerance — the stricter the tolerance, the more\n\
         replicas per read and the fewer stale reads."
    );

    if obs {
        dump_observability(&profile, &store, &spec);
    }
}

/// `--obs`: one more Harmony-40% run with tracing, metrics and the decision
/// audit switched on, followed by the three exports.
fn dump_observability(profile: &ClusterProfile, store: &StoreConfig, spec: &ExperimentSpec) {
    let rf = profile.replication_factor;
    let controller = AdaptiveController::new(
        ControllerConfig::calibrated(),
        rf,
        Box::new(HarmonyPolicy::new(rf, 0.40)),
    );
    // Faults and client retries attach the same way, before `run_with_obs`.
    let (result, report) = Runner::new(profile, store.clone(), controller, spec.clone())
        .with_obs(ObsConfig::enabled())
        .run_with_obs();
    println!();
    println!(
        "=== observability (harmony-40, {} ops) ===",
        result.stats.operations
    );
    println!();
    println!("--- Prometheus metrics snapshot ---");
    print!("{}", report.prometheus_text());
    println!();
    println!(
        "--- flight recorder: {} retained trace(s), slowest first ---",
        report.recorder.len()
    );
    for trace in report.recorder.traces().take(3) {
        println!("{}", trace.render());
    }
    println!("--- decision audit: {} record(s) ---", report.audit.len());
    for record in report.audit.iter().take(5) {
        println!("  {}", record.explain());
    }
    if report.audit.len() > 5 {
        println!("  ... ({} more)", report.audit.len() - 5);
    }
    println!();
    println!(
        "Full JSON exports are available via ObsReport::traces_json() / audit_json();\n\
         the same switches work on run_sharded_experiment_with_obs and the bench binaries."
    );
}
