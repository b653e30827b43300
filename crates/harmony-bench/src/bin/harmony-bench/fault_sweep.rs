//! Failure and elasticity sweep: the adaptive controller under injected
//! faults, against a no-faults baseline and the always-strong policy under
//! the *same* fault schedule.
//!
//! Four scenarios from the `harmony-chaos` schedule DSL, each replayed
//! deterministically inside a Zipfian (hot-spotted) run:
//!
//! * `crash-hot` — a replica crashes mid-run during the hot phase and
//!   restarts later; its hinted mutations flood the write stage on restart.
//! * `rolling-restart` — three nodes crash and restart one after another (a
//!   rolling upgrade).
//! * `partition` — a two-node minority is cut off for the scaled equivalent
//!   of the paper's 30 s (the monitoring period is compressed 20×, so 30
//!   paper-seconds ≈ 1.5 virtual seconds), then heals.
//! * `scale-out` — two new nodes join under load; the ring and the
//!   placement cache follow, and bootstrap streaming keeps reads fresh.
//!
//! For every scenario the table reports throughput (and its delta against
//! the no-faults run), the ground-truth stale rate, the *hot-key* stale rate
//! against the tolerated rate the application asked for, aborted operations
//! and the faults actually applied. The paper-grade claim to look for: the
//! hot-key stale rate stays within the tolerance through every fault while
//! throughput stays clearly above always-strong.
//!
//! Usage:
//!   cargo run --release -p harmony-bench -- fault_sweep
//!   cargo run --release -p harmony-bench -- fault_sweep --profile ec2
//! Flags: `--quick`, `--json <path>`, `--profile <grid5000|ec2|multi-dc>`,
//! `--obs` (rerun the crash scenario with tracing/metrics/audit on and dump
//! the Prometheus snapshot, a fault-spanning per-op trace, and the decision
//! audit records around the crash).

use crate::{yes, Args};
use harmony_bench::experiments::{enable_split, skewed_workload_a, ExperimentConfig, PolicySpec};
use harmony_bench::report::Table;
use harmony_chaos::FaultSchedule;
use harmony_sim::topology::NodeId;
use harmony_ycsb::runner::{ExperimentResult, ExperimentSpec, Runner};
use harmony_ycsb::workloads::RequestDistribution;
use serde::Serialize;

/// The number of lowest-index records reported as the workload's hot keys
/// (the head of the unscrambled Zipfian chooser).
const HOT_PREFIX: u64 = 16;

/// One (scenario, policy) sweep point.
#[derive(Debug, Clone, Serialize)]
struct FaultRow {
    scenario: String,
    policy: String,
    throughput: f64,
    stale_fraction: f64,
    hot_stale_fraction: f64,
    tolerance: f64,
    aborted_ops: u64,
    faults_applied: u64,
    operations: u64,
}

/// A runner for one sweep point: the Zipfian workload with its hot prefix
/// tallied, under the split controller when `split` is set.
fn point_runner(
    config: &ExperimentConfig,
    policy: &PolicySpec,
    threads: usize,
    split: bool,
) -> Runner {
    let mut config = config.clone();
    if split {
        config.controller = enable_split(config.controller);
    }
    let spec = ExperimentSpec {
        hot_key_prefix: HOT_PREFIX,
        ..config.spec(
            skewed_workload_a(config.records, RequestDistribution::Zipfian),
            threads,
        )
    };
    config.runner(policy, spec)
}

fn run_point(
    config: &ExperimentConfig,
    policy: &PolicySpec,
    threads: usize,
    faults: FaultSchedule,
) -> ExperimentResult {
    // The split controller: hot keys get individual decisions, which is
    // exactly what must hold the hot-key stale rate through a fault.
    let split = matches!(policy, PolicySpec::Harmony(_));
    point_runner(config, policy, threads, split)
        .with_faults(faults)
        .run()
}

pub fn run(args: &Args) {
    let config = args.config();
    let threads = if args.quick { 24 } else { 40 };
    let tolerance = config.profile.harmony_settings[1];
    let harmony = PolicySpec::Harmony(tolerance);
    let strong = PolicySpec::Strong;

    println!(
        "Failure and elasticity sweep — {} profile, RF = {}, {} threads, zipfian hot set of {}",
        config.profile.name, config.store.replication_factor, threads, HOT_PREFIX
    );

    // The no-faults baseline also calibrates the fault times: scenarios place
    // their events at fractions of the measured (virtual) run duration.
    let baseline = run_point(&config, &harmony, threads, FaultSchedule::empty());
    let duration = baseline.stats.duration_secs().max(0.2);
    // The paper-scale "30 s partition" compressed by the monitoring-period
    // scaling (1 s paper period → 50 ms here): 30 monitoring intervals.
    let partition_secs = (30.0 * 0.05f64).min(duration * 0.5);
    let minority = vec![NodeId(2), NodeId(3)];
    let everyone_else: Vec<NodeId> = config
        .profile
        .topology
        .nodes()
        .filter(|n| !minority.contains(n))
        .collect();

    let scenarios: Vec<(&str, FaultSchedule)> = vec![
        ("baseline", FaultSchedule::empty()),
        (
            "crash-hot",
            FaultSchedule::empty()
                .crash_at(duration * 0.25, NodeId(1))
                .restart_at(duration * 0.6, NodeId(1)),
        ),
        (
            "rolling-restart",
            FaultSchedule::empty()
                .crash_at(duration * 0.2, NodeId(0))
                .restart_at(duration * 0.3, NodeId(0))
                .crash_at(duration * 0.4, NodeId(1))
                .restart_at(duration * 0.5, NodeId(1))
                .crash_at(duration * 0.6, NodeId(2))
                .restart_at(duration * 0.7, NodeId(2)),
        ),
        (
            "partition",
            FaultSchedule::empty()
                .partition_at(duration * 0.3, vec![everyone_else, minority])
                .heal_at(duration * 0.3 + partition_secs),
        ),
        (
            "scale-out",
            FaultSchedule::empty()
                .join_at(duration * 0.4, 0, 0)
                .join_at(duration * 0.55, 0, 1),
        ),
    ];

    let mut rows: Vec<FaultRow> = Vec::new();
    let mut table = Table::new(vec![
        "scenario",
        "policy",
        "ops/s",
        "vs baseline",
        "stale %",
        "hot stale %",
        "tolerated %",
        "aborted",
        "faults",
    ]);
    let baseline_throughput = baseline.throughput();
    let mut hot_within_tolerance = true;
    let mut harmony_beats_strong = true;

    for (name, schedule) in scenarios {
        for (policy, label) in [(&harmony, harmony.label()), (&strong, "strong".to_string())] {
            let result = if name == "baseline" && matches!(policy, PolicySpec::Harmony(_)) {
                baseline.clone()
            } else {
                run_point(&config, policy, threads, schedule.clone())
            };
            let row = FaultRow {
                scenario: name.to_string(),
                policy: label.clone(),
                throughput: result.throughput(),
                stale_fraction: result.stats.stale_fraction(),
                hot_stale_fraction: result.stats.hot_stale_fraction(),
                tolerance,
                aborted_ops: result.stats.aborted_ops,
                faults_applied: result.fault_counters.total(),
                operations: result.stats.operations,
            };
            if matches!(policy, PolicySpec::Harmony(_)) {
                hot_within_tolerance &= row.hot_stale_fraction <= tolerance;
            }
            table.add_row(vec![
                name.to_string(),
                label,
                format!("{:.0}", row.throughput),
                format!(
                    "{:+.0}%",
                    (row.throughput / baseline_throughput - 1.0) * 100.0
                ),
                format!("{:.1}%", row.stale_fraction * 100.0),
                format!("{:.1}%", row.hot_stale_fraction * 100.0),
                format!("{:.0}%", tolerance * 100.0),
                row.aborted_ops.to_string(),
                row.faults_applied.to_string(),
            ]);
            rows.push(row);
        }
        // Per-scenario policy comparison: Harmony vs strong under the same
        // faults.
        let pair: Vec<&FaultRow> = rows.iter().rev().take(2).collect();
        harmony_beats_strong &= pair[1].throughput > pair[0].throughput;
    }
    println!("{table}");
    println!(
        "Hot-key stale rate within the {:.0}% tolerance in every scenario: {}",
        tolerance * 100.0,
        yes(hot_within_tolerance)
    );
    println!(
        "Adaptive controller beats always-strong under every fault schedule: {}",
        yes(harmony_beats_strong)
    );
    println!(
        "Shape check: crashes dent throughput while hints accumulate, the restart's hint\n\
         drain shows up as a backlog spike the controller rides out by escalating reads,\n\
         and the empty-schedule baseline is byte-identical to a run without the chaos layer."
    );

    if args.flag("--obs") {
        dump_observed_crash(&config, &harmony, threads, duration);
    }

    args.write_json("JSON", &rows);
}

/// `--obs`: the crash-hot scenario once more with the observability layer
/// on — every 4th op traced so the recorder catches ops in flight across
/// the crash — then the three exports: the Prometheus metrics snapshot, a
/// per-op trace that spans the fault epoch, and the decision audit records
/// that explain the controller's escalations around the crash.
fn dump_observed_crash(
    config: &ExperimentConfig,
    policy: &PolicySpec,
    threads: usize,
    duration: f64,
) {
    let faults = FaultSchedule::empty()
        .crash_at(duration * 0.25, NodeId(1))
        .restart_at(duration * 0.6, NodeId(1));
    let obs = harmony_ycsb::ObsConfig {
        trace_sample_every: 4,
        ..harmony_ycsb::ObsConfig::enabled()
    };
    let (result, report) = point_runner(config, policy, threads, true)
        .with_faults(faults)
        .with_obs(obs)
        .run_with_obs();
    println!();
    println!(
        "=== observed crash-hot rerun ({} ops, {} fault event(s) applied) ===",
        result.stats.operations,
        result.fault_counters.total()
    );
    println!();
    println!("--- Prometheus metrics snapshot ---");
    print!("{}", report.prometheus_text());
    println!();
    let spanning = report.fault_spanning_traces();
    println!(
        "--- per-op traces spanning the crash epoch ({} of {} retained) ---",
        spanning.len(),
        report.recorder.len()
    );
    for trace in spanning.iter().take(2) {
        println!("{}", trace.render());
    }
    let escalations = report.escalations();
    println!(
        "--- decision audit: {} record(s), {} escalation(s) ---",
        report.audit.len(),
        escalations.len()
    );
    for record in escalations.iter().take(4) {
        println!("  {}", record.explain());
    }
    if escalations.is_empty() {
        // A quick run can ride out the crash without raising the level; the
        // audit still links every held decision to its inputs.
        for record in report.audit.iter().take(4) {
            println!("  {}", record.explain());
        }
    }
}
