//! Proactive (predicted-wait) control against the reactive baseline.
//!
//! Two step-response scenarios, each run twice with byte-identical inputs —
//! once with the reactive calibrated controller and once with the same
//! controller plus proactive control (`ProactiveConfig::enabled()`), so every
//! difference in the table is the prediction term and nothing else:
//!
//! * `load-step` — the thread count jumps mid-run (a workload phase change,
//!   Figure 4(a) style). The reactive controller only reacts once the
//!   backlog dispersion *materialises*; the proactive one widens its window
//!   from the M/G/1 predicted wait while the queues are still filling, so
//!   the stale spike over the transition shrinks.
//! * `crash-step` — a replica crashes mid-run and restarts later. The table
//!   reports the escalation lag: how many monitoring periods after the
//!   crash each controller takes to leave cheap reads. The proactive
//!   controller sees the post-crash utilisation jump in the *predicted*
//!   wait one period before the measured trend rebuilds (the monitor
//!   segments its trend histories on topology changes, so the reactive
//!   detector restarts from scratch).
//!
//! Usage:
//!   cargo run --release -p harmony-bench -- proactive_sweep
//!   cargo run --release -p harmony-bench -- proactive_sweep --quick
//! Flags: `--quick`, `--json <path>`, `--profile <grid5000|ec2>`.

use crate::{yes, Args};
use harmony_bench::experiments::{scaled_workload_a, ExperimentConfig, PolicySpec};
use harmony_bench::report::Table;
use harmony_chaos::FaultSchedule;
use harmony_model::queueing::ProactiveConfig;
use harmony_sim::topology::NodeId;
use harmony_ycsb::runner::{ExperimentResult, ExperimentSpec, Phase};
use serde::Serialize;

/// One (scenario, controller) sweep point.
#[derive(Debug, Clone, Serialize)]
struct ProactiveRow {
    scenario: String,
    controller: String,
    throughput: f64,
    stale_fraction: f64,
    stale_reads: u64,
    /// Stale fraction restricted to the high (post-step) phases of the
    /// load-step scenario — the phase-change spike itself, separated from
    /// the low phases where proactive control deliberately relaxes earlier
    /// on predicted drain (`None` for single-phase scenarios).
    step_stale_fraction: Option<f64>,
    /// First escalated tick at/after the step, in monitoring periods from
    /// the step time (`None` = never escalated; only the crash scenario
    /// injects a step the lag is measured against).
    escalation_lag_periods: Option<f64>,
    operations: u64,
}

/// Stale fraction over the phases run with `threads` client threads.
fn phase_stale_fraction(result: &ExperimentResult, threads: usize) -> Option<f64> {
    let (stale, reads) = result
        .phase_results
        .iter()
        .filter(|p| p.phase.threads == threads)
        .fold((0u64, 0u64), |(s, r), p| {
            (s + p.stats.stale_reads, r + p.stats.reads)
        });
    (reads > 0).then(|| stale as f64 / reads as f64)
}

fn run_step(
    config: &ExperimentConfig,
    proactive: bool,
    phases: Vec<Phase>,
    faults: FaultSchedule,
) -> ExperimentResult {
    let mut config = config.clone();
    if proactive {
        config.controller.proactive = ProactiveConfig::enabled();
    }
    let policy = PolicySpec::Harmony(config.profile.harmony_settings[0]);
    let spec = ExperimentSpec {
        phases,
        ..config.spec(scaled_workload_a(config.records), 1)
    };
    config.runner(&policy, spec).with_faults(faults).run()
}

/// Monitoring periods between `step_secs` and the first decision at/after it
/// that escalated reads above ONE (or flagged divergence).
fn escalation_lag(result: &ExperimentResult, step_secs: f64, interval_secs: f64) -> Option<f64> {
    let step = harmony_sim::clock::SimTime::from_secs_f64(step_secs);
    result
        .decisions
        .iter()
        .find(|d| d.at >= step && (d.replicas_in_read > 1 || d.diverging))
        .map(|d| (d.at.as_secs_f64() - step_secs) / interval_secs)
}

pub fn run(args: &Args) {
    let mut config = args.config();
    // Push the write stage near saturation so a step has headroom to cross
    // it: two service slots and slower mutations, as in the fault-tolerance
    // relax test.
    config.store.node_concurrency = 2;
    config.store.write_service_ms = 0.6;
    let interval_secs = config.controller.monitor.interval_secs;

    println!(
        "Proactive vs reactive step response — {} profile, RF = {}, monitoring period {} ms",
        config.profile.name,
        config.store.replication_factor,
        interval_secs * 1e3
    );

    // Load step: a calm low phase, then the thread count jumps (Figure 4(a)
    // style). Each phase must span several monitoring windows — the sliding
    // 250 ms rate window cannot resolve steps shorter than itself — so the
    // high phase gets the bulk of the operations. The spike the table
    // isolates is the stale rate of the high (post-step) phase.
    let (low, high) = (15, 110);
    let load_phases = || {
        vec![
            Phase::new(low, config.min_operations / 3),
            Phase::new(high, 2 * config.min_operations / 3),
        ]
    };

    // Crash step: times calibrated from a reactive no-faults baseline, like
    // the fault sweep.
    let baseline = run_step(&config, false, load_phases(), FaultSchedule::empty());
    // The crash scenario runs at a calmer load than the phase change: the
    // pre-crash regime sits comfortably inside the tolerance, so the first
    // escalation is the controller's response to the fault, not to the
    // workload itself. The fault is a correlated half-cluster outage (every
    // other node, so every key keeps live replicas): halving the capacity
    // at once steps the per-replica arrival rate past saturation, which is
    // exactly the signal the predicted wait sees one period before the
    // measured backlog trend rebuilds.
    let single = vec![Phase::new(16, config.operations_for(16))];
    let crash_baseline = run_step(&config, false, single.clone(), FaultSchedule::empty());
    let duration = crash_baseline.stats.duration_secs().max(0.2);
    let crash_at = duration * 0.3;
    let restart_at = duration * 0.65;
    let outage: Vec<NodeId> = (0..10).map(|i| NodeId(2 * i + 1)).collect();
    let crash_schedule = || {
        let mut schedule = FaultSchedule::empty();
        for &node in &outage {
            schedule = schedule
                .crash_at(crash_at, node)
                .restart_at(restart_at, node);
        }
        schedule
    };

    let mut rows: Vec<ProactiveRow> = Vec::new();
    let mut table = Table::new(vec![
        "scenario",
        "controller",
        "ops/s",
        "stale %",
        "step stale %",
        "stale reads",
        "lag (periods)",
    ]);

    let scenarios: Vec<(&str, Vec<Phase>, FaultSchedule, Option<f64>)> = vec![
        ("load-step", load_phases(), FaultSchedule::empty(), None),
        (
            "crash-step",
            single.clone(),
            crash_schedule(),
            Some(crash_at),
        ),
    ];
    let mut spike_shrinks = true;
    let mut proactive_leads = true;

    for (name, phases, faults, step_secs) in scenarios {
        let mut lags: Vec<Option<f64>> = Vec::new();
        for proactive in [false, true] {
            let result = if name == "load-step" && !proactive {
                baseline.clone()
            } else {
                run_step(&config, proactive, phases.clone(), faults.clone())
            };
            let lag = step_secs.and_then(|s| escalation_lag(&result, s, interval_secs));
            lags.push(lag);
            let step_stale = (name == "load-step")
                .then(|| phase_stale_fraction(&result, high))
                .flatten();
            let row = ProactiveRow {
                scenario: name.to_string(),
                controller: if proactive { "proactive" } else { "reactive" }.to_string(),
                throughput: result.throughput(),
                stale_fraction: result.stats.stale_fraction(),
                stale_reads: result.stats.stale_reads,
                step_stale_fraction: step_stale,
                escalation_lag_periods: lag,
                operations: result.stats.operations,
            };
            table.add_row(vec![
                row.scenario.clone(),
                row.controller.clone(),
                format!("{:.0}", row.throughput),
                format!("{:.2}%", row.stale_fraction * 100.0),
                step_stale.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0)),
                row.stale_reads.to_string(),
                lag.map_or("-".to_string(), |l| format!("{l:.1}")),
            ]);
            rows.push(row);
        }
        let pair: Vec<&ProactiveRow> = rows.iter().rev().take(2).collect();
        // pair[0] = proactive, pair[1] = reactive.
        if name == "load-step" {
            // The claim is about the phase-change spike: staleness in the
            // high phases, where the up-step lands. The low phases trade
            // the other way by design (earlier relax on predicted drain),
            // within the tolerance either way.
            spike_shrinks = match (pair[0].step_stale_fraction, pair[1].step_stale_fraction) {
                (Some(p), Some(r)) => p <= r,
                _ => false,
            };
        } else {
            proactive_leads = match (lags[1], lags[0]) {
                (Some(p), Some(r)) => p + 1.0 <= r,
                (Some(_), None) => true,
                _ => false,
            };
        }
    }

    println!("{table}");
    println!(
        "Phase-change stale spike (high-phase stale rate) shrinks under proactive control: {}",
        yes(spike_shrinks)
    );
    println!(
        "Proactive escalates at least one monitoring period before reactive after the crash: {}",
        yes(proactive_leads)
    );
    println!(
        "Shape check: both controllers run byte-identical inputs, so the stale and lag\n\
         deltas isolate the prediction term; with proactive disabled the controller is\n\
         byte-identical to reactive (pinned in tests/per_key_determinism.rs)."
    );

    args.write_json("JSON", &rows);
}
