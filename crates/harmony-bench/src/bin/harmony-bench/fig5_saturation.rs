//! Figure 5(c)/(d), saturation regime: throughput vs client threads across
//! the 5-60 thread sweep, focusing on the band *around and past* the
//! write-stage saturation knee where the scalar (backlog-folded) staleness
//! model used to collapse Harmony onto the strong-consistency baseline.
//!
//! With the queueing-aware model the controller distinguishes a high but
//! stable mutation backlog (narrow queue-wait spread — cheap reads stay
//! safe) from a diverging queue (go strong), so the paper's throughput gap
//! over strong consistency persists across the whole sweep.
//!
//! Usage:
//!   cargo run --release -p harmony-bench -- fig5_saturation --profile grid5000
//!   cargo run --release -p harmony-bench -- fig5_saturation --profile ec2
//! Flags: `--quick`, `--json <path>`.

use crate::Args;
use harmony_bench::experiments::{run_policy_sweep, sweep_row, PolicySpec};
use harmony_bench::report::Table;

/// The saturation-focused thread sweep: dense around the knee, extending past
/// it (the classic Figure 5 sweep jumps 40 → 70; the gap's fate is decided in
/// between).
fn saturation_thread_counts() -> Vec<usize> {
    vec![5, 10, 15, 20, 30, 40, 50, 60]
}

pub fn run(args: &Args) {
    let config = args.config();
    let thread_counts = if args.quick {
        vec![5, 20, 40]
    } else {
        saturation_thread_counts()
    };
    // The saturation question is Harmony vs the two static baselines.
    let policies = vec![
        PolicySpec::Harmony(config.profile.harmony_settings[1]),
        PolicySpec::Eventual,
        PolicySpec::Strong,
    ];
    let harmony_label = policies[0].label();

    println!(
        "Figure 5(c)/(d) saturation regime — throughput vs client threads ({} profile, RF = {})",
        config.profile.name, config.store.replication_factor
    );
    let rows = run_policy_sweep(&config, &policies, &thread_counts, false);

    let mut table = Table::new(vec![
        "threads".to_string(),
        format!("{harmony_label} (ops/s)"),
        "eventual (ops/s)".to_string(),
        "strong (ops/s)".to_string(),
        "gain over strong".to_string(),
        "harmony stale %".to_string(),
    ]);
    let mut min_gain = f64::INFINITY;
    for &threads in &thread_counts {
        let harmony = sweep_row(&rows, &harmony_label, threads);
        let eventual = sweep_row(&rows, "eventual", threads);
        let strong = sweep_row(&rows, "strong", threads);
        let gain = harmony.throughput / strong.throughput.max(1e-9) - 1.0;
        min_gain = min_gain.min(gain);
        table.add_row(vec![
            threads.to_string(),
            format!("{:.0}", harmony.throughput),
            format!("{:.0}", eventual.throughput),
            format!("{:.0}", strong.throughput),
            format!("{:+.0}%", gain * 100.0),
            format!("{:.1}%", harmony.stale_fraction * 100.0),
        ]);
    }
    println!("{table}");
    println!(
        "Minimum {harmony_label} gain over strong across the sweep: {:+.0}%",
        min_gain * 100.0
    );
    println!(
        "Paper shape check: the gap over strong consistency persists past the saturation knee\n\
         (the scalar backlog-folded estimate used to collapse it to ~0 beyond ~20 threads),\n\
         while Harmony's stale fraction stays within its tolerated rate."
    );

    args.write_json("JSON", &rows);
}
