//! The paper's headline claims (§I and §V):
//!
//! 1. Compared with static eventual consistency, Harmony with 20% tolerated
//!    stale reads reduces the stale data being read by almost 80% while
//!    adding only minimal latency.
//! 2. Compared with the strong consistency model, Harmony improves the
//!    throughput of the system by 45% while maintaining the desired
//!    consistency requirements of the application.
//!
//! This figure reruns the relevant comparison points and prints the measured
//! factors side by side with the paper's numbers.
//!
//! Usage: `cargo run --release -p harmony-bench -- headline [--quick] [--json out.json]`

use crate::Args;
use harmony_bench::experiments::{run_policy_sweep, sweep_row, PolicySpec, SweepRow};
use harmony_bench::report::Table;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct HeadlineResult {
    profile: String,
    stale_reduction_pct: f64,
    added_latency_pct: f64,
    throughput_gain_over_strong_pct: f64,
    harmony_setting: f64,
}

pub fn run(args: &Args) {
    println!("Harmony headline claims — measured vs paper\n");
    let mut results = Vec::new();
    let mut table = Table::new(vec!["profile", "metric", "paper", "measured"]);

    for profile_name in ["grid5000", "ec2"] {
        let config = args.config_for(profile_name);
        // The strict Harmony setting for the platform (20% on Grid'5000,
        // 40% on EC2) against the two static baselines, at a busy thread count.
        let strict = config.profile.harmony_settings[0];
        let policies = [
            PolicySpec::Harmony(strict),
            PolicySpec::Eventual,
            PolicySpec::Strong,
        ];
        let threads = if args.quick {
            vec![40]
        } else {
            vec![70, 90, 110]
        };
        let rows = run_policy_sweep(&config, &policies, &threads, false);

        let sum = |label: &str, f: &dyn Fn(&SweepRow) -> f64| -> f64 {
            threads
                .iter()
                .map(|&t| f(sweep_row(&rows, label, t)))
                .sum::<f64>()
                / threads.len() as f64
        };
        let harmony_label = PolicySpec::Harmony(strict).label();
        let stale_harmony = sum(&harmony_label, &|r| r.stale_reads as f64);
        let stale_eventual = sum("eventual", &|r| r.stale_reads as f64);
        let lat_harmony = sum(&harmony_label, &|r| r.read_mean_ms);
        let lat_eventual = sum("eventual", &|r| r.read_mean_ms);
        let tp_harmony = sum(&harmony_label, &|r| r.throughput);
        let tp_strong = sum("strong", &|r| r.throughput);

        let stale_reduction = if stale_eventual > 0.0 {
            (1.0 - stale_harmony / stale_eventual) * 100.0
        } else {
            0.0
        };
        let added_latency = if lat_eventual > 0.0 {
            (lat_harmony / lat_eventual - 1.0) * 100.0
        } else {
            0.0
        };
        let throughput_gain = if tp_strong > 0.0 {
            (tp_harmony / tp_strong - 1.0) * 100.0
        } else {
            0.0
        };

        table.add_row(vec![
            profile_name.to_string(),
            format!("stale-read reduction vs eventual ({harmony_label})"),
            "~80%".to_string(),
            format!("{stale_reduction:.0}%"),
        ]);
        table.add_row(vec![
            profile_name.to_string(),
            "added mean read latency vs eventual".to_string(),
            "minimal".to_string(),
            format!("+{added_latency:.0}%"),
        ]);
        table.add_row(vec![
            profile_name.to_string(),
            "throughput gain vs strong consistency".to_string(),
            "~45%".to_string(),
            format!("+{throughput_gain:.0}%"),
        ]);
        results.push(HeadlineResult {
            profile: profile_name.to_string(),
            stale_reduction_pct: stale_reduction,
            added_latency_pct: added_latency,
            throughput_gain_over_strong_pct: throughput_gain,
            harmony_setting: strict,
        });
    }

    println!("{table}");
    println!(
        "The paper's numbers come from a physical Cassandra deployment; ours from the calibrated\n\
         simulator, so match the direction and rough magnitude rather than the exact percentages."
    );

    args.write_json("JSON", &results);
}
