//! Skewed-workload sweep: the per-key *split* controller against the global
//! controller and the static baselines, across the canonical YCSB key
//! distributions (uniform → zipfian 0.99 → hotspot 0.1/0.9).
//!
//! The global controller estimates one cluster-wide stale-read probability,
//! so under skew it either escalates *every* read to protect a handful of
//! hot keys, or lets the hot keys read stale to keep the cold tail cheap.
//! The split controller tracks the heavy hitters (space-saving sketch in the
//! monitor), specialises the M/G/1 staleness estimate per hot key, and makes
//! a split decision: a strong-read hot set plus a cheap default level. The
//! sweep shows it on the throughput-vs-staleness frontier: higher throughput
//! than the global controller at equal-or-lower *hot-key* stale rate, and
//! degenerating to the global decision under uniform load.
//!
//! Usage:
//!   cargo run --release -p harmony-bench -- hotspot_split --profile grid5000
//!   cargo run --release -p harmony-bench -- hotspot_split --profile ec2
//! Flags: `--quick`, `--json <path>`, `--tolerance <frac>`, `--threads <n>`.

use crate::Args;
use harmony_bench::experiments::{
    enable_split, skewed_workload_a, ExperimentConfig, PolicySpec, SkewRow,
};
use harmony_bench::report::Table;
use harmony_ycsb::runner::ExperimentSpec;
use harmony_ycsb::workloads::RequestDistribution;

/// The skews of the sweep with the hot-key prefix reported for each: the
/// Zipfian head (ranks map to indices for the unscrambled chooser), the
/// hotspot's designated hot set, nothing for uniform.
fn skews(records: u64) -> Vec<(RequestDistribution, u64)> {
    vec![
        (RequestDistribution::Uniform, 0),
        (RequestDistribution::Zipfian, 16),
        (
            RequestDistribution::Hotspot,
            ((records as f64) * 0.1).ceil() as u64,
        ),
    ]
}

pub fn run(args: &Args) {
    let config = args.config();
    // The split matters most around and past the write-stage saturation knee,
    // where hot keys build real per-key backlogs.
    let threads = args
        .value("--threads")
        .unwrap_or(if args.quick { 20 } else { 40 });
    // A strict tolerance is where the split earns its keep: the paper's
    // per-platform settings (20-60%) are far above the hot-key stale rates of
    // these scaled runs, so the default is the strictest paper-adjacent
    // setting under which the *global* controller visibly escalates.
    let asr = args.value("--tolerance").unwrap_or(0.03);
    let harmony = PolicySpec::Harmony(asr);
    let baselines = [PolicySpec::Eventual, PolicySpec::Strong];

    println!(
        "Per-key hot-spot staleness — split controller vs global across key skew \
         ({} profile, RF = {}, {} threads, harmony tolerance {:.0}%)",
        config.profile.name,
        config.store.replication_factor,
        threads,
        asr * 100.0
    );

    let split_config = ExperimentConfig {
        controller: enable_split(config.controller),
        ..config.clone()
    };
    let mut all_rows: Vec<SkewRow> = Vec::new();
    for (distribution, hot_prefix) in skews(config.records) {
        let workload = skewed_workload_a(config.records, distribution);
        println!("\n== {} ==", workload.name);
        let mut table = Table::new(vec![
            "policy",
            "ops/s",
            "stale %",
            "hot stale %",
            "hot reads",
            "hot set",
        ]);
        let mut rows_here: Vec<SkewRow> = Vec::new();
        for (policy, split) in [(harmony, true), (harmony, false)]
            .into_iter()
            .chain(baselines.iter().map(|p| (*p, false)))
        {
            let point_config = if split { &split_config } else { &config };
            let spec = ExperimentSpec {
                hot_key_prefix: hot_prefix,
                ..point_config.spec(workload.clone(), threads)
            };
            let result = point_config.runner(&policy, spec).run();
            let row = SkewRow::from_result(&policy, split, threads, &result);
            table.add_row(vec![
                row.policy.clone(),
                format!("{:.0}", row.throughput),
                format!("{:.1}%", row.stale_fraction * 100.0),
                format!("{:.1}%", row.hot_stale_fraction * 100.0),
                row.hot_reads.to_string(),
                row.hot_set_size.to_string(),
            ]);
            rows_here.push(row);
        }
        println!("{table}");
        let split_row = &rows_here[0];
        let global_row = &rows_here[1];
        println!(
            "split vs global: throughput {:+.0}%, hot-key stale {:.1}% vs {:.1}% \
             (tolerance {:.0}%), hot set {} keys",
            (split_row.throughput / global_row.throughput.max(1e-9) - 1.0) * 100.0,
            split_row.hot_stale_fraction * 100.0,
            global_row.hot_stale_fraction * 100.0,
            asr * 100.0,
            split_row.hot_set_size
        );
        all_rows.extend(rows_here);
    }

    println!(
        "\nPaper shape check: under skew the split controller beats the global one on\n\
         throughput while holding the hot-key stale rate within the tolerance; under\n\
         uniform load the hot set is empty and both controllers decide identically."
    );

    args.write_json("JSON", &all_rows);
}
