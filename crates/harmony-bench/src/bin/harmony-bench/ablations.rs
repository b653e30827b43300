//! Ablation studies for the design choices (`EXPERIMENTS.md`, "Ablations").
//!
//! * **Read repair** — background read-repair probability 0 vs 0.1 vs 1.0:
//!   repair traffic converges replicas faster (fewer stale reads) at the cost
//!   of extra replica work.
//! * **Fixed quorum vs computed Xn** — always reading at QUORUM compared with
//!   Harmony's computed replica count at the same tolerance.
//!
//! Usage: `cargo run --release -p harmony-bench -- ablations [--quick]`

use crate::Args;
use harmony_bench::experiments::{run_point, PolicySpec};
use harmony_bench::report::Table;

fn row_from(table: &mut Table, label: &str, result: &harmony_ycsb::runner::ExperimentResult) {
    table.add_row(vec![
        label.to_string(),
        format!("{:.0}", result.throughput()),
        format!("{:.3}", result.read_p99_ms()),
        result.stats.stale_reads.to_string(),
        format!("{:.2}%", result.stats.stale_fraction() * 100.0),
        format!("{}", result.cluster_totals.repairs_issued),
    ]);
}

fn headers() -> Vec<&'static str> {
    vec![
        "variant",
        "ops/s",
        "read p99 (ms)",
        "stale reads",
        "stale %",
        "repairs",
    ]
}

pub fn run(args: &Args) {
    let mut config = args.config();
    if !args.quick {
        config.min_operations = 10_000;
        config.operations_per_thread = 200;
    }
    let threads = 70;

    // 3. Background read repair.
    println!(
        "Ablation 3 — background read-repair probability (eventual consistency, {threads} threads)"
    );
    let mut table = Table::new(headers());
    for chance in [0.0, 0.1, 1.0] {
        let mut config = config.clone();
        config.store.background_read_repair_chance = chance;
        let result = run_point(&config, &PolicySpec::Eventual, threads, false);
        row_from(
            &mut table,
            &format!("read_repair_chance {chance:.1}"),
            &result,
        );
    }
    println!("{table}");

    // 4. Fixed quorum vs Harmony's computed Xn.
    println!("Ablation 4 — static QUORUM vs Harmony's computed replica count ({threads} threads)");
    let mut table = Table::new(headers());
    for policy in [
        PolicySpec::Quorum,
        PolicySpec::Harmony(0.2),
        PolicySpec::Harmony(0.4),
    ] {
        let result = run_point(&config, &policy, threads, false);
        row_from(&mut table, &policy.label(), &result);
    }
    println!("{table}");
    println!(
        "Expected: static QUORUM pays quorum latency on every read even when the system is quiet,\n\
         while Harmony only escalates when the estimate crosses the tolerance — similar staleness,\n\
         better latency/throughput."
    );
}
