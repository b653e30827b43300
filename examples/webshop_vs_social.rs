//! The paper's motivating example (§III): two applications with the *same*
//! access pattern but very different costs for stale reads.
//!
//! * A **web shop** during a holiday rush: a stale read can show the wrong
//!   stock level or price — the application tolerates very few stale reads.
//! * A **social network** during a busy evening: a stale read just shows a
//!   slightly older timeline — a much higher stale-read rate is acceptable.
//!
//! A purely access-pattern-driven controller would give both the same
//! consistency level. Harmony differentiates them through `app_stale_rate`,
//! and this example shows the consequence: the web shop pays a little more
//! latency for far fewer stale reads, the social network keeps near-eventual
//! performance.
//!
//! Run with: `cargo run --release --example webshop_vs_social`

use harmony::prelude::*;

struct Application {
    name: &'static str,
    tolerated_stale_rate: f64,
}

fn main() {
    // `--quick` (used by the smoke tests) shrinks the run so it finishes in
    // about a second even in debug builds, while still spanning several of
    // the calibrated controller's 50 ms monitoring periods.
    let quick = std::env::args().any(|a| a == "--quick");
    let (records, ops) = if quick {
        (400, 12_000)
    } else {
        (4_000, 40_000)
    };

    let profile = harmony::profiles::grid5000();
    let store = StoreConfig {
        replication_factor: profile.replication_factor,
        ..StoreConfig::default()
    };

    // Identical access pattern for both applications: heavy read-update
    // bursts from 40 concurrent clients (a busy period in both stories).
    let mut workload = WorkloadSpec::workload_a(records);
    workload.name = "busy-period".into();
    workload.field_count = 4;
    workload.field_size = 64;
    let spec = ExperimentSpec::single_phase(workload, 40, ops);

    let applications = [
        Application {
            name: "web-shop (tolerates 5% stale reads)",
            tolerated_stale_rate: 0.05,
        },
        Application {
            name: "social network (tolerates 60% stale reads)",
            tolerated_stale_rate: 0.60,
        },
    ];

    println!("Same access pattern, different consistency requirements\n");
    for app in applications {
        let result = run_experiment(
            &profile,
            store.clone(),
            ControllerConfig::calibrated(),
            Box::new(HarmonyPolicy::new(
                profile.replication_factor,
                app.tolerated_stale_rate,
            )),
            spec.clone(),
        );
        let avg_replicas: f64 = {
            let total: u64 = result.read_level_histogram.values().sum();
            let weighted: u64 = result
                .read_level_histogram
                .iter()
                .map(|(replicas, count)| *replicas as u64 * count)
                .sum();
            if total == 0 {
                0.0
            } else {
                weighted as f64 / total as f64
            }
        };
        println!("{}", app.name);
        println!("  policy                 : {}", result.policy);
        println!(
            "  throughput             : {:>10.0} ops/s",
            result.throughput()
        );
        println!(
            "  read latency p99       : {:>10.3} ms",
            result.read_p99_ms()
        );
        println!(
            "  stale reads            : {:>10}  ({:.2}% of reads)",
            result.stats.stale_reads,
            result.stats.stale_fraction() * 100.0
        );
        println!("  avg replicas per read  : {:>10.2}", avg_replicas);
        println!(
            "  read levels used       : {:?}",
            result.read_level_histogram
        );
        println!();
    }
    println!(
        "The web shop's low tolerance forces Harmony to involve more replicas whenever the\n\
         estimated stale-read rate rises, while the social network keeps reading from a single\n\
         replica almost all the time — same workload, different consistency, chosen automatically."
    );
}
