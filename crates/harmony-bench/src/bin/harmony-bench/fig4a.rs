//! Figure 4(a): the stale-read estimate over running time as the workload and
//! the number of client threads change.
//!
//! The paper runs YCSB workload A (heavy read-update) and workload B
//! (read-heavy) on Grid'5000, stepping the client thread count through
//! 90 → 70 → 40 → 15 → 1 within a single run, and plots the estimated
//! probability of stale reads over time. Workload B's estimate stays well
//! below workload A's, and the estimate drops with the thread count.
//!
//! Usage: `cargo run --release -p harmony-bench -- fig4a [--quick] [--json out.json]`

use crate::Args;
use harmony_bench::experiments::{
    fig4a_thread_phases, scaled_workload_a, scaled_workload_b, PolicySpec,
};
use harmony_bench::report::Table;
use harmony_ycsb::runner::{ExperimentSpec, Phase};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct TimelinePoint {
    workload: String,
    time_s: f64,
    estimate: f64,
    read_rate: f64,
    write_rate: f64,
}

pub fn run(args: &Args) {
    let config = args.config();

    println!(
        "Figure 4(a) — estimated probability of stale reads over running time (Grid'5000 profile)"
    );
    println!("Thread phases: {:?}\n", fig4a_thread_phases());

    let mut all_points = Vec::new();
    let mut table = Table::new(vec![
        "workload",
        "phase threads",
        "mean estimate",
        "max estimate",
    ]);
    for (name, workload) in [
        ("workload-A", scaled_workload_a(config.records)),
        ("workload-B", scaled_workload_b(config.records)),
    ] {
        let phases: Vec<Phase> = fig4a_thread_phases()
            .into_iter()
            .map(|threads| Phase::new(threads, config.operations_for(threads)))
            .collect();
        let spec = ExperimentSpec {
            phases: phases.clone(),
            ..config.spec(workload, 1)
        };
        // Figure 4 observes the estimator itself; the 100%-tolerance Harmony
        // policy computes the estimate while always reading at ONE (i.e. the
        // static eventual consistency the paper estimates for).
        let result = config.runner(&PolicySpec::Harmony(1.0), spec).run();

        // The per-tick estimate timeline (the curve of Figure 4a).
        for d in &result.decisions {
            all_points.push(TimelinePoint {
                workload: name.to_string(),
                time_s: d.at.as_secs_f64(),
                estimate: d.estimate.unwrap_or(0.0),
                read_rate: d.read_rate,
                write_rate: d.write_rate,
            });
        }

        // Summarise per phase by slicing the decision timeline at phase ends.
        let mut phase_start = 0.0f64;
        for (phase, pr) in phases.iter().zip(result.phase_results.iter()) {
            let phase_end = pr.stats.ended_at.as_secs_f64();
            let estimates: Vec<f64> = result
                .decisions
                .iter()
                .filter(|d| d.at.as_secs_f64() > phase_start && d.at.as_secs_f64() <= phase_end)
                .filter_map(|d| d.estimate)
                .collect();
            let mean = if estimates.is_empty() {
                0.0
            } else {
                estimates.iter().sum::<f64>() / estimates.len() as f64
            };
            let max = estimates.iter().cloned().fold(0.0f64, f64::max);
            table.add_row(vec![
                name.to_string(),
                phase.threads.to_string(),
                format!("{mean:.4}"),
                format!("{max:.4}"),
            ]);
            phase_start = phase_end;
        }
    }

    println!("{table}");
    println!("Estimate timeline (time s, estimate) per workload:");
    for point in all_points.iter().filter(|p| p.estimate > 0.0).take(200) {
        println!(
            "  {:<11} t={:>8.2}s  Pr(stale)={:.4}  (λr={:.0}/s, λw={:.0}/s)",
            point.workload, point.time_s, point.estimate, point.read_rate, point.write_rate
        );
    }
    println!(
        "\nPaper shape check: at comparable access rates workload B's estimate stays below\n\
         workload A's (far fewer updates), and for workload A the estimate decreases as the\n\
         thread count — and with it the write rate — steps down through the phases."
    );

    args.write_json("JSON timeline", &all_points);
}
