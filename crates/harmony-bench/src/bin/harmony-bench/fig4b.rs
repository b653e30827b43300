//! Figure 4(b): the impact of network latency on the stale-read estimate.
//!
//! The paper runs workload A on Amazon EC2 (where latency is both higher and
//! more variable than on Grid'5000) and plots the estimated probability of a
//! stale read against the network latency observed at that moment, showing
//! that once latency reaches a few milliseconds it dominates the estimate
//! regardless of the access rates.
//!
//! The figure reproduces the panel two ways:
//!  1. analytically — sweeping the latency fed to the closed-form model for a
//!     set of workload-A-like access rates (the scatter envelope), and
//!  2. empirically — running workload A on the EC2 profile and reporting the
//!     (latency, estimate) pairs the controller actually observed.
//!
//! Usage: `cargo run --release -p harmony-bench -- fig4b [--quick] [--json out.json]`

use crate::Args;
use harmony_bench::experiments::{scaled_workload_a, PolicySpec};
use harmony_bench::report::Table;
use harmony_model::staleness::{PropagationModel, StaleReadModel};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct LatencyPoint {
    source: String,
    latency_ms: f64,
    estimate: f64,
}

pub fn run(args: &Args) {
    let mut points = Vec::new();

    // Part 1: the analytic sweep (0 - 50 ms as on the paper's x-axis).
    let model = StaleReadModel::new(5);
    let propagation = PropagationModel::default();
    let mut table = Table::new(vec![
        "latency (ms)",
        "Pr(stale) @ 100/80 ops/s",
        "Pr(stale) @ 500/400 ops/s",
        "Pr(stale) @ 2k/1.5k ops/s",
    ]);
    for latency_ms in [0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0] {
        let tp = propagation.propagation_time_secs(latency_ms, 1024.0);
        let estimates: Vec<f64> = [(100.0, 80.0), (500.0, 400.0), (2_000.0, 1_500.0)]
            .iter()
            .map(|(r, w)| model.stale_probability(*r, *w, tp))
            .collect();
        for e in &estimates {
            points.push(LatencyPoint {
                source: "analytic".to_string(),
                latency_ms,
                estimate: *e,
            });
        }
        table.add_row(vec![
            format!("{latency_ms:.1}"),
            format!("{:.4}", estimates[0]),
            format!("{:.4}", estimates[1]),
            format!("{:.4}", estimates[2]),
        ]);
    }
    println!("Figure 4(b) — stale-read estimate vs network latency");
    println!("\nAnalytic sweep (closed-form Eq. 6, three workload-A-like rate pairs):");
    println!("{table}");

    // Part 2: measured during an EC2-profile run (spiky latency).
    let config = args.config_for("ec2");
    let threads = 40;
    let spec = config.spec(scaled_workload_a(config.records), threads);
    let result = config.runner(&PolicySpec::Harmony(1.0), spec).run();
    println!(
        "Observed on the EC2 profile ({} monitoring ticks):",
        result.decisions.len()
    );
    let mut observed = Table::new(vec!["t (s)", "latency (ms)", "Pr(stale)"]);
    for d in result.decisions.iter().filter(|d| d.estimate.is_some()) {
        points.push(LatencyPoint {
            source: "ec2-run".to_string(),
            latency_ms: d.latency_ms,
            estimate: d.estimate.unwrap_or(0.0),
        });
        observed.add_row(vec![
            format!("{:.1}", d.at.as_secs_f64()),
            format!("{:.2}", d.latency_ms),
            format!("{:.4}", d.estimate.unwrap_or(0.0)),
        ]);
    }
    println!("{observed}");
    println!(
        "Paper shape check: beyond a few milliseconds of latency the estimate saturates near its\n\
         ceiling for every rate pair — high latency dominates the probability of stale reads,\n\
         while at sub-millisecond latency the estimate is governed by the read/write rates."
    );

    args.write_json("JSON", &points);
}
