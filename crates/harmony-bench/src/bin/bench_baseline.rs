//! Wall-clock performance baseline: the headline and Figure 5 saturation
//! sweeps timed against the real clock, with an allocations-per-operation
//! estimate from a counting global allocator.
//!
//! Every other binary in this crate reports *virtual*-time results — the
//! discrete-event clock advances however long the simulated cluster needs,
//! regardless of how fast the simulator itself runs. This binary pins the
//! complementary number: how many simulated operations per *wall-clock*
//! second the engine sustains, which is what hot-path optimisations
//! (key interning, placement caching, shared payloads) actually move.
//!
//! The sweeps are the `--quick` variants of `headline` and
//! `fig5_saturation`, so a run finishes in well under a minute and the
//! committed baseline is directly comparable with the CI smoke run.
//!
//! Usage:
//!   cargo run --release -p harmony-bench --bin bench_baseline
//!   cargo run --release -p harmony-bench --bin bench_baseline -- \
//!       --out BENCH_e2e.json --check BENCH_e2e.json --tolerance 0.2
//!
//! Flags:
//!   `--quick`            accepted for CI symmetry (the sweeps are always the
//!                        quick variants; the flag changes nothing)
//!   `--out <path>`       where to write the JSON report (default
//!                        `BENCH_e2e.json` in the current directory)
//!   `--check <path>`     compare against a previously committed report and
//!                        exit non-zero if overall wall-clock ops/sec
//!                        regressed by more than the tolerance
//!   `--tolerance <f>`    allowed fractional regression for `--check`
//!                        (default 0.2, i.e. 20%)
//!   `--history <path>`   append this run's headline to the wall-clock
//!                        history file (default `BENCH_history.json`; pass
//!                        `--history none` to skip)
//!   `--obs-overhead-check`  run ONLY the observability overhead gate: time
//!                        the headline sweep observed (default `ObsConfig::
//!                        enabled()` sampling) vs unobserved, best-of-3
//!                        alternating rounds, and exit non-zero if the
//!                        observed arm is more than `--obs-tolerance`
//!                        (default 0.03, i.e. 3%) slower

use harmony_bench::baseline::{
    allocation_calls, append_history, measure_scaling_point, BenchBaseline, ScalingPoint,
    SweepBaseline, TrackingAllocator,
};
use harmony_bench::experiments::{
    config_by_name, run_point, run_point_with_obs, ExperimentConfig, PolicySpec,
};
use harmony_bench::report::{flag_value, has_flag};
use harmony_ycsb::ObsConfig;
use std::time::Instant;

// The shared tracking allocator: identical accounting overhead to
// `scaling_sweep`, so the per-shard gate compares like with like.
#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// The points of one sweep: `(profile, policy, threads)`.
type SweepPoint = (ExperimentConfig, PolicySpec, usize);

fn quick_scaled(profile: &str, min_operations: u64) -> ExperimentConfig {
    let mut config = config_by_name(profile).expect("known profile");
    config.records = 4_000;
    config.operations_per_thread = 250;
    config.min_operations = min_operations;
    config
}

/// The `headline --quick` points: both platforms, the platform's strict
/// Harmony setting against the two static baselines at a busy thread count.
fn headline_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for profile in ["grid5000", "ec2"] {
        let config = quick_scaled(profile, 8_000);
        let strict = config.profile.harmony_settings[0];
        for policy in [
            PolicySpec::Harmony(strict),
            PolicySpec::Eventual,
            PolicySpec::Strong,
        ] {
            points.push((config.clone(), policy, 40));
        }
    }
    points
}

/// The `fig5_saturation --quick` points: Harmony's relaxed setting against
/// the static baselines across the quick thread sweep.
fn fig5_points() -> Vec<SweepPoint> {
    let config = quick_scaled("grid5000", 6_000);
    let relaxed = config.profile.harmony_settings[1];
    let mut points = Vec::new();
    for policy in [
        PolicySpec::Harmony(relaxed),
        PolicySpec::Eventual,
        PolicySpec::Strong,
    ] {
        for threads in [5usize, 20, 40] {
            points.push((config.clone(), policy, threads));
        }
    }
    points
}

fn run_sweep(name: &str, points: &[SweepPoint]) -> SweepBaseline {
    let mut read_latency = harmony_ycsb::stats::LatencyHistogram::new();
    let mut operations = 0u64;
    let allocs_before = allocation_calls();
    let started = Instant::now();
    for (config, policy, threads) in points {
        let result = run_point(config, policy, *threads, false);
        operations += result.stats.operations;
        read_latency.merge(&result.stats.read_latency);
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let allocations = allocation_calls().saturating_sub(allocs_before);
    SweepBaseline {
        name: name.to_string(),
        wall_secs,
        operations,
        ops_per_sec_wall: operations as f64 / wall_secs.max(1e-9),
        read_p50_ms: read_latency.percentile_ms(0.50),
        read_p99_ms: read_latency.percentile_ms(0.99),
        allocations,
        allocations_per_op: allocations as f64 / operations.max(1) as f64,
    }
}

/// The observability overhead gate: the headline sweep timed with the obs
/// layer fully on (default sampling) against the plain form, best-of-N
/// alternating rounds so machine noise hits both arms symmetrically.
/// Returns the measured fractional overhead (negative = observed was
/// faster, i.e. pure noise).
fn measure_obs_overhead(rounds: usize) -> f64 {
    let points = headline_points();
    let mut best_plain_ops_per_sec = 0f64;
    let mut best_obs_ops_per_sec = 0f64;
    for round in 1..=rounds {
        let started = Instant::now();
        let mut operations = 0u64;
        for (config, policy, threads) in &points {
            operations += run_point(config, policy, *threads, false).stats.operations;
        }
        let plain = operations as f64 / started.elapsed().as_secs_f64().max(1e-9);

        let started = Instant::now();
        let mut obs_operations = 0u64;
        for (config, policy, threads) in &points {
            let (result, report) =
                run_point_with_obs(config, policy, *threads, false, ObsConfig::enabled());
            obs_operations += result.stats.operations;
            // Touch the report so the exporter work cannot be optimised out.
            assert!(!report.prometheus_text().is_empty());
        }
        let observed = obs_operations as f64 / started.elapsed().as_secs_f64().max(1e-9);

        assert_eq!(
            operations, obs_operations,
            "the observed arm must simulate the identical run"
        );
        best_plain_ops_per_sec = best_plain_ops_per_sec.max(plain);
        best_obs_ops_per_sec = best_obs_ops_per_sec.max(observed);
        println!("round {round}/{rounds}: plain {plain:.0} ops/s, observed {observed:.0} ops/s");
    }
    1.0 - best_obs_ops_per_sec / best_plain_ops_per_sec
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The sweeps *are* the quick variants; the flag exists so CI can invoke
    // this binary uniformly with the other sweep smokes.
    let _ = has_flag(&args, "--quick");

    if has_flag(&args, "--obs-overhead-check") {
        let tolerance: f64 = flag_value(&args, "--obs-tolerance")
            .map(|t| t.parse().expect("--obs-tolerance takes a fraction"))
            .unwrap_or(0.03);
        println!(
            "Observability overhead gate — headline sweep, observed (default sampling) vs plain\n"
        );
        let overhead = measure_obs_overhead(3);
        println!(
            "\nBest-of-3 overhead: {:.2}% (tolerance {:.0}%)",
            overhead * 100.0,
            tolerance * 100.0
        );
        if overhead > tolerance {
            eprintln!("FAIL: enabled observability costs more than the tolerated throughput");
            std::process::exit(1);
        }
        println!("OK: enabled observability is within the overhead budget");
        return;
    }

    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_e2e.json".to_string());
    let check = flag_value(&args, "--check");
    let tolerance: f64 = flag_value(&args, "--tolerance")
        .map(|t| t.parse().expect("--tolerance takes a fraction"))
        .unwrap_or(0.2);

    println!("Wall-clock baseline — headline + fig5 saturation (quick sweeps)\n");
    let sweeps = vec![
        run_sweep("headline-quick", &headline_points()),
        run_sweep("fig5-saturation-quick", &fig5_points()),
    ];

    // The scaling section: the same quick scaling workload `scaling_sweep`
    // runs, at the shard counts its CI gate checks per-shard.
    let scaling: Vec<ScalingPoint> = [1usize, 2, 4]
        .iter()
        .map(|&shards| measure_scaling_point(shards, 60_000, 4_000, 3).0)
        .collect();

    let total_operations: u64 = sweeps.iter().map(|s| s.operations).sum();
    let total_wall_secs: f64 = sweeps.iter().map(|s| s.wall_secs).sum();
    let report = BenchBaseline {
        version: 2,
        total_operations,
        total_wall_secs,
        total_ops_per_sec_wall: total_operations as f64 / total_wall_secs.max(1e-9),
        sweeps,
        scaling,
    };

    let mut table = harmony_bench::report::Table::new(vec![
        "sweep",
        "wall s",
        "ops",
        "ops/s (wall)",
        "p50 ms",
        "p99 ms",
        "allocs/op",
    ]);
    for s in &report.sweeps {
        table.add_row(vec![
            s.name.clone(),
            format!("{:.2}", s.wall_secs),
            s.operations.to_string(),
            format!("{:.0}", s.ops_per_sec_wall),
            format!("{:.2}", s.read_p50_ms),
            format!("{:.2}", s.read_p99_ms),
            format!("{:.1}", s.allocations_per_op),
        ]);
    }
    println!("{table}");

    let mut scale_table = harmony_bench::report::Table::new(vec![
        "shards",
        "wall s",
        "ops",
        "ops/s (wall)",
        "ops/s/shard",
    ]);
    for p in &report.scaling {
        scale_table.add_row(vec![
            p.shards.to_string(),
            format!("{:.2}", p.wall_secs),
            p.operations.to_string(),
            format!("{:.0}", p.ops_per_sec_wall),
            format!("{:.0}", p.ops_per_sec_per_shard),
        ]);
    }
    println!("{scale_table}");
    println!(
        "Overall: {} operations in {:.2} s wall = {:.0} ops/s",
        report.total_operations, report.total_wall_secs, report.total_ops_per_sec_wall
    );

    harmony_bench::report::write_json(std::path::Path::new(&out), &report).expect("write json");
    println!("JSON written to {out}");

    // Every regeneration of the committed baseline also appends one line to
    // the wall-clock history, so cross-PR throughput comparisons survive the
    // overwrite of BENCH_e2e.json.
    let history =
        flag_value(&args, "--history").unwrap_or_else(|| "BENCH_history.json".to_string());
    if history != "none" {
        match append_history(
            std::path::Path::new(&history),
            &report,
            "bench_baseline regeneration",
        ) {
            Ok(entries) => println!("history appended to {history} ({entries} entries)"),
            Err(err) => eprintln!("warning: history not updated: {err}"),
        }
    }

    if let Some(baseline_path) = check {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let baseline: BenchBaseline =
            serde_json::from_str(&text).expect("parse committed baseline");
        let floor = baseline.total_ops_per_sec_wall * (1.0 - tolerance);
        println!(
            "Regression check against {baseline_path}: measured {:.0} ops/s vs \
             committed {:.0} ops/s (floor {:.0}, tolerance {:.0}%)",
            report.total_ops_per_sec_wall,
            baseline.total_ops_per_sec_wall,
            floor,
            tolerance * 100.0
        );
        if report.total_ops_per_sec_wall < floor {
            eprintln!("FAIL: wall-clock throughput regressed beyond the tolerance");
            std::process::exit(1);
        }
        println!("OK: within tolerance");
    }
}
