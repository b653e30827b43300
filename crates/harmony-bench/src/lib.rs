//! # harmony-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Harmony paper's evaluation section (§V), plus Criterion microbenchmarks
//! for the building blocks and ablation studies of the design choices (see
//! the "Ablations" section of `EXPERIMENTS.md`).
//!
//! Each figure has its own binary (`fig4a`, `fig4b`, `fig5_latency`,
//! `fig5_throughput`, `fig6_staleness`, `headline`, `ablations`); every
//! binary prints the series the paper plots as a plain-text table and,
//! with `--json <path>`, also writes a machine-readable copy used to update
//! `EXPERIMENTS.md`.
//!
//! Every figure runs the one calibrated controller,
//! `ControllerConfig::calibrated()` (see [`experiments`]). The split sweeps
//! pass it through [`experiments::enable_split`]; the proactive sweep sets
//! `controller.proactive = ProactiveConfig::enabled()`.
//!
//! Absolute numbers will not match the paper (its substrate was a physical
//! Cassandra deployment on Grid'5000 and EC2; ours is a calibrated
//! simulator) — the comparison targets are the *shapes*: which policy wins,
//! by roughly what factor, and where the curves cross.

pub mod baseline;
pub mod experiments;
pub mod report;

pub use experiments::{
    ec2_experiment_config, fig5_thread_counts, grid5000_experiment_config, run_policy_sweep,
    scaled_workload_a, scaled_workload_b, ExperimentConfig, PolicySpec, SweepRow,
};
pub use report::{write_json, Table};
