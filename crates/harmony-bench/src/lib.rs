//! # harmony-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Harmony paper's evaluation section (§V), plus the sweeps and ablation
//! studies of the design choices built on it (see `EXPERIMENTS.md`).
//!
//! One binary, `harmony-bench <figure> [--profile P] [--quick] [--json PATH]`,
//! runs each figure:
//!
//! | figure | what it regenerates |
//! |---|---|
//! | `fig4a` | Figure 4(a): the stale-read estimate over time as workload and threads change |
//! | `fig4b` | Figure 4(b): the estimate against network latency |
//! | `fig5` | Figures 5(a)-(d) and 6(a)-(b): p99 read latency, throughput and stale reads vs threads, from one sweep |
//! | `fig5_saturation` | Figure 5(c)/(d) past the write-stage saturation knee |
//! | `headline` | the paper's two headline claims, measured |
//! | `hotspot_split` | the per-key split controller under key skew |
//! | `fault_sweep` | the controller under crashes, a partition and scale-out |
//! | `proactive_sweep` | proactive (predicted-wait) against reactive control |
//! | `repair_sweep` | post-heal relax time with and without anti-entropy and retries |
//! | `ablations` | read-repair probability; static quorum against Harmony |
//!
//! Each prints the series the paper plots as plain-text tables and, with
//! `--json <path>`, also writes a machine-readable copy used to update
//! `EXPERIMENTS.md`. Two more binaries measure wall-clock speed:
//! `bench_baseline` (the committed `BENCH_e2e.json`) and `scaling_sweep`
//! (the sharded runtime across shard counts).
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
