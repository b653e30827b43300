//! Shared experiment configuration for the per-figure binaries.
//!
//! The paper's runs use 3-10 million operations over 84 physical nodes
//! (Grid'5000) or 20 VMs (EC2). The harness scales the populations and
//! operation counts down so a full figure regenerates in minutes on a laptop,
//! while keeping the quantities that shape the curves: the read/update mix,
//! the replication factor (5), the thread-count sweep, the relative latency
//! of the two platforms, and the tolerated-stale-read settings per platform.

use harmony_adaptive::config::ControllerConfig;
use harmony_adaptive::controller::AdaptiveController;
use harmony_adaptive::policy::{ConsistencyPolicy, HarmonyPolicy, StaticPolicy};
use harmony_sim::profiles::{self, ClusterProfile};
use harmony_store::config::StoreConfig;
use harmony_ycsb::runner::{ExperimentResult, ExperimentSpec, Runner};
use harmony_ycsb::workloads::WorkloadSpec;
use serde::Serialize;

/// The client thread counts swept in Figures 5 and 6.
pub fn fig5_thread_counts() -> Vec<usize> {
    vec![1, 15, 40, 70, 90, 110, 130]
}

/// The thread phases of Figure 4(a): 90, 70, 40, 15 and finally 1 thread.
pub fn fig4a_thread_phases() -> Vec<usize> {
    vec![90, 70, 40, 15, 1]
}

/// A policy selection for an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// Static eventual consistency (read ONE).
    Eventual,
    /// Static strong consistency (read ALL).
    Strong,
    /// Static quorum reads.
    Quorum,
    /// Harmony with the given tolerated stale-read rate (fraction).
    Harmony(f64),
}

impl PolicySpec {
    /// A short label matching the paper's legend.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Eventual => "eventual".to_string(),
            PolicySpec::Strong => "strong".to_string(),
            PolicySpec::Quorum => "quorum".to_string(),
            PolicySpec::Harmony(asr) => format!("harmony-{:.0}%", asr * 100.0),
        }
    }

    /// Instantiates the policy for a store with the given replication factor.
    pub fn build(&self, replication_factor: usize) -> Box<dyn ConsistencyPolicy> {
        match self {
            PolicySpec::Eventual => Box::new(StaticPolicy::Eventual),
            PolicySpec::Strong => Box::new(StaticPolicy::Strong),
            PolicySpec::Quorum => Box::new(StaticPolicy::Quorum),
            PolicySpec::Harmony(asr) => Box::new(HarmonyPolicy::new(replication_factor, *asr)),
        }
    }

    /// The four policies compared on a platform: the platform's two Harmony
    /// settings, eventual, and strong (the legend of Figures 5 and 6).
    pub fn paper_set(profile: &ClusterProfile) -> Vec<PolicySpec> {
        vec![
            PolicySpec::Harmony(profile.harmony_settings[1]),
            PolicySpec::Harmony(profile.harmony_settings[0]),
            PolicySpec::Eventual,
            PolicySpec::Strong,
        ]
    }
}

/// Scaled experiment parameters for one platform.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The platform profile (topology + network + RF + Harmony settings).
    pub profile: ClusterProfile,
    /// Store configuration used on this platform.
    pub store: StoreConfig,
    /// Controller configuration (monitoring period etc.).
    pub controller: ControllerConfig,
    /// Number of records loaded before the transaction phase.
    pub records: u64,
    /// Operations executed per client thread in a sweep point.
    pub operations_per_thread: u64,
    /// Minimum operations per sweep point regardless of thread count.
    pub min_operations: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Operations for a run with `threads` client threads.
    pub fn operations_for(&self, threads: usize) -> u64 {
        (self.operations_per_thread * threads as u64).max(self.min_operations)
    }

    /// The spec of one sweep point: a single phase of `threads` sessions
    /// running [`ExperimentConfig::operations_for`] operations of `workload`
    /// under this config's seed. Hot-key tallies and dual reads start off;
    /// set them with struct update.
    pub fn spec(&self, workload: WorkloadSpec, threads: usize) -> ExperimentSpec {
        ExperimentSpec {
            seed: self.seed,
            ..ExperimentSpec::single_phase(workload, threads, self.operations_for(threads))
        }
    }

    /// A runner for `spec` on this platform, its reads decided by `policy`
    /// under this config's controller. Faults, retries and observability
    /// attach through the [`Runner`] builder.
    pub fn runner(&self, policy: &PolicySpec, spec: ExperimentSpec) -> Runner {
        let rf = self.store.replication_factor;
        let controller = AdaptiveController::new(self.controller, rf, policy.build(rf));
        Runner::new(&self.profile, self.store.clone(), controller, spec)
    }
}

/// Turns any controller configuration into its split counterpart: per-key
/// decisions on, and the heavy-hitter sketch sized so the *whole* Zipfian
/// head gets individual decisions with margin. 256 counters put the tracking
/// noise floor at ~0.4% write share, so the head keys sit far above it and
/// never flap out of the hot set, while the 0.3% hot threshold hands every
/// reliably-tracked key its own level (keys that need only ONE simply get
/// ONE — per-key decisions cannot over-protect). Each hot key is decided from
/// its own rates with its pending-mutation backlog at full weight: unlike the
/// cross-replica dispersion (which the conditional closed form overweights,
/// hence the tiny calibrated `spread_fraction`), a key's own pending
/// mutations translate one-for-one into staleness for reads of that key.
/// The `hotspot_split` sweep and the paper-claim tests share this
/// transformation, so tuning it here moves the published sweep table and the
/// locked-in claims together.
pub fn enable_split(mut config: ControllerConfig) -> ControllerConfig {
    config.per_key_split = true;
    config.monitor.hot_key_capacity = 256;
    config.monitor.hot_key_min_share = 0.003;
    config
}

/// The scaled-down Grid'5000 configuration.
///
/// The paper's Grid'5000 deployment has 84 bare-metal nodes with ~6 cores
/// each (496 cores total); the scaled profile keeps the per-node concurrency
/// (6) and Gigabit-class latencies while shrinking the node count to 20.
pub fn grid5000_experiment_config() -> ExperimentConfig {
    let profile = profiles::grid5000();
    let store = StoreConfig {
        replication_factor: profile.replication_factor,
        node_concurrency: 6,
        read_service_ms: 0.25,
        write_service_ms: 0.40,
        client_latency_ms: 0.15,
        ..StoreConfig::default()
    };
    ExperimentConfig {
        profile,
        store,
        controller: ControllerConfig::calibrated(),
        records: 20_000,
        operations_per_thread: 1_500,
        min_operations: 30_000,
        seed: 2012,
    }
}

/// The scaled-down EC2 configuration (higher, jittery latency).
pub fn ec2_experiment_config() -> ExperimentConfig {
    let profile = profiles::ec2();
    let store = StoreConfig {
        replication_factor: profile.replication_factor,
        // EC2 Large instances in 2012: two cores per VM and slower,
        // virtualised I/O compared with the Grid'5000 bare-metal nodes.
        node_concurrency: 2,
        read_service_ms: 0.4,
        write_service_ms: 0.8,
        client_latency_ms: 0.4,
        ..StoreConfig::default()
    };
    ExperimentConfig {
        profile,
        store,
        controller: ControllerConfig::calibrated(),
        records: 20_000,
        operations_per_thread: 1_500,
        min_operations: 30_000,
        seed: 2012,
    }
}

/// Picks the experiment configuration by profile name (`grid5000` or `ec2`).
pub fn config_by_name(name: &str) -> Option<ExperimentConfig> {
    match name {
        "grid5000" => Some(grid5000_experiment_config()),
        "ec2" => Some(ec2_experiment_config()),
        _ => None,
    }
}

/// Workload A scaled to the harness record count, with smaller rows so the
/// load phase stays laptop-friendly (the row *shape* — 10 fields — is kept).
pub fn scaled_workload_a(records: u64) -> WorkloadSpec {
    let mut w = WorkloadSpec::workload_a(records);
    w.field_size = 64;
    w
}

/// Workload B scaled the same way.
pub fn scaled_workload_b(records: u64) -> WorkloadSpec {
    let mut w = WorkloadSpec::workload_b(records);
    w.field_size = 64;
    w
}

/// One row of a thread-count sweep for one policy.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Policy label.
    pub policy: String,
    /// Client threads.
    pub threads: usize,
    /// Overall throughput (ops/s).
    pub throughput: f64,
    /// 99th-percentile read latency (ms).
    pub read_p99_ms: f64,
    /// Mean read latency (ms).
    pub read_mean_ms: f64,
    /// Stale reads (ground truth).
    pub stale_reads: u64,
    /// Stale reads as a fraction of reads.
    pub stale_fraction: f64,
    /// Total reads completed.
    pub reads: u64,
    /// Total operations completed.
    pub operations: u64,
}

impl SweepRow {
    /// Builds a row from an experiment result.
    pub fn from_result(policy: &PolicySpec, threads: usize, result: &ExperimentResult) -> Self {
        SweepRow {
            policy: policy.label(),
            threads,
            throughput: result.throughput(),
            read_p99_ms: result.read_p99_ms(),
            read_mean_ms: result.stats.read_latency.mean_ms(),
            stale_reads: result.stats.stale_reads,
            stale_fraction: result.stats.stale_fraction(),
            reads: result.stats.reads,
            operations: result.stats.operations,
        }
    }
}

/// One row of the skew sweep (`hotspot_split` binary): a (skew, policy,
/// controller-kind) point with the aggregate and hot-key staleness split out.
#[derive(Debug, Clone, Serialize)]
pub struct SkewRow {
    /// Workload name including the skew suffix (e.g. `workload-a-zipfian`).
    pub workload: String,
    /// Policy label; split controllers get a `+split` suffix.
    pub policy: String,
    /// Whether the per-key split controller was active.
    pub split: bool,
    /// Client threads.
    pub threads: usize,
    /// Overall throughput (ops/s).
    pub throughput: f64,
    /// 99th-percentile read latency (ms).
    pub read_p99_ms: f64,
    /// Stale fraction over all reads (ground truth).
    pub stale_fraction: f64,
    /// Stale fraction over reads of the designated hot keys.
    pub hot_stale_fraction: f64,
    /// Reads of the designated hot keys.
    pub hot_reads: u64,
    /// Hot keys escalated by the controller at the end of the run.
    pub hot_set_size: usize,
}

impl SkewRow {
    /// Builds a row from an experiment result.
    pub fn from_result(
        policy: &PolicySpec,
        split: bool,
        threads: usize,
        result: &ExperimentResult,
    ) -> Self {
        SkewRow {
            workload: result.workload.clone(),
            policy: if split {
                format!("{}+split", policy.label())
            } else {
                policy.label()
            },
            split,
            threads,
            throughput: result.throughput(),
            read_p99_ms: result.read_p99_ms(),
            stale_fraction: result.stats.stale_fraction(),
            hot_stale_fraction: result.stats.hot_stale_fraction(),
            hot_reads: result.stats.hot_reads,
            hot_set_size: result.hot_set.len(),
        }
    }
}

/// Runs one experiment for a (policy, thread count) point of the paper's
/// workload A.
pub fn run_point(
    config: &ExperimentConfig,
    policy: &PolicySpec,
    threads: usize,
    dual_read: bool,
) -> ExperimentResult {
    let spec = ExperimentSpec {
        dual_read_measurement: dual_read,
        ..config.spec(scaled_workload_a(config.records), threads)
    };
    config.runner(policy, spec).run()
}

/// Runs the full thread-count sweep for every policy in `policies`.
pub fn run_policy_sweep(
    config: &ExperimentConfig,
    policies: &[PolicySpec],
    thread_counts: &[usize],
    dual_read: bool,
) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for policy in policies {
        for &threads in thread_counts {
            let result = run_point(config, policy, threads, dual_read);
            rows.push(SweepRow::from_result(policy, threads, &result));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_specs_build_and_label() {
        assert_eq!(PolicySpec::Eventual.label(), "eventual");
        assert_eq!(PolicySpec::Harmony(0.2).label(), "harmony-20%");
        assert_eq!(
            PolicySpec::Quorum
                .build(5)
                .read_level(&harmony_adaptive::policy::PolicyContext::idle(5))
                .required_acks(5),
            3
        );
        let profile = profiles::grid5000();
        let set = PolicySpec::paper_set(&profile);
        assert_eq!(set.len(), 4);
        assert_eq!(set[0], PolicySpec::Harmony(0.40));
        assert_eq!(set[1], PolicySpec::Harmony(0.20));
    }

    #[test]
    fn configs_match_paper_settings() {
        let g = grid5000_experiment_config();
        assert_eq!(g.store.replication_factor, 5);
        assert_eq!(g.profile.harmony_settings, [0.20, 0.40]);
        let e = ec2_experiment_config();
        assert_eq!(e.store.replication_factor, 5);
        assert_eq!(e.profile.harmony_settings, [0.40, 0.60]);
        assert!(e.profile.mean_latency_ms() > g.profile.mean_latency_ms());
        assert!(config_by_name("grid5000").is_some());
        assert!(config_by_name("ec2").is_some());
        assert!(config_by_name("other").is_none());
    }

    #[test]
    fn operations_scale_with_threads() {
        let g = grid5000_experiment_config();
        assert_eq!(g.operations_for(1), g.min_operations);
        assert!(g.operations_for(130) >= 130 * g.operations_per_thread);
    }

    #[test]
    fn thread_sweeps_match_paper() {
        assert_eq!(fig5_thread_counts(), vec![1, 15, 40, 70, 90, 110, 130]);
        assert_eq!(fig4a_thread_phases(), vec![90, 70, 40, 15, 1]);
    }

    #[test]
    fn scaled_workloads_keep_the_paper_mix() {
        let a = scaled_workload_a(1000);
        assert_eq!(a.read_proportion, 0.5);
        assert_eq!(a.field_count, 10);
        let b = scaled_workload_b(1000);
        assert!((b.read_proportion - 0.95).abs() < 1e-12);
    }

    #[test]
    fn a_tiny_sweep_runs_end_to_end() {
        // Keep this cheap: 2 policies x 1 thread count, small population.
        let mut config = grid5000_experiment_config();
        config.records = 500;
        config.min_operations = 1_000;
        config.operations_per_thread = 100;
        let rows = run_policy_sweep(
            &config,
            &[PolicySpec::Eventual, PolicySpec::Harmony(0.2)],
            &[8],
            false,
        );
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.throughput > 0.0);
            assert!(row.operations >= 1_000);
            assert!(row.read_p99_ms > 0.0);
        }
    }
}
