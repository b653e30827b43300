//! # Harmony
//!
//! A Rust reproduction of **"Harmony: Towards Automated Self-Adaptive
//! Consistency in Cloud Storage"** (Chihoub, Ibrahim, Antoniu, Pérez — IEEE
//! CLUSTER 2012).
//!
//! Harmony is a thin control layer for quorum-replicated storage systems that
//! tunes the consistency level of *read* operations at run time. It estimates
//! the probability that a read returns stale data from the monitored access
//! rates and network latency, compares it with the stale-read rate the
//! application is willing to tolerate, and — only when needed — raises the
//! number of replicas involved in subsequent reads just enough to bring the
//! estimate back under the tolerance.
//!
//! This workspace contains everything needed to reproduce the paper end to
//! end, including the substrates the original work relied on:
//!
//! | Crate | Role |
//! |-------|------|
//! | [`harmony_model`] | the stale-read probability model (Eq. 1-8) and rate estimators |
//! | [`harmony_sim`] | deterministic discrete-event kernel, latency models, Grid'5000/EC2/multi-DC profiles |
//! | [`harmony_chaos`] | deterministic fault injection and elasticity: typed fault schedules (crashes, partitions, slow replicas, node churn) and the cluster-side fault state |
//! | [`harmony_store`] | a Cassandra-like quorum-replicated key-value store (ring, placement, per-replica row maps, coordinator, read repair) |
//! | [`harmony_monitor`] | the monitoring module (counter/latency collection, rate smoothing) |
//! | [`harmony_adaptive`] | the adaptive controller plus the static baselines (eventual, strong, quorum) |
//! | [`harmony_ycsb`] | YCSB-style workloads, closed-loop clients, statistics and staleness measurement |
//! | [`harmony_live`] | a real-threaded replicated store showing the controller in wall-clock time |
//!
//! The `harmony-bench` crate regenerates every figure of the paper's
//! evaluation; see `EXPERIMENTS.md` at the repository root.
//!
//! ## Quick start
//!
//! ```
//! use harmony::prelude::*;
//!
//! // The paper's main scenario: YCSB workload A on a Grid'5000-like cluster,
//! // RF = 5, Harmony tolerating 20% stale reads.
//! let profile = harmony::profiles::grid5000_with_nodes(6);
//! let mut workload = WorkloadSpec::workload_a(200);
//! workload.field_count = 2;
//! workload.field_size = 16;
//! let spec = ExperimentSpec::single_phase(workload, 8, 1_000);
//!
//! let result = run_experiment(
//!     &profile,
//!     StoreConfig { replication_factor: 3, ..StoreConfig::default() },
//!     ControllerConfig::default(),
//!     Box::new(HarmonyPolicy::new(3, 0.20)),
//!     spec,
//! );
//! println!("throughput: {:.0} ops/s, stale reads: {}",
//!          result.throughput(), result.stale_reads());
//! assert!(result.stats.operations >= 1_000);
//! ```

pub use harmony_adaptive as adaptive;
pub use harmony_chaos as chaos;
pub use harmony_live as live;
pub use harmony_model as model;
pub use harmony_monitor as monitor;
pub use harmony_obs as obs;
pub use harmony_sim as sim;
pub use harmony_store as store;
pub use harmony_ycsb as ycsb;

/// Cluster profiles reproducing the paper's two testbeds.
pub use harmony_sim::profiles;

/// One-stop imports for the most common experiment workflow.
pub mod prelude {
    pub use harmony_adaptive::config::{ControllerConfig, PerKeySplitConfig};
    pub use harmony_adaptive::controller::{AdaptiveController, HotKeyDecision};
    pub use harmony_adaptive::policy::{
        ConsistencyPolicy, HarmonyPolicy, PolicyContext, StaticPolicy,
    };
    pub use harmony_model::decision::{decide, decide_with_estimate, ConsistencyDecision};
    pub use harmony_model::perkey::{KeyLoad, PerKeyModel};
    pub use harmony_model::queueing::{
        MG1Queue, ProactiveConfig, QueueingModel, StalenessEstimate, WriteStageObservation,
    };
    pub use harmony_model::staleness::{PropagationModel, StaleReadModel};
    pub use harmony_monitor::collector::{HotKeyStat, Monitor, MonitorConfig};
    pub use harmony_monitor::heavy_hitters::{HotKeyTracker, SpaceSavingSketch};
    pub use harmony_sim::profiles::{ec2, grid5000, ClusterProfile};
    pub use harmony_sim::{Latency, SimTime, Simulation};
    pub use harmony_store::prelude::*;
    pub use harmony_ycsb::prelude::*;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        let model = StaleReadModel::new(5);
        let p = model.stale_probability(1000.0, 800.0, 0.001);
        assert!(p > 0.0);
        let policy = HarmonyPolicy::new(5, 0.2);
        assert_eq!(policy.name(), "harmony-20");
        let profile = grid5000();
        assert_eq!(profile.replication_factor, 5);
    }
}
