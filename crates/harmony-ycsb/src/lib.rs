//! # harmony-ycsb
//!
//! A YCSB-style workload harness for the Harmony reproduction: key-popularity
//! distributions, the core workload mixes (the paper uses workloads A and B),
//! closed-loop client sessions that consult a consistency policy before every
//! read, latency/throughput statistics, and the two staleness-measurement
//! mechanisms (simulator ground truth, and the paper's dual-read method).
//!
//! Every experiment is built by [`runner::Runner::new`] and driven by one
//! event loop. [`runner::run_experiment`] is its short form: it assembles
//! the cluster from a [`harmony_sim::profiles::ClusterProfile`], performs
//! the load phase, runs the transaction phases under the given policy, and
//! returns an [`runner::ExperimentResult`] with everything the paper's
//! figures plot: 99th-percentile read latency, throughput, stale-read counts
//! and the stale-read-estimate timeline. Fault schedules, client retries and
//! observability attach through the builder —
//! `Runner::new(..).with_faults(..).with_retry(..).with_obs(..)` — and
//! [`sharded::run_sharded_experiment`] splits the same run across per-stripe
//! event loops on several cores.
//!
//! ## Example
//!
//! ```
//! use harmony_ycsb::prelude::*;
//! use harmony_adaptive::policy::HarmonyPolicy;
//! use harmony_adaptive::config::ControllerConfig;
//! use harmony_sim::profiles;
//! use harmony_store::config::StoreConfig;
//!
//! let profile = profiles::grid5000_with_nodes(6);
//! let mut workload = WorkloadSpec::workload_a(200);
//! workload.field_count = 2;
//! workload.field_size = 16;
//! let spec = ExperimentSpec::single_phase(workload, 4, 500);
//! let store = StoreConfig { replication_factor: 3, ..StoreConfig::default() };
//! let result = run_experiment(
//!     &profile,
//!     store,
//!     ControllerConfig::default(),
//!     Box::new(HarmonyPolicy::new(3, 0.2)),
//!     spec,
//! );
//! assert!(result.stats.operations >= 500);
//! ```

pub mod distributions;
pub mod runner;
pub mod sharded;
pub mod stats;
pub mod workloads;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::distributions::{record_key, KeyChooser};
    pub use crate::runner::{
        run_experiment, ExperimentResult, ExperimentSpec, Phase, PhaseResult, RetryPolicy, Runner,
        RunnerEvent, CHAOS_OP_TIMEOUT,
    };
    pub use crate::sharded::{run_sharded_experiment, run_sharded_experiment_with_obs};
    pub use crate::stats::RunStats;
    pub use crate::workloads::{Operation, RequestDistribution, WorkloadSpec};
    pub use harmony_chaos::{
        FaultCounters, FaultEvent, FaultSchedule, FaultState, RandomFaultConfig, ScheduledFault,
    };
    pub use harmony_obs::{MetricsRegistry, ObsConfig, ObsReport};
}

pub use prelude::*;
