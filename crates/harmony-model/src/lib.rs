//! # harmony-model
//!
//! The probabilistic heart of Harmony (CLUSTER 2012, §III-IV): an estimation
//! of the stale-read rate of a quorum-replicated store under eventual
//! consistency, and the computation of the minimal number of replicas `Xn`
//! that must participate in a read to keep the stale-read rate below the rate
//! the application tolerates (`app_stale_rate`).
//!
//! The model's inputs are the ones the paper's monitoring module collects at
//! run time:
//!
//! * the read arrival rate `λr` (reads per second),
//! * the write/update arrival rate (the paper parameterises it as `1/λw`),
//! * the update propagation time `Tp`, itself derived from the inter-replica
//!   network latency and the average write size,
//! * the replication factor `N`.
//!
//! The closed form of the stale-read probability (paper Eq. 6) is
//!
//! ```text
//! Pr(stale) = (N - 1) · (1 - e^{-λr·Tp}) · (1 + λr·λw) / (N · λr · λw)
//! ```
//!
//! and the number of replicas required to keep the estimate below the
//! tolerated rate `ASR` (paper Eq. 8) is
//!
//! ```text
//! Xn ≥ N · ( (1 - e^{-λr·Tp})(1 + λr·λw) - ASR·λr·λw ) / ( (1 - e^{-λr·Tp})(1 + λr·λw) )
//! ```
//!
//! This crate contains no simulation or storage code: it is pure,
//! deterministic math plus the small rate estimator that turns monitored
//! counters into `λr`/`λw`, so it can be embedded both in the simulator and
//! in a real client-side controller.
//!
//! ## Example
//!
//! ```
//! use harmony_model::staleness::{StaleReadModel, PropagationModel};
//! use harmony_model::decision::{decide, ConsistencyDecision};
//!
//! let model = StaleReadModel::new(5); // replication factor 5, as in the paper
//! let tp = PropagationModel::default().propagation_time_secs(0.5, 1024.0);
//! // 1000 reads/s, 800 updates/s, ~0.5 ms latency:
//! let p = model.stale_probability(1000.0, 800.0, tp);
//! assert!(p > 0.0 && p <= 1.0);
//!
//! // Application tolerates 20% stale reads: how many replicas must a read touch?
//! match decide(&model, 0.20, 1000.0, 800.0, tp) {
//!     ConsistencyDecision::Eventual => println!("consistency level ONE"),
//!     ConsistencyDecision::Replicas(x) => println!("consistency level {x}"),
//! }
//! ```

pub mod decision;
pub mod perkey;
pub mod poisson;
pub mod queueing;
pub mod rates;
pub mod staleness;

pub use decision::{decide, decide_with_estimate, ConsistencyDecision};
pub use perkey::KeyLoad;
pub use queueing::{
    MG1Queue, ProactiveConfig, QueueingModel, StalenessEstimate, WriteStageObservation,
};
pub use rates::{RateEstimate, SlidingWindowRate};
pub use staleness::{PropagationModel, StaleReadModel};
