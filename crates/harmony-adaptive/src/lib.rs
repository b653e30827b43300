//! # harmony-adaptive
//!
//! The adaptive-consistency module of Harmony (paper §III and §V.A): the
//! component that periodically takes the monitoring module's output (access
//! rates and network latency), runs the stale-read estimation model, applies
//! the decision scheme, and hands the resulting consistency level to the
//! client layer for all subsequent reads.
//!
//! Besides the Harmony policy itself, the crate provides the static baselines
//! the paper compares against (eventual consistency = always `ONE`, strong
//! consistency = always `ALL`, plus a static `QUORUM` baseline and arbitrary
//! fixed levels), all behind one [`policy::ConsistencyPolicy`] trait so the
//! workload runner can treat them interchangeably.

pub mod config;
pub mod controller;
pub mod policy;

pub use config::ControllerConfig;
pub use controller::{AdaptiveController, DecisionRecord, HotKeyDecision};
pub use policy::{ConsistencyPolicy, HarmonyPolicy, PolicyContext, StaticPolicy};
