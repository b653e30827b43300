//! # harmony-monitor
//!
//! The monitoring module of Harmony (paper §V.A): it periodically collects
//! the information the estimation model needs —
//!
//! * cumulative read/write counters from every storage node (the paper uses
//!   Cassandra's `nodetool`),
//! * inter-node network latency (the paper uses `ping`),
//!
//! converts counter deltas into access rates while accounting for the time
//! the monitoring sweep itself takes, and passes the probe's latency figure
//! on as the `Ln` fed to the propagation-time model.
//!
//! The monitor is deliberately decoupled from the store through the
//! [`probe::ClusterProbe`] trait so the same code can drive the discrete-event
//! cluster, the real-threaded live cluster, or a mock in tests.

pub mod collector;
pub mod heavy_hitters;
pub mod probe;

pub use collector::{HotKeyStat, Monitor, MonitorConfig, MonitorSample};
pub use heavy_hitters::{HotKey, HotKeyTracker, SketchEntry, SpaceSavingSketch};
pub use probe::ClusterProbe;
