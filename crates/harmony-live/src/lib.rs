//! # harmony-live
//!
//! A small *real-threaded* replicated in-memory store: every storage node is
//! an OS thread, the network is a set of crossbeam channels, and replica
//! propagation delay is injected with real sleeps. It exposes the same
//! consistency-level knob as the discrete-event store, and implements the
//! monitoring probe trait so the Harmony controller can drive it in real
//! (wall-clock) time.
//!
//! The discrete-event store in [`harmony_store`] is the substrate used for
//! reproducing the paper's figures (it is deterministic and fast enough for
//! millions of operations); this crate exists to demonstrate the same control
//! loop working against genuinely concurrent code — the kind of deployment a
//! downstream user would run — and to stress the thread-safety of the
//! controller-facing interfaces.
//!
//! ## Example
//!
//! ```
//! use harmony_live::{LiveCluster, LiveConfig};
//! use harmony_store::consistency::ConsistencyLevel;
//! use std::time::Duration;
//!
//! let cluster = LiveCluster::start(LiveConfig {
//!     nodes: 4,
//!     replication_factor: 3,
//!     propagation_delay: Duration::from_micros(200),
//!     ..LiveConfig::default()
//! });
//! cluster.write("user1", b"hello".to_vec(), ConsistencyLevel::Quorum);
//! let (value, _version) = cluster.read("user1", ConsistencyLevel::Quorum).unwrap();
//! assert_eq!(value, b"hello");
//! cluster.shutdown();
//! ```

pub mod cluster;
mod detector;
pub mod harmony;

pub use cluster::{LiveCluster, LiveConfig, LiveCounters, Unavailable};
pub use harmony::{LiveHarmony, LiveRetryPolicy};
