//! # harmony-store
//!
//! A from-scratch quorum-replicated key-value store modelled after the
//! Cassandra deployment the Harmony paper evaluates on (CLUSTER 2012, §II.B
//! and §V). It runs on the [`harmony_sim`] discrete-event kernel so that the
//! staleness phenomena Harmony controls — asynchronous update propagation,
//! partial-quorum reads, read repair — play out under controllable network
//! latency and are exactly reproducible.
//!
//! Features reproduced from the paper's substrate:
//!
//! * consistent-hash token ring with virtual nodes ([`hashring`]);
//! * rack/datacenter-aware replica placement, the behaviour of Cassandra's
//!   `OldNetworkTopologyStrategy` ([`placement`]);
//! * per-node storage engine: one row map per replica with per-column
//!   last-write-wins reconciliation ([`engine`]);
//! * per-operation consistency levels `ONE` … `ALL` plus the dynamically
//!   computed `Replicas(x)` level Harmony uses ([`consistency`]);
//! * coordinator read/write paths with timestamp reconciliation, asynchronous
//!   propagation and (background) read repair ([`cluster`]), matching the two
//!   flows of the paper's Figure 1;
//! * bounded per-node service capacity so throughput saturates as client
//!   concurrency grows (the roll-off the paper observes past 90 threads);
//! * ground-truth staleness accounting for every completed read.
//!
//! ## Example
//!
//! ```
//! use harmony_store::prelude::*;
//! use harmony_sim::{Simulation, rng::RngFactory, topology::{Topology, NetworkModel}};
//! use harmony_sim::latency::Latency;
//!
//! let topology = Topology::single_dc(2, 3);
//! let network = NetworkModel::uniform(Latency::constant_ms(0.3));
//! let config = StoreConfig { replication_factor: 3, ..StoreConfig::default() };
//! let mut cluster = Cluster::new(config, topology, network, RngFactory::new(1));
//! let mut sim: Simulation<StoreEvent> = Simulation::new(1);
//!
//! cluster.submit_write("user1", Mutation::single("field0", b"hello".to_vec()),
//!                      ConsistencyLevel::Quorum, &mut sim);
//! cluster.submit_read("user1", ConsistencyLevel::One, &mut sim);
//!
//! let mut completions = Vec::new();
//! while let Some((_, event)) = sim.next() {
//!     if let Some(c) = cluster.handle(event, &mut sim) {
//!         completions.push(c);
//!     }
//! }
//! assert_eq!(completions.len(), 2);
//! ```

pub mod cluster;
pub mod config;
pub mod consistency;
pub mod detector;
pub mod engine;
pub mod hashring;
pub mod keys;
pub mod machine;
pub mod messages;
pub mod node;
pub mod optable;
pub mod placement;
pub mod shard;
pub mod types;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::cluster::{Cluster, ClusterTotals, Completion};
    pub use crate::config::StoreConfig;
    pub use crate::consistency::ConsistencyLevel;
    pub use crate::detector::HeartbeatHistory;
    pub use crate::keys::{KeyId, KeyTable};
    pub use crate::machine::{HarmonyMachine, MachineEvent, OnEvent, ProtocolTimer};
    pub use crate::messages::{Message, OpId, OpKind, StoreEvent};
    pub use crate::placement::{PlacementCache, ReplicaSet, ReplicationStrategy, MAX_RF};
    pub use crate::shard::ShardPartition;
    pub use crate::types::{Cell, Key, Mutation, Row, Timestamp};
}

pub use cluster::{Cluster, Completion};
pub use config::StoreConfig;
pub use consistency::ConsistencyLevel;
pub use keys::{KeyId, KeyTable};
pub use machine::{HarmonyMachine, MachineEvent, OnEvent, ProtocolTimer};
pub use messages::{OpId, OpKind, StoreEvent};
pub use types::{Mutation, Row, Timestamp};
