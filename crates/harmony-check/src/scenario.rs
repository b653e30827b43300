//! Checkable scenarios: small, fully-specified cluster setups plus the
//! client operations submitted before exploration starts.
//!
//! Scenarios are deliberately tiny — model checking pays exponentially for
//! every extra in-flight message — and deliberately deterministic:
//! background read repair is pinned to probability 0 so the cluster RNG can
//! be excluded from state fingerprints (see the crate docs).

use harmony_sim::latency::Latency;
use harmony_sim::rng::RngFactory;
use harmony_sim::topology::{NetworkModel, Topology};
use harmony_store::machine::HarmonyMachine;
use harmony_store::prelude::*;
use std::sync::Arc;

use crate::explorer::CheckerCtx;

/// One client operation submitted before exploration starts.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOp {
    /// A client write of a one-field mutation (the value encodes the op's
    /// position so divergent replicas are visibly divergent).
    Write {
        /// Key name.
        key: String,
        /// Consistency level.
        consistency: ConsistencyLevel,
    },
    /// A client read.
    Read {
        /// Key name.
        key: String,
        /// Consistency level.
        consistency: ConsistencyLevel,
    },
}

/// A fully-specified checkable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Registry name — traces reference scenarios by this.
    pub name: String,
    /// Seed for the cluster RNG streams (latency/service sampling only).
    pub seed: u64,
    /// Nodes, as one single-DC rack.
    pub nodes: usize,
    /// Replication factor.
    pub replication_factor: usize,
    /// Operations submitted up front; their initial `Deliver` events form
    /// the root pending set the explorer reorders.
    pub ops: Vec<ScenarioOp>,
    /// How many crash placements a single schedule may contain.
    pub max_crashes: usize,
    /// How many partition placements a single schedule may contain. Each
    /// placement isolates one serving node from the rest of the cluster;
    /// the quiesce procedure heals before invariants are checked, so a
    /// partition tests whether in-flight state stranded behind the cut is
    /// recovered, not whether the cut itself is survivable.
    pub max_partitions: usize,
    /// Stale-read tolerance the quiesced staleness estimate must respect.
    pub stale_tolerance: f64,
}

impl Scenario {
    /// The distinct key names this scenario touches, in first-use order.
    pub fn key_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for op in &self.ops {
            let (ScenarioOp::Write { key, .. } | ScenarioOp::Read { key, .. }) = op;
            if !names.contains(&key.as_str()) {
                names.push(key);
            }
        }
        names
    }

    /// Builds the machine and submits every operation, returning the machine,
    /// the context holding the initial pending events, and the interned keys
    /// (parallel to [`Scenario::key_names`]).
    pub fn build(&self) -> (HarmonyMachine, CheckerCtx, Vec<KeyId>) {
        let topology = Topology::single_dc(1, u16::try_from(self.nodes).expect("tiny scenario"));
        // Constant latency: the sampled value never matters (the checker
        // discards delays), but a constant keeps the RNG stream shared with
        // simulation-based drivers of the same scenario.
        let network = NetworkModel::uniform(Latency::constant_ms(0.5));
        let config = StoreConfig {
            replication_factor: self.replication_factor,
            // Pinned to 0 so `gen_bool` is deterministic regardless of RNG
            // state — the precondition for excluding the RNG from state
            // fingerprints (see the crate docs).
            background_read_repair_chance: 0.0,
            ..StoreConfig::default()
        };
        let cluster = Cluster::new(config, topology, network, RngFactory::new(self.seed));
        let mut machine = HarmonyMachine::new(cluster);
        let mut ctx = CheckerCtx::new();
        let keys: Vec<KeyId> = self
            .key_names()
            .iter()
            .map(|name| machine.cluster_mut().intern_key(name))
            .collect();
        let key_id = |name: &str, machine: &HarmonyMachine| {
            machine
                .cluster()
                .key_id(name)
                .expect("scenario key interned above")
        };
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                ScenarioOp::Write { key, consistency } => {
                    let id = key_id(key, &machine);
                    machine.submit_write(
                        id,
                        Arc::new(Mutation::single("f", format!("w{i}").into_bytes())),
                        *consistency,
                        &mut ctx,
                    );
                }
                ScenarioOp::Read { key, consistency } => {
                    let id = key_id(key, &machine);
                    machine.submit_read(id, *consistency, &mut ctx);
                }
            }
        }
        (machine, ctx, keys)
    }
}

/// The acceptance-criteria scenario: 3 nodes, RF = 3, two quorum writes to
/// the same key, at most one crash per schedule. Every delivery order and
/// crash placement is exhaustively enumerable at moderate depth, yet it
/// already contains the full hinted-handoff / ack-durability machinery.
pub fn three_node_two_write() -> Scenario {
    Scenario {
        name: "three_node_two_write".to_string(),
        seed: 20120920,
        nodes: 3,
        replication_factor: 3,
        ops: vec![
            ScenarioOp::Write {
                key: "k".to_string(),
                consistency: ConsistencyLevel::Quorum,
            },
            ScenarioOp::Write {
                key: "k".to_string(),
                consistency: ConsistencyLevel::Quorum,
            },
        ],
        max_crashes: 1,
        max_partitions: 0,
        stale_tolerance: 0.05,
    }
}

/// A write racing a concurrent read at ONE — the paper's Figure 2 staleness
/// window as a checkable scenario (used by deeper random walks).
pub fn three_node_write_read() -> Scenario {
    Scenario {
        name: "three_node_write_read".to_string(),
        seed: 20120920,
        nodes: 3,
        replication_factor: 3,
        ops: vec![
            ScenarioOp::Write {
                key: "k".to_string(),
                consistency: ConsistencyLevel::One,
            },
            ScenarioOp::Read {
                key: "k".to_string(),
                consistency: ConsistencyLevel::One,
            },
            ScenarioOp::Write {
                key: "k".to_string(),
                consistency: ConsistencyLevel::Quorum,
            },
        ],
        max_crashes: 1,
        max_partitions: 0,
        stale_tolerance: 0.05,
    }
}

/// Two writes at ONE racing a network partition: the explorer may cut one
/// node off at any point of the schedule, so a write acked by the isolated
/// side must survive the heal. With hints intact this always converges; the
/// scenario exists to let the checker *construct* partition-induced
/// divergence for protocol mutants (and for the anti-entropy healing proof).
pub fn three_node_partition_write() -> Scenario {
    Scenario {
        name: "three_node_partition_write".to_string(),
        seed: 20120920,
        nodes: 3,
        replication_factor: 3,
        ops: vec![
            ScenarioOp::Write {
                key: "k".to_string(),
                consistency: ConsistencyLevel::One,
            },
            ScenarioOp::Write {
                key: "k".to_string(),
                consistency: ConsistencyLevel::One,
            },
        ],
        max_crashes: 0,
        max_partitions: 1,
        stale_tolerance: 0.05,
    }
}

/// Resolves a scenario by registry name (traces and the CLI reference
/// scenarios this way).
pub fn by_name(name: &str) -> Option<Scenario> {
    match name {
        "three_node_two_write" => Some(three_node_two_write()),
        "three_node_write_read" => Some(three_node_write_read()),
        "three_node_partition_write" => Some(three_node_partition_write()),
        _ => None,
    }
}
