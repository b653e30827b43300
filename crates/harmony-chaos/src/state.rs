//! The cluster-side fault state: liveness, partition masks, slow-down
//! factors and ring membership, as the discrete-event cluster interprets a
//! fault schedule.
//!
//! The state answers three questions on the hot path — *is this node
//! serving?*, *can these two nodes talk?*, *how slow is this node?* — all as
//! branch-and-index lookups with no allocation. A fresh (fault-free) state
//! answers `true`/`true`/`1.0` everywhere, which is what keeps the empty
//! fault schedule byte-identical to a run without the chaos layer.

use harmony_sim::topology::NodeId;
use serde::{Deserialize, Serialize};

/// Cumulative counts of the faults applied so far, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Nodes crashed.
    pub crashes: u64,
    /// Nodes restarted.
    pub restarts: u64,
    /// Partitions installed.
    pub partitions: u64,
    /// Partitions healed.
    pub heals: u64,
    /// Slow-down (or restore) events applied.
    pub slowdowns: u64,
    /// Nodes joined.
    pub joins: u64,
    /// Nodes decommissioned.
    pub decommissions: u64,
}

impl FaultCounters {
    /// Total fault events applied.
    pub fn total(&self) -> u64 {
        self.crashes
            + self.restarts
            + self.partitions
            + self.heals
            + self.slowdowns
            + self.joins
            + self.decommissions
    }
}

/// Per-node fault and membership state for a cluster of stable `NodeId`s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultState {
    /// Liveness per node slot (false = crashed).
    alive: Vec<bool>,
    /// Ring membership per node slot (true = decommissioned, i.e. the node
    /// left the ring for good; its slot survives so ids stay stable).
    decommissioned: Vec<bool>,
    /// Multiplicative service-time factor per node (1.0 = nominal).
    slow_factor: Vec<f64>,
    /// Active partition: the connectivity group of each node. `None` means
    /// no partition (all nodes connected).
    partition: Option<Vec<u32>>,
    /// What has been applied so far.
    counters: FaultCounters,
}

impl FaultState {
    /// A fully healthy state for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        FaultState {
            alive: vec![true; nodes],
            decommissioned: vec![false; nodes],
            slow_factor: vec![1.0; nodes],
            partition: None,
            counters: FaultCounters::default(),
        }
    }

    /// Number of node slots (including decommissioned ones).
    pub fn node_count(&self) -> usize {
        self.alive.len()
    }

    /// Counts of the faults applied so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// True if any fault is currently in effect (a node down, slowed or
    /// decommissioned, or a partition active). A state that has only ever
    /// seen heal-and-restore events reports `false`.
    pub fn any_active(&self) -> bool {
        self.partition.is_some()
            || self.alive.iter().any(|a| !a)
            || self.decommissioned.iter().any(|d| *d)
            || self.slow_factor.iter().any(|f| *f != 1.0)
    }

    /// True if the node is up (crashed nodes report false; decommissioned
    /// nodes stay "alive" as streaming sources until they also crash).
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.index()).copied().unwrap_or(false)
    }

    /// True if the node is a ring member (not decommissioned).
    #[inline]
    pub fn is_member(&self, node: NodeId) -> bool {
        !self
            .decommissioned
            .get(node.index())
            .copied()
            .unwrap_or(true)
    }

    /// True if the node serves traffic: alive and still a ring member. Only
    /// serving nodes coordinate operations or answer replica reads.
    #[inline]
    pub fn is_serving(&self, node: NodeId) -> bool {
        self.is_alive(node) && self.is_member(node)
    }

    /// True if `a` and `b` can exchange messages: both serving, and on the
    /// same side of the active partition (if any). A node always reaches
    /// itself while serving.
    #[inline]
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        if !self.is_serving(a) || !self.is_serving(b) {
            return false;
        }
        if a == b {
            return true;
        }
        match &self.partition {
            None => true,
            Some(groups) => {
                groups.get(a.index()).copied().unwrap_or(u32::MAX)
                    == groups.get(b.index()).copied().unwrap_or(u32::MAX)
            }
        }
    }

    /// The node's current service-time multiplier (1.0 = nominal).
    #[inline]
    pub fn service_factor(&self, node: NodeId) -> f64 {
        self.slow_factor.get(node.index()).copied().unwrap_or(1.0)
    }

    /// The node's connectivity group under the active partition, or `None`
    /// when no partition is active. Groups named in the partition event get
    /// their index; unlisted nodes share one implicit group.
    #[inline]
    pub fn partition_group(&self, node: NodeId) -> Option<u32> {
        self.partition
            .as_ref()
            .map(|groups| groups.get(node.index()).copied().unwrap_or(u32::MAX))
    }

    /// The current ring members, in id order.
    pub fn members(&self) -> Vec<NodeId> {
        (0..self.alive.len() as u32)
            .map(NodeId)
            .filter(|n| self.is_member(*n))
            .collect()
    }

    /// Number of serving nodes.
    pub fn serving_count(&self) -> usize {
        (0..self.alive.len() as u32)
            .map(NodeId)
            .filter(|n| self.is_serving(*n))
            .count()
    }

    /// Marks a node crashed. Returns false (and does nothing) if it was
    /// already down or out of range.
    pub fn crash(&mut self, node: NodeId) -> bool {
        match self.alive.get_mut(node.index()) {
            Some(a) if *a => {
                *a = false;
                self.counters.crashes += 1;
                true
            }
            _ => false,
        }
    }

    /// Brings a crashed node back. Returns false if it was already up,
    /// decommissioned, or out of range.
    pub fn restart(&mut self, node: NodeId) -> bool {
        if !self.is_member(node) {
            return false;
        }
        match self.alive.get_mut(node.index()) {
            Some(a) if !*a => {
                *a = true;
                self.counters.restarts += 1;
                true
            }
            _ => false,
        }
    }

    /// Sets the node's service-time multiplier. Returns false, changing
    /// nothing, for a node out of range or a factor that is not finite and
    /// positive: NaN, zero or a negative factor would make the node almost
    /// infinitely fast, and +∞ would make its service times zero.
    pub fn set_slow(&mut self, node: NodeId, factor: f64) -> bool {
        if !(factor.is_finite() && factor > 0.0) {
            return false;
        }
        match self.slow_factor.get_mut(node.index()) {
            Some(f) => {
                *f = factor;
                self.counters.slowdowns += 1;
                true
            }
            None => false,
        }
    }

    /// Installs a partition. Nodes listed in `groups[i]` land in group `i`;
    /// nodes not listed anywhere form one implicit extra group together.
    pub fn partition(&mut self, groups: &[Vec<NodeId>]) {
        let implicit = groups.len() as u32;
        let mut assignment = vec![implicit; self.alive.len()];
        for (g, members) in groups.iter().enumerate() {
            for node in members {
                if let Some(slot) = assignment.get_mut(node.index()) {
                    *slot = g as u32;
                }
            }
        }
        self.partition = Some(assignment);
        self.counters.partitions += 1;
    }

    /// Heals the active partition (no-op without one).
    pub fn heal(&mut self) -> bool {
        if self.partition.take().is_some() {
            self.counters.heals += 1;
            true
        } else {
            false
        }
    }

    /// True while a partition is active.
    pub fn partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// Adds a node slot for an elastic join; the new node starts alive and
    /// at nominal speed. A node joining while a partition is active is
    /// placed in a fresh group of its own — isolated from *every* existing
    /// side until the heal (a bootstrapping node in a split cluster cannot
    /// assume connectivity to anyone). Returns the new node's id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.alive.len() as u32);
        self.alive.push(true);
        self.decommissioned.push(false);
        self.slow_factor.push(1.0);
        if let Some(groups) = &mut self.partition {
            let isolated = groups.iter().copied().max().map(|m| m + 1).unwrap_or(0);
            groups.push(isolated);
        }
        self.counters.joins += 1;
        id
    }

    /// Marks a node decommissioned (out of the ring, never serving again).
    /// Returns false if it already was, or is out of range.
    pub fn decommission(&mut self, node: NodeId) -> bool {
        match self.decommissioned.get_mut(node.index()) {
            Some(d) if !*d => {
                *d = true;
                self.counters.decommissions += 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_fully_healthy() {
        let s = FaultState::new(4);
        assert!(!s.any_active());
        for i in 0..4 {
            let n = NodeId(i);
            assert!(s.is_alive(n));
            assert!(s.is_serving(n));
            assert_eq!(s.service_factor(n), 1.0);
            for j in 0..4 {
                assert!(s.reachable(n, NodeId(j)));
            }
        }
        assert_eq!(s.members().len(), 4);
        assert_eq!(s.serving_count(), 4);
        assert_eq!(s.counters().total(), 0);
    }

    #[test]
    fn crash_and_restart_cycle() {
        let mut s = FaultState::new(3);
        assert!(s.crash(NodeId(1)));
        assert!(!s.crash(NodeId(1)), "double crash is a no-op");
        assert!(!s.is_serving(NodeId(1)));
        assert!(s.is_member(NodeId(1)), "a crashed node keeps its tokens");
        assert!(!s.reachable(NodeId(0), NodeId(1)));
        assert!(s.any_active());
        assert_eq!(s.serving_count(), 2);
        assert!(s.restart(NodeId(1)));
        assert!(!s.restart(NodeId(1)), "double restart is a no-op");
        assert!(s.is_serving(NodeId(1)));
        assert!(!s.any_active());
        assert_eq!(s.counters().crashes, 1);
        assert_eq!(s.counters().restarts, 1);
    }

    #[test]
    fn partition_masks_connectivity_by_group() {
        let mut s = FaultState::new(5);
        // {0,1} vs {2,3}; node 4 is unlisted and forms the implicit group.
        s.partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]]);
        assert!(s.partitioned());
        assert!(s.reachable(NodeId(0), NodeId(1)));
        assert!(s.reachable(NodeId(2), NodeId(3)));
        assert!(!s.reachable(NodeId(0), NodeId(2)));
        assert!(!s.reachable(NodeId(1), NodeId(3)));
        assert!(!s.reachable(NodeId(0), NodeId(4)));
        assert!(!s.reachable(NodeId(4), NodeId(2)));
        // A node still reaches itself.
        assert!(s.reachable(NodeId(4), NodeId(4)));
        assert!(s.heal());
        assert!(!s.heal(), "healing twice is a no-op");
        assert!(s.reachable(NodeId(0), NodeId(2)));
        assert!(!s.any_active());
    }

    #[test]
    fn slow_factor_applies_and_restores() {
        let mut s = FaultState::new(2);
        assert!(s.set_slow(NodeId(1), 4.0));
        assert_eq!(s.service_factor(NodeId(1)), 4.0);
        assert_eq!(s.service_factor(NodeId(0)), 1.0);
        assert!(s.any_active());
        assert!(s.set_slow(NodeId(1), 1.0));
        assert!(!s.any_active());
        assert!(!s.set_slow(NodeId(9), 2.0), "out of range is rejected");
        // A factor that is not finite and > 0 is rejected, not clamped.
        assert!(!s.set_slow(NodeId(0), -3.0));
        assert_eq!(s.service_factor(NodeId(0)), 1.0);
    }

    #[test]
    fn slow_factors_must_be_finite_and_positive() {
        for factor in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let mut s = FaultState::new(2);
            assert!(s.set_slow(NodeId(1), 2.0));
            let before = s.counters();
            assert!(!s.set_slow(NodeId(1), factor), "x{factor} accepted");
            assert_eq!(s.service_factor(NodeId(1)), 2.0, "x{factor} applied");
            assert_eq!(s.counters(), before, "x{factor} counted");
        }
        for factor in [0.5, 1.0, 4.0] {
            let mut s = FaultState::new(2);
            assert!(s.set_slow(NodeId(1), factor), "x{factor} rejected");
            assert_eq!(s.service_factor(NodeId(1)), factor);
            assert_eq!(s.counters().slowdowns, 1);
        }
    }

    #[test]
    fn join_extends_and_decommission_shrinks_membership() {
        let mut s = FaultState::new(3);
        let new = s.add_node();
        assert_eq!(new, NodeId(3));
        assert_eq!(s.node_count(), 4);
        assert!(s.is_serving(new));
        assert!(s.decommission(NodeId(0)));
        assert!(!s.decommission(NodeId(0)));
        assert!(!s.is_serving(NodeId(0)));
        assert!(
            s.is_alive(NodeId(0)),
            "decommissioned stays alive as a source"
        );
        assert!(!s.is_member(NodeId(0)));
        assert_eq!(s.members(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(!s.restart(NodeId(0)), "a decommissioned node cannot rejoin");
        assert_eq!(s.counters().joins, 1);
        assert_eq!(s.counters().decommissions, 1);
    }

    #[test]
    fn join_during_partition_is_isolated_until_the_heal() {
        let mut s = FaultState::new(5);
        // Named groups {0,1} and {2,3}; node 4 is the unlisted remainder.
        s.partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]]);
        let new = s.add_node();
        // The joiner reaches no existing side while the cut is active — not
        // the named groups, and not the unlisted remainder either...
        assert!(!s.reachable(new, NodeId(0)));
        assert!(!s.reachable(new, NodeId(2)));
        assert!(!s.reachable(new, NodeId(4)));
        assert!(s.reachable(new, new));
        // ...and everyone after the heal.
        s.heal();
        assert!(s.reachable(new, NodeId(0)));
        assert!(s.reachable(new, NodeId(4)));
    }

    #[test]
    fn state_serializes_round_trip() {
        let mut s = FaultState::new(3);
        s.crash(NodeId(2));
        s.partition(&[vec![NodeId(0)], vec![NodeId(1), NodeId(2)]]);
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultState = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
