//! Replica placement strategies.
//!
//! The paper configures Cassandra with `OldNetworkTopologyStrategy`, which
//! "ensures that data is replicated over all the clusters and racks" (§V.C).
//! We provide the two classic strategies:
//!
//! * [`ReplicationStrategy::Simple`] — the first `RF` distinct nodes walking
//!   the ring clockwise, ignoring topology;
//! * [`ReplicationStrategy::NetworkTopology`] — walk the ring but prefer
//!   nodes on racks (and datacenters) not yet holding a replica, falling back
//!   to already-used racks only when every rack is covered. This reproduces
//!   the rack/DC spreading of the paper's configuration.

use crate::hashring::{key_token, HashRing};
use crate::keys::KeyId;
use harmony_sim::topology::{NodeId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Upper bound on the replication factor the inline replica-set cache
/// supports. The paper's deployments use RF = 5; the bound leaves headroom
/// without bloating the per-range cache entry (8 × 4 bytes + length).
pub const MAX_RF: usize = 8;

/// A replica set stored inline (no heap allocation): up to [`MAX_RF`] node
/// ids plus a length. This is what the placement cache hands out on the hot
/// path instead of a freshly allocated `Vec<NodeId>` per operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaSet {
    nodes: [NodeId; MAX_RF],
    len: u8,
}

impl ReplicaSet {
    /// An empty replica set (also the cache's "not yet computed" sentinel).
    pub const EMPTY: ReplicaSet = ReplicaSet {
        nodes: [NodeId(0); MAX_RF],
        len: 0,
    };

    /// Builds a set from a freshly computed replica list.
    ///
    /// # Panics
    /// Panics if the list exceeds [`MAX_RF`] nodes (prevented upstream by
    /// `StoreConfig::validate`).
    pub fn from_slice(nodes: &[NodeId]) -> Self {
        assert!(
            nodes.len() <= MAX_RF,
            "replica set of {} exceeds MAX_RF = {MAX_RF}",
            nodes.len()
        );
        let mut set = ReplicaSet::EMPTY;
        set.nodes[..nodes.len()].copy_from_slice(nodes);
        set.len = nodes.len() as u8;
        set
    }

    /// The replicas, primary first.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.nodes[..self.len as usize]
    }

    /// Number of replicas.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the set holds no replicas.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one node.
    ///
    /// # Panics
    /// Panics (debug) past [`MAX_RF`] nodes.
    #[inline]
    pub fn push(&mut self, node: NodeId) {
        debug_assert!((self.len as usize) < MAX_RF, "replica set full");
        self.nodes[self.len as usize] = node;
        self.len += 1;
    }
}

/// Memoised placement, kept per ring range rather than per key.
///
/// Both strategies place a key by walking the ring from the first token at
/// or after the key's token, so every key in one range (between two
/// adjacent tokens) has the same replica set — the per-range preference
/// list Dynamo keeps. The cache holds two tables: `ranges`, one replica set
/// per ring token index, each computed by at most one ring walk per ring
/// generation, and `range_of`, one 4-byte range index per [`KeyId`]. A
/// steady-state lookup is two array loads and never needs the key's name;
/// the name is hashed once per key and generation to find its range.
/// [`PlacementCache::invalidate`] drops both tables whenever the ring or the
/// topology changes (node joins/departures, vnode reshuffles): a new ring
/// can keep its token count and still move every range.
#[derive(Debug, Default, Clone)]
pub struct PlacementCache {
    /// Replica set per ring token index; [`ReplicaSet::EMPTY`] until walked.
    ranges: Vec<ReplicaSet>,
    /// Ring token index per key; [`UNKNOWN_RANGE`] until the key is hashed.
    range_of: Vec<u32>,
    /// Bumped on every invalidation; lets callers cheaply detect that cached
    /// data from a previous topology must not be reused.
    generation: u64,
}

/// The `range_of` entry of a key whose range is not computed yet.
const UNKNOWN_RANGE: u32 = u32::MAX;

impl PlacementCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlacementCache::default()
    }

    /// How many topology changes this cache has survived.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of invalidations performed — the churn property tests assert
    /// this increments exactly once per topology change. (Alias of
    /// [`PlacementCache::generation`], named for what it counts.)
    pub fn invalidations(&self) -> u64 {
        self.generation
    }

    /// Number of keys whose replica set is cached: the key's range is known
    /// and that range has been walked.
    pub fn cached_len(&self) -> usize {
        self.range_of
            .iter()
            .filter(|&&range| {
                self.ranges
                    .get(range as usize)
                    .is_some_and(|set| !set.is_empty())
            })
            .count()
    }

    /// Drops every cached entry. Must be called whenever the ring, the
    /// topology or the placement strategy changes.
    pub fn invalidate(&mut self) {
        self.ranges.clear();
        self.range_of.clear();
        self.generation += 1;
    }

    /// The cached replica set for `key`. A key seen for the first time since
    /// the last invalidation calls `name` once and hashes it to its ring
    /// range; a range seen for the first time is walked once. Every other
    /// lookup is two array loads and leaves `name` uncalled. A cluster size
    /// or RF of zero is the caller's bug; an empty computed set is cached
    /// as-is and recomputed next time, which cannot happen for a non-empty
    /// topology.
    #[inline]
    pub fn replicas_for<'n>(
        &mut self,
        key: KeyId,
        name: impl FnOnce() -> &'n str,
        strategy: ReplicationStrategy,
        ring: &HashRing,
        topology: &Topology,
        rf: usize,
    ) -> ReplicaSet {
        let range = match self.range_of.get(key.index()) {
            Some(&range) if range != UNKNOWN_RANGE => range as usize,
            _ => self.locate(key, name(), ring),
        };
        match self.ranges.get(range) {
            Some(set) if !set.is_empty() => *set,
            _ => self.walk(range, strategy, ring, topology, rf),
        }
    }

    /// Hashes a key's name to its ring range and records it.
    #[cold]
    fn locate(&mut self, key: KeyId, name: &str, ring: &HashRing) -> usize {
        let range = ring.successor_index(key_token(name));
        let index = key.index();
        if index >= self.range_of.len() {
            self.range_of.resize(index + 1, UNKNOWN_RANGE);
        }
        self.range_of[index] = range as u32;
        range
    }

    /// Walks the ring for one range and records its replica set.
    #[cold]
    fn walk(
        &mut self,
        range: usize,
        strategy: ReplicationStrategy,
        ring: &HashRing,
        topology: &Topology,
        rf: usize,
    ) -> ReplicaSet {
        if self.ranges.is_empty() {
            self.ranges.resize(ring.token_count(), ReplicaSet::EMPTY);
        }
        let fresh = ReplicaSet::from_slice(&strategy.replicas_for_range(ring, topology, range, rf));
        self.ranges[range] = fresh;
        fresh
    }
}

/// How the store maps a key to its `RF` replica nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplicationStrategy {
    /// Ring order, topology-oblivious.
    Simple,
    /// Ring order but spreading replicas across racks and datacenters first
    /// (the paper's `OldNetworkTopologyStrategy` behaviour).
    NetworkTopology,
}

impl ReplicationStrategy {
    /// Computes the replica set (in preference order, primary first) for a
    /// key: the walk for the key's ring range,
    /// [`ReplicationStrategy::replicas_for_range`] from the key's
    /// [`HashRing::successor_index`]. This is the uncached reference walk.
    ///
    /// The returned list has `min(rf, cluster size)` distinct nodes.
    pub fn replicas_for(
        &self,
        ring: &HashRing,
        topology: &Topology,
        key: &str,
        rf: usize,
    ) -> Vec<NodeId> {
        self.replicas_for_range(ring, topology, ring.successor_index(key_token(key)), rf)
    }

    /// Computes the replica set (in preference order, primary first) shared
    /// by every key whose token falls in the ring range ending at token
    /// index `range`.
    ///
    /// The returned list has `min(rf, cluster size)` distinct nodes.
    ///
    /// # Panics
    /// Panics if `range` is not below [`HashRing::token_count`].
    pub fn replicas_for_range(
        &self,
        ring: &HashRing,
        topology: &Topology,
        range: usize,
        rf: usize,
    ) -> Vec<NodeId> {
        let rf = rf.min(topology.len()).max(1);
        match self {
            ReplicationStrategy::Simple => ring.preference_list_from(range, rf),
            ReplicationStrategy::NetworkTopology => {
                let mut chosen: Vec<NodeId> = Vec::with_capacity(rf);
                let mut used_racks: HashSet<(u16, u16)> = HashSet::new();
                let mut used_dcs: HashSet<u16> = HashSet::new();
                let candidates = ring.preference_list_from(range, topology.len());

                // Pass 1: nodes in datacenters not yet covered.
                for &node in &candidates {
                    if chosen.len() == rf {
                        break;
                    }
                    let loc = topology.location(node);
                    if !used_dcs.contains(&loc.dc) && !chosen.contains(&node) {
                        used_dcs.insert(loc.dc);
                        used_racks.insert((loc.dc, loc.rack));
                        chosen.push(node);
                    }
                }
                // Pass 2: nodes on racks not yet covered.
                for &node in &candidates {
                    if chosen.len() == rf {
                        break;
                    }
                    let loc = topology.location(node);
                    if !used_racks.contains(&(loc.dc, loc.rack)) && !chosen.contains(&node) {
                        used_racks.insert((loc.dc, loc.rack));
                        chosen.push(node);
                    }
                }
                // Pass 3: anything left in ring order.
                for &node in &candidates {
                    if chosen.len() == rf {
                        break;
                    }
                    if !chosen.contains(&node) {
                        chosen.push(node);
                    }
                }
                chosen
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn simple_matches_ring_preference_list() {
        let ring = HashRing::new(6, 16);
        let topo = Topology::single_dc(1, 6);
        for k in 0..50 {
            let key = format!("user{k}");
            assert_eq!(
                ReplicationStrategy::Simple.replicas_for(&ring, &topo, &key, 3),
                ring.preference_list(&key, 3)
            );
        }
    }

    #[test]
    fn replica_sets_have_requested_size_and_are_distinct() {
        let ring = HashRing::new(10, 16);
        let topo = Topology::single_dc(2, 5);
        for strategy in [
            ReplicationStrategy::Simple,
            ReplicationStrategy::NetworkTopology,
        ] {
            for k in 0..100 {
                let reps = strategy.replicas_for(&ring, &topo, &format!("u{k}"), 5);
                assert_eq!(reps.len(), 5);
                let set: HashSet<_> = reps.iter().collect();
                assert_eq!(set.len(), 5);
            }
        }
    }

    #[test]
    fn rf_larger_than_cluster_is_clamped() {
        let ring = HashRing::new(3, 8);
        let topo = Topology::single_dc(1, 3);
        let reps = ReplicationStrategy::NetworkTopology.replicas_for(&ring, &topo, "k", 5);
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn network_topology_spreads_over_racks() {
        // 4 racks of 5 nodes; RF=4 must touch all 4 racks.
        let ring = HashRing::new(20, 16);
        let topo = Topology::single_dc(4, 5);
        for k in 0..100 {
            let reps = ReplicationStrategy::NetworkTopology.replicas_for(
                &ring,
                &topo,
                &format!("u{k}"),
                4,
            );
            let racks: HashSet<_> = reps.iter().map(|n| topo.location(*n).rack).collect();
            assert_eq!(racks.len(), 4, "key u{k} replicas {reps:?}");
        }
    }

    #[test]
    fn network_topology_spreads_over_datacenters() {
        // 2 DCs x 2 racks x 5 nodes; RF=2 must use both DCs.
        let ring = HashRing::new(20, 16);
        let topo = Topology::multi_dc(2, 2, 5);
        for k in 0..100 {
            let reps = ReplicationStrategy::NetworkTopology.replicas_for(
                &ring,
                &topo,
                &format!("u{k}"),
                2,
            );
            let dcs: HashSet<_> = reps.iter().map(|n| topo.location(*n).dc).collect();
            assert_eq!(dcs.len(), 2);
        }
    }

    #[test]
    fn network_topology_falls_back_when_fewer_racks_than_rf() {
        // 2 racks of 10, RF=5: both racks covered, remaining replicas reuse racks.
        let ring = HashRing::new(20, 16);
        let topo = Topology::single_dc(2, 10);
        for k in 0..50 {
            let reps = ReplicationStrategy::NetworkTopology.replicas_for(
                &ring,
                &topo,
                &format!("u{k}"),
                5,
            );
            assert_eq!(reps.len(), 5);
            let racks: HashSet<_> = reps.iter().map(|n| topo.location(*n).rack).collect();
            assert_eq!(racks.len(), 2);
        }
    }

    #[test]
    fn primary_is_first_in_both_strategies() {
        let ring = HashRing::new(12, 16);
        let topo = Topology::single_dc(3, 4);
        for k in 0..50 {
            let key = format!("user{k}");
            let simple = ReplicationStrategy::Simple.replicas_for(&ring, &topo, &key, 3);
            assert_eq!(simple[0], ring.primary_for_key(&key));
            // NetworkTopology keeps the ring's primary as well (it is the
            // first candidate and no rack/DC is used yet).
            let nts = ReplicationStrategy::NetworkTopology.replicas_for(&ring, &topo, &key, 3);
            assert_eq!(nts[0], ring.primary_for_key(&key));
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let ring = HashRing::new(10, 16);
        let topo = Topology::single_dc(2, 5);
        let a = ReplicationStrategy::NetworkTopology.replicas_for(&ring, &topo, "user42", 5);
        let b = ReplicationStrategy::NetworkTopology.replicas_for(&ring, &topo, "user42", 5);
        assert_eq!(a, b);
    }
}
