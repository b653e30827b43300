//! Cluster topology: datacenters, racks, nodes, and pairwise latency classes.
//!
//! The paper deploys Cassandra with `OldNetworkTopologyStrategy`, which places
//! replicas across racks and datacenters (§V.C). Replica placement and update
//! propagation time therefore depend on *where* nodes sit relative to each
//! other. [`Topology`] describes that layout and [`NetworkModel`] assigns a
//! latency model to each pair of nodes based on their relative location.

use crate::clock::SimTime;
use crate::latency::Latency;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Identifier of a storage node within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index as a usize, for indexing per-node vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The physical location of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Datacenter index.
    pub dc: u16,
    /// Rack index within the datacenter.
    pub rack: u16,
}

/// Relative distance class between two nodes, used to pick a latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proximity {
    /// The same physical node (loopback).
    SameNode,
    /// Different nodes in the same rack.
    SameRack,
    /// Different racks within the same datacenter.
    SameDc,
    /// Different datacenters.
    CrossDc,
}

/// The layout of a storage cluster.
#[derive(Debug, Clone)]
pub struct Topology {
    locations: Vec<Location>,
}

impl Topology {
    /// Builds a topology from an explicit list of node locations. Node `i`
    /// gets [`NodeId`] `i`.
    pub fn new(locations: Vec<Location>) -> Self {
        Topology { locations }
    }

    /// Builds a single-datacenter topology with `racks` racks of
    /// `nodes_per_rack` nodes each.
    pub fn single_dc(racks: u16, nodes_per_rack: u16) -> Self {
        let mut locations = Vec::new();
        for rack in 0..racks {
            for _ in 0..nodes_per_rack {
                locations.push(Location { dc: 0, rack });
            }
        }
        Topology { locations }
    }

    /// Builds a multi-datacenter topology: `dcs` datacenters, each with
    /// `racks_per_dc` racks of `nodes_per_rack` nodes.
    pub fn multi_dc(dcs: u16, racks_per_dc: u16, nodes_per_rack: u16) -> Self {
        let mut locations = Vec::new();
        for dc in 0..dcs {
            for rack in 0..racks_per_dc {
                for _ in 0..nodes_per_rack {
                    locations.push(Location { dc, rack });
                }
            }
        }
        Topology { locations }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Appends a node at `location`, returning its [`NodeId`]. Existing ids
    /// are stable — elastic membership only ever grows the id space (a
    /// decommissioned node keeps its slot), so per-node vectors indexed by
    /// `NodeId` stay valid across joins.
    pub fn push(&mut self, location: Location) -> NodeId {
        let id = NodeId(self.locations.len() as u32);
        self.locations.push(location);
        id
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// All node identifiers, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.locations.len() as u32).map(NodeId)
    }

    /// The location of a node.
    pub fn location(&self, node: NodeId) -> Location {
        self.locations[node.index()]
    }

    /// The proximity class between two nodes.
    pub fn proximity(&self, a: NodeId, b: NodeId) -> Proximity {
        if a == b {
            return Proximity::SameNode;
        }
        let la = self.location(a);
        let lb = self.location(b);
        if la.dc != lb.dc {
            Proximity::CrossDc
        } else if la.rack != lb.rack {
            Proximity::SameDc
        } else {
            Proximity::SameRack
        }
    }

    /// Distinct datacenter indices present in the topology.
    pub fn datacenters(&self) -> Vec<u16> {
        let mut dcs: Vec<u16> = self.locations.iter().map(|l| l.dc).collect();
        dcs.sort_unstable();
        dcs.dedup();
        dcs
    }

    /// Distinct (dc, rack) pairs present in the topology.
    pub fn racks(&self) -> Vec<(u16, u16)> {
        let mut racks: Vec<(u16, u16)> = self.locations.iter().map(|l| (l.dc, l.rack)).collect();
        racks.sort_unstable();
        racks.dedup();
        racks
    }
}

/// Latency models per proximity class, forming the cluster network model.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Loopback latency (coordinator reading its own replica).
    pub same_node: Latency,
    /// Latency between nodes in the same rack.
    pub same_rack: Latency,
    /// Latency between racks in the same datacenter.
    pub same_dc: Latency,
    /// Latency between datacenters.
    pub cross_dc: Latency,
}

impl NetworkModel {
    /// A uniform network where every pair sees the same latency model
    /// (loopback is 5% of it).
    pub fn uniform(model: Latency) -> Self {
        NetworkModel {
            same_node: model.clone().scaled(0.05),
            same_rack: model.clone(),
            same_dc: model.clone(),
            cross_dc: model,
        }
    }

    /// The latency model for a proximity class.
    pub fn model_for(&self, prox: Proximity) -> &Latency {
        match prox {
            Proximity::SameNode => &self.same_node,
            Proximity::SameRack => &self.same_rack,
            Proximity::SameDc => &self.same_dc,
            Proximity::CrossDc => &self.cross_dc,
        }
    }

    /// Samples a one-way latency between nodes `a` and `b` of `topology`.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        topology: &Topology,
        a: NodeId,
        b: NodeId,
        rng: &mut R,
    ) -> SimTime {
        self.model_for(topology.proximity(a, b)).sample(rng)
    }

    /// The mean one-way latency between nodes `a` and `b` in milliseconds.
    pub fn mean_ms(&self, topology: &Topology, a: NodeId, b: NodeId) -> f64 {
        self.model_for(topology.proximity(a, b)).mean_ms()
    }

    /// The mean inter-node latency averaged over all ordered pairs of distinct
    /// nodes, in milliseconds. This is the quantity the paper's monitoring
    /// module approximates with `ping`.
    pub fn mean_pairwise_ms(&self, topology: &Topology) -> f64 {
        let n = topology.len();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for a in topology.nodes() {
            for b in topology.nodes() {
                if a != b {
                    total += self.mean_ms(topology, a, b);
                    count += 1;
                }
            }
        }
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_dc_layout() {
        let t = Topology::single_dc(2, 3);
        assert_eq!(t.len(), 6);
        assert_eq!(t.datacenters(), vec![0]);
        assert_eq!(t.racks(), vec![(0, 0), (0, 1)]);
        assert_eq!(t.location(NodeId(0)).rack, 0);
        assert_eq!(t.location(NodeId(5)).rack, 1);
    }

    #[test]
    fn multi_dc_layout() {
        let t = Topology::multi_dc(2, 2, 2);
        assert_eq!(t.len(), 8);
        assert_eq!(t.datacenters(), vec![0, 1]);
        assert_eq!(t.racks().len(), 4);
    }

    #[test]
    fn proximity_classes() {
        let t = Topology::multi_dc(2, 2, 2);
        // nodes 0,1 same rack; 0,2 same dc; 0,4 cross dc
        assert_eq!(t.proximity(NodeId(0), NodeId(0)), Proximity::SameNode);
        assert_eq!(t.proximity(NodeId(0), NodeId(1)), Proximity::SameRack);
        assert_eq!(t.proximity(NodeId(0), NodeId(2)), Proximity::SameDc);
        assert_eq!(t.proximity(NodeId(0), NodeId(4)), Proximity::CrossDc);
    }

    #[test]
    fn network_model_selects_by_proximity() {
        let t = Topology::multi_dc(2, 2, 2);
        let net = NetworkModel {
            same_node: Latency::constant_ms(0.01),
            same_rack: Latency::constant_ms(0.2),
            same_dc: Latency::constant_ms(0.5),
            cross_dc: Latency::constant_ms(5.0),
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            net.sample(&t, NodeId(0), NodeId(1), &mut rng),
            SimTime::from_millis_f64(0.2)
        );
        assert_eq!(net.mean_ms(&t, NodeId(0), NodeId(4)), 5.0);
    }

    #[test]
    fn uniform_network_is_uniform() {
        let t = Topology::single_dc(2, 2);
        let net = NetworkModel::uniform(Latency::constant_ms(1.0));
        assert_eq!(net.mean_ms(&t, NodeId(0), NodeId(3)), 1.0);
        assert!((net.mean_pairwise_ms(&t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_pairwise_empty_and_singleton() {
        let net = NetworkModel::uniform(Latency::constant_ms(1.0));
        assert_eq!(net.mean_pairwise_ms(&Topology::new(vec![])), 0.0);
        assert_eq!(
            net.mean_pairwise_ms(&Topology::new(vec![Location { dc: 0, rack: 0 }])),
            0.0
        );
    }

    #[test]
    fn node_ids_enumerate_in_order() {
        let t = Topology::single_dc(1, 4);
        let ids: Vec<u32> = t.nodes().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
