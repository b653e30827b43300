//! Ready-made cluster profiles reproducing the paper's two evaluation platforms.
//!
//! * **Grid'5000** (§V.C): two clusters at the Sophia site, 84 physical nodes,
//!   Gigabit Ethernet — low and stable latency. We model it as two racks in a
//!   single datacenter with sub-millisecond LAN latencies.
//! * **Amazon EC2** (§V.C): 20 Large instances in one availability zone —
//!   the paper reports inter-node latency roughly five times higher than
//!   Grid'5000 in the normal case, with substantial variability (Figure 4b).
//!   We model it as a virtualised network with log-normal latencies and
//!   occasional multiplicative spikes.
//!
//! Both profiles default to replication factor 5 and a scaled-down node count
//! of 20 (the figure shapes depend on latency and access rates, not on the raw
//! host count; the full 84-node Grid'5000 layout is available via
//! [`grid5000_full`]).

use crate::latency::Latency;
use crate::topology::{NetworkModel, Topology};

/// A named experimental platform: topology plus network behaviour plus the
/// replication settings the paper used on it.
#[derive(Debug, Clone)]
pub struct ClusterProfile {
    /// Human-readable platform name.
    pub name: String,
    /// Node layout (datacenters / racks / nodes).
    pub topology: Topology,
    /// Pairwise latency behaviour.
    pub network: NetworkModel,
    /// Replication factor used by the paper on this platform (5 on both).
    pub replication_factor: usize,
    /// The two Harmony tolerated-stale-read settings the paper evaluates on
    /// this platform, as fractions (e.g. 0.20 and 0.40 for Grid'5000).
    pub harmony_settings: [f64; 2],
}

impl ClusterProfile {
    /// Number of storage nodes in the profile.
    pub fn node_count(&self) -> usize {
        self.topology.len()
    }

    /// Mean pairwise network latency in milliseconds (the `Ln` the monitor
    /// would observe in steady state).
    pub fn mean_latency_ms(&self) -> f64 {
        self.network.mean_pairwise_ms(&self.topology)
    }
}

/// The scaled Grid'5000 profile used by the experiment harness:
/// 20 nodes over two racks, Gigabit-Ethernet-class latencies.
pub fn grid5000() -> ClusterProfile {
    grid5000_with_nodes(20)
}

/// The full-size Grid'5000 Sophia deployment (84 nodes over two clusters).
pub fn grid5000_full() -> ClusterProfile {
    grid5000_with_nodes(84)
}

/// Grid'5000 profile with an explicit node count (split over two racks).
pub fn grid5000_with_nodes(nodes: usize) -> ClusterProfile {
    let per_rack = nodes.div_ceil(2).max(1) as u16;
    let topology = Topology::single_dc(2, per_rack);
    // Gigabit Ethernet LAN: ~0.15 ms in-rack, ~0.3 ms across racks, small jitter.
    let network = NetworkModel {
        same_node: Latency::constant_ms(0.02),
        same_rack: Latency::normal_ms(0.15, 0.03),
        same_dc: Latency::normal_ms(0.30, 0.06),
        cross_dc: Latency::normal_ms(0.30, 0.06),
    };
    ClusterProfile {
        name: "grid5000".to_string(),
        topology,
        network,
        replication_factor: 5,
        harmony_settings: [0.20, 0.40],
    }
}

/// The Amazon EC2 profile: 20 Large instances, virtualised network with a mean
/// roughly 5x the Grid'5000 latency, heavy-tailed with occasional spikes.
pub fn ec2() -> ClusterProfile {
    ec2_with_nodes(20)
}

/// EC2 profile with an explicit instance count.
pub fn ec2_with_nodes(nodes: usize) -> ClusterProfile {
    let topology = Topology::single_dc(1, nodes.max(1) as u16);
    // Virtualised network: log-normal body around ~1.2-1.5 ms with spikes that
    // occasionally reach tens of milliseconds (Figure 4b sweeps 0-50 ms).
    let base = Latency::lognormal_ms(1.1, 0.45);
    let network = NetworkModel {
        same_node: Latency::constant_ms(0.05),
        same_rack: base.clone().with_spikes(0.03, 25.0),
        same_dc: base.clone().with_spikes(0.03, 25.0),
        cross_dc: base.with_spikes(0.03, 25.0),
    };
    ClusterProfile {
        name: "ec2".to_string(),
        topology,
        network,
        replication_factor: 5,
        harmony_settings: [0.40, 0.60],
    }
}

/// A geo-replicated profile: two datacenters of two racks each, with WAN
/// latency between them. This is the profile that actually exercises
/// [`Topology::multi_dc`] and the [`crate::topology::Proximity::CrossDc`]
/// class of the network model — in-rack and in-DC latencies match the
/// Grid'5000 LAN, while the inter-DC links sit at tens of milliseconds with
/// jitter (a metro/regional WAN), so cross-DC propagation dominates the
/// staleness window the controller watches.
pub fn multi_dc() -> ClusterProfile {
    multi_dc_with(2, 2, 5)
}

/// [`multi_dc`] with explicit shape: `dcs` datacenters × `racks_per_dc`
/// racks × `nodes_per_rack` nodes.
pub fn multi_dc_with(dcs: u16, racks_per_dc: u16, nodes_per_rack: u16) -> ClusterProfile {
    let topology = Topology::multi_dc(dcs.max(1), racks_per_dc.max(1), nodes_per_rack.max(1));
    let network = NetworkModel {
        same_node: Latency::constant_ms(0.02),
        same_rack: Latency::normal_ms(0.15, 0.03),
        same_dc: Latency::normal_ms(0.35, 0.07),
        // Regional WAN: ~12 ms one way with visible jitter.
        cross_dc: Latency::normal_ms(12.0, 2.0),
    };
    ClusterProfile {
        name: "multi-dc".to_string(),
        topology,
        network,
        replication_factor: 5,
        // Cross-DC windows are long; the paper-style tolerances for a
        // high-latency platform (the EC2 settings) apply.
        harmony_settings: [0.40, 0.60],
    }
}

/// Looks up a profile by name (`"grid5000"`, `"grid5000-full"`, `"ec2"` or
/// `"multi-dc"`).
pub fn by_name(name: &str) -> Option<ClusterProfile> {
    match name {
        "grid5000" => Some(grid5000()),
        "grid5000-full" => Some(grid5000_full()),
        "ec2" => Some(ec2()),
        "multi-dc" => Some(multi_dc()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid5000_shape() {
        let p = grid5000();
        assert_eq!(p.node_count(), 20);
        assert_eq!(p.replication_factor, 5);
        assert_eq!(p.topology.racks().len(), 2);
        assert!(p.mean_latency_ms() < 0.5);
        assert_eq!(p.harmony_settings, [0.20, 0.40]);
    }

    #[test]
    fn grid5000_full_has_84_nodes() {
        assert_eq!(grid5000_full().node_count(), 84);
    }

    #[test]
    fn ec2_shape() {
        let p = ec2();
        assert_eq!(p.node_count(), 20);
        assert_eq!(p.replication_factor, 5);
        assert_eq!(p.harmony_settings, [0.40, 0.60]);
    }

    #[test]
    fn ec2_latency_is_about_5x_grid5000() {
        // The paper reports EC2 latency roughly 5x Grid'5000 in the normal case.
        let ratio = ec2().mean_latency_ms() / grid5000().mean_latency_ms();
        assert!(ratio > 3.0 && ratio < 10.0, "ratio = {ratio}");
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("grid5000").is_some());
        assert!(by_name("grid5000-full").is_some());
        assert!(by_name("ec2").is_some());
        assert!(by_name("multi-dc").is_some());
        assert!(by_name("azure").is_none());
    }

    #[test]
    fn multi_dc_profile_exercises_cross_dc_proximity() {
        use crate::topology::{NodeId, Proximity};
        let p = multi_dc();
        assert_eq!(p.node_count(), 20);
        assert_eq!(p.topology.datacenters(), vec![0, 1]);
        assert_eq!(p.topology.racks().len(), 4);
        // Node 0 (dc0) and node 10 (dc1) are CrossDc and see WAN latency.
        let far = NodeId(10);
        assert_eq!(p.topology.proximity(NodeId(0), far), Proximity::CrossDc);
        let wan = p.network.mean_ms(&p.topology, NodeId(0), far);
        let lan = p.network.mean_ms(&p.topology, NodeId(0), NodeId(1));
        assert!(wan > 20.0 * lan, "wan {wan} ms vs lan {lan} ms");
        // The pairwise mean is dominated by the cross-DC links.
        assert!(p.mean_latency_ms() > 5.0);
        assert_eq!(multi_dc_with(3, 1, 2).node_count(), 6);
    }

    #[test]
    fn custom_node_counts() {
        assert_eq!(grid5000_with_nodes(10).node_count(), 10);
        assert_eq!(ec2_with_nodes(7).node_count(), 7);
        assert_eq!(grid5000_with_nodes(0).node_count(), 2); // clamped to 1 per rack
    }
}
