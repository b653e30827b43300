//! Cluster-level configuration of the replicated store.

use crate::engine::EngineConfig;
use crate::placement::ReplicationStrategy;

/// Configuration of a [`crate::cluster::Cluster`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Replication factor `N` (the paper uses 5 on both testbeds).
    pub replication_factor: usize,
    /// Replica placement strategy (the paper uses the rack/DC-aware one).
    pub strategy: ReplicationStrategy,
    /// Virtual nodes per physical node on the token ring.
    pub vnodes_per_node: usize,
    /// Probability that a read additionally triggers background read repair
    /// towards the replicas that were *not* contacted (Cassandra's
    /// `read_repair_chance`).
    pub background_read_repair_chance: f64,
    /// Per-node storage engine configuration.
    pub engine: EngineConfig,
    /// Maximum concurrent replica operations per node (worker threads).
    pub node_concurrency: usize,
    /// Mean replica service time for a read, in milliseconds.
    pub read_service_ms: f64,
    /// Mean replica service time for a write, in milliseconds.
    pub write_service_ms: f64,
    /// Erlang shape `k` of the write service-time distribution: samples are
    /// the sum of `k` exponentials (squared coefficient of variation `1/k`).
    /// 1 = exponential service (the historical behaviour), larger values
    /// approach deterministic service and calmer queues.
    pub write_service_shape: u32,
    /// Per-node multipliers on the mean service times (both stages); an empty
    /// vector means every node is identical. A factor above 1 models a
    /// straggler whose write stage saturates first — the heterogeneity that
    /// makes the saturation regime of Figure 5(c)/(d) reproducible in-sim.
    pub node_service_factors: Vec<f64>,
    /// Extra one-way latency between the client and the coordinator, in
    /// milliseconds (clients run on separate machines/VMs in both testbeds).
    pub client_latency_ms: f64,
    /// Period of the background anti-entropy repair rounds, in seconds.
    /// `0.0` (the default) disables the subsystem entirely: no timer is
    /// armed, no digest is computed, no event or RNG draw happens — a
    /// disabled cluster is byte-identical to one built before the subsystem
    /// existed. Runners arm the protocol timer from this knob.
    pub anti_entropy_interval_secs: f64,
    /// Maximum hinted mutations retained per (origin, destination) pair.
    /// When an origin exceeds the cap for one destination its *oldest* hint
    /// is evicted (counted in [`crate::cluster::ClusterTotals::hints_evicted`])
    /// — last-write-wins row semantics make the newest mutation the one worth
    /// keeping, and anti-entropy closes whatever the eviction lost. `0` (the
    /// default) means unbounded, the pre-cap behaviour.
    pub hint_cap_per_origin: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            replication_factor: 5,
            strategy: ReplicationStrategy::NetworkTopology,
            vnodes_per_node: 16,
            background_read_repair_chance: 0.1,
            engine: EngineConfig,
            node_concurrency: 4,
            read_service_ms: 0.35,
            write_service_ms: 0.25,
            write_service_shape: 1,
            node_service_factors: Vec::new(),
            client_latency_ms: 0.25,
            anti_entropy_interval_secs: 0.0,
            hint_cap_per_origin: 0,
        }
    }
}

impl StoreConfig {
    /// The quorum size for this configuration: `(RF / 2) + 1`.
    pub fn quorum(&self) -> usize {
        self.replication_factor / 2 + 1
    }

    /// Validates the configuration, returning a human-readable error for the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.replication_factor == 0 {
            return Err("replication_factor must be at least 1".into());
        }
        if self.replication_factor > crate::placement::MAX_RF {
            return Err(format!(
                "replication_factor must be at most {} (the inline replica-set bound)",
                crate::placement::MAX_RF
            ));
        }
        if self.vnodes_per_node == 0 {
            return Err("vnodes_per_node must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.background_read_repair_chance) {
            return Err("background_read_repair_chance must be within [0, 1]".into());
        }
        if self.node_concurrency == 0 {
            return Err("node_concurrency must be at least 1".into());
        }
        if !finite_non_negative(self.read_service_ms) || !finite_non_negative(self.write_service_ms)
        {
            return Err("service times must be finite and non-negative".into());
        }
        if self.write_service_shape == 0 {
            return Err("write_service_shape must be at least 1".into());
        }
        if !self
            .node_service_factors
            .iter()
            .all(|f| finite_non_negative(*f))
        {
            return Err("node_service_factors must be finite and non-negative".into());
        }
        if !finite_non_negative(self.client_latency_ms) {
            return Err("client_latency_ms must be finite and non-negative".into());
        }
        if !finite_non_negative(self.anti_entropy_interval_secs) {
            return Err("anti_entropy_interval_secs must be finite and non-negative".into());
        }
        Ok(())
    }
}

/// `true` for a finite value `>= 0`; NaN and ±∞ fail (the service and
/// latency samplers would otherwise run them as zero).
fn finite_non_negative(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper_settings() {
        let c = StoreConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.replication_factor, 5);
        assert_eq!(c.quorum(), 3);
        assert_eq!(c.strategy, ReplicationStrategy::NetworkTopology);
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = StoreConfig {
            replication_factor: 0,
            ..StoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StoreConfig {
            vnodes_per_node: 0,
            ..StoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StoreConfig {
            background_read_repair_chance: 1.5,
            ..StoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StoreConfig {
            node_concurrency: 0,
            ..StoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StoreConfig {
            read_service_ms: -1.0,
            ..StoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StoreConfig {
            write_service_shape: 0,
            ..StoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StoreConfig {
            node_service_factors: vec![1.0, -0.5],
            ..StoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StoreConfig {
            client_latency_ms: -0.1,
            ..StoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StoreConfig {
            anti_entropy_interval_secs: -1.0,
            ..StoreConfig::default()
        };
        assert!(c.validate().is_err());

        let c = StoreConfig {
            anti_entropy_interval_secs: f64::NAN,
            ..StoreConfig::default()
        };
        assert!(c.validate().is_err());

        // Infinite and NaN times would otherwise run as zero-cost service.
        for bad in [f64::INFINITY, f64::NAN] {
            for c in [
                StoreConfig {
                    read_service_ms: bad,
                    ..StoreConfig::default()
                },
                StoreConfig {
                    write_service_ms: bad,
                    ..StoreConfig::default()
                },
                StoreConfig {
                    client_latency_ms: bad,
                    ..StoreConfig::default()
                },
                StoreConfig {
                    node_service_factors: vec![1.0, bad],
                    ..StoreConfig::default()
                },
            ] {
                assert!(c.validate().is_err());
            }
        }
    }

    #[test]
    fn self_healing_knobs_default_to_disabled() {
        let c = StoreConfig::default();
        assert_eq!(c.anti_entropy_interval_secs, 0.0);
        assert_eq!(c.hint_cap_per_origin, 0);
    }

    #[test]
    fn quorum_for_various_rf() {
        let mut c = StoreConfig::default();
        for (rf, q) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (7, 4)] {
            c.replication_factor = rf;
            assert_eq!(c.quorum(), q);
        }
    }
}
