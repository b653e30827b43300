//! The probing interface between the monitor and the storage system.
//!
//! The monitor needs two signals: cumulative read/write counters and a sample
//! of pairwise network latency. The discrete-event [`Cluster`], the sharded
//! runner's merged view of its shards and the mocks in tests expose them
//! through [`ClusterProbe`].
//!
//! Per-key signals travel as interned [`KeyId`]s: the write-key sample
//! stream and the per-key backlog probe move 4-byte `Copy` ids, and
//! [`ClusterProbe::key_name`] resolves an id back to its human-readable name
//! only where a report needs one (hot-set decisions, sweep tables).

use harmony_sim::clock::SimTime;
use harmony_store::cluster::Cluster;
use harmony_store::keys::KeyId;
use harmony_store::node::WriteStageTelemetry;

/// A source of monitoring signals.
pub trait ClusterProbe {
    /// Cumulative replica read operations served across the cluster
    /// (the `nodetool` read-count analogue).
    fn total_reads(&self) -> u64;
    /// Cumulative replica write operations applied across the cluster
    /// (client writes only; repair traffic is excluded, as repairs do not
    /// represent application updates).
    fn total_writes(&self) -> u64;
    /// Mean inter-node latency in milliseconds as observed by a probe sweep
    /// (the `ping` analogue).
    fn probe_latency_ms(&self) -> f64;
    /// Number of storage nodes (used to account for sweep duration).
    fn node_count(&self) -> usize;
    /// Number of nodes currently *serving* traffic. Dead or decommissioned
    /// replicas produce no telemetry, and "no telemetry" must not read as "a
    /// 0.0 rate": per-replica normalisations divide by this count, not by
    /// [`ClusterProbe::node_count`], so a silent node cannot drag the
    /// cluster estimate down. Backends without a liveness signal report the
    /// full node count.
    fn live_node_count(&self) -> usize {
        self.node_count()
    }
    /// Mean mutation-stage backlog per node, expressed as the expected extra
    /// milliseconds a replica write waits before being applied (the
    /// `nodetool tpstats` pending-MutationStage analogue). Near saturation
    /// this queueing delay dominates the propagation time; backends that
    /// cannot measure it report zero and the estimate falls back to the pure
    /// network model.
    fn mutation_backlog_ms(&self) -> f64 {
        0.0
    }
    /// Per-node mutation-stage backlog in milliseconds (one entry per node).
    /// The *dispersion* of these values across replicas is the queue-wait
    /// spread signal of the queueing-aware staleness model; backends that can
    /// only measure the aggregate report an empty vector and the model
    /// degrades to the scalar backlog.
    fn replica_backlog_ms(&self) -> Vec<f64> {
        Vec::new()
    }
    /// Cumulative write-stage telemetry per node (arrivals, completions,
    /// accumulated sampled service times). The monitor turns deltas of these
    /// counters into per-replica arrival rates and the measured service-time
    /// mean/SCV the M/G/1 model consumes. Backends that cannot measure it
    /// report an empty vector.
    fn write_stage_telemetry(&self) -> Vec<WriteStageTelemetry> {
        Vec::new()
    }
    /// Per-node mutation-stage service concurrency (worker slots). Used to
    /// normalise measured service times into effective per-slot-group values.
    fn write_stage_concurrency(&self) -> usize {
        1
    }
    /// Drains the keys of client writes observed since the previous sweep —
    /// the sample stream feeding the monitor's heavy-hitter sketch. Backends
    /// that cannot observe per-key writes report an empty batch and the
    /// per-key staleness layer degrades to the global model.
    fn drain_write_key_samples(&self) -> Vec<KeyId> {
        Vec::new()
    }
    /// Pre-built cumulative heavy-hitter sketches, one per shard, for
    /// backends that shard the key space across event loops and count write
    /// keys locally. When this returns `Some`, the monitor folds the shard
    /// sketches into one cluster sketch (mergeable-summaries rule) instead
    /// of consuming the raw sample stream; key ids inside the sketches must
    /// already be in the backend's *global* id space. Single-loop backends
    /// keep the default `None` and the sample-stream path is used,
    /// byte-identically to before sharding existed.
    fn write_key_sketches(&self) -> Option<Vec<crate::heavy_hitters::SpaceSavingSketch>> {
        None
    }
    /// Per-key mutation backlog (milliseconds) for the given keys: the
    /// deepest per-replica pending-mutation backlog of each key, i.e. how far
    /// the laggard replica of that key is behind. Must return one entry per
    /// requested key; backends without the signal report zeros.
    fn per_key_backlog_ms(&self, keys: &[KeyId]) -> Vec<f64> {
        vec![0.0; keys.len()]
    }
    /// The human-readable name behind an interned key id, for reports and
    /// hot-set decisions. Backends without a key table fall back to a
    /// positional name.
    fn key_name(&self, key: KeyId) -> String {
        format!("key#{}", key.0)
    }
    /// A counter that advances whenever the cluster topology or fault state
    /// changes (crash, restart, partition, heal, slowdown, join,
    /// decommission). The monitor segments its trend histories on any change:
    /// a membership event shifts the backlog baseline, so a slope spanning
    /// the rebuild is spurious and must not feed the divergence detector.
    /// Backends without a fault layer report a constant and trends are never
    /// segmented.
    fn fault_epoch(&self) -> u64 {
        0
    }
    /// Has no caller and no implementation beyond this empty default. It
    /// stays only because the benchmark driver forwards every method of this
    /// trait; it goes with that forward at the next change to the benchmark.
    fn node_suspicions(&self, _now: SimTime) -> Vec<f64> {
        Vec::new()
    }
}

impl ClusterProbe for Cluster {
    fn total_reads(&self) -> u64 {
        // Count client-visible reads, not per-replica fan-out: the model's λr
        // is the application's read arrival rate.
        self.totals().reads_completed
    }

    fn total_writes(&self) -> u64 {
        self.totals().writes_completed
    }

    fn probe_latency_ms(&self) -> f64 {
        // A ping-style sweep over a few random pairs: fluctuates sweep to
        // sweep, so latency spikes are visible to the controller.
        self.probe_network_latency_ms(8)
    }

    fn node_count(&self) -> usize {
        Cluster::node_count(self)
    }

    fn live_node_count(&self) -> usize {
        Cluster::live_node_count(self)
    }

    fn mutation_backlog_ms(&self) -> f64 {
        Cluster::mutation_backlog_ms(self)
    }

    fn replica_backlog_ms(&self) -> Vec<f64> {
        Cluster::replica_backlog_ms(self)
    }

    fn write_stage_telemetry(&self) -> Vec<WriteStageTelemetry> {
        Cluster::write_stage_telemetry(self)
    }

    fn write_stage_concurrency(&self) -> usize {
        self.config().node_concurrency
    }

    fn drain_write_key_samples(&self) -> Vec<KeyId> {
        Cluster::drain_write_key_samples(self)
    }

    fn per_key_backlog_ms(&self, keys: &[KeyId]) -> Vec<f64> {
        Cluster::per_key_backlog_ms(self, keys)
    }

    fn key_name(&self, key: KeyId) -> String {
        Cluster::key_name(self, key).to_string()
    }

    fn fault_epoch(&self) -> u64 {
        self.fault_state().counters().total()
    }
}

/// A scripted probe for unit tests and offline model exploration. Carries
/// its own key interner so tests keep scripting with readable names while
/// the probe surface speaks [`KeyId`].
#[derive(Debug, Clone, Default)]
pub struct MockProbe {
    /// Cumulative reads to report.
    pub reads: u64,
    /// Cumulative writes to report.
    pub writes: u64,
    /// Latency to report (ms).
    pub latency_ms: f64,
    /// Node count to report.
    pub nodes: usize,
    /// Serving-node count to report; `None` means every node is live.
    pub live_nodes: Option<usize>,
    /// Mutation backlog to report (ms).
    pub backlog_ms: f64,
    /// Per-node backlogs to report (ms); empty = not measured.
    pub replica_backlogs: Vec<f64>,
    /// Per-node write-stage telemetry to report; empty = not measured.
    pub write_telemetry: Vec<WriteStageTelemetry>,
    /// Write-stage concurrency to report (0 is treated as 1).
    pub write_concurrency: usize,
    /// Write-key samples handed out (and cleared) by the next drain call.
    pub write_keys: std::cell::RefCell<Vec<KeyId>>,
    /// Scripted per-key backlogs (ms), by key name; absent keys report zero.
    pub key_backlogs: std::collections::HashMap<String, f64>,
    /// Scripted fault epoch; bump it to simulate a topology change.
    pub epoch: u64,
    /// Scripted per-shard cumulative sketches; `Some` switches the monitor
    /// onto the sharded sketch-merge path instead of the sample drain.
    pub sketches: Option<Vec<crate::heavy_hitters::SpaceSavingSketch>>,
    /// The interner backing the scripted key names.
    pub table: std::cell::RefCell<harmony_store::keys::KeyTable>,
}

impl MockProbe {
    /// Interns a scripted key name (idempotent), returning its id.
    pub fn intern(&self, name: &str) -> KeyId {
        self.table.borrow_mut().intern(name)
    }

    /// Replaces the pending write-key samples with the given names.
    pub fn set_write_keys<S: AsRef<str>>(&self, names: &[S]) {
        let ids: Vec<KeyId> = names.iter().map(|n| self.intern(n.as_ref())).collect();
        *self.write_keys.borrow_mut() = ids;
    }
}

impl ClusterProbe for MockProbe {
    fn total_reads(&self) -> u64 {
        self.reads
    }
    fn total_writes(&self) -> u64 {
        self.writes
    }
    fn probe_latency_ms(&self) -> f64 {
        self.latency_ms
    }
    fn node_count(&self) -> usize {
        self.nodes
    }
    fn live_node_count(&self) -> usize {
        self.live_nodes.unwrap_or(self.nodes)
    }
    fn mutation_backlog_ms(&self) -> f64 {
        self.backlog_ms
    }
    fn replica_backlog_ms(&self) -> Vec<f64> {
        self.replica_backlogs.clone()
    }
    fn write_stage_telemetry(&self) -> Vec<WriteStageTelemetry> {
        self.write_telemetry.clone()
    }
    fn write_stage_concurrency(&self) -> usize {
        self.write_concurrency.max(1)
    }
    fn drain_write_key_samples(&self) -> Vec<KeyId> {
        std::mem::take(&mut *self.write_keys.borrow_mut())
    }
    fn write_key_sketches(&self) -> Option<Vec<crate::heavy_hitters::SpaceSavingSketch>> {
        self.sketches.clone()
    }
    fn per_key_backlog_ms(&self, keys: &[KeyId]) -> Vec<f64> {
        let table = self.table.borrow();
        keys.iter()
            .map(|k| {
                table
                    .try_resolve(*k)
                    .and_then(|name| self.key_backlogs.get(name).copied())
                    .unwrap_or(0.0)
            })
            .collect()
    }
    fn key_name(&self, key: KeyId) -> String {
        self.table
            .borrow()
            .try_resolve(key)
            .map(str::to_string)
            .unwrap_or_else(|| format!("key#{}", key.0))
    }
    fn fault_epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_sim::latency::Latency;
    use harmony_sim::rng::RngFactory;
    use harmony_sim::topology::{NetworkModel, Topology};
    use harmony_store::config::StoreConfig;

    #[test]
    fn mock_probe_reports_scripted_values() {
        let p = MockProbe {
            reads: 10,
            writes: 20,
            latency_ms: 1.5,
            nodes: 4,
            backlog_ms: 0.0,
            ..MockProbe::default()
        };
        assert_eq!(p.total_reads(), 10);
        assert_eq!(p.total_writes(), 20);
        assert_eq!(p.probe_latency_ms(), 1.5);
        assert_eq!(p.node_count(), 4);
    }

    #[test]
    fn mock_probe_interns_and_resolves_names() {
        let p = MockProbe::default();
        p.set_write_keys(&["a", "b", "a"]);
        let drained = p.drain_write_key_samples();
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0], drained[2]);
        assert_eq!(p.key_name(drained[0]), "a");
        assert_eq!(p.key_name(drained[1]), "b");
        // Foreign ids fall back to a positional name.
        assert_eq!(p.key_name(KeyId(77)), "key#77");
        // Scripted backlogs resolve through the interner.
        let mut p = p;
        p.key_backlogs.insert("a".to_string(), 4.5);
        let a = p.intern("a");
        let b = p.intern("b");
        assert_eq!(p.per_key_backlog_ms(&[a, b]), vec![4.5, 0.0]);
    }

    #[test]
    fn cluster_probe_reflects_cluster_shape() {
        let topology = Topology::single_dc(1, 5);
        let network = NetworkModel::uniform(Latency::constant_ms(0.7));
        let cluster = Cluster::new(
            StoreConfig {
                replication_factor: 3,
                ..StoreConfig::default()
            },
            topology,
            network,
            RngFactory::new(1),
        );
        let probe: &dyn ClusterProbe = &cluster;
        assert_eq!(probe.node_count(), 5);
        assert_eq!(probe.total_reads(), 0);
        assert_eq!(probe.total_writes(), 0);
        assert!((probe.probe_latency_ms() - 0.7).abs() < 1e-9);
    }
}
