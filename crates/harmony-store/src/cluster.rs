//! The replicated cluster: coordinator logic, replica fan-out, asynchronous
//! propagation, read repair and ground-truth staleness accounting.
//!
//! The control flow reproduces Figure 1 of the paper. A client operation
//! reaches a coordinator node; the coordinator determines the replica set from
//! the token ring and the placement strategy, fans the request out, waits for
//! as many replies as the operation's consistency level requires, reconciles
//! responses by timestamp, answers the client, and asynchronously repairs
//! out-of-date replicas. Writes are always sent to *all* replicas but are
//! acknowledged to the client after the required count — the remaining
//! replicas converge asynchronously, which is exactly the propagation window
//! during which partial-quorum reads can return stale data.
//!
//! The per-operation path is allocation-free: keys are interned
//! ([`KeyId`], 4 bytes, `Copy`) so no `String` is ever cloned on the op
//! path; replica placement is memoised per ring range
//! ([`PlacementCache`]): each key keeps a 4-byte range index and each of
//! the ring's ranges one replica set, so a steady-state lookup is two array
//! loads instead of a ring walk, and a load walks the ring once per range
//! rather than once per key; and mutation/repair payloads are `Arc`-shared
//! across the replica fan-out so an RF = 3 write bumps a refcount three
//! times instead of deep-cloning a `BTreeMap` three times.

use crate::config::StoreConfig;
use crate::consistency::ConsistencyLevel;
use crate::hashring::HashRing;
use crate::keys::{KeyId, KeyTable};
use crate::messages::{Message, OpId, OpKind, StoreEvent};
use crate::node::{NodeCounters, Stage, StorageNode, WriteStageTelemetry};
use crate::optable::OpTable;
use crate::placement::{PlacementCache, ReplicaSet, MAX_RF};
use crate::types::{Mutation, Row, Timestamp};
use harmony_chaos::{FaultEvent, FaultState};
use harmony_obs::registry::{series_name, MetricsRegistry};
use harmony_obs::{FlightRecorder, OpTracer, SpanKind};
use harmony_sim::clock::SimTime;
use harmony_sim::context::EventCtx;
use harmony_sim::rng::RngFactory;
use harmony_sim::service::ServiceModel;
use harmony_sim::topology::{Location, NetworkModel, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::sync::Arc;

/// Guards a backlog value computed by the store's telemetry scans: a negative
/// backlog is a sign bug upstream (queue length, service mean and fault
/// factor are all non-negative quantities), so debug builds fail loudly here
/// — at the source — while release builds clamp and keep serving, matching
/// the `stale_probability_saturating` convention.
fn non_negative_backlog(ms: f64) -> f64 {
    debug_assert!(ms >= 0.0, "negative backlog computed by the store: {ms} ms");
    ms.max(0.0)
}

/// A finished client operation, reported when its reply reaches the client.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Operation id.
    pub op: OpId,
    /// Read or write.
    pub kind: OpKind,
    /// The (interned) key the operation touched.
    pub key: KeyId,
    /// When the client submitted the operation.
    pub submitted_at: SimTime,
    /// When the reply reached the client.
    pub completed_at: SimTime,
    /// The consistency level the operation ran at.
    pub consistency: ConsistencyLevel,
    /// How many replicas participated synchronously.
    pub replicas_contacted: usize,
    /// For reads: the reconciled row returned to the client (shared with
    /// any repair traffic of the same read, never deep-copied per replica).
    pub result: Option<Arc<Row>>,
    /// For reads: the newest timestamp in the returned row.
    pub returned_timestamp: Timestamp,
    /// For reads: the newest timestamp acknowledged to any client *before*
    /// this read was submitted (the freshness the read should have seen).
    pub expected_timestamp: Timestamp,
    /// For reads: ground-truth staleness (`returned < expected`).
    pub stale: bool,
    /// True if the operation failed instead of completing: no reachable
    /// replica (unavailable), its coordinator crashed, or it stalled past the
    /// chaos-mode timeout. Aborted completions carry no data and are counted
    /// separately from reads/writes. Always false on a healthy cluster.
    pub aborted: bool,
}

impl Completion {
    /// Operation latency as seen by the client.
    pub fn latency(&self) -> SimTime {
        self.completed_at.saturating_sub(self.submitted_at)
    }
}

/// Cluster-wide cumulative statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ClusterTotals {
    /// Reads submitted.
    pub reads_submitted: u64,
    /// Writes submitted.
    pub writes_submitted: u64,
    /// Reads completed (replied to the client).
    pub reads_completed: u64,
    /// Writes completed (replied to the client).
    pub writes_completed: u64,
    /// Completed reads that returned stale data (ground truth).
    pub stale_reads: u64,
    /// Repair messages issued (read repair + background repair).
    pub repairs_issued: u64,
    /// Operations aborted by faults (unavailable replica sets, coordinator
    /// crashes, chaos-mode stall timeouts). Zero on a healthy cluster.
    pub ops_aborted: u64,
    /// Messages that arrived somewhere they could not legally be handled
    /// (e.g. coordination traffic routed into a replica service slot, or a
    /// replica-work message surfacing on the coordination path after a
    /// membership change). These used to panic the whole run; under fault
    /// schedules they now degrade into a counted drop. Zero on a healthy
    /// cluster.
    pub protocol_drops: u64,
    /// Hinted mutations evicted by the per-origin hint cap
    /// ([`StoreConfig::hint_cap_per_origin`]). Zero while the cap is
    /// disabled or never exceeded.
    pub hints_evicted: u64,
    /// Anti-entropy rounds whose digest exchange was actually initiated
    /// (rounds skipped for lack of a reachable partner do not count).
    pub ae_rounds: u64,
    /// Rows streamed by anti-entropy repair (push and pull directions).
    pub ae_rows_streamed: u64,
}

impl ClusterTotals {
    /// Adds `other` field by field — how a sharded run merges its shards'
    /// totals. The destructuring is exhaustive, so a new field does not
    /// compile until it is merged here.
    pub fn absorb(&mut self, other: &ClusterTotals) {
        let ClusterTotals {
            reads_submitted,
            writes_submitted,
            reads_completed,
            writes_completed,
            stale_reads,
            repairs_issued,
            ops_aborted,
            protocol_drops,
            hints_evicted,
            ae_rounds,
            ae_rows_streamed,
        } = *other;
        self.reads_submitted += reads_submitted;
        self.writes_submitted += writes_submitted;
        self.reads_completed += reads_completed;
        self.writes_completed += writes_completed;
        self.stale_reads += stale_reads;
        self.repairs_issued += repairs_issued;
        self.ops_aborted += ops_aborted;
        self.protocol_drops += protocol_drops;
        self.hints_evicted += hints_evicted;
        self.ae_rounds += ae_rounds;
        self.ae_rows_streamed += ae_rows_streamed;
    }
}

/// Replica read responses collected inline (no per-read heap allocation):
/// at most [`MAX_RF`] `(replica, row)` pairs.
#[derive(Debug, Clone)]
struct ResponseSet {
    nodes: [NodeId; MAX_RF],
    rows: [Option<Arc<Row>>; MAX_RF],
    len: u8,
}

impl Default for ResponseSet {
    fn default() -> Self {
        ResponseSet {
            nodes: [NodeId(0); MAX_RF],
            rows: Default::default(),
            len: 0,
        }
    }
}

impl ResponseSet {
    fn push(&mut self, node: NodeId, row: Option<Arc<Row>>) {
        let i = self.len as usize;
        debug_assert!(i < MAX_RF, "more responses than replicas");
        self.nodes[i] = node;
        self.rows[i] = row;
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn iter(&self) -> impl Iterator<Item = (NodeId, Option<&Arc<Row>>)> {
        self.nodes[..self.len as usize]
            .iter()
            .zip(self.rows[..self.len as usize].iter())
            .map(|(n, r)| (*n, r.as_ref()))
    }
}

#[derive(Debug, Clone)]
struct ReadProgress {
    contacted: ReplicaSet,
    replica_set: ReplicaSet,
    responses: ResponseSet,
    expected_ts: Timestamp,
}

#[derive(Debug, Clone)]
struct WriteProgress {
    replica_count: usize,
    acks: usize,
    timestamp: Timestamp,
}

/// What the coordinator still expects from the replicas of one operation.
#[derive(Debug, Clone)]
enum Progress {
    Read(ReadProgress),
    Write(WriteProgress),
    /// Nothing more (all answered, or the reaper gave up on the stragglers):
    /// only the staged reply is left of the operation.
    Closed,
}

/// Everything the cluster tracks for one client operation, from submit until
/// both its replica traffic and its `ClientReply` are done.
#[derive(Debug, Clone)]
struct OpState {
    key: KeyId,
    coordinator: NodeId,
    submitted_at: SimTime,
    consistency: ConsistencyLevel,
    required: usize,
    /// The client's reply has been staged (it may already have fired).
    replied: bool,
    progress: Progress,
    /// The completion built at quorum close (or abort), held until its
    /// `ClientReply` event fires.
    staged: Option<Completion>,
}

/// The simulated replicated key-value store.
///
/// `Clone` is load-bearing: the `harmony-check` schedule explorer snapshots
/// the whole cluster (nodes, queues, pending operations, fault state) to
/// backtrack over alternative delivery orders and crash placements. Keep
/// every field cheaply and *independently* cloneable — no shared interior
/// mutability across clones.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: StoreConfig,
    topology: Topology,
    network: NetworkModel,
    ring: HashRing,
    nodes: Vec<StorageNode>,
    read_service: ServiceModel,
    write_service: ServiceModel,
    rng: StdRng,
    next_op: u64,
    last_timestamp: u64,
    /// The key interner: names in, 4-byte `Copy` ids out.
    key_table: KeyTable,
    /// Memoised per-key replica sets (flat, indexed by `KeyId`).
    placement: PlacementCache,
    /// Every operation in flight by id; walks are in ascending `OpId` order.
    ops: OpTable<OpState>,
    /// Newest acknowledged timestamp per key, indexed by `KeyId` (dense ids
    /// make this a flat array instead of a string-keyed map).
    latest_acked: Vec<Timestamp>,
    next_coordinator: usize,
    totals: ClusterTotals,
    probe_seed: u64,
    probe_count: std::cell::Cell<u64>,
    /// Keys of client writes since the last monitoring drain — the sample
    /// stream feeding the monitor's heavy-hitter sketch. Bounded so an
    /// unmonitored cluster cannot grow it without limit.
    write_key_samples: std::cell::RefCell<Vec<KeyId>>,
    /// Liveness, partition, slow-down and membership state driven by the
    /// fault schedule. A fresh state answers "healthy" everywhere, so a run
    /// that never applies a fault behaves byte-identically to one built
    /// before the chaos layer existed.
    faults: FaultState,
    /// Hinted handoff: mutations addressed to a node that was down or
    /// unreachable, stored per destination as `(origin, message)` and
    /// replayed into its write stage on restart or after a partition heals —
    /// but never *across* an active cut (a hint whose origin sits on the
    /// other side stays stored until the heal, like the coordinator-held
    /// hints it models).
    hints: Vec<Vec<(NodeId, Message)>>,
    /// `true` is the real protocol. `false` silently drops every mutation
    /// that should have been stored as a hint — an *intentionally buggy*
    /// mutant kept as a mutation-testing target for the `harmony-check`
    /// schedule explorer (see [`Cluster::set_hinted_handoff_enabled`]).
    hinted_handoff_enabled: bool,
    /// Join + decommission count at the moment the active partition was
    /// installed. The heal re-runs anti-entropy only when churn happened
    /// *during* the cut (streams that could not cross it); churn that
    /// completed before the partition already converged and must not be
    /// re-streamed at heal time — that would erase the post-heal staleness
    /// dynamics the partition scenarios measure.
    partition_churn_baseline: u64,
    /// Round-robin cursor of the periodic anti-entropy rounds: index of the
    /// node that initiates the next round, so every serving node takes turns
    /// offering its tables for repair. Never advances while the subsystem is
    /// idle (disabled runs stay byte-identical).
    ae_cursor: usize,
    /// Per-op tracing + flight recorder ([`harmony-obs`]). `None` (the
    /// default) reduces every hook to one branch, and the golden pins stay
    /// byte-identical. Boxed plain data, no `Arc` — a cloned cluster gets an
    /// independent copy, so checker backtracking stays sound.
    obs: Option<Box<ClusterObs>>,
}

/// The cluster-side tracing state: the live tracer plus the flight recorder
/// finished traces land in.
#[derive(Debug, Clone)]
pub struct ClusterObs {
    /// The sampled per-op tracer.
    pub tracer: OpTracer,
    /// Retained slowest/aborted traces.
    pub recorder: FlightRecorder,
}

/// Upper bound on buffered write-key samples between monitoring sweeps.
const WRITE_KEY_SAMPLE_CAP: usize = 1 << 16;

impl Cluster {
    /// Builds a cluster over `topology` with the given network behaviour.
    ///
    /// # Panics
    /// Panics if the topology is empty or the configuration is invalid.
    pub fn new(
        config: StoreConfig,
        topology: Topology,
        network: NetworkModel,
        rng_factory: RngFactory,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid store configuration: {e}"));
        assert!(!topology.is_empty(), "cluster needs at least one node");
        let ring = HashRing::new(topology.len(), config.vnodes_per_node);
        let nodes = topology
            .nodes()
            .map(|id| StorageNode::new(id, config.engine, config.node_concurrency))
            .collect();
        let read_service = ServiceModel::exponential_ms(config.read_service_ms)
            .with_node_factors(config.node_service_factors.clone());
        let write_service =
            ServiceModel::erlang_ms(config.write_service_ms, config.write_service_shape)
                .with_node_factors(config.node_service_factors.clone());
        let node_count = topology.len();
        Cluster {
            rng: rng_factory.stream("store-cluster"),
            config,
            topology,
            network,
            ring,
            nodes,
            faults: FaultState::new(node_count),
            hints: vec![Vec::new(); node_count],
            hinted_handoff_enabled: true,
            partition_churn_baseline: 0,
            ae_cursor: 0,
            read_service,
            write_service,
            next_op: 0,
            last_timestamp: 0,
            key_table: KeyTable::new(),
            placement: PlacementCache::new(),
            ops: OpTable::new(),
            latest_acked: Vec::new(),
            next_coordinator: 0,
            totals: ClusterTotals::default(),
            probe_seed: harmony_sim::rng::mix(rng_factory.seed(), 0x70726f6265), // "probe"
            probe_count: std::cell::Cell::new(0),
            write_key_samples: std::cell::RefCell::new(Vec::new()),
            obs: None,
        }
    }

    // ---- observability ----------------------------------------------------

    /// Enables sampled per-op tracing: every `sample_every`-th op gets a full
    /// causal timeline, and the flight recorder retains the `keep_slowest`
    /// slowest completed plus up to `abort_cap` aborted traces. Sampling is
    /// a deterministic op-id modulo — no RNG draw — so an enabled tracer
    /// never perturbs the simulation's random streams.
    pub fn enable_tracing(&mut self, sample_every: u64, keep_slowest: usize, abort_cap: usize) {
        self.obs = Some(Box::new(ClusterObs {
            tracer: OpTracer::new(sample_every),
            recorder: FlightRecorder::new(keep_slowest, abort_cap),
        }));
    }

    /// The tracing state, if tracing is enabled.
    pub fn obs(&self) -> Option<&ClusterObs> {
        self.obs.as_deref()
    }

    /// Detaches and returns the tracing state (tracing stops).
    pub fn take_obs(&mut self) -> Option<Box<ClusterObs>> {
        self.obs.take()
    }

    /// The current fault epoch: how many fault events have been applied.
    pub fn fault_epoch(&self) -> u64 {
        self.faults.counters().total()
    }

    /// Appends a client-side annotation (retry/hedge branch) to an op's
    /// trace. No-op unless tracing is enabled and the op is sampled — the
    /// experiment runner calls this for the protocol branches it drives.
    pub fn trace_note(
        &mut self,
        op: OpId,
        now: SimTime,
        kind: SpanKind,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(obs) = self.obs.as_mut() {
            if obs.tracer.samples(op.0) {
                obs.tracer.event(
                    op.0,
                    now.0 / 1_000,
                    harmony_obs::CLIENT_NODE,
                    kind,
                    detail(),
                );
            }
        }
    }

    /// Exports the cluster's protocol counters into a metrics registry
    /// (collect-on-scrape: nothing here runs during the simulation).
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        let t = &self.totals;
        for (name, value) in [
            ("harmony_reads_submitted_total", t.reads_submitted),
            ("harmony_reads_completed_total", t.reads_completed),
            ("harmony_writes_submitted_total", t.writes_submitted),
            ("harmony_writes_completed_total", t.writes_completed),
            ("harmony_stale_reads_total", t.stale_reads),
            ("harmony_repairs_issued_total", t.repairs_issued),
            ("harmony_ops_aborted_total", t.ops_aborted),
            ("harmony_protocol_drops_total", t.protocol_drops),
            ("harmony_hints_evicted_total", t.hints_evicted),
            ("harmony_ae_rounds_total", t.ae_rounds),
            ("harmony_ae_rows_streamed_total", t.ae_rows_streamed),
        ] {
            registry.counter(name).add(value);
        }
        registry
            .counter("harmony_fault_epoch")
            .add(self.fault_epoch());
        registry
            .gauge("harmony_live_nodes")
            .set(self.live_node_count() as f64);
        let hinted: usize = self.hints.iter().map(Vec::len).sum();
        registry
            .gauge("harmony_hinted_mutations_pending")
            .set(hinted as f64);
        for (node, counters) in self.node_counters().into_iter().enumerate() {
            let label = node.to_string();
            for (name, value) in [
                ("harmony_node_reads_served_total", counters.reads),
                ("harmony_node_writes_applied_total", counters.writes),
                ("harmony_node_repairs_applied_total", counters.repairs),
                ("harmony_node_messages_queued_total", counters.queued),
            ] {
                registry
                    .counter(&series_name(name, &[("node", &label)]))
                    .add(value);
            }
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The network model in effect.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Number of storage nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Cumulative totals (reads, writes, stale reads, repairs).
    pub fn totals(&self) -> ClusterTotals {
        self.totals
    }

    /// The current fault/membership state (liveness, partitions, slow
    /// factors, join/decommission counters).
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// Number of nodes currently serving traffic (alive ring members).
    pub fn live_node_count(&self) -> usize {
        self.faults.serving_count()
    }

    /// Number of hinted mutations waiting for `node` to come back.
    pub fn hinted_mutations(&self, node: NodeId) -> usize {
        self.hints.get(node.index()).map(Vec::len).unwrap_or(0)
    }

    /// Interns a key name, returning its compact id. Idempotent; the id is
    /// stable for the cluster's lifetime. Workloads intern their record
    /// population up front and move only ids afterwards.
    pub fn intern_key(&mut self, name: &str) -> KeyId {
        let id = self.key_table.intern(name);
        if self.latest_acked.len() <= id.index() {
            self.latest_acked.resize(id.index() + 1, Timestamp::ZERO);
        }
        id
    }

    /// The id of an already-interned key name, if any.
    pub fn key_id(&self, name: &str) -> Option<KeyId> {
        self.key_table.get(name)
    }

    /// The name behind an interned key id.
    pub fn key_name(&self, id: KeyId) -> &str {
        self.key_table.resolve(id)
    }

    /// Number of distinct keys interned so far.
    pub fn key_count(&self) -> usize {
        self.key_table.len()
    }

    /// Per-node counters, indexed by node id — what the monitoring module
    /// collects ("nodetool" analogue).
    pub fn node_counters(&self) -> Vec<NodeCounters> {
        self.nodes.iter().map(|n| n.counters()).collect()
    }

    /// Mean pairwise network latency in milliseconds, from the analytic model
    /// (the long-run average a perfect monitor would converge to).
    pub fn mean_network_latency_ms(&self) -> f64 {
        self.network.mean_pairwise_ms(&self.topology)
    }

    /// One "ping sweep": samples the latency of a handful of random node
    /// pairs and returns their mean, the way the paper's monitoring module
    /// measures `Ln`. Unlike [`Cluster::mean_network_latency_ms`] this
    /// fluctuates from sweep to sweep, so latency spikes (the EC2 behaviour
    /// of Figure 4b) are visible to the controller.
    pub fn probe_network_latency_ms(&self, pairs: usize) -> f64 {
        let n = self.topology.len();
        if n < 2 || pairs == 0 {
            return self.mean_network_latency_ms();
        }
        let count = self.probe_count.get();
        self.probe_count.set(count + 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(harmony_sim::rng::mix(
            self.probe_seed,
            count.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        let mut total = 0.0;
        for _ in 0..pairs {
            let a = NodeId(rng.gen_range(0..n as u32));
            let mut b = NodeId(rng.gen_range(0..n as u32));
            if a == b {
                b = NodeId((b.0 + 1) % n as u32);
            }
            total += self
                .network
                .sample(&self.topology, a, b, &mut rng)
                .as_millis_f64();
        }
        total / pairs as f64
    }

    /// Per-node mutation-stage backlog: the expected extra delay
    /// (milliseconds) a newly arriving replica write waits on each node before
    /// being applied — the `nodetool tpstats` "pending MutationStage tasks"
    /// analogue, one entry per *serving* node. Crashed and decommissioned
    /// nodes are skipped entirely (no telemetry is not a 0 ms backlog: a
    /// dead replica's zero would drag the mean and the dispersion down and
    /// blind the controller exactly when replicas are lost); the *dispersion*
    /// of the surviving values across replicas is what widens the staleness
    /// window under saturation.
    pub fn replica_backlog_ms(&self) -> Vec<f64> {
        let concurrency = self.config.node_concurrency.max(1) as f64;
        self.nodes
            .iter()
            .filter(|n| self.faults.is_serving(n.id))
            .map(|n| {
                let mean_ms =
                    self.write_service.mean_ms_for(n.id) * self.faults.service_factor(n.id);
                if mean_ms <= 0.0 {
                    0.0
                } else {
                    non_negative_backlog(n.queue_len(Stage::Write) as f64 / concurrency * mean_ms)
                }
            })
            .collect()
    }

    /// Mean per-node mutation-stage backlog (milliseconds) over the serving
    /// nodes; see [`Cluster::replica_backlog_ms`].
    pub fn mutation_backlog_ms(&self) -> f64 {
        let backlogs = self.replica_backlog_ms();
        if backlogs.is_empty() {
            return 0.0;
        }
        backlogs.iter().sum::<f64>() / backlogs.len() as f64
    }

    /// Cumulative write-stage telemetry per node: arrival and completion
    /// counts plus accumulated sampled service times, the raw input of the
    /// M/G/1 write-stage model. The per-replica arrival rate and the measured
    /// service-time mean/variance are derived from deltas of these counters by
    /// the monitoring module.
    pub fn write_stage_telemetry(&self) -> Vec<WriteStageTelemetry> {
        self.nodes
            .iter()
            .map(|n| n.write_stage_telemetry())
            .collect()
    }

    /// Drains the buffered keys of client writes since the previous call —
    /// the observation stream of the monitor's heavy-hitter sketch. The
    /// buffer is bounded (`WRITE_KEY_SAMPLE_CAP`); under an absent or
    /// stalled monitor the overflow is dropped rather than accumulated.
    pub fn drain_write_key_samples(&self) -> Vec<KeyId> {
        std::mem::take(&mut *self.write_key_samples.borrow_mut())
    }

    /// Per-key mutation backlog for the given keys: for each key, the
    /// *deepest* per-replica pending-mutation backlog (milliseconds), i.e.
    /// the expected extra delay before the laggard replica of that key has
    /// applied everything queued for it. The laggard is what a partial read
    /// can hit, so it — not the mean — bounds the key's staleness window.
    /// One pass over each node's queue with direct `KeyId` indexing into a
    /// flat slot table (`O(nodes · queue + keys)`, no hashing), so a
    /// monitoring sweep stays cheap even with deep saturated queues and a
    /// large tracked set.
    pub fn per_key_backlog_ms(&self, keys: &[KeyId]) -> Vec<f64> {
        let concurrency = self.config.node_concurrency.max(1) as f64;
        // Flat KeyId -> requested-slot mapping; `u32::MAX` = not requested.
        let mut slot = vec![u32::MAX; self.key_table.len()];
        for (i, k) in keys.iter().enumerate() {
            if k.index() < slot.len() {
                slot[k.index()] = i as u32;
            }
        }
        let mut deepest = vec![0.0f64; keys.len()];
        let mut counts = vec![0usize; keys.len()];
        for node in &self.nodes {
            // A dead replica's queue moved to hints and cannot be read from
            // anyway — only serving replicas bound a key's staleness window.
            if !self.faults.is_serving(node.id) {
                continue;
            }
            for c in counts.iter_mut() {
                *c = 0;
            }
            for key in node.queued_write_keys() {
                if let Some(&s) = slot.get(key.index()) {
                    if s != u32::MAX {
                        counts[s as usize] += 1;
                    }
                }
            }
            let mean_ms =
                self.write_service.mean_ms_for(node.id) * self.faults.service_factor(node.id);
            for (i, &count) in counts.iter().enumerate() {
                deepest[i] =
                    deepest[i].max(non_negative_backlog(count as f64 * mean_ms / concurrency));
            }
        }
        deepest
    }

    /// The token ring over the current membership.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The replica set (primary first) for a key under the configured
    /// placement strategy — the *uncached* reference walk. The op path uses
    /// [`Cluster::replicas_for_id`]; this entry point exists for tests,
    /// tools and cache-consistency checks.
    pub fn replicas_for(&self, key: &str) -> Vec<NodeId> {
        self.config.strategy.replicas_for(
            &self.ring,
            &self.topology,
            key,
            self.config.replication_factor,
        )
    }

    /// The memoised replica set for an interned key: two array loads in
    /// steady state. The key's name is resolved and hashed only on the
    /// key's first lookup, and the ring walked only on its range's first.
    pub fn replicas_for_id(&mut self, key: KeyId) -> ReplicaSet {
        self.placement.replicas_for(
            key,
            || self.key_table.resolve(key),
            self.config.strategy,
            &self.ring,
            &self.topology,
            self.config.replication_factor,
        )
    }

    /// Drops every memoised replica set. Called automatically by the elastic
    /// membership paths (join/decommission rebuild the ring and invalidate);
    /// public so tools mutating ring parameters out of band can do the same.
    pub fn invalidate_placement(&mut self) {
        self.placement.invalidate();
    }

    /// How many times the placement cache has been invalidated — exactly
    /// once per topology change (see the churn property tests).
    pub fn placement_invalidations(&self) -> u64 {
        self.placement.invalidations()
    }

    /// Direct access to a node (tests and tools).
    pub fn node(&self, id: NodeId) -> &StorageNode {
        &self.nodes[id.index()]
    }

    /// Bulk-loads a row onto every replica without going through the message
    /// layer. Used for the workload load phase, mirroring a YCSB `load` run
    /// that completes before the measured transaction phase starts.
    /// Returns the key's interned id.
    pub fn load_direct(&mut self, key: &str, mutation: &Mutation, timestamp: Timestamp) -> KeyId {
        let id = self.intern_key(key);
        let replicas = self.replicas_for_id(id);
        for node in replicas.as_slice() {
            self.nodes[node.index()]
                .engine_mut()
                .apply(id, mutation, timestamp);
        }
        let entry = &mut self.latest_acked[id.index()];
        if timestamp > *entry {
            *entry = timestamp;
        }
        self.last_timestamp = self.last_timestamp.max(timestamp.0);
        id
    }

    /// Applies a mutation directly to one node's engine, bypassing the
    /// message layer — divergence-injection scaffolding for repair scenarios
    /// (tests and the checker build a known-stale replica with it, then
    /// prove anti-entropy closes the gap). Never part of the protocol.
    pub fn node_engine_apply(
        &mut self,
        node: NodeId,
        key: KeyId,
        mutation: &Mutation,
        timestamp: Timestamp,
    ) {
        self.nodes[node.index()]
            .engine_mut()
            .apply(key, mutation, timestamp);
        self.last_timestamp = self.last_timestamp.max(timestamp.0);
    }

    /// Raises the recorded client-acknowledged timestamp of `key` — the
    /// companion of [`Cluster::node_engine_apply`] for scenarios that
    /// declare an injected row "acknowledged" so the convergence predicates
    /// ([`Cluster::all_replicas_converged`], the checker's durability
    /// invariant) hold it against every replica.
    pub fn force_acked_ts(&mut self, key: KeyId, timestamp: Timestamp) {
        let entry = &mut self.latest_acked[key.index()];
        if timestamp > *entry {
            *entry = timestamp;
        }
    }

    fn alloc_op(&mut self) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        id
    }

    fn alloc_timestamp(&mut self, now: SimTime) -> Timestamp {
        let candidate = now.as_nanos().max(self.last_timestamp + 1);
        self.last_timestamp = candidate;
        Timestamp(candidate)
    }

    fn pick_coordinator(&mut self) -> NodeId {
        // Clients connect to serving nodes only (their drivers track node
        // health); on a healthy cluster this is the round-robin it always
        // was. With every node down, any node is as good as any other — the
        // operation will be aborted as unavailable.
        let n = self.nodes.len();
        for _ in 0..n {
            let id = NodeId((self.next_coordinator % n) as u32);
            self.next_coordinator += 1;
            if self.faults.is_serving(id) {
                return id;
            }
        }
        NodeId((self.next_coordinator % n) as u32)
    }

    fn client_latency(&self) -> SimTime {
        SimTime::from_millis_f64(self.config.client_latency_ms)
    }

    fn link_latency(&mut self, from: NodeId, to: NodeId) -> SimTime {
        self.network.sample(&self.topology, from, to, &mut self.rng)
    }

    /// Samples the service time of `message` on `node` from the per-node
    /// service model, and threads the sampled duration into the node's
    /// write-stage telemetry (the monitoring module derives the measured
    /// service-time mean and variance from it).
    fn service_time(&mut self, node: NodeId, message: &Message) -> SimTime {
        let Some(stage) = Stage::of(message) else {
            return SimTime::ZERO;
        };
        let model = match stage {
            Stage::Read => &self.read_service,
            Stage::Write => &self.write_service,
        };
        // No zero-mean short-circuit: `sample` returns ZERO itself while
        // still drawing its RNG inputs, keeping the event trace aligned
        // across configurations that differ only in a zeroed service time.
        let mut service = model.sample(node, &mut self.rng);
        let factor = self.faults.service_factor(node);
        if factor != 1.0 {
            service = service.scale(factor);
        }
        self.nodes[node.index()].note_service_time(stage, service.as_millis_f64());
        service
    }

    /// Sends replica work across the node network, or stores it as a hint
    /// when the destination is down or unreachable from `from` — the single
    /// choke point that keeps mutations durable across crashes and
    /// partitions. Returns true if the message was actually sent (false =
    /// hinted), so callers count live deliveries without re-deriving the
    /// reachability predicate.
    fn send_replica_work<C: EventCtx<StoreEvent>>(
        &mut self,
        from: NodeId,
        dest: NodeId,
        message: Message,
        ctx: &mut C,
    ) -> bool {
        if self.faults.reachable(from, dest) {
            let latency = self.link_latency(from, dest);
            ctx.emit(latency, StoreEvent::Deliver { dest, message });
            true
        } else {
            self.store_hint(dest, from, message);
            false
        }
    }

    /// Stores `message` as a hint for `dest` attributed to `origin` — the
    /// single hint sink shared by the unreachable-send, in-flight-death and
    /// crash-drain paths. Honours the mutant switch and the per-origin cap
    /// ([`StoreConfig::hint_cap_per_origin`]): at the cap, the *oldest* hint
    /// of the same origin is evicted to make room (last-write-wins row
    /// semantics make the newest mutation the one worth keeping) and counted
    /// in [`ClusterTotals::hints_evicted`] — the divergence that eviction can
    /// leave behind is exactly what anti-entropy exists to close.
    fn store_hint(&mut self, dest: NodeId, origin: NodeId, message: Message) {
        if !self.hinted_handoff_enabled {
            // Mutant: the hint is silently forgotten. The schedule
            // explorer must observe the resulting convergence violation.
            return;
        }
        let cap = self.config.hint_cap_per_origin;
        let Some(slot) = self.hints.get_mut(dest.index()) else {
            // Destination slot vanished under us (post-decommission
            // index): best-effort hinting degrades to a counted drop.
            self.totals.protocol_drops += 1;
            return;
        };
        if cap > 0 && slot.iter().filter(|(o, _)| *o == origin).count() >= cap {
            if let Some(oldest) = slot.iter().position(|(o, _)| *o == origin) {
                slot.remove(oldest);
                self.totals.hints_evicted += 1;
            }
        }
        slot.push((origin, message));
    }

    /// True if a hint stored by `origin` may replay to `dest` right now:
    /// always outside a partition, and only within one connectivity group
    /// during one. Liveness of the origin is irrelevant — the hint is
    /// durable data, not a live message.
    fn hint_replayable(&self, origin: NodeId, dest: NodeId) -> bool {
        self.faults.partition_group(origin) == self.faults.partition_group(dest)
    }

    /// Submits a client read by key name, interning the key if it has never
    /// been seen. The completion is returned by [`Cluster::handle`] when the
    /// corresponding [`StoreEvent::ClientReply`] fires.
    pub fn submit_read<C: EventCtx<StoreEvent>>(
        &mut self,
        key: &str,
        consistency: ConsistencyLevel,
        ctx: &mut C,
    ) -> OpId {
        let id = self.intern_key(key);
        self.submit_read_id(id, consistency, ctx)
    }

    /// Submits a client read for an already-interned key — the
    /// allocation-free hot path.
    pub fn submit_read_id<C: EventCtx<StoreEvent>>(
        &mut self,
        key: KeyId,
        consistency: ConsistencyLevel,
        ctx: &mut C,
    ) -> OpId {
        assert!(
            key.index() < self.key_table.len(),
            "{key} was not interned through this cluster"
        );
        let op = self.alloc_op();
        let coordinator = self.pick_coordinator();
        let expected_ts = self
            .latest_acked
            .get(key.index())
            .copied()
            .unwrap_or(Timestamp::ZERO);
        self.totals.reads_submitted += 1;
        if let Some(obs) = self.obs.as_mut() {
            let epoch = self.faults.counters().total();
            obs.tracer
                .start(op.0, "read", key.index() as u64, ctx.now().0 / 1_000, epoch);
        }
        self.ops.insert(
            op,
            OpState {
                key,
                coordinator,
                submitted_at: ctx.now(),
                consistency,
                required: consistency.required_acks(self.config.replication_factor),
                replied: false,
                progress: Progress::Read(ReadProgress {
                    contacted: ReplicaSet::EMPTY,
                    replica_set: ReplicaSet::EMPTY,
                    responses: ResponseSet::default(),
                    expected_ts,
                }),
                staged: None,
            },
        );
        let delay = self.client_latency();
        ctx.emit(
            delay,
            StoreEvent::Deliver {
                dest: coordinator,
                message: Message::ClientRead {
                    op,
                    key,
                    consistency,
                },
            },
        );
        op
    }

    /// Submits a client write by key name at the given consistency level.
    /// The mutation payload is `Arc`-shared across the replica fan-out;
    /// plain `Mutation` values are accepted and wrapped once.
    pub fn submit_write<C: EventCtx<StoreEvent>>(
        &mut self,
        key: &str,
        mutation: impl Into<Arc<Mutation>>,
        consistency: ConsistencyLevel,
        ctx: &mut C,
    ) -> OpId {
        let id = self.intern_key(key);
        self.submit_write_id(id, mutation.into(), consistency, ctx)
    }

    /// Submits a client write for an already-interned key — the
    /// allocation-free hot path.
    pub fn submit_write_id<C: EventCtx<StoreEvent>>(
        &mut self,
        key: KeyId,
        mutation: Arc<Mutation>,
        consistency: ConsistencyLevel,
        ctx: &mut C,
    ) -> OpId {
        // Fail fast on a foreign id: the alternative is an out-of-bounds
        // panic at ClientReply time, far from the erroneous call.
        assert!(
            key.index() < self.key_table.len(),
            "{key} was not interned through this cluster"
        );
        let op = self.alloc_op();
        let coordinator = self.pick_coordinator();
        self.totals.writes_submitted += 1;
        if let Some(obs) = self.obs.as_mut() {
            let epoch = self.faults.counters().total();
            obs.tracer.start(
                op.0,
                "write",
                key.index() as u64,
                ctx.now().0 / 1_000,
                epoch,
            );
        }
        self.ops.insert(
            op,
            OpState {
                key,
                coordinator,
                submitted_at: ctx.now(),
                consistency,
                required: consistency.required_acks(self.config.replication_factor),
                replied: false,
                progress: Progress::Write(WriteProgress {
                    replica_count: 0,
                    acks: 0,
                    timestamp: Timestamp::ZERO,
                }),
                staged: None,
            },
        );
        let delay = self.client_latency();
        ctx.emit(
            delay,
            StoreEvent::Deliver {
                dest: coordinator,
                message: Message::ClientWrite {
                    op,
                    key,
                    mutation,
                    consistency,
                },
            },
        );
        op
    }

    /// Handles one store event, possibly scheduling follow-up events on `ctx`.
    /// Returns a [`Completion`] when a client operation finishes.
    pub fn handle<C: EventCtx<StoreEvent>>(
        &mut self,
        event: StoreEvent,
        ctx: &mut C,
    ) -> Option<Completion> {
        match event {
            StoreEvent::Deliver { dest, message } => {
                self.on_deliver(dest, message, ctx);
                None
            }
            StoreEvent::Process { node, message } => {
                self.on_process(node, message, ctx);
                None
            }
            StoreEvent::ClientReply { op } => self.on_client_reply(op, ctx.now()),
        }
    }

    fn on_deliver<C: EventCtx<StoreEvent>>(&mut self, dest: NodeId, message: Message, ctx: &mut C) {
        if !self.faults.is_serving(dest) {
            // The destination died (or left) while this message was in
            // flight — the race the schedule-time reachability checks cannot
            // close. Mutations become hints; reads get an immediate miss
            // sent back to a coordinator on this side of any cut, so it
            // makes progress; client operations reaching a dead coordinator
            // abort (the client driver's connection error — this also
            // covers the all-nodes-down case, where any coordinator pick is
            // dead);
            // other coordination traffic is simply lost (its pending
            // operations were aborted when the coordinator crashed).
            match message {
                Message::ReplicaWrite {
                    op,
                    key,
                    mutation,
                    timestamp,
                    coordinator,
                } => {
                    // Direct destructure-and-rebuild: the hint's replay origin
                    // is the coordinator carried inside the mutation itself,
                    // with no fallible re-match on the moved value.
                    self.store_hint(
                        dest,
                        coordinator,
                        Message::ReplicaWrite {
                            op,
                            key,
                            mutation,
                            timestamp,
                            coordinator,
                        },
                    );
                }
                // An in-flight repair row to a node that just died is simply
                // lost: repair traffic is redundant by construction (the
                // next read of a divergent key issues a fresh one), and a
                // repair carries no sender to gate its replay against an
                // active partition — hinting it under the destination's own
                // name would let it smuggle data across a later cut.
                Message::RepairWrite { .. } => {}
                // The immediate miss reaches the coordinator only on the
                // dead replica's side of any active cut (a replica that is
                // merely partitioned away strands the read instead, and the
                // chaos reaper aborts it).
                Message::ReplicaRead {
                    op, coordinator, ..
                } if self.faults.is_serving(coordinator)
                    && self.faults.partition_group(dest)
                        == self.faults.partition_group(coordinator) =>
                {
                    let latency = self.link_latency(dest, coordinator);
                    ctx.emit(
                        latency,
                        StoreEvent::Deliver {
                            dest: coordinator,
                            message: Message::ReplicaReadResponse {
                                op,
                                from: dest,
                                row: None,
                            },
                        },
                    );
                }
                Message::ClientRead { op, .. } | Message::ClientWrite { op, .. } => {
                    self.stage_abort(op, ctx);
                }
                _ => {}
            }
            return;
        }
        if message.is_replica_work() {
            // Replica-side work competes for the node's service slots.
            let start_now = self.nodes[dest.index()].try_start_work(message);
            if let Some(msg) = start_now {
                let service = self.service_time(dest, &msg);
                ctx.emit(
                    service,
                    StoreEvent::Process {
                        node: dest,
                        message: msg,
                    },
                );
            }
            return;
        }
        match message {
            Message::ClientRead {
                op,
                key,
                consistency,
            } => self.coordinate_read(dest, op, key, consistency, ctx),
            Message::ClientWrite {
                op,
                key,
                mutation,
                consistency,
            } => self.coordinate_write(dest, op, key, mutation, consistency, ctx),
            Message::ReplicaReadResponse { op, from, row } => {
                self.on_read_response(op, from, row, ctx)
            }
            Message::ReplicaWriteAck { op, from } => self.on_write_ack(op, from, ctx),
            Message::AeDigest { from, buckets } => self.on_ae_digest(dest, from, &buckets, ctx),
            Message::AeKeys {
                from,
                buckets,
                entries,
            } => self.on_ae_keys(dest, from, &buckets, &entries, ctx),
            Message::AePull { from, keys } => self.on_ae_pull(dest, from, &keys, ctx),
            // Replica work is dispatched through the service slots above; a
            // replica-work message surfacing here means a routing anomaly
            // (possible only under injected fault/membership races, never on
            // a healthy cluster). Dropping it costs at most one redundant
            // replica copy; panicking costs the whole run.
            Message::ReplicaRead { .. }
            | Message::ReplicaWrite { .. }
            | Message::RepairWrite { .. } => {
                self.totals.protocol_drops += 1;
            }
        }
    }

    fn coordinate_read<C: EventCtx<StoreEvent>>(
        &mut self,
        coordinator: NodeId,
        op: OpId,
        key: KeyId,
        _consistency: ConsistencyLevel,
        ctx: &mut C,
    ) {
        let replica_set = self.replicas_for_id(key);
        // Fault-aware availability: only replicas the coordinator can reach
        // may be contacted (on a healthy cluster this is the full set, in
        // ring order). An empty intersection fails the read fast instead of
        // waiting on replies that can never arrive.
        let mut available = ReplicaSet::EMPTY;
        for &r in replica_set.as_slice() {
            if self.faults.reachable(coordinator, r) {
                available.push(r);
            }
        }
        if available.is_empty() {
            self.stage_abort(op, ctx);
            return;
        }
        // Contact the `required` replicas closest to the coordinator (snitch
        // behaviour); the rest may receive background read repair afterwards.
        // Sorted on the stack (stable insertion sort — ties keep ring order),
        // no allocation.
        let mut by_distance = [NodeId(0); MAX_RF];
        by_distance[..available.len()].copy_from_slice(available.as_slice());
        let slice = &mut by_distance[..available.len()];
        for i in 1..slice.len() {
            let mut j = i;
            while j > 0 {
                let dj = self.network.mean_ms(&self.topology, coordinator, slice[j]);
                let dprev = self
                    .network
                    .mean_ms(&self.topology, coordinator, slice[j - 1]);
                if dj < dprev {
                    slice.swap(j - 1, j);
                    j -= 1;
                } else {
                    break;
                }
            }
        }
        let Some(state) = self.ops.get_mut(op) else {
            return;
        };
        let Progress::Read(read) = &mut state.progress else {
            return;
        };
        state.required = state.required.min(available.len());
        let contacted = ReplicaSet::from_slice(&by_distance[..state.required]);
        (read.contacted, read.replica_set) = (contacted, replica_set);
        if let Some(obs) = self.obs.as_mut() {
            if obs.tracer.samples(op.0) {
                let now_us = ctx.now().0 / 1_000;
                obs.tracer.event(
                    op.0,
                    now_us,
                    coordinator.0 as i64,
                    SpanKind::CoordinatorReceipt,
                    format!(
                        "contacting {:?} of {:?}",
                        contacted.as_slice(),
                        replica_set.as_slice()
                    ),
                );
                for &replica in contacted.as_slice() {
                    obs.tracer.event(
                        op.0,
                        now_us,
                        coordinator.0 as i64,
                        SpanKind::ReplicaSend,
                        format!("read request to node{}", replica.0),
                    );
                }
            }
        }
        for i in 0..contacted.len() {
            let replica = contacted.as_slice()[i];
            let latency = self.link_latency(coordinator, replica);
            ctx.emit(
                latency,
                StoreEvent::Deliver {
                    dest: replica,
                    message: Message::ReplicaRead {
                        op,
                        key,
                        coordinator,
                    },
                },
            );
        }
    }

    fn coordinate_write<C: EventCtx<StoreEvent>>(
        &mut self,
        coordinator: NodeId,
        op: OpId,
        key: KeyId,
        mutation: Arc<Mutation>,
        _consistency: ConsistencyLevel,
        ctx: &mut C,
    ) {
        let replica_set = self.replicas_for_id(key);
        let timestamp = self.alloc_timestamp(ctx.now());
        {
            // Feed the monitor's heavy-hitter stream: one sample per client
            // write (not per replica copy), so key shares match the client
            // write distribution.
            let mut samples = self.write_key_samples.borrow_mut();
            if samples.len() < WRITE_KEY_SAMPLE_CAP {
                samples.push(key);
            }
        }
        let is_pending_write = |s: &OpState| matches!(s.progress, Progress::Write(_));
        if !self.ops.get(op).is_some_and(is_pending_write) {
            return;
        }
        // Writes always go to every replica; the consistency level only
        // decides how many acknowledgements the client waits for. The
        // payload is shared: each fan-out copy is a refcount bump. Replicas
        // the coordinator cannot reach get a durable hint instead — the
        // hinted-handoff mutation replays into their write stage on
        // restart/heal, so a crash never loses queued propagation.
        let traced = self.obs.as_ref().is_some_and(|o| o.tracer.samples(op.0));
        if traced {
            if let Some(obs) = self.obs.as_mut() {
                obs.tracer.event(
                    op.0,
                    ctx.now().0 / 1_000,
                    coordinator.0 as i64,
                    SpanKind::CoordinatorReceipt,
                    format!("fan-out to {:?} ts={timestamp:?}", replica_set.as_slice()),
                );
            }
        }
        let mut sent = 0usize;
        for i in 0..replica_set.len() {
            let replica = replica_set.as_slice()[i];
            let message = Message::ReplicaWrite {
                op,
                key,
                mutation: Arc::clone(&mutation),
                timestamp,
                coordinator,
            };
            let delivered = self.send_replica_work(coordinator, replica, message, ctx);
            if delivered {
                sent += 1;
            }
            if traced {
                if let Some(obs) = self.obs.as_mut() {
                    obs.tracer.event(
                        op.0,
                        ctx.now().0 / 1_000,
                        coordinator.0 as i64,
                        if delivered {
                            SpanKind::ReplicaSend
                        } else {
                            SpanKind::HintStashed
                        },
                        format!("write to node{}", replica.0),
                    );
                }
            }
        }
        if let Some(state) = self.ops.get_mut(op) {
            if let Progress::Write(write) = &mut state.progress {
                // Only live sends can acknowledge; hinted copies apply later,
                // long after the client stopped waiting.
                (write.replica_count, write.timestamp) = (sent, timestamp);
                state.required = state.required.min(sent.max(1));
            }
        }
        if sent == 0 {
            // Every replica is down or cut off: the write is hinted
            // everywhere but the client sees an unavailability failure.
            self.stage_abort(op, ctx);
        }
    }

    fn on_process<C: EventCtx<StoreEvent>>(&mut self, node: NodeId, message: Message, ctx: &mut C) {
        // Only replica work owns a service stage. Anything else reaching a
        // service slot is a protocol anomaly (a coordination message enqueued
        // into a node's work queue by an injected fault): count it and drop
        // it rather than poisoning the run with a panic.
        let Some(stage) = Stage::of(&message) else {
            self.totals.protocol_drops += 1;
            return;
        };
        match message {
            Message::ReplicaRead {
                op,
                key,
                coordinator,
            } => {
                let row = self.nodes[node.index()].serve_read(key);
                if let Some(obs) = self.obs.as_mut() {
                    if obs.tracer.samples(op.0) {
                        obs.tracer.event(
                            op.0,
                            ctx.now().0 / 1_000,
                            node.0 as i64,
                            SpanKind::ReplicaApply,
                            format!(
                                "served read, local ts={:?}",
                                row.as_ref().map(|r| r.latest_timestamp())
                            ),
                        );
                    }
                }
                // Work in service when a node crashes still completes (the
                // power fails after the in-flight operation, not during it)
                // but a dead or cut-off node sends nothing back.
                if self.faults.reachable(node, coordinator) {
                    let latency = self.link_latency(node, coordinator);
                    ctx.emit(
                        latency,
                        StoreEvent::Deliver {
                            dest: coordinator,
                            message: Message::ReplicaReadResponse {
                                op,
                                from: node,
                                row,
                            },
                        },
                    );
                }
            }
            Message::ReplicaWrite {
                op,
                key,
                mutation,
                timestamp,
                coordinator,
            } => {
                self.nodes[node.index()].apply_write(key, &mutation, timestamp);
                if let Some(obs) = self.obs.as_mut() {
                    if obs.tracer.samples(op.0) {
                        obs.tracer.event(
                            op.0,
                            ctx.now().0 / 1_000,
                            node.0 as i64,
                            SpanKind::ReplicaApply,
                            format!("applied write ts={timestamp:?}"),
                        );
                    }
                }
                if self.faults.reachable(node, coordinator) {
                    let latency = self.link_latency(node, coordinator);
                    ctx.emit(
                        latency,
                        StoreEvent::Deliver {
                            dest: coordinator,
                            message: Message::ReplicaWriteAck { op, from: node },
                        },
                    );
                }
            }
            Message::RepairWrite { key, row } => {
                self.nodes[node.index()].apply_repair(key, row.as_ref());
            }
            // `Stage::of` returned `Some` above, so only the three
            // replica-work variants reach this match; the residual arm is
            // structurally dead but kept benign instead of panicking.
            _ => {}
        }
        // Hand the freed slot to the next queued message of the same stage.
        if let Some(next) = self.nodes[node.index()].finish_work(stage) {
            let service = self.service_time(node, &next);
            ctx.emit(
                service,
                StoreEvent::Process {
                    node,
                    message: next,
                },
            );
        }
    }

    fn on_read_response<C: EventCtx<StoreEvent>>(
        &mut self,
        op: OpId,
        from: NodeId,
        row: Option<Arc<Row>>,
        ctx: &mut C,
    ) {
        let Some(state) = self.ops.get_mut(op) else {
            return;
        };
        let Progress::Read(read) = &mut state.progress else {
            return;
        };
        read.responses.push(from, row);
        if let Some(obs) = self.obs.as_mut() {
            if obs.tracer.samples(op.0) {
                obs.tracer.event(
                    op.0,
                    ctx.now().0 / 1_000,
                    state.coordinator.0 as i64,
                    SpanKind::ResponseReceived,
                    format!(
                        "from node{} ({}/{} required)",
                        from.0,
                        read.responses.len(),
                        state.required
                    ),
                );
            }
        }
        if state.replied || read.responses.len() < state.required {
            // Either still waiting, or this was a straggler; nothing to do
            // until all contacted replicas answered (handled below).
            if read.responses.len() == read.contacted.len() && state.replied {
                self.close_pending(op);
            }
            return;
        }
        // Enough replies: reconcile by timestamp (newest column values win).
        // When one response already holds the reconciled content — a single
        // row, agreeing replicas, or one at least as new on every column —
        // that replica's shared row IS the winner (no copy at all); only
        // responses that interleave per column build one fresh merged row.
        let winner: Arc<Row> = Row::merge_shared(read.responses.iter().filter_map(|(_, r)| r))
            .unwrap_or_else(|| Arc::new(Row::new()));
        let returned_ts = winner.latest_timestamp();
        let result = if winner.is_empty() {
            None
        } else {
            Some(Arc::clone(&winner))
        };
        state.replied = true;

        let completion = Completion {
            op,
            kind: OpKind::Read,
            key: state.key,
            submitted_at: state.submitted_at,
            completed_at: SimTime::ZERO, // filled at ClientReply time
            consistency: state.consistency,
            replicas_contacted: read.contacted.len(),
            result,
            returned_timestamp: returned_ts,
            expected_timestamp: read.expected_ts,
            stale: false, // decided at ClientReply time
            aborted: false,
        };
        let coordinator = state.coordinator;
        let key = state.key;
        // Read repair towards contacted replicas that returned older data.
        let mut stale_responders = ReplicaSet::EMPTY;
        for (n, r) in read.responses.iter() {
            // The winner's timestamp is already known (at ONE it is the only row).
            let ts = match r {
                Some(r) if Arc::ptr_eq(r, &winner) => returned_ts,
                Some(r) => r.latest_timestamp(),
                None => Timestamp::ZERO,
            };
            if ts < returned_ts {
                stale_responders.push(n);
            }
        }
        // Background read repair towards replicas that were not contacted.
        let mut uncontacted = ReplicaSet::EMPTY;
        for &n in read.replica_set.as_slice() {
            if !read.contacted.as_slice().contains(&n) {
                uncontacted.push(n);
            }
        }
        let reads_all_replicas = state.required >= read.replica_set.len();
        // Every contacted replica answered: only the staged reply is left.
        if read.responses.len() == read.contacted.len() {
            state.progress = Progress::Closed;
        }
        state.staged = Some(completion);

        if let Some(obs) = self.obs.as_mut() {
            if obs.tracer.samples(op.0) {
                let now_us = ctx.now().0 / 1_000;
                obs.tracer.event(
                    op.0,
                    now_us,
                    coordinator.0 as i64,
                    SpanKind::QuorumClose,
                    format!("quorum met, winner ts={returned_ts:?}"),
                );
                if !stale_responders.is_empty() {
                    obs.tracer.event(
                        op.0,
                        now_us,
                        coordinator.0 as i64,
                        SpanKind::Reconcile,
                        format!(
                            "divergent replicas {:?} behind ts={returned_ts:?}",
                            stale_responders.as_slice()
                        ),
                    );
                }
            }
        }
        let mut client_delay = self.client_latency();
        // Strong consistency (level ALL) in the paper's Figure 1: if the
        // replicas disagree, the coordinator repairs the out-of-date replicas
        // and only then answers the client — an extra round trip that is the
        // main reason ALL gets slower as update load (and thus divergence)
        // grows.
        if reads_all_replicas && !stale_responders.is_empty() {
            let mut repair_wait = SimTime::ZERO;
            for &target in stale_responders.as_slice() {
                let rtt = self
                    .link_latency(coordinator, target)
                    .saturating_add(self.link_latency(target, coordinator))
                    .saturating_add(SimTime::from_millis_f64(self.config.write_service_ms));
                repair_wait = repair_wait.max(rtt);
            }
            client_delay = client_delay.saturating_add(repair_wait);
        }
        ctx.emit(client_delay, StoreEvent::ClientReply { op });

        if returned_ts > Timestamp::ZERO {
            // One shared repair payload for every target of this read.
            let repair_row = winner;
            if !repair_row.is_empty() {
                for &target in stale_responders.as_slice() {
                    self.totals.repairs_issued += 1;
                    self.send_replica_work(
                        coordinator,
                        target,
                        Message::RepairWrite {
                            key,
                            row: Arc::clone(&repair_row),
                        },
                        ctx,
                    );
                    if let Some(obs) = self.obs.as_mut() {
                        if obs.tracer.samples(op.0) {
                            obs.tracer.event(
                                op.0,
                                ctx.now().0 / 1_000,
                                coordinator.0 as i64,
                                SpanKind::ReadRepairSend,
                                format!("repair to node{}", target.0),
                            );
                        }
                    }
                }
                if !uncontacted.is_empty()
                    && self
                        .rng
                        .gen_bool(self.config.background_read_repair_chance.clamp(0.0, 1.0))
                {
                    for &target in uncontacted.as_slice() {
                        self.totals.repairs_issued += 1;
                        self.send_replica_work(
                            coordinator,
                            target,
                            Message::RepairWrite {
                                key,
                                row: Arc::clone(&repair_row),
                            },
                            ctx,
                        );
                    }
                }
            }
        }
    }

    fn on_write_ack<C: EventCtx<StoreEvent>>(&mut self, op: OpId, from: NodeId, ctx: &mut C) {
        let client_delay = self.client_latency();
        let Some(state) = self.ops.get_mut(op) else {
            return;
        };
        let Progress::Write(write) = &mut state.progress else {
            return;
        };
        write.acks += 1;
        if let Some(obs) = self.obs.as_mut() {
            if obs.tracer.samples(op.0) {
                obs.tracer.event(
                    op.0,
                    ctx.now().0 / 1_000,
                    state.coordinator.0 as i64,
                    SpanKind::ResponseReceived,
                    format!(
                        "ack from node{} ({}/{} required)",
                        from.0, write.acks, state.required
                    ),
                );
            }
        }
        if !state.replied && write.acks >= state.required {
            state.replied = true;
            let completion = Completion {
                op,
                kind: OpKind::Write,
                key: state.key,
                submitted_at: state.submitted_at,
                completed_at: SimTime::ZERO,
                consistency: state.consistency,
                replicas_contacted: write.replica_count,
                result: None,
                returned_timestamp: write.timestamp,
                expected_timestamp: write.timestamp,
                stale: false,
                aborted: false,
            };
            state.staged = Some(completion);
            ctx.emit(client_delay, StoreEvent::ClientReply { op });
            if let Some(obs) = self.obs.as_mut() {
                if obs.tracer.samples(op.0) {
                    obs.tracer.event(
                        op.0,
                        ctx.now().0 / 1_000,
                        state.coordinator.0 as i64,
                        SpanKind::QuorumClose,
                        format!("{} acks", write.acks),
                    );
                }
            }
        }
        if write.acks >= write.replica_count {
            self.close_pending(op);
        }
    }

    /// Marks `op`'s replica traffic as finished, dropping its record unless
    /// a staged reply is still waiting for its `ClientReply`.
    fn close_pending(&mut self, op: OpId) {
        if let Some(state) = self.ops.get_mut(op) {
            state.progress = Progress::Closed;
            if state.staged.is_none() {
                self.ops.remove(op);
            }
        }
    }

    fn on_client_reply(&mut self, op: OpId, now: SimTime) -> Option<Completion> {
        let state = self.ops.get_mut(op)?;
        let mut completion = state.staged.take()?;
        if matches!(state.progress, Progress::Closed) {
            self.ops.remove(op);
        }
        completion.completed_at = now;
        if let Some(obs) = self.obs.as_mut() {
            if obs.tracer.samples(op.0) {
                let epoch = self.faults.counters().total();
                let level = completion.consistency.to_string();
                if let Some(trace) =
                    obs.tracer
                        .finish(op.0, now.0 / 1_000, &level, completion.aborted, epoch)
                {
                    obs.recorder.offer(trace);
                }
            }
        }
        if completion.aborted {
            // A failed operation is neither a completed read nor a completed
            // write; it only bumps the abort tally.
            self.totals.ops_aborted += 1;
            return Some(completion);
        }
        match completion.kind {
            OpKind::Read => {
                completion.stale = completion.returned_timestamp < completion.expected_timestamp;
                self.totals.reads_completed += 1;
                if completion.stale {
                    self.totals.stale_reads += 1;
                }
            }
            OpKind::Write => {
                self.totals.writes_completed += 1;
                let entry = &mut self.latest_acked[completion.key.index()];
                if completion.returned_timestamp > *entry {
                    *entry = completion.returned_timestamp;
                }
            }
        }
        Some(completion)
    }

    // ---- fault injection and elasticity -----------------------------------
    //
    // Everything below is driven by a `harmony-chaos` fault schedule. None of
    // it runs — no events, no RNG draws, no state changes — unless a fault is
    // actually applied, which is what keeps an empty schedule byte-identical
    // to a run without the chaos layer (`golden_stats_pin_for_seed_20120920`).

    /// Applies one fault event at the current virtual time. Aborted
    /// operations (a crashed coordinator's in-flight work) surface as
    /// `aborted` completions through the normal `ClientReply` flow.
    pub fn apply_fault<C: EventCtx<StoreEvent>>(&mut self, fault: &FaultEvent, ctx: &mut C) {
        match fault {
            FaultEvent::CrashNode { node } => self.crash_node(*node, ctx),
            FaultEvent::RestartNode { node } => self.restart_node(*node, ctx),
            FaultEvent::SlowNode {
                node,
                service_factor,
            } => {
                self.faults.set_slow(*node, *service_factor);
            }
            FaultEvent::Partition { groups } => {
                self.faults.partition(groups);
                let counters = self.faults.counters();
                self.partition_churn_baseline = counters.joins + counters.decommissions;
            }
            FaultEvent::HealPartition => {
                if self.faults.heal() {
                    self.drain_hints_after_heal(ctx);
                    // Membership changes *during* the cut could not stream
                    // across it (a mid-partition joiner bootstraps nothing,
                    // a leaver cannot reach new owners on the far side);
                    // the heal retries the anti-entropy pass so ownership
                    // and data converge. Churn that finished before the
                    // partition already converged and is not re-streamed.
                    let counters = self.faults.counters();
                    if counters.joins + counters.decommissions > self.partition_churn_baseline {
                        self.rebalance_all_keys();
                    }
                }
            }
            FaultEvent::JoinNode { dc, rack } => {
                self.join_node(Location {
                    dc: *dc,
                    rack: *rack,
                });
            }
            FaultEvent::DecommissionNode { node } => self.decommission_node(*node, ctx),
        }
    }

    /// Fail-stop crash. Queued mutations survive as hints and replay on
    /// restart (hinted handoff); queued reads get an immediate miss sent back
    /// to a coordinator on this node's side of any cut; work already in
    /// service completes silently; and the operations this node was
    /// coordinating are aborted so no client session waits on a reply that
    /// can never come.
    fn crash_node<C: EventCtx<StoreEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        if !self.faults.crash(node) {
            return;
        }
        let (writes, reads) = self.nodes[node.index()].drain_queues();
        // Queued mutations were already delivered to this node, so the node
        // itself is their origin: they replay as soon as it serves again.
        for message in writes {
            self.store_hint(node, node, message);
        }
        for message in reads {
            if let Message::ReplicaRead {
                op, coordinator, ..
            } = message
            {
                // Same cut discipline as the in-flight path: the miss only
                // reaches coordinators on this node's side of a partition.
                if self.faults.is_serving(coordinator)
                    && self.faults.partition_group(node) == self.faults.partition_group(coordinator)
                {
                    let latency = self.link_latency(node, coordinator);
                    ctx.emit(
                        latency,
                        StoreEvent::Deliver {
                            dest: coordinator,
                            message: Message::ReplicaReadResponse {
                                op,
                                from: node,
                                row: None,
                            },
                        },
                    );
                }
            }
        }
        self.abort_ops_coordinated_by(node, ctx);
    }

    /// Recovery: the node rejoins with its data intact and its hinted
    /// mutations replay into the write stage — the backlog spike the
    /// controller has to ride out after every crash.
    fn restart_node<C: EventCtx<StoreEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        if !self.faults.restart(node) {
            return;
        }
        self.drain_hints_for(node, ctx);
    }

    /// Replays the hints stored for `node` into its delivery path. The
    /// replayed mutations queue behind live traffic in the node's write
    /// stage, so a long outage surfaces as a deep (and visible) backlog.
    /// Hints whose origin sits across an active partition stay stored — a
    /// restart inside a partition window must not smuggle data over the cut;
    /// the heal replays them.
    fn drain_hints_for<C: EventCtx<StoreEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        let hints = std::mem::take(&mut self.hints[node.index()]);
        let mut retained = Vec::new();
        for (origin, message) in hints {
            if self.hint_replayable(origin, node) {
                ctx.emit(
                    SimTime::ZERO,
                    StoreEvent::Deliver {
                        dest: node,
                        message,
                    },
                );
            } else {
                retained.push((origin, message));
            }
        }
        self.hints[node.index()] = retained;
    }

    /// After a heal, every serving node's stranded hints replay (they were
    /// stored because the coordinator could not cross the cut).
    fn drain_hints_after_heal<C: EventCtx<StoreEvent>>(&mut self, ctx: &mut C) {
        for i in 0..self.hints.len() {
            let node = NodeId(i as u32);
            if self.faults.is_serving(node) && !self.hints[i].is_empty() {
                self.drain_hints_for(node, ctx);
            }
        }
    }

    // ---- anti-entropy repair ----------------------------------------------
    //
    // A Merkle-style digest exchange run between serving nodes on a protocol
    // timer: the initiator offers per-bucket digests of its tables, peers
    // answer with the mismatched buckets and their own (key, timestamp)
    // entries inside them, and rows flow — as ordinary `RepairWrite` replica
    // work, through the write stage like any other mutation — in whichever
    // direction is behind. Crucially the exchange never touches the read
    // path (`digest`/`get`, not `serve_read`), so a cluster can converge
    // after a partition with *zero* read traffic. Nothing here runs unless a
    // round is explicitly driven, which keeps disabled runs byte-identical.

    /// Merkle-style range digests of `node`'s tables: an order-independent
    /// XOR fold of `mix(key, timestamp)` into `key % buckets`. Equal tables
    /// give equal digests; a single divergent row flips exactly one bucket.
    fn ae_bucket_digests(&self, node: NodeId) -> Vec<u64> {
        let buckets = self.config.anti_entropy_buckets.max(1);
        let mut out = vec![0u64; buckets];
        for index in 0..self.key_table.len() {
            let key = KeyId(index as u32);
            if let Some(ts) = self.nodes[node.index()].digest(key) {
                out[index % buckets] ^= harmony_sim::rng::mix(index as u64, ts.0);
            }
        }
        out
    }

    /// Runs one anti-entropy round at the current virtual time: the next
    /// serving node after the round-robin cursor initiates, offering its
    /// bucket digests to every serving peer it can reach (the exchange is
    /// partition-gated like all node-to-node traffic — anti-entropy works
    /// within each side of an active cut and across it only after the heal).
    /// A round with no reachable peer is skipped silently and uncounted.
    /// Runners drive this from [`StoreConfig::anti_entropy_interval_secs`];
    /// the protocol machine arms a [`crate::machine::ProtocolTimer`] for it.
    pub fn run_anti_entropy_round<C: EventCtx<StoreEvent>>(&mut self, ctx: &mut C) {
        let n = self.nodes.len();
        if n < 2 {
            return;
        }
        let mut initiator = None;
        for offset in 0..n {
            let id = NodeId(((self.ae_cursor + offset) % n) as u32);
            if self.faults.is_serving(id) {
                initiator = Some(id);
                self.ae_cursor = (id.index() + 1) % n;
                break;
            }
        }
        let Some(initiator) = initiator else { return };
        let digests = Arc::new(self.ae_bucket_digests(initiator));
        let mut offered = false;
        for offset in 1..n {
            let peer = NodeId(((initiator.index() + offset) % n) as u32);
            if !self.faults.is_serving(peer) || !self.faults.reachable(initiator, peer) {
                continue;
            }
            offered = true;
            let latency = self.link_latency(initiator, peer);
            ctx.emit(
                latency,
                StoreEvent::Deliver {
                    dest: peer,
                    message: Message::AeDigest {
                        from: initiator,
                        buckets: Arc::clone(&digests),
                    },
                },
            );
        }
        if offered {
            self.totals.ae_rounds += 1;
        }
    }

    /// Peer side of the digest exchange: diffs the initiator's bucket
    /// digests against its own tables and answers with the mismatched
    /// buckets plus its own `(key, timestamp)` entries inside them. No reply
    /// when the tables agree — a converged pair costs one message per peer.
    fn on_ae_digest<C: EventCtx<StoreEvent>>(
        &mut self,
        dest: NodeId,
        from: NodeId,
        theirs: &[u64],
        ctx: &mut C,
    ) {
        if !self.faults.reachable(dest, from) {
            return;
        }
        let mine = self.ae_bucket_digests(dest);
        let mut mismatched: Vec<u32> = Vec::new();
        for b in 0..mine.len().max(theirs.len()) {
            if mine.get(b).copied().unwrap_or(0) != theirs.get(b).copied().unwrap_or(0) {
                mismatched.push(b as u32);
            }
        }
        if mismatched.is_empty() {
            return;
        }
        let buckets = self.config.anti_entropy_buckets.max(1);
        let mut entries = Vec::new();
        for index in 0..self.key_table.len() {
            if !mismatched.contains(&((index % buckets) as u32)) {
                continue;
            }
            let key = KeyId(index as u32);
            if let Some(ts) = self.nodes[dest.index()].digest(key) {
                entries.push((key, ts));
            }
        }
        let latency = self.link_latency(dest, from);
        ctx.emit(
            latency,
            StoreEvent::Deliver {
                dest: from,
                message: Message::AeKeys {
                    from: dest,
                    buckets: Arc::new(mismatched),
                    entries: Arc::new(entries),
                },
            },
        );
    }

    /// Initiator side of the diff: within the mismatched buckets, push rows
    /// the peer lacks (or holds stale copies of) and pull the keys whose
    /// peer copy is newer. Only ranges *both* nodes own are repaired —
    /// streaming a row to a non-replica would fight the placement, not heal
    /// it.
    fn on_ae_keys<C: EventCtx<StoreEvent>>(
        &mut self,
        dest: NodeId,
        from: NodeId,
        mismatched: &[u32],
        entries: &[(KeyId, Timestamp)],
        ctx: &mut C,
    ) {
        if !self.faults.reachable(dest, from) {
            return;
        }
        let buckets = self.config.anti_entropy_buckets.max(1);
        for index in 0..self.key_table.len() {
            if !mismatched.contains(&((index % buckets) as u32)) {
                continue;
            }
            let key = KeyId(index as u32);
            let Some(mine) = self.nodes[dest.index()].digest(key) else {
                continue;
            };
            if !self.replicas_for_id(key).as_slice().contains(&from) {
                continue;
            }
            let theirs = entries.iter().find(|(k, _)| *k == key).map(|(_, ts)| *ts);
            if theirs.is_none_or(|t| mine > t) {
                self.ae_stream_row(dest, from, key, ctx);
            }
        }
        let mut pull = Vec::new();
        for &(key, theirs) in entries {
            if !self.replicas_for_id(key).as_slice().contains(&dest) {
                continue;
            }
            let behind = self.nodes[dest.index()]
                .digest(key)
                .is_none_or(|mine| mine < theirs);
            if behind {
                pull.push(key);
            }
        }
        if !pull.is_empty() {
            let latency = self.link_latency(dest, from);
            ctx.emit(
                latency,
                StoreEvent::Deliver {
                    dest: from,
                    message: Message::AePull {
                        from: dest,
                        keys: Arc::new(pull),
                    },
                },
            );
        }
    }

    /// Peer answering a pull: streams the requested rows back. Each row
    /// travels as an ordinary repair write through the requester's write
    /// stage.
    fn on_ae_pull<C: EventCtx<StoreEvent>>(
        &mut self,
        dest: NodeId,
        from: NodeId,
        keys: &[KeyId],
        ctx: &mut C,
    ) {
        for &key in keys {
            self.ae_stream_row(dest, from, key, ctx);
        }
    }

    /// Streams one row from `source` to `target` as a counted repair write.
    /// Skips silently when the target became unreachable mid-exchange (the
    /// next round retries) or the row vanished between digest and stream.
    fn ae_stream_row<C: EventCtx<StoreEvent>>(
        &mut self,
        source: NodeId,
        target: NodeId,
        key: KeyId,
        ctx: &mut C,
    ) {
        if !self.faults.reachable(source, target) {
            return;
        }
        let Some(row) = self.nodes[source.index()].engine().get(key) else {
            return;
        };
        self.totals.ae_rows_streamed += 1;
        self.send_replica_work(source, target, Message::RepairWrite { key, row }, ctx);
    }

    /// The number of client-acknowledged keys on which at least one serving
    /// replica still lags the newest acknowledged timestamp — the graded
    /// form of [`Cluster::all_replicas_converged`]. The self-healing sweeps
    /// sample this on monitoring ticks to measure how fast a healed
    /// partition's divergence drains.
    pub fn divergent_keys(&mut self) -> usize {
        let mut divergent = 0;
        for index in 0..self.latest_acked.len() {
            let acked = self.latest_acked[index];
            if acked == Timestamp::ZERO {
                continue;
            }
            let key = KeyId(index as u32);
            let set = self.replicas_for_id(key);
            for &replica in set.as_slice() {
                if !self.faults.is_serving(replica) {
                    continue;
                }
                let held = self.nodes[replica.index()]
                    .digest(key)
                    .unwrap_or(Timestamp::ZERO);
                if held < acked {
                    divergent += 1;
                    break;
                }
            }
        }
        divergent
    }

    /// True when every serving replica of every client-acknowledged key
    /// holds a row at least as new as the newest acknowledged timestamp —
    /// the convergence predicate of the self-healing experiments. `&mut`
    /// because replica sets are memoised on first use.
    pub fn all_replicas_converged(&mut self) -> bool {
        for index in 0..self.latest_acked.len() {
            let acked = self.latest_acked[index];
            if acked == Timestamp::ZERO {
                continue;
            }
            let key = KeyId(index as u32);
            let set = self.replicas_for_id(key);
            for &replica in set.as_slice() {
                if !self.faults.is_serving(replica) {
                    continue;
                }
                let held = self.nodes[replica.index()]
                    .digest(key)
                    .unwrap_or(Timestamp::ZERO);
                if held < acked {
                    return false;
                }
            }
        }
        true
    }

    /// Elastic scale-out: a new node joins at `location`, takes its tokens on
    /// the ring, and is bootstrapped with the freshest copy of every key it
    /// now owns before serving reads (Cassandra's bootstrap-then-serve).
    /// Returns the new node's id.
    pub fn join_node(&mut self, location: Location) -> NodeId {
        let id = self.topology.push(location);
        let state_id = self.faults.add_node();
        debug_assert_eq!(id, state_id, "topology and fault state must agree");
        self.nodes.push(StorageNode::new(
            id,
            self.config.engine,
            self.config.node_concurrency,
        ));
        self.hints.push(Vec::new());
        self.rebuild_ring();
        self.rebalance_all_keys();
        id
    }

    /// Graceful scale-in: the node streams the freshest copy of its data to
    /// the new owners, leaves the ring and never serves again. Operations it
    /// was coordinating are aborted; hints addressed to it are dropped (the
    /// mutations they carried live on the replicas that acknowledged, and
    /// the rebalance below re-spreads the freshest rows).
    fn decommission_node<C: EventCtx<StoreEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        if !self.faults.is_member(node) || self.faults.members().len() <= 1 {
            return;
        }
        self.abort_ops_coordinated_by(node, ctx);
        self.hints[node.index()].clear();
        self.faults.decommission(node);
        self.rebuild_ring();
        self.rebalance_all_keys();
    }

    /// Rebuilds the token ring over the current membership and drops every
    /// memoised placement — the cache must never serve replica sets computed
    /// for a previous topology.
    fn rebuild_ring(&mut self) {
        let members = self.faults.members();
        self.ring = HashRing::with_members(&members, self.config.vnodes_per_node);
        self.placement.invalidate();
    }

    /// One anti-entropy pass after a membership change: every serving member
    /// of each key's (new) replica set receives the freshest row held by any
    /// live node *it can stream from* — streaming is node-to-node traffic
    /// and cannot cross an active partition, so a target only sees sources
    /// in its own connectivity group (a node that joined mid-partition
    /// bootstraps nothing until the heal). This is the streaming phase of
    /// bootstrap/decommission, run to completion before the next event —
    /// the paper-scale analogue is a node that only starts serving once its
    /// streams finish. `O(keys × nodes)` digests, paid once per membership
    /// change, never on the op path.
    fn rebalance_all_keys(&mut self) {
        for index in 0..self.key_table.len() {
            let key = KeyId(index as u32);
            let set = self.replicas_for_id(key);
            for i in 0..set.len() {
                let target = set.as_slice()[i];
                if !self.faults.is_serving(target) {
                    continue;
                }
                // Freshest copy among live nodes on the target's side of
                // any active cut.
                let mut newest: Option<(Timestamp, NodeId)> = None;
                for node in 0..self.nodes.len() as u32 {
                    let node = NodeId(node);
                    if node == target
                        || !self.faults.is_alive(node)
                        || self.faults.partition_group(node) != self.faults.partition_group(target)
                    {
                        continue;
                    }
                    if let Some(ts) = self.nodes[node.index()].digest(key) {
                        if newest.map(|(t, _)| ts > t).unwrap_or(true) {
                            newest = Some((ts, node));
                        }
                    }
                }
                let Some((ts, source)) = newest else { continue };
                let behind = self.nodes[target.index()]
                    .digest(key)
                    .map(|t| t < ts)
                    .unwrap_or(true);
                if !behind {
                    continue;
                }
                let Some(row) = self.nodes[source.index()].engine().get(key) else {
                    continue;
                };
                self.nodes[target.index()].engine_mut().apply_row(key, &row);
            }
        }
    }

    /// Fails an in-flight operation: the client gets an `aborted` completion
    /// through the normal `ClientReply` flow and the session can move on.
    fn stage_abort<C: EventCtx<StoreEvent>>(&mut self, op: OpId, ctx: &mut C) {
        let client_delay = self.client_latency();
        let Some(state) = self.ops.get_mut(op) else {
            return;
        };
        // `done`: no straggler response or ack can still arrive.
        let (kind, expected_timestamp, done) = match &state.progress {
            _ if state.replied => return,
            Progress::Read(r) => (
                OpKind::Read,
                r.expected_ts,
                r.contacted.is_empty() || r.responses.len() == r.contacted.len(),
            ),
            Progress::Write(w) => (OpKind::Write, Timestamp::ZERO, w.acks >= w.replica_count),
            Progress::Closed => return,
        };
        state.replied = true;
        state.staged = Some(Completion {
            op,
            kind,
            key: state.key,
            submitted_at: state.submitted_at,
            completed_at: SimTime::ZERO,
            consistency: state.consistency,
            replicas_contacted: 0,
            result: None,
            returned_timestamp: Timestamp::ZERO,
            expected_timestamp,
            stale: false,
            aborted: true,
        });
        if done {
            state.progress = Progress::Closed;
        }
        ctx.emit(client_delay, StoreEvent::ClientReply { op });
    }

    /// Ids of the operations still expecting replica traffic that satisfy
    /// `pred`, in ascending `OpId` order.
    fn open_ops_where(&self, pred: impl Fn(&OpState) -> bool) -> Vec<OpId> {
        self.ops
            .iter()
            .filter(|(_, s)| !matches!(s.progress, Progress::Closed) && pred(s))
            .map(|(op, _)| op)
            .collect()
    }

    /// Aborts every unanswered operation the given (crashed or leaving) node
    /// was coordinating, in deterministic (`OpId`) order.
    fn abort_ops_coordinated_by<C: EventCtx<StoreEvent>>(&mut self, node: NodeId, ctx: &mut C) {
        for op in self.open_ops_where(|s| s.coordinator == node && !s.replied) {
            self.stage_abort(op, ctx);
        }
    }

    /// Chaos-mode safety net: aborts every operation that has been pending
    /// longer than `timeout` (a partition installed mid-flight can strand
    /// responses no schedule-time check can predict), and purges replied
    /// entries whose stragglers were lost the same way. Returns the number
    /// of operations aborted. Call it periodically — the experiment runner
    /// does so on its monitoring tick — but only when a fault schedule is
    /// active: a healthy run must not pay (or perturb) anything.
    pub fn expire_stalled_ops<C: EventCtx<StoreEvent>>(
        &mut self,
        timeout: SimTime,
        ctx: &mut C,
    ) -> usize {
        let now = ctx.now();
        if timeout.is_zero() || now <= timeout {
            return 0;
        }
        let cutoff = now.saturating_sub(timeout);
        let mut aborted = 0;
        for op in self.open_ops_where(|s| s.submitted_at <= cutoff) {
            if self.ops.get(op).is_some_and(|s| !s.replied) {
                self.stage_abort(op, ctx);
                aborted += 1;
            }
            // Answered just now or earlier: its stragglers are lost.
            self.close_pending(op);
        }
        aborted
    }

    // ---- model-checking support -------------------------------------------

    /// Enables or disables hinted handoff. `true` (the default) is the real
    /// protocol. `false` is an *intentionally buggy* mutant — every mutation
    /// that should be stored as a hint (unreachable destination, in-flight
    /// delivery to a dead node, queued writes on a crashing node) is silently
    /// forgotten instead. It exists solely as a mutation-testing target: the
    /// `harmony-check` schedule explorer must catch the acked-write
    /// convergence violation this introduces. Never disable it outside tests.
    pub fn set_hinted_handoff_enabled(&mut self, enabled: bool) {
        self.hinted_handoff_enabled = enabled;
    }

    /// Newest timestamp acknowledged to any client for `key` — the reference
    /// value of the checker's no-lost-acked-write invariant.
    pub fn latest_acked_ts(&self, key: KeyId) -> Timestamp {
        self.latest_acked
            .get(key.index())
            .copied()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Operations still unresolved from the client's point of view: pending
    /// reads/writes that have not been answered plus staged completions whose
    /// `ClientReply` has not fired yet. Zero once a schedule fully quiesces.
    pub fn unresolved_ops(&self) -> usize {
        let unanswered = |s: &OpState| !matches!(s.progress, Progress::Closed) && !s.replied;
        self.ops
            .iter()
            .map(|(_, s)| usize::from(unanswered(s)) + usize::from(s.staged.is_some()))
            .sum()
    }

    /// A canonical dump of every protocol-relevant piece of cluster state, in
    /// a deterministic order (the op table walks in ascending `OpId` order). Two
    /// clusters with equal digest strings behave identically under any future
    /// event sequence, *except* through the two deliberately excluded fields:
    /// the RNG (its draws only label emitted events with latencies and decide
    /// background read repair, which scenarios pin to probability 0 or 1) and
    /// the monitoring probe counter (read-path telemetry only). The purity
    /// property tests compare these strings byte for byte; the schedule
    /// explorer hashes them for visited-state deduplication.
    pub fn state_digest_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "totals={:?};next_op={};last_ts={};next_coord={};hh={};acked={:?};",
            self.totals,
            self.next_op,
            self.last_timestamp,
            self.next_coordinator,
            self.hinted_handoff_enabled,
            self.latest_acked,
        );
        for (op, p) in self.ops.iter() {
            let open = (p.key, p.coordinator, p.submitted_at, p.consistency);
            match &p.progress {
                Progress::Read(r) => {
                    let sets = (r.contacted.as_slice(), r.replica_set.as_slice());
                    let _ = write!(
                        s,
                        "r{op:?}:{open:?},{},{},{sets:?},{:?}[",
                        p.required, p.replied, r.expected_ts
                    );
                    for (n, row) in r.responses.iter() {
                        let _ = write!(s, "{:?}={:?},", n, row.map(|r| r.latest_timestamp()));
                    }
                    s.push_str("];");
                }
                Progress::Write(w) => {
                    let _ = write!(s, "w{op:?}:{open:?},{},{},{w:?};", p.required, p.replied);
                }
                Progress::Closed => {}
            }
            if let Some(c) = &p.staged {
                let _ = write!(s, "c{op:?}={c:?};");
            }
        }
        for node in &self.nodes {
            let _ = write!(
                s,
                "n{:?}:cnt={:?};tel={:?};busy={}/{};",
                node.id,
                node.counters(),
                node.write_stage_telemetry(),
                node.busy_slots(Stage::Read),
                node.busy_slots(Stage::Write),
            );
            for m in node.queued_messages(Stage::Read) {
                let _ = write!(s, "qr={m:?};");
            }
            for m in node.queued_messages(Stage::Write) {
                let _ = write!(s, "qw={m:?};");
            }
            for k in 0..self.key_table.len() {
                if let Some(ts) = node.digest(KeyId(k as u32)) {
                    let _ = write!(s, "d{k}={ts:?};");
                }
            }
        }
        for (i, hints) in self.hints.iter().enumerate() {
            for (origin, m) in hints {
                let _ = write!(s, "h{i}:{origin:?}:{m:?};");
            }
        }
        let _ = write!(
            s,
            "faults={:?};churn={};samples={:?};ae_cursor={};",
            self.faults,
            self.partition_churn_baseline,
            self.write_key_samples.borrow(),
            self.ae_cursor,
        );
        s
    }

    /// FNV-1a hash of [`Cluster::state_digest_string`] — the compact form the
    /// schedule explorer keys its visited-state set on.
    pub fn state_digest(&self) -> u64 {
        fnv1a(self.state_digest_string().as_bytes())
    }
}

/// FNV-1a: stable across processes and platforms (unlike `DefaultHasher`,
/// which documents no cross-version stability), so explored-state counts in
/// committed reports are reproducible.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_absorb_adds_every_field() {
        let one = ClusterTotals {
            reads_submitted: 1,
            writes_submitted: 2,
            reads_completed: 3,
            writes_completed: 4,
            stale_reads: 5,
            repairs_issued: 6,
            ops_aborted: 7,
            protocol_drops: 8,
            hints_evicted: 9,
            ae_rounds: 10,
            ae_rows_streamed: 11,
        };
        let mut sum = one;
        sum.absorb(&one);
        assert_eq!(
            sum,
            ClusterTotals {
                reads_submitted: 2,
                writes_submitted: 4,
                reads_completed: 6,
                writes_completed: 8,
                stale_reads: 10,
                repairs_issued: 12,
                ops_aborted: 14,
                protocol_drops: 16,
                hints_evicted: 18,
                ae_rounds: 20,
                ae_rows_streamed: 22,
            }
        );
        let mut from_zero = ClusterTotals::default();
        from_zero.absorb(&one);
        assert_eq!(from_zero, one);
    }
    use harmony_sim::engine::Simulation;
    use harmony_sim::latency::Latency;

    #[test]
    fn non_negative_backlog_passes_valid_values_through() {
        assert_eq!(non_negative_backlog(0.0), 0.0);
        assert_eq!(non_negative_backlog(3.25), 3.25);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "negative backlog computed by the store")]
    fn non_negative_backlog_panics_on_sign_bugs_in_debug() {
        non_negative_backlog(-0.001);
    }

    fn test_cluster(latency_ms: f64) -> (Cluster, Simulation<StoreEvent>) {
        let topology = Topology::single_dc(2, 3);
        let network = NetworkModel::uniform(Latency::constant_ms(latency_ms));
        let config = StoreConfig {
            replication_factor: 3,
            ..StoreConfig::default()
        };
        let cluster = Cluster::new(config, topology, network, RngFactory::new(7));
        let sim = Simulation::new(7);
        (cluster, sim)
    }

    /// Drives the simulation until idle, returning all completions in order.
    fn drain(cluster: &mut Cluster, sim: &mut Simulation<StoreEvent>) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some((_, ev)) = sim.next() {
            if let Some(c) = cluster.handle(ev, sim) {
                out.push(c);
            }
        }
        out
    }

    /// Drives the simulation until `count` completions have been observed,
    /// leaving any still-pending events (e.g. in-flight replica propagation)
    /// in the queue. This is how a real client experiences the system: it
    /// gets its acknowledgement while background propagation continues.
    fn drain_until(
        cluster: &mut Cluster,
        sim: &mut Simulation<StoreEvent>,
        count: usize,
    ) -> Vec<Completion> {
        let mut out = Vec::new();
        while out.len() < count {
            let Some((_, ev)) = sim.next() else { break };
            if let Some(c) = cluster.handle(ev, sim) {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn write_then_read_returns_data() {
        let (mut cluster, mut sim) = test_cluster(0.2);
        cluster.submit_write(
            "user1",
            Mutation::single("f", b"v1".to_vec()),
            ConsistencyLevel::All,
            &mut sim,
        );
        let comps = drain(&mut cluster, &mut sim);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].kind, OpKind::Write);
        assert!(comps[0].latency() > SimTime::ZERO);

        cluster.submit_read("user1", ConsistencyLevel::One, &mut sim);
        let comps = drain(&mut cluster, &mut sim);
        assert_eq!(comps.len(), 1);
        let read = &comps[0];
        assert_eq!(read.kind, OpKind::Read);
        assert!(read.result.is_some());
        assert!(!read.stale, "write at ALL then read cannot be stale");
        // Both operations interned the same key once.
        assert_eq!(cluster.key_count(), 1);
        assert_eq!(cluster.key_name(read.key), "user1");
    }

    #[test]
    fn read_of_missing_key_completes_empty() {
        let (mut cluster, mut sim) = test_cluster(0.2);
        cluster.submit_read("missing", ConsistencyLevel::Quorum, &mut sim);
        let comps = drain(&mut cluster, &mut sim);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].result.is_none());
        assert!(!comps[0].stale);
        assert_eq!(comps[0].returned_timestamp, Timestamp::ZERO);
    }

    #[test]
    fn strong_reads_are_slower_than_eventual_reads() {
        // Zero service times make the comparison deterministic: the latency
        // difference then comes purely from waiting on more replicas.
        let topology = Topology::single_dc(2, 3);
        let network = NetworkModel::uniform(Latency::constant_ms(1.0));
        let config = StoreConfig {
            replication_factor: 3,
            read_service_ms: 0.0,
            write_service_ms: 0.0,
            ..StoreConfig::default()
        };
        let mut cluster = Cluster::new(config, topology, network, RngFactory::new(7));
        let mut sim: Simulation<StoreEvent> = Simulation::new(7);
        cluster.load_direct("k", &Mutation::single("f", b"v".to_vec()), Timestamp(1));

        let mut one_total = SimTime::ZERO;
        let mut all_total = SimTime::ZERO;
        for _ in 0..20 {
            cluster.submit_read("k", ConsistencyLevel::One, &mut sim);
            let one = drain(&mut cluster, &mut sim).remove(0);
            assert_eq!(one.replicas_contacted, 1);
            one_total += one.latency();
            cluster.submit_read("k", ConsistencyLevel::All, &mut sim);
            let all = drain(&mut cluster, &mut sim).remove(0);
            assert_eq!(all.replicas_contacted, 3);
            all_total += all.latency();
            assert!(
                all.latency() >= one.latency(),
                "ALL {:?} should not be faster than ONE {:?}",
                all.latency(),
                one.latency()
            );
        }
        assert!(all_total > one_total);
    }

    #[test]
    fn quorum_read_after_quorum_write_is_never_stale() {
        let (mut cluster, mut sim) = test_cluster(0.5);
        // Interleave quorum writes and quorum reads on the same key.
        for i in 0..20u64 {
            cluster.submit_write(
                "hot",
                Mutation::single("f", format!("v{i}").into_bytes()),
                ConsistencyLevel::Quorum,
                &mut sim,
            );
            let _ = drain(&mut cluster, &mut sim);
            cluster.submit_read("hot", ConsistencyLevel::Quorum, &mut sim);
            let comps = drain(&mut cluster, &mut sim);
            let read = comps.iter().find(|c| c.kind == OpKind::Read).unwrap();
            assert!(!read.stale, "iteration {i}");
        }
        assert_eq!(cluster.totals().stale_reads, 0);
    }

    #[test]
    fn eventual_reads_can_be_stale_under_concurrent_updates() {
        let (mut cluster, mut sim) = test_cluster(2.0);
        cluster.load_direct("hot", &Mutation::single("f", b"v0".to_vec()), Timestamp(1));
        // Write at ONE: the client is acknowledged as soon as the first
        // replica applies the mutation, while propagation to the remaining
        // replicas is still in flight. A read at ONE issued right after the
        // acknowledgement can then hit a not-yet-updated replica — the exact
        // scenario of the paper's Figure 2.
        let mut stale_seen = false;
        for i in 0..200u64 {
            cluster.submit_write(
                "hot",
                Mutation::single("f", format!("v{i}").into_bytes()),
                ConsistencyLevel::One,
                &mut sim,
            );
            // Wait only for the write acknowledgement, not for full propagation.
            let write_done = drain_until(&mut cluster, &mut sim, 1);
            assert_eq!(write_done.len(), 1);
            cluster.submit_read("hot", ConsistencyLevel::One, &mut sim);
            let comps = drain_until(&mut cluster, &mut sim, 1);
            stale_seen |= comps.iter().any(|c| c.kind == OpKind::Read && c.stale);
        }
        let _ = drain(&mut cluster, &mut sim);
        assert!(
            stale_seen,
            "with 2 ms propagation and immediate reads at ONE some staleness must occur"
        );
        assert!(cluster.totals().stale_reads > 0);
    }

    #[test]
    fn reading_all_replicas_is_never_stale_even_under_load() {
        let (mut cluster, mut sim) = test_cluster(2.0);
        for i in 0..100u64 {
            cluster.submit_write(
                "hot",
                Mutation::single("f", format!("v{i}").into_bytes()),
                ConsistencyLevel::One,
                &mut sim,
            );
            cluster.submit_read("hot", ConsistencyLevel::All, &mut sim);
        }
        let comps = drain(&mut cluster, &mut sim);
        for c in comps.iter().filter(|c| c.kind == OpKind::Read) {
            assert!(!c.stale);
        }
    }

    #[test]
    fn counters_track_replica_work() {
        let (mut cluster, mut sim) = test_cluster(0.2);
        for i in 0..30 {
            cluster.submit_write(
                &format!("k{i}"),
                Mutation::single("f", b"v".to_vec()),
                ConsistencyLevel::Quorum,
                &mut sim,
            );
        }
        for i in 0..30 {
            cluster.submit_read(&format!("k{i}"), ConsistencyLevel::One, &mut sim);
        }
        let _ = drain(&mut cluster, &mut sim);
        let counters = cluster.node_counters();
        let total_writes: u64 = counters.iter().map(|c| c.writes).sum();
        let total_reads: u64 = counters.iter().map(|c| c.reads).sum();
        // Every write reaches all 3 replicas; every ONE read touches 1 replica.
        assert_eq!(total_writes, 30 * 3);
        assert_eq!(total_reads, 30);
        let totals = cluster.totals();
        assert_eq!(totals.reads_completed, 30);
        assert_eq!(totals.writes_completed, 30);
    }

    #[test]
    fn write_stage_telemetry_accumulates_service_samples() {
        let (mut cluster, mut sim) = test_cluster(0.2);
        for i in 0..20 {
            cluster.submit_write(
                &format!("k{i}"),
                Mutation::single("f", b"v".to_vec()),
                ConsistencyLevel::Quorum,
                &mut sim,
            );
        }
        let _ = drain(&mut cluster, &mut sim);
        let telemetry = cluster.write_stage_telemetry();
        assert_eq!(telemetry.len(), cluster.node_count());
        let arrivals: u64 = telemetry.iter().map(|t| t.arrivals).sum();
        let completed: u64 = telemetry.iter().map(|t| t.completed).sum();
        // Every write reaches all 3 replicas (plus possible repair traffic).
        assert!(arrivals >= 60, "arrivals={arrivals}");
        assert_eq!(arrivals, completed, "queue drained");
        let service_total: f64 = telemetry.iter().map(|t| t.service_ms_total).sum();
        assert!(service_total > 0.0);
        // Mean sampled service time is in the ballpark of the configured mean.
        let mean = service_total / completed as f64;
        assert!(
            mean > 0.05 && mean < 1.0,
            "mean sampled write service {mean} ms vs configured {} ms",
            cluster.config().write_service_ms
        );
        // Queues are empty after draining.
        assert!(telemetry.iter().all(|t| t.queued == 0 && t.busy == 0));
    }

    #[test]
    fn replica_backlogs_reflect_per_node_service_factors() {
        let topology = Topology::single_dc(1, 3);
        let network = NetworkModel::uniform(Latency::constant_ms(0.2));
        let config = StoreConfig {
            replication_factor: 3,
            node_service_factors: vec![1.0, 2.0, 0.0],
            ..StoreConfig::default()
        };
        let cluster = Cluster::new(config, topology, network, RngFactory::new(5));
        // Idle cluster: all backlogs zero, vector sized to the node count.
        let backlogs = cluster.replica_backlog_ms();
        assert_eq!(backlogs.len(), 3);
        assert!(backlogs.iter().all(|b| *b == 0.0));
        assert_eq!(cluster.mutation_backlog_ms(), 0.0);
    }

    #[test]
    fn straggler_node_accumulates_a_longer_backlog() {
        // One node with 4x the write service time: under sustained ONE writes
        // its mutation queue must grow beyond its peers', which is exactly
        // the cross-replica dispersion the queueing model keys on.
        let topology = Topology::single_dc(1, 3);
        let network = NetworkModel::uniform(Latency::constant_ms(0.1));
        let config = StoreConfig {
            replication_factor: 3,
            node_concurrency: 1,
            write_service_ms: 0.4,
            node_service_factors: vec![4.0, 1.0, 1.0],
            background_read_repair_chance: 0.0,
            ..StoreConfig::default()
        };
        let mut cluster = Cluster::new(config, topology, network, RngFactory::new(11));
        let mut sim: Simulation<StoreEvent> = Simulation::new(11);
        for i in 0..300u64 {
            cluster.submit_write(
                &format!("k{}", i % 7),
                Mutation::single("f", b"v".to_vec()),
                ConsistencyLevel::One,
                &mut sim,
            );
        }
        // Drive the sim just far enough to see the queues build up.
        let mut peak: Vec<f64> = vec![0.0; 3];
        for _ in 0..4_000 {
            let Some((_, ev)) = sim.next() else { break };
            cluster.handle(ev, &mut sim);
            for (i, b) in cluster.replica_backlog_ms().iter().enumerate() {
                peak[i] = peak[i].max(*b);
            }
        }
        assert!(
            peak[0] > peak[1] && peak[0] > peak[2],
            "straggler backlog {peak:?}"
        );
    }

    #[test]
    fn write_key_samples_accumulate_and_drain() {
        let (mut cluster, mut sim) = test_cluster(0.2);
        for i in 0..12 {
            cluster.submit_write(
                &format!("k{}", i % 3),
                Mutation::single("f", b"v".to_vec()),
                ConsistencyLevel::One,
                &mut sim,
            );
        }
        let _ = drain(&mut cluster, &mut sim);
        let samples = cluster.drain_write_key_samples();
        assert_eq!(samples.len(), 12);
        let k0 = cluster.key_id("k0").unwrap();
        assert_eq!(samples.iter().filter(|k| **k == k0).count(), 4);
        // Draining empties the buffer.
        assert!(cluster.drain_write_key_samples().is_empty());
    }

    #[test]
    fn per_key_backlog_tracks_the_laggard_replica() {
        // One slow node, writes hammering a single key at ONE: the key's
        // backlog must reflect the deepest replica queue, while an untouched
        // key reports zero.
        let topology = Topology::single_dc(1, 3);
        let network = NetworkModel::uniform(Latency::constant_ms(0.1));
        let config = StoreConfig {
            replication_factor: 3,
            node_concurrency: 1,
            write_service_ms: 0.4,
            node_service_factors: vec![4.0, 4.0, 4.0],
            background_read_repair_chance: 0.0,
            ..StoreConfig::default()
        };
        let mut cluster = Cluster::new(config, topology, network, RngFactory::new(11));
        let mut sim: Simulation<StoreEvent> = Simulation::new(11);
        for _ in 0..200u64 {
            cluster.submit_write(
                "hot",
                Mutation::single("f", b"v".to_vec()),
                ConsistencyLevel::One,
                &mut sim,
            );
        }
        let hot = cluster.key_id("hot").unwrap();
        let cold = cluster.intern_key("cold");
        let keys = vec![hot, cold];
        let mut peak_hot = 0.0f64;
        for _ in 0..1_500 {
            let Some((_, ev)) = sim.next() else { break };
            cluster.handle(ev, &mut sim);
            let backlogs = cluster.per_key_backlog_ms(&keys);
            assert_eq!(backlogs.len(), 2);
            assert_eq!(backlogs[1], 0.0, "untouched key must have no backlog");
            peak_hot = peak_hot.max(backlogs[0]);
        }
        assert!(
            peak_hot > 1.0,
            "expected a visible per-key backlog, got {peak_hot} ms"
        );
        // The per-key backlog never exceeds the cluster-wide deepest queue.
        let _ = drain(&mut cluster, &mut sim);
        assert_eq!(cluster.per_key_backlog_ms(&keys), vec![0.0, 0.0]);
    }

    #[test]
    fn replica_sets_are_stable_and_sized() {
        let (mut cluster, _) = test_cluster(0.2);
        for i in 0..50 {
            let key = format!("user{i}");
            let reps = cluster.replicas_for(&key);
            assert_eq!(reps.len(), 3);
            assert_eq!(reps, cluster.replicas_for(&key));
            // The cached lookup agrees with the fresh ring walk.
            let id = cluster.intern_key(&key);
            assert_eq!(cluster.replicas_for_id(id).as_slice(), reps.as_slice());
        }
    }

    #[test]
    fn placement_cache_survives_and_invalidates() {
        let (mut cluster, _) = test_cluster(0.2);
        let id = cluster.intern_key("user1");
        let first = cluster.replicas_for_id(id);
        // Cached second lookup is identical.
        assert_eq!(cluster.replicas_for_id(id), first);
        let generation = cluster.placement.generation();
        cluster.invalidate_placement();
        assert_eq!(cluster.placement.generation(), generation + 1);
        // Recomputed from the (unchanged) ring: same placement.
        assert_eq!(cluster.replicas_for_id(id), first);
    }

    #[test]
    fn load_direct_populates_all_replicas() {
        let (mut cluster, mut sim) = test_cluster(0.2);
        cluster.load_direct("k", &Mutation::single("f", b"v".to_vec()), Timestamp(5));
        let id = cluster.key_id("k").unwrap();
        for node in cluster.replicas_for("k") {
            assert_eq!(
                cluster.node(node).engine().digest(id),
                Some(Timestamp(5)),
                "replica {node} not loaded"
            );
        }
        // A subsequent ONE read is fresh since all replicas agree.
        cluster.submit_read("k", ConsistencyLevel::One, &mut sim);
        let comps = drain(&mut cluster, &mut sim);
        assert!(!comps[0].stale);
    }

    #[test]
    fn read_repair_converges_stale_replicas() {
        let topology = Topology::single_dc(1, 3);
        let network = NetworkModel::uniform(Latency::constant_ms(0.5));
        let config = StoreConfig {
            replication_factor: 3,
            background_read_repair_chance: 1.0,
            ..StoreConfig::default()
        };
        let mut cluster = Cluster::new(config, topology, network, RngFactory::new(3));
        let mut sim: Simulation<StoreEvent> = Simulation::new(3);

        // Make one replica stale by writing directly to the other two.
        let replicas = cluster.replicas_for("k");
        let stale_node = replicas[2];
        let m = Mutation::single("f", b"fresh".to_vec());
        cluster.submit_write("k", m, ConsistencyLevel::All, &mut sim);
        let _ = drain(&mut cluster, &mut sim);
        let id = cluster.key_id("k").unwrap();
        // Manually age the third replica by checking digest equality first.
        let ts = cluster.node(replicas[0]).engine().digest(id).unwrap();
        assert_eq!(cluster.node(stale_node).engine().digest(id), Some(ts));

        // Now write at ONE so propagation is asynchronous, then read at QUORUM
        // repeatedly: read repair plus background repair must converge every
        // replica to the newest timestamp once the queue drains.
        cluster.submit_write(
            "k",
            Mutation::single("f", b"newer".to_vec()),
            ConsistencyLevel::One,
            &mut sim,
        );
        for _ in 0..5 {
            cluster.submit_read("k", ConsistencyLevel::Quorum, &mut sim);
        }
        let _ = drain(&mut cluster, &mut sim);
        let newest = cluster
            .replicas_for("k")
            .iter()
            .filter_map(|n| cluster.node(*n).engine().digest(id))
            .max()
            .unwrap();
        for node in cluster.replicas_for("k") {
            assert_eq!(
                cluster.node(node).engine().digest(id),
                Some(newest),
                "replica {node} still stale after read repair"
            );
        }
        assert!(cluster.totals().repairs_issued > 0);
    }

    #[test]
    fn crash_hints_mutations_and_restart_drains_them() {
        // Single service slot + slow writes so mutations pile up in the
        // victim's queue, then crash it: the queue must survive as hints and
        // replay on restart, converging the replica.
        let topology = Topology::single_dc(1, 3);
        let network = NetworkModel::uniform(Latency::constant_ms(0.1));
        let config = StoreConfig {
            replication_factor: 3,
            node_concurrency: 1,
            write_service_ms: 0.4,
            background_read_repair_chance: 0.0,
            ..StoreConfig::default()
        };
        let mut cluster = Cluster::new(config, topology, network, RngFactory::new(9));
        let mut sim: Simulation<StoreEvent> = Simulation::new(9);
        let victim = cluster.replicas_for("hot")[2];
        for _ in 0..50 {
            cluster.submit_write(
                "hot",
                Mutation::single("f", b"v".to_vec()),
                ConsistencyLevel::One,
                &mut sim,
            );
        }
        // Let some deliveries land so the victim's queue is non-empty.
        for _ in 0..120 {
            let Some((_, ev)) = sim.next() else { break };
            cluster.handle(ev, &mut sim);
        }
        cluster.apply_fault(&FaultEvent::CrashNode { node: victim }, &mut sim);
        assert!(!cluster.fault_state().is_serving(victim));
        assert_eq!(cluster.live_node_count(), 2);
        let _ = drain(&mut cluster, &mut sim);
        let hinted = cluster.hinted_mutations(victim);
        assert!(hinted > 0, "expected hinted mutations for the crashed node");
        let id = cluster.key_id("hot").unwrap();
        let live_newest = cluster
            .replicas_for("hot")
            .iter()
            .filter(|n| cluster.fault_state().is_serving(**n))
            .filter_map(|n| cluster.node(*n).digest(id))
            .max()
            .unwrap();
        assert!(
            cluster.node(victim).digest(id).unwrap_or(Timestamp::ZERO) < live_newest,
            "the crashed node must be behind while down"
        );
        // Restart: the hints replay and the node converges.
        cluster.apply_fault(&FaultEvent::RestartNode { node: victim }, &mut sim);
        assert_eq!(cluster.hinted_mutations(victim), 0);
        let _ = drain(&mut cluster, &mut sim);
        assert_eq!(
            cluster.node(victim).digest(id),
            Some(live_newest),
            "hint replay must converge the restarted replica"
        );
    }

    #[test]
    fn reads_avoid_crashed_replicas_and_writes_still_ack() {
        let (mut cluster, mut sim) = test_cluster(0.3);
        cluster.load_direct("k", &Mutation::single("f", b"v".to_vec()), Timestamp(1));
        let victim = cluster.replicas_for("k")[0];
        cluster.apply_fault(&FaultEvent::CrashNode { node: victim }, &mut sim);
        // Quorum reads and ONE writes keep completing on the surviving pair.
        for _ in 0..10 {
            cluster.submit_write(
                "k",
                Mutation::single("f", b"w".to_vec()),
                ConsistencyLevel::One,
                &mut sim,
            );
            cluster.submit_read("k", ConsistencyLevel::Quorum, &mut sim);
        }
        let comps = drain(&mut cluster, &mut sim);
        let reads: Vec<_> = comps.iter().filter(|c| c.kind == OpKind::Read).collect();
        assert_eq!(reads.len(), 10);
        assert!(reads.iter().all(|c| !c.aborted));
        assert_eq!(
            comps
                .iter()
                .filter(|c| c.kind == OpKind::Write && !c.aborted)
                .count(),
            10
        );
        assert_eq!(cluster.totals().ops_aborted, 0);
    }

    #[test]
    fn all_replicas_down_aborts_instead_of_stalling() {
        let (mut cluster, mut sim) = test_cluster(0.3);
        cluster.load_direct("k", &Mutation::single("f", b"v".to_vec()), Timestamp(1));
        for node in cluster.replicas_for("k") {
            cluster.apply_fault(&FaultEvent::CrashNode { node }, &mut sim);
        }
        cluster.submit_read("k", ConsistencyLevel::One, &mut sim);
        cluster.submit_write(
            "k",
            Mutation::single("f", b"w".to_vec()),
            ConsistencyLevel::One,
            &mut sim,
        );
        let comps = drain(&mut cluster, &mut sim);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.aborted));
        assert_eq!(cluster.totals().ops_aborted, 2);
        // The write still left hints for the whole (down) replica set.
        assert!(cluster
            .replicas_for("k")
            .iter()
            .any(|n| cluster.hinted_mutations(*n) > 0));
    }

    #[test]
    fn every_node_down_aborts_client_ops_instead_of_losing_them() {
        // With the whole cluster dead, any coordinator pick is dead too: the
        // client operation must come back aborted (connection error), never
        // silently vanish.
        let (mut cluster, mut sim) = test_cluster(0.3);
        cluster.load_direct("k", &Mutation::single("f", b"v".to_vec()), Timestamp(1));
        for node in cluster.topology().nodes().collect::<Vec<_>>() {
            cluster.apply_fault(&FaultEvent::CrashNode { node }, &mut sim);
        }
        assert_eq!(cluster.live_node_count(), 0);
        cluster.submit_read("k", ConsistencyLevel::One, &mut sim);
        cluster.submit_write(
            "k",
            Mutation::single("f", b"w".to_vec()),
            ConsistencyLevel::One,
            &mut sim,
        );
        let comps = drain(&mut cluster, &mut sim);
        assert_eq!(comps.len(), 2, "both operations must surface");
        assert!(comps.iter().all(|c| c.aborted));
        assert_eq!(cluster.totals().ops_aborted, 2);
    }

    #[test]
    fn restart_inside_a_partition_does_not_replay_hints_across_the_cut() {
        // Node crashes, accumulates hints from the majority side, then a
        // partition isolates it *before* it restarts: the replay must wait
        // for the heal — a restart must not smuggle data over the cut.
        let (mut cluster, mut sim) = test_cluster(0.3);
        cluster.load_direct("k", &Mutation::single("f", b"v0".to_vec()), Timestamp(1));
        let victim = cluster.replicas_for("k")[2];
        cluster.apply_fault(&FaultEvent::CrashNode { node: victim }, &mut sim);
        cluster.submit_write(
            "k",
            Mutation::single("f", b"v1".to_vec()),
            ConsistencyLevel::Quorum,
            &mut sim,
        );
        let _ = drain(&mut cluster, &mut sim);
        assert!(cluster.hinted_mutations(victim) > 0);
        let hinted = cluster.hinted_mutations(victim);
        // Partition the victim away, then restart it inside the window.
        let rest: Vec<NodeId> = cluster
            .topology()
            .nodes()
            .filter(|n| *n != victim)
            .collect();
        cluster.apply_fault(
            &FaultEvent::Partition {
                groups: vec![rest, vec![victim]],
            },
            &mut sim,
        );
        cluster.apply_fault(&FaultEvent::RestartNode { node: victim }, &mut sim);
        let _ = drain(&mut cluster, &mut sim);
        assert_eq!(
            cluster.hinted_mutations(victim),
            hinted,
            "hints must stay stored while the cut isolates their origin"
        );
        let id = cluster.key_id("k").unwrap();
        assert_eq!(
            cluster.node(victim).digest(id),
            Some(Timestamp(1)),
            "the isolated replica must not see the majority's write yet"
        );
        // Heal: now the hints replay and the replica converges.
        cluster.apply_fault(&FaultEvent::HealPartition, &mut sim);
        let _ = drain(&mut cluster, &mut sim);
        assert_eq!(cluster.hinted_mutations(victim), 0);
        assert!(cluster.node(victim).digest(id).unwrap() > Timestamp(1));
    }

    #[test]
    fn partition_hints_across_the_cut_and_heal_converges() {
        let (mut cluster, mut sim) = test_cluster(0.3);
        cluster.load_direct("k", &Mutation::single("f", b"v0".to_vec()), Timestamp(1));
        let replicas = cluster.replicas_for("k");
        let id = cluster.key_id("k").unwrap();
        // Cut the third replica off from everyone else.
        let minority = replicas[2];
        let majority: Vec<NodeId> = cluster
            .topology()
            .nodes()
            .filter(|n| *n != minority)
            .collect();
        cluster.apply_fault(
            &FaultEvent::Partition {
                groups: vec![majority, vec![minority]],
            },
            &mut sim,
        );
        cluster.submit_write(
            "k",
            Mutation::single("f", b"v1".to_vec()),
            ConsistencyLevel::Quorum,
            &mut sim,
        );
        let comps = drain(&mut cluster, &mut sim);
        assert!(comps.iter().all(|c| !c.aborted), "quorum survives the cut");
        let newest = cluster.node(replicas[0]).digest(id).unwrap();
        assert!(
            cluster.node(minority).digest(id).unwrap() < newest,
            "the cut-off replica must not see the write"
        );
        assert!(cluster.hinted_mutations(minority) > 0);
        // Heal: the hint replays and the minority converges.
        cluster.apply_fault(&FaultEvent::HealPartition, &mut sim);
        let _ = drain(&mut cluster, &mut sim);
        assert_eq!(cluster.node(minority).digest(id), Some(newest));
        assert_eq!(cluster.fault_state().counters().heals, 1);
    }

    #[test]
    fn slow_node_stretches_its_service_times() {
        let (mut cluster, mut sim) = test_cluster(0.1);
        let victim = NodeId(0);
        cluster.apply_fault(
            &FaultEvent::SlowNode {
                node: victim,
                service_factor: 50.0,
            },
            &mut sim,
        );
        assert_eq!(cluster.fault_state().service_factor(victim), 50.0);
        for i in 0..40 {
            cluster.submit_write(
                &format!("k{i}"),
                Mutation::single("f", b"v".to_vec()),
                ConsistencyLevel::All,
                &mut sim,
            );
        }
        let _ = drain(&mut cluster, &mut sim);
        let telemetry = cluster.write_stage_telemetry();
        let mean = |n: NodeId| {
            let t = &telemetry[n.index()];
            t.service_ms_total / t.completed.max(1) as f64
        };
        assert!(
            mean(victim) > 5.0 * mean(NodeId(1)),
            "slowed node mean {} vs peer {}",
            mean(victim),
            mean(NodeId(1))
        );
        // Restore to nominal speed.
        cluster.apply_fault(
            &FaultEvent::SlowNode {
                node: victim,
                service_factor: 1.0,
            },
            &mut sim,
        );
        assert!(!cluster.fault_state().any_active());
    }

    #[test]
    fn join_rebuilds_the_ring_and_bootstraps_the_new_node() {
        let (mut cluster, mut sim) = test_cluster(0.2);
        for i in 0..40 {
            cluster.load_direct(
                &format!("k{i}"),
                &Mutation::single("f", b"v".to_vec()),
                Timestamp(i + 1),
            );
        }
        let generation = cluster.placement.generation();
        cluster.apply_fault(&FaultEvent::JoinNode { dc: 0, rack: 0 }, &mut sim);
        let joined = NodeId(6);
        assert_eq!(cluster.node_count(), 7);
        assert_eq!(cluster.placement.generation(), generation + 1);
        assert!(cluster.fault_state().is_serving(joined));
        // The new node owns some keys, and holds the freshest copy of each
        // (bootstrap streaming finished before it serves).
        let mut owned = 0;
        for i in 0..40 {
            let name = format!("k{i}");
            let id = cluster.key_id(&name).unwrap();
            let reps = cluster.replicas_for(&name);
            assert_eq!(reps, {
                let cached = cluster.replicas_for_id(id);
                cached.as_slice().to_vec()
            });
            if reps.contains(&joined) {
                owned += 1;
                assert_eq!(cluster.node(joined).digest(id), Some(Timestamp(i + 1)));
            }
        }
        assert!(owned > 0, "7 nodes x 16 vnodes must hand the joiner keys");
        // Reads served by the joiner are fresh.
        for i in 0..40 {
            cluster.submit_read(&format!("k{i}"), ConsistencyLevel::One, &mut sim);
        }
        let comps = drain(&mut cluster, &mut sim);
        assert!(comps.iter().all(|c| !c.stale && !c.aborted));
    }

    #[test]
    fn mid_partition_joiner_bootstraps_at_the_heal() {
        // A node joining during an active partition is isolated: it owns
        // ring ranges immediately but can stream from nobody. The heal must
        // retry the anti-entropy pass so the joiner converges.
        let (mut cluster, mut sim) = test_cluster(0.2);
        for i in 0..40 {
            cluster.load_direct(
                &format!("k{i}"),
                &Mutation::single("f", b"v".to_vec()),
                Timestamp(i + 1),
            );
        }
        let everyone: Vec<NodeId> = cluster.topology().nodes().collect();
        cluster.apply_fault(
            &FaultEvent::Partition {
                groups: vec![everyone],
            },
            &mut sim,
        );
        cluster.apply_fault(&FaultEvent::JoinNode { dc: 0, rack: 0 }, &mut sim);
        let joined = NodeId(6);
        let owned: Vec<String> = (0..40)
            .map(|i| format!("k{i}"))
            .filter(|name| cluster.replicas_for(name).contains(&joined))
            .collect();
        assert!(!owned.is_empty(), "the joiner must own some keys");
        for name in &owned {
            let id = cluster.key_id(name).unwrap();
            assert_eq!(
                cluster.node(joined).digest(id),
                None,
                "{name}: nothing can stream across the cut"
            );
        }
        // Heal: streams are retried and the joiner converges.
        cluster.apply_fault(&FaultEvent::HealPartition, &mut sim);
        for name in &owned {
            let id = cluster.key_id(name).unwrap();
            assert!(
                cluster.node(joined).digest(id).is_some(),
                "{name} still missing on the joiner after the heal"
            );
        }
    }

    #[test]
    fn decommission_streams_data_out_and_leaves_the_ring() {
        let (mut cluster, mut sim) = test_cluster(0.2);
        for i in 0..40 {
            cluster.load_direct(
                &format!("k{i}"),
                &Mutation::single("f", b"v".to_vec()),
                Timestamp(i + 1),
            );
        }
        let leaving = NodeId(0);
        cluster.apply_fault(&FaultEvent::DecommissionNode { node: leaving }, &mut sim);
        assert!(!cluster.fault_state().is_serving(leaving));
        assert!(!cluster.fault_state().is_member(leaving));
        assert_eq!(cluster.live_node_count(), 5);
        // No replica set references the leaver, and every remaining replica
        // holds the freshest copy of every key.
        for i in 0..40 {
            let name = format!("k{i}");
            let id = cluster.key_id(&name).unwrap();
            let reps = cluster.replicas_for(&name);
            assert!(!reps.contains(&leaving), "{name} still placed on leaver");
            for node in reps {
                assert_eq!(cluster.node(node).digest(id), Some(Timestamp(i + 1)));
            }
        }
        // Reads after the decommission stay fresh and never touch the leaver.
        for i in 0..40 {
            cluster.submit_read(&format!("k{i}"), ConsistencyLevel::One, &mut sim);
        }
        let comps = drain(&mut cluster, &mut sim);
        assert!(comps.iter().all(|c| !c.stale && !c.aborted));
        assert_eq!(cluster.fault_state().counters().decommissions, 1);
    }

    #[test]
    fn expire_stalled_ops_frees_operations_stranded_by_a_cut() {
        // Construct the strand deterministically: the read is coordinated
        // and fanned out, then the coordinator is isolated before any
        // response can reach it. An ALL read needs every replica's answer
        // and at most one replica (the coordinator itself) can still
        // respond, so the operation can never complete — only the reaper
        // can free it.
        let (mut cluster, mut sim) = test_cluster(0.3);
        cluster.load_direct("k", &Mutation::single("f", b"v".to_vec()), Timestamp(1));
        cluster.submit_read("k", ConsistencyLevel::All, &mut sim);
        // Process exactly the client→coordinator delivery: round-robin makes
        // node 0 the coordinator, and handling this event schedules the
        // replica-read fan-out.
        let (_, ev) = sim.next().unwrap();
        cluster.handle(ev, &mut sim);
        // Cut the coordinator (node 0) off from everyone else.
        let a: Vec<NodeId> = vec![NodeId(0)];
        let b: Vec<NodeId> = cluster.topology().nodes().skip(1).collect();
        cluster.apply_fault(&FaultEvent::Partition { groups: vec![a, b] }, &mut sim);
        // Everything that can run, runs: replica reads are served, but their
        // responses are dropped at the cut, so the read never completes.
        let comps = drain(&mut cluster, &mut sim);
        assert!(
            comps.is_empty(),
            "the stranded ALL read must not complete across the cut: {comps:?}"
        );
        // Reap: the stranded op aborts instead of hanging the client.
        sim.schedule_in(
            SimTime::from_secs(2),
            StoreEvent::ClientReply { op: OpId(u64::MAX) },
        );
        let _ = sim.next(); // advance virtual time past the timeout
        let aborted = cluster.expire_stalled_ops(SimTime::from_secs(1), &mut sim);
        assert_eq!(aborted, 1);
        let comps = drain(&mut cluster, &mut sim);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].aborted);
        assert_eq!(cluster.totals().ops_aborted, 1);
    }

    /// An event context that only records what the cluster emits, in
    /// emission order.
    struct Recorder {
        now: SimTime,
        emitted: Vec<StoreEvent>,
    }

    impl EventCtx<StoreEvent> for Recorder {
        fn now(&self) -> SimTime {
            self.now
        }

        fn emit(&mut self, _delay: SimTime, event: StoreEvent) {
            self.emitted.push(event);
        }
    }

    impl Recorder {
        /// The ops whose `ClientReply` was emitted since the last call.
        fn take_replies(&mut self) -> Vec<u64> {
            std::mem::take(&mut self.emitted)
                .into_iter()
                .map(|event| match event {
                    StoreEvent::ClientReply { op } => op.0,
                    other => panic!("only client replies expected, got {other:?}"),
                })
                .collect()
        }
    }

    #[test]
    fn stranded_ops_abort_in_ascending_op_order() {
        // 24 ops, reads and writes interleaved so that every coordinator
        // (round-robin over 6 nodes) holds both kinds; none is delivered, so
        // all of them are stranded. The abort order is part of the
        // deterministic event sequence (each abort draws a client latency):
        // it must be ascending `OpId` across reads and writes, which the op
        // table yields by construction.
        let (mut cluster, _) = test_cluster(0.3);
        let mut ctx = Recorder {
            now: SimTime::ZERO,
            emitted: Vec::new(),
        };
        for i in 0..24u64 {
            let op = if i % 4 < 2 {
                cluster.submit_read("k", ConsistencyLevel::Quorum, &mut ctx)
            } else {
                let mutation = Mutation::single("f", b"v".to_vec());
                cluster.submit_write("k", mutation, ConsistencyLevel::Quorum, &mut ctx)
            };
            assert_eq!(op, OpId(i));
        }
        ctx.emitted.clear(); // the 24 client -> coordinator deliveries

        // Node 0 coordinates reads 0 and 12 and writes 6 and 18.
        cluster.apply_fault(&FaultEvent::CrashNode { node: NodeId(0) }, &mut ctx);
        assert_eq!(ctx.take_replies(), vec![0, 6, 12, 18]);

        // The reaper aborts everything else that is older than the timeout,
        // skipping the four already answered.
        ctx.now = SimTime::from_secs(2);
        let aborted = cluster.expire_stalled_ops(SimTime::from_secs(1), &mut ctx);
        let rest: Vec<u64> = (0..24).filter(|op| op % 6 != 0).collect();
        assert_eq!(aborted, rest.len());
        assert_eq!(ctx.take_replies(), rest);
        // A second sweep finds nothing left to abort or purge.
        assert_eq!(
            cluster.expire_stalled_ops(SimTime::from_secs(1), &mut ctx),
            0
        );
        assert!(ctx.emitted.is_empty());

        // Every staged abort is delivered exactly once; a repeated or
        // unknown reply is a silent no-op.
        assert_eq!(cluster.unresolved_ops(), 24);
        for op in 0..24 {
            let reply = StoreEvent::ClientReply { op: OpId(op) };
            let completion = cluster.handle(reply.clone(), &mut ctx).expect("staged");
            assert!(completion.aborted && completion.op == OpId(op));
            assert_eq!(cluster.handle(reply, &mut ctx), None);
        }
        assert_eq!(cluster.unresolved_ops(), 0);
        assert_eq!(cluster.totals().ops_aborted, 24);
    }

    #[test]
    fn completions_report_latency_components() {
        let (mut cluster, mut sim) = test_cluster(1.0);
        cluster.load_direct("k", &Mutation::single("f", b"v".to_vec()), Timestamp(1));
        cluster.submit_read("k", ConsistencyLevel::One, &mut sim);
        let c = drain(&mut cluster, &mut sim).remove(0);
        // Latency must at least cover: client->coord, coord->replica,
        // replica->coord, coord->client (uniform latency is scaled 0.05 for
        // loopback, so use a loose lower bound).
        assert!(c.latency() >= SimTime::from_millis_f64(0.5));
        assert_eq!(c.consistency, ConsistencyLevel::One);
    }

    // ---- panic-path regressions: every former unwrap!/unreachable! on the
    // ---- fault path must degrade into a counted `protocol_drops` instead.

    #[test]
    fn coordination_message_in_a_service_slot_is_counted_not_fatal() {
        // A ClientRead has no service stage; before the sweep this hit
        // `Stage::of(..).expect(..)` and took the whole run down. Injected
        // directly — the shape a fault-scheduling bug would produce.
        let (mut cluster, mut sim) = test_cluster(0.2);
        let key = cluster.intern_key("k");
        sim.schedule_in(
            SimTime::from_millis(1),
            StoreEvent::Process {
                node: NodeId(0),
                message: Message::ClientRead {
                    op: OpId(7),
                    key,
                    consistency: ConsistencyLevel::One,
                },
            },
        );
        let comps = drain(&mut cluster, &mut sim);
        assert!(comps.is_empty());
        assert_eq!(cluster.totals().protocol_drops, 1);
    }

    #[test]
    fn replica_write_to_a_nonexistent_slot_is_counted_not_fatal() {
        // A ReplicaWrite racing an elastic topology change can arrive for a
        // node slot that no longer has a hint vector; the old inner
        // `unreachable!` rematch panicked here.
        let (mut cluster, mut sim) = test_cluster(0.2);
        let key = cluster.intern_key("k");
        sim.schedule_in(
            SimTime::from_millis(1),
            StoreEvent::Deliver {
                dest: NodeId(99),
                message: Message::ReplicaWrite {
                    op: OpId(8),
                    key,
                    mutation: Arc::new(Mutation::single("f", b"v".to_vec())),
                    timestamp: Timestamp(3),
                    coordinator: NodeId(0),
                },
            },
        );
        let comps = drain(&mut cluster, &mut sim);
        assert!(comps.is_empty());
        assert_eq!(cluster.totals().protocol_drops, 1);
    }

    #[test]
    fn replica_write_to_a_dead_node_becomes_a_hint_under_its_coordinator() {
        // The healthy half of the same conversion: a valid slot stores the
        // hint, keyed by the coordinator carried inside the message.
        let (mut cluster, mut sim) = test_cluster(0.2);
        let key = cluster.intern_key("k");
        cluster.apply_fault(&FaultEvent::CrashNode { node: NodeId(1) }, &mut sim);
        sim.schedule_in(
            SimTime::from_millis(1),
            StoreEvent::Deliver {
                dest: NodeId(1),
                message: Message::ReplicaWrite {
                    op: OpId(9),
                    key,
                    mutation: Arc::new(Mutation::single("f", b"v".to_vec())),
                    timestamp: Timestamp(3),
                    coordinator: NodeId(0),
                },
            },
        );
        let _ = drain(&mut cluster, &mut sim);
        assert_eq!(cluster.hinted_mutations(NodeId(1)), 1);
        assert_eq!(cluster.totals().protocol_drops, 0);
    }

    #[test]
    fn replica_work_on_the_coordination_path_is_counted_not_fatal() {
        // Replica work surfacing in the *coordination* dispatch (a crafted
        // RepairWrite straggler whose service queueing was bypassed) used to
        // hit `unreachable!("replica work handled earlier")` via the
        // post-abort straggler path. Inject the one shape that skips the
        // replica-work queue: an ack for an operation nobody has pending is
        // tolerated silently, while stage-less repair traffic in a service
        // slot is counted.
        let (mut cluster, mut sim) = test_cluster(0.2);
        let key = cluster.intern_key("k");
        // Straggler ack after its op is gone: tolerated, not a drop.
        sim.schedule_in(
            SimTime::from_millis(1),
            StoreEvent::Deliver {
                dest: NodeId(0),
                message: Message::ReplicaWriteAck {
                    op: OpId(1234),
                    from: NodeId(1),
                },
            },
        );
        // A ClientWrite jammed into a service slot: stage-less, counted.
        sim.schedule_in(
            SimTime::from_millis(2),
            StoreEvent::Process {
                node: NodeId(1),
                message: Message::ClientWrite {
                    op: OpId(1235),
                    key,
                    mutation: Arc::new(Mutation::single("f", b"v".to_vec())),
                    consistency: ConsistencyLevel::One,
                },
            },
        );
        let comps = drain(&mut cluster, &mut sim);
        assert!(comps.is_empty());
        assert_eq!(cluster.totals().protocol_drops, 1);
    }

    #[test]
    fn churn_schedule_with_live_traffic_finishes_without_panics() {
        // Decommission + crash + restart while writes keep flowing: the
        // whole sweep's point is that no fault interleaving panics. All
        // drops stay zero because every message finds a legal home.
        let (mut cluster, mut sim) = test_cluster(0.3);
        for i in 0..10u64 {
            cluster.load_direct(
                &format!("user{i}"),
                &Mutation::single("f", b"v".to_vec()),
                Timestamp(i + 1),
            );
        }
        for round in 0..6u64 {
            for i in 0..10u64 {
                cluster.submit_write(
                    &format!("user{i}"),
                    Mutation::single("f", format!("r{round}").into_bytes()),
                    ConsistencyLevel::One,
                    &mut sim,
                );
            }
            match round {
                1 => cluster.apply_fault(&FaultEvent::CrashNode { node: NodeId(2) }, &mut sim),
                2 => {
                    cluster.apply_fault(&FaultEvent::DecommissionNode { node: NodeId(4) }, &mut sim)
                }
                3 => cluster.apply_fault(&FaultEvent::RestartNode { node: NodeId(2) }, &mut sim),
                4 => cluster.apply_fault(&FaultEvent::JoinNode { dc: 0, rack: 0 }, &mut sim),
                _ => {}
            }
            let _ = drain(&mut cluster, &mut sim);
        }
        let totals = cluster.totals();
        assert!(totals.writes_completed + totals.ops_aborted >= 55);
        assert_eq!(totals.protocol_drops, 0);
    }

    #[test]
    fn hint_cap_evicts_oldest_hints_and_restart_still_converges() {
        // A crashed replica accumulates hints while writes hammer its key at
        // ONE. With a per-origin cap of 1, each of the five rotating
        // coordinators keeps only its newest hint: 15 writes -> 5 kept, 10
        // evicted. The retained newest-per-origin set still converges the
        // node on restart (last-write-wins keeps the newest overall).
        let topology = Topology::single_dc(2, 3);
        let network = NetworkModel::uniform(Latency::constant_ms(0.2));
        let config = StoreConfig {
            replication_factor: 3,
            hint_cap_per_origin: 1,
            background_read_repair_chance: 0.0,
            ..StoreConfig::default()
        };
        let mut cluster = Cluster::new(config, topology, network, RngFactory::new(7));
        let mut sim: Simulation<StoreEvent> = Simulation::new(7);
        cluster.load_direct("k", &Mutation::single("f", b"v0".to_vec()), Timestamp(1));
        let key = cluster.key_id("k").unwrap();
        let dead = cluster.replicas_for_id(key).as_slice()[0];
        cluster.apply_fault(&FaultEvent::CrashNode { node: dead }, &mut sim);
        let _ = drain(&mut cluster, &mut sim);
        for i in 0..15u64 {
            cluster.submit_write(
                "k",
                Mutation::single("f", format!("v{i}").into_bytes()),
                ConsistencyLevel::One,
                &mut sim,
            );
            let _ = drain(&mut cluster, &mut sim);
        }
        assert_eq!(cluster.hinted_mutations(dead), 5);
        assert_eq!(cluster.totals().hints_evicted, 10);
        cluster.apply_fault(&FaultEvent::RestartNode { node: dead }, &mut sim);
        let _ = drain(&mut cluster, &mut sim);
        assert!(cluster.all_replicas_converged());
    }

    #[test]
    fn unbounded_hints_never_evict() {
        // Same scenario with the cap disabled (the default): every hint is
        // retained, byte-for-byte the pre-cap behaviour.
        let topology = Topology::single_dc(2, 3);
        let network = NetworkModel::uniform(Latency::constant_ms(0.2));
        let config = StoreConfig {
            replication_factor: 3,
            background_read_repair_chance: 0.0,
            ..StoreConfig::default()
        };
        let mut cluster = Cluster::new(config, topology, network, RngFactory::new(7));
        let mut sim: Simulation<StoreEvent> = Simulation::new(7);
        cluster.load_direct("k", &Mutation::single("f", b"v0".to_vec()), Timestamp(1));
        let key = cluster.key_id("k").unwrap();
        let dead = cluster.replicas_for_id(key).as_slice()[0];
        cluster.apply_fault(&FaultEvent::CrashNode { node: dead }, &mut sim);
        let _ = drain(&mut cluster, &mut sim);
        for i in 0..15u64 {
            cluster.submit_write(
                "k",
                Mutation::single("f", format!("v{i}").into_bytes()),
                ConsistencyLevel::One,
                &mut sim,
            );
            let _ = drain(&mut cluster, &mut sim);
        }
        assert_eq!(cluster.hinted_mutations(dead), 15);
        assert_eq!(cluster.totals().hints_evicted, 0);
    }

    #[test]
    fn anti_entropy_heals_divergence_with_zero_read_traffic() {
        // Manufacture engine-level divergence (one replica behind), then
        // drive anti-entropy rounds only. The cluster must converge without
        // a single read being served or submitted — repair is digest+stream,
        // not read-repair.
        let (mut cluster, mut sim) = test_cluster(0.2);
        for i in 0..8u64 {
            cluster.load_direct(
                &format!("k{i}"),
                &Mutation::single("f", b"v0".to_vec()),
                Timestamp(1),
            );
        }
        let key = cluster.key_id("k3").unwrap();
        let replicas = cluster.replicas_for_id(key);
        let laggard = replicas.as_slice()[0];
        let newer = Mutation::single("f", b"v1".to_vec());
        for &r in replicas.as_slice() {
            if r != laggard {
                cluster.nodes[r.index()]
                    .engine_mut()
                    .apply(key, &newer, Timestamp(9));
            }
        }
        cluster.latest_acked[key.index()] = Timestamp(9);
        assert!(!cluster.all_replicas_converged());
        let reads_before: u64 = cluster.node_counters().iter().map(|c| c.reads).sum();

        // One full cursor cycle: every serving node initiates once.
        for _ in 0..cluster.node_count() {
            cluster.run_anti_entropy_round(&mut sim);
            let _ = drain(&mut cluster, &mut sim);
        }

        assert!(cluster.all_replicas_converged());
        assert_eq!(
            cluster.node(laggard).digest(key),
            Some(Timestamp(9)),
            "laggard must hold the newest row"
        );
        let reads_after: u64 = cluster.node_counters().iter().map(|c| c.reads).sum();
        assert_eq!(reads_before, reads_after, "repair must not serve reads");
        assert_eq!(cluster.totals().reads_submitted, 0);
        let totals = cluster.totals();
        assert!(totals.ae_rounds >= 1);
        assert!(totals.ae_rows_streamed >= 1, "{totals:?}");
    }

    #[test]
    fn anti_entropy_on_converged_tables_streams_nothing() {
        let (mut cluster, mut sim) = test_cluster(0.2);
        for i in 0..8u64 {
            cluster.load_direct(
                &format!("k{i}"),
                &Mutation::single("f", b"v0".to_vec()),
                Timestamp(1),
            );
        }
        for _ in 0..cluster.node_count() {
            cluster.run_anti_entropy_round(&mut sim);
            let _ = drain(&mut cluster, &mut sim);
        }
        let totals = cluster.totals();
        assert!(totals.ae_rounds >= 1);
        assert_eq!(totals.ae_rows_streamed, 0, "{totals:?}");
    }

    #[test]
    fn anti_entropy_respects_an_active_partition() {
        // A cut isolating one fresh replica: rounds run on both sides but no
        // row crosses the partition; the far laggard stays behind until the
        // heal, after which a round closes the gap.
        let (mut cluster, mut sim) = test_cluster(0.2);
        cluster.load_direct("k", &Mutation::single("f", b"v0".to_vec()), Timestamp(1));
        let key = cluster.key_id("k").unwrap();
        let replicas = cluster.replicas_for_id(key);
        let fresh = replicas.as_slice()[0];
        let newer = Mutation::single("f", b"v1".to_vec());
        cluster.nodes[fresh.index()]
            .engine_mut()
            .apply(key, &newer, Timestamp(9));
        cluster.latest_acked[key.index()] = Timestamp(9);
        let rest: Vec<NodeId> = (0..cluster.node_count() as u32)
            .map(NodeId)
            .filter(|n| *n != fresh)
            .collect();
        cluster.apply_fault(
            &FaultEvent::Partition {
                groups: vec![vec![fresh], rest],
            },
            &mut sim,
        );
        for _ in 0..cluster.node_count() {
            cluster.run_anti_entropy_round(&mut sim);
            let _ = drain(&mut cluster, &mut sim);
        }
        assert!(
            !cluster.all_replicas_converged(),
            "no row may cross an active cut"
        );
        cluster.apply_fault(&FaultEvent::HealPartition, &mut sim);
        let _ = drain(&mut cluster, &mut sim);
        for _ in 0..cluster.node_count() {
            cluster.run_anti_entropy_round(&mut sim);
            let _ = drain(&mut cluster, &mut sim);
        }
        assert!(cluster.all_replicas_converged());
    }
}
