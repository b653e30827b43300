//! The real-threaded replicated store.
//!
//! Each node runs in its own OS thread and owns a versioned key-value map
//! behind a `parking_lot` lock. The client-facing [`LiveCluster`] handle plays
//! the coordinator role: it fans writes out to every replica, waits for as
//! many acknowledgements as the consistency level requires (the rest of the
//! replicas keep applying in the background — the real staleness window), and
//! for reads collects the requested number of replica responses and returns
//! the newest version.

use crate::detector::HeartbeatHistory;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use harmony_chaos::{FaultEvent, FaultState};
use harmony_sim::clock::SimTime;
use harmony_sim::topology::NodeId;
use harmony_store::cluster::WRITE_KEY_SAMPLE_CAP;
use harmony_store::consistency::ConsistencyLevel;
use harmony_store::keys::{KeyId, KeyTable};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`LiveCluster`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Number of node threads.
    pub nodes: usize,
    /// Replication factor.
    pub replication_factor: usize,
    /// Simulated one-way propagation delay applied before a replica applies a
    /// write or answers a read.
    pub propagation_delay: Duration,
    /// Relative jitter applied to the delay (0.2 = ±20%).
    pub jitter: f64,
    /// Seed for the jitter randomness.
    pub seed: u64,
    /// Accrual-detector convict threshold (φ): a replica whose silence
    /// reaches this suspicion level is steered around by partial reads as
    /// long as enough unsuspected replicas remain. Cassandra's conventional
    /// default is 8 (the observed silence had a 10⁻⁸ chance under the
    /// replica's own heartbeat cadence).
    pub suspicion_threshold: f64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            nodes: 5,
            replication_factor: 3,
            propagation_delay: Duration::from_micros(300),
            jitter: 0.2,
            seed: 1,
            suspicion_threshold: 8.0,
        }
    }
}

/// Error of [`LiveCluster::try_read`] / [`LiveCluster::try_write`]: the
/// client handle could not reach a single replica of the key (all crashed,
/// or all across an active partition). The operation did not complete — a
/// failed write leaves only hints — so callers may retry it; a later
/// attempt can succeed once a replica restarts or the cut heals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unavailable;

impl std::fmt::Display for Unavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no reachable replica")
    }
}

impl std::error::Error for Unavailable {}

/// Cumulative client-visible operation counters.
#[derive(Debug, Default)]
pub struct LiveCounters {
    /// Client reads completed.
    pub reads: AtomicU64,
    /// Client writes completed.
    pub writes: AtomicU64,
    /// Reads that returned a version older than the newest acknowledged write
    /// for that key (ground-truth staleness).
    pub stale_reads: AtomicU64,
}

enum NodeMsg {
    Write {
        key: KeyId,
        /// Shared across the replica fan-out: each copy is a refcount bump,
        /// not a payload clone.
        value: Arc<Vec<u8>>,
        version: u64,
        /// Acknowledged with the responding node's index, so the coordinator
        /// can credit the right replica's failure-detector heartbeat.
        ack: Sender<usize>,
    },
    Read {
        key: KeyId,
        /// Answered with the responding node's index plus the value, for the
        /// same heartbeat crediting.
        reply: Sender<(usize, Option<VersionedValue>)>,
    },
    Shutdown,
}

/// A stored version: the shared payload plus its version number.
type VersionedValue = (Arc<Vec<u8>>, u64);

/// A hinted mutation awaiting its destination: key, shared payload, version.
type HintedWrite = (KeyId, Arc<Vec<u8>>, u64);

struct NodeState {
    data: Mutex<HashMap<KeyId, VersionedValue>>,
    /// Writes accepted by a coordinator but not yet applied on this replica
    /// (in-flight in the delayed "network" or queued on the channel) — the
    /// live analogue of a pending-MutationStage count.
    pending_writes: AtomicU64,
    /// Cumulative replica writes accepted for this node (arrival counter of
    /// the write stage).
    accepted_writes: AtomicU64,
    /// Cumulative replica writes applied on this node (completion counter).
    applied_writes: AtomicU64,
}

/// Modelled apply cost: a map insert behind a mutex, ~1 µs per pending
/// write — conservative, so backlogs only surface milliseconds of lag when
/// thousands of writes are truly pending.
const APPLY_COST_MS: f64 = 0.001;

fn node_loop(index: usize, state: Arc<NodeState>, rx: Receiver<NodeMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            NodeMsg::Shutdown => break,
            NodeMsg::Write {
                key,
                value,
                version,
                ack,
            } => {
                {
                    let mut data = state.data.lock();
                    let entry = data.entry(key).or_insert_with(|| (Arc::new(Vec::new()), 0));
                    if version > entry.1 {
                        *entry = (value, version);
                    }
                }
                state.pending_writes.fetch_sub(1, Ordering::Relaxed);
                state.applied_writes.fetch_add(1, Ordering::Relaxed);
                let _ = ack.send(index);
            }
            NodeMsg::Read { key, reply } => {
                let result = state.data.lock().get(&key).cloned();
                let _ = reply.send((index, result));
            }
        }
    }
}

fn jittered(delay: Duration, jitter: f64, rng: &mut StdRng) -> Duration {
    if delay.is_zero() {
        return Duration::ZERO;
    }
    let factor = 1.0 + jitter.clamp(0.0, 1.0) * (rng.gen::<f64>() * 2.0 - 1.0);
    Duration::from_nanos((delay.as_nanos() as f64 * factor.max(0.0)) as u64)
}

/// A running real-threaded cluster.
///
/// Node membership is elastic: [`LiveCluster::apply_fault`] can crash,
/// restart, slow, partition, join or decommission nodes at run time, so the
/// node vectors live behind an `RwLock` (reads on the op path take the
/// uncontended read lock; only join extends them).
pub struct LiveCluster {
    config: LiveConfig,
    senders: RwLock<Vec<Sender<NodeMsg>>>,
    states: RwLock<Vec<Arc<NodeState>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    counters: Arc<LiveCounters>,
    next_version: AtomicU64,
    /// Rotates which replica a partial read contacts first, standing in for a
    /// dynamic snitch picking different "closest" replicas over time.
    read_rotation: AtomicU64,
    /// Newest acknowledged version per key, for ground-truth staleness checks.
    acked: Mutex<HashMap<KeyId, u64>>,
    /// Keys of client writes since the last monitoring drain — the sample
    /// stream for the monitor's heavy-hitter sketch. Striped by the key's
    /// primary replica (one bounded buffer per node slot, grown at join), so
    /// concurrent client threads writing to different primaries never
    /// serialize on one global sampling lock; the monitoring sweep drains
    /// stripe by stripe and concatenates in slot order.
    write_key_samples: RwLock<Vec<Mutex<Vec<KeyId>>>>,
    /// Samples discarded because their stripe was at capacity between two
    /// drains. Each stripe gets the full cap, so one hot primary can no
    /// longer starve every other node's samples — but when a stripe does
    /// overflow, the loss is counted instead of silent.
    sample_drops: AtomicU64,
    /// The key interner shared by every client handle; replica messages and
    /// per-node maps move 4-byte ids instead of cloning key strings RF times
    /// per operation. Interning an already-known key — every write after a
    /// key's first — only takes the read lock.
    key_table: RwLock<KeyTable>,
    /// Liveness, partition, slow-down and membership state — the same
    /// bookkeeping the simulated cluster runs. Node-level semantics (crash,
    /// restart, hints, slow-down, churn) match the simulator; partitions
    /// necessarily differ in one respect: this cluster has no server-side
    /// coordinators (the client handle plays that role), so its clients are
    /// pinned to partition group 0 — the first group listed in the event —
    /// and nodes on any other side of a cut are unreachable from the client
    /// (their writes become hints), whereas the simulator's multi-homed
    /// clients keep reaching coordinators on every side.
    faults: Mutex<FaultState>,
    /// Hinted handoff per destination node: `(key, value, version)` triples
    /// replayed into the node's channel on restart/heal.
    hints: Mutex<Vec<Vec<HintedWrite>>>,
    /// Join + decommission count when the active partition was installed;
    /// the heal re-streams only churn that happened during the cut.
    partition_churn_baseline: AtomicU64,
    /// Per-node φ accrual failure detectors, fed by replica acknowledgements
    /// and read replies the coordinator actually observes. A replica whose
    /// acks stop arriving — crashed before the liveness bookkeeping notices,
    /// or slowed so far that quorums always close without it — accrues
    /// suspicion, and partial reads steer around it.
    detectors: Mutex<Vec<HeartbeatHistory>>,
    /// Wall-clock epoch for detector timestamps.
    started: Instant,
}

impl LiveCluster {
    /// Starts the node threads.
    ///
    /// # Panics
    /// Panics if `nodes` or `replication_factor` is zero.
    pub fn start(config: LiveConfig) -> Self {
        assert!(config.nodes > 0, "cluster needs at least one node");
        assert!(
            config.replication_factor > 0,
            "replication factor must be at least 1"
        );
        let mut senders = Vec::with_capacity(config.nodes);
        let mut states = Vec::with_capacity(config.nodes);
        let mut handles = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let (tx, rx) = unbounded();
            let state = Arc::new(NodeState {
                data: Mutex::new(HashMap::new()),
                pending_writes: AtomicU64::new(0),
                accepted_writes: AtomicU64::new(0),
                applied_writes: AtomicU64::new(0),
            });
            states.push(Arc::clone(&state));
            handles.push(
                std::thread::Builder::new()
                    .name(format!("harmony-live-node-{i}"))
                    .spawn(move || node_loop(i, state, rx))
                    .expect("spawn node thread"),
            );
            senders.push(tx);
        }
        let nodes = config.nodes;
        LiveCluster {
            config,
            senders: RwLock::new(senders),
            states: RwLock::new(states),
            handles: Mutex::new(handles),
            counters: Arc::new(LiveCounters::default()),
            next_version: AtomicU64::new(1),
            read_rotation: AtomicU64::new(0),
            acked: Mutex::new(HashMap::new()),
            write_key_samples: RwLock::new((0..nodes).map(|_| Mutex::new(Vec::new())).collect()),
            sample_drops: AtomicU64::new(0),
            key_table: RwLock::new(KeyTable::new()),
            faults: Mutex::new(FaultState::new(nodes)),
            hints: Mutex::new(vec![Vec::new(); nodes]),
            partition_churn_baseline: AtomicU64::new(0),
            detectors: Mutex::new((0..nodes).map(|_| HeartbeatHistory::new()).collect()),
            started: Instant::now(),
        }
    }

    /// Records an observed response from `node` as a failure-detector
    /// heartbeat.
    fn note_heartbeat(&self, node: usize) {
        let now = SimTime::from_duration(self.started.elapsed());
        if let Some(history) = self.detectors.lock().get_mut(node) {
            history.record(now);
        }
    }

    /// The current φ suspicion level of `node`: how implausible its present
    /// silence is under its own observed response cadence. Zero until the
    /// node has produced at least two observed responses.
    pub fn suspicion(&self, node: usize) -> f64 {
        let now = SimTime::from_duration(self.started.elapsed());
        self.detectors
            .lock()
            .get(node)
            .map(|h| h.suspicion(now))
            .unwrap_or(0.0)
    }

    /// Current number of node slots (including crashed and decommissioned).
    pub fn node_count(&self) -> usize {
        self.states.read().len()
    }

    /// Number of nodes currently serving traffic.
    pub fn live_node_count(&self) -> usize {
        self.faults.lock().serving_count()
    }

    /// A snapshot of the fault/membership state.
    pub fn fault_state(&self) -> FaultState {
        self.faults.lock().clone()
    }

    /// Number of hinted mutations waiting for `node`.
    pub fn hinted_mutations(&self, node: usize) -> usize {
        self.hints.lock().get(node).map(Vec::len).unwrap_or(0)
    }

    /// True if the client handle can currently reach `node`: the node serves
    /// and sits on the client's side of any active partition (clients are
    /// pinned to partition group 0 — the first group listed in the event).
    fn client_reachable(faults: &FaultState, node: usize) -> bool {
        let id = NodeId(node as u32);
        faults.is_serving(id) && faults.partition_group(id).is_none_or(|g| g == 0)
    }

    /// Applies one fault event to the running cluster — the same schedule
    /// the simulated cluster consumes drives the threaded one.
    pub fn apply_fault(&self, fault: &FaultEvent) {
        match fault {
            FaultEvent::CrashNode { node } => {
                self.faults.lock().crash(*node);
            }
            FaultEvent::RestartNode { node } => {
                let (restarted, reachable) = {
                    let mut faults = self.faults.lock();
                    let restarted = faults.restart(*node);
                    (restarted, Self::client_reachable(&faults, node.index()))
                };
                // A node restarting on the far side of an active cut keeps
                // its hints until the heal — replaying now would smuggle the
                // client's mutations across the partition.
                if restarted && reachable {
                    self.drain_hints_for(node.index());
                }
            }
            FaultEvent::SlowNode {
                node,
                service_factor,
            } => {
                self.faults.lock().set_slow(*node, *service_factor);
            }
            FaultEvent::Partition { groups } => {
                let mut faults = self.faults.lock();
                faults.partition(groups);
                let c = faults.counters();
                self.partition_churn_baseline
                    .store(c.joins + c.decommissions, Ordering::Relaxed);
            }
            FaultEvent::HealPartition => {
                let (healed, churned) = {
                    let mut faults = self.faults.lock();
                    let healed = faults.heal();
                    let c = faults.counters();
                    (
                        healed,
                        c.joins + c.decommissions
                            > self.partition_churn_baseline.load(Ordering::Relaxed),
                    )
                };
                if healed {
                    let nodes = self.node_count();
                    for node in 0..nodes {
                        let serving = {
                            let faults = self.faults.lock();
                            Self::client_reachable(&faults, node)
                        };
                        if serving {
                            self.drain_hints_for(node);
                        }
                    }
                    // Streams that could not cross the cut (mid-partition
                    // joins/decommissions) are retried once connectivity is
                    // whole again.
                    if churned {
                        self.rebalance();
                    }
                }
            }
            FaultEvent::JoinNode { .. } => {
                self.join_node();
            }
            FaultEvent::DecommissionNode { node } => {
                self.decommission_node(node.index());
            }
        }
    }

    /// Replays every hint stored for `node` into its write channel; the
    /// replayed mutations queue behind live traffic exactly like the
    /// simulator's hint drain.
    fn drain_hints_for(&self, node: usize) {
        let drained = {
            let mut hints = self.hints.lock();
            match hints.get_mut(node) {
                Some(h) => std::mem::take(h),
                None => return,
            }
        };
        if drained.is_empty() {
            return;
        }
        let senders = self.senders.read();
        let states = self.states.read();
        for (key, value, version) in drained {
            states[node].pending_writes.fetch_add(1, Ordering::Relaxed);
            states[node].accepted_writes.fetch_add(1, Ordering::Relaxed);
            let (ack_tx, _ack_rx) = bounded(1);
            let _ = senders[node].send(NodeMsg::Write {
                key,
                value,
                version,
                ack: ack_tx,
            });
        }
    }

    /// Elastic scale-out: spawns a new node thread, registers it with the
    /// membership, and bootstraps it with the freshest copy of every key it
    /// now owns before it serves reads. Returns the new node's index.
    ///
    /// Publication order matters: the hint slot and the fault/membership
    /// slot are grown *before* the node appears in `states`/`senders`, so a
    /// concurrent write that observes the new node count always finds its
    /// hint vector and liveness entry already in place (node_count() — the
    /// placement input — derives from `states`, published last).
    pub fn join_node(&self) -> usize {
        let (tx, rx) = unbounded();
        let state = Arc::new(NodeState {
            data: Mutex::new(HashMap::new()),
            pending_writes: AtomicU64::new(0),
            accepted_writes: AtomicU64::new(0),
            applied_writes: AtomicU64::new(0),
        });
        self.hints.lock().push(Vec::new());
        self.write_key_samples.write().push(Mutex::new(Vec::new()));
        self.detectors.lock().push(HeartbeatHistory::new());
        let id = self.faults.lock().add_node();
        let index = {
            let mut states = self.states.write();
            let mut senders = self.senders.write();
            states.push(Arc::clone(&state));
            senders.push(tx);
            states.len() - 1
        };
        debug_assert_eq!(id.index(), index);
        self.handles.lock().push(
            std::thread::Builder::new()
                .name(format!("harmony-live-node-{index}"))
                .spawn(move || node_loop(index, state, rx))
                .expect("spawn node thread"),
        );
        self.rebalance();
        index
    }

    /// Graceful scale-in: the node's data is streamed to the new owners and
    /// it leaves the membership for good (its thread idles; `shutdown` joins
    /// it with the rest).
    pub fn decommission_node(&self, node: usize) {
        {
            let mut faults = self.faults.lock();
            if faults.members().len() <= 1 || !faults.is_member(NodeId(node as u32)) {
                return;
            }
            faults.decommission(NodeId(node as u32));
        }
        self.hints.lock().get_mut(node).map(std::mem::take);
        self.rebalance();
    }

    /// One anti-entropy pass after a membership change: every key moves its
    /// freshest alive copy onto the serving members of its (new) replica
    /// set. Applied directly to the node maps — the live analogue of
    /// bootstrap/decommission streaming finishing before traffic resumes.
    fn rebalance(&self) {
        let keys: Vec<(KeyId, String)> = {
            let table = self.key_table.read();
            self.acked
                .lock()
                .keys()
                .filter_map(|k| table.try_resolve(*k).map(|n| (*k, n.to_string())))
                .collect()
        };
        // Lock-order discipline: `faults` before `states`, matching every
        // probe-side path (`replica_backlog_ms` and friends); the inverse
        // order could deadlock against a concurrent join's `states.write()`
        // under a writer-fair RwLock.
        let faults = self.faults.lock();
        let states = self.states.read();
        for (key, name) in keys {
            for &target in &Self::replicas_over_members(
                &faults,
                states.len(),
                &name,
                self.config.replication_factor,
            ) {
                let target_id = NodeId(target as u32);
                if !faults.is_serving(target_id) {
                    continue;
                }
                // Streaming is node-to-node traffic: a target only pulls
                // from live sources on its own side of any active cut.
                let mut newest: Option<(Arc<Vec<u8>>, u64)> = None;
                for (i, state) in states.iter().enumerate() {
                    let source_id = NodeId(i as u32);
                    if i == target
                        || !faults.is_alive(source_id)
                        || faults.partition_group(source_id) != faults.partition_group(target_id)
                    {
                        continue;
                    }
                    if let Some((value, version)) = state.data.lock().get(&key) {
                        if newest.as_ref().map(|(_, v)| *version > *v).unwrap_or(true) {
                            newest = Some((Arc::clone(value), *version));
                        }
                    }
                }
                let Some((value, version)) = newest else {
                    continue;
                };
                let mut data = states[target].data.lock();
                let entry = data.entry(key).or_insert_with(|| (Arc::new(Vec::new()), 0));
                if version > entry.1 {
                    *entry = (value, version);
                }
            }
        }
    }

    /// Drains the buffered keys of client writes since the previous call —
    /// the observation stream of the monitor's heavy-hitter sketch. Stripes
    /// drain one at a time under their own lock and concatenate in slot
    /// order; a write that lands in an already-drained stripe mid-sweep is
    /// not lost, it simply waits for the next drain.
    pub fn drain_write_key_samples(&self) -> Vec<KeyId> {
        let stripes = self.write_key_samples.read();
        let mut all = Vec::new();
        for stripe in stripes.iter() {
            all.append(&mut stripe.lock());
        }
        all
    }

    /// Samples discarded so far because a stripe buffer was full. A non-zero
    /// value means the monitoring interval is too long (or the cap too
    /// small) for the write rate — the sketch still sees a uniform prefix of
    /// each stripe's traffic, but rate estimates lose the overflowed tail.
    pub fn dropped_write_key_samples(&self) -> u64 {
        self.sample_drops.load(Ordering::Relaxed)
    }

    /// Interns a key name (idempotent). Already-known names — every write
    /// after a key's first — resolve under the shared read lock; only a
    /// genuinely new key takes the write lock, where the double-checked
    /// `intern` stays idempotent against a racing first writer.
    pub fn intern_key(&self, name: &str) -> KeyId {
        if let Some(id) = self.key_table.read().get(name) {
            return id;
        }
        self.key_table.write().intern(name)
    }

    /// The id of an already-interned key name, if any.
    pub fn key_id(&self, name: &str) -> Option<KeyId> {
        self.key_table.read().get(name)
    }

    /// The name behind an interned key id (positional fallback for ids this
    /// cluster never produced).
    pub fn key_name(&self, id: KeyId) -> String {
        self.key_table
            .read()
            .try_resolve(id)
            .map(str::to_string)
            .unwrap_or_else(|| format!("key#{}", id.0))
    }

    /// The cluster configuration.
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// The cumulative operation counters.
    pub fn counters(&self) -> &LiveCounters {
        &self.counters
    }

    /// Mean per-node count of accepted-but-not-yet-applied writes expressed
    /// as the expected extra apply delay in milliseconds — the live analogue
    /// of the simulator's mutation-backlog probe, so the controller is not
    /// blind to write saturation on this backend either. Only mutations are
    /// counted; queued reads do not inflate the figure.
    pub fn mutation_backlog_ms(&self) -> f64 {
        let backlogs = self.replica_backlog_ms();
        if backlogs.is_empty() {
            return 0.0;
        }
        backlogs.iter().sum::<f64>() / backlogs.len() as f64
    }

    /// Per-node accepted-but-not-yet-applied write backlog in milliseconds,
    /// one entry per node. The cross-node *dispersion* of these values is the
    /// queue-wait spread signal of the queueing-aware staleness model, so the
    /// live backend feeds the same saturation-awareness path as the
    /// simulator.
    pub fn replica_backlog_ms(&self) -> Vec<f64> {
        let faults = self.faults.lock();
        self.states
            .read()
            .iter()
            .enumerate()
            .filter(|(i, _)| faults.is_serving(NodeId(*i as u32)))
            .map(|(_, s)| s.pending_writes.load(Ordering::Relaxed) as f64 * APPLY_COST_MS)
            .collect()
    }

    /// Per-node write-stage telemetry (arrival/completion counters plus the
    /// modelled apply cost as accumulated service time), so the monitor can
    /// derive per-replica arrival rates and a truthful — if tiny — write-stage
    /// utilisation on this backend too, instead of a structural zero that
    /// would keep the divergence detector permanently disarmed.
    pub fn write_stage_telemetry(&self) -> Vec<harmony_store::node::WriteStageTelemetry> {
        self.states
            .read()
            .iter()
            .map(|s| {
                let completed = s.applied_writes.load(Ordering::Relaxed);
                harmony_store::node::WriteStageTelemetry {
                    arrivals: s.accepted_writes.load(Ordering::Relaxed),
                    completed,
                    service_ms_total: completed as f64 * APPLY_COST_MS,
                    service_ms_sq_total: completed as f64 * APPLY_COST_MS * APPLY_COST_MS,
                    queued: s.pending_writes.load(Ordering::Relaxed) as usize,
                    busy: 0,
                }
            })
            .collect()
    }

    /// The replica node indices for a key: the first `replication_factor`
    /// ring *members* starting at the key's hash position. Decommissioned
    /// nodes are skipped (membership-aware placement); with every node a
    /// member this is the modular walk it always was.
    pub fn replicas_for(&self, key: &str) -> Vec<usize> {
        let total = self.node_count();
        let faults = self.faults.lock();
        Self::replicas_over_members(&faults, total, key, self.config.replication_factor)
    }

    fn replicas_over_members(
        faults: &FaultState,
        total: usize,
        key: &str,
        rf: usize,
    ) -> Vec<usize> {
        if total == 0 {
            return Vec::new();
        }
        // Dense membership — the steady state until a decommission actually
        // happens — keeps the original modular walk: no membership scan and
        // no intermediate allocation on the per-operation path.
        if !faults.any_decommissioned() {
            let rf = rf.min(total);
            let start = (harmony_sim_hash(key) % total as u64) as usize;
            return (0..rf).map(|i| (start + i) % total).collect();
        }
        let members: Vec<usize> = (0..total)
            .filter(|i| faults.is_member(NodeId(*i as u32)))
            .collect();
        if members.is_empty() {
            return Vec::new();
        }
        let rf = rf.min(members.len());
        let start = (harmony_sim_hash(key) % members.len() as u64) as usize;
        (0..rf)
            .map(|i| members[(start + i) % members.len()])
            .collect()
    }

    /// Writes `value` under `key`, waiting for as many replica
    /// acknowledgements as `level` requires. Returns the version assigned to
    /// the write.
    ///
    /// The mutation is delivered to every replica through a "network" that
    /// delays each copy independently by the configured propagation delay
    /// (plus jitter). The client returns as soon as `level` replicas have
    /// acknowledged; the remaining copies are still in flight — that window
    /// is where partial-quorum reads can observe stale data, exactly the
    /// situation of the paper's Figure 2.
    pub fn write(&self, key: &str, value: Vec<u8>, level: ConsistencyLevel) -> u64 {
        self.write_inner(key, value, level).0
    }

    /// Like [`LiveCluster::write`], but reports unavailability instead of
    /// silently degrading: `Err(Unavailable)` when no reachable replica could
    /// receive the mutation (it survives only as hints and did not advance
    /// the acknowledged ground truth). Retryable — see
    /// [`crate::harmony::LiveHarmony::write_with_retry`].
    pub fn try_write(
        &self,
        key: &str,
        value: Vec<u8>,
        level: ConsistencyLevel,
    ) -> Result<u64, Unavailable> {
        match self.write_inner(key, value, level) {
            (version, true) => Ok(version),
            (_, false) => Err(Unavailable),
        }
    }

    fn write_inner(&self, key: &str, value: Vec<u8>, level: ConsistencyLevel) -> (u64, bool) {
        let version = self.next_version.fetch_add(1, Ordering::SeqCst);
        let id = self.intern_key(key);
        let replicas = self.replicas_for(key);
        // Sample under the primary replica's stripe: writers to different
        // primaries take disjoint locks, so node threads never serialize on
        // a single global sampling mutex.
        {
            let stripe_index = replicas.first().copied().unwrap_or(0);
            let stripes = self.write_key_samples.read();
            if let Some(stripe) = stripes.get(stripe_index) {
                let mut samples = stripe.lock();
                if samples.len() < WRITE_KEY_SAMPLE_CAP {
                    samples.push(id);
                } else {
                    self.sample_drops.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let shared_value = Arc::new(value);
        // Replicas the client cannot reach (crashed, or across the cut) get
        // a durable hint instead of a delayed send; they cannot acknowledge.
        let mut sendable: Vec<(usize, usize, f64)> = Vec::with_capacity(replicas.len());
        {
            let mut hints = self.hints.lock();
            let faults = self.faults.lock();
            for (i, &r) in replicas.iter().enumerate() {
                if Self::client_reachable(&faults, r) {
                    sendable.push((i, r, faults.service_factor(NodeId(r as u32))));
                } else {
                    hints[r].push((id, Arc::clone(&shared_value), version));
                }
            }
        }
        let required = level.required_acks(replicas.len()).min(sendable.len());
        let (ack_tx, ack_rx) = bounded(replicas.len().max(1));
        {
            let senders = self.senders.read();
            let states = self.states.read();
            for &(i, r, factor) in &sendable {
                states[r].pending_writes.fetch_add(1, Ordering::Relaxed);
                states[r].accepted_writes.fetch_add(1, Ordering::Relaxed);
                let sender = senders[r].clone();
                let msg_key = id;
                let msg_value = Arc::clone(&shared_value);
                let ack = ack_tx.clone();
                let mut rng =
                    StdRng::seed_from_u64(self.config.seed ^ version.wrapping_mul(31) ^ i as u64);
                let mut delay =
                    jittered(self.config.propagation_delay, self.config.jitter, &mut rng);
                if factor != 1.0 {
                    // A slowed node's "apply path" stretches by its factor.
                    delay = Duration::from_nanos((delay.as_nanos() as f64 * factor) as u64);
                }
                // Deliver through the "network": an independent delayed send
                // per replica, so copies arrive out of order w.r.t. reads.
                std::thread::spawn(move || {
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    let _ = sender.send(NodeMsg::Write {
                        key: msg_key,
                        value: msg_value,
                        version,
                        ack,
                    });
                });
            }
        }
        drop(ack_tx);
        for _ in 0..required {
            if let Ok(node) = ack_rx.recv() {
                self.note_heartbeat(node);
            }
        }
        // A write no reachable replica received is a failure, not a success:
        // it must not advance the acked ground truth (later reads would be
        // charged stale against a version only hints hold) and it does not
        // count as a completed write — mirroring the simulated cluster,
        // which aborts the operation in this situation.
        if !sendable.is_empty() {
            {
                let mut acked = self.acked.lock();
                let entry = acked.entry(id).or_insert(0);
                if version > *entry {
                    *entry = version;
                }
            }
            self.counters.writes.fetch_add(1, Ordering::Relaxed);
        }
        (version, !sendable.is_empty())
    }

    /// Reads `key` from as many replicas as `level` requires and returns the
    /// newest `(value, version)` seen, or `None` if no contacted replica has
    /// the key.
    ///
    /// Partial reads rotate which replica they start from (a stand-in for a
    /// dynamic snitch), so consecutive reads of the same key do not always
    /// hit the same — possibly freshest — replica. The rotation runs over
    /// the *unsuspected* reachable replicas first: a replica whose φ
    /// suspicion has crossed the configured threshold is only contacted when
    /// the read cannot be satisfied without it.
    pub fn read(&self, key: &str, level: ConsistencyLevel) -> Option<(Vec<u8>, u64)> {
        self.read_inner(key, level).0
    }

    /// Like [`LiveCluster::read`], but reports unavailability instead of
    /// silently missing: `Err(Unavailable)` when the key exists but no
    /// replica is reachable. A miss on a never-written key is still
    /// `Ok(None)`. Retryable — see
    /// [`crate::harmony::LiveHarmony::read_with_retry`].
    pub fn try_read(
        &self,
        key: &str,
        level: ConsistencyLevel,
    ) -> Result<Option<(Vec<u8>, u64)>, Unavailable> {
        match self.read_inner(key, level) {
            (_, true) => Err(Unavailable),
            (best, false) => Ok(best),
        }
    }

    /// Read-target selection: `required` replicas out of `reachable`, least
    /// suspected first. While every reachable replica is below the convict
    /// threshold this is exactly the historical rotation; once some cross
    /// it, the rotation narrows to the unsuspected ones, falling back to
    /// suspected replicas only when the level demands more than remain.
    fn select_read_targets(
        &self,
        reachable: &[usize],
        required: usize,
        offset: usize,
    ) -> Vec<usize> {
        if required == 0 || reachable.is_empty() {
            return Vec::new();
        }
        let now = SimTime::from_duration(self.started.elapsed());
        let threshold = self.config.suspicion_threshold;
        let detectors = self.detectors.lock();
        let (fresh, suspected): (Vec<usize>, Vec<usize>) = reachable.iter().partition(|&&r| {
            detectors
                .get(r)
                .map(|h| h.suspicion(now) < threshold)
                .unwrap_or(true)
        });
        drop(detectors);
        if fresh.len() >= required {
            (0..required)
                .map(|i| fresh[(offset + i) % fresh.len()])
                .collect()
        } else {
            // The level needs more replicas than are unsuspected: contact
            // every fresh one and fill the remainder from the suspected pool.
            let mut targets = fresh;
            targets.extend(
                (0..required - targets.len()).map(|i| suspected[(offset + i) % suspected.len()]),
            );
            targets
        }
    }

    fn read_inner(&self, key: &str, level: ConsistencyLevel) -> (Option<(Vec<u8>, u64)>, bool) {
        // A never-written key has no id; no replica can hold it either.
        let id = self.key_id(key);
        let expected = id
            .and_then(|id| self.acked.lock().get(&id).copied())
            .unwrap_or(0);
        let replicas = self.replicas_for(key);
        // Only replicas the client can reach may answer; the consistency
        // level's ack count is clamped to what is actually available.
        let reachable: Vec<usize> = {
            let faults = self.faults.lock();
            replicas
                .iter()
                .copied()
                .filter(|r| Self::client_reachable(&faults, *r))
                .collect()
        };
        let required = level.required_acks(replicas.len()).min(reachable.len());
        let offset = self.read_rotation.fetch_add(1, Ordering::Relaxed) as usize;
        let (reply_tx, reply_rx) = bounded(replicas.len().max(1));
        // An unknown key exists on no replica: contact none, expect nothing.
        let expected_replies = if id.is_some() { required } else { 0 };
        if let Some(id) = id {
            let targets = self.select_read_targets(&reachable, expected_replies, offset);
            let senders = self.senders.read();
            for r in targets {
                let _ = senders[r].send(NodeMsg::Read {
                    key: id,
                    reply: reply_tx.clone(),
                });
            }
        }
        drop(reply_tx);
        let mut best: Option<VersionedValue> = None;
        for _ in 0..expected_replies {
            if let Ok((node, result)) = reply_rx.recv() {
                self.note_heartbeat(node);
                if let Some((value, version)) = result {
                    if best.as_ref().map(|(_, v)| version > *v).unwrap_or(true) {
                        best = Some((value, version));
                    }
                }
            }
        }
        // An unavailable read (the key exists but no replica is reachable)
        // is a failure: it is neither a completed read nor a stale
        // observation — mirroring the simulated cluster, which aborts the
        // operation. A miss on a never-written key is still a normal read.
        let unavailable = id.is_some() && reachable.is_empty();
        if !unavailable {
            self.counters.reads.fetch_add(1, Ordering::Relaxed);
        }
        let returned_version = best.as_ref().map(|(_, v)| *v).unwrap_or(0);
        if expected_replies > 0 && returned_version < expected {
            self.counters.stale_reads.fetch_add(1, Ordering::Relaxed);
        }
        (
            best.map(|(value, version)| (value.as_ref().clone(), version)),
            unavailable,
        )
    }

    /// Stops every node thread and waits for them to exit.
    pub fn shutdown(self) {
        drop(self); // Drop joins the threads.
    }
}

impl Drop for LiveCluster {
    fn drop(&mut self) {
        for tx in self.senders.read().iter() {
            let _ = tx.send(NodeMsg::Shutdown);
        }
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

fn harmony_sim_hash(key: &str) -> u64 {
    // FNV-1a, same construction as the discrete-event ring's key hashing.
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn quick_config() -> LiveConfig {
        LiveConfig {
            nodes: 4,
            replication_factor: 3,
            propagation_delay: Duration::from_micros(50),
            jitter: 0.1,
            seed: 11,
            suspicion_threshold: 8.0,
        }
    }

    #[test]
    fn write_then_read_round_trip() {
        let cluster = LiveCluster::start(quick_config());
        let v = cluster.write("user1", b"hello".to_vec(), ConsistencyLevel::All);
        assert!(v > 0);
        let (value, version) = cluster.read("user1", ConsistencyLevel::One).unwrap();
        assert_eq!(value, b"hello");
        assert_eq!(version, v);
        assert_eq!(cluster.counters().reads.load(Ordering::Relaxed), 1);
        assert_eq!(cluster.counters().writes.load(Ordering::Relaxed), 1);
        cluster.shutdown();
    }

    #[test]
    fn idle_cluster_reports_no_backlog() {
        let cluster = LiveCluster::start(quick_config());
        cluster.write("k", b"v".to_vec(), ConsistencyLevel::All);
        // All replicas have applied (write acked at ALL) and no work is
        // queued, so the backlog probe must read zero.
        assert_eq!(cluster.mutation_backlog_ms(), 0.0);
        cluster.shutdown();
    }

    #[test]
    fn missing_key_reads_none() {
        let cluster = LiveCluster::start(quick_config());
        assert!(cluster.read("nope", ConsistencyLevel::Quorum).is_none());
        cluster.shutdown();
    }

    #[test]
    fn quorum_write_then_quorum_read_sees_latest() {
        let cluster = LiveCluster::start(quick_config());
        for i in 0..50u64 {
            let v = cluster.write(
                "hot",
                format!("v{i}").into_bytes(),
                ConsistencyLevel::Quorum,
            );
            let (value, version) = cluster.read("hot", ConsistencyLevel::Quorum).unwrap();
            assert!(version >= v, "read version {version} older than acked {v}");
            assert!(!value.is_empty());
        }
        assert_eq!(cluster.counters().stale_reads.load(Ordering::Relaxed), 0);
        cluster.shutdown();
    }

    #[test]
    fn replica_sets_are_stable_and_distinct() {
        let cluster = LiveCluster::start(quick_config());
        for k in 0..50 {
            let key = format!("user{k}");
            let reps = cluster.replicas_for(&key);
            assert_eq!(reps.len(), 3);
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
            assert_eq!(reps, cluster.replicas_for(&key));
        }
        cluster.shutdown();
    }

    #[test]
    fn versions_are_monotone_across_threads() {
        let cluster = Arc::new(LiveCluster::start(quick_config()));
        let mut joins = Vec::new();
        for t in 0..4 {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                let mut versions = Vec::new();
                for i in 0..25 {
                    versions.push(c.write(
                        &format!("k{t}-{i}"),
                        vec![t as u8],
                        ConsistencyLevel::One,
                    ));
                }
                versions
            }));
        }
        let mut all: Vec<u64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len, "versions must be unique");
        assert_eq!(cluster.counters().writes.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn striped_sampling_loses_nothing_under_concurrency_or_joins() {
        let cluster = Arc::new(LiveCluster::start(quick_config()));
        // Concurrent writers to different keys route through different
        // primary stripes and take disjoint locks; every sample must still
        // surface in one drain.
        let mut joins = Vec::new();
        for t in 0..4u8 {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                for i in 0..25 {
                    c.write(&format!("s{t}-{i}"), vec![t], ConsistencyLevel::One);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(cluster.drain_write_key_samples().len(), 100);
        assert_eq!(cluster.dropped_write_key_samples(), 0);
        // A node joining mid-run grows the stripe vector before placement
        // can route a primary onto the new slot; sampling keeps working and
        // a second drain starts empty.
        cluster.join_node();
        for i in 0..30 {
            cluster.write(
                &format!("post-join-{i}"),
                b"v".to_vec(),
                ConsistencyLevel::One,
            );
        }
        assert_eq!(cluster.drain_write_key_samples().len(), 30);
        assert!(cluster.drain_write_key_samples().is_empty());
        assert_eq!(cluster.dropped_write_key_samples(), 0);
    }

    #[test]
    fn interning_is_idempotent_across_reader_fast_path() {
        let cluster = LiveCluster::start(quick_config());
        // First interning takes the write path; every later one must hit
        // the read fast path and return the same id.
        let first = cluster.intern_key("alpha");
        assert_eq!(cluster.intern_key("alpha"), first);
        assert_eq!(cluster.key_id("alpha"), Some(first));
        assert_eq!(cluster.key_name(first), "alpha");
        let second = cluster.intern_key("beta");
        assert_ne!(first, second);
        cluster.shutdown();
    }

    #[test]
    fn eventual_reads_can_be_stale_but_all_reads_are_not() {
        // With a visible propagation delay and writes acknowledged at ONE,
        // reads at ONE can catch a replica the write has not reached yet,
        // while reads at ALL never can.
        let cluster = LiveCluster::start(LiveConfig {
            nodes: 4,
            replication_factor: 3,
            propagation_delay: Duration::from_micros(400),
            jitter: 0.5,
            seed: 5,
            suspicion_threshold: 8.0,
        });
        for i in 0..200u64 {
            cluster.write("hot", format!("v{i}").into_bytes(), ConsistencyLevel::One);
            let _ = cluster.read("hot", ConsistencyLevel::One);
        }
        let stale_at_one = cluster.counters().stale_reads.load(Ordering::Relaxed);

        // Now read at ALL: the newest acked version must always be visible.
        for i in 200..260u64 {
            let v = cluster.write("hot", format!("v{i}").into_bytes(), ConsistencyLevel::One);
            let (_, version) = cluster.read("hot", ConsistencyLevel::All).unwrap();
            assert!(version >= v);
        }
        // Staleness at ONE is probabilistic; across 200 racing pairs with a
        // 400 us window it is overwhelmingly likely to have occurred at least
        // once. If this ever flakes the window below can be widened.
        assert!(
            stale_at_one > 0,
            "expected at least one stale read at consistency ONE"
        );
        cluster.shutdown();
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_deadlock() {
        let cluster = Arc::new(LiveCluster::start(quick_config()));
        let mut joins = Vec::new();
        for t in 0..3 {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                for i in 0..50 {
                    c.write(
                        &format!("k{}", i % 7),
                        vec![t as u8, i as u8],
                        ConsistencyLevel::Quorum,
                    );
                }
            }));
        }
        for _ in 0..3 {
            let c = Arc::clone(&cluster);
            joins.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let _ = c.read(&format!("k{}", i % 7), ConsistencyLevel::Quorum);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let counters = cluster.counters();
        assert_eq!(counters.writes.load(Ordering::Relaxed), 150);
        assert_eq!(counters.reads.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn crashed_replica_gets_hints_and_converges_on_restart() {
        let cluster = LiveCluster::start(quick_config());
        cluster.write("k", b"v0".to_vec(), ConsistencyLevel::All);
        let victim = cluster.replicas_for("k")[0];
        cluster.apply_fault(&FaultEvent::CrashNode {
            node: NodeId(victim as u32),
        });
        assert_eq!(cluster.live_node_count(), 3);
        // Writes at ALL keep completing on the surviving replicas; the
        // crashed one accumulates hints.
        for i in 0..20u64 {
            cluster.write("k", format!("v{i}").into_bytes(), ConsistencyLevel::All);
        }
        assert!(cluster.hinted_mutations(victim) > 0);
        // Reads avoid the dead replica and stay fresh at QUORUM.
        let (_, version) = cluster.read("k", ConsistencyLevel::Quorum).unwrap();
        assert!(version >= 20);
        // Restart: hints drain and the replica converges.
        cluster.apply_fault(&FaultEvent::RestartNode {
            node: NodeId(victim as u32),
        });
        assert_eq!(cluster.hinted_mutations(victim), 0);
        // Wait for the channel to drain (hint replay is asynchronous).
        for _ in 0..200 {
            if cluster.replica_backlog_ms()[victim] == 0.0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let id = cluster.key_id("k").unwrap();
        let states = cluster.states.read();
        let newest = states[victim].data.lock().get(&id).map(|(_, v)| *v);
        assert!(
            newest.unwrap_or(0) >= 20,
            "restarted replica behind: {newest:?}"
        );
        drop(states);
        cluster.shutdown();
    }

    #[test]
    fn partitioned_minority_is_hinted_and_heals() {
        let cluster = LiveCluster::start(quick_config());
        cluster.write("k", b"v0".to_vec(), ConsistencyLevel::All);
        let replicas = cluster.replicas_for("k");
        let minority = replicas[2];
        let majority: Vec<NodeId> = (0..cluster.node_count())
            .filter(|i| *i != minority)
            .map(|i| NodeId(i as u32))
            .collect();
        cluster.apply_fault(&FaultEvent::Partition {
            groups: vec![majority, vec![NodeId(minority as u32)]],
        });
        cluster.write("k", b"v1".to_vec(), ConsistencyLevel::Quorum);
        assert!(cluster.hinted_mutations(minority) > 0);
        cluster.apply_fault(&FaultEvent::HealPartition);
        assert_eq!(cluster.hinted_mutations(minority), 0);
        cluster.shutdown();
    }

    #[test]
    fn unreachable_write_does_not_advance_the_acked_ground_truth() {
        // Crash every replica of a key: the write is hinted everywhere and
        // must NOT count as acknowledged — otherwise every later read would
        // be charged stale against a version no serving replica holds.
        let cluster = LiveCluster::start(quick_config());
        cluster.write("k", b"v0".to_vec(), ConsistencyLevel::All);
        let writes_before = cluster.counters().writes.load(Ordering::Relaxed);
        for r in cluster.replicas_for("k") {
            cluster.apply_fault(&FaultEvent::CrashNode {
                node: NodeId(r as u32),
            });
        }
        let v = cluster.write("k", b"v1".to_vec(), ConsistencyLevel::One);
        assert!(v > 0, "a version is still allocated");
        assert_eq!(
            cluster.counters().writes.load(Ordering::Relaxed),
            writes_before,
            "an unreachable write is not a completed write"
        );
        // The failed write left hints but no replica data; a read after the
        // restart is served from the hint replay without a phantom stale.
        let stale_before = cluster.counters().stale_reads.load(Ordering::Relaxed);
        for r in cluster.replicas_for("k") {
            cluster.apply_fault(&FaultEvent::RestartNode {
                node: NodeId(r as u32),
            });
        }
        for _ in 0..200 {
            if cluster.mutation_backlog_ms() == 0.0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let (_, version) = cluster.read("k", ConsistencyLevel::All).unwrap();
        assert!(version >= 1);
        assert_eq!(
            cluster.counters().stale_reads.load(Ordering::Relaxed),
            stale_before,
            "no stale read may be charged against the failed write's version"
        );
        cluster.shutdown();
    }

    #[test]
    fn join_and_decommission_rebalance_the_live_data() {
        let cluster = LiveCluster::start(quick_config());
        for i in 0..30 {
            cluster.write(&format!("user{i}"), vec![i as u8], ConsistencyLevel::All);
        }
        // Scale out: the new node owns some keys and holds their data.
        let joined = cluster.join_node();
        assert_eq!(cluster.node_count(), 5);
        assert_eq!(cluster.live_node_count(), 5);
        let mut owned = 0;
        for i in 0..30 {
            let name = format!("user{i}");
            if cluster.replicas_for(&name).contains(&joined) {
                owned += 1;
                let id = cluster.key_id(&name).unwrap();
                let states = cluster.states.read();
                assert!(
                    states[joined].data.lock().get(&id).is_some(),
                    "{name} not bootstrapped onto the joiner"
                );
            }
        }
        assert!(owned > 0, "the joiner must own some keys");
        // Scale in: the leaver's keys move and reads stay correct.
        cluster.apply_fault(&FaultEvent::DecommissionNode { node: NodeId(0) });
        assert_eq!(cluster.live_node_count(), 4);
        for i in 0..30 {
            let name = format!("user{i}");
            assert!(!cluster.replicas_for(&name).contains(&0));
            let (value, _) = cluster.read(&name, ConsistencyLevel::Quorum).unwrap();
            assert_eq!(value, vec![i as u8]);
        }
        cluster.shutdown();
    }

    #[test]
    fn observed_acks_feed_the_failure_detector() {
        let cluster = LiveCluster::start(quick_config());
        // ALL-level writes observe an ack from every replica: each builds a
        // heartbeat history with a sub-millisecond cadence.
        for i in 0..40u64 {
            cluster.write("k", format!("v{i}").into_bytes(), ConsistencyLevel::All);
        }
        let replicas = cluster.replicas_for("k");
        let before: Vec<f64> = replicas.iter().map(|r| cluster.suspicion(*r)).collect();
        // Total silence: suspicion must grow for every replica, far past the
        // convict threshold (80 ms of silence against a sub-ms cadence).
        std::thread::sleep(Duration::from_millis(80));
        for (i, r) in replicas.iter().enumerate() {
            let after = cluster.suspicion(*r);
            assert!(
                after > before[i] && after > 8.0,
                "node {r}: suspicion {after} (was {})",
                before[i]
            );
        }
        cluster.shutdown();
    }

    #[test]
    fn partial_reads_steer_around_a_suspected_replica() {
        // Build heartbeat history for every replica, then slow one so hard
        // that quorums always close without it: its acks stop being
        // observed, suspicion accrues, and partial reads avoid it — staying
        // fresh even though the slowed replica lags far behind.
        let cluster = LiveCluster::start(LiveConfig {
            nodes: 4,
            replication_factor: 3,
            propagation_delay: Duration::from_micros(200),
            jitter: 0.1,
            seed: 7,
            suspicion_threshold: 8.0,
        });
        for i in 0..30u64 {
            cluster.write("k", format!("w{i}").into_bytes(), ConsistencyLevel::All);
        }
        let slow = cluster.replicas_for("k")[2];
        cluster.apply_fault(&FaultEvent::SlowNode {
            node: NodeId(slow as u32),
            service_factor: 400.0,
        });
        // Quorum writes close on the two healthy replicas (the slowed one's
        // acks arrive ~80 ms late, after the coordinator stopped
        // listening), so the healthy pair keeps heartbeating while the
        // slowed detector goes silent.
        for _ in 0..40 {
            cluster.write("k", b"w".to_vec(), ConsistencyLevel::Quorum);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            cluster.suspicion(slow) > 8.0,
            "slowed replica not suspected: {}",
            cluster.suspicion(slow)
        );
        for r in cluster.replicas_for("k") {
            if r != slow {
                assert!(
                    cluster.suspicion(r) < 8.0,
                    "healthy replica {r} wrongly suspected: {}",
                    cluster.suspicion(r)
                );
            }
        }
        // Every quorum write was applied by both healthy replicas before it
        // was acknowledged, so a ONE-level read that avoids the suspect can
        // never observe staleness; one that hit the slowed replica would.
        let stale_before = cluster.counters().stale_reads.load(Ordering::Relaxed);
        for _ in 0..30 {
            let (_, version) = cluster.read("k", ConsistencyLevel::One).unwrap();
            assert!(version > 0);
        }
        assert_eq!(
            cluster.counters().stale_reads.load(Ordering::Relaxed),
            stale_before,
            "a read contacted the lagging suspect"
        );
        cluster.shutdown();
    }

    #[test]
    fn try_ops_report_unavailability_and_recover() {
        let cluster = LiveCluster::start(quick_config());
        cluster.write("k", b"v0".to_vec(), ConsistencyLevel::All);
        assert!(cluster.try_read("k", ConsistencyLevel::Quorum).is_ok());
        // A never-written key is a miss, not an unavailability.
        assert_eq!(cluster.try_read("nope", ConsistencyLevel::One), Ok(None));
        let replicas = cluster.replicas_for("k");
        for r in &replicas {
            cluster.apply_fault(&FaultEvent::CrashNode {
                node: NodeId(*r as u32),
            });
        }
        assert_eq!(
            cluster.try_read("k", ConsistencyLevel::One),
            Err(Unavailable)
        );
        assert_eq!(
            cluster.try_write("k", b"v1".to_vec(), ConsistencyLevel::One),
            Err(Unavailable)
        );
        for r in &replicas {
            cluster.apply_fault(&FaultEvent::RestartNode {
                node: NodeId(*r as u32),
            });
        }
        assert!(cluster
            .try_write("k", b"v2".to_vec(), ConsistencyLevel::One)
            .is_ok());
        assert!(cluster.try_read("k", ConsistencyLevel::All).is_ok());
        cluster.shutdown();
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        LiveCluster::start(LiveConfig {
            nodes: 0,
            ..quick_config()
        });
    }
}
