//! A single replica node: its storage engine, a bounded service capacity with
//! a FIFO queue, and the access counters the monitoring module reads.
//!
//! The bounded service capacity is what makes the cluster saturate when the
//! number of client threads exceeds what the hosts can serve concurrently —
//! the effect behind the throughput roll-off beyond 90 threads in Figure 5(c)
//! and 5(d) of the paper.

use crate::engine::{EngineConfig, StorageEngine};
use crate::keys::KeyId;
use crate::messages::Message;
use crate::types::{Mutation, Row, Timestamp};
use harmony_sim::topology::NodeId;
use std::collections::VecDeque;

/// Cumulative per-node operation counters — the analogue of the counters the
/// paper's monitoring module collects with Cassandra's `nodetool`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Replica read operations served.
    pub reads: u64,
    /// Replica write operations applied (client writes, not repair traffic).
    pub writes: u64,
    /// Repair writes applied (read repair and async propagation).
    pub repairs: u64,
    /// Messages that had to wait in the service queue.
    pub queued: u64,
}

/// The two replica-side service stages, mirroring Cassandra's separate read
/// and mutation thread pools. Keeping them separate matters for fidelity:
/// a read is *not* serialised behind a mutation that reached the replica
/// earlier, so a replica can legitimately serve a stale value while the
/// mutation is still queued — the raw material of the paper's Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The read stage.
    Read,
    /// The mutation stage (client writes, async propagation, read repair).
    Write,
}

impl Stage {
    /// The stage that processes a given message, or `None` for coordination
    /// messages that cost no replica service time.
    pub fn of(message: &Message) -> Option<Stage> {
        match message {
            Message::ReplicaRead { .. } => Some(Stage::Read),
            Message::ReplicaWrite { .. } | Message::RepairWrite { .. } => Some(Stage::Write),
            _ => None,
        }
    }
}

/// Cumulative write-stage (mutation-stage) telemetry for one node: the raw
/// material of the queueing-aware staleness model. Arrival counts, completed
/// service counts and accumulated (sampled) service times let the monitor
/// derive per-replica arrival rates, the mean service time and its variance;
/// the live queue length and busy slots give the instantaneous backlog.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WriteStageTelemetry {
    /// Mutations (client writes, async propagation, read repair) that entered
    /// the write stage — queued or started.
    pub arrivals: u64,
    /// Mutations whose service completed.
    pub completed: u64,
    /// Sum of the sampled service times of started mutations (ms).
    pub service_ms_total: f64,
    /// Sum of squared sampled service times (ms²), for variance estimation.
    pub service_ms_sq_total: f64,
    /// Mutations currently waiting for a service slot.
    pub queued: usize,
    /// Service slots currently busy.
    pub busy: usize,
}

#[derive(Debug, Clone, Default)]
struct StageQueue {
    queue: VecDeque<Message>,
    busy: usize,
}

/// A storage node. `Clone` is deliberate: the model checker snapshots whole
/// nodes (queues, engine, telemetry) to backtrack over alternative schedules.
#[derive(Debug, Clone)]
pub struct StorageNode {
    /// This node's identifier.
    pub id: NodeId,
    engine: StorageEngine,
    counters: NodeCounters,
    read_stage: StageQueue,
    write_stage: StageQueue,
    write_telemetry: WriteStageTelemetry,
    /// Maximum concurrent operations per stage (worker threads / cores).
    concurrency: usize,
}

impl StorageNode {
    /// Creates a node with the given engine configuration and per-stage
    /// service concurrency (clamped to at least 1).
    pub fn new(id: NodeId, engine_config: EngineConfig, concurrency: usize) -> Self {
        StorageNode {
            id,
            engine: StorageEngine::new(engine_config),
            counters: NodeCounters::default(),
            read_stage: StageQueue::default(),
            write_stage: StageQueue::default(),
            write_telemetry: WriteStageTelemetry::default(),
            concurrency: concurrency.max(1),
        }
    }

    /// The node's cumulative counters.
    pub fn counters(&self) -> NodeCounters {
        self.counters
    }

    /// Read-only access to the storage engine (tests, tools).
    pub fn engine(&self) -> &StorageEngine {
        &self.engine
    }

    /// Mutable access to the storage engine, for writes that bypass the
    /// message layer (bulk loading, rebalance streaming, divergence
    /// injection in tests).
    pub fn engine_mut(&mut self) -> &mut StorageEngine {
        &mut self.engine
    }

    fn stage_mut(&mut self, stage: Stage) -> &mut StageQueue {
        match stage {
            Stage::Read => &mut self.read_stage,
            Stage::Write => &mut self.write_stage,
        }
    }

    /// Number of messages waiting for a service slot in the given stage.
    pub fn queue_len(&self, stage: Stage) -> usize {
        match stage {
            Stage::Read => self.read_stage.queue.len(),
            Stage::Write => self.write_stage.queue.len(),
        }
    }

    /// The keys of the mutations currently waiting in the write-stage queue
    /// (client writes, async propagation and read repair alike), in queue
    /// order. The raw material of the per-key backlog probe — the per-key
    /// analogue of the aggregate mutation backlog, since a deep per-key queue
    /// means reads of that key observe stale data until it drains; callers
    /// count occurrences in one pass instead of rescanning the queue per key.
    pub fn queued_write_keys(&self) -> impl Iterator<Item = KeyId> + '_ {
        self.write_stage.queue.iter().filter_map(|m| match m {
            Message::ReplicaWrite { key, .. } | Message::RepairWrite { key, .. } => Some(*key),
            _ => None,
        })
    }

    /// The messages waiting in the given stage's queue, in queue order —
    /// read-only visibility for state fingerprinting (the model checker hashes
    /// queued-but-unstarted work as part of a node's state).
    pub fn queued_messages(&self, stage: Stage) -> impl Iterator<Item = &Message> {
        match stage {
            Stage::Read => self.read_stage.queue.iter(),
            Stage::Write => self.write_stage.queue.iter(),
        }
    }

    /// Number of busy service slots in the given stage.
    pub fn busy_slots(&self, stage: Stage) -> usize {
        match stage {
            Stage::Read => self.read_stage.busy,
            Stage::Write => self.write_stage.busy,
        }
    }

    /// The configured per-stage service concurrency.
    pub fn concurrency(&self) -> usize {
        self.concurrency
    }

    /// The node's cumulative write-stage telemetry, with the instantaneous
    /// queue length and busy-slot count filled in.
    pub fn write_stage_telemetry(&self) -> WriteStageTelemetry {
        WriteStageTelemetry {
            queued: self.write_stage.queue.len(),
            busy: self.write_stage.busy,
            ..self.write_telemetry
        }
    }

    /// Records the sampled service time of a unit of work that is about to
    /// start on this node. Only the write stage is tracked — it is the stage
    /// whose queueing behaviour drives the staleness window.
    pub fn note_service_time(&mut self, stage: Stage, service_ms: f64) {
        if stage == Stage::Write {
            let ms = service_ms.max(0.0);
            self.write_telemetry.service_ms_total += ms;
            self.write_telemetry.service_ms_sq_total += ms * ms;
        }
    }

    /// Called when replica work arrives. Returns the message if it can start
    /// service immediately (a slot in its stage was free and is now taken);
    /// `None` if it was queued behind other work of the same stage.
    pub fn try_start_work(&mut self, message: Message) -> Option<Message> {
        let stage = Stage::of(&message).expect("replica work message");
        if stage == Stage::Write {
            self.write_telemetry.arrivals += 1;
        }
        let concurrency = self.concurrency;
        let sq = self.stage_mut(stage);
        if sq.busy < concurrency {
            sq.busy += 1;
            Some(message)
        } else {
            self.counters.queued += 1;
            self.stage_mut(stage).queue.push_back(message);
            None
        }
    }

    /// Drains both stage queues without touching the busy slots — the crash
    /// path: queued (not yet started) work is returned as
    /// `(write stage, read stage)` so the cluster can hint the mutations and
    /// fail the reads, while work already *in service* is left to complete
    /// (its `Process` event is in flight and will release the slot through
    /// [`StorageNode::finish_work`] as usual).
    pub fn drain_queues(&mut self) -> (Vec<Message>, Vec<Message>) {
        (
            self.write_stage.queue.drain(..).collect(),
            self.read_stage.queue.drain(..).collect(),
        )
    }

    /// Called when a unit of replica work of `stage` finishes service.
    /// Returns the next queued message of that stage to start (the freed slot
    /// is immediately reused), if any.
    pub fn finish_work(&mut self, stage: Stage) -> Option<Message> {
        if stage == Stage::Write {
            self.write_telemetry.completed += 1;
        }
        let sq = self.stage_mut(stage);
        match sq.queue.pop_front() {
            Some(next) => Some(next),
            None => {
                sq.busy = sq.busy.saturating_sub(1);
                None
            }
        }
    }

    /// Serves a replica read: returns this node's local copy of the row,
    /// shared (`Arc`) rather than deep-copied.
    pub fn serve_read(&mut self, key: KeyId) -> Option<std::sync::Arc<Row>> {
        self.counters.reads += 1;
        self.engine.get(key)
    }

    /// Applies a replica write.
    pub fn apply_write(&mut self, key: KeyId, mutation: &Mutation, timestamp: Timestamp) {
        self.counters.writes += 1;
        self.engine.apply(key, mutation, timestamp);
    }

    /// Applies a repair row (read repair / async propagation).
    pub fn apply_repair(&mut self, key: KeyId, row: &Row) {
        self.counters.repairs += 1;
        self.engine.apply_row(key, row);
    }

    /// The newest timestamp this node stores for a key (digest read).
    pub fn digest(&self, key: KeyId) -> Option<Timestamp> {
        self.engine.digest(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::OpId;

    const K: KeyId = KeyId(0);

    fn dummy_read(op: u64) -> Message {
        Message::ReplicaRead {
            op: OpId(op),
            key: K,
            coordinator: NodeId(0),
        }
    }

    fn dummy_write(op: u64) -> Message {
        Message::ReplicaWrite {
            op: OpId(op),
            key: K,
            mutation: std::sync::Arc::new(Mutation::single("f", b"v".to_vec())),
            timestamp: Timestamp(op),
            coordinator: NodeId(0),
        }
    }

    #[test]
    fn read_write_and_counters() {
        let mut n = StorageNode::new(NodeId(3), EngineConfig, 2);
        assert!(n.serve_read(K).is_none());
        n.apply_write(K, &Mutation::single("f", b"v".to_vec()), Timestamp(1));
        let row = n.serve_read(K).unwrap();
        assert_eq!(row.latest_timestamp(), Timestamp(1));
        let c = n.counters();
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.repairs, 0);
    }

    #[test]
    fn repair_merges_and_counts_separately() {
        let mut n = StorageNode::new(NodeId(0), EngineConfig, 1);
        n.apply_write(K, &Mutation::single("f", b"old".to_vec()), Timestamp(1));
        let repair = Mutation::single("f", b"new".to_vec()).into_row(Timestamp(5));
        n.apply_repair(K, &repair);
        assert_eq!(n.serve_read(K).unwrap().latest_timestamp(), Timestamp(5));
        assert_eq!(n.counters().repairs, 1);
        assert_eq!(n.counters().writes, 1);
    }

    #[test]
    fn service_slots_limit_concurrency_per_stage() {
        let mut n = StorageNode::new(NodeId(0), EngineConfig, 2);
        assert!(n.try_start_work(dummy_read(1)).is_some());
        assert!(n.try_start_work(dummy_read(2)).is_some());
        assert_eq!(n.busy_slots(Stage::Read), 2);
        // Third read queues.
        assert!(n.try_start_work(dummy_read(3)).is_none());
        assert_eq!(n.queue_len(Stage::Read), 1);
        assert_eq!(n.counters().queued, 1);
        // Finishing one unit of work hands the slot to the queued message.
        let next = n.finish_work(Stage::Read);
        assert_eq!(next, Some(dummy_read(3)));
        assert_eq!(n.busy_slots(Stage::Read), 2);
        assert_eq!(n.queue_len(Stage::Read), 0);
        // Finishing with an empty queue frees the slot.
        assert!(n.finish_work(Stage::Read).is_none());
        assert_eq!(n.busy_slots(Stage::Read), 1);
        assert!(n.finish_work(Stage::Read).is_none());
        assert_eq!(n.busy_slots(Stage::Read), 0);
    }

    #[test]
    fn read_and_write_stages_are_independent() {
        // A saturated mutation stage must not block reads — the property that
        // lets a replica serve stale data while a mutation is still queued.
        let mut n = StorageNode::new(NodeId(0), EngineConfig, 1);
        assert!(n.try_start_work(dummy_write(1)).is_some());
        assert!(n.try_start_work(dummy_write(2)).is_none()); // queued behind write 1
        assert_eq!(n.busy_slots(Stage::Write), 1);
        assert_eq!(n.queue_len(Stage::Write), 1);
        // Reads still start immediately.
        assert!(n.try_start_work(dummy_read(3)).is_some());
        assert_eq!(n.busy_slots(Stage::Read), 1);
        assert_eq!(n.queue_len(Stage::Read), 0);
        // Finishing the read does not touch the write stage.
        assert!(n.finish_work(Stage::Read).is_none());
        assert_eq!(n.busy_slots(Stage::Write), 1);
        assert_eq!(n.finish_work(Stage::Write), Some(dummy_write(2)));
    }

    #[test]
    fn stage_classification() {
        assert_eq!(Stage::of(&dummy_read(1)), Some(Stage::Read));
        assert_eq!(Stage::of(&dummy_write(1)), Some(Stage::Write));
        assert_eq!(
            Stage::of(&Message::RepairWrite {
                key: K,
                row: std::sync::Arc::new(Row::new())
            }),
            Some(Stage::Write)
        );
        assert_eq!(
            Stage::of(&Message::ReplicaWriteAck {
                op: OpId(1),
                from: NodeId(0)
            }),
            None
        );
    }

    #[test]
    fn concurrency_clamped_to_one() {
        let n = StorageNode::new(NodeId(0), EngineConfig, 0);
        assert_eq!(n.concurrency(), 1);
    }

    #[test]
    fn fifo_queue_order() {
        let mut n = StorageNode::new(NodeId(0), EngineConfig, 1);
        assert!(n.try_start_work(dummy_read(1)).is_some());
        assert!(n.try_start_work(dummy_read(2)).is_none());
        assert!(n.try_start_work(dummy_read(3)).is_none());
        assert_eq!(n.finish_work(Stage::Read), Some(dummy_read(2)));
        assert_eq!(n.finish_work(Stage::Read), Some(dummy_read(3)));
        assert_eq!(n.finish_work(Stage::Read), None);
    }

    #[test]
    fn write_stage_telemetry_tracks_arrivals_service_and_queue() {
        let mut n = StorageNode::new(NodeId(0), EngineConfig, 1);
        assert_eq!(n.write_stage_telemetry(), WriteStageTelemetry::default());
        // Two writes arrive: the first starts, the second queues.
        assert!(n.try_start_work(dummy_write(1)).is_some());
        n.note_service_time(Stage::Write, 0.5);
        assert!(n.try_start_work(dummy_write(2)).is_none());
        let t = n.write_stage_telemetry();
        assert_eq!(t.arrivals, 2);
        assert_eq!(t.completed, 0);
        assert_eq!(t.queued, 1);
        assert_eq!(t.busy, 1);
        assert!((t.service_ms_total - 0.5).abs() < 1e-12);
        assert!((t.service_ms_sq_total - 0.25).abs() < 1e-12);
        // Finishing the first hands the slot to the second.
        assert_eq!(n.finish_work(Stage::Write), Some(dummy_write(2)));
        n.note_service_time(Stage::Write, 1.5);
        let t = n.write_stage_telemetry();
        assert_eq!(t.completed, 1);
        assert_eq!(t.queued, 0);
        assert!((t.service_ms_total - 2.0).abs() < 1e-12);
        // Reads do not touch write-stage telemetry.
        assert!(n.try_start_work(dummy_read(3)).is_some());
        n.note_service_time(Stage::Read, 9.0);
        assert!(n.finish_work(Stage::Read).is_none());
        let t = n.write_stage_telemetry();
        assert_eq!(t.arrivals, 2);
        assert!((t.service_ms_total - 2.0).abs() < 1e-12);
        // Negative samples clamp to zero rather than corrupting the sums.
        n.note_service_time(Stage::Write, -3.0);
        assert!((n.write_stage_telemetry().service_ms_total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn digest_reflects_latest_write() {
        let mut n = StorageNode::new(NodeId(0), EngineConfig, 1);
        assert_eq!(n.digest(K), None);
        n.apply_write(K, &Mutation::single("f", b"v".to_vec()), Timestamp(9));
        assert_eq!(n.digest(K), Some(Timestamp(9)));
    }
}
