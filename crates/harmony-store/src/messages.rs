//! Messages exchanged between clients, coordinators and replicas, and the
//! simulation event type of the store.
//!
//! The message set mirrors Figure 1 of the paper: a client request reaches a
//! coordinator node, the coordinator fans out read/write requests to the
//! replica set, waits for the number of replies the consistency level
//! requires, reconciles by timestamp, answers the client, and issues
//! asynchronous repair writes to out-of-date replicas.

use crate::consistency::ConsistencyLevel;
use crate::keys::KeyId;
use crate::types::{Mutation, Row, Timestamp};
use harmony_sim::topology::NodeId;
use std::sync::Arc;

/// Unique identifier of a client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

/// The kind of a client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A row read.
    Read,
    /// A row write/update.
    Write,
}

/// A message addressed to a node (coordinator or replica) of the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A client read arriving at its coordinator.
    ClientRead {
        /// Operation id.
        op: OpId,
        /// Interned row key.
        key: KeyId,
        /// Consistency level requested for this read.
        consistency: ConsistencyLevel,
    },
    /// A client write arriving at its coordinator.
    ClientWrite {
        /// Operation id.
        op: OpId,
        /// Interned row key.
        key: KeyId,
        /// Columns to write, shared (not deep-cloned) across the replica
        /// fan-out.
        mutation: Arc<Mutation>,
        /// Consistency level requested for this write.
        consistency: ConsistencyLevel,
    },
    /// Coordinator asking a replica for its copy of a row.
    ReplicaRead {
        /// Operation id.
        op: OpId,
        /// Interned row key.
        key: KeyId,
        /// The coordinator to answer to.
        coordinator: NodeId,
    },
    /// Replica answering a [`Message::ReplicaRead`].
    ReplicaReadResponse {
        /// Operation id.
        op: OpId,
        /// The replica that answered.
        from: NodeId,
        /// Its local copy of the row, shared with the replica's store (None
        /// if it has never seen the key).
        row: Option<Arc<Row>>,
    },
    /// Coordinator asking a replica to apply a mutation.
    ReplicaWrite {
        /// Operation id.
        op: OpId,
        /// Interned row key.
        key: KeyId,
        /// Columns to write: one shared payload for all replicas — an RF = 3
        /// fan-out bumps a refcount three times instead of deep-cloning a
        /// `BTreeMap` three times.
        mutation: Arc<Mutation>,
        /// Timestamp assigned by the coordinator.
        timestamp: Timestamp,
        /// The coordinator to acknowledge to.
        coordinator: NodeId,
    },
    /// Replica acknowledging a [`Message::ReplicaWrite`].
    ReplicaWriteAck {
        /// Operation id.
        op: OpId,
        /// The replica that applied the write.
        from: NodeId,
    },
    /// Asynchronous repair: the coordinator pushes the reconciled freshest row
    /// to a replica that answered with stale (or missing) data, or — for
    /// background read repair — to replicas that were not contacted at all.
    RepairWrite {
        /// Interned row key.
        key: KeyId,
        /// The reconciled row to merge into the replica, shared across every
        /// repair target of the same read.
        row: Arc<Row>,
    },
    /// Anti-entropy round opener: the initiator's Merkle-style range digests
    /// (one XOR-folded hash per key-space bucket), inviting the partner to
    /// diff them against its own tables.
    AeDigest {
        /// The initiating node (the partner answers to it).
        from: NodeId,
        /// Per-bucket digests over the initiator's engine tables, shared so
        /// queue snapshots clone a refcount, not the vector.
        buckets: Arc<Vec<u64>>,
    },
    /// Anti-entropy diff: the partner's reply listing the mismatched buckets
    /// and its own `(key, timestamp)` entries inside them, from which the
    /// initiator decides what to push and what to pull.
    AeKeys {
        /// The partner node that diffed the digests.
        from: NodeId,
        /// Indices of the buckets whose digests disagreed.
        buckets: Arc<Vec<u32>>,
        /// The partner's `(key, newest timestamp)` pairs within those buckets.
        entries: Arc<Vec<(KeyId, Timestamp)>>,
    },
    /// Anti-entropy pull: the initiator asks the partner to stream the rows
    /// it holds newer copies of (the rows travel as [`Message::RepairWrite`],
    /// through the ordinary replica write stage).
    AePull {
        /// The requesting node (stream destination).
        from: NodeId,
        /// Keys whose partner copy is newer than the requester's.
        keys: Arc<Vec<KeyId>>,
    },
}

impl Message {
    /// True if processing this message costs replica service time (it touches
    /// the storage engine), as opposed to pure coordination bookkeeping.
    pub fn is_replica_work(&self) -> bool {
        matches!(
            self,
            Message::ReplicaRead { .. }
                | Message::ReplicaWrite { .. }
                | Message::RepairWrite { .. }
        )
    }

    /// The operation this message belongs to, if any (repair and
    /// anti-entropy traffic is detached from any client operation).
    pub fn op_id(&self) -> Option<OpId> {
        match self {
            Message::ClientRead { op, .. }
            | Message::ClientWrite { op, .. }
            | Message::ReplicaRead { op, .. }
            | Message::ReplicaReadResponse { op, .. }
            | Message::ReplicaWrite { op, .. }
            | Message::ReplicaWriteAck { op, .. } => Some(*op),
            Message::RepairWrite { .. }
            | Message::AeDigest { .. }
            | Message::AeKeys { .. }
            | Message::AePull { .. } => None,
        }
    }
}

/// The store's simulation event type.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreEvent {
    /// A message arrives at `dest` after its network latency.
    Deliver {
        /// Receiving node.
        dest: NodeId,
        /// The message.
        message: Message,
    },
    /// A replica starts processing a queued message after waiting for a free
    /// service slot; the work itself takes the node's service time.
    Process {
        /// The node doing the work.
        node: NodeId,
        /// The message being processed.
        message: Message,
    },
    /// The coordinator's answer travels back to the client; when this event
    /// fires the operation is complete from the client's point of view.
    ClientReply {
        /// The completed operation.
        op: OpId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_work_classification() {
        let read = Message::ReplicaRead {
            op: OpId(1),
            key: KeyId(0),
            coordinator: NodeId(0),
        };
        let resp = Message::ReplicaReadResponse {
            op: OpId(1),
            from: NodeId(2),
            row: None,
        };
        let repair = Message::RepairWrite {
            key: KeyId(0),
            row: Arc::new(Row::new()),
        };
        assert!(read.is_replica_work());
        assert!(!resp.is_replica_work());
        assert!(repair.is_replica_work());
    }

    #[test]
    fn op_id_extraction() {
        let w = Message::ClientWrite {
            op: OpId(7),
            key: KeyId(3),
            mutation: Arc::new(Mutation::single("f", vec![1])),
            consistency: ConsistencyLevel::One,
        };
        assert_eq!(w.op_id(), Some(OpId(7)));
        let repair = Message::RepairWrite {
            key: KeyId(3),
            row: Arc::new(Row::new()),
        };
        assert_eq!(repair.op_id(), None);
    }

    #[test]
    fn op_ids_order() {
        assert!(OpId(2) > OpId(1));
    }

    #[test]
    fn anti_entropy_messages_are_coordination_traffic() {
        // Digest exchange is bookkeeping (no engine service slot); only the
        // row streams — which travel as RepairWrite — cost replica work.
        let digest = Message::AeDigest {
            from: NodeId(0),
            buckets: Arc::new(vec![1, 2, 3]),
        };
        let keys = Message::AeKeys {
            from: NodeId(1),
            buckets: Arc::new(vec![0]),
            entries: Arc::new(vec![(KeyId(4), Timestamp(9))]),
        };
        let pull = Message::AePull {
            from: NodeId(0),
            keys: Arc::new(vec![KeyId(4)]),
        };
        for m in [digest, keys, pull] {
            assert!(!m.is_replica_work());
            assert_eq!(m.op_id(), None);
        }
    }
}
