//! Pins the JSON shape of the store's data-carrying protocol types.
//!
//! Counterexample traces and state dumps written by `harmony-check` embed
//! [`Message`]s and [`Completion`]s; a fixture recorded by one build must
//! replay on the next. The store shares payloads and column names by
//! reference (`Arc<[u8]>` / `Arc<str>`), but on the wire a row is still a map
//! of column name to `{value: [bytes], timestamp}` — these literals are the
//! shape the owned `Vec<u8>` / `String` representation produced.

use harmony_sim::clock::SimTime;
use harmony_sim::topology::NodeId;
use harmony_store::cluster::Completion;
use harmony_store::consistency::ConsistencyLevel;
use harmony_store::keys::KeyId;
use harmony_store::messages::{Message, OpId, OpKind};
use harmony_store::types::{Mutation, Timestamp};
use std::collections::BTreeMap;
use std::sync::Arc;

fn two_column_mutation() -> Mutation {
    let mut columns = BTreeMap::new();
    columns.insert("field0".to_string(), vec![1u8, 2]);
    columns.insert("field1".to_string(), b"x".to_vec());
    Mutation::multi(columns)
}

/// Serialises `value`, compares with `expected`, and round-trips it.
fn pin<T>(value: &T, expected: &str)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("serialises");
    assert_eq!(json, expected);
    let back: T = serde_json::from_str(&json).expect("parses its own output");
    assert_eq!(&back, value);
}

#[test]
fn replica_write_keeps_its_json_shape() {
    let message = Message::ReplicaWrite {
        op: OpId(7),
        key: KeyId(3),
        mutation: Arc::new(two_column_mutation()),
        timestamp: Timestamp(42),
        coordinator: NodeId(1),
    };
    pin(
        &message,
        r#"{"ReplicaWrite":{"op":7,"key":3,"mutation":{"columns":{"field0":[1,2],"field1":[120]}},"timestamp":42,"coordinator":1}}"#,
    );
}

#[test]
fn repair_write_keeps_its_json_shape() {
    let message = Message::RepairWrite {
        key: KeyId(3),
        row: Arc::new(two_column_mutation().into_row(Timestamp(42))),
    };
    pin(
        &message,
        r#"{"RepairWrite":{"key":3,"row":{"columns":{"field0":{"value":[1,2],"timestamp":42},"field1":{"value":[120],"timestamp":42}}}}}"#,
    );
}

#[test]
fn read_completion_keeps_its_json_shape() {
    let completion = Completion {
        op: OpId(9),
        kind: OpKind::Read,
        key: KeyId(3),
        submitted_at: SimTime(1_000),
        completed_at: SimTime(5_000),
        consistency: ConsistencyLevel::Quorum,
        replicas_contacted: 2,
        result: Some(Arc::new(
            Mutation::single("f", b"v1".to_vec()).into_row(Timestamp(8)),
        )),
        returned_timestamp: Timestamp(8),
        expected_timestamp: Timestamp(8),
        stale: false,
        aborted: false,
    };
    pin(
        &completion,
        r#"{"op":9,"kind":"Read","key":3,"submitted_at":1000,"completed_at":5000,"consistency":"Quorum","replicas_contacted":2,"result":{"columns":{"f":{"value":[118,49],"timestamp":8}}},"returned_timestamp":8,"expected_timestamp":8,"stale":false,"aborted":false}"#,
    );
}
