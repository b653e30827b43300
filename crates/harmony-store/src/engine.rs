//! Per-node storage engine: one row map per replica.
//!
//! Every replica keeps its rows in a single sorted map keyed by [`KeyId`],
//! each row a shared, flat, name-sorted cell vector ([`Row`]). A write to a
//! new key stores the mutation's fields, already sorted, as the row in one
//! step; a write to a stored key upserts its fields with per-column
//! last-write-wins (ties keep the stored cell); a repair row merges the same
//! way. A row costs one `Arc` and one exactly sized vector of 16-byte
//! cells, each a pointer to the written field (name and payload, shared
//! with the mutation and every other replica) plus its timestamp, so a
//! `lean` replica row of two columns is 40 + 32 bytes of heap and a
//! ten-column `headline` row 40 + 160. The cost of the paper's Cassandra
//! write path (§II.B) comes from the store's service model, not from this
//! structure.

use crate::keys::KeyId;
use crate::types::{Mutation, Row, Timestamp};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of a node's storage engine. The engine has no knobs; the
/// type remains so `StoreConfig::engine` and [`StorageEngine::new`] keep
/// their shape.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineConfig;

/// Counters describing the work an engine has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Always 0: the engine never flushes. Kept for the benchmark surface;
    /// goes at the next benchmark change.
    pub flushes: u64,
    /// Always 0: the engine never compacts. Kept for the benchmark surface;
    /// goes at the next benchmark change.
    pub compactions: u64,
}

/// A single node's local storage engine.
#[derive(Debug, Clone, Default)]
pub struct StorageEngine {
    rows: BTreeMap<KeyId, Arc<Row>>,
}

impl StorageEngine {
    /// Creates an empty engine.
    pub fn new(_config: EngineConfig) -> Self {
        StorageEngine::default()
    }

    /// Applies a mutation at `timestamp`: per-column last-write-wins upsert.
    pub fn apply(&mut self, key: KeyId, mutation: &Mutation, timestamp: Timestamp) {
        match self.rows.entry(key) {
            // A new row is the mutation's already-sorted fields stamped in
            // one step, so loading a record is one exact allocation and no
            // per-field search.
            Entry::Vacant(slot) => {
                slot.insert(Arc::new(mutation.to_row(timestamp)));
            }
            // `make_mut` clones only if a read response still shares this
            // row — exactly the copy-on-write a shared store needs, and a
            // copy of the cell vector (one allocation of the same size, a
            // reference-count bump per cell), not of the fields behind it.
            Entry::Occupied(mut slot) => {
                let row = Arc::make_mut(slot.get_mut());
                for field in mutation.fields() {
                    row.upsert(field, timestamp);
                }
            }
        }
    }

    /// Applies an already-reconciled row (used by read repair and replica
    /// synchronisation): every column merges by timestamp.
    pub fn apply_row(&mut self, key: KeyId, row: &Row) {
        if row.is_empty() {
            return;
        }
        Arc::make_mut(self.rows.entry(key).or_default()).merge_from(row);
    }

    /// Reads a row, shared (`Arc` clone) rather than copied. Returns `None`
    /// if the key has never been written on this replica.
    pub fn get(&self, key: KeyId) -> Option<Arc<Row>> {
        self.rows.get(&key).cloned()
    }

    /// The newest timestamp stored for a key (digest reads).
    pub fn digest(&self, key: KeyId) -> Option<Timestamp> {
        self.rows.get(&key).map(|row| row.latest_timestamp())
    }

    /// Work counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cell, Field};

    fn mutation(col: &str, val: &str) -> Mutation {
        Mutation::single(col, val.as_bytes().to_vec())
    }

    fn value_of(row: &Row, col: &str) -> String {
        String::from_utf8(row.get(col).unwrap().value().to_vec()).unwrap()
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut e = StorageEngine::default();
        e.apply(KeyId(1), &mutation("field0", "hello"), Timestamp(1));
        let row = e.get(KeyId(1)).unwrap();
        assert_eq!(value_of(&row, "field0"), "hello");
        assert_eq!(row.latest_timestamp(), Timestamp(1));
        assert!(e.get(KeyId(2)).is_none());
    }

    #[test]
    fn newer_timestamp_wins_regardless_of_apply_order() {
        let mut e = StorageEngine::default();
        e.apply(KeyId(0), &mutation("f", "new"), Timestamp(10));
        e.apply(KeyId(0), &mutation("f", "old"), Timestamp(5));
        assert_eq!(value_of(&e.get(KeyId(0)).unwrap(), "f"), "new");

        let mut e2 = StorageEngine::default();
        e2.apply(KeyId(0), &mutation("f", "old"), Timestamp(5));
        e2.apply(KeyId(0), &mutation("f", "new"), Timestamp(10));
        assert_eq!(value_of(&e2.get(KeyId(0)).unwrap(), "f"), "new");
    }

    #[test]
    fn equal_timestamps_keep_first_applied() {
        let mut e = StorageEngine::default();
        e.apply(KeyId(0), &mutation("f", "first"), Timestamp(5));
        e.apply(KeyId(0), &mutation("f", "second"), Timestamp(5));
        assert_eq!(value_of(&e.get(KeyId(0)).unwrap(), "f"), "first");
    }

    #[test]
    fn columns_merge_independently() {
        let mut e = StorageEngine::default();
        e.apply(KeyId(0), &mutation("a", "a1"), Timestamp(1));
        e.apply(KeyId(0), &mutation("b", "b2"), Timestamp(2));
        e.apply(KeyId(0), &mutation("a", "a3"), Timestamp(3));
        let row = e.get(KeyId(0)).unwrap();
        assert_eq!(value_of(&row, "a"), "a3");
        assert_eq!(value_of(&row, "b"), "b2");
        assert_eq!(row.latest_timestamp(), Timestamp(3));
    }

    #[test]
    fn digest_returns_latest_timestamp_without_counting_a_read() {
        let mut e = StorageEngine::default();
        e.apply(KeyId(0), &mutation("a", "x"), Timestamp(3));
        e.apply(KeyId(0), &mutation("b", "y"), Timestamp(7));
        assert_eq!(e.digest(KeyId(0)), Some(Timestamp(7)));
        assert_eq!(e.digest(KeyId(9)), None);
    }

    #[test]
    fn apply_row_merges_for_read_repair() {
        let mut e = StorageEngine::default();
        e.apply(KeyId(0), &mutation("f", "local"), Timestamp(1));
        let repair: Row = [Cell {
            field: Field::shared("f", b"repaired".to_vec()),
            timestamp: Timestamp(9),
        }]
        .into_iter()
        .collect();
        e.apply_row(KeyId(0), &repair);
        assert_eq!(value_of(&e.get(KeyId(0)).unwrap(), "f"), "repaired");
        // Empty repair rows are ignored entirely: no row appears for them.
        e.apply_row(KeyId(1), &Row::new());
        assert!(e.get(KeyId(1)).is_none());
    }

    #[test]
    fn a_row_handed_out_by_get_is_isolated_from_later_writes() {
        let mut e = StorageEngine::default();
        e.apply(KeyId(0), &mutation("f", "before"), Timestamp(1));
        let snapshot = e.get(KeyId(0)).unwrap();
        // The reader still holds the row: the write must copy, not mutate it.
        e.apply(KeyId(0), &mutation("f", "after"), Timestamp(2));
        e.apply(KeyId(0), &mutation("g", "added"), Timestamp(3));
        assert_eq!(value_of(&snapshot, "f"), "before");
        assert_eq!(snapshot.len(), 1);
        let current = e.get(KeyId(0)).unwrap();
        assert_eq!(value_of(&current, "f"), "after");
        assert_eq!(value_of(&current, "g"), "added");
    }

    #[test]
    fn replicas_share_a_loaded_payload_and_diverge_independently() {
        let record = Mutation::ycsb_row(3, 64);
        let (mut a, mut b) = (StorageEngine::default(), StorageEngine::default());
        a.apply(KeyId(0), &record, Timestamp(1));
        b.apply(KeyId(0), &record, Timestamp(1));
        let (row_a, row_b) = (a.get(KeyId(0)).unwrap(), b.get(KeyId(0)).unwrap());
        // One field behind the mutation and every cell of both replicas: no
        // name or payload is copied.
        let shares_the_record = |row: &Row| {
            row.len() == record.len()
                && row
                    .iter()
                    .zip(record.fields())
                    .all(|((_, cell), field)| Arc::ptr_eq(&cell.field, field))
        };
        assert!(shares_the_record(&row_a) && shares_the_record(&row_b));
        // A write while a reader holds the row clones the row's cells, which
        // still share the record's fields: only the written column changes.
        a.apply(KeyId(0), &mutation("field0", "updated"), Timestamp(2));
        let updated = a.get(KeyId(0)).unwrap();
        assert!(!Arc::ptr_eq(&updated, &row_a));
        assert_eq!(value_of(&updated, "field0"), "updated");
        for (name, cell) in updated.iter().filter(|(name, _)| *name != "field0") {
            assert!(Arc::ptr_eq(&cell.field, &row_a.get(name).unwrap().field));
        }
        assert_eq!(b.get(KeyId(0)).unwrap(), row_b);
        // Re-applying the record while a reader holds the row clones the
        // row, changes nothing (ties keep the stored cell), and the clone
        // still shares every field.
        b.apply(KeyId(0), &record, Timestamp(1));
        let reloaded = b.get(KeyId(0)).unwrap();
        assert!(!Arc::ptr_eq(&reloaded, &row_b));
        assert!(shares_the_record(&reloaded));
        assert_eq!(reloaded, row_b);
        assert!(shares_the_record(&row_a) && shares_the_record(&row_b));
        assert_eq!(b.digest(KeyId(0)), Some(Timestamp(1)));
        assert_eq!(a.digest(KeyId(0)), Some(Timestamp(2)));
    }
}
