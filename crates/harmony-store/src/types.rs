//! Core data types of the replicated store: keys, cells, rows and mutations.
//!
//! The data model follows Cassandra's (the paper's substrate): a row is
//! identified by a key and holds named columns; every column value carries a
//! client-side timestamp used for last-write-wins reconciliation between
//! replicas. Staleness — the phenomenon Harmony controls — is precisely a
//! read returning a cell whose timestamp is older than the latest acknowledged
//! write for that key.
//!
//! Payloads and column names are immutable and *shared by reference*
//! (`Arc<[u8]>`, `Arc<str>`): the replicas of a record, the mutation that
//! wrote it and every row handed to a reader point at one allocation, so
//! applying, reconciling and copy-on-write cloning move pointers, not bytes.

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A row key *name*. YCSB-style workloads use keys like `"user4382"`. On
/// the operation hot path keys travel as interned [`crate::keys::KeyId`]s;
/// the `String` form exists at the API boundary (workload setup, reports).
pub type Key = String;

/// A logical timestamp attached to every written cell (nanosecond-scale,
/// coordinator-assigned, strictly monotonic per cluster).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp, older than every real write.
    pub const ZERO: Timestamp = Timestamp(0);
}

/// A single column value plus its write timestamp.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Cell {
    /// The column payload, shared with every other holder of this write.
    pub value: Arc<[u8]>,
    /// The timestamp assigned by the coordinating node at write time.
    pub timestamp: Timestamp,
}

impl Cell {
    /// Creates a cell.
    pub fn new(value: Vec<u8>, timestamp: Timestamp) -> Self {
        Cell {
            value: value.into(),
            timestamp,
        }
    }

    /// The approximate in-memory size of this cell in bytes.
    pub fn size_bytes(&self) -> usize {
        self.value.len() + std::mem::size_of::<Timestamp>()
    }
}

/// A row: a set of named columns, each carrying its own timestamp.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct Row {
    /// Column name to cell.
    pub columns: BTreeMap<Arc<str>, Cell>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// Upserts one column, keeping the stored cell unless `timestamp` is
    /// strictly newer (last-write-wins, ties to the incumbent). Shares
    /// `name` and `value`; copies neither.
    pub(crate) fn upsert(&mut self, name: &Arc<str>, value: &Arc<[u8]>, timestamp: Timestamp) {
        let cell = || Cell {
            value: Arc::clone(value),
            timestamp,
        };
        match self.columns.get_mut(&**name) {
            Some(existing) if existing.timestamp >= timestamp => {}
            Some(existing) => *existing = cell(),
            None => {
                self.columns.insert(Arc::clone(name), cell());
            }
        }
    }

    /// Merges `other` into `self`, keeping for every column the cell with the
    /// newest timestamp (Cassandra's last-write-wins reconciliation).
    pub fn merge_from(&mut self, other: &Row) {
        for (name, cell) in &other.columns {
            self.upsert(name, &cell.value, cell.timestamp);
        }
    }

    /// True when every column of `other` is present here with a timestamp
    /// that is `newer` than (`Timestamp::gt`) or at least as new as
    /// (`Timestamp::ge`) the other's.
    fn covers(&self, other: &Row, newer: fn(&Timestamp, &Timestamp) -> bool) -> bool {
        // Both maps iterate in name order: one forward walk joins them.
        let mut mine = self.columns.iter();
        other.columns.iter().all(|(name, cell)| {
            mine.find(|(candidate, _)| *candidate >= name)
                .is_some_and(|(found, c)| found == name && newer(&c.timestamp, &cell.timestamp))
        })
    }

    /// Reconciles a sequence of shared rows by timestamp (last-write-wins
    /// per column, earlier rows win ties), *without copying whenever one
    /// source dominates*: if some row already holds the reconciled content —
    /// the sources agree, or one is at least as new on every column — that
    /// row's own `Arc` is returned; only a true per-column interleaving
    /// builds one fresh merged row. `None` for an empty sequence. The
    /// coordinator reconciles replica responses with it.
    pub fn merge_shared<'a>(mut rows: impl Iterator<Item = &'a Arc<Row>>) -> Option<Arc<Row>> {
        let mut best = rows.next()?;
        let mut merged: Option<Row> = None;
        for row in rows {
            match &mut merged {
                Some(acc) => acc.merge_from(row),
                // Merging `row` in would change nothing: `best` stands.
                None if Arc::ptr_eq(best, row) || best.covers(row, Timestamp::ge) => {}
                // Merging would replace every cell (a tie would keep
                // `best`'s) and add the rest: the result is `row` itself.
                None if row.covers(best, Timestamp::gt) => best = row,
                None => {
                    let mut acc = Row::clone(best);
                    acc.merge_from(row);
                    merged = Some(acc);
                }
            }
        }
        Some(merged.map_or_else(|| Arc::clone(best), Arc::new))
    }

    /// The newest timestamp among all columns, or [`Timestamp::ZERO`] for an
    /// empty row. This is the value the paper's dual-read staleness check
    /// compares between a weak and a strong read.
    pub fn latest_timestamp(&self) -> Timestamp {
        self.columns
            .values()
            .map(|c| c.timestamp)
            .max()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Total payload size of the row in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|(k, v)| k.len() + v.size_bytes())
            .sum()
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the row holds no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// A write: the set of columns to upsert on a key. The coordinator stamps the
/// mutation with a single timestamp when it accepts the operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Mutation {
    /// Column name to new value.
    pub columns: BTreeMap<Arc<str>, Arc<[u8]>>,
}

impl Mutation {
    /// A mutation setting a single column.
    pub fn single(column: impl Into<String>, value: Vec<u8>) -> Self {
        let mut columns = BTreeMap::new();
        columns.insert(column.into().into(), value.into());
        Mutation { columns }
    }

    /// A mutation setting several columns at once.
    pub fn multi(columns: BTreeMap<String, Vec<u8>>) -> Self {
        let columns = columns
            .into_iter()
            .map(|(name, value)| (name.into(), value.into()))
            .collect();
        Mutation { columns }
    }

    /// Generates a YCSB-style mutation with `fields` columns named
    /// `field0..fieldN`, each `field_size` bytes of filler.
    pub fn ycsb_row(fields: usize, field_size: usize) -> Self {
        let filler: Arc<[u8]> = vec![b'x'; field_size].into();
        let columns = (0..fields)
            .map(|i| (format!("field{i}").into(), Arc::clone(&filler)))
            .collect();
        Mutation { columns }
    }

    /// Applies this mutation at `timestamp`, producing the cells to store.
    pub fn into_row(self, timestamp: Timestamp) -> Row {
        let columns = self
            .columns
            .into_iter()
            .map(|(name, value)| (name, Cell { value, timestamp }))
            .collect();
        Row { columns }
    }

    /// Total payload size of the mutation in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// Number of columns touched.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the mutation touches no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

// Serialisation keeps the owned-bytes JSON shape (`{"columns":{"f":{"value":
// [..],"timestamp":1}}}`) that checker counterexample traces are stored in:
// `Serialize` derives it directly (`Arc<str>` keys print, `Arc<[u8]>` is a
// sequence); `Deserialize` reads the owned wire form and shares it.

#[derive(Deserialize)]
struct CellWire {
    value: Vec<u8>,
    timestamp: Timestamp,
}

#[derive(Deserialize)]
struct RowWire {
    columns: BTreeMap<String, Cell>,
}

#[derive(Deserialize)]
struct MutationWire {
    columns: BTreeMap<String, Vec<u8>>,
}

impl Deserialize for Cell {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        CellWire::from_value(v).map(|w| Cell::new(w.value, w.timestamp))
    }
}

impl Deserialize for Row {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let columns = RowWire::from_value(v)?.columns;
        Ok(Row {
            columns: columns.into_iter().map(|(k, c)| (k.into(), c)).collect(),
        })
    }
}

impl Deserialize for Mutation {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        MutationWire::from_value(v).map(|w| Mutation::multi(w.columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(v: &str, ts: u64) -> Cell {
        Cell::new(v.as_bytes().to_vec(), Timestamp(ts))
    }

    #[test]
    fn merge_keeps_newest_cells() {
        let mut a = Row::new();
        a.columns.insert("f0".into(), cell("old", 1));
        a.columns.insert("f1".into(), cell("keep", 9));
        let mut b = Row::new();
        b.columns.insert("f0".into(), cell("new", 5));
        b.columns.insert("f1".into(), cell("stale", 2));
        b.columns.insert("f2".into(), cell("added", 3));
        a.merge_from(&b);
        assert_eq!(a.columns["f0"], cell("new", 5));
        assert_eq!(a.columns["f1"], cell("keep", 9));
        assert_eq!(a.columns["f2"], cell("added", 3));
        assert_eq!(a.latest_timestamp(), Timestamp(9));
    }

    #[test]
    fn merge_with_equal_timestamp_keeps_existing() {
        let mut a = Row::new();
        a.columns.insert("f0".into(), cell("mine", 5));
        let mut b = Row::new();
        b.columns.insert("f0".into(), cell("theirs", 5));
        a.merge_from(&b);
        assert_eq!(a.columns["f0"], cell("mine", 5));
    }

    fn shared(cells: &[(&str, &str, u64)]) -> Arc<Row> {
        let mut row = Row::new();
        for &(name, value, ts) in cells {
            row.columns.insert(name.into(), cell(value, ts));
        }
        Arc::new(row)
    }

    fn reconcile(rows: &[&Arc<Row>]) -> Arc<Row> {
        Row::merge_shared(rows.iter().copied()).expect("non-empty input")
    }

    #[test]
    fn reconciling_agreeing_rows_returns_the_first_input_uncopied() {
        let a = shared(&[("f0", "v", 3), ("f1", "w", 4)]);
        let same_content = shared(&[("f0", "v", 3), ("f1", "w", 4)]);
        assert!(Arc::ptr_eq(&reconcile(&[&a]), &a));
        assert!(Arc::ptr_eq(&reconcile(&[&a, &a]), &a));
        assert!(Arc::ptr_eq(&reconcile(&[&a, &same_content, &a]), &a));
        assert!(Row::merge_shared(std::iter::empty()).is_none());
    }

    #[test]
    fn reconciling_a_dominated_row_returns_the_dominating_input_uncopied() {
        let newer = shared(&[("f0", "new", 9), ("f1", "same", 4)]);
        let older = shared(&[("f0", "old", 3), ("f1", "same", 4)]);
        let subset = shared(&[("f1", "same", 4)]);
        let empty = Arc::new(Row::new());
        // The earlier row is at least as new everywhere: it is the answer.
        assert!(Arc::ptr_eq(&reconcile(&[&newer, &older, &subset]), &newer));
        assert!(Arc::ptr_eq(&reconcile(&[&newer, &empty]), &newer));
        // A later row replaces the earlier only when strictly newer on every
        // column the earlier holds.
        let all_newer = shared(&[("f0", "z", 10), ("f1", "z", 10), ("f2", "z", 1)]);
        assert!(Arc::ptr_eq(&reconcile(&[&older, &all_newer]), &all_newer));
        assert!(Arc::ptr_eq(&reconcile(&[&empty, &older]), &older));
        assert!(Arc::ptr_eq(
            &reconcile(&[&subset, &all_newer, &older]),
            &all_newer
        ));
    }

    #[test]
    fn reconciling_tied_rows_keeps_the_earlier_one() {
        let mine = shared(&[("f0", "mine", 5), ("f1", "mine", 5)]);
        let theirs = shared(&[("f0", "theirs", 5), ("f1", "theirs", 5)]);
        assert!(Arc::ptr_eq(&reconcile(&[&mine, &theirs]), &mine));
        assert!(Arc::ptr_eq(&reconcile(&[&theirs, &mine]), &theirs));
    }

    #[test]
    fn reconciling_interleaved_rows_builds_one_fresh_row_per_column_lww() {
        // `b` is newer on f0 but only ties on f1, so neither row is the answer.
        let a = shared(&[("f0", "a0", 1), ("f1", "a1", 5)]);
        let b = shared(&[("f0", "b0", 7), ("f1", "b1", 5)]);
        let merged = reconcile(&[&a, &b]);
        assert!(!Arc::ptr_eq(&merged, &a) && !Arc::ptr_eq(&merged, &b));
        assert_eq!(merged, shared(&[("f0", "b0", 7), ("f1", "a1", 5)]));
        // The fresh row shares the winning payloads instead of copying them.
        assert!(Arc::ptr_eq(
            &merged.columns["f0"].value,
            &b.columns["f0"].value
        ));
        // Disjoint column sets interleave too; later rows keep merging in.
        let c = shared(&[("f2", "c2", 2)]);
        let d = shared(&[("f1", "d1", 9)]);
        assert_eq!(
            reconcile(&[&a, &c, &d]),
            shared(&[("f0", "a0", 1), ("f1", "d1", 9), ("f2", "c2", 2)])
        );
        // The inputs are untouched.
        assert_eq!(a, shared(&[("f0", "a0", 1), ("f1", "a1", 5)]));
    }

    #[test]
    fn empty_row_has_zero_timestamp() {
        assert_eq!(Row::new().latest_timestamp(), Timestamp::ZERO);
        assert!(Row::new().is_empty());
        assert_eq!(Row::new().len(), 0);
    }

    #[test]
    fn mutation_into_row_stamps_all_columns() {
        let m = Mutation::ycsb_row(3, 10);
        assert_eq!(m.len(), 3);
        assert_eq!(m.size_bytes(), 3 * (6 + 10));
        let row = m.into_row(Timestamp(42));
        assert_eq!(row.len(), 3);
        for c in row.columns.values() {
            assert_eq!(c.timestamp, Timestamp(42));
            assert_eq!(c.value.len(), 10);
        }
        assert_eq!(row.latest_timestamp(), Timestamp(42));
        // Rows built from one mutation share its payloads.
        let m = Mutation::single("f", vec![7; 4]);
        let (a, b) = (m.clone().into_row(Timestamp(1)), m.into_row(Timestamp(2)));
        assert!(Arc::ptr_eq(&a.columns["f"].value, &b.columns["f"].value));
    }

    #[test]
    fn single_and_multi_mutations() {
        let s = Mutation::single("field0", vec![1, 2, 3]);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        let mut cols = BTreeMap::new();
        cols.insert("a".to_string(), vec![0u8; 4]);
        cols.insert("b".to_string(), vec![0u8; 6]);
        let m = Mutation::multi(cols);
        assert_eq!(m.size_bytes(), 1 + 4 + 1 + 6);
    }

    #[test]
    fn row_size_accounts_for_names_and_values() {
        let mut r = Row::new();
        r.columns.insert("ab".into(), cell("xyz", 1));
        assert_eq!(r.size_bytes(), 2 + 3 + std::mem::size_of::<Timestamp>());
    }

    #[test]
    fn timestamps_order_naturally() {
        assert!(Timestamp(2) > Timestamp(1));
        assert!(Timestamp::ZERO < Timestamp(1));
    }
}
