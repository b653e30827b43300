//! Core data types of the replicated store: keys, cells, rows and mutations.
//!
//! The data model follows Cassandra's (the paper's substrate): a row is
//! identified by a key and holds named columns; every column value carries a
//! client-side timestamp used for last-write-wins reconciliation between
//! replicas. Staleness — the phenomenon Harmony controls — is precisely a
//! read returning a cell whose timestamp is older than the latest acknowledged
//! write for that key.
//!
//! A column's name and payload are written once, as one immutable [`Field`],
//! and *shared by reference*: the replicas of a record, the mutation that
//! wrote it and every row handed to a reader point at one `Arc<Field>`, so
//! applying, reconciling and copy-on-write cloning move pointers, not bytes.
//! A stored column, a [`Cell`], is that pointer plus its write timestamp:
//! 16 bytes. A [`Row`] keeps its cells in one name-sorted vector rather than
//! a map: rows are a handful of columns, which a forward scan searches as
//! fast as a tree, and a flat vector makes each row, and each copy-on-write
//! clone of it, a single exactly sized allocation of 16 bytes per column.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A row key *name*. YCSB-style workloads use keys like `"user4382"`. On
/// the operation hot path keys travel as interned [`crate::keys::KeyId`]s;
/// the `String` form exists at the API boundary (workload setup, reports).
pub type Key = String;

/// A logical timestamp attached to every written cell (nanosecond-scale,
/// coordinator-assigned, strictly monotonic per cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp, older than every real write.
    pub const ZERO: Timestamp = Timestamp(0);
}

/// A written column: its name and payload, immutable once made and held as
/// an `Arc<Field>` by the mutation and every cell that stores it.
#[derive(Debug, PartialEq, Eq)]
pub struct Field {
    /// The column name.
    pub name: Box<str>,
    /// The column payload.
    pub value: Box<[u8]>,
}

impl Field {
    /// A shared field holding `name` and `value`.
    pub fn shared(name: impl Into<Box<str>>, value: impl Into<Box<[u8]>>) -> Arc<Field> {
        Arc::new(Field {
            name: name.into(),
            value: value.into(),
        })
    }
}

/// A stored column: a shared field plus its write timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// The column name and payload, shared with every other holder of this
    /// write.
    pub field: Arc<Field>,
    /// The timestamp assigned by the coordinating node at write time.
    pub timestamp: Timestamp,
}

impl Cell {
    /// The column name.
    pub fn name(&self) -> &str {
        &self.field.name
    }

    /// The column payload.
    pub fn value(&self) -> &[u8] {
        &self.field.value
    }
}

/// A row: a set of named columns, each carrying its own timestamp.
///
/// The cells are one flat vector sorted by name with every name once. Rows
/// hold a handful of columns (YCSB's default is ten), so a forward scan
/// finds a column as fast as a tree would, and the whole row is one exactly
/// sized allocation: a copy-on-write clone is one allocation plus a
/// reference-count bump per column, and a two-column row costs 32 bytes
/// instead of a B-tree's 456-byte leaf.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    cells: Vec<Cell>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Row::default()
    }

    /// A row of `fields`, all written at `timestamp`, built in one exactly
    /// sized allocation with no search: the fields must be name-sorted with
    /// every name once, as a [`Mutation`]'s are.
    fn stamped(fields: impl ExactSizeIterator<Item = Arc<Field>>, timestamp: Timestamp) -> Self {
        let cells: Vec<Cell> = fields.map(|field| Cell { field, timestamp }).collect();
        debug_assert!(cells.windows(2).all(|w| w[0].name() < w[1].name()));
        Row { cells }
    }

    /// The cell stored under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Cell> {
        self.position(name).ok().map(|i| &self.cells[i])
    }

    /// The columns in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Cell)> {
        self.cells.iter().map(|cell| (cell.name(), cell))
    }

    /// Where `name` is stored (`Ok`) or would be inserted (`Err`): a forward
    /// scan that stops at the first name not less than `name`.
    fn position(&self, name: &str) -> Result<usize, usize> {
        for (i, cell) in self.cells.iter().enumerate() {
            match cell.name().cmp(name) {
                Ordering::Less => {}
                Ordering::Equal => return Ok(i),
                Ordering::Greater => return Err(i),
            }
        }
        Err(self.cells.len())
    }

    /// Upserts one column, keeping the stored cell unless `timestamp` is
    /// strictly newer (last-write-wins, ties to the incumbent). Shares
    /// `field`; copies neither its name nor its payload.
    pub fn upsert(&mut self, field: &Arc<Field>, timestamp: Timestamp) {
        let cell = || Cell {
            field: Arc::clone(field),
            timestamp,
        };
        match self.position(&field.name) {
            Ok(i) if self.cells[i].timestamp >= timestamp => {}
            Ok(i) => self.cells[i] = cell(),
            Err(i) => self.cells.insert(i, cell()),
        }
    }

    /// Merges `other` into `self`, keeping for every column the cell with the
    /// newest timestamp (Cassandra's last-write-wins reconciliation).
    pub fn merge_from(&mut self, other: &Row) {
        // Growing by the difference in length sizes a fresh row exactly; a
        // row holding every name of `other` does not grow.
        self.cells
            .reserve_exact(other.len().saturating_sub(self.len()));
        // One merge-join over the two sorted vectors: a shared name keeps
        // the newer cell, a name only `other` holds is spliced in.
        let mut i = 0;
        for cell in &other.cells {
            while self
                .cells
                .get(i)
                .is_some_and(|stored| stored.name() < cell.name())
            {
                i += 1;
            }
            match self.cells.get_mut(i) {
                Some(existing) if existing.name() == cell.name() => {
                    if existing.timestamp < cell.timestamp {
                        *existing = cell.clone();
                    }
                }
                _ => self.cells.insert(i, cell.clone()),
            }
            i += 1;
        }
    }

    /// True when every column of `other` is present here with a timestamp
    /// that is `newer` than (`Timestamp::gt`) or at least as new as
    /// (`Timestamp::ge`) the other's.
    fn covers(&self, other: &Row, newer: fn(&Timestamp, &Timestamp) -> bool) -> bool {
        // Both vectors are sorted by name: one forward walk joins them.
        let mut mine = self.cells.iter();
        other.cells.iter().all(|cell| {
            mine.find(|candidate| candidate.name() >= cell.name())
                .is_some_and(|c| c.name() == cell.name() && newer(&c.timestamp, &cell.timestamp))
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
        self.cells
            .iter()
            .map(|c| c.timestamp)
            .max()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the row holds no columns.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Collects cells into a row; a name given twice keeps the newer cell
/// (the earlier one on a tie), as [`Row::upsert`] does.
impl FromIterator<Cell> for Row {
    fn from_iter<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        let cells = cells.into_iter();
        let mut row = Row {
            cells: Vec::with_capacity(cells.size_hint().0),
        };
        for cell in cells {
            row.upsert(&cell.field, cell.timestamp);
        }
        row
    }
}

/// A write: the set of columns to upsert on a key. The coordinator stamps the
/// mutation with a single timestamp when it accepts the operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutation {
    /// The fields to write, sorted by name with every name once.
    fields: Vec<Arc<Field>>,
}

impl Mutation {
    /// A mutation setting a single column.
    pub fn single(column: impl Into<String>, value: Vec<u8>) -> Self {
        Mutation {
            fields: vec![Field::shared(column.into(), value)],
        }
    }

    /// A mutation setting several columns at once.
    pub fn multi(columns: BTreeMap<String, Vec<u8>>) -> Self {
        let fields = columns
            .into_iter()
            .map(|(name, value)| Field::shared(name, value))
            .collect();
        Mutation { fields }
    }

    /// Generates a YCSB-style mutation with `fields` columns named
    /// `field0..fieldN`, each `field_size` bytes of filler.
    pub fn ycsb_row(fields: usize, field_size: usize) -> Self {
        let filler = vec![b'x'; field_size];
        Mutation::multi(
            (0..fields)
                .map(|i| (format!("field{i}"), filler.clone()))
                .collect(),
        )
    }

    /// The fields written, in name order.
    pub fn fields(&self) -> &[Arc<Field>] {
        &self.fields
    }

    /// Applies this mutation at `timestamp`, producing the cells to store.
    pub fn into_row(self, timestamp: Timestamp) -> Row {
        Row::stamped(self.fields.into_iter(), timestamp)
    }

    /// The row this mutation writes at `timestamp`, sharing its fields.
    pub(crate) fn to_row(&self, timestamp: Timestamp) -> Row {
        Row::stamped(self.fields.iter().cloned(), timestamp)
    }

    /// Number of columns touched.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the mutation touches no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, v: &str, ts: u64) -> Cell {
        Cell {
            field: Field::shared(name, v.as_bytes()),
            timestamp: Timestamp(ts),
        }
    }

    fn row(cells: &[(&str, &str, u64)]) -> Row {
        cells
            .iter()
            .map(|&(name, value, ts)| cell(name, value, ts))
            .collect()
    }

    fn shared(cells: &[(&str, &str, u64)]) -> Arc<Row> {
        Arc::new(row(cells))
    }

    #[test]
    fn merge_keeps_newest_cells() {
        let mut a = row(&[("f0", "old", 1), ("f1", "keep", 9)]);
        let b = row(&[("f0", "new", 5), ("f1", "stale", 2), ("f2", "added", 3)]);
        a.merge_from(&b);
        assert_eq!(a.get("f0"), Some(&cell("f0", "new", 5)));
        assert_eq!(a.get("f1"), Some(&cell("f1", "keep", 9)));
        assert_eq!(a.get("f2"), Some(&cell("f2", "added", 3)));
        assert_eq!(a.latest_timestamp(), Timestamp(9));
    }

    #[test]
    fn merge_with_equal_timestamp_keeps_existing() {
        let mut a = row(&[("f0", "mine", 5)]);
        let b = row(&[("f0", "theirs", 5)]);
        a.merge_from(&b);
        assert_eq!(a.get("f0"), Some(&cell("f0", "mine", 5)));
    }

    #[test]
    fn columns_stay_sorted_and_unique_in_any_insertion_order() {
        let a = row(&[
            ("f2", "c", 1),
            ("f0", "a", 1),
            ("f1", "b", 1),
            ("f0", "z", 0),
        ]);
        let names: Vec<&str> = a.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["f0", "f1", "f2"]);
        assert_eq!(a, row(&[("f0", "a", 1), ("f1", "b", 1), ("f2", "c", 1)]));
        assert_eq!(a.get("f3"), None);
        // A merge splices absent names in at their place in the order.
        let mut b = row(&[("f1", "x", 2)]);
        b.merge_from(&row(&[("f3", "d", 1), ("f0", "y", 1)]));
        let names: Vec<&str> = b.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["f0", "f1", "f3"]);
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
        // The fresh row shares the winning fields instead of copying them.
        assert!(Arc::ptr_eq(
            &merged.get("f0").unwrap().field,
            &b.get("f0").unwrap().field
        ));
        assert!(Arc::ptr_eq(
            &merged.get("f1").unwrap().field,
            &a.get("f1").unwrap().field
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
        let row = m.into_row(Timestamp(42));
        assert_eq!(row.len(), 3);
        for (_, c) in row.iter() {
            assert_eq!(c.timestamp, Timestamp(42));
            assert_eq!(c.value().len(), 10);
        }
        assert_eq!(row.latest_timestamp(), Timestamp(42));
        // Rows built from one mutation share its fields.
        let m = Mutation::single("f", vec![7; 4]);
        let (a, b) = (m.clone().into_row(Timestamp(1)), m.into_row(Timestamp(2)));
        assert!(Arc::ptr_eq(
            &a.get("f").unwrap().field,
            &b.get("f").unwrap().field
        ));
        assert_eq!(a.get("f").unwrap().name(), "f");
        assert_eq!(a.get("f").unwrap().value(), [7; 4]);
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
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn a_ycsb_row_is_name_sorted() {
        // `field10` sorts before `field2`: the fields are in name order, not
        // in index order.
        let m = Mutation::ycsb_row(12, 1);
        let names: Vec<&str> = m.fields().iter().map(|f| &*f.name).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert_eq!(names.len(), 12);
        assert_eq!(m.into_row(Timestamp(1)).iter().count(), 12);
    }

    #[test]
    fn a_cell_is_a_pointer_and_a_timestamp() {
        // 16 bytes per stored column: the shared field's pointer and the
        // write timestamp, with no name or payload pointer of its own.
        assert_eq!(std::mem::size_of::<Cell>(), 16);
    }

    #[test]
    fn timestamps_order_naturally() {
        assert!(Timestamp(2) > Timestamp(1));
        assert!(Timestamp::ZERO < Timestamp(1));
    }
}
