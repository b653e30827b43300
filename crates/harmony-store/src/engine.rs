//! Per-node storage engine: commit log, memtable, SSTables and compaction.
//!
//! This mirrors the write path the paper describes for Cassandra (§II.B): a
//! write is appended to the commit log and applied to the in-memory memtable
//! before it is acknowledged; memtables are periodically flushed to immutable
//! sorted tables (SSTables); reads merge the memtable and all SSTables using
//! per-column last-write-wins reconciliation.

use crate::keys::KeyId;
use crate::types::{Mutation, Row, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An append-only commit log, kept as counters: sizes and counts only.
/// Payloads live in the memtable/SSTables and nothing replays the log inside
/// the simulator, so records are tallied, not retained.
#[derive(Debug, Clone, Default)]
pub struct CommitLog {
    len: usize,
    bytes: usize,
}

impl CommitLog {
    /// An empty commit log.
    pub fn new() -> Self {
        CommitLog::default()
    }

    /// Appends a record of `size_bytes` payload bytes.
    pub fn append(&mut self, size_bytes: usize) {
        self.len += 1;
        self.bytes += size_bytes;
    }

    /// Number of records since the last truncation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total logged bytes since the last truncation.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Discards all records (called after a successful memtable flush).
    pub fn truncate(&mut self) {
        *self = CommitLog::default();
    }
}

/// An immutable, sorted on-"disk" table produced by flushing a memtable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SsTable {
    rows: Vec<(KeyId, Arc<Row>)>,
    bytes: usize,
}

impl SsTable {
    /// Builds an SSTable from already-sorted `(key, row)` pairs.
    fn from_sorted(rows: Vec<(KeyId, Arc<Row>)>) -> Self {
        let bytes = rows
            .iter()
            .map(|(_, r)| std::mem::size_of::<KeyId>() + r.size_bytes())
            .sum();
        SsTable { rows, bytes }
    }

    /// Point lookup by key.
    pub fn get(&self, key: KeyId) -> Option<&Arc<Row>> {
        self.rows
            .binary_search_by(|(k, _)| k.cmp(&key))
            .ok()
            .map(|i| &self.rows[i].1)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Configuration of a node's storage engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Flush the memtable once it holds at least this many rows.
    pub memtable_flush_rows: usize,
    /// Trigger a compaction once this many SSTables share a size class
    /// (size-tiered: only similar-sized tables merge together).
    pub compaction_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            memtable_flush_rows: 10_000,
            compaction_threshold: 4,
        }
    }
}

/// Counters describing the work an engine has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Mutations applied.
    pub writes: u64,
    /// Point reads served.
    pub reads: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
}

/// A single node's local storage engine.
#[derive(Debug, Clone)]
pub struct StorageEngine {
    config: EngineConfig,
    commit_log: CommitLog,
    memtable: BTreeMap<KeyId, Arc<Row>>,
    sstables: Vec<SsTable>,
    stats: EngineStats,
}

impl StorageEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        StorageEngine {
            config,
            commit_log: CommitLog::new(),
            memtable: BTreeMap::new(),
            sstables: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Creates an engine with default configuration.
    pub fn with_defaults() -> Self {
        StorageEngine::new(EngineConfig::default())
    }

    /// Applies a mutation at `timestamp`: commit-log append plus memtable
    /// upsert with per-column last-write-wins.
    pub fn apply(&mut self, key: KeyId, mutation: &Mutation, timestamp: Timestamp) {
        self.stats.writes += 1;
        self.commit_log.append(mutation.size_bytes());
        // `make_mut` clones only if a read response still shares this row —
        // exactly the copy-on-write a shared store needs, and a copy of the
        // column map's pointers, not of the payloads behind them.
        let entry = Arc::make_mut(self.memtable.entry(key).or_default());
        for (name, value) in &mutation.columns {
            entry.upsert(name, value, timestamp);
        }
        if self.memtable.len() >= self.config.memtable_flush_rows {
            self.flush();
        }
    }

    /// Applies an already-reconciled row (used by read repair and replica
    /// synchronisation): every column merges by timestamp.
    pub fn apply_row(&mut self, key: KeyId, row: &Row) {
        if row.is_empty() {
            return;
        }
        self.stats.writes += 1;
        self.commit_log.append(row.size_bytes());
        let entry = Arc::make_mut(self.memtable.entry(key).or_default());
        entry.merge_from(row);
        if self.memtable.len() >= self.config.memtable_flush_rows {
            self.flush();
        }
    }

    /// Reads a row, merging the memtable and every SSTable (newest data wins
    /// per column). Returns `None` if the key has never been written on this
    /// replica. The stored row is *shared* (`Arc` clone), not copied, when a
    /// single source holds the key — the common case — or one source
    /// dominates; only interleaved sources build one fresh row.
    pub fn get(&mut self, key: KeyId) -> Option<Arc<Row>> {
        self.stats.reads += 1;
        Row::merge_shared(
            self.sstables
                .iter()
                .filter_map(|table| table.get(key))
                .chain(self.memtable.get(&key)),
        )
    }

    /// The newest timestamp stored for a key, without counting as a data read
    /// (digest reads).
    pub fn digest(&self, key: KeyId) -> Option<Timestamp> {
        let mut latest: Option<Timestamp> = None;
        for table in &self.sstables {
            if let Some(row) = table.get(key) {
                latest = latest.max(Some(row.latest_timestamp()));
            }
        }
        if let Some(row) = self.memtable.get(&key) {
            latest = latest.max(Some(row.latest_timestamp()));
        }
        latest
    }

    /// Flushes the memtable into a new SSTable and truncates the commit log.
    pub fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let rows: Vec<(KeyId, Arc<Row>)> = std::mem::take(&mut self.memtable).into_iter().collect();
        self.sstables.push(SsTable::from_sorted(rows));
        self.commit_log.truncate();
        self.stats.flushes += 1;
        self.maybe_compact();
    }

    /// Size-tiered compaction: merges a run of SSTables once
    /// `compaction_threshold` of them share a size class (`⌊log₂ rows⌋`),
    /// smallest class first. Merging only similar-sized tables keeps total
    /// compaction work O(N log N) over the engine's life; re-merging every
    /// table each few flushes is quadratic in rows and visibly stalls a
    /// multi-million-record load.
    fn maybe_compact(&mut self) {
        loop {
            let mut classes: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (i, table) in self.sstables.iter().enumerate() {
                classes
                    .entry((table.rows.len().max(1) as u64).ilog2())
                    .or_default()
                    .push(i);
            }
            let threshold = self.config.compaction_threshold.max(2);
            let Some(run) = classes.into_values().find(|run| run.len() >= threshold) else {
                return;
            };
            self.compact_run(&run);
        }
    }

    /// Merges the SSTables at `indices` (ascending), reconciling duplicate
    /// keys by timestamp, and reinserts the merged table at the oldest
    /// merged position so relative table order is preserved.
    fn compact_run(&mut self, indices: &[usize]) {
        let mut tables = Vec::with_capacity(indices.len());
        for &i in indices.iter().rev() {
            tables.push(self.sstables.remove(i));
        }
        tables.reverse(); // merge oldest-first, matching apply order
        let mut merged: BTreeMap<KeyId, Arc<Row>> = BTreeMap::new();
        for table in tables {
            for (key, row) in table.rows {
                Arc::make_mut(merged.entry(key).or_default()).merge_from(&row);
            }
        }
        self.sstables.insert(
            indices[0],
            SsTable::from_sorted(merged.into_iter().collect()),
        );
        self.stats.compactions += 1;
    }

    /// Merges all SSTables into one, reconciling duplicate keys by timestamp.
    pub fn compact(&mut self) {
        if self.sstables.len() <= 1 {
            return;
        }
        let mut merged: BTreeMap<KeyId, Arc<Row>> = BTreeMap::new();
        for table in self.sstables.drain(..) {
            for (key, row) in table.rows {
                Arc::make_mut(merged.entry(key).or_default()).merge_from(&row);
            }
        }
        self.sstables
            .push(SsTable::from_sorted(merged.into_iter().collect()));
        self.stats.compactions += 1;
    }

    /// Number of rows currently in the memtable.
    pub fn memtable_rows(&self) -> usize {
        self.memtable.len()
    }

    /// Number of SSTables on "disk".
    pub fn sstable_count(&self) -> usize {
        self.sstables.len()
    }

    /// The commit log (for inspection in tests and tools).
    pub fn commit_log(&self) -> &CommitLog {
        &self.commit_log
    }

    /// Work counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Total number of distinct keys visible on this replica.
    pub fn approximate_keys(&self) -> usize {
        // Upper bound: memtable keys plus SSTable rows (duplicates across
        // tables are counted once per table; exact counting would require a
        // full merge).
        self.memtable.len() + self.sstables.iter().map(|t| t.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Cell;

    fn mutation(col: &str, val: &str) -> Mutation {
        Mutation::single(col, val.as_bytes().to_vec())
    }

    fn value_of(row: &Row, col: &str) -> String {
        String::from_utf8(row.columns[col].value.to_vec()).unwrap()
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut e = StorageEngine::with_defaults();
        e.apply(KeyId(1), &mutation("field0", "hello"), Timestamp(1));
        let row = e.get(KeyId(1)).unwrap();
        assert_eq!(value_of(&row, "field0"), "hello");
        assert_eq!(row.latest_timestamp(), Timestamp(1));
        assert!(e.get(KeyId(2)).is_none());
    }

    #[test]
    fn newer_timestamp_wins_regardless_of_apply_order() {
        let mut e = StorageEngine::with_defaults();
        e.apply(KeyId(0), &mutation("f", "new"), Timestamp(10));
        e.apply(KeyId(0), &mutation("f", "old"), Timestamp(5));
        assert_eq!(value_of(&e.get(KeyId(0)).unwrap(), "f"), "new");

        let mut e2 = StorageEngine::with_defaults();
        e2.apply(KeyId(0), &mutation("f", "old"), Timestamp(5));
        e2.apply(KeyId(0), &mutation("f", "new"), Timestamp(10));
        assert_eq!(value_of(&e2.get(KeyId(0)).unwrap(), "f"), "new");
    }

    #[test]
    fn equal_timestamps_keep_first_applied() {
        let mut e = StorageEngine::with_defaults();
        e.apply(KeyId(0), &mutation("f", "first"), Timestamp(5));
        e.apply(KeyId(0), &mutation("f", "second"), Timestamp(5));
        assert_eq!(value_of(&e.get(KeyId(0)).unwrap(), "f"), "first");
    }

    #[test]
    fn columns_merge_independently() {
        let mut e = StorageEngine::with_defaults();
        e.apply(KeyId(0), &mutation("a", "a1"), Timestamp(1));
        e.apply(KeyId(0), &mutation("b", "b2"), Timestamp(2));
        e.apply(KeyId(0), &mutation("a", "a3"), Timestamp(3));
        let row = e.get(KeyId(0)).unwrap();
        assert_eq!(value_of(&row, "a"), "a3");
        assert_eq!(value_of(&row, "b"), "b2");
        assert_eq!(row.latest_timestamp(), Timestamp(3));
    }

    #[test]
    fn commit_log_grows_and_truncates_on_flush() {
        let mut e = StorageEngine::new(EngineConfig {
            memtable_flush_rows: 100,
            compaction_threshold: 100,
        });
        for i in 0..10 {
            e.apply(KeyId(i as u32), &mutation("f", "v"), Timestamp(i));
        }
        assert_eq!(e.commit_log().len(), 10);
        assert!(e.commit_log().bytes() > 0);
        e.flush();
        assert!(e.commit_log().is_empty());
        assert_eq!(e.sstable_count(), 1);
        assert_eq!(e.memtable_rows(), 0);
    }

    #[test]
    fn reads_merge_memtable_and_sstables() {
        let mut e = StorageEngine::with_defaults();
        e.apply(KeyId(0), &mutation("a", "flushed"), Timestamp(1));
        e.flush();
        e.apply(KeyId(0), &mutation("b", "fresh"), Timestamp(2));
        let row = e.get(KeyId(0)).unwrap();
        assert_eq!(value_of(&row, "a"), "flushed");
        assert_eq!(value_of(&row, "b"), "fresh");
    }

    #[test]
    fn newer_sstable_data_beats_older_memtable_data() {
        let mut e = StorageEngine::with_defaults();
        e.apply(KeyId(0), &mutation("f", "newer"), Timestamp(10));
        e.flush();
        // A late-arriving replica write with an older timestamp lands in the memtable.
        e.apply(KeyId(0), &mutation("f", "older"), Timestamp(3));
        assert_eq!(value_of(&e.get(KeyId(0)).unwrap(), "f"), "newer");
    }

    #[test]
    fn automatic_flush_when_memtable_full() {
        let mut e = StorageEngine::new(EngineConfig {
            memtable_flush_rows: 5,
            compaction_threshold: 100,
        });
        for i in 0..12 {
            e.apply(KeyId(i as u32), &mutation("f", "v"), Timestamp(i));
        }
        assert!(e.sstable_count() >= 2);
        assert!(e.memtable_rows() < 5);
        assert!(e.stats().flushes >= 2);
        // All keys still readable.
        for i in 0..12 {
            assert!(e.get(KeyId(i as u32)).is_some(), "k{i} missing");
        }
    }

    #[test]
    fn compaction_preserves_latest_data() {
        let mut e = StorageEngine::new(EngineConfig {
            memtable_flush_rows: 2,
            compaction_threshold: 3,
        });
        for round in 0..6u64 {
            for k in 0..2 {
                e.apply(
                    KeyId(k as u32),
                    &mutation("f", &format!("v{round}")),
                    Timestamp(round * 10 + k),
                );
            }
        }
        assert!(e.stats().compactions >= 1);
        for k in 0..2 {
            assert_eq!(value_of(&e.get(KeyId(k)).unwrap(), "f"), "v5");
        }
    }

    #[test]
    fn size_tiered_compaction_bounds_table_count_on_large_loads() {
        let mut e = StorageEngine::new(EngineConfig {
            memtable_flush_rows: 1_000,
            compaction_threshold: 4,
        });
        // 100 flushes' worth of writes: a full-merge-every-4-flushes scheme
        // would rewrite the whole store ~25 times; size-tiered work stays
        // near-linear and the table count logarithmic.
        for i in 0..100_000u64 {
            e.apply(
                KeyId((i % 50_000) as u32),
                &mutation("f", &format!("v{i}")),
                Timestamp(i + 1),
            );
        }
        e.flush();
        assert!(e.sstable_count() <= 16, "sstables: {}", e.sstable_count());
        assert!(e.stats().compactions >= 2);
        // Updates still reconcile across tiers: key 0 was written at i=0 and
        // again at i=50_000.
        assert_eq!(value_of(&e.get(KeyId(0)).unwrap(), "f"), "v50000");
    }

    #[test]
    fn digest_returns_latest_timestamp_without_counting_a_read() {
        let mut e = StorageEngine::with_defaults();
        e.apply(KeyId(0), &mutation("a", "x"), Timestamp(3));
        e.flush();
        e.apply(KeyId(0), &mutation("b", "y"), Timestamp(7));
        let reads_before = e.stats().reads;
        assert_eq!(e.digest(KeyId(0)), Some(Timestamp(7)));
        assert_eq!(e.digest(KeyId(9)), None);
        assert_eq!(e.stats().reads, reads_before);
    }

    #[test]
    fn apply_row_merges_for_read_repair() {
        let mut e = StorageEngine::with_defaults();
        e.apply(KeyId(0), &mutation("f", "local"), Timestamp(1));
        let mut repair = Row::new();
        repair
            .columns
            .insert("f".into(), Cell::new(b"repaired".to_vec(), Timestamp(9)));
        e.apply_row(KeyId(0), &repair);
        assert_eq!(value_of(&e.get(KeyId(0)).unwrap(), "f"), "repaired");
        // Empty repair rows are ignored entirely.
        let writes = e.stats().writes;
        e.apply_row(KeyId(0), &Row::new());
        assert_eq!(e.stats().writes, writes);
    }

    #[test]
    fn a_row_handed_out_by_get_is_isolated_from_later_writes() {
        let mut e = StorageEngine::with_defaults();
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
        let (mut a, mut b) = (
            StorageEngine::with_defaults(),
            StorageEngine::with_defaults(),
        );
        a.apply(KeyId(0), &record, Timestamp(1));
        b.apply(KeyId(0), &record, Timestamp(1));
        let (row_a, row_b) = (a.get(KeyId(0)).unwrap(), b.get(KeyId(0)).unwrap());
        for (name, payload) in &record.columns {
            // One allocation behind the mutation and both replicas' cells.
            assert!(Arc::ptr_eq(&row_a.columns[name].value, payload));
            assert!(Arc::ptr_eq(&row_b.columns[name].value, payload));
        }
        a.apply(KeyId(0), &mutation("field0", "updated"), Timestamp(2));
        assert_eq!(value_of(&a.get(KeyId(0)).unwrap(), "field0"), "updated");
        assert_eq!(b.get(KeyId(0)).unwrap(), row_b);
        assert_eq!(b.digest(KeyId(0)), Some(Timestamp(1)));
        assert_eq!(a.digest(KeyId(0)), Some(Timestamp(2)));
    }

    #[test]
    fn stats_count_operations() {
        let mut e = StorageEngine::with_defaults();
        e.apply(KeyId(0), &mutation("f", "1"), Timestamp(1));
        e.apply(KeyId(1), &mutation("f", "2"), Timestamp(2));
        e.get(KeyId(0));
        e.get(KeyId(7));
        let s = e.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 2);
    }

    #[test]
    fn sstable_lookup_is_exact() {
        let rows = vec![
            (
                KeyId(0),
                Arc::new(Mutation::single("f", vec![1]).into_row(Timestamp(1))),
            ),
            (
                KeyId(2),
                Arc::new(Mutation::single("f", vec![2]).into_row(Timestamp(2))),
            ),
        ];
        let t = SsTable::from_sorted(rows);
        assert!(t.get(KeyId(0)).is_some());
        assert!(t.get(KeyId(1)).is_none());
        assert!(t.get(KeyId(2)).is_some());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert!(t.bytes() > 0);
    }
}
