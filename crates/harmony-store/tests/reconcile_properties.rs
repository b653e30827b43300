//! Property tests for reconciliation: the dominance-aware, copy-avoiding
//! [`Row::merge_shared`] must return exactly what the plain left fold of
//! [`Row::merge_from`] builds — per-column last-write-wins, earlier rows
//! winning ties — for any list of rows, including ties, empty rows and
//! disjoint column sets; and the storage engine's two write paths (`apply`
//! and `apply_row`) must store that same fold.

use harmony_store::engine::StorageEngine;
use harmony_store::keys::KeyId;
use harmony_store::types::{Cell, Mutation, Row, Timestamp};
use proptest::prelude::*;
use std::sync::Arc;

/// The plain left fold of [`Row::merge_from`]; `None` for no rows.
fn left_fold<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Option<Row> {
    let mut rows = rows.into_iter();
    let mut acc = Row::clone(rows.next()?);
    rows.for_each(|row| acc.merge_from(row));
    Some(acc)
}

proptest! {
    #[test]
    fn merge_shared_equals_the_left_fold_of_merge_from(
        // Per row: (column index, timestamp) pairs over few columns and few
        // timestamps, so ties, repeats and disjoint sets are all frequent.
        specs in prop::collection::vec(prop::collection::vec((0u8..4, 0u64..4), 0..5), 0..6),
        repeat_first in 0usize..3,
    ) {
        let mut rows: Vec<Arc<Row>> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut row = Row::new();
                for &(column, ts) in spec {
                    // The payload names its row, so a tie resolved towards
                    // the wrong row changes the content compared below.
                    let value = format!("r{i}c{column}t{ts}").into_bytes();
                    row.columns
                        .insert(format!("c{column}").into(), Cell::new(value, Timestamp(ts)));
                }
                Arc::new(row)
            })
            .collect();
        // The same `Arc` appearing again (one replica's row reaching the
        // coordinator through two paths) must change nothing.
        if let Some(first) = rows.first().cloned() {
            rows.extend(std::iter::repeat_n(first, repeat_first));
        }

        let merged = Row::merge_shared(rows.iter());
        let folded = left_fold(rows.iter().map(|r| &**r));
        prop_assert_eq!(merged.as_deref(), folded.as_ref());
    }

    #[test]
    fn engine_write_paths_store_the_left_fold_of_merge_from(
        // Per op: (kind, key, (column, timestamp) pairs, mutation timestamp).
        // Kind 0 applies a mutation of those columns at the op's timestamp,
        // kind 1 a row with the per-column timestamps, kind 2 holds the
        // key's current row. Few keys, columns and timestamps make ties
        // frequent; empty column lists give empty writes.
        ops in prop::collection::vec(
            (0u8..3, 0u32..3, prop::collection::vec((0u8..4, 0u64..4), 0..4), 0u64..4),
            0..24,
        ),
    ) {
        let mut engine = StorageEngine::default();
        let mut inputs: Vec<(u32, Row)> = Vec::new();
        let mut held: Vec<(Arc<Row>, Row)> = Vec::new();
        for (i, (kind, key, columns, ts)) in ops.into_iter().enumerate() {
            // The payload names its op, so a tie resolved towards the wrong
            // write changes the content compared below.
            let value = |c: u8| format!("o{i}c{c}").into_bytes();
            match kind {
                0 => {
                    let mutation = Mutation::multi(
                        columns.iter().map(|&(c, _)| (format!("c{c}"), value(c))).collect(),
                    );
                    engine.apply(KeyId(key), &mutation, Timestamp(ts));
                    // An applied mutation leaves a row, even an empty one.
                    inputs.push((key, mutation.into_row(Timestamp(ts))));
                }
                1 => {
                    let mut row = Row::new();
                    for &(c, cts) in &columns {
                        row.columns
                            .insert(format!("c{c}").into(), Cell::new(value(c), Timestamp(cts)));
                    }
                    engine.apply_row(KeyId(key), &row);
                    // `apply_row` ignores an empty row.
                    if !row.is_empty() {
                        inputs.push((key, row));
                    }
                }
                _ => {
                    let current = engine.get(KeyId(key));
                    held.extend(current.map(|row| (Arc::clone(&row), Row::clone(&row))));
                }
            }
        }
        for key in 0..3u32 {
            let rows: Vec<&Row> =
                inputs.iter().filter(|(k, _)| *k == key).map(|(_, r)| r).collect();
            let fold = left_fold(rows.iter().copied());
            // The same rule without `merge_from`: per column, the newest
            // timestamp wins and the first write wins a tie.
            let spelled_out = (!rows.is_empty()).then(|| Row {
                columns: rows
                    .iter()
                    .flat_map(|r| r.columns.keys())
                    .map(|name| {
                        let cells = rows.iter().filter_map(|r| r.columns.get(name));
                        let winner =
                            cells.reduce(|a, b| if b.timestamp > a.timestamp { b } else { a });
                        (Arc::clone(name), winner.cloned().unwrap())
                    })
                    .collect(),
            });
            prop_assert_eq!(&fold, &spelled_out);
            let stored = engine.get(KeyId(key));
            prop_assert_eq!(stored.as_deref(), fold.as_ref());
            let newest = fold.as_ref().map(Row::latest_timestamp);
            prop_assert_eq!(engine.digest(KeyId(key)), newest);
        }
        for (row, copy) in &held {
            prop_assert_eq!(&**row, copy);
        }
    }
}
