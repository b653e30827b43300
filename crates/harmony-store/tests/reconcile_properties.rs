//! Property tests for reconciliation: the dominance-aware, copy-avoiding
//! [`Row::merge_shared`] must return exactly what the plain left fold of
//! [`Row::merge_from`] builds — per-column last-write-wins, earlier rows
//! winning ties — for any list of rows, including ties, empty rows and
//! disjoint column sets; the storage engine's two write paths (`apply`
//! and `apply_row`) must store that same fold; and the flat, name-sorted
//! row must hold exactly what a `BTreeMap` fold of the same writes holds,
//! whichever of `upsert`, `merge_from` and `merge_shared` applied them.

use harmony_store::engine::StorageEngine;
use harmony_store::keys::KeyId;
use harmony_store::types::{Cell, Field, Mutation, Row, Timestamp};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A row's columns in its own order, each with its name.
fn columns(row: &Row) -> Vec<(String, Cell)> {
    row.iter()
        .map(|(name, cell)| (name.to_string(), cell.clone()))
        .collect()
}

/// A reference map's columns in name order.
fn flatten(reference: BTreeMap<String, Cell>) -> Vec<(String, Cell)> {
    reference.into_iter().collect()
}

/// A cell writing `value` to column `c{column}` at `ts`, in a field of its own.
fn cell(column: u8, value: Vec<u8>, ts: u64) -> Cell {
    Cell {
        field: Field::shared(format!("c{column}"), value),
        timestamp: Timestamp(ts),
    }
}

/// The reference rule for one column: the stored cell stands unless the
/// offered one is strictly newer (last-write-wins, ties to the incumbent).
fn reference_upsert(reference: &mut BTreeMap<String, Cell>, cell: &Cell) {
    match reference.get_mut(cell.name()) {
        Some(stored) if stored.timestamp >= cell.timestamp => {}
        Some(stored) => *stored = cell.clone(),
        None => {
            reference.insert(cell.name().to_string(), cell.clone());
        }
    }
}

/// True when `mine` holds every column of `theirs` with a timestamp that
/// passes `newer` against it.
fn reference_covers(
    mine: &BTreeMap<String, Cell>,
    theirs: &BTreeMap<String, Cell>,
    newer: fn(&Timestamp, &Timestamp) -> bool,
) -> bool {
    theirs.iter().all(|(name, cell)| {
        mine.get(name)
            .is_some_and(|c| newer(&c.timestamp, &cell.timestamp))
    })
}

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
                // The payload names its row, so a tie resolved towards the
                // wrong row changes the content compared below.
                let row: Row = spec
                    .iter()
                    .map(|&(column, ts)| cell(column, format!("r{i}c{column}t{ts}").into_bytes(), ts))
                    .collect();
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
                    let row: Row = columns
                        .iter()
                        .map(|&(c, cts)| cell(c, value(c), cts))
                        .collect();
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
            let spelled_out = (!rows.is_empty()).then(|| {
                rows.iter()
                    .flat_map(|r| r.iter())
                    .map(|(name, _)| {
                        let cells = rows.iter().filter_map(|r| r.get(name));
                        let winner =
                            cells.reduce(|a, b| if b.timestamp > a.timestamp { b } else { a });
                        (name.to_string(), winner.cloned().unwrap())
                    })
                    .collect::<BTreeMap<_, _>>()
            });
            prop_assert_eq!(fold.as_ref().map(columns), spelled_out.map(flatten));
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

proptest! {
    #[test]
    fn flat_rows_match_a_btreemap_reference_fold(
        // Per step: (path, (column, timestamp, pooled field) triples in
        // insertion order). Path 0 upserts the triples one by one, path 1
        // merges them in as a row with `merge_from`, path 2 reconciles the
        // current row with that row through `merge_shared`. Six names and
        // four timestamps make repeats, ties and splices frequent.
        steps in prop::collection::vec(
            (0u8..3, prop::collection::vec((0u8..6, 0u64..4, 0u8..2), 0..8)),
            0..16,
        ),
    ) {
        // A pooled field is one allocation that every write of its column
        // reuses at a fresh timestamp, as the runner re-applies its prebuilt
        // update mutations; otherwise each write brings a field of its own.
        // Both must match by content and by identity.
        let pool: Vec<Arc<Field>> =
            (0..6).map(|c| Field::shared(format!("c{c}"), format!("p{c}").into_bytes())).collect();
        let mut row = Arc::new(Row::new());
        let mut reference: BTreeMap<String, Cell> = BTreeMap::new();
        for (i, (path, triples)) in steps.into_iter().enumerate() {
            let cells: Vec<Cell> = triples
                .iter()
                .enumerate()
                .map(|(j, &(c, ts, pooled))| {
                    if pooled == 1 {
                        Cell { field: Arc::clone(&pool[c as usize]), timestamp: Timestamp(ts) }
                    } else {
                        // The payload names its write, so a tie resolved
                        // towards the wrong cell changes the content
                        // compared below.
                        cell(c, format!("s{i}w{j}").into_bytes(), ts)
                    }
                })
                .collect();
            let mut offered: BTreeMap<String, Cell> = BTreeMap::new();
            cells.iter().for_each(|cell| reference_upsert(&mut offered, cell));
            match path {
                0 => {
                    let target = Arc::make_mut(&mut row);
                    for cell in &cells {
                        target.upsert(&cell.field, cell.timestamp);
                        reference_upsert(&mut reference, cell);
                    }
                }
                1 => {
                    let other: Row = cells.into_iter().collect();
                    prop_assert_eq!(columns(&other), flatten(offered.clone()));
                    Arc::make_mut(&mut row).merge_from(&other);
                    offered.values().for_each(|cell| reference_upsert(&mut reference, cell));
                }
                _ => {
                    let other: Arc<Row> = Arc::new(cells.into_iter().collect());
                    let merged = Row::merge_shared([&row, &other].into_iter()).unwrap();
                    // Dominance, the private `covers` walk, seen through the
                    // copy `merge_shared` avoids.
                    if reference_covers(&reference, &offered, Timestamp::ge) {
                        prop_assert!(Arc::ptr_eq(&merged, &row));
                    } else if reference_covers(&offered, &reference, Timestamp::gt) {
                        prop_assert!(Arc::ptr_eq(&merged, &other));
                    } else {
                        prop_assert!(!Arc::ptr_eq(&merged, &row) && !Arc::ptr_eq(&merged, &other));
                    }
                    offered.values().for_each(|cell| reference_upsert(&mut reference, cell));
                    row = merged;
                }
            }
            let names: Vec<&str> = row.iter().map(|(name, _)| name).collect();
            prop_assert!(names.windows(2).all(|w| w[0] < w[1]), "names {:?}", names);
            prop_assert_eq!(columns(&row), flatten(reference.clone()));
            // Every stored cell is the written field itself, never a copy.
            let shared = row
                .iter()
                .zip(reference.values())
                .all(|((_, stored), written)| Arc::ptr_eq(&stored.field, &written.field));
            prop_assert!(shared);
            prop_assert_eq!(row.len(), reference.len());
            for field in &pool {
                prop_assert_eq!(row.get(&field.name), reference.get(&*field.name));
            }
            let newest = reference.values().map(|c| c.timestamp).max();
            prop_assert_eq!(row.latest_timestamp(), newest.unwrap_or(Timestamp::ZERO));
        }
    }
}
