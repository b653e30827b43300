//! Property test for read reconciliation: the dominance-aware, copy-avoiding
//! [`Row::merge_shared`] must return exactly what the plain left fold of
//! [`Row::merge_from`] builds — per-column last-write-wins, earlier rows
//! winning ties — for any list of rows, including ties, empty rows and
//! disjoint column sets.

use harmony_store::types::{Cell, Row, Timestamp};
use proptest::prelude::*;
use std::sync::Arc;

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

        let folded = rows.split_first().map(|(first, rest)| {
            let mut acc = Row::clone(first);
            for row in rest {
                acc.merge_from(row);
            }
            acc
        });
        let merged = Row::merge_shared(rows.iter());
        prop_assert_eq!(merged.as_deref(), folded.as_ref());
    }
}
