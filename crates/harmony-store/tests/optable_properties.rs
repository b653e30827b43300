//! Property tests for [`OpTable`]: under any interleaving of insert / get /
//! get_mut / remove / iterate it must behave exactly like a
//! `BTreeMap<u64, T>` — including the cases a sliding window could get
//! wrong: ids below the window's old end, ids far past its young end,
//! re-inserting a live id, and removing an id that is absent or already
//! gone (a straggler response or a `ClientReply` for a reaped operation
//! must stay a silent no-op).
//!
//! Sampling is deterministic per property (the mini-proptest shim derives
//! its seed from the property name), so a failure reproduces exactly.

use harmony_store::messages::OpId;
use harmony_store::optable::OpTable;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Asserts that `table` and `model` hold the same records, walked in the
/// same (strictly ascending) order.
fn same_contents(table: &OpTable<u64>, model: &BTreeMap<u64, u64>) -> Result<(), String> {
    prop_assert_eq!(table.len(), model.len());
    prop_assert_eq!(table.is_empty(), model.is_empty());
    let walked: Vec<(u64, u64)> = table.iter().map(|(op, v)| (op.0, *v)).collect();
    let expected: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert_eq!(walked, expected);
    Ok(())
}

/// One step of the interleaving: `(kind, id, value)`. Ids are drawn around a
/// drifting centre so the live band slides upwards like real op ids do, with
/// an occasional far jump in either direction.
fn apply(
    table: &mut OpTable<u64>,
    model: &mut BTreeMap<u64, u64>,
    (kind, id, value): (u8, u64, u64),
) -> Result<(), String> {
    match kind {
        0..=3 => prop_assert_eq!(table.insert(OpId(id), value), model.insert(id, value)),
        4..=6 => prop_assert_eq!(table.remove(OpId(id)), model.remove(&id)),
        7 => prop_assert_eq!(table.get(OpId(id)), model.get(&id)),
        _ => {
            let (got, want) = (table.get_mut(OpId(id)), model.get_mut(&id));
            prop_assert_eq!(got.is_some(), want.is_some());
            if let (Some(got), Some(want)) = (got, want) {
                *got += value;
                *want += value;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings over a sliding band of ids agree with the model
    /// after every step.
    #[test]
    fn behaves_like_a_btreemap(
        start in 0u64..1_000_000,
        steps in prop::collection::vec((0u8..9, 0u64..64, 0u64..1_000), 1..400),
    ) {
        let mut table = OpTable::new();
        let mut model = BTreeMap::new();
        for (i, (kind, offset, value)) in steps.into_iter().enumerate() {
            // The band's centre drifts up by one id every four steps.
            let id = start + i as u64 / 4 + offset;
            apply(&mut table, &mut model, (kind, id, value))?;
            same_contents(&table, &model)?;
        }
    }

    /// Ids far outside the current window — below its old end (an abort
    /// staged for an old op) and far above its young end — are stored,
    /// found and walked in order like any other.
    #[test]
    fn window_extends_at_both_ends(
        centre in 5_000u64..10_000,
        steps in prop::collection::vec((0u8..9, 0u64..5_000, 0u64..1_000, 0u8..2), 1..120),
    ) {
        let mut table = OpTable::new();
        let mut model = BTreeMap::new();
        for (kind, distance, value, below) in steps {
            let id = if below == 1 { centre - distance } else { centre + distance };
            apply(&mut table, &mut model, (kind, id, value))?;
            same_contents(&table, &model)?;
        }
        // Ids the table can never have seen are absent, not a panic.
        prop_assert_eq!(table.get(OpId(u64::MAX)), None);
        prop_assert_eq!(table.remove(OpId(u64::MAX)), None);
        prop_assert_eq!(table.remove(OpId(0)), model.remove(&0));
    }

    /// A clone is independent data: mutating either side never shows in the
    /// other (the model checker snapshots clusters by cloning them).
    #[test]
    fn clone_mutates_independently(
        before in prop::collection::vec((0u8..9, 0u64..48, 0u64..1_000), 1..80),
        after in prop::collection::vec((0u8..9, 0u64..48, 0u64..1_000), 1..80),
    ) {
        let mut table = OpTable::new();
        let mut model = BTreeMap::new();
        for step in before {
            apply(&mut table, &mut model, step)?;
        }
        let (mut fork, mut fork_model) = (table.clone(), model.clone());
        for step in after {
            apply(&mut fork, &mut fork_model, step)?;
        }
        same_contents(&table, &model)?;
        same_contents(&fork, &fork_model)?;
    }
}
