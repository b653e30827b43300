//! An [`OpId`]-indexed table for per-operation state.
//!
//! Operation ids are allocated monotonically and an operation lives for a
//! few simulated milliseconds, so the live ids always sit in a narrow band
//! near the newest one. [`OpTable`] exploits that: a sliding *window* holds
//! one 4-byte arena slot number per id between the oldest live id and the
//! youngest id ever inserted, and the records themselves sit in a dense
//! arena recycled through a free list. `get` / `get_mut` / `insert` /
//! `remove` are two array indexings — no hashing, no probing, no re-hash
//! growth — and iteration is in ascending `OpId` order by construction, so
//! nothing downstream has to sort to be deterministic.
//!
//! Ids neither arrive nor leave in order (under faults one stranded
//! operation pins the old end of the window for a virtual second while tens
//! of thousands of younger ids come and go), hence the two-level shape: a
//! wide, sparse window stays cheap at 4 bytes per spanned id because the
//! records are in the arena, whose length is the peak number of *live*
//! operations. Only the old end is trimmed, and only past vacant ids, so
//! every id is pushed onto and popped off the window exactly once.
//!
//! The table is plain owned data: a clone is fully independent, which the
//! `harmony-check` explorer relies on when it snapshots a cluster.

use crate::messages::OpId;
use std::collections::VecDeque;

/// Window entry of an id that is not in the table.
const VACANT: u32 = u32::MAX;

/// A map from [`OpId`] to `T` for ids that are allocated monotonically and
/// removed soon after (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct OpTable<T> {
    /// The id `window[0]` stands for.
    base: u64,
    /// Arena slot of every id in `base..base + window.len()`, or [`VACANT`].
    window: VecDeque<u32>,
    /// The records; `None` slots are listed in `free`.
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    /// Window entries pushed or popped so far — the only loops in the table.
    #[cfg(test)]
    window_steps: u64,
}

impl<T> Default for OpTable<T> {
    fn default() -> Self {
        OpTable {
            base: 0,
            window: VecDeque::new(),
            slots: Vec::new(),
            free: Vec::new(),
            #[cfg(test)]
            window_steps: 0,
        }
    }
}

impl<T> OpTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records in the table.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True if the table holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tallies window entries pushed or popped (test builds only).
    fn count_steps(&mut self, _steps: usize) {
        #[cfg(test)]
        {
            self.window_steps += _steps as u64;
        }
    }

    /// The arena slot of `op`, if it is in the table.
    fn slot(&self, op: OpId) -> Option<usize> {
        let offset = usize::try_from(op.0.checked_sub(self.base)?).ok()?;
        match *self.window.get(offset)? {
            VACANT => None,
            slot => Some(slot as usize),
        }
    }

    /// The record of `op`.
    pub fn get(&self, op: OpId) -> Option<&T> {
        self.slots[self.slot(op)?].as_ref()
    }

    /// The record of `op`, mutably.
    pub fn get_mut(&mut self, op: OpId) -> Option<&mut T> {
        let slot = self.slot(op)?;
        self.slots[slot].as_mut()
    }

    /// Stores `value` under `op`, returning the record it replaces. The
    /// window grows to span `op` at either end, so ids are expected to come
    /// from one monotonic allocator (the cost is 4 bytes per spanned id).
    pub fn insert(&mut self, op: OpId, value: T) -> Option<T> {
        if self.window.is_empty() {
            self.base = op.0;
        }
        while op.0 < self.base {
            self.window.push_front(VACANT);
            self.base -= 1;
            self.count_steps(1);
        }
        let offset = (op.0 - self.base) as usize;
        if offset >= self.window.len() {
            self.count_steps(offset + 1 - self.window.len());
            self.window.resize(offset + 1, VACANT);
        }
        match self.window[offset] {
            VACANT => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slots[slot as usize] = Some(value);
                        slot
                    }
                    None => {
                        assert!(self.slots.len() < VACANT as usize, "arena full");
                        self.slots.push(Some(value));
                        (self.slots.len() - 1) as u32
                    }
                };
                self.window[offset] = slot;
                None
            }
            slot => self.slots[slot as usize].replace(value),
        }
    }

    /// Removes and returns the record of `op`; `None` (and no change) if it
    /// is not in the table.
    pub fn remove(&mut self, op: OpId) -> Option<T> {
        let slot = self.slot(op)?;
        self.window[(op.0 - self.base) as usize] = VACANT;
        self.free.push(slot as u32);
        // Trim the old end only: the young end is where the next id lands.
        while self.window.front() == Some(&VACANT) {
            self.window.pop_front();
            self.base += 1;
            self.count_steps(1);
        }
        self.slots[slot].take()
    }

    /// Every record, in ascending `OpId` order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &T)> {
        self.window
            .iter()
            .enumerate()
            .filter(|(_, slot)| **slot != VACANT)
            .map(move |(offset, slot)| {
                let value = self.slots[*slot as usize]
                    .as_ref()
                    .expect("window points at a live slot");
                (OpId(self.base + offset as u64), value)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = OpTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(OpId(7), "a"), None);
        assert_eq!(t.insert(OpId(9), "b"), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(OpId(7)), Some(&"a"));
        assert_eq!(t.get(OpId(8)), None);
        *t.get_mut(OpId(9)).unwrap() = "c";
        assert_eq!(t.remove(OpId(9)), Some("c"));
        assert_eq!(t.remove(OpId(7)), Some("a"));
        assert!(t.is_empty());
        assert!(t.window.is_empty(), "an empty table spans no ids");
    }

    #[test]
    fn reinserting_a_live_id_replaces_its_record_in_place() {
        let mut t = OpTable::new();
        t.insert(OpId(3), 1);
        assert_eq!(t.insert(OpId(3), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.slots.len(), 1);
        assert_eq!(t.get(OpId(3)), Some(&2));
    }

    #[test]
    fn absent_and_already_removed_ids_are_silent_no_ops() {
        let mut t = OpTable::new();
        assert_eq!(t.remove(OpId(0)), None);
        t.insert(OpId(10), 'x');
        t.insert(OpId(12), 'y');
        for absent in [0, 9, 11, 13, u64::MAX] {
            assert_eq!(t.get(OpId(absent)), None);
            assert_eq!(t.get_mut(OpId(absent)), None);
            assert_eq!(t.remove(OpId(absent)), None);
        }
        assert_eq!(t.remove(OpId(12)), Some('y'));
        assert_eq!(t.remove(OpId(12)), None, "second remove of the same id");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn window_grows_downwards_and_iterates_ascending() {
        let mut t = OpTable::new();
        t.insert(OpId(50_000), "young");
        // An abort staged late for an old op lands below the window.
        t.insert(OpId(10_000), "old");
        t.insert(OpId(30_000), "middle");
        let ids: Vec<u64> = t.iter().map(|(op, _)| op.0).collect();
        assert_eq!(ids, vec![10_000, 30_000, 50_000]);
        assert_eq!(t.remove(OpId(10_000)), Some("old"));
        assert_eq!(t.base, 30_000, "the old end advances to the next live id");
    }

    #[test]
    fn freed_slots_are_reused_before_the_arena_grows() {
        let mut t = OpTable::new();
        for round in 0..100u64 {
            t.insert(OpId(2 * round), round);
            t.insert(OpId(2 * round + 1), round);
            t.remove(OpId(2 * round));
            t.remove(OpId(2 * round + 1));
        }
        assert_eq!(t.slots.len(), 2);
        assert!(t.is_empty());
    }

    /// The `chaos` shape: one stranded operation pins the old end of the
    /// window while tens of thousands of younger ids come and go in a small
    /// rolling group. The arena must stay at the live count, the window at
    /// 4 bytes per spanned id, and the work linear — a table that re-trimmed
    /// its young end (or rescanned the window) per removal would go
    /// quadratic here.
    #[test]
    fn a_pinned_old_id_keeps_the_table_small_and_the_work_linear() {
        const YOUNGER: u64 = 50_000;
        const GROUP: u64 = 40;
        let mut t = OpTable::new();
        t.insert(OpId(0), 0u64);
        for id in 1..=YOUNGER {
            if id > GROUP {
                assert_eq!(t.remove(OpId(id - GROUP)), Some(id - GROUP));
            }
            t.insert(OpId(id), id);
            assert!(t.slots.len() <= GROUP as usize + 1);
        }
        assert_eq!(t.len(), GROUP as usize + 1);
        assert_eq!(t.base, 0, "the stranded op still pins the old end");
        let span = YOUNGER + 1;
        assert_eq!(t.window.len() as u64, span);
        assert!(std::mem::size_of::<u32>() as u64 * t.window.len() as u64 <= 4 * span);
        // One window step per id on the way in; none on the way out while
        // id 0 is pinned.
        assert_eq!(t.window_steps, span);
        // Releasing the pin trims the whole vacant prefix once.
        assert_eq!(t.remove(OpId(0)), Some(0));
        assert_eq!(t.base, YOUNGER - GROUP + 1);
        assert_eq!(t.window.len() as u64, GROUP);
        assert_eq!(t.window_steps, span + (YOUNGER - GROUP + 1));
    }
}
