//! The calendar [`EventQueue`] against a reference model: the plain binary
//! heap keyed by `(time, sequence)` that the queue used to be. Seeded random
//! interleavings of every queue operation must produce identical
//! `(time, payload)` pop sequences, peeks and lengths.

use harmony_sim::{EventQueue, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The ring's horizon in nanoseconds (4 096 buckets of 1 024 ns).
const HORIZON: u64 = 4096 << 10;

/// The reference: one binary heap ordered by `(time, sequence)`.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    next_seq: u64,
}

impl HeapModel {
    fn schedule_at(&mut self, time: SimTime, payload: u64) {
        self.heap.push(Reverse((time, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse((t, _, p))| (t, p))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
}

/// Both queues, driven in lockstep; every observation is compared.
struct Pair {
    queue: EventQueue<u64>,
    model: HeapModel,
    next_payload: u64,
    /// The time of the last pop (the simulation's "now").
    now: SimTime,
    pops: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            queue: EventQueue::new(),
            model: HeapModel::default(),
            next_payload: 0,
            now: SimTime::ZERO,
            pops: 0,
        }
    }

    fn push(&mut self, time: SimTime) {
        let payload = self.next_payload;
        self.next_payload += 1;
        self.queue.schedule_at(time, payload);
        self.model.schedule_at(time, payload);
        self.check();
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let got = self.queue.pop();
        assert_eq!(got, self.model.pop(), "pop #{}", self.pops);
        if let Some((t, _)) = got {
            self.now = t;
            self.pops += 1;
        }
        self.check();
        got
    }

    fn clear(&mut self) {
        self.queue.clear();
        self.model.heap.clear();
        self.check();
    }

    fn check(&self) {
        assert_eq!(self.queue.len(), self.model.heap.len());
        assert_eq!(self.queue.is_empty(), self.model.heap.is_empty());
        assert_eq!(self.queue.peek_time(), self.model.peek_time());
        assert_eq!(self.queue.scheduled_total(), self.model.next_seq);
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.queue.is_empty());
    }
}

/// A delay drawn from a mixture that covers every region of the queue:
/// inside one bucket, inside the ring, around and past its horizon.
fn delay(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..100u32) {
        0..=9 => 0,
        10..=29 => rng.gen_range(0..1024u64),
        30..=79 => rng.gen_range(0..400_000u64),
        80..=89 => rng.gen_range(0..HORIZON),
        90..=95 => HORIZON - 2048 + rng.gen_range(0..4096u64),
        _ => rng.gen_range(HORIZON..100 * HORIZON),
    }
}

#[test]
fn random_interleavings_match_the_heap() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pair = Pair::new();
        for _ in 0..4_000 {
            match rng.gen_range(0..100u32) {
                0..=54 => {
                    let t = SimTime::from_nanos(pair.now.as_nanos() + delay(&mut rng));
                    pair.push(t);
                }
                55..=94 => {
                    pair.pop();
                }
                // Direct queue use may schedule before the last pop.
                95..=98 => {
                    let back = rng.gen_range(0..2 * HORIZON);
                    pair.push(pair.now.saturating_sub(SimTime::from_nanos(back)));
                }
                _ => {
                    if rng.gen_range(0..10u32) == 0 {
                        pair.clear();
                    }
                }
            }
        }
        pair.drain();
    }
}

#[test]
fn many_equal_times_stay_fifo() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut pair = Pair::new();
    let times: Vec<SimTime> = (0..4)
        .map(|i| SimTime::from_nanos(5_000 + i * 700))
        .collect();
    for _ in 0..20 {
        for _ in 0..500 {
            pair.push(times[rng.gen_range(0..times.len())]);
        }
        for _ in 0..300 {
            pair.pop();
        }
    }
    pair.drain();
}

#[test]
fn a_run_over_many_horizons_wraps_the_ring() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut pair = Pair::new();
    for _ in 0..64 {
        pair.push(SimTime::from_nanos(rng.gen_range(0..HORIZON)));
    }
    // Keep 64 events pending while virtual time runs over 300 horizons; one
    // push in 50 is a timer past the horizon.
    while pair.now.as_nanos() < 300 * HORIZON {
        pair.pop();
        let ahead = if rng.gen_range(0..50u32) == 0 {
            rng.gen_range(HORIZON..4 * HORIZON)
        } else {
            rng.gen_range(0..HORIZON / 8)
        };
        pair.push(SimTime::from_nanos(pair.now.as_nanos() + ahead));
    }
    pair.drain();
}

#[test]
fn bursts_deeper_than_one_bucket() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut pair = Pair::new();
    for round in 0..10u64 {
        let bucket_start = pair.now.as_nanos() + (round + 1) * 1024;
        let base = bucket_start & !1023;
        for _ in 0..1_000 {
            pair.push(SimTime::from_nanos(base + rng.gen_range(0..1024u64)));
        }
        for _ in 0..600 {
            pair.pop();
        }
    }
    pair.drain();
}

#[test]
fn schedules_before_the_last_pop_and_at_the_extremes() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut pair = Pair::new();
    pair.push(SimTime::from_millis(50));
    pair.push(SimTime::from_millis(60));
    pair.pop();
    for _ in 0..200 {
        let t = rng.gen_range(0..100_000_000u64);
        pair.push(SimTime::from_nanos(t));
        if rng.gen_bool(0.4) {
            pair.pop();
        }
    }
    pair.push(SimTime::MAX);
    pair.push(SimTime::MAX);
    pair.push(SimTime::ZERO);
    pair.drain();
    // Cleared mid-run, then refilled on both sides of the cursor.
    pair.push(SimTime::from_millis(200));
    pair.push(SimTime::from_millis(201));
    pair.pop();
    pair.clear();
    for ms in [5, 300, 200, 199, 202, 200] {
        pair.push(SimTime::from_millis(ms));
    }
    pair.drain();
}
