//! Pluggable event-delivery contexts and timers-as-resources.
//!
//! The protocol core of `harmony-store` is written against [`EventCtx`]
//! instead of a concrete [`Simulation`]: a state machine consumes a typed
//! event and *emits* follow-up events through the context, never touching a
//! clock or an event queue directly. That inversion is what makes the core
//! explorable — a model checker implements [`EventCtx`] with a plain pending
//! list and chooses delivery orders itself, while the production drivers keep
//! using [`Simulation`] through the blanket impl below (same code path,
//! byte-identical behaviour).
//!
//! [`TimerTable`] gives the same treatment to timeouts: a timer is an owned
//! resource (armed, superseded, cancelled), and a timer *firing event* only
//! takes effect if its id is still armed — so a cancelled or superseded timer
//! never fires even though its wake-up event may still sit in a queue.

use crate::clock::SimTime;
use crate::engine::Simulation;
use crate::FixedState;
use std::collections::HashMap;

/// The context a pure event-driven state machine runs against: a read-only
/// clock plus an `emit` sink for follow-up events. Implementations decide
/// what "emit" means — schedule on a discrete-event queue ([`Simulation`]),
/// append to an explorable pending list (the `harmony-check` checker), or
/// forward over a real network.
pub trait EventCtx<E> {
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Emits a follow-up event to take effect `delay` after [`EventCtx::now`].
    /// The context owns delivery order; callers must not assume emitted
    /// events are observed in emission order.
    fn emit(&mut self, delay: SimTime, event: E);
}

/// Every simulation whose event type can absorb `E` is an event context for
/// `E`. This is what keeps the refactored protocol core byte-identical under
/// the existing runners: `emit` lowers to the exact `schedule_in(…, e.into())`
/// call the inline handlers used to make.
impl<E, F: From<E>> EventCtx<E> for Simulation<F> {
    fn now(&self) -> SimTime {
        Simulation::now(self)
    }

    fn emit(&mut self, delay: SimTime, event: E) {
        self.schedule_in(delay, event.into());
    }
}

/// Identifies one armed timer. Ids are never reused by a [`TimerTable`], so a
/// stale wake-up event carrying an old id is harmless: firing it finds
/// nothing armed and does nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(pub u64);

/// Timers as owned resources. Arming hands out a fresh [`TimerId`]; the
/// wake-up event (scheduled by the caller through its [`EventCtx`]) carries
/// the id back, and [`TimerTable::fire`] returns the payload only if that id
/// is still armed. Cancelling or superseding removes the payload, so the
/// in-flight wake-up becomes a no-op — "cancelled timers never fire" without
/// needing the event queue to support removal.
#[derive(Debug, Clone, Default)]
pub struct TimerTable<T> {
    next: u64,
    armed: HashMap<u64, T, FixedState>,
}

impl<T> TimerTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        TimerTable {
            next: 0,
            armed: HashMap::default(),
        }
    }

    /// Arms a timer, returning its id. The caller is responsible for emitting
    /// the wake-up event that will eventually [`TimerTable::fire`] this id.
    pub fn arm(&mut self, timer: T) -> TimerId {
        let id = self.next;
        self.next += 1;
        self.armed.insert(id, timer);
        TimerId(id)
    }

    /// Cancels an armed timer. Idempotent; firing a cancelled id later
    /// returns `None`.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        self.armed.remove(&id.0).is_some()
    }

    /// Replaces an armed timer with a new payload under a *fresh* id — the
    /// superseded id is cancelled, so a wake-up still in flight for it never
    /// fires. Returns the new id.
    pub fn supersede(&mut self, old: TimerId, timer: T) -> TimerId {
        self.cancel(old);
        self.arm(timer)
    }

    /// Consumes a wake-up: returns the payload if `id` is still armed (and
    /// disarms it), `None` if it was cancelled, superseded or already fired.
    pub fn fire(&mut self, id: TimerId) -> Option<T> {
        self.armed.remove(&id.0)
    }

    /// True if `id` is currently armed.
    pub fn is_armed(&self, id: TimerId) -> bool {
        self.armed.contains_key(&id.0)
    }

    /// The armed timers in ascending id order — a deterministic view for
    /// state fingerprinting (the backing map has no stable iteration order).
    pub fn armed_entries(&self) -> Vec<(TimerId, &T)> {
        let mut entries: Vec<_> = self.armed.iter().map(|(k, t)| (TimerId(*k), t)).collect();
        entries.sort_by_key(|(id, _)| *id);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_is_an_event_ctx() {
        #[derive(Debug, PartialEq)]
        struct Wrapped(u32);
        impl From<u32> for Wrapped {
            fn from(v: u32) -> Self {
                Wrapped(v)
            }
        }
        let mut sim: Simulation<Wrapped> = Simulation::new(1);
        EventCtx::<u32>::emit(&mut sim, SimTime::from_millis(3), 7);
        assert_eq!(EventCtx::<u32>::now(&sim), SimTime::ZERO);
        let (t, ev) = sim.next().unwrap();
        assert_eq!(t, SimTime::from_millis(3));
        assert_eq!(ev, Wrapped(7));
    }

    #[test]
    fn armed_timers_fire_exactly_once() {
        let mut table: TimerTable<&'static str> = TimerTable::new();
        let id = table.arm("reaper");
        assert!(table.is_armed(id));
        assert_eq!(table.fire(id), Some("reaper"));
        assert_eq!(table.fire(id), None, "a timer fires at most once");
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut table: TimerTable<u8> = TimerTable::new();
        let id = table.arm(1);
        assert!(table.cancel(id));
        assert!(!table.cancel(id), "cancel is idempotent");
        assert_eq!(table.fire(id), None);
    }

    #[test]
    fn superseded_timers_never_fire_but_their_successor_does() {
        let mut table: TimerTable<u8> = TimerTable::new();
        let old = table.arm(1);
        let new = table.supersede(old, 2);
        assert_ne!(old, new, "supersede hands out a fresh id");
        assert_eq!(table.fire(old), None, "the superseded wake-up is inert");
        assert_eq!(table.fire(new), Some(2));
    }

    #[test]
    fn ids_are_never_reused() {
        let mut table: TimerTable<u8> = TimerTable::new();
        let a = table.arm(1);
        table.cancel(a);
        let b = table.arm(2);
        assert_ne!(a, b);
    }
}
