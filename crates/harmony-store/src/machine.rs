//! The typed-event protocol core: one state machine over the whole cluster.
//!
//! [`HarmonyMachine`] wraps [`Cluster`] in the `OnEvent` shape — a pure
//! `state × event → state'` step function whose only side channel is the
//! injected [`EventCtx`]. Message delivery, fault injection and timer
//! wake-ups all arrive through the single [`MachineEvent`] alphabet, so any
//! driver that can feed events and absorb emissions can run the protocol:
//!
//! * the production runners keep using [`Simulation`] (the blanket
//!   `EventCtx` impl makes `Simulation<MachineEvent>` a valid context, with
//!   delivery in deterministic `(time, seq)` order);
//! * the `harmony-check` schedule explorer implements [`EventCtx`] with a
//!   plain pending list and *chooses* delivery orders, which is what turns
//!   the chaos suite's sampled claims into bounded-exhaustive ones.
//!
//! Timers are resources, not scheduled closures: arming a timer records its
//! payload in a [`TimerTable`] and emits a wake-up event carrying the
//! [`TimerId`]; the wake-up only takes effect if the id is still armed, so a
//! cancelled or superseded timer never fires no matter how its wake-up is
//! reordered.
//!
//! [`Simulation`]: harmony_sim::engine::Simulation

use crate::cluster::{fnv1a, Cluster, Completion};
use crate::consistency::ConsistencyLevel;
use crate::keys::KeyId;
use crate::messages::{OpId, StoreEvent};
use crate::types::Mutation;
use harmony_chaos::FaultEvent;
use harmony_sim::clock::SimTime;
use harmony_sim::context::{EventCtx, TimerId, TimerTable};
use std::sync::Arc;

/// Timers owned by the protocol machine.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolTimer {
    /// The chaos-mode stall reaper: when it fires, every operation pending
    /// longer than `timeout` is aborted, and the reaper re-arms itself
    /// `period` later — the event-core port of the polling
    /// [`Cluster::expire_stalled_ops`] call the experiment runners make on
    /// their monitoring tick.
    StallReaper {
        /// Abort operations pending longer than this.
        timeout: SimTime,
        /// Re-arm interval.
        period: SimTime,
    },
    /// Periodic anti-entropy repair: each firing runs one
    /// [`Cluster::run_anti_entropy_round`] (the next serving node offers its
    /// Merkle-style digests to every reachable peer) and re-arms `period`
    /// later. Because the wake-ups travel the same [`MachineEvent`] alphabet
    /// as deliveries and faults, the schedule explorer can interleave repair
    /// rounds against crashes and partitions like any other protocol step.
    AntiEntropy {
        /// Re-arm interval.
        period: SimTime,
    },
}

/// The protocol core's complete event alphabet: everything that can happen
/// to the cluster arrives as one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineEvent {
    /// Message delivery / service completion / client reply.
    Store(StoreEvent),
    /// A fault or elasticity event (crash, restart, partition, heal, …).
    Fault(FaultEvent),
    /// A timer wake-up. Inert unless the id is still armed.
    Timer(TimerId),
}

impl From<StoreEvent> for MachineEvent {
    fn from(event: StoreEvent) -> Self {
        MachineEvent::Store(event)
    }
}

impl From<FaultEvent> for MachineEvent {
    fn from(event: FaultEvent) -> Self {
        MachineEvent::Fault(event)
    }
}

/// The `OnEvent` state-machine shape: consume one typed event, mutate own
/// state, emit follow-ups through the context — nothing else.
pub trait OnEvent<E> {
    /// Processes one event.
    fn on_event<C: EventCtx<E>>(&mut self, event: E, ctx: &mut C);
}

/// Adapts an `EventCtx<MachineEvent>` into the `EventCtx<StoreEvent>` the
/// inner [`Cluster`] methods expect, wrapping every emission in
/// [`MachineEvent::Store`]. Zero-cost: a reference wrapper the optimiser
/// flattens out.
pub struct StoreCtx<'a, C> {
    inner: &'a mut C,
}

impl<'a, C> StoreCtx<'a, C> {
    /// Wraps a machine-level context for cluster-level emissions.
    pub fn new(inner: &'a mut C) -> Self {
        StoreCtx { inner }
    }
}

impl<C: EventCtx<MachineEvent>> EventCtx<StoreEvent> for StoreCtx<'_, C> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn emit(&mut self, delay: SimTime, event: StoreEvent) {
        self.inner.emit(delay, MachineEvent::Store(event));
    }
}

/// The whole replicated store as one `Clone`-able event state machine:
/// cluster state, armed timers, and the completions the protocol has
/// produced but the driver has not collected yet.
#[derive(Debug, Clone)]
pub struct HarmonyMachine {
    cluster: Cluster,
    timers: TimerTable<ProtocolTimer>,
    completions: Vec<Completion>,
}

impl HarmonyMachine {
    /// Wraps a cluster into the event core.
    pub fn new(cluster: Cluster) -> Self {
        HarmonyMachine {
            cluster,
            timers: TimerTable::new(),
            completions: Vec::new(),
        }
    }

    /// Read access to the wrapped cluster (telemetry, invariant probes).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable access to the wrapped cluster — scenario setup only (key
    /// interning, bulk loads, mutant knobs). Protocol progress must go
    /// through [`HarmonyMachine::on_event`].
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Submits a client read for an interned key.
    pub fn submit_read<C: EventCtx<MachineEvent>>(
        &mut self,
        key: KeyId,
        consistency: ConsistencyLevel,
        ctx: &mut C,
    ) -> OpId {
        self.cluster
            .submit_read_id(key, consistency, &mut StoreCtx::new(ctx))
    }

    /// Submits a client write for an interned key.
    pub fn submit_write<C: EventCtx<MachineEvent>>(
        &mut self,
        key: KeyId,
        mutation: Arc<Mutation>,
        consistency: ConsistencyLevel,
        ctx: &mut C,
    ) -> OpId {
        self.cluster
            .submit_write_id(key, mutation, consistency, &mut StoreCtx::new(ctx))
    }

    /// Arms the periodic stall reaper and emits its first wake-up `period`
    /// from now. Returns the timer id (cancel it to stop the reaper; the
    /// already-emitted wake-up becomes inert).
    pub fn arm_stall_reaper<C: EventCtx<MachineEvent>>(
        &mut self,
        timeout: SimTime,
        period: SimTime,
        ctx: &mut C,
    ) -> TimerId {
        let id = self
            .timers
            .arm(ProtocolTimer::StallReaper { timeout, period });
        ctx.emit(period, MachineEvent::Timer(id));
        id
    }

    /// Arms the periodic anti-entropy timer and emits its first wake-up
    /// `period` from now. Returns the timer id; cancelling it stops the
    /// repair rounds (the in-flight wake-up becomes inert).
    pub fn arm_anti_entropy<C: EventCtx<MachineEvent>>(
        &mut self,
        period: SimTime,
        ctx: &mut C,
    ) -> TimerId {
        let id = self.timers.arm(ProtocolTimer::AntiEntropy { period });
        ctx.emit(period, MachineEvent::Timer(id));
        id
    }

    /// Cancels an armed timer; its in-flight wake-up will do nothing.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.timers.cancel(id)
    }

    /// True if `id` is still armed.
    pub fn timer_armed(&self, id: TimerId) -> bool {
        self.timers.is_armed(id)
    }

    /// Cancels every armed timer — the checker's quiesce procedure calls
    /// this so periodic timers (the stall reaper re-arms itself on every
    /// firing) cannot keep a drain loop alive forever.
    pub fn cancel_all_timers(&mut self) {
        let ids: Vec<TimerId> = self
            .timers
            .armed_entries()
            .iter()
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.timers.cancel(id);
        }
    }

    /// Takes the completions produced since the last drain, in the order the
    /// protocol produced them.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Completions produced and not yet drained.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Canonical state dump: the cluster digest plus armed timers and
    /// undrained completions. Same contract as
    /// [`Cluster::state_digest_string`] — byte equality means behavioural
    /// equivalence under any future event sequence (modulo the documented
    /// RNG exclusion).
    pub fn state_digest_string(&self) -> String {
        use std::fmt::Write as _;
        let mut s = self.cluster.state_digest_string();
        for (id, timer) in self.timers.armed_entries() {
            let _ = write!(s, "t{id:?}={timer:?};");
        }
        for c in &self.completions {
            let _ = write!(s, "done={c:?};");
        }
        s
    }

    /// FNV-1a hash of [`HarmonyMachine::state_digest_string`].
    pub fn state_digest(&self) -> u64 {
        fnv1a(self.state_digest_string().as_bytes())
    }
}

impl OnEvent<MachineEvent> for HarmonyMachine {
    fn on_event<C: EventCtx<MachineEvent>>(&mut self, event: MachineEvent, ctx: &mut C) {
        match event {
            MachineEvent::Store(ev) => {
                if let Some(c) = self.cluster.handle(ev, &mut StoreCtx::new(ctx)) {
                    self.completions.push(c);
                }
            }
            MachineEvent::Fault(fault) => {
                self.cluster.apply_fault(&fault, &mut StoreCtx::new(ctx));
            }
            MachineEvent::Timer(id) => {
                // A wake-up for a cancelled or superseded timer finds nothing
                // armed and falls through — "cancelled timers never fire".
                let Some(timer) = self.timers.fire(id) else {
                    return;
                };
                match timer {
                    ProtocolTimer::StallReaper { timeout, period } => {
                        self.cluster
                            .expire_stalled_ops(timeout, &mut StoreCtx::new(ctx));
                        let next = self
                            .timers
                            .arm(ProtocolTimer::StallReaper { timeout, period });
                        ctx.emit(period, MachineEvent::Timer(next));
                    }
                    ProtocolTimer::AntiEntropy { period } => {
                        self.cluster.run_anti_entropy_round(&mut StoreCtx::new(ctx));
                        let next = self.timers.arm(ProtocolTimer::AntiEntropy { period });
                        ctx.emit(period, MachineEvent::Timer(next));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StoreConfig;
    use crate::types::Timestamp;
    use harmony_sim::engine::Simulation;
    use harmony_sim::latency::Latency;
    use harmony_sim::rng::RngFactory;
    use harmony_sim::topology::{NetworkModel, Topology};

    fn machine() -> (HarmonyMachine, Simulation<MachineEvent>) {
        let topology = Topology::single_dc(1, 3);
        let network = NetworkModel::uniform(Latency::constant_ms(0.2));
        let config = StoreConfig {
            replication_factor: 3,
            ..StoreConfig::default()
        };
        let cluster = Cluster::new(config, topology, network, RngFactory::new(7));
        (HarmonyMachine::new(cluster), Simulation::new(7))
    }

    fn run_to_idle(m: &mut HarmonyMachine, sim: &mut Simulation<MachineEvent>) {
        while let Some((_, ev)) = sim.next() {
            m.on_event(ev, sim);
        }
    }

    #[test]
    fn write_then_read_through_the_machine() {
        let (mut m, mut sim) = machine();
        let key = m.cluster_mut().intern_key("user1");
        m.submit_write(
            key,
            Arc::new(Mutation::single("f", b"v".to_vec())),
            ConsistencyLevel::Quorum,
            &mut sim,
        );
        run_to_idle(&mut m, &mut sim);
        m.submit_read(key, ConsistencyLevel::One, &mut sim);
        run_to_idle(&mut m, &mut sim);
        let comps = m.drain_completions();
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| !c.aborted));
        assert!(!comps[1].stale);
        assert_eq!(m.completions().len(), 0, "drain empties the buffer");
    }

    #[test]
    fn cancelled_stall_reaper_never_fires() {
        let (mut m, mut sim) = machine();
        let id = m.arm_stall_reaper(SimTime::from_millis(10), SimTime::from_millis(5), &mut sim);
        assert!(m.timer_armed(id));
        assert!(m.cancel_timer(id));
        let digest = m.state_digest_string();
        // The wake-up is still queued but must be inert: no reap, no re-arm.
        run_to_idle(&mut m, &mut sim);
        assert_eq!(m.state_digest_string(), digest);
        assert!(sim.is_idle(), "no re-armed wake-up may remain");
    }

    #[test]
    fn anti_entropy_timer_drives_repair_rounds_and_re_arms() {
        let (mut m, mut sim) = machine();
        let key = m.cluster_mut().intern_key("k");
        m.cluster_mut()
            .load_direct("k", &Mutation::single("f", b"v0".to_vec()), Timestamp(1));
        // Manufacture divergence behind the protocol's back, then let the
        // timer-driven rounds close it without any client traffic.
        let replicas = m.cluster_mut().replicas_for_id(key);
        let laggard = replicas.as_slice()[0];
        for &r in replicas.as_slice() {
            if r != laggard {
                m.cluster_mut().node_engine_apply(
                    r,
                    key,
                    &Mutation::single("f", b"v1".to_vec()),
                    Timestamp(9),
                );
            }
        }
        m.cluster_mut().force_acked_ts(key, Timestamp(9));
        assert!(!m.cluster_mut().all_replicas_converged());
        let id = m.arm_anti_entropy(SimTime::from_millis(100), &mut sim);
        // Drive until convergence, then cancel so the sim can go idle.
        let mut fired = 0;
        while let Some((_, ev)) = sim.next() {
            m.on_event(ev, &mut sim);
            if m.cluster_mut().all_replicas_converged() {
                break;
            }
            fired += 1;
            assert!(fired < 1_000, "anti-entropy failed to converge");
        }
        m.cancel_all_timers();
        run_to_idle(&mut m, &mut sim);
        assert!(m.cluster_mut().all_replicas_converged());
        assert!(m.cluster().totals().ae_rounds >= 1);
        assert!(!m.timer_armed(id), "original id was consumed by the firing");
    }

    #[test]
    fn stall_reaper_re_arms_under_a_fresh_id() {
        let (mut m, mut sim) = machine();
        let id = m.arm_stall_reaper(SimTime::from_millis(10), SimTime::from_millis(5), &mut sim);
        // Fire exactly one wake-up.
        let (_, ev) = sim.next().unwrap();
        m.on_event(ev, &mut sim);
        assert!(!m.timer_armed(id), "the fired id is consumed");
        let rearmed = m.timers.armed_entries();
        assert_eq!(rearmed.len(), 1);
        assert!(rearmed[0].0 > id, "re-arm uses a fresh id");
        assert!(!sim.is_idle(), "the next wake-up is scheduled");
    }
}
