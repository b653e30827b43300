//! The fault-event DSL and the deterministic schedule over it.
//!
//! A [`FaultSchedule`] is a time-sorted list of [`FaultEvent`]s, each at an
//! absolute simulated timestamp. Schedules are built either explicitly (the
//! builder methods — `crash_at`, `partition_at`, …) or by the seeded random
//! generators ([`FaultSchedule::random`]), which draw Poisson fault arrivals
//! from their own RNG stream so the *workload's* randomness is untouched.
//! Either way the schedule is pure data: replaying the same schedule against
//! the same seed reproduces the same run, fault for fault.

use harmony_sim::clock::SimTime;
use harmony_sim::topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One typed fault (or elasticity) event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Fail-stop crash: the node stops serving reads and coordinating;
    /// mutations addressed to it are stored as hints and drain on restart.
    /// Work already *in service* completes (the power fails after the
    /// in-flight disk write, not during it); queued reads get an immediate
    /// miss sent back to a coordinator on the crashed node's side of any
    /// cut, so coordinators make progress.
    CrashNode {
        /// The node to crash.
        node: NodeId,
    },
    /// Recovery of a crashed node: it rejoins with its data intact and the
    /// hinted mutations accumulated while it was down are replayed into its
    /// write stage — the backlog spike the controller must ride out.
    RestartNode {
        /// The node to bring back.
        node: NodeId,
    },
    /// Network partition: nodes can only exchange messages within their own
    /// group. Nodes not listed in any group form an implicit extra group.
    /// Clients are multi-homed and keep reaching live coordinators on every
    /// side, so the order of the groups does not matter.
    Partition {
        /// The connectivity groups (each a list of node ids).
        groups: Vec<Vec<NodeId>>,
    },
    /// Heals the active partition (no-op when none is active); hinted
    /// mutations stranded by the cut are replayed.
    HealPartition,
    /// Degrades (or restores) a node's service speed: every service time on
    /// the node is multiplied by `service_factor`. `1.0` restores nominal
    /// speed; `4.0` models a node whose disks or CPU are four times slower —
    /// the straggler whose mutation queue diverges first.
    SlowNode {
        /// The node to slow down or restore.
        node: NodeId,
        /// Multiplier on the node's service times; finite and > 0
        /// ([`FaultSchedule::try_push`] rejects any other).
        service_factor: f64,
    },
    /// Elastic scale-out: a brand-new node joins at the given location, takes
    /// its ring tokens, and is bootstrapped with the data it now owns before
    /// serving reads (Cassandra-style bootstrap-then-serve).
    JoinNode {
        /// Datacenter the new node lands in.
        dc: u16,
        /// Rack within the datacenter.
        rack: u16,
    },
    /// Graceful scale-in: the node streams its data to the new owners, leaves
    /// the ring and stops serving. Its `NodeId` slot remains (ids are stable)
    /// but it never serves or coordinates again.
    DecommissionNode {
        /// The node to retire.
        node: NodeId,
    },
}

impl FaultEvent {
    /// A short label for reports and sweep tables.
    pub fn label(&self) -> String {
        match self {
            FaultEvent::CrashNode { node } => format!("crash({node})"),
            FaultEvent::RestartNode { node } => format!("restart({node})"),
            FaultEvent::Partition { groups } => format!("partition({} groups)", groups.len()),
            FaultEvent::HealPartition => "heal".to_string(),
            FaultEvent::SlowNode {
                node,
                service_factor,
            } => format!("slow({node}, x{service_factor})"),
            FaultEvent::JoinNode { dc, rack } => format!("join(dc{dc}/rack{rack})"),
            FaultEvent::DecommissionNode { node } => format!("decommission({node})"),
        }
    }
}

/// Why an event could not be added to a [`FaultSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Two events at the same tick contradict each other: both claim the
    /// same node's liveness/membership (e.g. crash + decommission of one
    /// node), both manipulate the partition state, or both re-speed the same
    /// node. Equal-time events fire in insertion order, so such a pair would
    /// silently resolve last-write-wins — rejected instead.
    ConflictingSameTick {
        /// The shared tick.
        at: SimTime,
        /// The event already scheduled at that tick.
        existing: FaultEvent,
        /// The event that was rejected.
        incoming: FaultEvent,
    },
    /// The time is not a finite number of seconds ≥ 0. Converted as given,
    /// NaN, a negative time and +∞ would all fire at t = 0.
    InvalidTime {
        /// The rejected time, in seconds.
        at_secs: f64,
        /// The event that was rejected.
        incoming: FaultEvent,
    },
    /// A [`FaultEvent::SlowNode`] factor that is not finite and > 0. Applied
    /// as given, NaN, zero or a negative factor would make the node almost
    /// infinitely fast, and +∞ would make its service times zero.
    InvalidSlowFactor {
        /// The node the event would re-speed.
        node: NodeId,
        /// The rejected factor.
        service_factor: f64,
    },
    /// An event names a node the cluster does not have: its id is not below
    /// the initial node count and no earlier [`FaultEvent::JoinNode`] created
    /// it. Applied as given, such an event is silently ignored and the run
    /// reports numbers for a fault that never happened.
    UnknownNode {
        /// When the event fires.
        at: SimTime,
        /// The id that does not exist at that point.
        node: NodeId,
        /// How many node ids exist at that point (initial plus joined).
        nodes: usize,
        /// The offending event.
        incoming: FaultEvent,
    },
    /// A decommission would leave fewer ring members than the replication
    /// factor, so the ring could no longer place that many distinct replicas
    /// of a key.
    BelowReplicationFactor {
        /// When the decommission fires.
        at: SimTime,
        /// The node it retires.
        node: NodeId,
        /// Ring members left after it.
        members: usize,
        /// The replication factor.
        rf: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::ConflictingSameTick {
                at,
                existing,
                incoming,
            } => write!(
                f,
                "conflicting events at t={:.6}s: {} vs {}",
                at.as_secs_f64(),
                existing.label(),
                incoming.label()
            ),
            ScheduleError::InvalidTime { at_secs, incoming } => write!(
                f,
                "{} at t={at_secs}s: a fault time must be finite and >= 0",
                incoming.label()
            ),
            ScheduleError::InvalidSlowFactor {
                node,
                service_factor,
            } => write!(
                f,
                "slow({node}, x{service_factor}): a service factor must be finite and > 0"
            ),
            ScheduleError::UnknownNode {
                at,
                node,
                nodes,
                incoming,
            } => write!(
                f,
                "{} at t={:.6}s: {node} does not exist (the cluster has {nodes} node ids then)",
                incoming.label(),
                at.as_secs_f64()
            ),
            ScheduleError::BelowReplicationFactor {
                at,
                node,
                members,
                rf,
            } => write!(
                f,
                "decommission({node}) at t={:.6}s leaves {members} ring members, fewer than RF {rf}",
                at.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// True if scheduling `a` and `b` at the same tick is contradictory: the
/// outcome would depend on insertion order instead of the schedule's meaning.
fn conflicts(a: &FaultEvent, b: &FaultEvent) -> bool {
    // Liveness/membership events own their subject node for the tick:
    // crash + decommission (or crash + restart, or two crashes) of one node
    // at one instant have no consistent reading.
    let liveness_subject = |e: &FaultEvent| match e {
        FaultEvent::CrashNode { node }
        | FaultEvent::RestartNode { node }
        | FaultEvent::DecommissionNode { node } => Some(*node),
        _ => None,
    };
    if let (Some(x), Some(y)) = (liveness_subject(a), liveness_subject(b)) {
        if x == y {
            return true;
        }
    }
    // At most one partition-state change per tick: cut + heal (either
    // order) or two cuts at one instant are order-dependent.
    let partitionish =
        |e: &FaultEvent| matches!(e, FaultEvent::Partition { .. } | FaultEvent::HealPartition);
    if partitionish(a) && partitionish(b) {
        return true;
    }
    // Two speed changes of one node at one tick: last-write-wins ambiguity.
    if let (FaultEvent::SlowNode { node: x, .. }, FaultEvent::SlowNode { node: y, .. }) = (a, b) {
        return x == y;
    }
    false
}

/// A fault event bound to an absolute simulated timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFault {
    /// When the fault fires (virtual time).
    pub at: SimTime,
    /// What happens.
    pub fault: FaultEvent,
}

/// Parameters of the seeded random fault generator: independent Poisson
/// processes for crashes, slow-downs and partitions over a bounded horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomFaultConfig {
    /// Crash arrivals per virtual second (0 disables crashes).
    pub crash_rate_per_sec: f64,
    /// Mean downtime before the matching restart (exponential).
    pub mean_downtime_secs: f64,
    /// Slow-down arrivals per virtual second (0 disables).
    pub slow_rate_per_sec: f64,
    /// Slow-down factor range (uniform draw); the node is restored to 1.0
    /// after an exponential hold with `mean_downtime_secs`.
    pub slow_factor_range: (f64, f64),
    /// Partition arrivals per virtual second (0 disables); partitions never
    /// overlap — an arrival while one is active is skipped.
    pub partition_rate_per_sec: f64,
    /// Mean partition duration before the heal (exponential).
    pub mean_partition_secs: f64,
}

impl Default for RandomFaultConfig {
    fn default() -> Self {
        RandomFaultConfig {
            crash_rate_per_sec: 0.1,
            mean_downtime_secs: 1.0,
            slow_rate_per_sec: 0.0,
            slow_factor_range: (2.0, 6.0),
            partition_rate_per_sec: 0.0,
            mean_partition_secs: 1.0,
        }
    }
}

/// A deterministic, time-sorted fault schedule.
///
/// Events at equal timestamps fire in insertion order (the sim kernel's FIFO
/// tie-break), so a schedule is replayed identically however it was built.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// The empty schedule: a run with it is byte-identical to a run without
    /// the chaos layer (no events, no RNG draws, no mask lookups that
    /// matter).
    pub fn empty() -> Self {
        FaultSchedule::default()
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events in firing order (time-sorted, stable for equal times).
    pub fn events(&self) -> &[ScheduledFault] {
        &self.events
    }

    /// Schedules `fault` at `at_secs` virtual seconds. Returns `self` so
    /// schedules read as a sentence:
    /// `FaultSchedule::empty().crash_at(1.0, NodeId(3)).restart_at(2.5, NodeId(3))`.
    pub fn then_at(mut self, at_secs: f64, fault: FaultEvent) -> Self {
        self.push(at_secs, fault);
        self
    }

    /// In-place form of [`FaultSchedule::then_at`].
    ///
    /// # Panics
    /// Panics when [`FaultSchedule::try_push`] rejects the event (see
    /// [`ScheduleError`]); use it to handle the error instead.
    pub fn push(&mut self, at_secs: f64, fault: FaultEvent) {
        self.try_push(at_secs, fault)
            .unwrap_or_else(|e| panic!("invalid fault schedule: {e}"));
    }

    /// Fallible insert: schedules `fault` at `at_secs` unless it contradicts
    /// an event already at the same tick — e.g. crash + decommission of one
    /// node, a cut and its heal at one instant, or two speed changes of one
    /// node. Equal-time events fire in insertion order, so a contradictory
    /// pair would otherwise resolve silently by last write; the typed error
    /// surfaces the mistake at build time instead of as a baffling run. A
    /// time that is not finite and ≥ 0, or a slow-down factor that is not
    /// finite and > 0, is rejected the same way.
    pub fn try_push(&mut self, at_secs: f64, fault: FaultEvent) -> Result<(), ScheduleError> {
        if !(at_secs.is_finite() && at_secs >= 0.0) {
            return Err(ScheduleError::InvalidTime {
                at_secs,
                incoming: fault,
            });
        }
        if let FaultEvent::SlowNode {
            node,
            service_factor,
        } = fault
        {
            if !(service_factor.is_finite() && service_factor > 0.0) {
                return Err(ScheduleError::InvalidSlowFactor {
                    node,
                    service_factor,
                });
            }
        }
        let at = SimTime::from_secs_f64(at_secs);
        for e in self.events.iter().filter(|e| e.at == at) {
            if conflicts(&e.fault, &fault) {
                return Err(ScheduleError::ConflictingSameTick {
                    at,
                    existing: e.fault.clone(),
                    incoming: fault,
                });
            }
        }
        // Stable insertion keeps equal-time events in push order.
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, ScheduledFault { at, fault });
        Ok(())
    }

    /// Checks the schedule against a cluster of `nodes` nodes (ids
    /// `0..nodes`) under replication factor `rf`, walking the events in
    /// firing order. Every node a crash, restart, slow-down, partition or
    /// decommission names must exist: its id is below `nodes` or was created
    /// by an earlier [`FaultEvent::JoinNode`] (joins take the next ids in
    /// order). No decommission may leave fewer than `rf` ring members. Times
    /// and slow-down factors need no check here: every route into a schedule
    /// already rejects bad ones (see [`FaultSchedule::try_push`]).
    pub fn validate(&self, nodes: usize, rf: usize) -> Result<(), ScheduleError> {
        // One flag per node id that exists so far: true once decommissioned.
        let mut retired = vec![false; nodes];
        let mut members = nodes;
        for ScheduledFault { at, fault } in &self.events {
            let unknown = |node: &&NodeId| node.index() >= retired.len();
            let named = match fault {
                FaultEvent::CrashNode { node }
                | FaultEvent::RestartNode { node }
                | FaultEvent::SlowNode { node, .. }
                | FaultEvent::DecommissionNode { node } => Some(node).filter(unknown),
                FaultEvent::Partition { groups } => groups.iter().flatten().find(unknown),
                FaultEvent::HealPartition | FaultEvent::JoinNode { .. } => None,
            };
            if let Some(&node) = named {
                return Err(ScheduleError::UnknownNode {
                    at: *at,
                    node,
                    nodes: retired.len(),
                    incoming: fault.clone(),
                });
            }
            match fault {
                FaultEvent::JoinNode { .. } => {
                    retired.push(false);
                    members += 1;
                }
                FaultEvent::DecommissionNode { node } if !retired[node.index()] => {
                    retired[node.index()] = true;
                    members -= 1;
                    if members < rf {
                        return Err(ScheduleError::BelowReplicationFactor {
                            at: *at,
                            node: *node,
                            members,
                            rf,
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Crash `node` at `at_secs`.
    pub fn crash_at(self, at_secs: f64, node: NodeId) -> Self {
        self.then_at(at_secs, FaultEvent::CrashNode { node })
    }

    /// Restart `node` at `at_secs`.
    pub fn restart_at(self, at_secs: f64, node: NodeId) -> Self {
        self.then_at(at_secs, FaultEvent::RestartNode { node })
    }

    /// Partition the cluster into `groups` at `at_secs`.
    pub fn partition_at(self, at_secs: f64, groups: Vec<Vec<NodeId>>) -> Self {
        self.then_at(at_secs, FaultEvent::Partition { groups })
    }

    /// Heal the active partition at `at_secs`.
    pub fn heal_at(self, at_secs: f64) -> Self {
        self.then_at(at_secs, FaultEvent::HealPartition)
    }

    /// Slow `node` down by `service_factor` at `at_secs` (1.0 restores).
    pub fn slow_at(self, at_secs: f64, node: NodeId, service_factor: f64) -> Self {
        self.then_at(
            at_secs,
            FaultEvent::SlowNode {
                node,
                service_factor,
            },
        )
    }

    /// Join a new node at `dc`/`rack` at `at_secs`.
    pub fn join_at(self, at_secs: f64, dc: u16, rack: u16) -> Self {
        self.then_at(at_secs, FaultEvent::JoinNode { dc, rack })
    }

    /// Decommission `node` at `at_secs`.
    pub fn decommission_at(self, at_secs: f64, node: NodeId) -> Self {
        self.then_at(at_secs, FaultEvent::DecommissionNode { node })
    }

    /// Generates a random schedule over `[0, horizon_secs)` for a cluster of
    /// `nodes` nodes: independent seeded Poisson processes per fault class
    /// (see [`RandomFaultConfig`]). Crashes always get a matching restart and
    /// never stack on an already-down node; partitions never overlap and
    /// always heal; every slow-down is restored. The generator draws from its
    /// own `StdRng` stream, so attaching the schedule perturbs nothing else.
    pub fn random(seed: u64, horizon_secs: f64, nodes: usize, config: &RandomFaultConfig) -> Self {
        let mut schedule = FaultSchedule::empty();
        if nodes == 0 || horizon_secs <= 0.0 {
            return schedule;
        }
        let exp = |rng: &mut StdRng, rate: f64| -> f64 {
            let u: f64 = rng.gen();
            -(1.0 - u).ln() / rate
        };

        // Crashes: pick a node that is up at arrival time, hold it down for
        // an exponential downtime, restart within the horizon.
        if config.crash_rate_per_sec > 0.0 {
            let mut rng = StdRng::seed_from_u64(harmony_sim::rng::mix(seed, 0x63726173)); // "cras"
            let mut down_until = vec![0.0f64; nodes];
            let mut t = exp(&mut rng, config.crash_rate_per_sec);
            while t < horizon_secs {
                let candidate = rng.gen_range(0..nodes);
                if down_until[candidate] <= t {
                    let downtime = exp(&mut rng, 1.0 / config.mean_downtime_secs.max(1e-6));
                    let up_at = (t + downtime).min(horizon_secs);
                    let node = NodeId(candidate as u32);
                    // A measure-zero tie (crash arriving exactly at the
                    // previous restart's tick) is skipped, not last-write-won.
                    if schedule.try_push(t, FaultEvent::CrashNode { node }).is_ok() {
                        down_until[candidate] = up_at;
                        let _ = schedule.try_push(up_at, FaultEvent::RestartNode { node });
                    }
                }
                t += exp(&mut rng, config.crash_rate_per_sec);
            }
        }

        // Slow-downs: degrade a random node, restore it after the hold.
        // Like crashes, windows never stack on one node — an arrival whose
        // target is already degraded is skipped, so a restore can never
        // truncate a later window the sweep believes it applied.
        if config.slow_rate_per_sec > 0.0 {
            let mut rng = StdRng::seed_from_u64(harmony_sim::rng::mix(seed, 0x736c6f77)); // "slow"
            let (lo, hi) = config.slow_factor_range;
            let (lo, hi) = (lo.max(1.0), hi.max(lo.max(1.0)));
            let mut slowed_until = vec![0.0f64; nodes];
            let mut t = exp(&mut rng, config.slow_rate_per_sec);
            while t < horizon_secs {
                let candidate = rng.gen_range(0..nodes);
                if slowed_until[candidate] <= t {
                    let node = NodeId(candidate as u32);
                    let factor = lo + (hi - lo) * rng.gen::<f64>();
                    let hold = exp(&mut rng, 1.0 / config.mean_downtime_secs.max(1e-6));
                    let restore_at = (t + hold).min(horizon_secs);
                    let degraded = schedule.try_push(
                        t,
                        FaultEvent::SlowNode {
                            node,
                            service_factor: factor,
                        },
                    );
                    if degraded.is_ok() {
                        slowed_until[candidate] = restore_at;
                        let _ = schedule.try_push(
                            restore_at,
                            FaultEvent::SlowNode {
                                node,
                                service_factor: 1.0,
                            },
                        );
                    }
                }
                t += exp(&mut rng, config.slow_rate_per_sec);
            }
        }

        // Partitions: split the nodes in two random groups, heal later;
        // arrivals during an active partition are skipped (no overlap).
        if config.partition_rate_per_sec > 0.0 && nodes >= 2 {
            let mut rng = StdRng::seed_from_u64(harmony_sim::rng::mix(seed, 0x70617274)); // "part"
            let mut healed_at = 0.0f64;
            let mut t = exp(&mut rng, config.partition_rate_per_sec);
            while t < horizon_secs {
                if t >= healed_at {
                    let cut = 1 + rng.gen_range(0..nodes - 1);
                    let mut ids: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
                    // Fisher-Yates with the schedule's own RNG.
                    for i in (1..ids.len()).rev() {
                        let j = rng.gen_range(0..i + 1);
                        ids.swap(i, j);
                    }
                    let minority = ids.split_off(cut.min(ids.len() - 1).max(1));
                    let duration = exp(&mut rng, 1.0 / config.mean_partition_secs.max(1e-6));
                    let cut_ok = schedule.try_push(
                        t,
                        FaultEvent::Partition {
                            groups: vec![ids, minority],
                        },
                    );
                    if cut_ok.is_ok() {
                        healed_at = (t + duration).min(horizon_secs);
                        let _ = schedule.try_push(healed_at, FaultEvent::HealPartition);
                    }
                }
                t += exp(&mut rng, config.partition_rate_per_sec);
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_keeps_events_time_sorted_and_stable() {
        let s = FaultSchedule::empty()
            .restart_at(2.0, NodeId(1))
            .crash_at(1.0, NodeId(1))
            .heal_at(1.0)
            .slow_at(3.0, NodeId(0), 4.0);
        let times: Vec<f64> = s.events().iter().map(|e| e.at.as_secs_f64()).collect();
        assert_eq!(times, vec![1.0, 1.0, 2.0, 3.0]);
        // Equal-time events keep push order: crash was pushed before heal.
        assert!(matches!(s.events()[0].fault, FaultEvent::CrashNode { .. }));
        assert!(matches!(s.events()[1].fault, FaultEvent::HealPartition));
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn contradictory_same_tick_events_are_rejected_with_a_typed_error() {
        // Crash + decommission of one node at one tick: no consistent reading.
        let mut s = FaultSchedule::empty().crash_at(1.0, NodeId(2));
        let err = s
            .try_push(1.0, FaultEvent::DecommissionNode { node: NodeId(2) })
            .unwrap_err();
        let ScheduleError::ConflictingSameTick {
            at,
            existing,
            incoming,
        } = &err
        else {
            panic!("expected a same-tick conflict, got {err:?}");
        };
        assert_eq!(*at, SimTime::from_secs_f64(1.0));
        assert!(matches!(existing, FaultEvent::CrashNode { node } if *node == NodeId(2)));
        assert!(matches!(incoming, FaultEvent::DecommissionNode { node } if *node == NodeId(2)));
        assert!(err.to_string().contains("crash(node2)"));
        assert_eq!(s.len(), 1, "the rejected event was not inserted");

        // Crash + restart, and a double crash, of the same node: rejected.
        assert!(s
            .try_push(1.0, FaultEvent::RestartNode { node: NodeId(2) })
            .is_err());
        assert!(s
            .try_push(1.0, FaultEvent::CrashNode { node: NodeId(2) })
            .is_err());
        // A different node at the same tick is fine.
        assert!(s
            .try_push(1.0, FaultEvent::CrashNode { node: NodeId(3) })
            .is_ok());
        // The same node at a different tick is fine.
        assert!(s
            .try_push(2.0, FaultEvent::RestartNode { node: NodeId(2) })
            .is_ok());
    }

    #[test]
    fn partition_state_changes_conflict_at_one_tick() {
        let mut s =
            FaultSchedule::empty().partition_at(1.0, vec![vec![NodeId(0)], vec![NodeId(1)]]);
        assert!(s.try_push(1.0, FaultEvent::HealPartition).is_err());
        assert!(s
            .try_push(
                1.0,
                FaultEvent::Partition {
                    groups: vec![vec![NodeId(1)], vec![NodeId(0)]],
                }
            )
            .is_err());
        // Healing later is fine, and a slow-down shares the tick harmlessly.
        assert!(s.try_push(2.0, FaultEvent::HealPartition).is_ok());
        assert!(s
            .try_push(
                1.0,
                FaultEvent::SlowNode {
                    node: NodeId(0),
                    service_factor: 2.0,
                }
            )
            .is_ok());
    }

    #[test]
    fn duplicate_slow_downs_of_one_node_conflict_at_one_tick() {
        let mut s = FaultSchedule::empty().slow_at(1.0, NodeId(0), 4.0);
        assert!(s
            .try_push(
                1.0,
                FaultEvent::SlowNode {
                    node: NodeId(0),
                    service_factor: 2.0,
                }
            )
            .is_err());
        assert!(s
            .try_push(
                1.0,
                FaultEvent::SlowNode {
                    node: NodeId(1),
                    service_factor: 2.0,
                }
            )
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid fault schedule")]
    fn infallible_push_panics_on_a_conflict() {
        let _ = FaultSchedule::empty()
            .crash_at(1.0, NodeId(0))
            .decommission_at(1.0, NodeId(0));
    }

    #[test]
    fn malformed_times_and_slow_factors_are_rejected() {
        let crash = FaultEvent::CrashNode { node: NodeId(0) };
        let slow = |service_factor| FaultEvent::SlowNode {
            node: NodeId(1),
            service_factor,
        };
        for at in [f64::NAN, -1.0, f64::INFINITY] {
            let mut s = FaultSchedule::empty();
            let err = s.try_push(at, crash.clone()).unwrap_err();
            assert!(
                matches!(err, ScheduleError::InvalidTime { at_secs, .. }
                    if at_secs.to_bits() == at.to_bits()),
                "time {at}: {err:?}"
            );
            assert!(err.to_string().contains("finite and >= 0"), "{err}");
            assert!(s.is_empty(), "time {at} was inserted");
        }
        for factor in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let mut s = FaultSchedule::empty();
            let err = s.try_push(1.0, slow(factor)).unwrap_err();
            assert!(
                matches!(err, ScheduleError::InvalidSlowFactor { node, service_factor }
                    if node == NodeId(1) && service_factor.to_bits() == factor.to_bits()),
                "factor {factor}: {err:?}"
            );
            assert!(err.to_string().contains("finite and > 0"), "{err}");
            assert!(s.is_empty(), "factor {factor} was inserted");
        }
        let mut s = FaultSchedule::empty();
        for at in [0.0, 0.5] {
            s.try_push(at, crash.clone()).unwrap();
            s.try_push(at + 1.0, FaultEvent::RestartNode { node: NodeId(0) })
                .unwrap();
        }
        for (i, factor) in [0.5, 1.0, 4.0].into_iter().enumerate() {
            s.try_push(i as f64, slow(factor)).unwrap();
        }
        assert_eq!(s.len(), 7);
        assert_eq!(s.events()[0].at, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid fault schedule")]
    fn infallible_push_panics_on_a_malformed_time() {
        let _ = FaultSchedule::empty().crash_at(f64::NAN, NodeId(0));
    }

    #[test]
    fn empty_schedule_is_empty() {
        let s = FaultSchedule::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s, FaultSchedule::default());
    }

    #[test]
    fn random_schedules_are_seed_reproducible() {
        let config = RandomFaultConfig {
            crash_rate_per_sec: 0.5,
            slow_rate_per_sec: 0.3,
            partition_rate_per_sec: 0.2,
            ..RandomFaultConfig::default()
        };
        let a = FaultSchedule::random(7, 30.0, 8, &config);
        let b = FaultSchedule::random(7, 30.0, 8, &config);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "30 s at these rates must produce faults");
        let c = FaultSchedule::random(8, 30.0, 8, &config);
        assert_ne!(a, c, "a different seed draws a different schedule");
    }

    #[test]
    fn random_crashes_pair_with_restarts_and_never_stack() {
        let config = RandomFaultConfig {
            crash_rate_per_sec: 1.0,
            mean_downtime_secs: 2.0,
            ..RandomFaultConfig::default()
        };
        let s = FaultSchedule::random(42, 60.0, 4, &config);
        let mut down = std::collections::HashSet::new();
        let mut crashes = 0;
        let mut restarts = 0;
        for e in s.events() {
            match &e.fault {
                FaultEvent::CrashNode { node } => {
                    assert!(down.insert(*node), "{node} crashed while already down");
                    crashes += 1;
                }
                FaultEvent::RestartNode { node } => {
                    assert!(down.remove(node), "{node} restarted while up");
                    restarts += 1;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(crashes, restarts, "every crash pairs with a restart");
        assert!(down.is_empty(), "every node is back up by the horizon");
        assert!(crashes > 10, "60 s at 1/s must crash often (got {crashes})");
    }

    #[test]
    fn random_slowdowns_never_overlap_per_node() {
        let config = RandomFaultConfig {
            crash_rate_per_sec: 0.0,
            slow_rate_per_sec: 2.0,
            mean_downtime_secs: 2.0,
            ..RandomFaultConfig::default()
        };
        let s = FaultSchedule::random(5, 60.0, 3, &config);
        let mut active = std::collections::HashSet::new();
        let mut windows = 0;
        for e in s.events() {
            match &e.fault {
                FaultEvent::SlowNode {
                    node,
                    service_factor,
                } if *service_factor > 1.0 => {
                    assert!(active.insert(*node), "{node} slowed while already slow");
                    windows += 1;
                }
                FaultEvent::SlowNode { node, .. } => {
                    assert!(active.remove(node), "{node} restored while nominal");
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(active.is_empty(), "every slow-down is restored");
        assert!(
            windows > 5,
            "60 s at 2/s must degrade often (got {windows})"
        );
    }

    #[test]
    fn random_partitions_never_overlap_and_always_heal() {
        let config = RandomFaultConfig {
            crash_rate_per_sec: 0.0,
            partition_rate_per_sec: 0.8,
            mean_partition_secs: 1.5,
            ..RandomFaultConfig::default()
        };
        let s = FaultSchedule::random(11, 40.0, 6, &config);
        let mut active = false;
        let mut partitions = 0;
        for e in s.events() {
            match &e.fault {
                FaultEvent::Partition { groups } => {
                    assert!(!active, "partition while one is active");
                    active = true;
                    partitions += 1;
                    let total: usize = groups.iter().map(|g| g.len()).sum();
                    assert_eq!(total, 6, "groups must cover every node: {groups:?}");
                    assert!(groups.iter().all(|g| !g.is_empty()));
                }
                FaultEvent::HealPartition => {
                    assert!(active, "heal without a partition");
                    active = false;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(!active, "the last partition must heal within the horizon");
        assert!(partitions > 3);
    }

    #[test]
    fn validate_rejects_node_ids_the_cluster_does_not_have() {
        let crash = FaultSchedule::empty().crash_at(1.0, NodeId(999));
        let err = crash.validate(20, 5).unwrap_err();
        assert!(
            matches!(&err, ScheduleError::UnknownNode { node, nodes: 20, .. } if *node == NodeId(999)),
            "{err:?}"
        );
        assert!(err.to_string().contains("crash(node999)"));
        // One side of a partition, a slow-down and a restart are checked too;
        // the last valid id is accepted.
        let cut = FaultSchedule::empty().partition_at(1.0, vec![vec![NodeId(0)], vec![NodeId(20)]]);
        assert!(cut.validate(20, 5).is_err());
        assert!(FaultSchedule::empty()
            .slow_at(1.0, NodeId(20), 2.0)
            .validate(20, 5)
            .is_err());
        assert!(FaultSchedule::empty()
            .restart_at(1.0, NodeId(19))
            .validate(20, 5)
            .is_ok());
    }

    #[test]
    fn validate_accepts_a_joined_node_only_after_its_join() {
        // 20 nodes: the first join creates node 20.
        let joined = FaultSchedule::empty()
            .join_at(1.0, 0, 0)
            .crash_at(2.0, NodeId(20))
            .restart_at(3.0, NodeId(20))
            .decommission_at(4.0, NodeId(20));
        assert_eq!(joined.validate(20, 5), Ok(()));
        let too_early = FaultSchedule::empty()
            .crash_at(1.0, NodeId(20))
            .join_at(2.0, 0, 0);
        assert!(matches!(
            too_early.validate(20, 5),
            Err(ScheduleError::UnknownNode { nodes: 20, .. })
        ));
    }

    #[test]
    fn validate_keeps_membership_at_or_above_rf() {
        // Decommissioning 18 of 20 nodes under RF 5: the 16th leaves 4.
        let mut s = FaultSchedule::empty();
        for i in 0..18 {
            s.push(
                1.0 + i as f64,
                FaultEvent::DecommissionNode { node: NodeId(i) },
            );
        }
        let err = s.validate(20, 5).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::BelowReplicationFactor {
                at: SimTime::from_secs(16),
                node: NodeId(15),
                members: 4,
                rf: 5,
            }
        );
        assert!(err.to_string().contains("fewer than RF 5"));
        // Down to exactly RF is fine; a join makes room for one more, and
        // retiring a node twice removes it once.
        let mut s = FaultSchedule::empty().join_at(0.5, 0, 0);
        for i in 0..16 {
            s.push(
                1.0 + i as f64,
                FaultEvent::DecommissionNode { node: NodeId(i) },
            );
        }
        s.push(20.0, FaultEvent::DecommissionNode { node: NodeId(0) });
        assert_eq!(s.validate(20, 5), Ok(()));
    }

    #[test]
    fn random_schedules_validate_against_their_node_count() {
        let config = RandomFaultConfig {
            crash_rate_per_sec: 0.5,
            slow_rate_per_sec: 0.5,
            partition_rate_per_sec: 0.3,
            ..RandomFaultConfig::default()
        };
        for seed in 0..100 {
            let nodes = 2 + (seed as usize % 19);
            let s = FaultSchedule::random(seed, 20.0, nodes, &config);
            assert!(!s.is_empty());
            assert_eq!(s.validate(nodes, 3), Ok(()), "seed {seed}, {nodes} nodes");
        }
    }

    #[test]
    fn labels_are_human_readable() {
        assert_eq!(
            FaultEvent::CrashNode { node: NodeId(3) }.label(),
            "crash(node3)"
        );
        assert_eq!(FaultEvent::HealPartition.label(), "heal");
        assert_eq!(
            FaultEvent::JoinNode { dc: 1, rack: 2 }.label(),
            "join(dc1/rack2)"
        );
    }
}
