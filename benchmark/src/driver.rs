//! The benchmark's own experiment loop.
//!
//! A re-implementation of `harmony_ycsb::runner::Runner`'s plain path — one
//! phase, reads and updates, optional fault schedule, anti-entropy timer and
//! retry-on-abort — over public calls only, with a span around each call into
//! a layer. It must produce the runner's [`Fingerprint`] exactly: the command
//! checks that on every run, which is what licenses reading the runner's time
//! off the driver's spans.
//!
//! What it leaves out is what the runner adds on top of the plain loop (phase
//! bookkeeping and the second per-phase copy of every statistic, hedging,
//! dual-read verification, inserts, read-modify-write, shard contexts); the
//! cost of that shows as `ycsb.runner_overhead_pct`.

use crate::spans::{Span, Tracer};
use crate::workloads::{Fingerprint, Workload};
use harmony_adaptive::controller::AdaptiveController;
use harmony_chaos::{FaultCounters, FaultEvent};
use harmony_monitor::heavy_hitters::SpaceSavingSketch;
use harmony_monitor::probe::ClusterProbe;
use harmony_sim::clock::SimTime;
use harmony_sim::context::EventCtx;
use harmony_sim::engine::Simulation;
use harmony_sim::rng::RngFactory;
use harmony_store::cluster::{Cluster, Completion};
use harmony_store::consistency::ConsistencyLevel;
use harmony_store::keys::KeyId;
use harmony_store::messages::{Message, OpId, OpKind, StoreEvent};
use harmony_store::node::WriteStageTelemetry;
use harmony_store::types::{Mutation, Timestamp};
use harmony_ycsb::distributions::{record_key, KeyChooser};
use harmony_ycsb::runner::CHAOS_OP_TIMEOUT;
use harmony_ycsb::stats::RunStats;
use harmony_ycsb::workloads::Operation;
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// The driver's simulation event type (the runner's `RunnerEvent` without
/// hedging).
#[derive(Debug, Clone, PartialEq)]
pub enum DriverEvent {
    Store(StoreEvent),
    MonitorTick,
    Fault(FaultEvent),
    Retry(u64),
    AntiEntropyTick,
}

impl From<StoreEvent> for DriverEvent {
    fn from(e: StoreEvent) -> Self {
        DriverEvent::Store(e)
    }
}

/// The client operation a store event belongs to, for span attribution.
fn op_of(event: &DriverEvent) -> Option<u64> {
    match event {
        DriverEvent::Store(StoreEvent::Deliver { message, .. })
        | DriverEvent::Store(StoreEvent::Process { message, .. }) => message.op_id().map(|o| o.0),
        DriverEvent::Store(StoreEvent::ClientReply { op }) => Some(op.0),
        _ => None,
    }
}

fn is_anti_entropy(message: &Message) -> bool {
    matches!(
        message,
        Message::AeDigest { .. } | Message::AeKeys { .. } | Message::AePull { .. }
    )
}

/// The `EventCtx` handed to the store: the simulation, with every `emit`
/// timed as a `sim.push` child of whatever store call made it.
struct TimedCtx<'a, T: Tracer> {
    sim: &'a mut Simulation<DriverEvent>,
    tracer: &'a mut T,
}

impl<T: Tracer> EventCtx<StoreEvent> for TimedCtx<'_, T> {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn emit(&mut self, delay: SimTime, event: StoreEvent) {
        let t = self.tracer.stamp();
        self.sim.schedule_in(delay, event.into());
        self.tracer.leaf(Span::SimPush, t, None);
    }
}

/// The `ClusterProbe` handed to the controller: the cluster, with every
/// probe call timed as a `store.probe` child of the tick.
struct TimedProbe<'a, T: Tracer> {
    cluster: &'a Cluster,
    tracer: RefCell<&'a mut T>,
}

impl<T: Tracer> TimedProbe<'_, T> {
    fn timed<R>(&self, call: impl FnOnce(&Cluster) -> R) -> R {
        let mut tracer = self.tracer.borrow_mut();
        let t = tracer.stamp();
        let r = call(self.cluster);
        tracer.leaf(Span::StoreProbe, t, None);
        r
    }
}

impl<T: Tracer> ClusterProbe for TimedProbe<'_, T> {
    fn total_reads(&self) -> u64 {
        self.timed(ClusterProbe::total_reads)
    }
    fn total_writes(&self) -> u64 {
        self.timed(ClusterProbe::total_writes)
    }
    fn probe_latency_ms(&self) -> f64 {
        self.timed(ClusterProbe::probe_latency_ms)
    }
    fn node_count(&self) -> usize {
        self.timed(ClusterProbe::node_count)
    }
    fn live_node_count(&self) -> usize {
        self.timed(ClusterProbe::live_node_count)
    }
    fn mutation_backlog_ms(&self) -> f64 {
        self.timed(ClusterProbe::mutation_backlog_ms)
    }
    fn replica_backlog_ms(&self) -> Vec<f64> {
        self.timed(ClusterProbe::replica_backlog_ms)
    }
    fn write_stage_telemetry(&self) -> Vec<WriteStageTelemetry> {
        self.timed(ClusterProbe::write_stage_telemetry)
    }
    fn write_stage_concurrency(&self) -> usize {
        self.timed(ClusterProbe::write_stage_concurrency)
    }
    fn drain_write_key_samples(&self) -> Vec<KeyId> {
        self.timed(ClusterProbe::drain_write_key_samples)
    }
    fn write_key_sketches(&self) -> Option<Vec<SpaceSavingSketch>> {
        self.timed(ClusterProbe::write_key_sketches)
    }
    fn per_key_backlog_ms(&self, keys: &[KeyId]) -> Vec<f64> {
        self.timed(|c| ClusterProbe::per_key_backlog_ms(c, keys))
    }
    fn key_name(&self, key: KeyId) -> String {
        self.timed(|c| ClusterProbe::key_name(c, key))
    }
    fn fault_epoch(&self) -> u64 {
        self.timed(ClusterProbe::fault_epoch)
    }
    fn node_suspicions(&self, now: SimTime) -> Vec<f64> {
        self.timed(|c| ClusterProbe::node_suspicions(c, now))
    }
}

/// What a retry re-issues (the runner's `RetryAction`).
#[derive(Debug, Clone, Copy)]
enum Action {
    Read {
        key: KeyId,
        level: ConsistencyLevel,
    },
    Write {
        key: KeyId,
        field: usize,
        level: ConsistencyLevel,
    },
}

#[derive(Debug, Clone, Copy)]
struct Attempt {
    session: usize,
    /// 1 = the original.
    number: u32,
    action: Action,
}

/// What one driver run produced, besides its spans.
pub struct DriverRun {
    pub fingerprint: Fingerprint,
    /// Wall time of the event loop, seconds.
    pub run_s: f64,
    /// Events popped.
    pub events: u64,
    /// Largest `Simulation::pending` seen at a pop.
    pub queue_depth_max: usize,
    /// Controller ticks, the initial one included.
    pub ticks: u64,
    pub read_level_histogram: BTreeMap<usize, u64>,
    pub fault_counters: FaultCounters,
    /// The last `divergent_keys()` sample (chaos only).
    pub final_divergent_keys: u64,
}

/// The driver: set up with [`Driver::new`], run once with [`Driver::run`].
pub struct Driver<'w, T: Tracer> {
    w: &'w Workload,
    pub cluster: Cluster,
    sim: Simulation<DriverEvent>,
    controller: AdaptiveController,
    key_chooser: KeyChooser,
    workload_rng: StdRng,
    record_ids: Vec<KeyId>,
    field_mutations: Vec<Arc<Mutation>>,
    /// The in-flight attempt of each operation id.
    in_flight: HashMap<OpId, Attempt>,
    pending_retries: HashMap<u64, Attempt>,
    retry_token: u64,
    stats: RunStats,
    read_level_histogram: BTreeMap<usize, u64>,
    tracer: T,
    ticks: u64,
}

impl<'w, T: Tracer + Default> Driver<'w, T> {
    /// Set-up, mirroring `Runner::new`: build the cluster from the profile
    /// and load every record on all its replicas, in record order.
    pub fn new(w: &'w Workload) -> Self {
        assert_eq!(w.shards, 1, "the driver is a single event loop");
        assert_eq!(w.spec.phases.len(), 1, "the driver runs one phase");
        assert_eq!(w.spec.hot_key_prefix, 0);
        assert!(!w.spec.dual_read_measurement);
        assert!(w.retry.hedge_after_ms <= 0.0, "the driver does not hedge");
        let mut tracer = T::default();
        let spec = &w.spec;
        let factory = RngFactory::new(spec.seed);
        let mut cluster = Cluster::new(
            w.store.clone(),
            w.profile.topology.clone(),
            w.profile.network.clone(),
            factory,
        );
        let row = Mutation::ycsb_row(spec.workload.field_count, spec.workload.field_size);
        let mut record_ids = Vec::with_capacity(spec.workload.record_count as usize);
        tracer.enter(Span::StoreLoad, tracer.stamp(), None);
        for i in 0..spec.workload.record_count {
            let name = record_key(i);
            cluster.load_direct(&name, &row, Timestamp(i + 1));
            record_ids.push(cluster.key_id(&name).expect("just loaded"));
        }
        tracer.exit(None);
        let field_mutations = (0..spec.workload.field_count)
            .map(|f| {
                Arc::new(Mutation::single(
                    format!("field{f}"),
                    vec![b'u'; spec.workload.field_size],
                ))
            })
            .collect();
        Driver {
            w,
            cluster,
            sim: Simulation::new(spec.seed),
            controller: w.new_controller(),
            key_chooser: spec.workload.key_chooser(),
            workload_rng: factory.stream("workload"),
            record_ids,
            field_mutations,
            in_flight: HashMap::new(),
            pending_retries: HashMap::new(),
            retry_token: 0,
            stats: RunStats::default(),
            read_level_histogram: BTreeMap::new(),
            tracer,
            ticks: 0,
        }
    }
}

impl<T: Tracer> Driver<'_, T> {
    // Each step takes the end of the previous span as `t` and returns its
    // own end, so consecutive spans share one clock read.

    fn tick(&mut self, t: T::Stamp) -> T::Stamp {
        self.tracer.enter(Span::AdaptiveTick, t, None);
        let probe = TimedProbe {
            cluster: &self.cluster,
            tracer: RefCell::new(&mut self.tracer),
        };
        self.controller.tick(self.sim.now(), &probe);
        self.ticks += 1;
        self.tracer.exit(None)
    }

    fn issue_next_op(&mut self, session: usize, t: T::Stamp) -> T::Stamp {
        self.tracer.enter(Span::YcsbIssue, t, None);
        let workload = &self.w.spec.workload;
        let kind = workload.next_operation(&mut self.workload_rng);
        let index = self.key_chooser.next_index(&mut self.workload_rng);
        let key = self.record_ids[index as usize];
        let action = match kind {
            Operation::Read => Action::Read {
                key,
                level: self.controller.read_level_for(key),
            },
            Operation::Update => Action::Write {
                key,
                field: self.workload_rng.gen_range(0..workload.field_count),
                level: self.controller.current_write_level(),
            },
            other => panic!("the benchmark driver does not issue {other:?}"),
        };
        let t = self.tracer.leaf(Span::YcsbGen, t, None);
        let attempt = Attempt {
            session,
            number: 1,
            action,
        };
        let op = self.submit(attempt, t);
        self.tracer.exit(Some(op.0))
    }

    fn submit(&mut self, attempt: Attempt, t: T::Stamp) -> OpId {
        self.tracer.enter(Span::StoreSubmit, t, None);
        let mut ctx = TimedCtx {
            sim: &mut self.sim,
            tracer: &mut self.tracer,
        };
        let op = match attempt.action {
            Action::Read { key, level } => self.cluster.submit_read_id(key, level, &mut ctx),
            Action::Write { key, field, level } => {
                let mutation = Arc::clone(&self.field_mutations[field]);
                self.cluster.submit_write_id(key, mutation, level, &mut ctx)
            }
        };
        self.tracer.exit(Some(op.0));
        self.in_flight.insert(op, attempt);
        op
    }

    /// Accounts one completion. Returns the session that should issue its
    /// next operation, if any.
    fn on_completion(&mut self, c: &Completion, target: u64) -> Option<usize> {
        let attempt = self.in_flight.remove(&c.op)?;
        if c.aborted {
            let retry = &self.w.retry;
            if attempt.number < retry.max_attempts {
                self.stats.retries += 1;
                self.retry_token += 1;
                self.pending_retries.insert(
                    self.retry_token,
                    Attempt {
                        number: attempt.number + 1,
                        ..attempt
                    },
                );
                self.sim.schedule_in(
                    retry.backoff(attempt.number),
                    DriverEvent::Retry(self.retry_token),
                );
                return None;
            }
            self.stats.aborted_ops += 1;
            return Some(attempt.session);
        }
        match c.kind {
            OpKind::Read => {
                self.stats.read_latency.record(c.latency());
                self.stats.reads += 1;
                if c.stale {
                    self.stats.stale_reads += 1;
                }
                *self
                    .read_level_histogram
                    .entry(c.replicas_contacted)
                    .or_insert(0) += 1;
            }
            OpKind::Write => {
                self.stats.write_latency.record(c.latency());
                self.stats.writes += 1;
            }
        }
        self.stats.operations += 1;
        (self.stats.operations < target).then_some(attempt.session)
    }

    /// The event loop, mirroring `Runner::execute` call for call.
    pub fn run(mut self) -> (DriverRun, Cluster, T) {
        let started = Instant::now();
        let spec = &self.w.spec;
        let target = spec.total_operations();
        let deadline = SimTime::from_secs_f64(spec.max_virtual_secs);
        self.stats.started_at = self.sim.now();

        let mut t = self.tracer.stamp();
        t = self.tick(t);
        let interval = self.controller.interval();
        self.sim.schedule_in(interval, DriverEvent::MonitorTick);
        let ae_interval = SimTime::from_secs_f64(self.cluster.config().anti_entropy_interval_secs);
        if ae_interval > SimTime::ZERO {
            self.sim
                .schedule_in(ae_interval, DriverEvent::AntiEntropyTick);
        }
        let chaos = !self.w.faults.is_empty();
        for fault in self.w.faults.events() {
            self.sim
                .schedule_at(fault.at, DriverEvent::Fault(fault.fault.clone()));
        }
        for session in 0..spec.phases[0].threads {
            t = self.issue_next_op(session, t);
        }

        let mut events = 0u64;
        let mut queue_depth_max = 0usize;
        let mut final_divergent_keys = 0u64;
        while self.stats.operations < target && self.sim.now() < deadline {
            let Some((_, event)) = self.sim.next() else {
                break;
            };
            let op = op_of(&event);
            t = self.tracer.leaf(Span::SimPop, t, op);
            events += 1;
            queue_depth_max = queue_depth_max.max(self.sim.pending());
            match event {
                DriverEvent::Store(store_event) => {
                    let span = match &store_event {
                        StoreEvent::Deliver { message, .. }
                        | StoreEvent::Process { message, .. }
                            if is_anti_entropy(message) =>
                        {
                            Span::StoreAeMessage
                        }
                        StoreEvent::Deliver { .. } => Span::StoreDeliver,
                        StoreEvent::Process { .. } => Span::StoreProcess,
                        StoreEvent::ClientReply { .. } => Span::StoreReply,
                    };
                    self.tracer.enter(span, t, op);
                    let mut ctx = TimedCtx {
                        sim: &mut self.sim,
                        tracer: &mut self.tracer,
                    };
                    let completion = self.cluster.handle(store_event, &mut ctx);
                    t = self.tracer.exit(None);
                    if let Some(completion) = completion {
                        let next = self.on_completion(&completion, target);
                        t = self.tracer.leaf(Span::YcsbComplete, t, op);
                        if let Some(session) = next {
                            t = self.issue_next_op(session, t);
                        }
                    }
                }
                DriverEvent::MonitorTick => {
                    t = self.tick(t);
                    self.sim.schedule_in(interval, DriverEvent::MonitorTick);
                    if chaos {
                        self.tracer.enter(Span::StoreReaper, t, None);
                        let mut ctx = TimedCtx {
                            sim: &mut self.sim,
                            tracer: &mut self.tracer,
                        };
                        self.cluster.expire_stalled_ops(CHAOS_OP_TIMEOUT, &mut ctx);
                        t = self.tracer.exit(None);
                        final_divergent_keys = self.cluster.divergent_keys() as u64;
                        t = self.tracer.leaf(Span::StoreDivergence, t, None);
                    }
                }
                DriverEvent::Fault(fault) => {
                    self.tracer.enter(Span::StoreFault, t, None);
                    let mut ctx = TimedCtx {
                        sim: &mut self.sim,
                        tracer: &mut self.tracer,
                    };
                    self.cluster.apply_fault(&fault, &mut ctx);
                    t = self.tracer.exit(None);
                }
                DriverEvent::Retry(token) => {
                    if let Some(attempt) = self.pending_retries.remove(&token) {
                        self.submit(attempt, t);
                        t = self.tracer.stamp();
                    }
                }
                DriverEvent::AntiEntropyTick => {
                    self.tracer.enter(Span::StoreAeRound, t, None);
                    let mut ctx = TimedCtx {
                        sim: &mut self.sim,
                        tracer: &mut self.tracer,
                    };
                    self.cluster.run_anti_entropy_round(&mut ctx);
                    t = self.tracer.exit(None);
                    self.sim
                        .schedule_in(ae_interval, DriverEvent::AntiEntropyTick);
                }
            }
        }
        self.stats.ended_at = self.sim.now();

        let run = DriverRun {
            fingerprint: Fingerprint::new(&self.stats, self.cluster.totals()),
            run_s: started.elapsed().as_secs_f64(),
            events,
            queue_depth_max,
            ticks: self.ticks,
            read_level_histogram: self.read_level_histogram,
            fault_counters: self.cluster.fault_state().counters(),
            final_divergent_keys,
        };
        (run, self.cluster, self.tracer)
    }
}
