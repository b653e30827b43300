//! The experiment runner: closed-loop client sessions driving the replicated
//! store under a YCSB-style workload, with a consistency policy in the loop.
//!
//! This is the analogue of the paper's modified YCSB Cassandra client (§V.A):
//! before every read the client asks the adaptive-consistency module which
//! consistency level to use; writes are issued at level ONE. Client threads
//! are closed-loop — each session has exactly one operation in flight and
//! issues the next one as soon as the previous completes — which reproduces
//! the thread-count sweeps of Figures 4-6.

use crate::distributions::{record_key, KeyChooser};
use crate::sharded::ShardContext;
use crate::stats::RunStats;
use crate::workloads::{Operation, WorkloadSpec};
use harmony_adaptive::controller::{AdaptiveController, DecisionRecord, HotKeyDecision};
use harmony_adaptive::policy::ConsistencyPolicy;
use harmony_chaos::{FaultCounters, FaultEvent, FaultSchedule};
use harmony_obs::{MetricsRegistry, ObsConfig, ObsReport, SpanKind};
use harmony_sim::clock::SimTime;
use harmony_sim::engine::Simulation;
use harmony_sim::profiles::ClusterProfile;
use harmony_sim::rng::RngFactory;
use harmony_store::cluster::{Cluster, ClusterTotals, Completion};
use harmony_store::config::StoreConfig;
use harmony_store::consistency::ConsistencyLevel;
use harmony_store::keys::KeyId;
use harmony_store::messages::{OpId, OpKind, StoreEvent};
use harmony_store::optable::OpTable;
use harmony_store::shard::ShardPartition;
use harmony_store::types::{Mutation, Timestamp};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The runner's simulation event type.
#[derive(Debug, Clone, PartialEq)]
pub enum RunnerEvent {
    /// An event of the underlying store.
    Store(StoreEvent),
    /// A periodic monitoring/adaptation tick.
    MonitorTick,
    /// A scheduled fault fires (chaos mode only: an empty fault schedule
    /// never enqueues one of these, keeping fault-free runs byte-identical).
    Fault(FaultEvent),
    /// The backoff of the retry pending for this aborted operation expires
    /// (retry policy only: a disabled policy never enqueues one, keeping
    /// plain runs byte-identical).
    Retry(OpId),
    /// A hedging deadline: if this read is still unanswered, race a
    /// duplicate against it (hedging only; never enqueued when disabled).
    HedgeCheck(OpId),
    /// A periodic anti-entropy repair round (only scheduled when the store
    /// config arms `anti_entropy_interval_secs`).
    AntiEntropyTick,
}

/// How long an operation may stay unanswered under an active fault schedule
/// before the chaos-mode reaper aborts it (virtual time). A partition or a
/// crash landing between fan-out and reply can strand an operation no
/// schedule-time reachability check can predict; one virtual second is two
/// orders of magnitude above the worst saturated op latency in the scaled
/// runs, so the reaper only ever fires on truly stranded work.
pub const CHAOS_OP_TIMEOUT: SimTime = SimTime::from_secs(1);

impl From<StoreEvent> for RunnerEvent {
    fn from(e: StoreEvent) -> Self {
        RunnerEvent::Store(e)
    }
}

/// Client-side retry and hedging policy: what a session does when the store
/// aborts its operation (fault-stranded work) or a read dawdles. Retries back
/// off exponentially from `base_backoff_ms`, doubling per attempt and
/// clamping at `max_backoff_ms`, so a persistent outage cannot turn the
/// closed loop into a retry storm. The default policy is fully disabled and
/// provably free: no event is ever enqueued, and runs are byte-identical to
/// a runner without the feature.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per logical operation, the original included
    /// (`1` = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry (milliseconds).
    pub base_backoff_ms: f64,
    /// Backoff ceiling (milliseconds); the exponential doubling clamps here.
    pub max_backoff_ms: f64,
    /// Hedge reads: when a read is still unanswered after this long, race a
    /// duplicate at the same level and take whichever answers first
    /// (`0.0` disables hedging).
    pub hedge_after_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 1.0,
            max_backoff_ms: 64.0,
            hedge_after_ms: 0.0,
        }
    }
}

impl RetryPolicy {
    /// Whether any part of the policy is active.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1 || self.hedge_after_ms > 0.0
    }

    /// The backoff before retry number `attempt` (1-based): exponential
    /// doubling from the base, clamped to the ceiling.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        let exp = 2f64.powi(attempt.saturating_sub(1).min(30) as i32);
        SimTime::from_millis_f64((self.base_backoff_ms * exp).min(self.max_backoff_ms))
    }

    /// Validates the policy.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("retry policy needs at least one attempt".into());
        }
        if self.base_backoff_ms <= 0.0 || !self.base_backoff_ms.is_finite() {
            return Err("retry base backoff must be positive and finite".into());
        }
        if self.max_backoff_ms < self.base_backoff_ms || !self.max_backoff_ms.is_finite() {
            return Err("retry backoff ceiling must be finite and >= the base".into());
        }
        if !self.hedge_after_ms.is_finite() || self.hedge_after_ms < 0.0 {
            return Err("hedge delay must be finite and non-negative".into());
        }
        Ok(())
    }
}

/// What a retry re-issues: enough to rebuild the exact operation without
/// touching the workload RNG stream (a retried write reuses its recorded
/// field index, so enabling retries never perturbs the op sequence drawn by
/// other sessions).
#[derive(Debug, Clone, Copy)]
enum RetryAction {
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

/// Per-operation retry context, tracked only while the policy is enabled.
#[derive(Debug, Clone, Copy)]
struct RetryCtx {
    /// Which attempt this in-flight operation is (1 = the original).
    attempt: u32,
    action: RetryAction,
}

/// One phase of an experiment: a number of concurrent client sessions and the
/// number of operations to complete before moving to the next phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Phase {
    /// Concurrent closed-loop client sessions ("client threads").
    pub threads: usize,
    /// Operations to complete in this phase.
    pub operations: u64,
}

impl Phase {
    /// Creates a phase.
    pub fn new(threads: usize, operations: u64) -> Self {
        Phase {
            threads,
            operations,
        }
    }
}

/// An experiment specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// The workload (operation mix, key distribution, record population).
    pub workload: WorkloadSpec,
    /// The thread-count phases, executed in order.
    pub phases: Vec<Phase>,
    /// Experiment seed (drives every random decision deterministically).
    pub seed: u64,
    /// Enable the paper's dual-read staleness measurement (§V.F): every read
    /// is followed by a verification read at level ALL and the returned
    /// timestamps are compared. This perturbs latency and throughput, exactly
    /// as the paper cautions.
    pub dual_read_measurement: bool,
    /// Record indices below this count are reported as the workload's *hot
    /// keys*: their reads and stale reads are tallied separately
    /// (`hot_reads`/`hot_stale_reads`), so skewed-workload experiments can
    /// check the stale rate on the keys that actually carry the skew. For the
    /// (unscrambled) Zipfian chooser index 0 is the hottest key, so a small
    /// prefix covers the head of the distribution. Zero disables the tally.
    pub hot_key_prefix: u64,
    /// Safety stop: abort the run if this much virtual time elapses.
    pub max_virtual_secs: f64,
}

impl ExperimentSpec {
    /// A single-phase experiment.
    pub fn single_phase(workload: WorkloadSpec, threads: usize, operations: u64) -> Self {
        ExperimentSpec {
            workload,
            phases: vec![Phase::new(threads, operations)],
            seed: 42,
            dual_read_measurement: false,
            hot_key_prefix: 0,
            max_virtual_secs: 3_600.0,
        }
    }

    /// Total operations across all phases.
    pub fn total_operations(&self) -> u64 {
        self.phases.iter().map(|p| p.operations).sum()
    }

    /// Validates the specification.
    pub fn validate(&self) -> Result<(), String> {
        self.workload.validate()?;
        if self.phases.is_empty() {
            return Err("experiment needs at least one phase".into());
        }
        if self.phases.iter().any(|p| p.threads == 0) {
            return Err("every phase needs at least one client thread".into());
        }
        if self.phases.iter().any(|p| p.operations == 0) {
            return Err("every phase needs at least one operation".into());
        }
        // NaN and +inf would otherwise turn into a zero deadline and a run
        // that completes no operation without an error.
        if !(self.max_virtual_secs.is_finite() && self.max_virtual_secs > 0.0) {
            return Err("max_virtual_secs must be finite and positive".into());
        }
        Ok(())
    }
}

/// Per-phase measured output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseResult {
    /// The phase as specified.
    pub phase: Phase,
    /// Statistics restricted to this phase.
    pub stats: RunStats,
}

/// The full result of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Name of the policy that drove read consistency (e.g. `"harmony-20"`).
    pub policy: String,
    /// Name of the workload.
    pub workload: String,
    /// Name of the cluster profile.
    pub profile: String,
    /// Whole-run statistics.
    pub stats: RunStats,
    /// Per-phase statistics.
    pub phase_results: Vec<PhaseResult>,
    /// The controller's decision history (estimate timeline of Figure 4).
    pub decisions: Vec<DecisionRecord>,
    /// How many reads ran at each replica count.
    pub read_level_histogram: BTreeMap<usize, u64>,
    /// The store's own cumulative totals.
    pub cluster_totals: ClusterTotals,
    /// The controller's hot set at the end of the run (key-sorted): which
    /// keys were escalated above the default level, and how far. Empty for
    /// global (non-split) controllers and unskewed workloads.
    pub hot_set: Vec<HotKeyDecision>,
    /// How many faults of each kind the run actually applied (all zero for
    /// an empty fault schedule).
    pub fault_counters: FaultCounters,
    /// Replica divergence sampled once per monitoring tick, in chaos mode
    /// only (empty when no fault schedule was armed — the query is skipped
    /// entirely on fault-free runs). Each sample counts the acknowledged
    /// keys on which at least one serving replica still lags the newest
    /// acknowledged write. The self-healing sweeps read the post-heal relax
    /// time off this: when the post-heal count drops back under the pre-cut
    /// steady-state ceiling, the cut's divergence has drained.
    pub divergence_timeline: Vec<DivergenceSample>,
}

/// One chaos-tick divergence sample (see
/// [`ExperimentResult::divergence_timeline`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DivergenceSample {
    /// Virtual time of the monitoring tick, in seconds.
    pub at_secs: f64,
    /// Acknowledged keys with at least one lagging serving replica.
    pub divergent_keys: u64,
}

impl ExperimentResult {
    /// Throughput over the whole run (operations per second).
    pub fn throughput(&self) -> f64 {
        self.stats.throughput_ops_per_sec()
    }

    /// 99th-percentile read latency in milliseconds.
    pub fn read_p99_ms(&self) -> f64 {
        self.stats.read_latency.percentile_ms(0.99)
    }

    /// Number of stale reads (ground truth unless dual-read measurement was
    /// enabled, in which case the dual-read count is also populated).
    pub fn stale_reads(&self) -> u64 {
        self.stats.stale_reads
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// A workload read or write.
    Normal,
    /// The read half of a read-modify-write.
    RmwRead,
    /// A dual-read verification read; carries the timestamp returned by the
    /// read being verified.
    Verification(Timestamp),
}

#[derive(Debug, Clone, Copy)]
struct OpMeta {
    session: usize,
    purpose: Purpose,
}

/// What the client side remembers about one in-flight operation.
#[derive(Debug, Clone, Copy)]
struct ClientOp {
    meta: OpMeta,
    /// Retry context; `None` while the policy is disabled (and for dual-read
    /// verification reads, which are never retried).
    retry: Option<RetryCtx>,
    /// The other leg of a racing hedged pair; the bool marks *this* op as
    /// the duplicate. Both legs point at each other while both are in flight.
    hedge: Option<(OpId, bool)>,
}

impl ClientOp {
    fn new(meta: OpMeta, retry: Option<RetryCtx>) -> Self {
        let hedge = None;
        ClientOp { meta, retry, hedge }
    }
}

/// The experiment runner: every experiment, classic or one shard of a
/// sharded run, is built by one constructor and driven by one event loop.
/// [`Runner::new`] builds a classic run. [`run_experiment`] is the short form of
/// `Runner::new(..).run()`; faults, client retries and observability attach
/// through the builder — [`Runner::with_faults`], [`Runner::with_retry`],
/// [`Runner::with_obs`] — before [`Runner::run`] or [`Runner::run_with_obs`].
pub struct Runner {
    pub(crate) cluster: Cluster,
    pub(crate) sim: Simulation<RunnerEvent>,
    controller: AdaptiveController,
    spec: ExperimentSpec,
    /// The fault schedule to replay (empty = no chaos layer at all).
    faults: FaultSchedule,
    profile_name: String,
    key_chooser: KeyChooser,
    workload_rng: StdRng,
    /// Every in-flight operation by id. A disabled retry policy leaves the
    /// records' `retry` / `hedge` fields `None`: one field read per completion.
    in_flight: OpTable<ClientOp>,
    /// Record index -> interned key id: the per-operation key lookup is a
    /// plain array index, no string formatting or hashing.
    record_ids: Vec<KeyId>,
    /// One shared mutation template per field index: every update writes the
    /// same filler payload, so issuing a write is an `Arc` refcount bump
    /// instead of a fresh `BTreeMap` + `String` + `Vec` per operation.
    field_mutations: Vec<Arc<Mutation>>,
    /// `KeyId`-indexed flags of the designated hot keys whose reads are tallied
    /// separately; ids past the end are not hot (`hot_key_prefix == 0`: empty).
    hot_report_keys: Vec<bool>,
    session_active: Vec<bool>,
    current_phase: usize,
    phase_completed_ops: u64,
    insert_counter: u64,
    /// Sharded-mode stripe + directive state (`None` = classic single loop).
    pub(crate) shard: Option<ShardContext>,
    /// Client retry/hedging policy (default: fully disabled).
    retry: RetryPolicy,
    /// Backoff-pending retries, keyed by the aborted operation's id that the
    /// scheduled [`RunnerEvent::Retry`] carries (only populated while the
    /// policy is enabled).
    pending_retries: OpTable<(OpMeta, RetryCtx)>,
    /// Observability knobs (default: all off — byte-identical runs).
    pub(crate) obs: ObsConfig,
    // Accumulated output.
    pub(crate) stats: RunStats,
    pub(crate) phase_results: Vec<PhaseResult>,
    phase_stats: RunStats,
    pub(crate) read_level_histogram: BTreeMap<usize, u64>,
}

impl Runner {
    /// Builds a runner: creates the cluster from the profile, bulk-loads the
    /// record population, and prepares the client sessions.
    pub fn new(
        profile: &ClusterProfile,
        store_config: StoreConfig,
        controller: AdaptiveController,
        spec: ExperimentSpec,
    ) -> Self {
        Self::build(profile, store_config, controller, spec, None)
    }

    /// The one constructor behind [`Runner::new`] and the shard runners.
    ///
    /// With a `partition` the runner is one shard of a sharded run: it loads
    /// only the records of the partition's stripe, in ascending global order
    /// — so local interned ids stay dense and the local↔global mapping is
    /// pure arithmetic ([`ShardContext`]) — and its RNG streams derive from
    /// `mix(seed, stripe)` so shards draw independent (but run-to-run
    /// identical) workload sequences. A shard's `controller` is a
    /// placeholder: it fixes the monitoring cadence but never decides a
    /// level — levels arrive by coordinator directive.
    pub(crate) fn build(
        profile: &ClusterProfile,
        store_config: StoreConfig,
        controller: AdaptiveController,
        spec: ExperimentSpec,
        partition: Option<ShardPartition>,
    ) -> Self {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid experiment spec: {e}"));
        let seed = match partition {
            Some(p) => harmony_sim::rng::mix(spec.seed, 0x5348_5244 + p.index() as u64),
            None => spec.seed,
        };
        let factory = RngFactory::new(seed);
        let mut cluster = Cluster::new(
            store_config,
            profile.topology.clone(),
            profile.network.clone(),
            factory,
        );
        // Load phase (YCSB "load"): populate every owned record on all its
        // replicas. Interning happens here, in record order, so the `i`-th
        // owned record gets the dense id `KeyId(i)` and the transaction phase
        // never touches a key string again.
        let record_count = spec.workload.record_count as usize;
        let row_template = Mutation::ycsb_row(spec.workload.field_count, spec.workload.field_size);
        let local_records = partition.map_or(record_count, |p| p.local_count(record_count));
        let mut record_ids = Vec::with_capacity(local_records);
        for local in 0..local_records {
            let global = partition.map_or(local, |p| p.local_to_global(local)) as u64;
            let name = record_key(global);
            record_ids.push(cluster.load_direct(&name, &row_template, Timestamp(global + 1)));
        }
        let hot: Vec<usize> = (0..spec.hot_key_prefix)
            .filter(|&global| partition.is_none_or(|p| p.owns_global(global as usize)))
            .map(|global| cluster.intern_key(&record_key(global)).index())
            .collect();
        let mut hot_report_keys = vec![false; hot.iter().max().map_or(0, |max| max + 1)];
        hot.into_iter()
            .for_each(|index| hot_report_keys[index] = true);
        let field_mutations = (0..spec.workload.field_count)
            .map(|f| {
                Arc::new(Mutation::single(
                    format!("field{f}"),
                    vec![b'u'; spec.workload.field_size],
                ))
            })
            .collect();
        let max_threads = spec.phases.iter().map(|p| p.threads).max().unwrap_or(1);
        let key_chooser = spec.workload.key_chooser();
        let shard = partition.map(|p| ShardContext::new(p, local_records, record_count));
        Runner {
            cluster,
            sim: Simulation::new(seed),
            controller,
            faults: FaultSchedule::empty(),
            workload_rng: factory.stream("workload"),
            key_chooser,
            profile_name: profile.name.clone(),
            in_flight: OpTable::new(),
            record_ids,
            field_mutations,
            hot_report_keys,
            session_active: vec![false; max_threads],
            current_phase: 0,
            phase_completed_ops: 0,
            insert_counter: 0,
            shard,
            retry: RetryPolicy::default(),
            pending_retries: OpTable::new(),
            obs: ObsConfig::off(),
            stats: RunStats::default(),
            phase_results: Vec::new(),
            phase_stats: RunStats::default(),
            read_level_histogram: BTreeMap::new(),
            spec,
        }
    }

    /// Attaches a fault schedule to replay during the run. An empty schedule
    /// is exactly equivalent to never calling this: no events are enqueued
    /// and no chaos-mode machinery (reaper, masks) perturbs the run.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches a client retry/hedging policy. The default (disabled) policy
    /// is exactly equivalent to never calling this.
    ///
    /// # Panics
    /// Panics if the policy is invalid.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        retry
            .validate()
            .unwrap_or_else(|e| panic!("invalid retry policy: {e}"));
        self.retry = retry;
        self
    }

    /// Attaches observability knobs: sampled per-op tracing with the flight
    /// recorder, the controller's decision audit log, and end-of-run metrics
    /// export. The default (all-off) config is exactly equivalent to never
    /// calling this — no trace state is allocated and no decision is audited,
    /// so plain runs stay byte-identical. Collect the output by running the
    /// experiment with [`Runner::run_with_obs`].
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        if obs.tracing_enabled() {
            self.cluster.enable_tracing(
                obs.trace_sample_every,
                obs.keep_slowest as usize,
                obs.abort_cap as usize,
            );
        }
        if obs.decision_audit {
            self.controller.enable_decision_audit();
        }
        self
    }

    fn phase(&self) -> Phase {
        self.spec.phases[self.current_phase.min(self.spec.phases.len() - 1)]
    }

    /// The read level for `key`: the coordinator's last directive in sharded
    /// mode (hot-table hit or broadcast default), the local controller's hot
    /// set otherwise.
    fn read_level(&self, key: KeyId) -> ConsistencyLevel {
        match &self.shard {
            Some(ctx) => ctx.hot.get(&key).copied().unwrap_or(ctx.default_read),
            None => self.controller.read_level_for(key),
        }
    }

    fn issue_next_op(&mut self, session: usize) {
        if session >= self.phase().threads || self.current_phase >= self.spec.phases.len() {
            self.session_active[session] = false;
            return;
        }
        self.session_active[session] = true;
        let op_kind = self.spec.workload.next_operation(&mut self.workload_rng);
        match op_kind {
            Operation::Read => {
                let key = self.chosen_key();
                // Per-operation consultation of the hot set: an escalated key
                // reads at its own level, everything else at the cheap default.
                let level = self.read_level(key);
                let op = self.cluster.submit_read_id(key, level, &mut self.sim);
                let purpose = Purpose::Normal;
                self.track_issued(
                    op,
                    OpMeta { session, purpose },
                    RetryAction::Read { key, level },
                );
            }
            Operation::Update => {
                let key = self.chosen_key();
                self.issue_write(session, key, Purpose::Normal);
            }
            Operation::Insert => {
                let global = match &self.shard {
                    // Sharded inserts stride the global index space from this
                    // shard's first owned slot past the load population, so
                    // insert names stay globally unique and locally owned.
                    Some(ctx) => {
                        ctx.insert_base + self.insert_counter * ctx.partition.shards() as u64
                    }
                    None => self.spec.workload.record_count + self.insert_counter,
                };
                let name = record_key(global);
                self.insert_counter += 1;
                let key = self.cluster.intern_key(&name);
                self.issue_write(session, key, Purpose::Normal);
            }
            Operation::ReadModifyWrite => {
                let key = self.chosen_key();
                let level = self.read_level(key);
                let op = self.cluster.submit_read_id(key, level, &mut self.sim);
                let purpose = Purpose::RmwRead;
                self.track_issued(
                    op,
                    OpMeta { session, purpose },
                    RetryAction::Read { key, level },
                );
            }
        }
    }

    /// Draws the next record index and maps it to its interned id — the
    /// allocation-free replacement for `record_key(index)` on the op path.
    ///
    /// In sharded mode the *global* key distribution is rejection-sampled
    /// down to this shard's stripe: the chooser keeps its global popularity
    /// profile (a Zipfian rank-`r` key stays exactly as popular relative to
    /// its stripe-mates), every shard draws from its own seeded stream, and
    /// no cross-shard coordination touches the op path.
    fn chosen_key(&mut self) -> KeyId {
        match &self.shard {
            None => {
                let index = self.key_chooser.next_index(&mut self.workload_rng);
                self.record_ids[index as usize]
            }
            Some(ctx) => loop {
                let index = self.key_chooser.next_index(&mut self.workload_rng) as usize;
                if ctx.partition.owns_global(index) {
                    break self.record_ids[ctx.partition.global_to_local(index)];
                }
            },
        }
    }

    fn issue_write(&mut self, session: usize, key: KeyId, purpose: Purpose) {
        let field = self
            .workload_rng
            .gen_range(0..self.spec.workload.field_count);
        let mutation = Arc::clone(&self.field_mutations[field]);
        let level = match &self.shard {
            Some(ctx) => ctx.write,
            None => self.controller.current_write_level(),
        };
        let op = self
            .cluster
            .submit_write_id(key, mutation, level, &mut self.sim);
        let meta = OpMeta { session, purpose };
        self.track_issued(op, meta, RetryAction::Write { key, field, level });
    }

    /// Registers a freshly issued operation as in flight and, only while the
    /// retry policy is enabled, its retry context and hedge deadline.
    fn track_issued(&mut self, op: OpId, meta: OpMeta, action: RetryAction) {
        let first_attempt = RetryCtx { attempt: 1, action };
        let retry = self.retry.enabled().then_some(first_attempt);
        self.in_flight.insert(op, ClientOp::new(meta, retry));
        if retry.is_some() {
            self.arm_hedge(op, action);
        }
    }

    fn arm_hedge(&mut self, op: OpId, action: RetryAction) {
        if self.retry.hedge_after_ms <= 0.0 {
            return;
        }
        // Only reads are hedged: a racing duplicate write would double-apply.
        let RetryAction::Read { .. } = action else {
            return;
        };
        self.sim.schedule_in(
            SimTime::from_millis_f64(self.retry.hedge_after_ms),
            RunnerEvent::HedgeCheck(op),
        );
    }

    /// A hedge deadline fired: if the watched read is still unanswered and
    /// not already racing a twin, issue the duplicate at the same level.
    fn maybe_hedge(&mut self, primary: OpId) {
        let Some(&watched) = self.in_flight.get(primary) else {
            return;
        };
        let (meta, Some(ctx), None) = (watched.meta, watched.retry, watched.hedge) else {
            return;
        };
        let RetryAction::Read { key, level } = ctx.action else {
            return;
        };
        let dup = self.cluster.submit_read_id(key, level, &mut self.sim);
        let now = self.sim.now();
        self.cluster.trace_note(dup, now, SpanKind::Hedge, || {
            format!("hedge duplicate of op{}", primary.0)
        });
        let mut twin = ClientOp::new(meta, Some(ctx));
        twin.hedge = Some((primary, true));
        self.in_flight.insert(dup, twin);
        if let Some(p) = self.in_flight.get_mut(primary) {
            p.hedge = Some((dup, false));
        }
        self.stats.hedged_reads += 1;
        self.phase_stats.hedged_reads += 1;
    }

    /// A retry backoff expired: re-issue the recorded operation. The write
    /// path reuses the recorded field index, so retries never consume the
    /// workload RNG and cannot perturb what other sessions draw.
    fn reissue(&mut self, meta: OpMeta, ctx: RetryCtx) {
        let op = match ctx.action {
            RetryAction::Read { key, level } => {
                self.cluster.submit_read_id(key, level, &mut self.sim)
            }
            RetryAction::Write { key, field, level } => {
                let mutation = Arc::clone(&self.field_mutations[field]);
                self.cluster
                    .submit_write_id(key, mutation, level, &mut self.sim)
            }
        };
        let now = self.sim.now();
        self.cluster.trace_note(op, now, SpanKind::Retry, || {
            format!("retry attempt {} after backoff", ctx.attempt)
        });
        self.in_flight.insert(op, ClientOp::new(meta, Some(ctx)));
        self.arm_hedge(op, ctx.action);
    }

    fn record_completion(&mut self, completion: &Completion, meta: OpMeta) -> bool {
        // Returns true if this completion counts towards the phase's target.
        // Aborted completions never reach this point — `on_completion` routes
        // them to the retry policy (or the abort tally) first.
        match meta.purpose {
            Purpose::Verification(original_ts) => {
                if completion.returned_timestamp != original_ts {
                    self.stats.stale_reads_dual_read += 1;
                    self.phase_stats.stale_reads_dual_read += 1;
                }
                false
            }
            Purpose::Normal | Purpose::RmwRead => {
                match completion.kind {
                    OpKind::Read => {
                        self.stats.read_latency.record(completion.latency());
                        self.phase_stats.read_latency.record(completion.latency());
                        self.stats.reads += 1;
                        self.phase_stats.reads += 1;
                        let hot = self.hot_report_keys.get(completion.key.index()) == Some(&true);
                        if hot {
                            self.stats.hot_reads += 1;
                            self.phase_stats.hot_reads += 1;
                        }
                        if completion.stale {
                            self.stats.stale_reads += 1;
                            self.phase_stats.stale_reads += 1;
                            if hot {
                                self.stats.hot_stale_reads += 1;
                                self.phase_stats.hot_stale_reads += 1;
                            }
                        }
                        *self
                            .read_level_histogram
                            .entry(completion.replicas_contacted)
                            .or_insert(0) += 1;
                    }
                    OpKind::Write => {
                        self.stats.write_latency.record(completion.latency());
                        self.phase_stats.write_latency.record(completion.latency());
                        self.stats.writes += 1;
                        self.phase_stats.writes += 1;
                    }
                }
                self.stats.operations += 1;
                self.phase_stats.operations += 1;
                true
            }
        }
    }

    fn on_completion(&mut self, completion: Completion) {
        let Some(issued) = self.in_flight.remove(completion.op) else {
            // The losing leg of a settled hedged pair: already accounted.
            return;
        };
        let (meta, ctx, hedge) = (issued.meta, issued.retry, issued.hedge);

        if completion.aborted {
            // One leg of a live hedged pair died (e.g. the reaper expired
            // it): the twin is still racing and settles the logical op.
            if let Some(twin) = hedge.and_then(|(partner, _)| self.in_flight.get_mut(partner)) {
                twin.hedge = None;
                return;
            }
            // Retry policy: convert the abort into a backed-off re-issue
            // while attempts remain; the session sleeps through the backoff.
            if let Some(c) = ctx {
                if c.attempt < self.retry.max_attempts {
                    self.stats.retries += 1;
                    self.phase_stats.retries += 1;
                    let next = RetryCtx {
                        attempt: c.attempt + 1,
                        action: c.action,
                    };
                    self.pending_retries.insert(completion.op, (meta, next));
                    self.sim.schedule_in(
                        self.retry.backoff(c.attempt),
                        RunnerEvent::Retry(completion.op),
                    );
                    return;
                }
            }
            // A fault killed the operation (and any attempts are exhausted):
            // it is neither a read nor a write and does not advance the
            // phase — the session simply moves on with its next operation,
            // like a client driver timing out.
            self.stats.aborted_ops += 1;
            self.phase_stats.aborted_ops += 1;
            self.advance_phase_if_needed();
            self.issue_next_op(meta.session);
            return;
        }

        // First answer of a hedged pair wins: forget the twin — its eventual
        // completion drops at the in-flight lookup above.
        if let Some((partner, is_dup)) = hedge {
            if self.in_flight.remove(partner).is_some() && is_dup {
                self.stats.hedge_wins += 1;
                self.phase_stats.hedge_wins += 1;
            }
        }

        let counted = self.record_completion(&completion, meta);
        if counted {
            self.phase_completed_ops += 1;
        }
        // Decide what the session does next.
        match meta.purpose {
            Purpose::RmwRead => {
                // Write back the same key (`KeyId` is `Copy` — no clone).
                self.issue_write(meta.session, completion.key, Purpose::Normal);
            }
            Purpose::Normal
                if completion.kind == OpKind::Read && self.spec.dual_read_measurement =>
            {
                // Paper §V.F: verify with a second read at the strongest level.
                let op = self.cluster.submit_read_id(
                    completion.key,
                    ConsistencyLevel::All,
                    &mut self.sim,
                );
                let purpose = Purpose::Verification(completion.returned_timestamp);
                let session = meta.session;
                self.in_flight
                    .insert(op, ClientOp::new(OpMeta { session, purpose }, None));
            }
            _ => {
                self.advance_phase_if_needed();
                self.issue_next_op(meta.session);
            }
        }
    }

    fn advance_phase_if_needed(&mut self) {
        if self.current_phase >= self.spec.phases.len() {
            return;
        }
        if self.phase_completed_ops >= self.phase().operations {
            // Close the phase.
            let mut finished = std::mem::take(&mut self.phase_stats);
            finished.ended_at = self.sim.now();
            self.phase_results.push(PhaseResult {
                phase: self.phase(),
                stats: finished,
            });
            self.current_phase += 1;
            self.phase_completed_ops = 0;
            self.phase_stats = RunStats {
                started_at: self.sim.now(),
                ..RunStats::default()
            };
            if self.current_phase < self.spec.phases.len() {
                // Wake sessions that the new (possibly larger) thread count allows.
                let threads = self.phase().threads;
                for s in 0..threads.min(self.session_active.len()) {
                    if !self.session_active[s] {
                        self.issue_next_op(s);
                    }
                }
            }
        }
    }

    /// Runs the experiment to completion and returns its result.
    pub fn run(mut self) -> ExperimentResult {
        self.execute()
    }

    /// Runs the experiment and additionally returns the observability
    /// report: the metrics registry (populated collect-on-scrape at the end
    /// of the run), the flight recorder's retained traces, and the decision
    /// audit log. With an all-off [`ObsConfig`] the result is identical to
    /// [`Runner::run`] and the report is empty.
    pub fn run_with_obs(mut self) -> (ExperimentResult, ObsReport) {
        let result = self.execute();
        let report = self.obs_report(&result);
        (result, report)
    }

    /// Assembles the observability report after a finished run: scrapes the
    /// cluster, controller and client-side stats into a fresh registry and
    /// detaches the flight recorder.
    fn obs_report(&mut self, result: &ExperimentResult) -> ObsReport {
        let registry = MetricsRegistry::new();
        if self.obs.metrics {
            self.cluster.export_metrics(&registry);
            self.controller.export_metrics(&registry);
            registry
                .histogram("harmony_client_read_latency_us")
                .merge_from(&result.stats.read_latency);
            registry
                .histogram("harmony_client_write_latency_us")
                .merge_from(&result.stats.write_latency);
            for (name, value) in [
                ("harmony_client_operations_total", result.stats.operations),
                ("harmony_client_stale_reads_total", result.stats.stale_reads),
                ("harmony_client_aborted_ops_total", result.stats.aborted_ops),
                ("harmony_client_retries_total", result.stats.retries),
                (
                    "harmony_client_hedged_reads_total",
                    result.stats.hedged_reads,
                ),
                ("harmony_client_hedge_wins_total", result.stats.hedge_wins),
            ] {
                registry.counter(name).set_total(value);
            }
            registry
                .gauge("harmony_client_throughput_ops_per_sec")
                .set(result.stats.throughput_ops_per_sec());
        }
        let recorder = self
            .cluster
            .take_obs()
            .map(|o| o.recorder)
            .unwrap_or_default();
        ObsReport {
            registry,
            recorder,
            audit: self.controller.audit_log().to_vec(),
        }
    }

    fn execute(&mut self) -> ExperimentResult {
        let divergence_timeline = self.drive(&mut LocalController);
        ExperimentResult {
            policy: self.controller.policy_name(),
            workload: self.spec.workload.name.clone(),
            profile: self.profile_name.clone(),
            stats: std::mem::take(&mut self.stats),
            phase_results: std::mem::take(&mut self.phase_results),
            decisions: self.controller.decisions().to_vec(),
            read_level_histogram: std::mem::take(&mut self.read_level_histogram),
            cluster_totals: self.cluster.totals(),
            hot_set: self.controller.hot_set().to_vec(),
            fault_counters: self.cluster.fault_state().counters(),
            divergence_timeline,
        }
    }

    /// The event loop every run goes through, classic or one shard of a
    /// sharded run: `step` decides levels at t0 and on every monitoring
    /// tick, and is the only part that differs between the two. Returns the
    /// divergence timeline (empty unless `M::SAMPLES_DIVERGENCE` and a fault
    /// schedule is armed).
    pub(crate) fn drive<M: MonitorStep>(&mut self, step: &mut M) -> Vec<DivergenceSample> {
        let deadline = SimTime::from_secs_f64(self.spec.max_virtual_secs);
        self.stats.started_at = self.sim.now();
        self.phase_stats.started_at = self.sim.now();

        // Initial monitoring step so the first reads use a level based on an
        // (idle) observation, then keep stepping periodically.
        let running = step.tick(self);
        let interval = self.controller.interval();
        self.sim.schedule_in(interval, RunnerEvent::MonitorTick);

        // Anti-entropy: when the store config arms an interval, schedule the
        // periodic repair round. The default interval of 0.0 schedules
        // nothing, so repair-free runs are byte-identical.
        let ae_interval = SimTime::from_secs_f64(self.cluster.config().anti_entropy_interval_secs);
        if ae_interval > SimTime::ZERO {
            self.sim
                .schedule_in(ae_interval, RunnerEvent::AntiEntropyTick);
        }

        // Chaos mode: enqueue the fault schedule as first-class events (every
        // shard replays the full schedule: faults hit physical nodes, and
        // each shard models its own view of every node). An empty schedule
        // enqueues nothing and disarms the reaper, so the event sequence of
        // a fault-free run is untouched.
        let chaos = !self.faults.is_empty();
        if chaos {
            let scheduled: Vec<_> = self.faults.events().to_vec();
            for fault in scheduled {
                self.sim
                    .schedule_at(fault.at, RunnerEvent::Fault(fault.fault));
            }
        }

        // Start the first phase's sessions.
        for s in 0..self.phase().threads.min(self.session_active.len()) {
            self.issue_next_op(s);
        }

        // Divergence timeline, sampled on chaos monitor ticks: how many
        // acknowledged keys still have a lagging serving replica. A
        // read-only digest query — it enqueues nothing and draws no
        // randomness, so tracking it cannot perturb the run.
        let mut divergence_timeline: Vec<DivergenceSample> = Vec::new();

        while running && self.current_phase < self.spec.phases.len() && self.sim.now() < deadline {
            let Some((_, event)) = self.sim.next() else {
                break;
            };
            match event {
                RunnerEvent::MonitorTick => {
                    if !step.tick(self) {
                        break;
                    }
                    self.sim.schedule_in(interval, RunnerEvent::MonitorTick);
                    if chaos {
                        // Reap operations stranded by races no schedule-time
                        // check can close (e.g. a partition installed while
                        // replies were in flight); their sessions move on.
                        self.cluster
                            .expire_stalled_ops(CHAOS_OP_TIMEOUT, &mut self.sim);
                        if M::SAMPLES_DIVERGENCE {
                            divergence_timeline.push(DivergenceSample {
                                at_secs: self.sim.now().as_secs_f64(),
                                divergent_keys: self.cluster.divergent_keys() as u64,
                            });
                        }
                    }
                }
                RunnerEvent::Fault(fault) => {
                    self.cluster.apply_fault(&fault, &mut self.sim);
                }
                RunnerEvent::Retry(aborted) => {
                    if let Some((meta, ctx)) = self.pending_retries.remove(aborted) {
                        self.reissue(meta, ctx);
                    }
                }
                RunnerEvent::HedgeCheck(primary) => self.maybe_hedge(primary),
                RunnerEvent::AntiEntropyTick => {
                    self.cluster.run_anti_entropy_round(&mut self.sim);
                    self.sim
                        .schedule_in(ae_interval, RunnerEvent::AntiEntropyTick);
                }
                RunnerEvent::Store(store_event) => {
                    if let Some(completion) = self.cluster.handle(store_event, &mut self.sim) {
                        self.on_completion(completion);
                    }
                }
            }
        }
        self.stats.ended_at = self.sim.now();
        divergence_timeline
    }
}

/// What a run does at t0 and on every [`RunnerEvent::MonitorTick`] — the one
/// step in which a classic run and a shard of a sharded run differ. The loop
/// is generic over it, so the per-event path carries no dynamic dispatch.
pub(crate) trait MonitorStep {
    /// Whether chaos ticks sample replica divergence after the reaper. Only
    /// a classic run does: a shard sees its own stripe, not the cluster.
    const SAMPLES_DIVERGENCE: bool;

    /// Decides the consistency levels for the next interval; `false` ends
    /// the run.
    fn tick(&mut self, runner: &mut Runner) -> bool;
}

/// The classic step: the runner's own controller observes the cluster.
struct LocalController;

impl MonitorStep for LocalController {
    const SAMPLES_DIVERGENCE: bool = true;

    fn tick(&mut self, runner: &mut Runner) -> bool {
        runner.controller.tick(runner.sim.now(), &runner.cluster);
        true
    }
}

/// Builds and runs one experiment: cluster from `profile`, YCSB-style load
/// phase, then the transaction phases of `spec` under `policy`. The short
/// form of `Runner::new(..).run()`; attach faults, retries or observability
/// through the [`Runner`] builder instead.
pub fn run_experiment(
    profile: &ClusterProfile,
    store_config: StoreConfig,
    controller_config: harmony_adaptive::config::ControllerConfig,
    policy: Box<dyn ConsistencyPolicy>,
    spec: ExperimentSpec,
) -> ExperimentResult {
    let controller =
        AdaptiveController::new(controller_config, store_config.replication_factor, policy);
    Runner::new(profile, store_config, controller, spec).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_adaptive::config::ControllerConfig;
    use harmony_adaptive::policy::{HarmonyPolicy, StaticPolicy};
    use harmony_sim::profiles;

    fn small_spec(threads: usize, ops: u64) -> ExperimentSpec {
        let mut workload = WorkloadSpec::workload_a(500);
        workload.field_count = 2;
        workload.field_size = 16;
        ExperimentSpec {
            workload,
            phases: vec![Phase::new(threads, ops)],
            seed: 7,
            dual_read_measurement: false,
            hot_key_prefix: 0,
            max_virtual_secs: 600.0,
        }
    }

    fn small_store_config() -> StoreConfig {
        StoreConfig {
            replication_factor: 3,
            ..StoreConfig::default()
        }
    }

    /// A runner over the small test cluster, ready for the builder.
    fn small_runner(
        profile: &ClusterProfile,
        policy: Box<dyn ConsistencyPolicy>,
        spec: ExperimentSpec,
    ) -> Runner {
        let controller = AdaptiveController::new(ControllerConfig::default(), 3, policy);
        Runner::new(profile, small_store_config(), controller, spec)
    }

    fn run_with(policy: Box<dyn ConsistencyPolicy>, spec: ExperimentSpec) -> ExperimentResult {
        let profile = profiles::grid5000_with_nodes(6);
        run_experiment(
            &profile,
            small_store_config(),
            ControllerConfig::default(),
            policy,
            spec,
        )
    }

    #[test]
    fn completes_requested_operations() {
        let result = run_with(Box::new(StaticPolicy::Eventual), small_spec(8, 2_000));
        assert!(result.stats.operations >= 2_000);
        assert_eq!(result.policy, "eventual");
        assert_eq!(result.workload, "workload-a");
        assert!(result.stats.duration_secs() > 0.0);
        assert!(result.throughput() > 0.0);
        assert!(result.stats.reads > 0 && result.stats.writes > 0);
        assert_eq!(result.phase_results.len(), 1);
    }

    #[test]
    fn eventual_reads_use_one_replica_and_strong_uses_all() {
        let eventual = run_with(Box::new(StaticPolicy::Eventual), small_spec(4, 1_000));
        assert_eq!(eventual.read_level_histogram.keys().copied().max(), Some(1));

        let strong = run_with(Box::new(StaticPolicy::Strong), small_spec(4, 1_000));
        assert_eq!(strong.read_level_histogram.keys().copied().min(), Some(3));
        // Strong consistency never returns stale data.
        assert_eq!(strong.stats.stale_reads, 0);
    }

    #[test]
    fn strong_is_slower_but_never_stale() {
        let eventual = run_with(Box::new(StaticPolicy::Eventual), small_spec(16, 3_000));
        let strong = run_with(Box::new(StaticPolicy::Strong), small_spec(16, 3_000));
        assert!(strong.read_p99_ms() >= eventual.read_p99_ms());
        assert!(strong.throughput() <= eventual.throughput());
        assert_eq!(strong.stats.stale_reads, 0);
    }

    #[test]
    fn harmony_staleness_is_bounded_between_baselines() {
        let spec = small_spec(16, 3_000);
        let eventual = run_with(Box::new(StaticPolicy::Eventual), spec.clone());
        let harmony = run_with(Box::new(HarmonyPolicy::new(3, 0.2)), spec.clone());
        let strong = run_with(Box::new(StaticPolicy::Strong), spec);
        assert!(harmony.stats.stale_reads <= eventual.stats.stale_reads);
        assert!(strong.stats.stale_reads <= harmony.stats.stale_reads);
        // Harmony adapts: its decision history contains estimates.
        assert!(!harmony.decisions.is_empty());
        assert!(harmony.decisions.iter().any(|d| d.estimate.is_some()));
    }

    #[test]
    fn multi_phase_run_produces_per_phase_results() {
        let mut spec = small_spec(8, 500);
        spec.phases = vec![Phase::new(8, 500), Phase::new(2, 500), Phase::new(16, 500)];
        let result = run_with(Box::new(StaticPolicy::Eventual), spec);
        assert_eq!(result.phase_results.len(), 3);
        assert!(result.stats.operations >= 1_500);
        for pr in &result.phase_results {
            assert!(pr.stats.operations >= pr.phase.operations);
            assert!(pr.stats.ended_at >= pr.stats.started_at);
        }
    }

    #[test]
    fn dual_read_measurement_populates_second_counter() {
        let mut spec = small_spec(8, 1_500);
        spec.dual_read_measurement = true;
        let result = run_with(Box::new(StaticPolicy::Eventual), spec);
        // The verification reads do not count towards the workload operations.
        assert!(result.stats.operations >= 1_500);
        // Ground truth and dual-read counts are both tracked; the dual-read
        // count may legitimately differ (the verification read races with
        // propagation), but both must be bounded by the number of reads.
        assert!(result.stats.stale_reads <= result.stats.reads);
        assert!(result.stats.stale_reads_dual_read <= result.stats.reads);
    }

    #[test]
    fn more_threads_increase_throughput_until_saturation() {
        let low = run_with(Box::new(StaticPolicy::Eventual), small_spec(1, 1_000));
        let high = run_with(Box::new(StaticPolicy::Eventual), small_spec(32, 4_000));
        assert!(
            high.throughput() > low.throughput() * 2.0,
            "32 threads ({:.0} ops/s) should significantly out-run 1 thread ({:.0} ops/s)",
            high.throughput(),
            low.throughput()
        );
    }

    #[test]
    #[should_panic(expected = "invalid experiment spec")]
    fn invalid_spec_panics() {
        let mut spec = small_spec(0, 100);
        spec.phases = vec![Phase::new(0, 100)];
        let profile = profiles::grid5000_with_nodes(4);
        let controller = AdaptiveController::new(
            ControllerConfig::default(),
            3,
            Box::new(StaticPolicy::Eventual),
        );
        let _ = Runner::new(&profile, small_store_config(), controller, spec);
    }

    #[test]
    fn non_finite_or_non_positive_deadline_is_rejected() {
        assert!(small_spec(4, 100).validate().is_ok());
        for secs in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let mut spec = small_spec(4, 100);
            spec.max_virtual_secs = secs;
            assert!(
                spec.validate().is_err(),
                "max_virtual_secs = {secs} must be rejected"
            );
        }
    }

    #[test]
    fn hot_key_prefix_tallies_hot_reads_separately() {
        let mut spec = small_spec(8, 2_000);
        spec.hot_key_prefix = 10;
        let result = run_with(Box::new(StaticPolicy::Eventual), spec);
        // Workload A is Zipfian: the 10 hottest keys draw a large share of
        // the reads, and the tallies are consistent with the aggregates.
        assert!(result.stats.hot_reads > 0);
        assert!(result.stats.hot_reads <= result.stats.reads);
        assert!(result.stats.hot_stale_reads <= result.stats.stale_reads);
        assert!(result.stats.hot_stale_reads <= result.stats.hot_reads);
        assert!(
            result.stats.hot_reads as f64 / result.stats.reads as f64 > 0.2,
            "zipfian head should carry a large read share, got {}/{}",
            result.stats.hot_reads,
            result.stats.reads
        );
    }

    #[test]
    fn split_controller_populates_the_hot_set_under_zipfian_load() {
        // Saturated write stage (single service slot, slow mutations) so the
        // hot keys of the Zipfian stream build real per-key backlogs; the
        // calibrated differential propagation window so the *residual*
        // (cold-tail) estimate stays cheap — the regime the split exists for.
        let controller_config = ControllerConfig {
            per_key_split: true,
            ..ControllerConfig::calibrated()
        };
        let store = StoreConfig {
            replication_factor: 3,
            node_concurrency: 1,
            write_service_ms: 1.0,
            read_service_ms: 0.25,
            ..StoreConfig::default()
        };
        let mut spec = small_spec(32, 6_000);
        spec.hot_key_prefix = 10;
        let profile = profiles::grid5000_with_nodes(6);
        let result = run_experiment(
            &profile,
            store,
            controller_config,
            Box::new(HarmonyPolicy::new(3, 0.4)),
            spec,
        );
        assert!(
            result.decisions.iter().any(|d| d.hot_keys > 0),
            "deep per-key backlogs under zipfian saturation must escalate hot keys"
        );
        // The reported hot set is key-sorted and within the replication
        // factor; the deep-backlog head must actually be escalated above ONE
        // (keys whose individual estimate fits the tolerance may stay at 1).
        assert!(result.hot_set.windows(2).all(|w| w[0].key < w[1].key));
        assert!(result.hot_set.iter().all(|h| (1..=3).contains(&h.replicas)));
        assert!(
            result.hot_set.iter().any(|h| h.replicas > 1),
            "no hot key escalated above ONE: {:?}",
            result.hot_set
        );
        // Escalations actually reached the read path: some reads ran above ONE
        // even though the default level stayed cheap on most ticks.
        assert!(result.read_level_histogram.len() > 1);
    }

    #[test]
    fn crash_schedule_completes_the_run_and_counts_faults() {
        use harmony_sim::topology::NodeId;
        let spec = small_spec(8, 4_000);
        let profile = profiles::grid5000_with_nodes(6);
        // Crash one node early, restart it later; the closed-loop sessions
        // must keep completing operations throughout.
        let faults = FaultSchedule::empty()
            .crash_at(0.05, NodeId(1))
            .restart_at(0.4, NodeId(1));
        let result = small_runner(&profile, Box::new(StaticPolicy::Eventual), spec)
            .with_faults(faults)
            .run();
        assert!(result.stats.operations >= 4_000);
        assert_eq!(result.fault_counters.crashes, 1);
        assert_eq!(result.fault_counters.restarts, 1);
        assert!(result.stats.duration_secs() > 0.4, "run spans the schedule");
    }

    #[test]
    fn empty_fault_schedule_is_byte_identical_to_run_experiment() {
        let spec = small_spec(8, 2_000);
        let profile = profiles::grid5000_with_nodes(6);
        let plain = run_experiment(
            &profile,
            small_store_config(),
            ControllerConfig::default(),
            Box::new(HarmonyPolicy::new(3, 0.2)),
            spec.clone(),
        );
        let chaos_empty = small_runner(&profile, Box::new(HarmonyPolicy::new(3, 0.2)), spec)
            .with_faults(FaultSchedule::empty())
            .run();
        assert_eq!(plain.decisions, chaos_empty.decisions);
        assert_eq!(plain.read_level_histogram, chaos_empty.read_level_histogram);
        assert_eq!(plain.stats.operations, chaos_empty.stats.operations);
        assert_eq!(plain.stats.stale_reads, chaos_empty.stats.stale_reads);
        assert_eq!(plain.cluster_totals, chaos_empty.cluster_totals);
        assert_eq!(chaos_empty.fault_counters.total(), 0);
        assert_eq!(chaos_empty.stats.aborted_ops, 0);
    }

    #[test]
    fn retry_backoff_doubles_and_clamps() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 2.0,
            max_backoff_ms: 10.0,
            hedge_after_ms: 0.0,
        };
        assert!(p.validate().is_ok());
        assert_eq!(p.backoff(1), SimTime::from_millis_f64(2.0));
        assert_eq!(p.backoff(2), SimTime::from_millis_f64(4.0));
        assert_eq!(p.backoff(3), SimTime::from_millis_f64(8.0));
        assert_eq!(p.backoff(4), SimTime::from_millis_f64(10.0), "clamped");
        assert_eq!(p.backoff(40), SimTime::from_millis_f64(10.0));
        assert!(!RetryPolicy::default().enabled());
        for bad in [
            RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                base_backoff_ms: 0.0,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                max_backoff_ms: 0.5,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                hedge_after_ms: f64::NAN,
                ..RetryPolicy::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn disabled_retry_policy_is_byte_identical() {
        let spec = small_spec(8, 2_000);
        let profile = profiles::grid5000_with_nodes(6);
        let plain = run_experiment(
            &profile,
            small_store_config(),
            ControllerConfig::default(),
            Box::new(HarmonyPolicy::new(3, 0.2)),
            spec.clone(),
        );
        let with_knob = small_runner(&profile, Box::new(HarmonyPolicy::new(3, 0.2)), spec)
            .with_retry(RetryPolicy::default())
            .run();
        assert_eq!(plain.decisions, with_knob.decisions);
        assert_eq!(plain.read_level_histogram, with_knob.read_level_histogram);
        assert_eq!(plain.stats.operations, with_knob.stats.operations);
        assert_eq!(plain.cluster_totals, with_knob.cluster_totals);
        assert_eq!(with_knob.stats.retries, 0);
        assert_eq!(with_knob.stats.hedged_reads, 0);
        assert_eq!(with_knob.stats.hedge_wins, 0);
    }

    /// The partition-then-heal chaos schedule strands operations (the reaper
    /// aborts them); retries convert those aborts into eventual successes
    /// without double-counting any operation, and the whole retrying run is
    /// deterministic per seed.
    #[test]
    fn retries_convert_aborts_without_double_counting() {
        use harmony_sim::topology::NodeId;
        let profile = profiles::grid5000_with_nodes(6);
        // Isolating a minority pair makes coordinators 0/1 unable to reach
        // *any* replica of the ~20% of keys placed entirely in the majority:
        // those operations abort as unavailable. A retried attempt picks the
        // next round-robin coordinator — usually on the majority side — so
        // client-side retries genuinely convert these aborts mid-partition.
        let schedule = || {
            FaultSchedule::empty()
                .partition_at(0.05, vec![vec![NodeId(0), NodeId(1)]])
                .heal_at(0.6)
        };
        let retry = RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 0.5,
            max_backoff_ms: 8.0,
            hedge_after_ms: 0.0,
        };
        let run_once = |retry_policy: RetryPolicy| {
            small_runner(
                &profile,
                Box::new(StaticPolicy::Strong),
                small_spec(8, 4_000),
            )
            .with_faults(schedule())
            .with_retry(retry_policy)
            .run()
        };
        let baseline = run_once(RetryPolicy::default());
        assert!(
            baseline.stats.aborted_ops > 0,
            "the partition schedule must strand operations for this test to bite \
             (duration {:.3}s, counters {:?}, ops {})",
            baseline.stats.duration_secs(),
            baseline.fault_counters,
            baseline.stats.operations,
        );
        let retried = run_once(retry);
        assert!(retried.stats.retries > 0, "retries must actually fire");
        assert!(
            retried.stats.aborted_ops < baseline.stats.aborted_ops,
            "retries must convert aborts: {} with vs {} without",
            retried.stats.aborted_ops,
            baseline.stats.aborted_ops
        );
        // No double counting: the retrying run completes exactly the same
        // number of workload operations, and every counted operation is a
        // read or a write exactly once.
        assert_eq!(retried.stats.operations, baseline.stats.operations);
        assert_eq!(
            retried.stats.reads + retried.stats.writes,
            retried.stats.operations
        );
        // Determinism: the same seed reproduces the retrying run exactly.
        let again = run_once(retry);
        assert_eq!(again.stats.operations, retried.stats.operations);
        assert_eq!(again.stats.retries, retried.stats.retries);
        assert_eq!(again.stats.aborted_ops, retried.stats.aborted_ops);
        assert_eq!(again.stats.stale_reads, retried.stats.stale_reads);
        assert_eq!(again.cluster_totals, retried.cluster_totals);
        assert_eq!(again.read_level_histogram, retried.read_level_histogram);
        assert_eq!(
            again.stats.read_latency.summary(),
            retried.stats.read_latency.summary()
        );
    }

    /// Hedged reads race a duplicate against slow primaries: duplicates are
    /// issued, first answer wins, nothing is counted twice, and the hedging
    /// run is deterministic per seed.
    #[test]
    fn hedged_reads_race_duplicates_without_double_counting() {
        let profile = profiles::grid5000_with_nodes(6);
        let hedging = RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 1.0,
            max_backoff_ms: 64.0,
            hedge_after_ms: 0.3,
        };
        let run_once = || {
            small_runner(
                &profile,
                Box::new(StaticPolicy::Eventual),
                small_spec(8, 2_000),
            )
            .with_retry(hedging)
            .run()
        };
        let hedged = run_once();
        assert!(hedged.stats.hedged_reads > 0, "hedges must actually fire");
        assert!(hedged.stats.hedge_wins <= hedged.stats.hedged_reads);
        assert_eq!(
            hedged.stats.reads + hedged.stats.writes,
            hedged.stats.operations
        );
        // The hedged run completes the same workload as the plain one.
        let plain = run_with(Box::new(StaticPolicy::Eventual), small_spec(8, 2_000));
        assert_eq!(hedged.stats.operations, plain.stats.operations);
        // Determinism per seed.
        let again = run_once();
        assert_eq!(again.stats.hedged_reads, hedged.stats.hedged_reads);
        assert_eq!(again.stats.hedge_wins, hedged.stats.hedge_wins);
        assert_eq!(again.stats.operations, hedged.stats.operations);
        assert_eq!(again.cluster_totals, hedged.cluster_totals);
    }

    #[test]
    fn queued_events_stay_small() {
        // Every queued event is a `RunnerEvent`: retry and hedge events carry
        // an op id and look their state up in op tables, so the largest
        // variant stays the store event and the heap entries stay small.
        assert!(std::mem::size_of::<RunnerEvent>() <= 48);
    }

    #[test]
    fn workload_b_produces_fewer_writes_than_a() {
        let mut spec_b = small_spec(8, 2_000);
        spec_b.workload = {
            let mut w = WorkloadSpec::workload_b(500);
            w.field_count = 2;
            w.field_size = 16;
            w
        };
        let a = run_with(Box::new(StaticPolicy::Eventual), small_spec(8, 2_000));
        let b = run_with(Box::new(StaticPolicy::Eventual), spec_b);
        let a_write_share = a.stats.writes as f64 / a.stats.operations as f64;
        let b_write_share = b.stats.writes as f64 / b.stats.operations as f64;
        assert!(b_write_share < a_write_share / 3.0);
    }

    fn run_obs(obs: ObsConfig) -> (ExperimentResult, ObsReport) {
        small_runner(
            &profiles::grid5000_with_nodes(6),
            Box::new(HarmonyPolicy::new(3, 0.2)),
            small_spec(8, 2_000),
        )
        .with_obs(obs)
        .run_with_obs()
    }

    #[test]
    fn obs_off_is_byte_identical_to_plain_run_with_empty_report() {
        let plain = run_with(Box::new(HarmonyPolicy::new(3, 0.2)), small_spec(8, 2_000));
        let (result, report) = run_obs(ObsConfig::off());
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&result).unwrap(),
            "an all-off obs config must not change the run at all"
        );
        assert_eq!(report.prometheus_text(), "");
        assert_eq!(report.traces_json(), "[]");
        assert!(report.audit.is_empty());
    }

    #[test]
    fn obs_enabled_observes_without_perturbing_the_run() {
        let plain = run_with(Box::new(HarmonyPolicy::new(3, 0.2)), small_spec(8, 2_000));
        let (result, report) = run_obs(ObsConfig::enabled());
        // Tracing samples by op-id modulo and metrics collect on scrape, so
        // even a fully enabled run is byte-identical to the plain one.
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&result).unwrap(),
            "enabled observability must not perturb the simulation"
        );
        // The registry carries protocol, controller and client series.
        let snap = report.registry.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
                .value
        };
        assert_eq!(
            counter("harmony_reads_completed_total"),
            result.cluster_totals.reads_completed
        );
        assert_eq!(
            counter("harmony_client_operations_total"),
            result.stats.operations
        );
        assert_eq!(
            counter("harmony_decisions_total"),
            result.decisions.len() as u64
        );
        assert!(snap
            .histograms
            .iter()
            .any(|h| h.name == "harmony_client_read_latency_us" && h.summary.count > 0));
        let text = report.prometheus_text();
        assert!(text.contains("# TYPE harmony_reads_completed_total counter"));
        // The flight recorder retained sampled traces with causal timelines.
        let traces: Vec<_> = report.recorder.traces().collect();
        assert!(
            !traces.is_empty(),
            "sampling 1/64 of 2000+ ops retains traces"
        );
        for t in &traces {
            assert!(t.events.len() >= 3, "trace has a causal timeline: {t:?}");
            assert!(!t.render().is_empty());
        }
        // Every decision is audited, and the audit aligns with the decisions.
        assert_eq!(report.audit.len(), result.decisions.len());
        assert!(report
            .audit
            .iter()
            .zip(result.decisions.iter())
            .all(|(a, d)| a.replicas_in_read == d.replicas_in_read as u64));
    }

    #[test]
    fn obs_traces_span_fault_epochs_and_audit_links_escalations() {
        let profile = profiles::grid5000_with_nodes(6);
        use harmony_sim::topology::NodeId;
        let faults = FaultSchedule::empty()
            .crash_at(0.05, NodeId(1))
            .restart_at(0.4, NodeId(1));
        let obs = ObsConfig {
            trace_sample_every: 4,
            ..ObsConfig::enabled()
        };
        let (result, report) = small_runner(
            &profile,
            Box::new(HarmonyPolicy::new(3, 0.2)),
            small_spec(16, 20_000),
        )
        .with_faults(faults)
        .with_obs(obs)
        .run_with_obs();
        assert!(result.fault_counters.crashes > 0);
        // At least one retained trace observed the fault epoch advancing
        // between submit and completion.
        assert!(
            !report.fault_spanning_traces().is_empty(),
            "a crash mid-run must be visible in some sampled trace"
        );
        // The audit can explain every decision with its inputs.
        assert!(!report.audit.is_empty());
        for a in &report.audit {
            assert!(!a.explain().is_empty());
            assert!(a.live_nodes <= 6);
        }
    }
}
