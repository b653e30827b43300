//! Multi-core sharded runtime: one event loop per keyspace stripe, with
//! batched cross-shard delivery at the monitoring tick.
//!
//! The classic [`Runner`](crate::runner::Runner) turns the whole simulated
//! cluster on one thread. This module splits the *keyspace* into `S` strided
//! stripes ([`ShardPartition`]) and runs one complete, independent
//! sub-simulation per stripe — its own event heap, storage engine slice,
//! placement cache, client sessions and heavy-hitter sketch — on its own OS
//! thread. Each shard is a `Runner` built for its stripe and driven by the
//! same event loop as a classic run; only the monitoring tick differs
//! ([`ShardTick`]). Replica sets are per-key, so two operations on different
//! stripes share no protocol state at all; the only cross-shard information
//! flow is the control plane:
//!
//! * every monitoring tick, each shard publishes a [`ShardReport`] (cumulative
//!   totals, write-stage telemetry, replica backlogs, membership view and its
//!   cumulative space-saving sketch translated to *global* key ids);
//! * the coordinator folds the reports **in shard-index order** into a
//!   [`MergedProbe`] — one coherent cluster view — ticks the *single* real
//!   [`AdaptiveController`] on it, and broadcasts a [`ShardDirective`]
//!   (default read level, write level, escalated hot keys) back;
//! * each shard applies the directive to a local level table its issue paths
//!   consult — no locks, no atomics anywhere on the op path.
//!
//! The exchange runs over [`harmony_sim::barrier::ShardBarrier`] (crossbeam
//! channels), which makes it a deterministic barrier: each shard is a pure
//! function of its seed and the directive sequence, the directive sequence is
//! a pure function of the ordered report sequences, so thread scheduling
//! cannot leak into the results — same seed + same shard count ⇒
//! byte-identical stats. `shards = 1` short-circuits to the classic
//! runner (`Runner::new(..).with_faults(..)`) and reproduces the
//! golden-stats pin exactly.

use crate::distributions::record_key;
use crate::runner::{ExperimentResult, ExperimentSpec, MonitorStep, Phase, PhaseResult, Runner};
use crate::stats::RunStats;
use harmony_adaptive::config::ControllerConfig;
use harmony_adaptive::controller::AdaptiveController;
use harmony_adaptive::policy::{ConsistencyPolicy, StaticPolicy};
use harmony_chaos::{FaultCounters, FaultSchedule};
use harmony_monitor::heavy_hitters::SpaceSavingSketch;
use harmony_monitor::probe::ClusterProbe;
use harmony_obs::registry::series_name;
use harmony_obs::{FlightRecorder, MetricsRegistry, ObsConfig, ObsReport};
use harmony_sim::barrier::{ShardBarrier, ShardWorker};
use harmony_sim::clock::SimTime;
use harmony_sim::profiles::ClusterProfile;
use harmony_sim::FixedState;
use harmony_store::cluster::ClusterTotals;
use harmony_store::config::StoreConfig;
use harmony_store::consistency::ConsistencyLevel;
use harmony_store::keys::KeyId;
use harmony_store::node::WriteStageTelemetry;
use harmony_store::shard::ShardPartition;
use std::collections::{BTreeMap, HashMap};

/// Sharded-mode state of one [`Runner`]: the keyspace stripe this event loop
/// owns and the consistency levels the coordinator last broadcast. When
/// present, issue paths consult this table instead of the (placeholder)
/// local controller — the real controller lives on the coordinator and sees
/// the merged cluster view.
pub(crate) struct ShardContext {
    /// This event loop's stripe of the global keyspace.
    pub(crate) partition: ShardPartition,
    /// Records owned locally during the load phase; local ids below this are
    /// load-phase keys with purely arithmetic global ids.
    local_records: usize,
    /// The first global record index this shard's inserts use; the `k`-th
    /// insert names global record `insert_base + k * shards`, keeping insert
    /// names disjoint across shards and owned locally.
    pub(crate) insert_base: u64,
    /// Default read level from the last coordinator directive.
    pub(crate) default_read: ConsistencyLevel,
    /// Write level from the last coordinator directive.
    pub(crate) write: ConsistencyLevel,
    /// Escalated per-key read levels (local ids) from the last directive.
    pub(crate) hot: HashMap<KeyId, ConsistencyLevel, FixedState>,
}

impl ShardContext {
    /// The state of a freshly loaded shard: `local_records` of the
    /// `record_count` load-phase records are owned here, and every level
    /// starts at ONE until the first directive arrives.
    pub(crate) fn new(
        partition: ShardPartition,
        local_records: usize,
        record_count: usize,
    ) -> Self {
        ShardContext {
            partition,
            local_records,
            insert_base: partition.first_owned_at_or_after(record_count) as u64,
            default_read: ConsistencyLevel::One,
            write: ConsistencyLevel::One,
            hot: HashMap::default(),
        }
    }

    /// Translates a *local* interned id to the coordinator's *global* id.
    pub(crate) fn local_to_global_key(&self, id: KeyId) -> KeyId {
        let l = id.index();
        if l < self.local_records {
            self.partition.local_key_to_global(id)
        } else {
            let k = (l - self.local_records) as u64;
            KeyId((self.insert_base + k * self.partition.shards() as u64) as u32)
        }
    }

    /// Translates an owned *global* id back to the local interned id, if the
    /// key exists on this shard (`key_count` = current interner size).
    pub(crate) fn global_to_local_key(&self, id: KeyId, key_count: usize) -> Option<KeyId> {
        let g = id.index();
        if !self.partition.owns_global(g) {
            return None;
        }
        let l = self.partition.global_to_local(g);
        let local = if l < self.local_records {
            l
        } else if g as u64 >= self.insert_base {
            let k = ((g as u64 - self.insert_base) / self.partition.shards() as u64) as usize;
            self.local_records + k
        } else {
            return None;
        };
        (local < key_count).then_some(KeyId(local as u32))
    }
}

/// One shard's per-tick publication to the coordinator. All key ids inside
/// are *global* (the shard translates before sending), so the coordinator
/// needs no per-shard key table — global id `g` simply names `record_key(g)`.
pub(crate) struct ShardReport {
    /// Virtual time of this report on the shard's clock.
    at: SimTime,
    /// True for the shard's final report: its loop has exited and these
    /// cumulative figures are frozen.
    finished: bool,
    /// Cumulative client-visible completed reads.
    total_reads: u64,
    /// Cumulative client-visible completed writes.
    total_writes: u64,
    /// This tick's ping-style network probe (ms).
    probe_latency_ms: f64,
    /// Node slots in this shard's topology (identical across shards).
    node_count: usize,
    /// Serving nodes in this shard's membership view.
    live_nodes: usize,
    /// Cumulative fault-event count — the freshness stamp of `live_nodes`.
    fault_epoch: u64,
    /// Mean apply-delay backlog (ms) over this shard's serving replicas.
    mutation_backlog_ms: f64,
    /// Per-serving-replica backlog depths (ms).
    replica_backlogs: Vec<f64>,
    /// Per-node-slot write-stage telemetry (cumulative counters).
    telemetry: Vec<WriteStageTelemetry>,
    /// Cumulative space-saving sketch over this shard's write keys, in
    /// global ids.
    sketch: SpaceSavingSketch,
    /// Per-key mutation backlog (ms) for every sketch-tracked key.
    hot_backlogs: HashMap<KeyId, f64, FixedState>,
}

/// The coordinator's per-tick broadcast: the consistency levels every shard
/// applies until the next tick. Hot entries carry global ids; each shard
/// keeps only the stripe it owns.
#[derive(Clone)]
pub(crate) struct ShardDirective {
    default_read: ConsistencyLevel,
    write: ConsistencyLevel,
    hot: Vec<(KeyId, ConsistencyLevel)>,
}

/// What one shard thread hands back when its loop exits.
pub(crate) struct ShardOutcome {
    stats: RunStats,
    phase_results: Vec<PhaseResult>,
    read_level_histogram: BTreeMap<usize, u64>,
    totals: ClusterTotals,
    fault_counters: FaultCounters,
    /// This shard's metrics series (empty when metrics are off); the
    /// coordinator folds them like sketches — counters add, gauges max,
    /// histograms merge bucket-wise.
    registry: MetricsRegistry,
    /// This shard's flight recorder (empty when tracing is off).
    recorder: FlightRecorder,
}

/// The merged cluster view the coordinator's controller ticks against: the
/// latest report of every shard, folded on demand. Merging is pure and
/// order-fixed (shard-index order), so the controller's decision timeline is
/// deterministic.
pub(crate) struct MergedProbe<'a> {
    reports: &'a [Option<ShardReport>],
    shards: usize,
    node_concurrency: usize,
}

impl<'a> MergedProbe<'a> {
    fn live(&self) -> impl Iterator<Item = &ShardReport> {
        self.reports.iter().flatten()
    }

    /// The report carrying the freshest membership view: highest fault
    /// epoch, highest shard index as the deterministic tie-break. A
    /// mid-sweep join/decommission can land between two shard merges; the
    /// monitor must normalise per-replica rates by the *post-change* live
    /// view, not whichever shard happened to report first.
    fn freshest(&self) -> Option<&ShardReport> {
        self.reports
            .iter()
            .flatten()
            .enumerate()
            .max_by_key(|(i, r)| (r.fault_epoch, *i))
            .map(|(_, r)| r)
    }
}

impl<'a> ClusterProbe for MergedProbe<'a> {
    fn total_reads(&self) -> u64 {
        self.live().map(|r| r.total_reads).sum()
    }

    fn total_writes(&self) -> u64 {
        self.live().map(|r| r.total_writes).sum()
    }

    fn probe_latency_ms(&self) -> f64 {
        let (sum, n) = self
            .live()
            .fold((0.0, 0usize), |(s, n), r| (s + r.probe_latency_ms, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    fn node_count(&self) -> usize {
        self.live().map(|r| r.node_count).max().unwrap_or(0)
    }

    fn live_node_count(&self) -> usize {
        self.freshest().map(|r| r.live_nodes).unwrap_or(0)
    }

    fn mutation_backlog_ms(&self) -> f64 {
        let (sum, n) = self.live().fold((0.0, 0usize), |(s, n), r| {
            (s + r.mutation_backlog_ms, n + 1)
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    fn replica_backlog_ms(&self) -> Vec<f64> {
        // Each shard models its own per-node queues, so the cluster has
        // `shards × nodes` virtual replica queues; concatenating (in shard
        // order) gives the monitor the true cluster-wide backlog spread.
        let mut all = Vec::new();
        for r in self.live() {
            all.extend_from_slice(&r.replica_backlogs);
        }
        all
    }

    fn write_stage_telemetry(&self) -> Vec<WriteStageTelemetry> {
        // Sum per node slot across shards: slot `i` aggregates every
        // shard's queue on physical node `i`, so cluster-wide arrival and
        // service totals (what the estimator differences) are exact.
        let mut merged: Vec<WriteStageTelemetry> = Vec::new();
        for r in self.live() {
            if merged.len() < r.telemetry.len() {
                merged.resize(r.telemetry.len(), WriteStageTelemetry::default());
            }
            for (slot, t) in merged.iter_mut().zip(r.telemetry.iter()) {
                slot.arrivals += t.arrivals;
                slot.completed += t.completed;
                slot.service_ms_total += t.service_ms_total;
                slot.service_ms_sq_total += t.service_ms_sq_total;
                slot.queued += t.queued;
                slot.busy += t.busy;
            }
        }
        merged
    }

    fn write_stage_concurrency(&self) -> usize {
        // Every physical node runs one service group *per shard*: the
        // effective slot count behind the summed telemetry is S × C, and
        // reporting it keeps the per-slot-group utilisation the M/G/1 model
        // sees equal to what each shard's queue actually experiences.
        (self.node_concurrency * self.shards).max(1)
    }

    fn write_key_sketches(&self) -> Option<Vec<SpaceSavingSketch>> {
        Some(self.live().map(|r| r.sketch.clone()).collect())
    }

    fn per_key_backlog_ms(&self, keys: &[KeyId]) -> Vec<f64> {
        keys.iter()
            .map(|k| {
                let owner = k.index() % self.shards;
                self.reports[owner]
                    .as_ref()
                    .and_then(|r| r.hot_backlogs.get(k).copied())
                    .unwrap_or(0.0)
            })
            .collect()
    }

    fn key_name(&self, key: KeyId) -> String {
        // Global id `g` is the global record index by construction — loads
        // and inserts both — so no coordinator-side key table exists at all
        // (a 10M-record keyspace costs the control plane zero bytes).
        record_key(key.index() as u64)
    }

    fn fault_epoch(&self) -> u64 {
        self.live().map(|r| r.fault_epoch).max().unwrap_or(0)
    }
}

/// This shard's slice of the experiment: thread count and operation targets
/// split evenly (remainders to the lowest stripes), with every shard keeping
/// at least one session and one operation per phase so its event loop stays
/// closed-loop.
fn split_spec(spec: &ExperimentSpec, index: usize, shards: usize) -> ExperimentSpec {
    let phases = spec
        .phases
        .iter()
        .map(|p| {
            let threads = (p.threads / shards + usize::from(index < p.threads % shards)).max(1);
            let ops = (p.operations / shards as u64
                + u64::from((index as u64) < p.operations % shards as u64))
            .max(1);
            Phase::new(threads, ops)
        })
        .collect();
    ExperimentSpec {
        phases,
        ..spec.clone()
    }
}

/// A shard's monitoring step: publish this tick's report, block for the
/// coordinator's directive and install it. A coordinator that went away ends
/// the shard's run.
struct ShardTick {
    worker: ShardWorker<ShardReport, ShardDirective>,
    /// Cumulative space-saving sketch over this shard's write keys (global
    /// ids).
    sketch: SpaceSavingSketch,
}

impl MonitorStep for ShardTick {
    const SAMPLES_DIVERGENCE: bool = false;

    fn tick(&mut self, runner: &mut Runner) -> bool {
        let report = runner.shard_report(&mut self.sketch, false);
        let Some(directive) = self.worker.exchange(report) else {
            return false;
        };
        runner.apply_directive(&directive);
        true
    }
}

impl Runner {
    /// Runs one shard: the common event loop with the controller tick
    /// replaced by the barrier exchange. Returns the shard's accumulated
    /// output; the coordinator merges all of them.
    fn run_shard(
        mut self,
        worker: ShardWorker<ShardReport, ShardDirective>,
        sketch_capacity: usize,
    ) -> ShardOutcome {
        let mut step = ShardTick {
            worker,
            sketch: SpaceSavingSketch::new(sketch_capacity),
        };
        self.drive(&mut step);
        // Final (frozen) report so the coordinator's later merges still see
        // this shard's totals, then drop out of the barrier.
        let last = self.shard_report(&mut step.sketch, true);
        step.worker.finish(last);
        self.shard_outcome()
    }

    /// Builds this tick's report: drain the write-key samples into the
    /// cumulative sketch (translating local → global ids) and snapshot every
    /// cluster signal the merged probe needs.
    fn shard_report(&mut self, sketch: &mut SpaceSavingSketch, finished: bool) -> ShardReport {
        let ctx = self.shard.as_ref().expect("sharded runner has a context");
        for local in self.cluster.drain_write_key_samples() {
            sketch.observe(ctx.local_to_global_key(local));
        }
        let globals: Vec<KeyId> = sketch.entries().iter().map(|e| e.key).collect();
        let key_count = self.cluster.key_count();
        let locals: Vec<KeyId> = globals
            .iter()
            .map(|g| {
                ctx.global_to_local_key(*g, key_count)
                    .expect("sketch-tracked keys are owned locally")
            })
            .collect();
        let backlogs = self.cluster.per_key_backlog_ms(&locals);
        let hot_backlogs = globals.iter().copied().zip(backlogs).collect();
        ShardReport {
            at: self.sim.now(),
            finished,
            total_reads: self.cluster.totals().reads_completed,
            total_writes: self.cluster.totals().writes_completed,
            probe_latency_ms: self.cluster.probe_network_latency_ms(8),
            node_count: self.cluster.node_count(),
            live_nodes: self.cluster.live_node_count(),
            fault_epoch: self.cluster.fault_state().counters().total(),
            mutation_backlog_ms: self.cluster.mutation_backlog_ms(),
            replica_backlogs: self.cluster.replica_backlog_ms(),
            telemetry: self.cluster.write_stage_telemetry(),
            sketch: sketch.clone(),
            hot_backlogs,
        }
    }

    /// Installs the coordinator's levels into the local table the issue
    /// paths consult; hot entries not owned (or not yet interned) here are
    /// simply skipped — their owner shard applies them.
    fn apply_directive(&mut self, directive: &ShardDirective) {
        let key_count = self.cluster.key_count();
        let ctx = self.shard.as_mut().expect("sharded runner has a context");
        ctx.default_read = directive.default_read;
        ctx.write = directive.write;
        ctx.hot.clear();
        for (global, level) in &directive.hot {
            if let Some(local) = ctx.global_to_local_key(*global, key_count) {
                ctx.hot.insert(local, *level);
            }
        }
    }

    fn shard_outcome(mut self) -> ShardOutcome {
        let registry = MetricsRegistry::new();
        if self.obs.metrics {
            self.cluster.export_metrics(&registry);
            registry
                .histogram("harmony_client_read_latency_us")
                .merge_from(&self.stats.read_latency);
            registry
                .histogram("harmony_client_write_latency_us")
                .merge_from(&self.stats.write_latency);
            registry
                .counter("harmony_client_operations_total")
                .set_total(self.stats.operations);
        }
        let recorder = self
            .cluster
            .take_obs()
            .map(|o| o.recorder)
            .unwrap_or_default();
        ShardOutcome {
            totals: self.cluster.totals(),
            fault_counters: self.cluster.fault_state().counters(),
            stats: self.stats,
            phase_results: self.phase_results,
            read_level_histogram: self.read_level_histogram,
            registry,
            recorder,
        }
    }
}

/// Runs one experiment across `shards` per-stripe event loops (one OS thread
/// each) with the control plane merged at every monitoring tick: the short
/// form of [`run_sharded_experiment_with_obs`] with observability off.
///
/// `shards <= 1` is exactly `Runner::new(..).with_faults(faults).run()` —
/// the classic single-loop runner, golden pin included. For `shards > 1` the
/// run is deterministic in (seed, shard count): per-shard RNG streams derive
/// from `mix(seed, stripe)` and all cross-shard data flows through the
/// ordered barrier exchange, so repeated runs produce identical stats.
pub fn run_sharded_experiment(
    profile: &ClusterProfile,
    store_config: StoreConfig,
    controller_config: ControllerConfig,
    policy: Box<dyn ConsistencyPolicy>,
    spec: ExperimentSpec,
    faults: FaultSchedule,
    shards: usize,
) -> ExperimentResult {
    run_sharded_experiment_with_obs(
        profile,
        store_config,
        controller_config,
        policy,
        spec,
        faults,
        shards,
        ObsConfig::off(),
    )
    .0
}

/// [`run_sharded_experiment`] with observability attached: every shard runs
/// its own tracer/flight recorder and exports a per-shard metrics registry;
/// the coordinator merges them the way shard sketches merge (counters add,
/// gauges take the worst shard, histograms fold bucket-wise) and owns the
/// decision audit log — the single real controller lives there. An all-off
/// config yields a result byte-identical to [`run_sharded_experiment`] and
/// an empty report. `shards <= 1` runs the classic runner through the
/// [`Runner`] builder.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_experiment_with_obs(
    profile: &ClusterProfile,
    store_config: StoreConfig,
    controller_config: ControllerConfig,
    policy: Box<dyn ConsistencyPolicy>,
    spec: ExperimentSpec,
    faults: FaultSchedule,
    shards: usize,
    obs: ObsConfig,
) -> (ExperimentResult, ObsReport) {
    let rf = store_config.replication_factor;
    if shards <= 1 {
        let controller = AdaptiveController::new(controller_config, rf, policy);
        return Runner::new(profile, store_config, controller, spec)
            .with_faults(faults)
            .with_obs(obs)
            .run_with_obs();
    }
    spec.validate()
        .unwrap_or_else(|e| panic!("invalid experiment spec: {e}"));

    let sketch_capacity = controller_config.monitor.hot_key_capacity;
    let node_concurrency = store_config.node_concurrency;
    let mut controller = AdaptiveController::new(controller_config, rf, policy);
    if obs.decision_audit {
        controller.enable_decision_audit();
    }
    // Shards trace and export metrics locally; the decision audit belongs to
    // the coordinator (per-shard controllers are cadence placeholders that
    // never decide a level, so a shard-side audit would record nothing).
    let shard_obs = ObsConfig {
        decision_audit: false,
        ..obs
    };

    // Build every shard runner up front (deterministic, single-threaded).
    let mut runners = Vec::with_capacity(shards);
    for index in 0..shards {
        let partition = ShardPartition::new(index, shards);
        let shard_spec = split_spec(&spec, index, shards);
        // The per-shard controller is a cadence placeholder: levels come by
        // directive, so the policy never decides anything.
        let placeholder =
            AdaptiveController::new(controller_config, rf, Box::new(StaticPolicy::Eventual));
        runners.push(
            Runner::build(
                profile,
                store_config.clone(),
                placeholder,
                shard_spec,
                Some(partition),
            )
            .with_faults(faults.clone())
            .with_obs(shard_obs),
        );
    }

    let (mut barrier, workers) = ShardBarrier::<ShardReport, ShardDirective>::new(shards);
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = runners
            .into_iter()
            .zip(workers)
            .map(|(runner, worker)| scope.spawn(move || runner.run_shard(worker, sketch_capacity)))
            .collect();

        // Coordinator rounds: collect (ordered) → merge → tick → broadcast,
        // until every shard has sent its final report.
        let mut latest: Vec<Option<ShardReport>> = (0..shards).map(|_| None).collect();
        while barrier.active_count() > 0 {
            let round = barrier.collect();
            for (i, report) in round.into_iter().enumerate() {
                if let Some(report) = report {
                    if report.finished {
                        barrier.retire(i);
                    }
                    latest[i] = Some(report);
                }
            }
            if barrier.active_count() == 0 {
                break;
            }
            let now = latest
                .iter()
                .flatten()
                .map(|r| r.at)
                .max()
                .unwrap_or(SimTime::ZERO);
            let probe = MergedProbe {
                reports: &latest,
                shards,
                node_concurrency,
            };
            controller.tick(now, &probe);
            let directive = ShardDirective {
                default_read: controller.current_read_level(),
                write: controller.current_write_level(),
                hot: controller
                    .hot_set()
                    .iter()
                    .map(|h| (h.key_id, controller.read_level_for(h.key_id)))
                    .collect(),
            };
            barrier.broadcast_with(|_| directive.clone());
        }

        handles
            .into_iter()
            .map(|handle| handle.join().expect("shard thread panicked"))
            .collect()
    });

    // Deterministic merge, shard-index order throughout. Merged stats start
    // at the earliest shard's start: `absorb` keeps the minimum.
    let unstarted = || RunStats {
        started_at: SimTime::from_secs_f64(f64::MAX),
        ..RunStats::default()
    };
    let mut stats = unstarted();
    let mut read_level_histogram: BTreeMap<usize, u64> = BTreeMap::new();
    let mut totals = ClusterTotals::default();
    let mut phase_results: Vec<PhaseResult> = spec
        .phases
        .iter()
        .map(|p| PhaseResult {
            phase: *p,
            stats: unstarted(),
        })
        .collect();
    // Fold the per-shard observability output like the stats: registries
    // merge (counters add, gauges max, histograms bucket-wise), recorders
    // keep the globally slowest K and the aborted pool, shard-labelled
    // per-shard op counters record the split.
    let registry = MetricsRegistry::new();
    let mut recorder = FlightRecorder::new(obs.keep_slowest as usize, obs.abort_cap as usize);
    for (i, outcome) in outcomes.iter().enumerate() {
        if obs.metrics {
            registry.merge_from(&outcome.registry);
            registry
                .counter(&series_name(
                    "harmony_shard_operations_total",
                    &[("shard", &i.to_string())],
                ))
                .set_total(outcome.stats.operations);
        }
        if obs.tracing_enabled() {
            recorder.merge_from(&outcome.recorder);
        }
    }

    for outcome in &outcomes {
        stats.absorb(&outcome.stats);
        for (level, count) in &outcome.read_level_histogram {
            *read_level_histogram.entry(*level).or_insert(0) += count;
        }
        totals.absorb(&outcome.totals);
        for (i, pr) in outcome.phase_results.iter().enumerate() {
            if let Some(slot) = phase_results.get_mut(i) {
                slot.stats.absorb(&pr.stats);
            }
        }
    }
    // Shards that never closed a phase (deadline) leave empty slots; drop
    // phases nobody completed so the result mirrors the classic runner.
    phase_results.retain(|pr| pr.stats.operations > 0);

    if obs.metrics {
        // Coordinator-side series: the single real controller's decision
        // outcomes and the merged monitor view.
        controller.export_metrics(&registry);
    }
    let report = ObsReport {
        registry,
        recorder,
        audit: controller.audit_log().to_vec(),
    };

    let result = ExperimentResult {
        policy: controller.policy_name(),
        workload: spec.workload.name.clone(),
        profile: profile.name.clone(),
        stats,
        phase_results,
        decisions: controller.decisions().to_vec(),
        read_level_histogram,
        cluster_totals: totals,
        hot_set: controller.hot_set().to_vec(),
        // Every shard applies the identical schedule to an identical
        // membership; shard 0's counters are the cluster's.
        fault_counters: outcomes
            .first()
            .map(|o| o.fault_counters)
            .unwrap_or_default(),
        // Cross-shard divergence is not sampled (each shard only sees its
        // own stripe); the classic runner carries the self-healing metric.
        divergence_timeline: Vec::new(),
    };
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WorkloadSpec;
    use harmony_adaptive::policy::HarmonyPolicy;
    use harmony_sim::profiles;

    fn spec(threads: usize, ops: u64, records: u64) -> ExperimentSpec {
        let mut workload = WorkloadSpec::workload_a(records);
        workload.field_count = 2;
        workload.field_size = 16;
        ExperimentSpec {
            workload,
            phases: vec![Phase::new(threads, ops)],
            seed: 20120920,
            dual_read_measurement: false,
            hot_key_prefix: 8,
            max_virtual_secs: 600.0,
        }
    }

    fn run(shards: usize) -> ExperimentResult {
        run_sharded_experiment(
            &profiles::grid5000_with_nodes(6),
            StoreConfig {
                replication_factor: 3,
                ..StoreConfig::default()
            },
            ControllerConfig::default(),
            Box::new(HarmonyPolicy::new(3, 0.2)),
            spec(8, 12_000, 500),
            FaultSchedule::empty(),
            shards,
        )
    }

    #[test]
    fn both_sharded_paths_reject_a_schedule_naming_a_missing_node() {
        use harmony_sim::topology::NodeId;
        for shards in [1, 2] {
            let outcome = std::panic::catch_unwind(|| {
                run_sharded_experiment(
                    &profiles::grid5000_with_nodes(6),
                    StoreConfig {
                        replication_factor: 3,
                        ..StoreConfig::default()
                    },
                    ControllerConfig::default(),
                    Box::new(HarmonyPolicy::new(3, 0.2)),
                    spec(2, 100, 50),
                    FaultSchedule::empty().crash_at(0.1, NodeId(6)),
                    shards,
                )
            });
            let err = outcome.expect_err("a crash of node 6 on 6 nodes must be rejected");
            let message = err.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("invalid fault schedule"), "{message}");
        }
    }

    #[test]
    fn sharded_run_completes_the_requested_operations() {
        let r = run(4);
        assert!(r.stats.operations >= 12_000);
        assert!(r.stats.reads > 0 && r.stats.writes > 0);
        assert!(r.throughput() > 0.0);
        assert!(!r.decisions.is_empty());
        assert_eq!(r.cluster_totals.protocol_drops, 0);
        assert_eq!(r.stats.aborted_ops, 0);
    }

    #[test]
    fn shard_reports_merge_into_one_coherent_view() {
        let r = run(3);
        // The merged probe fed the controller real traffic: the decision
        // timeline carries non-zero rates, and the totals reconcile with the
        // per-shard sums the stats took the other way around.
        assert!(r.decisions.iter().any(|d| d.read_rate > 0.0));
        assert_eq!(r.stats.reads, r.cluster_totals.reads_completed);
        assert_eq!(r.stats.writes, r.cluster_totals.writes_completed);
        let histogram_reads: u64 = r.read_level_histogram.values().sum();
        assert_eq!(histogram_reads, r.stats.reads);
    }

    #[test]
    fn split_spec_conserves_threads_and_operations() {
        let base = spec(24, 12_000, 500);
        for shards in [2usize, 3, 4, 5] {
            let split: Vec<ExperimentSpec> =
                (0..shards).map(|i| split_spec(&base, i, shards)).collect();
            let threads: usize = split.iter().map(|s| s.phases[0].threads).sum();
            let ops: u64 = split.iter().map(|s| s.phases[0].operations).sum();
            assert_eq!(threads, 24);
            assert_eq!(ops, 12_000);
            assert!(split.iter().all(|s| s.phases[0].threads >= 1));
        }
    }

    #[test]
    fn sharded_obs_merges_per_shard_series_without_perturbing_the_run() {
        let run_obs = |obs: ObsConfig| {
            run_sharded_experiment_with_obs(
                &profiles::grid5000_with_nodes(6),
                StoreConfig {
                    replication_factor: 3,
                    ..StoreConfig::default()
                },
                ControllerConfig::default(),
                Box::new(HarmonyPolicy::new(3, 0.2)),
                spec(8, 12_000, 500),
                FaultSchedule::empty(),
                3,
                obs,
            )
        };
        let plain = run(3);
        let (result, report) = run_obs(ObsConfig::enabled());
        // Per-shard tracing and end-of-run scrapes leave the run untouched.
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&result).unwrap(),
            "enabled observability must not perturb the sharded run"
        );
        let snap = report.registry.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("missing counter {name}"))
                .value
        };
        // Counters fold across shards exactly like the stats merge.
        assert_eq!(
            counter("harmony_reads_completed_total"),
            result.cluster_totals.reads_completed
        );
        assert_eq!(
            counter("harmony_client_operations_total"),
            result.stats.operations
        );
        // The per-shard split is visible as labelled series and re-sums.
        let shard_sum: u64 = (0..3)
            .map(|i| counter(&format!("harmony_shard_operations_total{{shard=\"{i}\"}}")))
            .sum();
        assert_eq!(shard_sum, result.stats.operations);
        // Client latency histograms folded bucket-wise across shards.
        let read_hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "harmony_client_read_latency_us")
            .expect("merged read-latency histogram");
        assert_eq!(read_hist.summary.count, result.stats.reads);
        // The merged recorder re-ranked the per-shard slowest traces, and
        // the coordinator-side audit covers the real controller's decisions.
        assert!(!report.recorder.is_empty());
        assert_eq!(report.audit.len(), result.decisions.len());
    }

    #[test]
    fn merged_probe_uses_the_freshest_membership_view() {
        // Shard 0 reported before a decommission (8 live, epoch 3); shard 1
        // reported after it (7 live, epoch 4). The merged view must
        // normalise by the *post-change* membership, whichever shard slot
        // it came from.
        let report = |live_nodes, fault_epoch| ShardReport {
            at: SimTime::from_secs_f64(1.0),
            finished: false,
            total_reads: 10,
            total_writes: 10,
            probe_latency_ms: 1.0,
            node_count: 8,
            live_nodes,
            fault_epoch,
            mutation_backlog_ms: 0.0,
            replica_backlogs: vec![0.0; 8],
            telemetry: Vec::new(),
            sketch: SpaceSavingSketch::new(4),
            hot_backlogs: HashMap::default(),
        };
        let reports = vec![Some(report(7, 4)), Some(report(8, 3))];
        let probe = MergedProbe {
            reports: &reports,
            shards: 2,
            node_concurrency: 2,
        };
        assert_eq!(probe.live_node_count(), 7, "freshest epoch wins");
        assert_eq!(probe.fault_epoch(), 4);
        assert_eq!(probe.node_count(), 8);
        assert_eq!(probe.write_stage_concurrency(), 4);
    }
}
