//! The four benchmark workloads and the fingerprint that pins a run's outputs.
//!
//! Every configuration is a literal built with struct-update from `Default`,
//! copied from `harmony-bench`'s `grid5000_experiment_config`,
//! `figure_controller_config` and `scaling_spec` as they stood when the
//! benchmark was defined — so an added config field does not break the build
//! and a later edit to the figure harness does not silently move the
//! benchmark.
//!
//! All four are closed loops: each virtual client session issues its next
//! operation when the previous one completes, and the simulator itself is the
//! load generator (there is no generator lateness to report).

use harmony_adaptive::config::ControllerConfig;
use harmony_adaptive::controller::AdaptiveController;
use harmony_adaptive::policy::{ConsistencyPolicy, HarmonyPolicy, PolicyContext, StaticPolicy};
use harmony_chaos::{FaultEvent, FaultSchedule};
use harmony_model::queueing::QueueingModel;
use harmony_model::staleness::PropagationModel;
use harmony_monitor::collector::{EstimatorKind, MonitorConfig};
use harmony_obs::ObsConfig;
use harmony_sim::profiles::{self, ClusterProfile};
use harmony_sim::topology::NodeId;
use harmony_store::cluster::ClusterTotals;
use harmony_store::config::StoreConfig;
use harmony_store::consistency::ConsistencyLevel;
use harmony_ycsb::runner::{ExperimentResult, ExperimentSpec, Phase, RetryPolicy, Runner};
use harmony_ycsb::sharded::{run_sharded_experiment, run_sharded_experiment_with_obs};
use harmony_ycsb::stats::RunStats;
use harmony_ycsb::workloads::WorkloadSpec;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The default workload seed (the repository's golden-pin seed).
pub const DEFAULT_SEED: u64 = 20120920;

/// Workload names, in the order the all-workloads command runs them.
pub const NAMES: [&str; 4] = ["headline", "lean", "sharded", "chaos"];

/// Which read-consistency policy drives the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Harmony with this tolerated stale-read fraction.
    Harmony(f64),
    /// Static eventual consistency (read ONE).
    Eventual,
}

impl Policy {
    fn build(self, replication_factor: usize) -> Box<dyn ConsistencyPolicy> {
        match self {
            Policy::Harmony(asr) => Box::new(HarmonyPolicy::new(replication_factor, asr)),
            Policy::Eventual => Box::new(StaticPolicy::Eventual),
        }
    }
}

/// The wall-clock instants of a run's controller ticks. The controller asks
/// its policy for a read level exactly once per tick, so a policy that notes
/// the time and passes the question on cuts every repetition of a run at the
/// same points of its (deterministic) execution, through the public policy
/// seam and at the price of one clock read per tick (~120 in a `headline`
/// run). [`crate::stats::least_disturbed`] is taken over these cuts.
#[derive(Debug, Clone, Default)]
pub struct TickStamps(Arc<Mutex<Vec<Instant>>>);

impl TickStamps {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Instant>> {
        // A poisoned lock still holds the instants noted so far.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes the stamps noted since the last call and returns the durations,
    /// in seconds, of the pieces they cut `start..end` into. Stamps outside
    /// the interval (ticks during set-up) cut nothing.
    pub fn take_segments(&self, start: Instant, end: Instant) -> Vec<f64> {
        let stamps = std::mem::take(&mut *self.lock());
        let mut cuts = vec![start];
        cuts.extend(stamps.into_iter().filter(|t| *t > start && *t < end));
        cuts.push(end);
        cuts.windows(2)
            .map(|pair| (pair[1] - pair[0]).as_secs_f64())
            .collect()
    }
}

/// Notes the time of every `read_level` call and defers to `inner` for
/// everything, so the run it steers is the run `inner` alone would steer.
struct StampedPolicy {
    inner: Box<dyn ConsistencyPolicy>,
    stamps: TickStamps,
}

impl ConsistencyPolicy for StampedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn read_level(&mut self, ctx: &PolicyContext) -> ConsistencyLevel {
        self.stamps.lock().push(Instant::now());
        self.inner.read_level(ctx)
    }

    fn write_level(&mut self, ctx: &PolicyContext) -> ConsistencyLevel {
        self.inner.write_level(ctx)
    }

    fn last_estimate(&self) -> Option<f64> {
        self.inner.last_estimate()
    }

    fn tolerated_stale_rate(&self) -> Option<f64> {
        self.inner.tolerated_stale_rate()
    }
}

/// One benchmark workload: everything `Runner::new` /
/// `run_sharded_experiment` needs, generated from the seed alone.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub profile: ClusterProfile,
    pub store: StoreConfig,
    pub controller: ControllerConfig,
    pub policy: Policy,
    pub spec: ExperimentSpec,
    pub faults: FaultSchedule,
    pub retry: RetryPolicy,
    /// Event loops: 1 = the classic single-loop runner.
    pub shards: usize,
    /// Where the policy notes the time of each controller tick; `None` (the
    /// catalogued workloads) runs the plain policy.
    pub stamps: Option<TickStamps>,
}

/// `figure_controller_config`: 50 ms monitoring tick, 250 ms sliding window,
/// differential propagation and queueing windows.
fn figure_controller() -> ControllerConfig {
    ControllerConfig {
        monitor: MonitorConfig {
            interval_secs: 0.05,
            estimator: EstimatorKind::SlidingWindow(0.25),
            ..MonitorConfig::default()
        },
        propagation: PropagationModel::differential(0.02, 0.005),
        queueing: QueueingModel {
            divergence_growth: 4.0,
            ..QueueingModel::differential(1e-4)
        },
        avg_write_size_bytes: 100.0,
        ..ControllerConfig::default()
    }
}

/// `grid5000_experiment_config().store`: RF 5, six service slots per node.
fn grid5000_store() -> StoreConfig {
    StoreConfig {
        replication_factor: 5,
        node_concurrency: 6,
        read_service_ms: 0.25,
        write_service_ms: 0.40,
        client_latency_ms: 0.15,
        ..StoreConfig::default()
    }
}

fn single_phase(
    workload: WorkloadSpec,
    sessions: usize,
    operations: u64,
    seed: u64,
) -> ExperimentSpec {
    ExperimentSpec {
        seed,
        ..ExperimentSpec::single_phase(workload, sessions, operations)
    }
}

/// YCSB-A over 20 000 records of 10 x 64 B (`scaled_workload_a`).
fn workload_a() -> WorkloadSpec {
    WorkloadSpec {
        field_size: 64,
        ..WorkloadSpec::workload_a(20_000)
    }
}

/// The paper's run: Grid'5000 profile (20 nodes), RF 5, YCSB-A 50/50
/// zipfian, 40 sessions, Harmony at 20 % tolerated stale reads.
fn headline(seed: u64, operations: u64) -> Workload {
    Workload {
        name: "headline",
        profile: profiles::grid5000(),
        store: grid5000_store(),
        controller: figure_controller(),
        policy: Policy::Harmony(0.20),
        spec: single_phase(workload_a(), 40, operations, seed),
        faults: FaultSchedule::empty(),
        retry: RetryPolicy::default(),
        shards: 1,
        stamps: None,
    }
}

/// The chaos schedule (virtual seconds). Partition side one is {n2, n3};
/// every other node forms the implicit second group.
pub fn chaos_schedule_events() -> Vec<(f64, FaultEvent)> {
    let n = NodeId;
    vec![
        (0.08, FaultEvent::CrashNode { node: n(5) }),
        (
            0.12,
            FaultEvent::SlowNode {
                node: n(7),
                service_factor: 4.0,
            },
        ),
        (0.25, FaultEvent::RestartNode { node: n(5) }),
        (
            0.35,
            FaultEvent::Partition {
                groups: vec![vec![n(2), n(3)]],
            },
        ),
        (0.50, FaultEvent::HealPartition),
        (
            0.58,
            FaultEvent::SlowNode {
                node: n(7),
                service_factor: 1.0,
            },
        ),
        (0.62, FaultEvent::CrashNode { node: n(11) }),
        (0.72, FaultEvent::RestartNode { node: n(11) }),
    ]
}

/// Anti-entropy period on `chaos`, virtual seconds. A round costs ~0.15 s of
/// wall clock, so the number of rounds in a run must not depend on the seed:
/// 60 000 operations end at 1.47-1.66 virtual s over the 30 seeds tried (mean
/// 1.56, sd 0.045), five deviations clear of the third tick at 1.35 and the
/// fourth at 1.8. (At a 0.1 s period, runs straddled a tick and wall time
/// moved 7 % with the seed.) The first round falls inside the partition.
pub const CHAOS_AE_INTERVAL_SECS: f64 = 0.45;

impl Workload {
    /// Builds a workload by name from the seed. `None` for an unknown name.
    pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "headline" => headline(seed, 260_000),
            // `scaling_spec` / `run_scaling_point`: 8 nodes, RF 3, YCSB-B
            // over small rows, read ONE, default 1 s tick.
            "lean" => Workload {
                name: "lean",
                profile: profiles::grid5000_with_nodes(8),
                store: StoreConfig {
                    replication_factor: 3,
                    node_concurrency: 4,
                    ..StoreConfig::default()
                },
                controller: ControllerConfig::default(),
                policy: Policy::Eventual,
                spec: single_phase(
                    WorkloadSpec {
                        field_count: 2,
                        field_size: 16,
                        ..WorkloadSpec::workload_b(20_000)
                    },
                    32,
                    1_200_000,
                    seed,
                ),
                faults: FaultSchedule::empty(),
                retry: RetryPolicy::default(),
                shards: 1,
                stamps: None,
            },
            "sharded" => Workload {
                name: "sharded",
                shards: 2,
                ..headline(seed, 400_000)
            },
            "chaos" => {
                let mut faults = FaultSchedule::empty();
                for (at, fault) in chaos_schedule_events() {
                    faults.push(at, fault);
                }
                let base = headline(seed, 60_000);
                Workload {
                    name: "chaos",
                    store: StoreConfig {
                        hint_cap_per_origin: 8,
                        anti_entropy_interval_secs: CHAOS_AE_INTERVAL_SECS,
                        ..base.store.clone()
                    },
                    controller: ControllerConfig {
                        anti_entropy_repair_rate: 1.0 / CHAOS_AE_INTERVAL_SECS,
                        ..base.controller
                    },
                    faults,
                    // Sessions re-issue an operation the store aborts (no
                    // reachable replica set, coordinator crash), so every
                    // client operation completes and the run's failure
                    // count is zero; the abort path stays live and is
                    // counted as `ycsb.retries` / `store.ops_aborted`.
                    retry: RetryPolicy {
                        max_attempts: 6,
                        ..RetryPolicy::default()
                    },
                    ..base
                }
            }
            _ => return None,
        })
    }

    /// The configured operation count.
    pub fn operations(&self) -> u64 {
        self.spec.total_operations()
    }

    /// The same workload cut to one operation per session: what remains is
    /// set-up (cluster build, record load, thread start), which is how the
    /// sharded entry point's set-up is timed.
    pub fn setup_only(&self) -> Workload {
        let mut w = self.clone();
        for p in &mut w.spec.phases {
            *p = Phase::new(p.threads, p.threads as u64);
        }
        w
    }

    /// The same workload with every controller tick's time noted in `stamps`.
    pub fn stamped(&self, stamps: &TickStamps) -> Workload {
        Workload {
            stamps: Some(stamps.clone()),
            ..self.clone()
        }
    }

    fn new_policy(&self) -> Box<dyn ConsistencyPolicy> {
        let inner = self.policy.build(self.store.replication_factor);
        match &self.stamps {
            Some(stamps) => Box::new(StampedPolicy {
                inner,
                stamps: stamps.clone(),
            }),
            None => inner,
        }
    }

    /// A fresh controller for this workload.
    pub fn new_controller(&self) -> AdaptiveController {
        AdaptiveController::new(
            self.controller,
            self.store.replication_factor,
            self.new_policy(),
        )
    }

    /// Set-up of the single-loop entry point: `Runner::new` (cluster build +
    /// record load) with the workload's faults and retry policy attached.
    pub fn new_runner(&self) -> Runner {
        Runner::new(
            &self.profile,
            self.store.clone(),
            self.new_controller(),
            self.spec.clone(),
        )
        .with_faults(self.faults.clone())
        .with_retry(self.retry)
    }

    /// The sharded entry point, set-up and run in one call.
    pub fn run_sharded(&self, shards: usize) -> ExperimentResult {
        run_sharded_experiment(
            &self.profile,
            self.store.clone(),
            self.controller,
            self.new_policy(),
            self.spec.clone(),
            self.faults.clone(),
            shards,
        )
    }

    /// One repetition with `ObsConfig::enabled()` (tracing, decision audit,
    /// metrics export): returns the wall time of the run part — of the whole
    /// call on `sharded` — and the result.
    pub fn run_observed(&self) -> (f64, ExperimentResult) {
        let obs = ObsConfig::enabled();
        if self.shards > 1 {
            let started = Instant::now();
            let (result, report) = run_sharded_experiment_with_obs(
                &self.profile,
                self.store.clone(),
                self.controller,
                self.new_policy(),
                self.spec.clone(),
                self.faults.clone(),
                self.shards,
                obs,
            );
            black_box(report);
            (started.elapsed().as_secs_f64(), result)
        } else {
            let runner = self.new_runner().with_obs(obs);
            let started = Instant::now();
            let (result, report) = runner.run_with_obs();
            black_box(report);
            (started.elapsed().as_secs_f64(), result)
        }
    }
}

/// What must repeat exactly between two runs of one workload and seed: the
/// simulated outputs. Wall-clock numbers are free to move; these are not.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub operations: u64,
    pub reads: u64,
    pub writes: u64,
    pub stale_reads: u64,
    pub aborted_ops: u64,
    pub retries: u64,
    pub end_time_us: u64,
    pub read_p99_ms: f64,
    pub totals: ClusterTotals,
}

impl Fingerprint {
    pub fn of(result: &ExperimentResult) -> Self {
        Fingerprint::new(&result.stats, result.cluster_totals)
    }

    pub fn new(s: &RunStats, totals: ClusterTotals) -> Self {
        Fingerprint {
            operations: s.operations,
            reads: s.reads,
            writes: s.writes,
            stale_reads: s.stale_reads,
            aborted_ops: s.aborted_ops,
            retries: s.retries,
            end_time_us: s.ended_at.0 / 1_000,
            read_p99_ms: s.read_latency.percentile_ms(0.99),
            totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_chaos_event_is_accepted_by_try_push() {
        let mut schedule = FaultSchedule::empty();
        for (at, fault) in chaos_schedule_events() {
            schedule
                .try_push(at, fault)
                .expect("chaos schedule event rejected");
        }
        assert_eq!(schedule.len(), 8);
    }

    #[test]
    fn workloads_build_and_validate() {
        for name in NAMES {
            let w = Workload::by_name(name, DEFAULT_SEED).expect("known workload");
            assert_eq!(w.name, name);
            w.spec.validate().expect("valid spec");
            w.store.validate().expect("valid store config");
            w.controller.validate().expect("valid controller config");
            w.retry.validate().expect("valid retry policy");
            let cut = w.setup_only();
            assert_eq!(cut.operations(), cut.spec.phases[0].threads as u64);
        }
        assert!(Workload::by_name("nope", 1).is_none());
    }

    #[test]
    fn tick_stamps_cut_a_run_into_pieces_that_add_up_to_it() {
        let stamps = TickStamps::default();
        let mut policy = Workload::by_name("lean", 1)
            .expect("known workload")
            .stamped(&stamps)
            .new_policy();
        let ctx = PolicyContext::idle(3);
        let plain = StaticPolicy::Eventual.read_level(&ctx);
        assert_eq!(policy.read_level(&ctx), plain); // during set-up: cuts nothing
        let start = Instant::now();
        assert_eq!(policy.read_level(&ctx), plain);
        assert_eq!(policy.read_level(&ctx), plain);
        let end = Instant::now();
        let pieces = stamps.take_segments(start, end);
        assert_eq!(pieces.len(), 3);
        let whole = (end - start).as_secs_f64();
        assert!((pieces.iter().sum::<f64>() - whole).abs() < 1e-9);
        // Taken: the next run starts with no stamps.
        assert_eq!(stamps.take_segments(start, end), vec![whole]);
    }

    #[test]
    fn fingerprints_compare_field_by_field() {
        let a = Fingerprint {
            operations: 10,
            reads: 5,
            writes: 5,
            stale_reads: 1,
            aborted_ops: 0,
            retries: 0,
            end_time_us: 1234,
            read_p99_ms: 1.5,
            totals: ClusterTotals::default(),
        };
        assert_eq!(a, a.clone());
        let mut b = a.clone();
        b.end_time_us += 1;
        assert_ne!(a, b);
        let mut c = a.clone();
        c.totals.repairs_issued = 1;
        assert_ne!(a, c);
    }
}
