//! Self-healing claims (ISSUE 9 acceptance): after a network partition heals,
//! the cluster converges every serving replica *without serving a single
//! read* — hinted handoff replays what it retained, and the anti-entropy
//! digest exchange closes whatever the bounded hint buffer had to evict.
//! Client-side retries convert the partition's unavailability aborts, and
//! arming the repair knobs in the full YCSB stack stays deterministic per
//! seed while healing mid-run divergence.

use harmony::chaos::FaultEvent;
use harmony::prelude::*;
use harmony::sim::latency::Latency;
use harmony::sim::rng::RngFactory;
use harmony::sim::topology::{NetworkModel, NodeId, Topology};
use harmony::store::cluster::Cluster;
use harmony::store::config::StoreConfig;
use harmony::store::consistency::ConsistencyLevel;
use harmony::store::messages::StoreEvent;
use harmony::store::types::{Mutation, Timestamp};
use harmony_sim::engine::Simulation;

/// Pumps the simulation dry, discarding completions.
fn drain(cluster: &mut Cluster, sim: &mut Simulation<StoreEvent>) {
    while let Some((_, event)) = sim.next() {
        let _ = cluster.handle(event, sim);
    }
}

/// A six-node cluster with a deliberately tiny hint buffer and no background
/// read repair, so the only post-heal convergence paths are hint replay (of
/// what little the cap retained) and anti-entropy.
fn small_cluster() -> (Cluster, Simulation<StoreEvent>) {
    let topology = Topology::single_dc(2, 3);
    let network = NetworkModel::uniform(Latency::constant_ms(0.2));
    let config = StoreConfig {
        replication_factor: 3,
        hint_cap_per_origin: 1,
        background_read_repair_chance: 0.0,
        ..StoreConfig::default()
    };
    let cluster = Cluster::new(config, topology, network, RngFactory::new(7));
    let sim: Simulation<StoreEvent> = Simulation::new(7);
    (cluster, sim)
}

/// The tentpole claim, store level: partition a node away, hammer writes
/// until the bounded hint buffer overflows (so hint replay *cannot* converge
/// the cluster on its own), heal, and let anti-entropy close the rest — with
/// zero read traffic end to end.
#[test]
fn healed_partition_converges_via_anti_entropy_with_zero_read_traffic() {
    let (mut cluster, mut sim) = small_cluster();
    const KEYS: u64 = 12;
    for i in 0..KEYS {
        cluster.load_direct(
            &format!("user{i}"),
            &Mutation::single("f", b"v0".to_vec()),
            Timestamp(i + 1),
        );
    }
    // Cut one node off from everyone else.
    let victim = NodeId(0);
    let rest: Vec<NodeId> = (1..cluster.node_count() as u32).map(NodeId).collect();
    cluster.apply_fault(
        &FaultEvent::Partition {
            groups: vec![vec![victim], rest],
        },
        &mut sim,
    );
    // Several rounds of writes across every key. Writes reaching the victim's
    // keys from the majority side become hints; the per-origin cap of one
    // keeps only each coordinator's newest hint and evicts the rest, so after
    // the heal some keys can only converge through anti-entropy.
    for round in 0..4u64 {
        for i in 0..KEYS {
            cluster.submit_write(
                &format!("user{i}"),
                Mutation::single("f", format!("r{round}").into_bytes()),
                ConsistencyLevel::One,
                &mut sim,
            );
            drain(&mut cluster, &mut sim);
        }
    }
    assert!(
        cluster.totals().hints_evicted > 0,
        "the bounded hint buffer must overflow for this scenario to bite: {:?}",
        cluster.totals()
    );
    assert!(!cluster.all_replicas_converged());

    // Heal; retained hints replay immediately, but the evicted ones are gone
    // for good — replay alone must leave the cluster divergent.
    cluster.apply_fault(&FaultEvent::HealPartition, &mut sim);
    drain(&mut cluster, &mut sim);
    assert!(
        !cluster.all_replicas_converged(),
        "hint replay alone must not converge an overflowed buffer"
    );

    // Anti-entropy closes the gap with zero read traffic: no client read is
    // ever submitted, and no replica serves a read during repair.
    let reads_before: u64 = cluster.node_counters().iter().map(|c| c.reads).sum();
    for _ in 0..2 * cluster.node_count() {
        cluster.run_anti_entropy_round(&mut sim);
        drain(&mut cluster, &mut sim);
    }
    assert!(
        cluster.all_replicas_converged(),
        "anti-entropy must converge every serving replica after the heal"
    );
    let reads_after: u64 = cluster.node_counters().iter().map(|c| c.reads).sum();
    assert_eq!(reads_before, reads_after, "repair must not serve reads");
    let totals = cluster.totals();
    assert_eq!(totals.reads_submitted, 0);
    assert!(totals.ae_rounds >= 1);
    assert!(totals.ae_rows_streamed >= 1, "{totals:?}");
}

/// The CI-scaled full-stack configuration shared by the runner-level tests.
fn spec(ops: u64) -> ExperimentSpec {
    let mut workload = WorkloadSpec::workload_a(500);
    workload.field_count = 2;
    workload.field_size = 16;
    ExperimentSpec {
        workload,
        phases: vec![harmony::ycsb::runner::Phase::new(8, ops)],
        seed: 20_120_920,
        dual_read_measurement: false,
        hot_key_prefix: 0,
        max_virtual_secs: 600.0,
    }
}

fn store_config(anti_entropy_interval_secs: f64) -> StoreConfig {
    StoreConfig {
        replication_factor: 3,
        anti_entropy_interval_secs,
        ..StoreConfig::default()
    }
}

/// A runner over [`spec`] and [`store_config`] with eventual reads under the
/// default controller; the tests attach faults and retries.
fn eventual_runner(profile: &ClusterProfile, anti_entropy_interval_secs: f64, ops: u64) -> Runner {
    let controller = AdaptiveController::new(
        ControllerConfig::default(),
        3,
        Box::new(StaticPolicy::Eventual),
    );
    Runner::new(
        profile,
        store_config(anti_entropy_interval_secs),
        controller,
        spec(ops),
    )
}

/// Full stack: a partition-then-heal schedule with the anti-entropy interval
/// armed runs repair rounds mid-experiment, streams rows to close the
/// partition's divergence, and stays deterministic per seed.
#[test]
fn armed_anti_entropy_heals_mid_run_and_stays_deterministic() {
    let profile = harmony::profiles::grid5000_with_nodes(6);
    let schedule = || {
        FaultSchedule::empty()
            .partition_at(0.05, vec![vec![NodeId(0), NodeId(1)]])
            .heal_at(0.4)
    };
    let run_once = || {
        eventual_runner(&profile, 0.05, 4_000)
            .with_faults(schedule())
            .with_retry(RetryPolicy {
                max_attempts: 4,
                base_backoff_ms: 0.5,
                max_backoff_ms: 8.0,
                hedge_after_ms: 0.0,
            })
            .run()
    };
    let healed = run_once();
    assert_eq!(healed.fault_counters.partitions, 1);
    assert_eq!(healed.fault_counters.heals, 1);
    assert!(
        healed.cluster_totals.ae_rounds > 0,
        "the armed interval must actually run repair rounds: {:?}",
        healed.cluster_totals
    );
    assert!(
        healed.cluster_totals.ae_rows_streamed > 0,
        "the healed partition's divergence must be streamed shut: {:?}",
        healed.cluster_totals
    );
    // Determinism: the whole self-healing stack replays exactly per seed.
    let again = run_once();
    assert_eq!(again.stats.operations, healed.stats.operations);
    assert_eq!(again.stats.retries, healed.stats.retries);
    assert_eq!(again.stats.aborted_ops, healed.stats.aborted_ops);
    assert_eq!(again.cluster_totals, healed.cluster_totals);
    assert_eq!(again.read_level_histogram, healed.read_level_histogram);
}

/// The disabled knobs are free: the same chaos schedule with the repair
/// interval at zero and the retry policy at default never runs a repair
/// round, and matches the run without a retry policy byte for byte.
#[test]
fn disarmed_repair_knobs_are_byte_identical_under_chaos() {
    let profile = harmony::profiles::grid5000_with_nodes(6);
    let schedule = || {
        FaultSchedule::empty()
            .partition_at(0.05, vec![vec![NodeId(0), NodeId(1)]])
            .heal_at(0.4)
    };
    let plain = eventual_runner(&profile, 0.0, 2_000)
        .with_faults(schedule())
        .run();
    let disarmed = eventual_runner(&profile, 0.0, 2_000)
        .with_faults(schedule())
        .with_retry(RetryPolicy::default())
        .run();
    assert_eq!(plain.cluster_totals.ae_rounds, 0);
    assert_eq!(disarmed.cluster_totals.ae_rounds, 0);
    assert_eq!(plain.stats.operations, disarmed.stats.operations);
    assert_eq!(plain.stats.aborted_ops, disarmed.stats.aborted_ops);
    assert_eq!(plain.cluster_totals, disarmed.cluster_totals);
    assert_eq!(plain.decisions, disarmed.decisions);
    assert_eq!(plain.read_level_histogram, disarmed.read_level_histogram);
    assert_eq!(disarmed.stats.retries, 0);
    assert_eq!(disarmed.stats.hedged_reads, 0);
}
