//! Determinism of the multi-core sharded runtime.
//!
//! Two guarantees, both non-negotiable for a simulator whose results are
//! pinned and compared across commits:
//!
//! * **Shard-count-fixed reproducibility:** the same seed and the same shard
//!   count produce byte-identical results, run after run, even though every
//!   shard runs on its own OS thread. All cross-shard data flows through the
//!   ordered barrier exchange and every shard's RNG streams derive from
//!   `mix(seed, stripe)`, so thread scheduling has no channel through which
//!   to perturb the stats. Serialized-JSON equality is the strictest
//!   comparison available — it covers every histogram bucket and f64 bit.
//! * **`shards = 1` is the classic runner:** the single-shard case is
//!   `Runner::new(..).with_faults(..)` and must reproduce the committed
//!   golden pin (`per_key_determinism.rs`) exactly — the sharded entry point
//!   is a superset, never a fork, of the single-loop semantics (every shard
//!   runs the very same event loop).

use harmony::prelude::*;
use harmony_adaptive::policy::HarmonyPolicy;
use harmony_sim::topology::NodeId;
use harmony_store::config::StoreConfig;
use harmony_ycsb::sharded::run_sharded_experiment;

/// The exact configuration of the committed golden pin
/// (`per_key_determinism::run_split`), routed through the sharded entry
/// point with the requested shard count.
fn run_sharded(seed: u64, shards: usize) -> ExperimentResult {
    let mut workload = WorkloadSpec::workload_a(1_000);
    workload.field_count = 2;
    workload.field_size = 16;
    let spec = ExperimentSpec {
        workload,
        phases: vec![Phase::new(24, 12_000)],
        seed,
        dual_read_measurement: false,
        hot_key_prefix: 8,
        max_virtual_secs: 600.0,
    };
    let store = StoreConfig {
        replication_factor: 5,
        node_concurrency: 2,
        read_service_ms: 0.25,
        write_service_ms: 0.5,
        client_latency_ms: 0.15,
        ..StoreConfig::default()
    };
    run_sharded_experiment(
        &harmony::profiles::grid5000_with_nodes(8),
        store,
        harmony_bench::experiments::enable_split(ControllerConfig::calibrated()),
        Box::new(HarmonyPolicy::new(5, 0.05)),
        spec,
        FaultSchedule::empty(),
        shards,
    )
}

#[test]
fn single_shard_reproduces_the_golden_stats_pin_exactly() {
    let r = run_sharded(20120920, 1);
    // The same numbers `per_key_determinism::golden_stats_pin_for_seed_20120920`
    // pins for the classic runner: the sharded entry point at shards = 1 is
    // the classic runner.
    assert_eq!(r.stats.operations, 12_000);
    assert_eq!(r.stats.reads, 5_876);
    assert_eq!(r.stats.writes, 6_124);
    assert_eq!(r.stats.stale_reads, 238);
    assert_eq!(r.stats.hot_reads, 2_200);
    assert_eq!(r.stats.hot_stale_reads, 84);
    assert_eq!(r.cluster_totals.reads_submitted, 5_893);
    assert_eq!(r.cluster_totals.writes_submitted, 6_130);
    assert_eq!(r.cluster_totals.repairs_issued, 12_298);
    assert_eq!(r.cluster_totals.protocol_drops, 0);
    assert_eq!(r.decisions.len(), 21);
}

#[test]
fn same_seed_and_shard_count_produce_byte_identical_results() {
    for shards in [2usize, 4] {
        let a = run_sharded(20120920, shards);
        let b = run_sharded(20120920, shards);
        // JSON equality covers every latency-histogram bucket and every f64
        // bit of the decision timeline — nothing to hide behind.
        assert_eq!(
            serde_json::to_string(&a.stats).unwrap(),
            serde_json::to_string(&b.stats).unwrap(),
            "stats diverged at shards={shards}"
        );
        assert_eq!(
            serde_json::to_string(&a.phase_results).unwrap(),
            serde_json::to_string(&b.phase_results).unwrap(),
            "phase results diverged at shards={shards}"
        );
        assert_eq!(
            a.decisions, b.decisions,
            "decisions diverged at shards={shards}"
        );
        assert_eq!(a.hot_set, b.hot_set, "hot set diverged at shards={shards}");
        assert_eq!(a.read_level_histogram, b.read_level_histogram);
        assert_eq!(a.cluster_totals, b.cluster_totals);
    }
}

#[test]
fn sharding_conserves_the_workload_and_stays_clean() {
    let r = run_sharded(20120920, 4);
    // Thread/op splitting conserves the spec: 12 000 operations total.
    assert_eq!(r.stats.operations, 12_000);
    assert_eq!(r.stats.reads + r.stats.writes, 12_000);
    // Stats and store ground truth agree after the merge.
    assert_eq!(r.stats.reads, r.cluster_totals.reads_completed);
    assert_eq!(r.stats.writes, r.cluster_totals.writes_completed);
    assert_eq!(r.stats.stale_reads, r.cluster_totals.stale_reads);
    // Fault-free sharded runs abort nothing and drop nothing.
    assert_eq!(r.stats.aborted_ops, 0);
    assert_eq!(r.cluster_totals.protocol_drops, 0);
    // The merged control plane saw real traffic and produced a hot set from
    // the merged sketches (the workload is the skewed split-figure one).
    assert!(r.decisions.iter().any(|d| d.read_rate > 0.0));
    assert!(
        r.decisions.iter().any(|d| d.hot_keys > 0),
        "per-key escalation must engage through the sketch merge"
    );
}

#[test]
fn chaos_schedule_runs_panic_free_across_shards() {
    // A membership-churn schedule (crash, join, decommission, restart) on
    // the sharded runtime: every shard replays the same faults; the run
    // must complete without panics and with identical results run-to-run.
    let mut workload = WorkloadSpec::workload_a(1_000);
    workload.field_count = 2;
    workload.field_size = 16;
    let spec = ExperimentSpec {
        workload,
        phases: vec![Phase::new(24, 8_000)],
        seed: 20120920,
        dual_read_measurement: false,
        hot_key_prefix: 8,
        max_virtual_secs: 600.0,
    };
    let store = StoreConfig {
        replication_factor: 3,
        ..StoreConfig::default()
    };
    let faults = FaultSchedule::empty()
        .then_at(0.05, FaultEvent::CrashNode { node: NodeId(2) })
        .then_at(0.10, FaultEvent::JoinNode { dc: 0, rack: 0 })
        .then_at(0.15, FaultEvent::DecommissionNode { node: NodeId(4) })
        .then_at(0.20, FaultEvent::RestartNode { node: NodeId(2) });
    let run = |_: usize| {
        run_sharded_experiment(
            &harmony::profiles::grid5000_with_nodes(8),
            store.clone(),
            harmony_bench::experiments::enable_split(ControllerConfig::calibrated()),
            Box::new(HarmonyPolicy::new(3, 0.05)),
            spec.clone(),
            faults.clone(),
            3,
        )
    };
    let a = run(0);
    let b = run(1);
    assert!(a.stats.operations >= 8_000);
    assert!(a.fault_counters.total() >= 4);
    assert_eq!(
        serde_json::to_string(&a.stats).unwrap(),
        serde_json::to_string(&b.stats).unwrap(),
        "chaos run must stay deterministic across shards"
    );
    assert_eq!(a.cluster_totals, b.cluster_totals);
}

#[test]
fn armed_anti_entropy_runs_on_every_shard_and_stays_deterministic() {
    // Shards run the classic event loop, anti-entropy tick included: a crash
    // with a bounded hint buffer leaves divergence that the armed repair
    // rounds stream shut, and the merged totals carry the repair counters.
    let mut workload = WorkloadSpec::workload_a(1_000);
    workload.field_count = 2;
    workload.field_size = 16;
    let spec = ExperimentSpec {
        workload,
        phases: vec![Phase::new(16, 8_000)],
        seed: 20120920,
        dual_read_measurement: false,
        hot_key_prefix: 8,
        max_virtual_secs: 600.0,
    };
    let store = StoreConfig {
        replication_factor: 3,
        hint_cap_per_origin: 4,
        anti_entropy_interval_secs: 0.05,
        ..StoreConfig::default()
    };
    let faults = FaultSchedule::empty()
        .crash_at(0.05, NodeId(1))
        .restart_at(0.2, NodeId(1));
    let run = || {
        run_sharded_experiment(
            &harmony::profiles::grid5000_with_nodes(6),
            store.clone(),
            ControllerConfig::default(),
            Box::new(HarmonyPolicy::new(3, 0.2)),
            spec.clone(),
            faults.clone(),
            2,
        )
    };
    let a = run();
    let b = run();
    assert!(a.stats.operations >= 8_000);
    assert_eq!(a.fault_counters.crashes, 1);
    assert_eq!(a.fault_counters.restarts, 1);
    assert!(
        a.cluster_totals.ae_rounds > 0,
        "armed anti-entropy must run on the shards: {:?}",
        a.cluster_totals
    );
    assert!(
        a.cluster_totals.ae_rows_streamed > 0,
        "the crash's divergence must be streamed: {:?}",
        a.cluster_totals
    );
    assert_eq!(
        serde_json::to_string(&a.stats).unwrap(),
        serde_json::to_string(&b.stats).unwrap(),
        "sharded anti-entropy must stay deterministic"
    );
    assert_eq!(a.cluster_totals, b.cluster_totals);
}
