//! Determinism of the per-key (split) pipeline: same seed ⇒ identical hot
//! sets, per-key backlogs and decision records, end to end.
//!
//! The sim determinism suite (`harmony-sim/tests/determinism.rs`) covers the
//! event kernel and the per-node service models; this suite extends the
//! guarantee to the per-key telemetry stack added for hot-spot staleness:
//! the write-key sample stream, the space-saving sketch, the per-key rate
//! smoothing, the per-key backlog probe and the split controller's hot-set
//! decisions. Any hidden nondeterminism (hash-order iteration, wall-clock
//! leakage) would surface here as a diverging hot set or decision record.

use harmony::prelude::*;
use harmony_bench::experiments::enable_split;

fn run_split(seed: u64) -> ExperimentResult {
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
    // Routed through the fault-aware builder with an explicitly *empty*
    // schedule: the golden pin below is therefore also the guard that the
    // whole chaos layer (fault masks, hint plumbing, membership checks) is
    // byte-for-byte free when no fault fires.
    let controller = AdaptiveController::new(
        enable_split(ControllerConfig::calibrated()),
        5,
        Box::new(HarmonyPolicy::new(5, 0.05)),
    );
    Runner::new(
        &harmony::profiles::grid5000_with_nodes(8),
        store,
        controller,
        spec,
    )
    .with_faults(FaultSchedule::empty())
    .run()
}

/// The same run as [`run_split`], but built with the retry policy attached
/// and every self-healing knob present and disabled — the degeneration arm
/// of the golden pin.
fn run_split_through_retry_entry_point(seed: u64) -> ExperimentResult {
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
        anti_entropy_interval_secs: 0.0,
        ..StoreConfig::default()
    };
    let controller = AdaptiveController::new(
        enable_split(ControllerConfig::calibrated()),
        5,
        Box::new(HarmonyPolicy::new(5, 0.05)),
    );
    Runner::new(
        &harmony::profiles::grid5000_with_nodes(8),
        store,
        controller,
        spec,
    )
    .with_faults(FaultSchedule::empty())
    .with_retry(RetryPolicy::default())
    .run()
}

#[test]
fn same_seed_reproduces_hot_sets_backlogs_and_decisions() {
    let a = run_split(20120920);
    let b = run_split(20120920);

    // The decision records carry every tick's monitored rates, estimates,
    // chosen levels and hot-key counts — equality pins the whole control
    // timeline, not just the endpoint.
    assert_eq!(a.decisions, b.decisions);
    assert!(
        a.decisions.iter().any(|d| d.hot_keys > 0),
        "the skewed run must actually exercise the per-key path"
    );
    // The final hot set matches key for key, including the per-key write
    // rates and backlogs (f64-exact: same inputs, same arithmetic).
    assert_eq!(a.hot_set, b.hot_set);
    assert!(!a.hot_set.is_empty());
    // And the measured outcome is identical too.
    assert_eq!(a.read_level_histogram, b.read_level_histogram);
    assert_eq!(a.stats.operations, b.stats.operations);
    assert_eq!(a.stats.reads, b.stats.reads);
    assert_eq!(a.stats.stale_reads, b.stats.stale_reads);
    assert_eq!(a.stats.hot_reads, b.stats.hot_reads);
    assert_eq!(a.stats.hot_stale_reads, b.stats.hot_stale_reads);
    assert_eq!(a.cluster_totals, b.cluster_totals);
}

/// Golden-stats pin across the allocation-free refactor: the fixed seed must
/// keep producing *these exact* run stats, decision timeline and hot set.
///
/// The goldens were captured from the pre-interning implementation (string
/// keys, per-replica payload clones, uncached ring walks) and re-verified
/// byte-identical after key interning, the placement cache and the
/// `Arc`-shared payloads landed — so any future drift here means a change in
/// *behaviour*, not just in performance. If a deliberate semantic change
/// moves these numbers, re-pin them in the same commit and say why.
#[test]
fn golden_stats_pin_for_seed_20120920() {
    let r = run_split(20120920);

    // Aggregate run stats.
    assert_eq!(r.stats.operations, 12_000);
    assert_eq!(r.stats.reads, 5_876);
    assert_eq!(r.stats.writes, 6_124);
    assert_eq!(r.stats.stale_reads, 238);
    assert_eq!(r.stats.hot_reads, 2_200);
    assert_eq!(r.stats.hot_stale_reads, 84);

    // The store's own ground-truth totals.
    assert_eq!(r.cluster_totals.reads_submitted, 5_893);
    assert_eq!(r.cluster_totals.writes_submitted, 6_130);
    assert_eq!(r.cluster_totals.reads_completed, 5_876);
    assert_eq!(r.cluster_totals.writes_completed, 6_124);
    assert_eq!(r.cluster_totals.stale_reads, 238);
    assert_eq!(r.cluster_totals.repairs_issued, 12_298);

    // The control timeline: tick count, summed hot-key and replica columns,
    // and the final tick's monitored rates (f64-exact: same inputs, same
    // arithmetic, same order).
    assert_eq!(r.decisions.len(), 21);
    assert_eq!(
        r.decisions.iter().map(|d| d.hot_keys as u64).sum::<u64>(),
        103
    );
    assert_eq!(
        r.decisions
            .iter()
            .map(|d| d.replicas_in_read as u64)
            .sum::<u64>(),
        83
    );
    let last = r.decisions.last().unwrap();
    assert_eq!(last.read_rate, 5663.366336633663);
    assert_eq!(last.write_rate, 5579.207920792079);
    assert_eq!(last.tp_secs, 9.358319320258281e-5);
    assert_eq!(last.estimate, Some(0.0032931815225742756));
    assert_eq!(last.hot_keys, 34);
    assert_eq!(last.replicas_in_read, 1);

    // Read-level histogram: how many reads ran at each replica count.
    let histogram: Vec<(usize, u64)> = r
        .read_level_histogram
        .iter()
        .map(|(k, v)| (*k, *v))
        .collect();
    assert_eq!(
        histogram,
        vec![(1, 686), (2, 305), (3, 275), (4, 311), (5, 4_299)]
    );

    // The final hot set, key for key (name-sorted, as reported).
    let hot: Vec<(&str, usize)> = r
        .hot_set
        .iter()
        .map(|h| (h.key.as_str(), h.replicas))
        .collect();
    assert_eq!(hot.len(), 34);
    assert_eq!(hot[0], ("user0", 5));
    assert_eq!(hot[1], ("user1", 5));
    assert_eq!(hot[2], ("user10", 5));
    // The two keys decided below ALL sit exactly where they did pre-refactor.
    assert_eq!(hot.iter().filter(|(_, replicas)| *replicas == 4).count(), 2);
    assert_eq!(hot[21], ("user28", 4));
    assert_eq!(hot[27], ("user33", 4));
    assert!(hot.iter().all(|(_, replicas)| (4..=5).contains(replicas)));

    // Latency percentiles through the log-bucketed histogram.
    assert_eq!(
        (r.stats.read_latency.percentile_ms(0.5) * 1000.0).round(),
        2_240.0
    );
    assert_eq!(
        (r.stats.read_latency.percentile_ms(0.99) * 1000.0).round(),
        3_520.0
    );
    assert_eq!(
        (r.stats.write_latency.percentile_ms(0.99) * 1000.0).round(),
        9_088.0
    );

    // The self-healing-degeneration guard: the same run routed through
    // the retry-aware entry point, with every repair knob present but
    // disabled (default retry/hedge policy, anti-entropy interval at zero,
    // repair-blind staleness model), must reproduce the exact same timeline
    // and outcome. The knobs are free until armed.
    let healed_off = run_split_through_retry_entry_point(20120920);
    assert_eq!(healed_off.decisions, r.decisions);
    assert_eq!(healed_off.hot_set, r.hot_set);
    assert_eq!(healed_off.read_level_histogram, r.read_level_histogram);
    assert_eq!(healed_off.stats.stale_reads, r.stats.stale_reads);
    assert_eq!(healed_off.cluster_totals, r.cluster_totals);
    assert_eq!(healed_off.stats.retries, 0);
    assert_eq!(healed_off.stats.hedged_reads, 0);
    assert_eq!(healed_off.cluster_totals.ae_rounds, 0);
}

#[test]
fn different_seed_changes_the_run_but_not_the_hot_head() {
    let a = run_split(1);
    let b = run_split(2);
    // Different seeds diverge (different arrivals, service times, probes)...
    assert_ne!(a.decisions, b.decisions);
    // ...but the Zipfian head is a property of the workload, not the seed:
    // both runs identify the rank-0 key as hot.
    assert!(
        a.hot_set.iter().any(|h| h.key == "user0"),
        "{:?}",
        a.hot_set
    );
    assert!(
        b.hot_set.iter().any(|h| h.key == "user0"),
        "{:?}",
        b.hot_set
    );
}
