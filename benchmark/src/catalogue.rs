//! The metric catalogue: every number the benchmark prints, with its unit,
//! its direction and (end-to-end only) the bound by which it may worsen
//! before a change counts as a regression. `BENCHMARK.json` at the root of
//! the repository is generated from this file (`--manifest`) and a unit test
//! keeps the two equal.

use std::fmt::Write as _;

/// How long one run measures at the driver's default, seconds.
pub const RUN_SECONDS: u64 = 30;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

/// A per-layer metric; lower is better.
const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

/// A per-layer metric; higher is better.
const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// What a user of the simulator sees: wall time and memory.
///
/// The bounds are what a 2-core shared container can hold over ten seeds
/// (README, "Measured baseline"): quiet sets spread 1-4 % on
/// `wall_ops_per_s`, but a neighbour that holds the host for minutes (every
/// 14 ms piece of every repetition at least 14 % slow) took `headline` and
/// `lean` to 13-15 % in one set. The counts repeat exactly for a seed; their
/// bounds cover the seed-to-seed spread (3.6 % for `allocs_per_op` on
/// `chaos`).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_ops_per_s", "ops/s", true, 0.25),
    e2e("setup_s", "s", false, 0.25),
    e2e("allocs_per_op", "count", false, 0.15),
    e2e("peak_alloc_mb", "MB", false, 0.03),
];

/// Single layers. A metric that does not apply to a workload (fault spans
/// outside `chaos`, driver spans on `sharded`, shard ratios elsewhere) reads 0.
pub const PER_LAYER: [MetricDef; 68] = [
    // harmony-sim
    lo("sim.pop_ns", "ns"),
    lo("sim.push_ns", "ns"),
    lo("sim.events_per_op", "count"),
    lo("sim.queue_depth_max", "count"),
    lo("sim.share_pct", "%"),
    lo("sim.net_sample_ns", "ns"),
    lo("sim.service_sample_ns", "ns"),
    lo("sim.barrier_roundtrip_us", "us"),
    // harmony-store
    lo("store.deliver_ns", "ns"),
    lo("store.process_ns", "ns"),
    lo("store.reply_ns", "ns"),
    lo("store.deliver_per_op", "count"),
    lo("store.process_per_op", "count"),
    lo("store.submit_ns", "ns"),
    lo("store.probe_us_per_tick", "us"),
    lo("store.fault_us", "us"),
    lo("store.reaper_us_per_tick", "us"),
    lo("store.divergence_us_per_tick", "us"),
    lo("store.ae_ms_per_round", "ms"),
    lo("store.ae_rounds", "count"),
    lo("store.ae_rows_streamed", "count"),
    lo("store.hints_evicted", "count"),
    lo("store.repairs_issued", "count"),
    lo("store.protocol_drops", "count"),
    lo("store.ops_aborted", "count"),
    lo("store.final_divergent_keys", "count"),
    lo("store.engine_flushes", "count"),
    lo("store.engine_compactions", "count"),
    lo("store.engine_apply_ns", "ns"),
    lo("store.engine_get_ns", "ns"),
    lo("store.placement_ns", "ns"),
    lo("store.load_us_per_krecord", "us"),
    lo("store.share_pct", "%"),
    // harmony-ycsb
    lo("ycsb.gen_ns", "ns"),
    lo("ycsb.issue_ns", "ns"),
    lo("ycsb.complete_ns", "ns"),
    lo("ycsb.keychoose_ns", "ns"),
    lo("ycsb.share_pct", "%"),
    lo("ycsb.runner_overhead_pct", "%"),
    lo("ycsb.retries", "count"),
    hi("ycsb.shard_wall_speedup", "ratio"),
    lo("ycsb.shard_cpu_ratio", "ratio"),
    lo("ycsb.shard_setup_ratio", "ratio"),
    hi("ycsb.model_ops_per_vsec", "1/s"),
    hi("ycsb.model_fresh_read_pct", "%"),
    lo("ycsb.model_read_p50_ms", "ms"),
    lo("ycsb.model_read_p99_ms", "ms"),
    lo("ycsb.model_write_p99_ms", "ms"),
    // harmony-adaptive, harmony-monitor, harmony-model
    lo("adaptive.tick_us", "us"),
    lo("adaptive.ticks", "count"),
    lo("adaptive.mean_read_replicas", "count"),
    lo("adaptive.share_pct", "%"),
    lo("monitor.sweep_us", "us"),
    lo("monitor.sketch_offer_ns", "ns"),
    lo("monitor.sketch_merge_us", "us"),
    lo("monitor.sketch_clone_us", "us"),
    lo("model.estimate_ns", "ns"),
    // harmony-chaos, harmony-obs
    hi("chaos.faults_applied", "count"),
    lo("obs.hist_record_ns", "ns"),
    lo("obs.enabled_overhead_pct", "%"),
    // the benchmark's own tracing, and the host
    lo("trace.overhead_pct", "%"),
    hi("trace.coverage_pct", "%"),
    lo("trace.clock_ns", "ns"),
    lo("host.rep_spread_pct", "%"),
    lo("host.calib_ms", "ms"),
    lo("host.timed_reps", "count"),
    lo("host.fastest_run_s", "s"),
    lo("host.least_disturbed_run_s", "s"),
];

/// Why each workload is in the benchmark (one line each).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "headline",
        "the paper's run (RF 5, YCSB-A 50/50, Harmony 20%, 50 ms ticks): 14 events per op, store message handling and the event queue do most of the work",
    ),
    (
        "lean",
        "read-heavy YCSB-B at RF 3, read ONE, 1 s ticks: 6 events per op, so per-event fixed costs (queue, op generation, runner bookkeeping) weigh most and the control plane idles",
    ),
    (
        "sharded",
        "headline's inputs through run_sharded_experiment at 2 shards: isolates the barrier exchange, the sketch merge per tick and the per-shard set-up",
    ),
    (
        "chaos",
        "headline's cluster under crashes, a slow node and a partition, bounded hints, anti-entropy and client retries: hinted handoff, the reaper, divergent_keys() and digest repair",
    ),
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m),
            m.bound.expect("end-to-end metrics carry a bound"),
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m),
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn better(m: &MetricDef) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;
    use std::collections::HashSet;

    fn legal_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_catalogue_is_within_the_manifest_limits() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(legal_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!(PER_LAYER.len() <= 128);
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, NAMES);
        assert!(WORKLOADS
            .iter()
            .all(|(n, why)| legal_name(n) && why.len() <= 200 && !why.contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest_json(),
            "regenerate with: bash benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }
}
