//! Stand-alone probes: single calls into one layer, timed in a tight loop at
//! the workload's own shapes (profile, row shape, record count). They size
//! the pieces *inside* a span — a `store.process` self time contains a
//! service-time sample and an engine apply; a tick contains a monitor sweep
//! and a model estimate. Each takes well under a second.

use crate::stats::fastest;
use crate::workloads::{Policy, Workload};
use harmony_model::decision::decide_with_estimate;
use harmony_model::queueing::WriteStageObservation;
use harmony_model::staleness::StaleReadModel;
use harmony_monitor::collector::Monitor;
use harmony_monitor::heavy_hitters::SpaceSavingSketch;
use harmony_obs::hist::LatencyHistogram;
use harmony_sim::barrier::ShardBarrier;
use harmony_sim::clock::SimTime;
use harmony_sim::rng::RngFactory;
use harmony_sim::service::ServiceModel;
use harmony_sim::topology::NodeId;
use harmony_store::cluster::Cluster;
use harmony_store::engine::StorageEngine;
use harmony_store::keys::KeyId;
use harmony_store::types::{Mutation, Timestamp};
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call of `f`: the fastest of three batches of `iters`.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let batches: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    fastest(&batches)
}

/// `host.calib_ms`: a fixed binary-heap push/pop kernel — the same
/// instructions on every call, so a slow reading means a slow host, not a
/// slow commit.
pub fn host_calibration_ms() -> f64 {
    let t = Instant::now();
    let mut heap = BinaryHeap::with_capacity(1024);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..300_000u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        heap.push(x >> 16);
        if i % 4 != 0 {
            black_box(heap.pop());
        }
    }
    black_box(heap.len());
    t.elapsed().as_secs_f64() * 1e3
}

/// One probe result: metric name and value (the unit is the catalogue's).
pub type Reading = (&'static str, f64);

/// Runs every probe for `w`. `cluster` is a loaded cluster of the workload
/// (the untraced driver's final cluster where there is one).
pub fn run_all(w: &Workload, cluster: &mut Cluster) -> Vec<Reading> {
    let factory = RngFactory::new(w.spec.seed);
    let mut rng = factory.stream("benchmark-probes");
    let workload = &w.spec.workload;
    let records = workload.record_count;
    let nodes = w.profile.topology.len() as u64;
    let chooser = workload.key_chooser();
    let mut out: Vec<Reading> = Vec::new();

    out.push((
        "trace.clock_ns",
        ns_per_call(1_000_000, |_| {
            black_box(Instant::now());
        }),
    ));

    // sim: latency and service-time sampling on the workload's profile.
    out.push((
        "sim.net_sample_ns",
        ns_per_call(1_000_000, |i| {
            let (a, b) = (
                NodeId((i % nodes) as u32),
                NodeId(((i * 7 + 3) % nodes) as u32),
            );
            black_box(
                w.profile
                    .network
                    .sample(&w.profile.topology, a, b, &mut rng),
            );
        }),
    ));
    let service = ServiceModel::erlang_ms(w.store.write_service_ms, w.store.write_service_shape)
        .with_node_factors(w.store.node_service_factors.clone());
    out.push((
        "sim.service_sample_ns",
        ns_per_call(1_000_000, |i| {
            black_box(service.sample(NodeId((i % nodes) as u32), &mut rng));
        }),
    ));

    // ycsb: the key chooser alone.
    out.push((
        "ycsb.keychoose_ns",
        ns_per_call(1_000_000, |_| {
            black_box(chooser.next_index(&mut rng));
        }),
    ));

    // store: the storage engine at the workload's row shape and record count.
    let mut engine = StorageEngine::new(w.store.engine);
    let row = Mutation::ycsb_row(workload.field_count, workload.field_size);
    for i in 0..records {
        engine.apply(KeyId(i as u32), &row, Timestamp(i + 1));
    }
    let update = Mutation::single("field0", vec![b'u'; workload.field_size]);
    let keys: Vec<KeyId> = (0..4096)
        .map(|_| KeyId(chooser.next_index(&mut rng) as u32))
        .collect();
    out.push((
        "store.engine_apply_ns",
        ns_per_call(200_000, |i| {
            engine.apply(
                keys[i as usize % keys.len()],
                &update,
                Timestamp(records + 1 + i),
            );
        }),
    ));
    out.push((
        "store.engine_get_ns",
        ns_per_call(200_000, |i| {
            black_box(engine.get(keys[i as usize % keys.len()]));
        }),
    ));
    out.push((
        "store.placement_ns",
        ns_per_call(1_000_000, |i| {
            black_box(cluster.replicas_for_id(keys[i as usize % keys.len()]));
        }),
    ));

    // monitor: a fresh monitor sweeping the cluster, and the sketch algebra
    // the sharded runtime pays on every tick (256 counters).
    let mut monitor = Monitor::new(w.controller.monitor);
    let interval = monitor.interval();
    out.push((
        "monitor.sweep_us",
        ns_per_call(100, |i| {
            let now = SimTime(interval.0.saturating_mul(i + 1));
            black_box(monitor.sweep(now, &*cluster));
        }) / 1e3,
    ));
    let mut sketch = SpaceSavingSketch::new(256);
    out.push((
        "monitor.sketch_offer_ns",
        ns_per_call(1_000_000, |i| sketch.observe(keys[i as usize % keys.len()])),
    ));
    let mut other = SpaceSavingSketch::new(256);
    for k in keys.iter().rev().take(2048) {
        other.observe(KeyId(k.0 / 2));
    }
    let clone_ns = ns_per_call(20_000, |_| {
        black_box(sketch.clone());
    });
    let clone_merge_ns = ns_per_call(20_000, |_| {
        let mut merged = sketch.clone();
        merged.merge(&other);
        black_box(merged);
    });
    out.push(("monitor.sketch_clone_us", clone_ns / 1e3));
    out.push((
        "monitor.sketch_merge_us",
        (clone_merge_ns - clone_ns).max(0.0) / 1e3,
    ));

    // sim: one barrier round trip — two workers each report a sketch, the
    // coordinator collects both and broadcasts a directive.
    let rounds = 5_000u64;
    let (mut barrier, workers) = ShardBarrier::<SpaceSavingSketch, u64>::new(2);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in workers {
            let sketch = &sketch;
            scope.spawn(move || {
                for _ in 0..rounds {
                    black_box(worker.exchange(sketch.clone()));
                }
            });
        }
        for round in 0..rounds {
            black_box(barrier.collect());
            barrier.broadcast_with(|_| round);
        }
    });
    out.push((
        "sim.barrier_roundtrip_us",
        started.elapsed().as_secs_f64() * 1e6 / rounds as f64,
    ));

    // model: one staleness estimate plus the decision taken from it.
    let rf = w.store.replication_factor;
    let model = StaleReadModel::new(rf);
    let tolerated = match w.policy {
        Policy::Harmony(asr) => asr,
        Policy::Eventual => 1.0,
    };
    let obs = WriteStageObservation {
        arrival_rate_per_replica: 1_500.0,
        service_mean_ms: w.store.write_service_ms / w.store.node_concurrency as f64,
        service_scv: 1.0,
        backlog_mean_ms: 0.4,
        backlog_variance_ms2: 0.09,
        backlog_trend_ms_per_s: 0.1,
        predicted_wait_ms: 0.3,
        predicted_wait_trend_ms_per_s: 0.05,
    };
    out.push((
        "model.estimate_ns",
        ns_per_call(200_000, |i| {
            let estimate = w.controller.queueing.estimate_with_prediction(
                &obs,
                2e-4 + (i % 16) as f64 * 1e-6,
                rf,
                &w.controller.proactive,
            );
            black_box(decide_with_estimate(
                &model, tolerated, 20_000.0, 20_000.0, &estimate,
            ));
        }),
    ));

    // obs: one latency-histogram record (runner bookkeeping, twice per op).
    let mut hist = LatencyHistogram::new();
    out.push((
        "obs.hist_record_ns",
        ns_per_call(2_000_000, |i| {
            hist.record(SimTime::from_micros(200 + (i * 37) % 5_000))
        }),
    ));
    black_box(hist.count());
    out
}
