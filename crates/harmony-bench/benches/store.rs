//! Criterion microbenchmarks for the per-node storage engine (mutation
//! apply and point reads on one replica's row map) and for the
//! coordinator's read reconciliation over shared rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use harmony_store::engine::StorageEngine;
use harmony_store::keys::KeyId;
use harmony_store::types::{Mutation, Row, Timestamp};
use std::sync::Arc;

fn loaded_engine(keys: u64) -> StorageEngine {
    let mut engine = StorageEngine::default();
    for i in 0..keys {
        engine.apply(
            KeyId(i as u32),
            &Mutation::ycsb_row(10, 100),
            Timestamp(i + 1),
        );
    }
    engine
}

fn bench_apply(c: &mut Criterion) {
    c.bench_function("engine/apply_single_column", |b| {
        let mut engine = StorageEngine::default();
        let mutation = Mutation::single("field0", vec![b'x'; 100]);
        let mut ts = 0u64;
        b.iter(|| {
            ts += 1;
            engine.apply(black_box(KeyId(42)), &mutation, Timestamp(ts));
        })
    });
}

/// The replica fan-out of one client write: five engines apply the same
/// shared 10 x 64 B mutation (refcount bumps, no payload copies) to a key
/// whose row a reader still holds (so each apply pays the copy-on-write).
fn bench_apply_shared_payload(c: &mut Criterion) {
    c.bench_function("engine_apply/shared_payload_rf5_cow", |b| {
        let mut replicas = vec![StorageEngine::default(); 5];
        let mutation = Mutation::ycsb_row(10, 64);
        let mut ts = 0u64;
        b.iter(|| {
            ts += 1;
            for engine in &mut replicas {
                let held = engine.get(KeyId(42));
                engine.apply(black_box(KeyId(42)), &mutation, Timestamp(ts));
                black_box(held);
            }
        })
    });
}

/// Read reconciliation over three replica responses of a 10 x 64 B row:
/// replicas that agree, one newest replica dominating two stale ones, and a
/// true per-column interleaving (the only case that builds a row).
fn bench_row_reconcile(c: &mut Criterion) {
    let row_at = |ts: u64| Arc::new(Mutation::ycsb_row(10, 64).into_row(Timestamp(ts)));
    let updated = |column: &str, ts: u64| {
        let mut row = Row::clone(&row_at(5));
        row.merge_from(&Mutation::single(column, vec![b'u'; 64]).into_row(Timestamp(ts)));
        Arc::new(row)
    };
    let cases = [
        ("agree", [row_at(5), row_at(5), row_at(5)]),
        ("dominated", [row_at(5), row_at(9), row_at(7)]),
        (
            "interleaved",
            [updated("field0", 8), updated("field1", 9), row_at(5)],
        ),
    ];
    for (name, responses) in &cases {
        c.bench_function(format!("row_reconcile/{name}"), |b| {
            b.iter(|| Row::merge_shared(black_box(responses).iter()))
        });
    }
}

fn bench_get(c: &mut Criterion) {
    let engine = loaded_engine(10_000);
    c.bench_function("engine/get_10k_keys", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 10_000;
            black_box(engine.get(KeyId(i as u32)))
        })
    });
}

criterion_group!(
    benches,
    bench_apply,
    bench_apply_shared_payload,
    bench_row_reconcile,
    bench_get
);
criterion_main!(benches);
