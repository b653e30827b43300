//! Criterion microbenchmarks for the estimation model: the closed-form
//! probability (Eq. 6), the replica-count computation (Eq. 8), and the
//! numerical evaluation of the pre-simplification series (Eq. 2) used to
//! validate the closed form (see "Microbenchmarks" in `EXPERIMENTS.md`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use harmony_model::decision::decide;
use harmony_model::staleness::{PropagationModel, StaleReadModel};

fn bench_closed_form(c: &mut Criterion) {
    let model = StaleReadModel::new(5);
    c.bench_function("model/stale_probability_closed_form", |b| {
        b.iter(|| {
            model.stale_probability(black_box(2_000.0), black_box(1_500.0), black_box(0.0015))
        })
    });
}

fn bench_required_replicas(c: &mut Criterion) {
    let model = StaleReadModel::new(5);
    c.bench_function("model/required_replicas", |b| {
        b.iter(|| {
            model.required_replicas(
                black_box(0.2),
                black_box(2_000.0),
                black_box(1_500.0),
                black_box(0.0015),
            )
        })
    });
}

fn bench_decision(c: &mut Criterion) {
    let model = StaleReadModel::new(5);
    c.bench_function("model/decision_scheme", |b| {
        b.iter(|| {
            decide(
                &model,
                black_box(0.2),
                black_box(2_000.0),
                black_box(1_500.0),
                black_box(0.0015),
            )
        })
    });
}

fn bench_numeric_series(c: &mut Criterion) {
    let model = StaleReadModel::new(5);
    c.bench_function("model/stale_probability_numeric_series", |b| {
        b.iter(|| {
            model.stale_probability_numeric(
                black_box(200.0),
                black_box(100.0),
                black_box(0.0005),
                black_box(30),
            )
        })
    });
}

fn bench_propagation_model(c: &mut Criterion) {
    let p = PropagationModel::default();
    c.bench_function("model/propagation_time", |b| {
        b.iter(|| p.propagation_time_secs(black_box(1.2), black_box(1024.0)))
    });
}

criterion_group!(
    benches,
    bench_closed_form,
    bench_required_replicas,
    bench_decision,
    bench_numeric_series,
    bench_propagation_model
);
criterion_main!(benches);
