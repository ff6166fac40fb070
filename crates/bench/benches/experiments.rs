//! End-to-end benchmarks of the paper's experiment harnesses — one bench per
//! reproduced table/figure family, so regressions in any harness are caught.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use trtsim_metrics::Registry;
use trtsim_models::ModelId;
use trtsim_repro::exp_accuracy::AccuracyConfig;
use trtsim_repro::support::EngineFarm;
use trtsim_repro::*;

fn tight<'c>(
    c: &'c mut Criterion,
    name: &'static str,
) -> criterion::BenchmarkGroup<'c, criterion::measurement::WallTime> {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
    group
}

fn bench_size_table(c: &mut Criterion) {
    let farm = EngineFarm::new();
    let mut group = tight(c, "experiments");
    group.bench_function("table2_model_sizes", |b| b.iter(|| exp_sizes::run(&farm)));
    group.finish();
}

fn bench_accuracy(c: &mut Criterion) {
    let config = AccuracyConfig::quick();
    let farm = EngineFarm::new();
    let mut group = tight(c, "experiments-accuracy");
    group.bench_function("table3_benign_accuracy_quick", |b| {
        b.iter(|| exp_accuracy::run_table3(&farm, black_box(&config)))
    });
    group.finish();
}

fn bench_latency_and_concurrency(c: &mut Criterion) {
    let farm = EngineFarm::new();
    let mut group = tight(c, "experiments-latency");
    group.bench_function("table9_latency_two_models", |b| {
        b.iter(|| exp_latency::run_table9(&farm))
    });
    let registry = Registry::new();
    group.bench_function("fig3_fig4_concurrency_scn", |b| {
        b.iter(|| campaign::run_checked_in(campaign::CONCURRENCY_SCN, &farm, &registry))
    });
    group.bench_function("table17_bsp_inception", |b| {
        b.iter(|| exp_bsp::run(&farm, ModelId::InceptionV4, 3))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_size_table,
    bench_accuracy,
    bench_latency_and_concurrency
);
criterion_main!(benches);
