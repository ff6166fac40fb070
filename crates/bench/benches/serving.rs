//! Benchmarks of the serving subsystem: submission-path overhead and
//! end-to-end serve runs at different batch sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use trtsim_core::runtime::TimingOptions;
use trtsim_core::serving::{InferenceServer, ServerConfig};
use trtsim_gpu::device::DeviceSpec;
use trtsim_models::ModelId;

fn timing() -> TimingOptions {
    TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(ModelId::TinyYolov3.info().host_glue_us)
        .with_run_jitter_sd(0.0)
}

fn bench_serve_run(c: &mut Criterion) {
    let engine = trtsim_bench::engine_fixture(ModelId::TinyYolov3);
    let device = DeviceSpec::xavier_nx();
    let mut group = c.benchmark_group("serving/serve_128_frames");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
    for batch in [1usize, 8] {
        group.bench_function(format!("batch_{batch}"), |b| {
            b.iter(|| {
                let mut server = InferenceServer::start(
                    &engine,
                    &device,
                    ServerConfig::default()
                        .with_workers(4)
                        .with_queue_capacity(128)
                        .with_max_batch_size(batch)
                        .with_batch_timeout_us(f64::INFINITY)
                        .with_timing(timing()),
                )
                .unwrap();
                for frame in 0..128u64 {
                    server.submit(black_box(frame)).unwrap();
                }
                black_box(server.drain())
            })
        });
    }
    group.finish();
}

fn bench_submission_path(c: &mut Criterion) {
    let engine = trtsim_bench::engine_fixture(ModelId::TinyYolov3);
    let device = DeviceSpec::xavier_nx();
    let mut group = c.benchmark_group("serving/submission");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("try_submit_under_overload", |b| {
        let mut server = InferenceServer::start(
            &engine,
            &device,
            ServerConfig::default()
                .with_workers(1)
                .with_queue_capacity(4)
                .with_max_batch_size(4)
                .with_batch_timeout_us(f64::INFINITY)
                .with_timing(timing()),
        )
        .unwrap();
        let mut frame = 0u64;
        b.iter(|| {
            frame += 1;
            black_box(server.try_submit(black_box(frame)).is_ok())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_serve_run, bench_submission_path);
criterion_main!(benches);
