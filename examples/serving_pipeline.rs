//! Production serving: dynamic batching and backpressure (paper §VI-A).
//!
//! A deployed TensorRT engine rarely runs one frame at a time behind a
//! blocking call — it sits behind a serving layer that batches requests to
//! amortize launch overhead and sheds load when the queue backs up. This
//! example runs [`trtsim::InferenceServer`] over the simulated Xavier NX and
//! shows both effects:
//!
//! 1. a batch-size sweep — aggregate FPS climbs with batch size, and with a
//!    standing backlog (all frames submitted up front) the per-request
//!    latency falls too, since queue wait dominates and batching drains the
//!    queue faster;
//! 2. an overload run — a bounded queue rejects what it cannot absorb, and
//!    `drain()` still completes every accepted frame.
//!
//! ```sh
//! cargo run --release --example serving_pipeline
//! ```

use trtsim::models::ModelId;
use trtsim::{
    Builder, BuilderConfig, DeviceSpec, InferenceServer, ServerConfig, ServingError, TimingOptions,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceSpec::xavier_nx();
    let engine = Builder::new(device.clone(), BuilderConfig::default().with_build_seed(21))
        .build(&ModelId::TinyYolov3.descriptor())?;
    let timing = TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(ModelId::TinyYolov3.info().host_glue_us)
        .with_run_jitter_sd(0.0);

    // --- 1. Dynamic batching: throughput vs tail latency ------------------
    println!("batch | batches |     FPS |  p50 ms |  p99 ms");
    for batch in [1usize, 2, 4, 8] {
        let mut server = InferenceServer::start(
            &engine,
            &device,
            ServerConfig::default()
                .with_workers(4)
                .with_queue_capacity(64)
                .with_max_batch_size(batch)
                .with_batch_timeout_us(f64::INFINITY)
                .with_timing(timing),
        )?;
        for frame in 0..256 {
            server.submit(frame)?;
        }
        let stats = server.drain();
        println!(
            "{batch:>5} | {:>7} | {:>7.0} | {:>7.2} | {:>7.2}",
            stats.batches,
            stats.aggregate_fps,
            stats.latency.p50_us / 1000.0,
            stats.latency.p99_us / 1000.0,
        );
    }

    // --- 2. Backpressure: a bounded queue under overload ------------------
    let mut server = InferenceServer::start(
        &engine,
        &device,
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(8)
            .with_max_batch_size(4)
            .with_batch_timeout_us(f64::INFINITY)
            .with_timing(timing),
    )?;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for frame in 0..4096 {
        match server.try_submit(frame) {
            Ok(()) => accepted += 1,
            Err(ServingError::QueueFull) => rejected += 1,
            Err(e) => return Err(e.into()),
        }
    }
    let stats = server.drain();
    println!();
    println!(
        "overload: {accepted} accepted, {rejected} rejected at admission \
         (queue high-water {})",
        stats.queue_high_water
    );
    println!(
        "drained:  {} completed, mean batch {:.1}, {}",
        stats.completed,
        stats.mean_batch_size(),
        stats.latency
    );
    assert_eq!(stats.completed, accepted);
    Ok(())
}
