//! Integration tests of the serving subsystem through the `trtsim` facade:
//! backpressure, dynamic-batching throughput, determinism under a pinned
//! build seed, and latency-metric invariants.

use proptest::prelude::*;
use trtsim::models::ModelId;
use trtsim::{
    Builder, BuilderConfig, DeviceSpec, InferenceServer, ServerConfig, ServerStats, ServingError,
    TimingOptions,
};

fn engine() -> trtsim::Engine {
    Builder::new(
        DeviceSpec::xavier_nx(),
        BuilderConfig::default().with_build_seed(0x5e11),
    )
    .build(&ModelId::TinyYolov3.descriptor())
    .expect("zoo model builds")
}

fn timing() -> TimingOptions {
    TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(ModelId::TinyYolov3.info().host_glue_us)
        .with_run_jitter_sd(0.0)
}

fn serve_all(engine: &trtsim::Engine, config: ServerConfig, frames: u64) -> ServerStats {
    let server = InferenceServer::start(engine, &DeviceSpec::xavier_nx(), config).expect("start");
    for frame in 0..frames {
        server.submit(frame).expect("accepting");
    }
    server.drain()
}

#[test]
fn full_queue_rejects_and_drain_completes_all_accepted() {
    let engine = engine();
    let server = InferenceServer::start(
        &engine,
        &DeviceSpec::xavier_nx(),
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(4)
            .with_max_batch_size(4)
            .with_batch_timeout_us(f64::INFINITY)
            .with_timing(timing()),
    )
    .expect("start");
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for frame in 0..8192 {
        match server.try_submit(frame) {
            Ok(()) => accepted += 1,
            Err(ServingError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    // All 8192 frames arrive at t = 0. Every four fill a batch that goes
    // straight to a free stream, so the two streams take frames 0-7; frames
    // 8-11 then fill the 4-deep queue and everything after is refused:
    // accepted = 2 workers x 4 + 4 queued = 12, rejected = 8192 - 12.
    assert_eq!((accepted, rejected), (12, 8180));
    let stats = server.drain();
    assert_eq!(stats.accepted, accepted);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(
        stats.completed, accepted,
        "drain must finish every accepted frame"
    );
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.completions.len() as u64, accepted);
    assert_eq!(stats.queue_high_water, 4);
}

#[test]
fn batching_beats_unbatched_at_equal_thread_count() {
    let engine = engine();
    let config = ServerConfig::default()
        .with_workers(4)
        .with_queue_capacity(128)
        .with_batch_timeout_us(f64::INFINITY)
        .with_timing(timing());
    let unbatched = serve_all(&engine, config.with_max_batch_size(1), 128);
    let batched = serve_all(&engine, config.with_max_batch_size(8), 128);
    assert_eq!(unbatched.completed, 128);
    assert_eq!(batched.completed, 128);
    assert!(
        batched.aggregate_fps > unbatched.aggregate_fps,
        "batch 8 must beat batch 1: {} vs {} FPS",
        batched.aggregate_fps,
        unbatched.aggregate_fps
    );
    assert_eq!(batched.batches, 16);
    assert!(batched.mean_batch_size() > unbatched.mean_batch_size());
}

#[test]
fn serving_is_deterministic_under_pinned_build_seed() {
    let engine = engine();
    let run = || {
        serve_all(
            &engine,
            ServerConfig::default()
                .with_workers(3)
                .with_queue_capacity(96)
                .with_max_batch_size(4)
                .with_batch_timeout_us(f64::INFINITY)
                .with_arrival_period_us(100.0)
                .with_timing(timing()),
            96,
        )
    };
    let a = run();
    let b = run();
    // The event loop is a pure function of its inputs, so every
    // simulated-time metric agrees bit-for-bit across runs.
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.simulated_seconds, b.simulated_seconds);
    assert_eq!(a.aggregate_fps, b.aggregate_fps);
    assert_eq!(a.gr3d_percent, b.gr3d_percent);
    assert_eq!(a.batch_size_counts, b.batch_size_counts);
    assert_eq!(a.frames_per_worker, b.frames_per_worker);
    let sorted = |stats: &ServerStats| {
        let mut c = stats.completions.clone();
        c.sort_by_key(|r| r.frame);
        c
    };
    assert_eq!(sorted(&a), sorted(&b));
}

#[test]
fn latency_percentiles_hold_their_invariants() {
    let engine = engine();
    let stats = serve_all(
        &engine,
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(64)
            .with_max_batch_size(4)
            .with_batch_timeout_us(f64::INFINITY)
            .with_timing(timing()),
        64,
    );
    let lat = stats.latency;
    assert_eq!(lat.count as u64, stats.completed);
    assert!(lat.p50_us > 0.0, "p50 must be non-degenerate");
    assert!(lat.p90_us >= lat.p50_us);
    assert!(lat.p99_us >= lat.p90_us);
    assert!(lat.max_us >= lat.p99_us);
    assert!(
        lat.p99_us > lat.p50_us,
        "tail must spread: queueing delays later frames"
    );
}

#[test]
fn drain_on_never_submitted_server_returns_zeroed_stats() {
    let engine = engine();
    let server = InferenceServer::start(
        &engine,
        &DeviceSpec::xavier_nx(),
        ServerConfig::default()
            .with_workers(2)
            .with_timing(timing()),
    )
    .expect("start");
    // No submission path panics: the latency summary must cope with zero
    // samples instead of tripping percentile_sorted on an empty slice.
    let stats = server.drain();
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.batches, 0);
    assert_eq!(stats.queue_high_water, 0);
    assert_eq!(stats.latency.count, 0);
    assert!(stats.completions.is_empty());
    assert_eq!(stats.aggregate_fps, 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batch coalescing must never reorder a stream's frames: within each
    /// worker, frames complete in submission order at non-decreasing
    /// simulated times, and every accepted frame completes exactly once.
    #[test]
    fn coalescing_never_reorders_a_streams_frames(
        workers in 1usize..4,
        max_batch in 1usize..6,
        frames in 8u64..48,
    ) {
        let engine = engine();
        let stats = serve_all(
            &engine,
            ServerConfig::default()
                .with_workers(workers)
                .with_queue_capacity(frames as usize)
                .with_max_batch_size(max_batch)
                .with_batch_timeout_us(f64::INFINITY)
                .with_timing(timing()),
            frames,
        );
        prop_assert_eq!(stats.completed, frames);
        let mut seen: Vec<u64> = stats.completions.iter().map(|r| r.frame).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..frames).collect::<Vec<u64>>());
        for worker in 0..workers {
            let per_stream: Vec<_> = stats
                .completions
                .iter()
                .filter(|r| r.worker == worker)
                .collect();
            for pair in per_stream.windows(2) {
                prop_assert!(
                    pair[1].frame > pair[0].frame,
                    "worker {} served frame {} after frame {}",
                    worker, pair[1].frame, pair[0].frame
                );
                prop_assert!(pair[1].done_us >= pair[0].done_us);
            }
        }
    }

    /// Frame conservation under abort: whatever state the loop is cut off
    /// in (tiny queues force rejects, blocking submits leave different
    /// amounts queued and in service), every accepted frame is either
    /// completed or counted dropped — never lost, never duplicated.
    #[test]
    fn abort_conserves_every_accepted_frame(
        workers in 1usize..4,
        queue_capacity in 1usize..16,
        max_batch in 1usize..6,
        frames in 1u64..200,
        blocking_every in 1u64..5,
    ) {
        let engine = engine();
        let server = InferenceServer::start(
            &engine,
            &DeviceSpec::xavier_nx(),
            ServerConfig::default()
                .with_workers(workers)
                .with_queue_capacity(queue_capacity)
                .with_max_batch_size(max_batch)
                .with_batch_timeout_us(0.0)
                .with_timing(timing()),
        )
        .expect("start");
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for frame in 0..frames {
            // Mix blocking and non-blocking submission so runs abort with
            // the pipeline in different states: queue full, queue empty,
            // batches mid-flight.
            if frame % blocking_every == 0 {
                server.submit(frame).expect("accepting");
                accepted += 1;
            } else {
                match server.try_submit(frame) {
                    Ok(()) => accepted += 1,
                    Err(ServingError::QueueFull) => rejected += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        let stats = server.abort();
        prop_assert_eq!(stats.accepted, accepted);
        prop_assert_eq!(stats.rejected, rejected);
        prop_assert!(
            stats.completed + stats.dropped == stats.accepted,
            "accepted frames leaked: {} completed + {} dropped != {} accepted",
            stats.completed, stats.dropped, stats.accepted
        );
        prop_assert_eq!(stats.completions.len() as u64, stats.completed);
        let mut seen: Vec<u64> = stats.completions.iter().map(|r| r.frame).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert!(
            seen.len() as u64 == stats.completed,
            "a frame completed twice ({} unique of {})",
            seen.len(), stats.completed
        );
    }
}
