//! Serving extension (§VI-A deployment pattern): dynamic-batching sweep.
//!
//! Not a paper table — the paper serves one frame per thread per call — but
//! the natural production follow-up to Figures 3/4: hold the worker count
//! fixed and sweep the dynamic batcher's maximum batch size, reporting
//! aggregate FPS, GR3D utilization, and the per-request latency tail. Launch
//! overhead and host glue amortize across a batch, so FPS climbs with batch
//! size — and since the sweep submits its whole backlog up front, queue wait
//! dominates latency and the tail shrinks along with it.

use trtsim_core::runtime::TimingOptions;
use trtsim_core::serving::{InferenceServer, ServerConfig};
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_metrics::{LatencyPercentiles, Registry};
use trtsim_models::ModelId;

use crate::support::{EngineFarm, TextTable};

/// One batch-size setting's serving outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPoint {
    /// Dynamic batcher's maximum batch size.
    pub max_batch_size: usize,
    /// Batched enqueues issued.
    pub batches: u64,
    /// Aggregate throughput, frames per simulated second.
    pub fps: f64,
    /// Mean GR3D utilization, percent.
    pub gr3d_percent: f64,
    /// Per-request latency tail.
    pub latency: LatencyPercentiles,
}

/// The sweep for one (model, platform).
#[derive(Debug, Clone, PartialEq)]
pub struct ServingSweep {
    /// Model under test.
    pub model: ModelId,
    /// Platform.
    pub platform: Platform,
    /// Worker (stream) count, fixed across the sweep.
    pub workers: usize,
    /// Frames served per point.
    pub frames: u64,
    /// One point per batch size, ascending.
    pub points: Vec<ServingPoint>,
}

impl ServingSweep {
    /// FPS gain of the largest batch over unbatched serving.
    pub fn batching_speedup(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) if first.fps > 0.0 => last.fps / first.fps,
            _ => 0.0,
        }
    }
}

/// Sweeps batch sizes 1, 2, 4, 8 at the board-maximum clock with 4 workers
/// and full-batch (deterministic) coalescing. Each point's server
/// registry is absorbed into `registry`.
pub fn run(model: ModelId, platform: Platform, registry: &Registry) -> ServingSweep {
    let workers = 4usize;
    let frames = 256u64;
    let engine = EngineFarm::global().zoo(model, platform, 0);
    let device = DeviceSpec::max_clock(platform);
    let timing = TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(model.info().host_glue_us)
        .with_run_jitter_sd(0.0);
    let points = [1usize, 2, 4, 8]
        .into_iter()
        .map(|max_batch_size| {
            let server = InferenceServer::start(
                &engine,
                &device,
                ServerConfig::default()
                    .with_workers(workers)
                    .with_queue_capacity(frames as usize)
                    .with_max_batch_size(max_batch_size)
                    .with_batch_timeout_us(f64::INFINITY)
                    .with_timing(timing),
            )
            .expect("valid config");
            for frame in 0..frames {
                server.submit(frame).expect("server accepting");
            }
            let server_registry = server.registry();
            let stats = server.drain();
            registry.absorb(&server_registry);
            ServingPoint {
                max_batch_size,
                batches: stats.batches,
                fps: stats.aggregate_fps,
                gr3d_percent: stats.gr3d_percent,
                latency: stats.latency,
            }
        })
        .collect();
    ServingSweep {
        model,
        platform,
        workers,
        frames,
        points,
    }
}

/// Renders the sweep as a text table.
pub fn render(sweep: &ServingSweep) -> String {
    let mut t = TextTable::new(vec![
        "batch".into(),
        "batches".into(),
        "FPS".into(),
        "GR3D (%)".into(),
        "p50 (ms)".into(),
        "p99 (ms)".into(),
    ]);
    for p in &sweep.points {
        t.row(vec![
            p.max_batch_size.to_string(),
            p.batches.to_string(),
            format!("{:.1}", p.fps),
            format!("{:.1}", p.gr3d_percent),
            format!("{:.2}", p.latency.p50_us / 1000.0),
            format!("{:.2}", p.latency.p99_us / 1000.0),
        ]);
    }
    format!(
        "{} on {} — {} workers, {} frames: batching speedup {:.2}x\n{}",
        sweep.model,
        sweep.platform,
        sweep.workers,
        sweep.frames,
        sweep.batching_speedup(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_strictly_improves_fps() {
        let sweep = run(ModelId::TinyYolov3, Platform::Nx, &Registry::new());
        assert_eq!(sweep.points.len(), 4);
        let fps: Vec<f64> = sweep.points.iter().map(|p| p.fps).collect();
        assert!(
            fps.windows(2).all(|w| w[1] > w[0]),
            "FPS not increasing with batch size: {fps:?}"
        );
        assert!(sweep.batching_speedup() > 1.0);
    }

    #[test]
    fn every_point_serves_all_frames() {
        let registry = Registry::new();
        let sweep = run(ModelId::Googlenet, Platform::Agx, &registry);
        // Every point's server folds its final counts into the registry.
        let completed = registry.counter(
            "trtsim_server_completed_total",
            "",
            &[("model", ModelId::Googlenet.info().name)],
        );
        assert_eq!(completed.get(), sweep.frames * sweep.points.len() as u64);
        for p in &sweep.points {
            assert_eq!(
                p.latency.count as u64, sweep.frames,
                "batch {}",
                p.max_batch_size
            );
            assert!(p.gr3d_percent > 0.0 && p.gr3d_percent <= 100.0);
            assert!(p.latency.p99_us >= p.latency.p50_us);
        }
    }

    #[test]
    fn renders_table() {
        let sweep = run(ModelId::TinyYolov3, Platform::Nx, &Registry::new());
        let s = render(&sweep);
        assert!(s.contains("batch") && s.contains("p99"));
        assert_eq!(s.lines().count(), sweep.points.len() + 3);
    }
}
