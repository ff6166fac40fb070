//! Intelligent traffic-intersection control (paper §VI-A).
//!
//! An intersection controller feeds many camera streams into one edge board:
//! the same fine-tuned detector runs on every stream via CUDA streams in a
//! shared context. This example sizes that deployment: how many cameras can
//! one NX or AGX carry for Tiny-YOLOv3, what throughput and GPU utilization
//! to expect, and how the detection-metric pipeline (IoU-0.75
//! precision/recall, §II-E) evaluates a detector on traffic scenes.
//!
//! ```sh
//! cargo run --release --example traffic_intersection
//! ```

use trtsim::data::traffic::{BBox, TrafficDataset};
use trtsim::gpu::contention::sweep;
use trtsim::gpu::device::Platform;
use trtsim::metrics::detection::{precision_recall, DetectionEval};
use trtsim::models::decode::{decode_yolo_grid, nms, tiny_yolov3_anchors};
use trtsim::models::ModelId;
use trtsim::util::rng::Pcg32;
use trtsim::{
    Builder, BuilderConfig, DeviceSpec, ExecutionContext, InferenceServer, ServerConfig,
    TimingOptions,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Capacity planning: how many cameras per board? -------------------
    for platform in Platform::all() {
        let device = DeviceSpec::max_clock(platform);
        let engine = Builder::new(device.clone(), BuilderConfig::default())
            .build(&ModelId::TinyYolov3.descriptor())?;
        let ctx = ExecutionContext::new(&engine, device.clone());
        let profile = ctx.profile(ModelId::TinyYolov3.info().host_glue_us);
        let (points, bound) = sweep(&profile, &device);
        let last = points.last().expect("at least one thread");
        println!(
            "{platform}: up to {} camera streams ({bound:?}-bound), {:.0} FPS aggregate, {:.0}% GPU",
            last.threads,
            last.fps,
            last.utilization * 100.0
        );
    }

    // --- Serve 8 camera feeds, one worker stream each -----------------------
    let device = DeviceSpec::max_clock(Platform::Nx);
    let engine = Builder::new(device.clone(), BuilderConfig::default().with_build_seed(8))
        .build(&ModelId::TinyYolov3.descriptor())?;
    let opts = TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(ModelId::TinyYolov3.info().host_glue_us);
    // One frame per camera thread per call: no batching, blocking admission.
    let mut server = InferenceServer::start(
        &engine,
        &device,
        ServerConfig::default()
            .with_workers(8)
            .with_queue_capacity(16)
            .with_max_batch_size(1)
            .with_timing(opts),
    )?;
    for frame in 0..256 {
        server.submit(frame)?;
    }
    let stats = server.drain();
    println!(
        "served {} frames on {} camera threads: {:.0} FPS aggregate, GR3D {:.0}%",
        stats.completed, stats.workers, stats.aggregate_fps, stats.gr3d_percent
    );

    // --- Decode the detector's raw output grids ---------------------------
    // (Zoo weights are synthetic, so decoded boxes are arbitrary — this shows
    // the post-processing path an application runs per frame.)
    let ctx = ExecutionContext::new(&engine, device.clone());
    let frame = trtsim::ir::Tensor::zeros([3, 416, 416]);
    let outputs = ctx.infer(&frame)?;
    let anchors = tiny_yolov3_anchors();
    let mut detections = Vec::new();
    for (grid, anchor_set) in outputs.iter().zip(anchors.iter()) {
        detections.extend(decode_yolo_grid(grid, anchor_set, 80, 416, 0.5));
    }
    let detections = nms(detections, 0.45);
    println!("decoded {} candidate boxes after NMS", detections.len());

    // --- Detection quality on traffic scenes ------------------------------
    // A deployed detector's boxes are the ground truth perturbed by
    // localization noise; sweeping the noise shows how IoU-0.75
    // precision/recall (the paper's metric) punishes loose boxes.
    let dataset = TrafficDataset::new([3, 64, 96], 7);
    let scenes = dataset.test_set(200);
    for (label, jitter, miss_rate) in [
        ("well-tuned detector ", 0.4, 0.02),
        ("loose detector      ", 1.6, 0.10),
    ] {
        let mut rng = Pcg32::seed_from_u64(11);
        let mut eval = DetectionEval::default();
        for scene in &scenes {
            let mut predictions: Vec<BBox> = Vec::new();
            for b in &scene.boxes {
                if rng.chance(miss_rate) {
                    continue;
                }
                predictions.push(BBox {
                    x: b.x + jitter * rng.normal() as f32,
                    y: b.y + jitter * rng.normal() as f32,
                    w: (b.w + jitter * rng.normal() as f32).max(1.0),
                    h: (b.h + jitter * rng.normal() as f32).max(1.0),
                    class: b.class,
                });
            }
            eval.merge(&precision_recall(&predictions, &scene.boxes, 0.75));
        }
        println!(
            "{label} IoU-0.75 precision {:.3}, recall {:.3}",
            eval.precision(),
            eval.recall()
        );
    }
    Ok(())
}
