//! Table VII: classification throughput (FPS), optimized vs un-optimized.
//!
//! The un-optimized path executes the framework lowering of every layer
//! (im2col + naive FP32 GEMM per convolution, one kernel per layer, per-layer
//! synchronization and framework glue). The optimized path runs the built
//! engine. Both run at the board-maximum clock; FPS counts inference only
//! ("excluding the time to load the image from the disk", §II-E) so the
//! engine upload is excluded.

use trtsim_core::runtime::{ExecutionContext, TimingOptions};
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_gpu::timeline::GpuTimeline;
use trtsim_ir::flops::graph_costs;
use trtsim_kernels::generic::{framework_kernels, FRAMEWORK_LAYER_GLUE_US};
use trtsim_metrics::fps_from_latency_us;
use trtsim_models::ModelId;

use crate::support::{EngineFarm, TextTable};

/// One Table VII row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpsRow {
    /// Model.
    pub model: ModelId,
    /// Un-optimized FPS on NX / AGX.
    pub unoptimized: [f64; 2],
    /// TensorRT FPS on NX / AGX.
    pub tensorrt: [f64; 2],
}

impl FpsRow {
    /// Speedup factors NX / AGX.
    pub fn gain(&self) -> [f64; 2] {
        [
            self.tensorrt[0] / self.unoptimized[0],
            self.tensorrt[1] / self.unoptimized[1],
        ]
    }
}

/// The computed table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table7 {
    /// One row per classification model (paper shows three; we cover five).
    pub rows: Vec<FpsRow>,
}

/// Simulated latency of the un-optimized framework path, µs.
pub fn unoptimized_latency_us(model: ModelId, device: &DeviceSpec) -> f64 {
    let graph = model.descriptor();
    let costs = graph_costs(&graph).expect("zoo models are valid");
    let shapes = graph.infer_shapes().expect("zoo models are valid");
    let mut timeline = GpuTimeline::new(device.clone());
    let stream = timeline.create_stream();
    for node in graph.nodes() {
        let kernels = framework_kernels(&node.kind, &costs[node.id], shapes[node.id]);
        if kernels.is_empty() {
            continue;
        }
        for k in kernels {
            timeline.enqueue_kernel(stream, &k);
        }
        // Frameworks synchronize and dispatch per layer.
        timeline.host_gap(stream, FRAMEWORK_LAYER_GLUE_US);
    }
    timeline.sync(stream)
}

/// Simulated latency of the optimized engine, µs (engine resident, upload
/// excluded).
pub fn optimized_latency_us(farm: &EngineFarm, model: ModelId, platform: Platform) -> f64 {
    let engine = farm.zoo(model, platform, 0);
    let device = DeviceSpec::max_clock(platform);
    let ctx = ExecutionContext::new(&engine, device);
    let opts = TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(model.info().host_glue_us)
        .with_run_jitter_sd(0.0);
    ctx.measure_latency(&opts, 1, 0)[0]
}

/// Computes the table for the classification models.
pub fn run(farm: &EngineFarm) -> Table7 {
    let wanted: Vec<_> = ModelId::classification_models()
        .into_iter()
        .flat_map(|m| [(m, Platform::Nx, 0), (m, Platform::Agx, 0)])
        .collect();
    farm.prefetch_zoo(&wanted);
    let rows = ModelId::classification_models()
        .into_iter()
        .map(|model| {
            let unopt = Platform::all().map(|p| {
                fps_from_latency_us(unoptimized_latency_us(model, &DeviceSpec::max_clock(p)))
            });
            let trt =
                Platform::all().map(|p| fps_from_latency_us(optimized_latency_us(farm, model, p)));
            FpsRow {
                model,
                unoptimized: unopt,
                tensorrt: trt,
            }
        })
        .collect();
    Table7 { rows }
}

impl Table7 {
    /// Renders in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "NN Model".into(),
            "NX-Unoptimized".into(),
            "NX-TensorRT".into(),
            "AGX-Unoptimized".into(),
            "AGX-TensorRT".into(),
            "Gain NX".into(),
            "Gain AGX".into(),
        ]);
        for r in &self.rows {
            let g = r.gain();
            t.row(vec![
                r.model.to_string(),
                format!("{:.2}", r.unoptimized[0]),
                format!("{:.1}", r.tensorrt[0]),
                format!("{:.2}", r.unoptimized[1]),
                format!("{:.1}", r.tensorrt[1]),
                format!("{:.1}x", g[0]),
                format!("{:.1}x", g[1]),
            ]);
        }
        format!(
            "Table VII: FPS for TensorRT optimized and un-optimized engines\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_gain_in_paper_regime() {
        // Paper: ~27x on NX, ~23x on AGX (average over the three models).
        let table = run(&EngineFarm::new());
        let mean_gain_nx: f64 =
            table.rows.iter().map(|r| r.gain()[0]).sum::<f64>() / table.rows.len() as f64;
        assert!(
            (10.0..60.0).contains(&mean_gain_nx),
            "mean NX gain {mean_gain_nx:.1} outside the paper's order of magnitude"
        );
    }

    #[test]
    fn optimized_fps_ordering_matches_model_weight() {
        // VGG-16 is the heaviest classifier: lowest TensorRT FPS (paper: 49
        // vs 190/227).
        let table = run(&EngineFarm::new());
        let fps = |m: ModelId| {
            table
                .rows
                .iter()
                .find(|r| r.model == m)
                .map(|r| r.tensorrt[0])
                .unwrap()
        };
        assert!(fps(ModelId::Vgg16) < fps(ModelId::Alexnet));
        assert!(fps(ModelId::Vgg16) < fps(ModelId::Resnet18));
    }

    #[test]
    fn unoptimized_is_single_digit_fps() {
        // Paper: 0.66–14.2 FPS un-optimized.
        let table = run(&EngineFarm::new());
        for r in &table.rows {
            assert!(r.unoptimized[0] < 40.0, "{}: {}", r.model, r.unoptimized[0]);
            assert!(r.unoptimized[0] > 0.05);
        }
    }
}
