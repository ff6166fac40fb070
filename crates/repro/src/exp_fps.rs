//! Table VII: classification throughput (FPS), optimized vs un-optimized.
//!
//! The un-optimized path executes the framework lowering of every layer
//! (im2col + naive FP32 GEMM per convolution, one kernel per layer, per-layer
//! synchronization and framework glue). The optimized path runs the built
//! engine. Both run at the board-maximum clock; FPS counts inference only
//! ("excluding the time to load the image from the disk", §II-E) so the
//! engine upload is excluded.
//!
//! The experiment is `scenarios/table7_fps.scn`, run by the scenario
//! driver; this module supplies the un-optimized latency its
//! `compare_unoptimized` traffic needs and renders the table from its report.

use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_gpu::timeline::GpuTimeline;
use trtsim_ir::flops::graph_costs;
use trtsim_kernels::generic::{framework_kernels, FRAMEWORK_LAYER_GLUE_US};
use trtsim_models::ModelId;

use crate::scenario::ScenarioReport;
use crate::support::TextTable;

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

/// Renders Table VII from a report of `scenarios/table7_fps.scn`: one row
/// per NX unit, in plan order, beside its network's AGX unit.
///
/// # Panics
///
/// Panics if a network lacks a latency unit with `compare_unoptimized` on
/// either platform.
pub fn render(report: &ScenarioReport) -> String {
    let mut t = TextTable::new(vec![
        "NN Model".into(),
        "NX-Unoptimized".into(),
        "NX-TensorRT".into(),
        "AGX-Unoptimized".into(),
        "AGX-TensorRT".into(),
        "Gain NX".into(),
        "Gain AGX".into(),
    ]);
    let nx_units = report
        .units
        .iter()
        .filter(|u| u.plan.device.platform == Platform::Nx);
    for model in nx_units.map(|u| u.plan.network) {
        let [nx, agx] = Platform::all().map(|p| {
            let unit = report
                .unit(model, p)
                .expect("a Table VII unit per platform");
            ["unoptimized_fps", "fps", "gain"].map(|key| {
                unit.metric(key)
                    .expect("Table VII units compare against the un-optimized path")
            })
        });
        t.row(vec![
            model.to_string(),
            format!("{:.2}", nx[0]),
            format!("{:.1}", nx[1]),
            format!("{:.2}", agx[0]),
            format!("{:.1}", agx[1]),
            format!("{:.1}x", nx[2]),
            format!("{:.1}x", agx[2]),
        ]);
    }
    format!(
        "Table VII: FPS for TensorRT optimized and un-optimized engines\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use trtsim_gpu::device::Platform;
    use trtsim_models::ModelId;

    use crate::campaign::{run_checked_in, TABLE7_SCN};

    #[test]
    fn table7_has_the_papers_shape() {
        let report = run_checked_in(TABLE7_SCN, &Default::default(), &Default::default());
        let nx = |m: ModelId, key: &str| report.unit(m, Platform::Nx).unwrap().metric(key).unwrap();
        let models = ModelId::classification_models();
        let nx_units = report
            .units
            .iter()
            .filter(|u| u.plan.device.platform == Platform::Nx);
        assert!(nx_units.map(|u| u.plan.network).eq(models));
        // Paper: ~27x on NX, ~23x on AGX (average over the three models).
        let mean_gain_nx = models.iter().map(|&m| nx(m, "gain")).sum::<f64>() / models.len() as f64;
        assert!(
            (10.0..60.0).contains(&mean_gain_nx),
            "mean NX gain {mean_gain_nx:.1} outside the paper's order of magnitude"
        );
        // VGG-16 is the heaviest classifier: lowest TensorRT FPS (paper: 49
        // vs 190/227).
        assert!(nx(ModelId::Vgg16, "fps") < nx(ModelId::Alexnet, "fps"));
        assert!(nx(ModelId::Vgg16, "fps") < nx(ModelId::Resnet18, "fps"));
        // Paper: 0.66–14.2 FPS un-optimized.
        for model in models {
            let unoptimized = nx(model, "unoptimized_fps");
            assert!(
                unoptimized < 40.0 && unoptimized > 0.05,
                "{model}: {unoptimized}"
            );
        }
    }
}
