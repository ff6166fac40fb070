//! Tables X and XI: decomposing the cross-platform latency anomaly into the
//! `cudaMemcpyHostToDevice` term and per-kernel slowdowns.

use std::path::Path;

use trtsim_core::runtime::ExecutionContext;
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_gpu::timeline::GpuTimeline;
use trtsim_metrics::LatencyCell;
use trtsim_models::ModelId;
use trtsim_profiler::{summarize, write_chrome_trace, KernelSummary};

use crate::support::{table8_options, EngineFarm, TextTable, RUNS};

/// One Table X row: a model's latency with and without the engine-upload
/// memcpy, on NX and AGX, using the same NX-built engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MemcpyRow {
    /// Model.
    pub model: ModelId,
    /// cNX_rNX with memcpy / without memcpy.
    pub nx: [LatencyCell; 2],
    /// cNX_rAGX with memcpy / without memcpy.
    pub agx: [LatencyCell; 2],
}

/// The models the paper examines in Table X.
pub fn table10_models() -> [ModelId; 5] {
    [
        ModelId::Resnet18,
        ModelId::InceptionV4,
        ModelId::Pednet,
        ModelId::Facenet,
        ModelId::Mobilenetv1,
    ]
}

/// Computes Table X.
pub fn run_table10(farm: &EngineFarm) -> Vec<MemcpyRow> {
    let wanted: Vec<_> = table10_models()
        .into_iter()
        .map(|m| (m, Platform::Nx, 0))
        .collect();
    farm.prefetch_zoo(&wanted);
    table10_models()
        .into_iter()
        .map(|model| {
            let engine = farm.zoo(model, Platform::Nx, 0);
            let opts = table8_options(model);
            let measure = |platform: Platform, with_memcpy: bool| {
                let ctx = ExecutionContext::new(&engine, DeviceSpec::pinned_clock(platform));
                let opts = if with_memcpy {
                    opts
                } else {
                    opts.without_engine_upload()
                };
                LatencyCell::from_runs_us(&ctx.measure_latency(&opts, RUNS, model as u64))
            };
            MemcpyRow {
                model,
                nx: [measure(Platform::Nx, true), measure(Platform::Nx, false)],
                agx: [measure(Platform::Agx, true), measure(Platform::Agx, false)],
            }
        })
        .collect()
}

/// Renders Table X.
pub fn render_table10(rows: &[MemcpyRow]) -> String {
    let mut t = TextTable::new(vec![
        "NN Model".into(),
        "cNX_rNX memcpy incl.".into(),
        "cNX_rNX memcpy excl.".into(),
        "cNX_rAGX memcpy incl.".into(),
        "cNX_rAGX memcpy excl.".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.model.to_string(),
            r.nx[0].to_string(),
            r.nx[1].to_string(),
            r.agx[0].to_string(),
            r.agx[1].to_string(),
        ]);
    }
    format!(
        "Table X: run time with CUDA memcpy included and excluded\n{}",
        t.render()
    )
}

/// Builds the timeline behind one Table X cell: the NX-built engine's upload
/// (the plan-sized H2D spike the paper reads out of the visual trace)
/// followed by `runs` back-to-back inferences whose per-frame input copies
/// form the uniform H2D population the spike stands out from. Feed the
/// result to `trtsim_profiler::anomaly::h2d_outliers` to recover the
/// anomaly, or to `trtsim_profiler::chrome_trace` to look at it.
pub fn memcpy_trace_timeline(
    farm: &EngineFarm,
    model: ModelId,
    platform: Platform,
    runs: usize,
) -> GpuTimeline {
    let engine = farm.zoo(model, Platform::Nx, 0);
    let device = DeviceSpec::pinned_clock(platform);
    let ctx = ExecutionContext::new(&engine, device.clone());
    let mut tl = GpuTimeline::new(device);
    let s = tl.create_stream();
    ctx.upload_engine(&mut tl, s);
    let opts = table8_options(model).without_engine_upload();
    for _ in 0..runs {
        ctx.enqueue_inference(&mut tl, s, &opts);
    }
    tl
}

/// Writes [`memcpy_trace_timeline`] as chrome://tracing JSON.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_memcpy_trace(
    farm: &EngineFarm,
    path: impl AsRef<Path>,
    model: ModelId,
    platform: Platform,
    runs: usize,
) -> std::io::Result<()> {
    let tl = memcpy_trace_timeline(farm, model, platform, runs);
    write_chrome_trace(path, &tl, &format!("{model} cNX_r{platform}"))
}

/// One Table XI row: a kernel that runs slower on AGX than on NX.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCompareRow {
    /// Model whose engine contains the kernel.
    pub model: ModelId,
    /// Kernel symbol.
    pub kernel: String,
    /// Total time on NX, ms.
    pub nx_ms: f64,
    /// Total time on AGX, ms.
    pub agx_ms: f64,
}

/// Computes Table XI: per-kernel times of the same NX-built engine on both
/// platforms, reporting kernels slower on AGX.
pub fn run_table11(farm: &EngineFarm, models: &[ModelId]) -> Vec<KernelCompareRow> {
    let wanted: Vec<_> = models.iter().map(|&m| (m, Platform::Nx, 0)).collect();
    farm.prefetch_zoo(&wanted);
    let mut out = Vec::new();
    for &model in models {
        let engine = farm.zoo(model, Platform::Nx, 0);
        let profile = |platform: Platform| -> Vec<KernelSummary> {
            let mut tl = GpuTimeline::new(DeviceSpec::pinned_clock(platform));
            let s = tl.create_stream();
            let ctx = ExecutionContext::new(&engine, DeviceSpec::pinned_clock(platform));
            ctx.enqueue_inference(&mut tl, s, &table8_options(model));
            summarize(&tl).kernels
        };
        let nx = profile(Platform::Nx);
        let agx = profile(Platform::Agx);
        for k_nx in &nx {
            let Some(k_agx) = agx.iter().find(|k| k.name == k_nx.name) else {
                continue;
            };
            if k_agx.total_us > 1.02 * k_nx.total_us {
                out.push(KernelCompareRow {
                    model,
                    kernel: k_nx.name.clone(),
                    nx_ms: k_nx.total_us / 1000.0,
                    agx_ms: k_agx.total_us / 1000.0,
                });
            }
        }
    }
    out
}

/// Renders Table XI.
pub fn render_table11(rows: &[KernelCompareRow]) -> String {
    let mut t = TextTable::new(vec![
        "NN Model".into(),
        "Kernel".into(),
        "cNX_rNX (ms)".into(),
        "cNX_rAGX (ms)".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.model.to_string(),
            r.kernel.clone(),
            format!("{:.2}", r.nx_ms),
            format!("{:.2}", r.agx_ms),
        ]);
    }
    format!(
        "Table XI: kernels running slower on AGX than NX (same NX-built engine)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcpy_excluded_is_faster() {
        let farm = EngineFarm::new();
        let rows = run_table10(&farm);
        for r in &rows {
            assert!(r.nx[1].mean_ms < r.nx[0].mean_ms, "{}", r.model);
            assert!(r.agx[1].mean_ms < r.agx[0].mean_ms, "{}", r.model);
        }
    }

    #[test]
    fn agx_memcpy_term_is_larger() {
        let farm = EngineFarm::new();
        // The engine upload is the same bytes; the AGX path costs more.
        let rows = run_table10(&farm);
        for r in &rows {
            let nx_memcpy = r.nx[0].mean_ms - r.nx[1].mean_ms;
            let agx_memcpy = r.agx[0].mean_ms - r.agx[1].mean_ms;
            assert!(
                agx_memcpy > nx_memcpy * 0.95,
                "{}: {} vs {}",
                r.model,
                agx_memcpy,
                nx_memcpy
            );
        }
    }

    #[test]
    fn some_kernels_slower_on_agx() {
        let farm = EngineFarm::new();
        // The paper's Table XI finds such kernels in pednet/facenet/mobilenet.
        let rows = run_table11(
            &farm,
            &[ModelId::Pednet, ModelId::Facenet, ModelId::Mobilenetv1],
        );
        assert!(
            !rows.is_empty(),
            "no kernel ran slower on AGX — the L2-share mechanism is dead"
        );
        for r in &rows {
            assert!(r.agx_ms > r.nx_ms);
        }
    }

    #[test]
    fn trace_timeline_contains_upload_spike_and_frames() {
        let farm = EngineFarm::new();
        let runs = 8;
        let tl = memcpy_trace_timeline(&farm, ModelId::Resnet18, Platform::Agx, runs);
        // One upload + one input copy per run on the H2D side.
        let h2d: Vec<_> = tl
            .memcpys()
            .iter()
            .filter(|m| m.kind == trtsim_gpu::timeline::CopyKind::HostToDevice)
            .collect();
        assert_eq!(h2d.len(), runs + 1);
        let upload = &h2d[0];
        assert!(
            h2d[1..].iter().all(|m| upload.bytes > m.bytes),
            "plan upload must dwarf per-frame input copies"
        );
    }

    #[test]
    fn tables_render() {
        let farm = EngineFarm::new();
        let s10 = render_table10(&run_table10(&farm)[..1]);
        assert!(s10.contains("memcpy incl."));
        let s11 = render_table11(&run_table11(&farm, &[ModelId::Pednet]));
        assert!(s11.contains("Kernel"));
    }
}
