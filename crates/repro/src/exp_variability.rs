//! Tables XII and XIII: build-to-build engine variability on one platform.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use trtsim_core::runtime::ExecutionContext;
use trtsim_core::Engine;
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_gpu::timeline::GpuTimeline;
use trtsim_metrics::LatencyCell;
use trtsim_models::ModelId;
use trtsim_profiler::chrome_trace_json_multi;

use crate::support::{table8_options, EngineFarm, TextTable, RUNS};

/// Engines the paper builds per platform for variability studies.
pub const ENGINES_PER_PLATFORM: u64 = 3;

/// One Table XII row: three engines of one model, built and run on AGX.
#[derive(Debug, Clone, PartialEq)]
pub struct VariabilityRow {
    /// Model.
    pub model: ModelId,
    /// Latency of engines 1-3.
    pub engines: [LatencyCell; 3],
}

impl VariabilityRow {
    /// Spread between slowest and fastest engine, percent of the fastest.
    pub fn spread_percent(&self) -> f64 {
        let means: Vec<f64> = self.engines.iter().map(|c| c.mean_ms).collect();
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = means.iter().cloned().fold(0.0, f64::max);
        100.0 * (max - min) / min
    }
}

/// Computes Table XII for the given models (paper: all 13 on AGX).
pub fn run_table12(farm: &EngineFarm, models: &[ModelId]) -> Vec<VariabilityRow> {
    let wanted: Vec<_> = models
        .iter()
        .flat_map(|&m| (0..ENGINES_PER_PLATFORM).map(move |i| (m, Platform::Agx, i)))
        .collect();
    farm.prefetch_zoo(&wanted);
    models
        .iter()
        .map(|&model| {
            let opts = table8_options(model);
            let cells: Vec<LatencyCell> = (0..ENGINES_PER_PLATFORM)
                .map(|i| {
                    let engine = farm.zoo(model, Platform::Agx, i);
                    let ctx =
                        ExecutionContext::new(&engine, DeviceSpec::pinned_clock(Platform::Agx));
                    LatencyCell::from_runs_us(&ctx.measure_latency(&opts, RUNS, i))
                })
                .collect();
            VariabilityRow {
                model,
                engines: cells.try_into().expect("three engines"),
            }
        })
        .collect()
}

/// Renders Table XII.
pub fn render_table12(rows: &[VariabilityRow]) -> String {
    let mut t = TextTable::new(vec![
        "NN Model".into(),
        "Engine1".into(),
        "Engine2".into(),
        "Engine3".into(),
        "Spread".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.model.to_string(),
            r.engines[0].to_string(),
            r.engines[1].to_string(),
            r.engines[2].to_string(),
            format!("{:.1}%", r.spread_percent()),
        ]);
    }
    format!(
        "Table XII: run time of different TensorRT engines of the same model (AGX)\n{}",
        t.render()
    )
}

/// Table XIII: how often each kernel symbol is invoked by each engine build.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationTable {
    /// Model studied.
    pub model: ModelId,
    /// kernel symbol → invocation count per engine (index = build).
    pub counts: BTreeMap<String, Vec<usize>>,
}

impl InvocationTable {
    /// Kernel symbols whose invocation count differs across builds — the
    /// paper's "9, 8 and 6 calls" observation.
    pub fn varying_kernels(&self) -> Vec<&str> {
        self.counts
            .iter()
            .filter(|(_, v)| v.iter().any(|&c| c != v[0]))
            .map(|(k, _)| k.as_str())
            .collect()
    }
}

/// Computes Table XIII for one model on AGX.
pub fn run_table13(farm: &EngineFarm, model: ModelId) -> InvocationTable {
    let wanted: Vec<_> = (0..ENGINES_PER_PLATFORM)
        .map(|i| (model, Platform::Agx, i))
        .collect();
    farm.prefetch_zoo(&wanted);
    let engines: Vec<Arc<Engine>> = (0..ENGINES_PER_PLATFORM)
        .map(|i| farm.zoo(model, Platform::Agx, i))
        .collect();
    let mut counts: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, engine) in engines.iter().enumerate() {
        for (name, n) in engine.kernel_invocations() {
            counts.entry(name).or_insert_with(|| vec![0; engines.len()])[i] = n;
        }
    }
    InvocationTable { model, counts }
}

/// Renders Table XIII (kernels with differing counts first).
pub fn render_table13(table: &InvocationTable) -> String {
    let mut t = TextTable::new(vec![
        "Kernel".into(),
        "Engine1 calls".into(),
        "Engine2 calls".into(),
        "Engine3 calls".into(),
    ]);
    let mut entries: Vec<(&String, &Vec<usize>)> = table.counts.iter().collect();
    entries.sort_by_key(|(name, v)| (v.iter().all(|&c| c == v[0]), (*name).clone()));
    for (name, v) in entries {
        t.row(
            std::iter::once(name.clone())
                .chain(v.iter().map(|c| c.to_string()))
                .collect(),
        );
    }
    format!(
        "Table XIII: kernel invocation counts across three {} engines (AGX)\n{}",
        table.model,
        t.render()
    )
}

/// Builds one timeline per engine build of `model` on AGX — the Table
/// XII/XIII subjects as traces. Each timeline holds `runs` inferences of one
/// build; feed a pair to `trtsim_profiler::anomaly::kernel_set_diff` to
/// recover the build-to-build kernel drift, or all of them to
/// [`write_variability_trace`] to view the builds side by side.
pub fn variability_trace_timelines(
    farm: &EngineFarm,
    model: ModelId,
    runs: usize,
) -> Vec<GpuTimeline> {
    let opts = table8_options(model).without_engine_upload();
    (0..ENGINES_PER_PLATFORM)
        .map(|i| {
            let engine = farm.zoo(model, Platform::Agx, i);
            let device = DeviceSpec::pinned_clock(Platform::Agx);
            let ctx = ExecutionContext::new(&engine, device.clone());
            let mut tl = GpuTimeline::new(device);
            let s = tl.create_stream();
            for _ in 0..runs {
                ctx.enqueue_inference(&mut tl, s, &opts);
            }
            tl
        })
        .collect()
}

/// Writes every build's timeline into one chrome://tracing document, one
/// process per build, so the drifted kernel sets line up visually.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_variability_trace(
    farm: &EngineFarm,
    path: impl AsRef<Path>,
    model: ModelId,
    runs: usize,
) -> std::io::Result<()> {
    let timelines = variability_trace_timelines(farm, model, runs);
    let names: Vec<String> = (1..=timelines.len())
        .map(|i| format!("{model} engine{i}"))
        .collect();
    let pairs: Vec<(&str, &GpuTimeline)> = names
        .iter()
        .map(String::as_str)
        .zip(timelines.iter())
        .collect();
    std::fs::write(path, chrome_trace_json_multi(&pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_vary_across_engines() {
        let farm = EngineFarm::new();
        // Finding 6: different engines of the same model differ in runtime.
        let rows = run_table12(&farm, &[ModelId::InceptionV4, ModelId::Resnet18]);
        let any_spread = rows.iter().any(|r| r.spread_percent() > 0.5);
        assert!(any_spread, "no build-to-build latency spread at all");
    }

    #[test]
    fn kernel_sets_vary_across_engines() {
        let farm = EngineFarm::new();
        // Table XIII: invocation counts of at least one kernel symbol differ.
        let t = run_table13(&farm, ModelId::InceptionV4);
        assert!(
            !t.varying_kernels().is_empty(),
            "all three builds mapped to identical kernels"
        );
    }

    #[test]
    fn total_invocations_are_plausible() {
        let farm = EngineFarm::new();
        let t = run_table13(&farm, ModelId::Resnet18);
        for v in t.counts.values() {
            assert_eq!(v.len(), 3);
        }
        let totals: Vec<usize> = (0..3)
            .map(|i| t.counts.values().map(|v| v[i]).sum())
            .collect();
        for total in totals {
            assert!(total >= 20, "ResNet-18 engine too small: {total}");
        }
    }

    #[test]
    fn trace_timelines_reflect_build_drift() {
        let farm = EngineFarm::new();
        let timelines = variability_trace_timelines(&farm, ModelId::InceptionV4, 1);
        assert_eq!(timelines.len() as u64, ENGINES_PER_PLATFORM);
        // At least one pair of builds must differ in the kernel records, the
        // drift Table XIII counts.
        let names = |tl: &GpuTimeline| {
            let mut v: Vec<_> = tl.kernels().iter().map(|k| k.name.clone()).collect();
            v.sort();
            v
        };
        let distinct = timelines
            .iter()
            .skip(1)
            .any(|tl| names(tl) != names(&timelines[0]));
        assert!(distinct, "all three builds produced identical kernel runs");
    }

    #[test]
    fn tables_render() {
        let farm = EngineFarm::new();
        let rows = run_table12(&farm, &[ModelId::Mtcnn]);
        assert!(render_table12(&rows).contains("Engine3"));
        let t = run_table13(&farm, ModelId::Mtcnn);
        assert!(render_table13(&t).contains("calls"));
    }
}
