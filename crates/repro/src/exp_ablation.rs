//! Ablation studies beyond the paper's tables (DESIGN.md §5 extensions):
//! what each optimization contributes, and what damps the non-determinism.
//!
//! * **Pass ablation** — rebuild an engine with individual Figure 2 passes
//!   disabled and compare latency: quantifies vertical fusion's launch/DRAM
//!   savings and horizontal merging's occupancy gains.
//! * **Precision ablation** — FP32-only vs FP16 vs FP16+INT8 engines.
//! * **avgTiming ablation** — TensorRT's `avgTiming` knob averages several
//!   tactic-timing samples; sweeping it shows how measurement averaging
//!   suppresses build-to-build kernel-set variation (the practical
//!   mitigation for Findings 2/6 short of shipping one plan).

use std::collections::BTreeSet;

use trtsim_core::runtime::{ExecutionContext, TimingOptions};
use trtsim_core::{Builder, BuilderConfig};
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_kernels::catalog::PrecisionPolicy;
use trtsim_metrics::top1_error_percent;
use trtsim_models::ModelId;
use trtsim_util::derive_seed;

use crate::exp_accuracy::{AccuracyConfig, AccuracySetup};
use crate::support::{EngineFarm, TextTable, CAMPAIGN_SEED};

/// One pass-ablation variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// All passes enabled (production build).
    Full,
    /// Vertical fusion disabled.
    NoVerticalFusion,
    /// Horizontal merging disabled.
    NoHorizontalMerge,
    /// Dead-layer removal disabled.
    NoDeadLayer,
    /// All graph passes disabled.
    NoPasses,
}

impl Variant {
    /// All variants, baseline first.
    pub fn all() -> [Variant; 5] {
        [
            Variant::Full,
            Variant::NoVerticalFusion,
            Variant::NoHorizontalMerge,
            Variant::NoDeadLayer,
            Variant::NoPasses,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "full pipeline",
            Variant::NoVerticalFusion => "no vertical fusion",
            Variant::NoHorizontalMerge => "no horizontal merge",
            Variant::NoDeadLayer => "no dead-layer removal",
            Variant::NoPasses => "no graph passes",
        }
    }

    fn config(self) -> BuilderConfig {
        let base = BuilderConfig::default().with_build_seed(derive_seed(
            CAMPAIGN_SEED,
            "ablation",
            self as u64,
        ));
        match self {
            Variant::Full => base,
            Variant::NoVerticalFusion => {
                let mut c = base;
                c.enable_vertical_fusion = false;
                c
            }
            Variant::NoHorizontalMerge => {
                let mut c = base;
                c.enable_horizontal_merge = false;
                c
            }
            Variant::NoDeadLayer => {
                let mut c = base;
                c.enable_dead_layer = false;
                c
            }
            Variant::NoPasses => base.without_graph_passes(),
        }
    }
}

/// One pass-ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant.
    pub variant: Variant,
    /// Kernel launches per inference.
    pub launches: usize,
    /// Latency (no profiler, engine resident), ms.
    pub latency_ms: f64,
    /// Plan size, MiB.
    pub plan_mib: f64,
}

/// Runs the pass ablation for one model on NX.
pub fn run_pass_ablation(model: ModelId) -> Vec<AblationRow> {
    let device = DeviceSpec::pinned_clock(Platform::Nx);
    let network = model.descriptor();
    Variant::all()
        .into_iter()
        .map(|variant| {
            let engine = Builder::new(device.clone(), variant.config())
                .build(&network)
                .expect("ablation build");
            let ctx = ExecutionContext::new(&engine, device.clone());
            let opts = TimingOptions::default()
                .without_engine_upload()
                .with_host_glue_us(model.info().host_glue_us)
                .with_run_jitter_sd(0.0);
            AblationRow {
                variant,
                launches: engine.launch_count(),
                latency_ms: ctx.measure_latency(&opts, 1, 0)[0] / 1000.0,
                plan_mib: engine.plan_size_bytes() as f64 / (1 << 20) as f64,
            }
        })
        .collect()
}

/// Renders the pass ablation.
pub fn render_pass_ablation(model: ModelId, rows: &[AblationRow]) -> String {
    let mut t = TextTable::new(vec![
        "variant".into(),
        "launches".into(),
        "latency (ms)".into(),
        "plan (MiB)".into(),
        "slowdown".into(),
    ]);
    let base = rows[0].latency_ms;
    for r in rows {
        t.row(vec![
            r.variant.label().into(),
            r.launches.to_string(),
            format!("{:.2}", r.latency_ms),
            format!("{:.2}", r.plan_mib),
            format!("{:.2}x", r.latency_ms / base),
        ]);
    }
    format!(
        "Ablation: optimization passes ({model}, NX)\n{}",
        t.render()
    )
}

/// One precision-ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionRow {
    /// Policy label.
    pub policy: &'static str,
    /// Latency, ms.
    pub latency_ms: f64,
    /// Plan size, MiB.
    pub plan_mib: f64,
    /// Layer precision mix (fp32, fp16, int8).
    pub mix: (usize, usize, usize),
}

/// Runs the precision ablation for one model on NX.
pub fn run_precision_ablation(model: ModelId) -> Vec<PrecisionRow> {
    let device = DeviceSpec::pinned_clock(Platform::Nx);
    let network = model.descriptor();
    [
        ("FP32 only", PrecisionPolicy::fp32_only()),
        ("FP16 (default)", PrecisionPolicy::fp16()),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let config = BuilderConfig::default()
            .with_build_seed(derive_seed(CAMPAIGN_SEED, "precision", model as u64))
            .with_policy(policy);
        let engine = Builder::new(device.clone(), config)
            .build(&network)
            .expect("precision build");
        let ctx = ExecutionContext::new(&engine, device.clone());
        let opts = TimingOptions::default()
            .without_engine_upload()
            .with_host_glue_us(model.info().host_glue_us)
            .with_run_jitter_sd(0.0);
        PrecisionRow {
            policy: label,
            latency_ms: ctx.measure_latency(&opts, 1, 0)[0] / 1000.0,
            plan_mib: engine.plan_size_bytes() as f64 / (1 << 20) as f64,
            mix: engine.precision_mix(),
        }
    })
    .collect()
}

/// Renders the precision ablation.
pub fn render_precision_ablation(model: ModelId, rows: &[PrecisionRow]) -> String {
    let mut t = TextTable::new(vec![
        "policy".into(),
        "latency (ms)".into(),
        "plan (MiB)".into(),
        "fp32/fp16/int8 layers".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.policy.into(),
            format!("{:.2}", r.latency_ms),
            format!("{:.2}", r.plan_mib),
            format!("{}/{}/{}", r.mix.0, r.mix.1, r.mix.2),
        ]);
    }
    format!("Ablation: precision policy ({model}, NX)\n{}", t.render())
}

/// INT8 end-to-end accuracy check: calibrate on real images, build an INT8
/// engine of a numeric classifier, and compare top-1 error against the FP16
/// engine and the FP32 reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Int8Row {
    /// Model.
    pub model: ModelId,
    /// FP32 reference error, percent.
    pub fp32_error: f64,
    /// FP16 engine error, percent.
    pub fp16_error: f64,
    /// INT8-enabled engine error, percent.
    pub int8_error: f64,
    /// Layers the INT8 engine actually ran quantized.
    pub int8_layers: usize,
}

/// Runs the INT8 accuracy study on a numeric classifier.
pub fn run_int8_accuracy(farm: &EngineFarm, model: ModelId, config: &AccuracyConfig) -> Int8Row {
    let setup = AccuracySetup::new(model, config);
    let images = setup.benign(config);
    let labels: Vec<usize> = images.iter().map(|i| i.label).collect();

    let fp32 = setup.unopt_predictions(&images);
    let fp16_engine = setup.engine(farm, Platform::Nx, 0);
    let fp16 = setup.engine_predictions(&fp16_engine, &images);

    let calibration = setup.dataset.calibration_batch(config.classes.min(8));
    let int8_engine = Builder::new(
        DeviceSpec::pinned_clock(Platform::Nx),
        BuilderConfig::default()
            .with_build_seed(derive_seed(CAMPAIGN_SEED, "int8", model as u64))
            .with_pruning(true)
            .with_calibration(calibration),
    )
    .build(&setup.network)
    .expect("int8 build");
    let int8 = setup.engine_predictions(&int8_engine, &images);

    Int8Row {
        model,
        fp32_error: top1_error_percent(&fp32, &labels),
        fp16_error: top1_error_percent(&fp16, &labels),
        int8_error: top1_error_percent(&int8, &labels),
        int8_layers: int8_engine.precision_mix().2,
    }
}

/// Renders the INT8 accuracy rows.
pub fn render_int8(rows: &[Int8Row]) -> String {
    let mut t = TextTable::new(vec![
        "model".into(),
        "FP32 err (%)".into(),
        "FP16 err (%)".into(),
        "INT8 err (%)".into(),
        "INT8 layers".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.model.to_string(),
            format!("{:.1}", r.fp32_error),
            format!("{:.1}", r.fp16_error),
            format!("{:.1}", r.int8_error),
            r.int8_layers.to_string(),
        ]);
    }
    format!(
        "Ablation: INT8 calibration accuracy (NX)
{}",
        t.render()
    )
}

/// One avgTiming row: distinct kernel mappings across rebuilds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvgTimingRow {
    /// Timing samples averaged per tactic measurement.
    pub samples: u32,
    /// Rebuilds performed.
    pub builds: u32,
    /// Distinct kernel mappings observed.
    pub distinct_mappings: usize,
}

/// Sweeps `avgTiming` and counts distinct kernel mappings over `builds`
/// rebuilds of `model`.
pub fn run_avgtiming_sweep(model: ModelId, builds: u32) -> Vec<AvgTimingRow> {
    let device = DeviceSpec::pinned_clock(Platform::Nx);
    let network = model.descriptor();
    [1u32, 2, 4, 8, 16]
        .into_iter()
        .map(|samples| {
            let mut mappings = BTreeSet::new();
            for i in 0..builds {
                let config = BuilderConfig::default()
                    .with_build_seed(derive_seed(
                        CAMPAIGN_SEED,
                        "avgtiming",
                        u64::from(samples) << 32 | u64::from(i),
                    ))
                    .with_timing_samples(samples);
                let engine = Builder::new(device.clone(), config)
                    .build(&network)
                    .expect("avgtiming build");
                mappings.insert(engine.kernel_names().join("|"));
            }
            AvgTimingRow {
                samples,
                builds,
                distinct_mappings: mappings.len(),
            }
        })
        .collect()
}

/// Renders the avgTiming sweep.
pub fn render_avgtiming(model: ModelId, rows: &[AvgTimingRow]) -> String {
    let mut t = TextTable::new(vec![
        "avgTiming samples".into(),
        "rebuilds".into(),
        "distinct kernel mappings".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.samples.to_string(),
            r.builds.to_string(),
            r.distinct_mappings.to_string(),
        ]);
    }
    format!(
        "Ablation: avgTiming vs build non-determinism ({model}, NX)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_ablation_costs_launches_and_time() {
        let rows = run_pass_ablation(ModelId::Googlenet);
        let full = &rows[0];
        let no_passes = rows
            .iter()
            .find(|r| r.variant == Variant::NoPasses)
            .unwrap();
        assert!(
            no_passes.launches > full.launches,
            "passes should cut launches"
        );
        assert!(
            no_passes.latency_ms > full.latency_ms,
            "unoptimized graph should be slower: {} vs {}",
            no_passes.latency_ms,
            full.latency_ms
        );
    }

    #[test]
    fn dead_layer_ablation_grows_googlenet_plan() {
        // GoogLeNet's aux heads survive without dead-layer removal.
        let rows = run_pass_ablation(ModelId::Googlenet);
        let full = &rows[0];
        let no_dead = rows
            .iter()
            .find(|r| r.variant == Variant::NoDeadLayer)
            .unwrap();
        assert!(no_dead.plan_mib > full.plan_mib + 3.0);
    }

    #[test]
    fn fp32_engines_are_slower_and_bigger() {
        let rows = run_precision_ablation(ModelId::Resnet18);
        let fp32 = &rows[0];
        let fp16 = &rows[1];
        assert!(fp32.latency_ms > fp16.latency_ms);
        assert!(fp32.plan_mib > fp16.plan_mib);
        assert_eq!(fp32.mix.1, 0, "fp32-only policy must not use fp16");
    }

    #[test]
    fn avgtiming_reduces_mapping_diversity() {
        let rows = run_avgtiming_sweep(ModelId::Mtcnn, 6);
        let at_1 = rows.iter().find(|r| r.samples == 1).unwrap();
        let at_16 = rows.iter().find(|r| r.samples == 16).unwrap();
        assert!(
            at_16.distinct_mappings <= at_1.distinct_mappings,
            "{} > {}",
            at_16.distinct_mappings,
            at_1.distinct_mappings
        );
    }

    #[test]
    fn int8_engines_stay_accurate() {
        let row = run_int8_accuracy(&EngineFarm::new(), ModelId::Vgg16, &AccuracyConfig::quick());
        // INT8 with amax calibration tracks FP16 within a few points.
        assert!(
            row.int8_error <= row.fp16_error + 12.0,
            "INT8 {:.1}% vs FP16 {:.1}%",
            row.int8_error,
            row.fp16_error
        );
    }

    #[test]
    fn renders() {
        let rows = run_pass_ablation(ModelId::Mtcnn);
        assert!(render_pass_ablation(ModelId::Mtcnn, &rows).contains("slowdown"));
        let rows = run_precision_ablation(ModelId::Mtcnn);
        assert!(render_precision_ablation(ModelId::Mtcnn, &rows).contains("policy"));
        let rows = run_avgtiming_sweep(ModelId::Mtcnn, 3);
        assert!(render_avgtiming(ModelId::Mtcnn, &rows).contains("avgTiming"));
    }
}
