//! Tables III and IV: top-1 error of un-optimized vs TensorRT engines on
//! benign and adversarial data.
//!
//! Numeric-scale models classify a synthetic class-prototype dataset whose
//! signal-to-noise ratio is dialed per model so the *absolute* error levels
//! land in the paper's regime; the *deltas* — TensorRT at or slightly below
//! the un-optimized error, severity 5 far above severity 1 — are emergent
//! (weight clustering denoises the over-fit weights; corruption maths follow
//! ImageNet-C).

use std::sync::Arc;

use trtsim_core::runtime::ExecutionContext;
use trtsim_core::{Builder, BuilderConfig, Engine};
use trtsim_data::corruptions::{apply_corruption, Corruption, Severity};
use trtsim_data::imagenet::{LabeledImage, SyntheticImageNet};
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_ir::Tensor;
use trtsim_ir::{Graph, ReferenceExecutor};
use trtsim_metrics::top1_error_percent;
use trtsim_models::numeric::{build_classifier, NUMERIC_INPUT};
use trtsim_models::ModelId;
use trtsim_util::derive_seed;
use trtsim_util::pool::{auto_threads, map_indexed};

use crate::support::{EngineFarm, FarmKey, TextTable, CAMPAIGN_SEED};

/// Per-model difficulty constants: (dataset noise σ, over-fit jitter).
/// Calibrated once against Table III's error levels; the orderings between
/// engines are not affected by these dials.
pub fn difficulty(model: ModelId) -> (f32, f32) {
    match model {
        ModelId::Alexnet => (2.0, 0.25),
        ModelId::Resnet18 => (1.6, 0.20),
        ModelId::Vgg16 => (0.85, 0.25),
        ModelId::InceptionV4 => (1.0, 0.25),
        ModelId::Googlenet => (1.0, 0.25),
        _ => (1.0, 0.25),
    }
}

/// Experiment scale knobs (the paper uses 100 classes × 50/20 images; the
/// simulator defaults scale these down and reports rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccuracyConfig {
    /// Number of classes.
    pub classes: usize,
    /// Benign images per class.
    pub benign_per_class: usize,
    /// Adversarial images per class per (corruption, severity).
    pub adversarial_per_class: usize,
    /// How many of the 15 corruption families to use.
    pub corruption_families: usize,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        Self {
            classes: 20,
            benign_per_class: 25,
            adversarial_per_class: 2,
            corruption_families: 15,
        }
    }
}

impl AccuracyConfig {
    /// A tiny configuration for unit tests.
    pub fn quick() -> Self {
        Self {
            classes: 6,
            benign_per_class: 6,
            adversarial_per_class: 1,
            corruption_families: 3,
        }
    }
}

/// A numeric model plus its dataset, ready for evaluation.
#[derive(Debug)]
pub struct AccuracySetup {
    /// Which zoo model this is the numeric variant of.
    pub model: ModelId,
    /// The dataset generator.
    pub dataset: SyntheticImageNet,
    /// The over-fit "trained" network (the un-optimized baseline).
    pub network: Graph,
}

impl AccuracySetup {
    /// Builds the setup for one classification model.
    pub fn new(model: ModelId, config: &AccuracyConfig) -> Self {
        let (noise, jitter) = difficulty(model);
        let dataset = SyntheticImageNet::new(
            config.classes,
            NUMERIC_INPUT,
            derive_seed(CAMPAIGN_SEED, "imagenet", model as u64),
        )
        .with_snr(1.0, noise);
        let prototypes: Vec<_> = (0..config.classes).map(|c| dataset.prototype(c)).collect();
        let network = build_classifier(
            model,
            &prototypes,
            jitter,
            derive_seed(CAMPAIGN_SEED, "overfit", model as u64),
        );
        Self {
            model,
            dataset,
            network,
        }
    }

    /// Builds (or fetches from `farm`) TensorRT engine `index` on
    /// `platform` with the model-compression step (magnitude pruning)
    /// enabled. The class count salts the farm key because it changes the
    /// synthesized network.
    pub fn engine(&self, farm: &EngineFarm, platform: Platform, index: u64) -> Arc<Engine> {
        let seed = derive_seed(
            CAMPAIGN_SEED,
            "accuracy-engine",
            (self.model as u64) << 16 | (platform as u64) << 8 | index,
        );
        let key = FarmKey {
            domain: "accuracy",
            model: self.model,
            platform,
            index,
            variant: self.dataset.classes() as u64,
        };
        farm.get_or_build(key, |cache| {
            // Compression enabled: magnitude pruning restores the exact zeros
            // an over-fitted model has smeared (the dominant denoising
            // effect) and clustering tidies the surviving levels.
            let mut config = BuilderConfig::default()
                .with_build_seed(seed)
                .with_pruning(true)
                .with_timing_cache(cache.clone());
            config.prune_threshold = 0.55;
            Builder::new(DeviceSpec::pinned_clock(platform), config).build(&self.network)
        })
    }

    /// Benign evaluation set.
    pub fn benign(&self, config: &AccuracyConfig) -> Vec<LabeledImage> {
        self.dataset.evaluation_set(config.benign_per_class)
    }

    /// Adversarial evaluation set at one severity.
    pub fn adversarial(&self, config: &AccuracyConfig, severity: Severity) -> Vec<LabeledImage> {
        let mut out = Vec::new();
        for corruption in Corruption::all()
            .into_iter()
            .take(config.corruption_families)
        {
            for class in 0..config.classes {
                for idx in 0..config.adversarial_per_class {
                    let base = self.dataset.sample(class, 1000 + idx);
                    let image = apply_corruption(
                        &base.image,
                        corruption,
                        severity,
                        derive_seed(
                            CAMPAIGN_SEED,
                            corruption.label(),
                            (class * 131 + idx) as u64,
                        ),
                    );
                    out.push(LabeledImage {
                        image,
                        label: class,
                    });
                }
            }
        }
        out
    }

    /// Predictions of the un-optimized network, evaluated across worker
    /// threads (order-stable: results line up with `images`).
    pub fn unopt_predictions(&self, images: &[LabeledImage]) -> Vec<usize> {
        let exec = ReferenceExecutor::new(&self.network).expect("valid network");
        map_indexed(auto_threads(), images.len(), |i| {
            exec.run(&images[i].image).expect("runs")[0]
                .argmax()
                .unwrap_or(0)
        })
    }

    /// Predictions of an engine through its precompiled plan, batched across
    /// worker threads (order-stable and bit-identical to a sequential loop).
    pub fn engine_predictions(&self, engine: &Engine, images: &[LabeledImage]) -> Vec<usize> {
        let ctx = ExecutionContext::new(engine, DeviceSpec::pinned_clock(engine.build_platform()));
        let tensors: Vec<&Tensor> = images.iter().map(|img| &img.image).collect();
        ctx.classify_batch(&tensors, auto_threads()).expect("runs")
    }
}

/// One Table III row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyRow {
    /// Model.
    pub model: ModelId,
    /// TensorRT top-1 error on AGX, percent.
    pub agx_error: f64,
    /// TensorRT top-1 error on NX, percent.
    pub nx_error: f64,
    /// Un-optimized top-1 error, percent.
    pub unopt_error: f64,
}

/// Computes Table III for the paper's three models.
pub fn run_table3(farm: &EngineFarm, config: &AccuracyConfig) -> Vec<AccuracyRow> {
    [ModelId::Alexnet, ModelId::Resnet18, ModelId::Vgg16]
        .into_iter()
        .map(|model| {
            let setup = AccuracySetup::new(model, config);
            let images = setup.benign(config);
            let labels: Vec<usize> = images.iter().map(|i| i.label).collect();
            let unopt = setup.unopt_predictions(&images);
            let nx = setup.engine_predictions(&setup.engine(farm, Platform::Nx, 0), &images);
            let agx = setup.engine_predictions(&setup.engine(farm, Platform::Agx, 0), &images);
            AccuracyRow {
                model,
                agx_error: top1_error_percent(&agx, &labels),
                nx_error: top1_error_percent(&nx, &labels),
                unopt_error: top1_error_percent(&unopt, &labels),
            }
        })
        .collect()
}

/// One Table IV row (model × severity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarialRow {
    /// Model.
    pub model: ModelId,
    /// Severity level.
    pub severity: u8,
    /// TensorRT AGX / NX / un-optimized errors, percent.
    pub agx_error: f64,
    /// NX error.
    pub nx_error: f64,
    /// Un-optimized error.
    pub unopt_error: f64,
}

/// Computes Table IV (severities 1 and 5).
pub fn run_table4(farm: &EngineFarm, config: &AccuracyConfig) -> Vec<AdversarialRow> {
    let mut rows = Vec::new();
    for model in [ModelId::Alexnet, ModelId::Resnet18, ModelId::Vgg16] {
        let setup = AccuracySetup::new(model, config);
        let nx_engine = setup.engine(farm, Platform::Nx, 0);
        let agx_engine = setup.engine(farm, Platform::Agx, 0);
        for severity in [Severity::new(1), Severity::new(5)] {
            let images = setup.adversarial(config, severity);
            let labels: Vec<usize> = images.iter().map(|i| i.label).collect();
            rows.push(AdversarialRow {
                model,
                severity: severity.level(),
                agx_error: top1_error_percent(
                    &setup.engine_predictions(&agx_engine, &images),
                    &labels,
                ),
                nx_error: top1_error_percent(
                    &setup.engine_predictions(&nx_engine, &images),
                    &labels,
                ),
                unopt_error: top1_error_percent(&setup.unopt_predictions(&images), &labels),
            });
        }
    }
    rows
}

/// Renders Table III.
pub fn render_table3(rows: &[AccuracyRow]) -> String {
    let mut t = TextTable::new(vec![
        "NN Model".into(),
        "AGX Error(%) TensorRT".into(),
        "NX Error(%) TensorRT".into(),
        "Error(%) Unoptimized".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.model.to_string(),
            format!("{:.2}", r.agx_error),
            format!("{:.2}", r.nx_error),
            format!("{:.2}", r.unopt_error),
        ]);
    }
    format!("Table III: Top-1 error on benign data\n{}", t.render())
}

/// Renders Table IV.
pub fn render_table4(rows: &[AdversarialRow]) -> String {
    let mut t = TextTable::new(vec![
        "NN Model".into(),
        "Severity".into(),
        "AGX Error(%) TensorRT".into(),
        "NX Error(%) TensorRT".into(),
        "Error(%) Unoptimized".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.model.to_string(),
            r.severity.to_string(),
            format!("{:.2}", r.agx_error),
            format!("{:.2}", r.nx_error),
            format!("{:.2}", r.unopt_error),
        ]);
    }
    format!("Table IV: Top-1 error on adversarial data\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensorrt_error_not_worse_than_unoptimized() {
        // Finding 1, on the quick configuration (36 images/model: one image
        // is ~3 percentage points, so judge the average and cap per model).
        let rows = run_table3(&EngineFarm::new(), &AccuracyConfig::quick());
        let mean_delta: f64 =
            rows.iter().map(|r| r.nx_error - r.unopt_error).sum::<f64>() / rows.len() as f64;
        assert!(
            mean_delta <= 1.0,
            "TRT should not be worse on average: {mean_delta:+.1} points ({rows:?})"
        );
        for r in &rows {
            assert!(
                r.nx_error <= r.unopt_error + 8.0,
                "{}: TRT {} vs unopt {}",
                r.model,
                r.nx_error,
                r.unopt_error
            );
        }
    }

    #[test]
    fn severity_5_is_much_worse_than_1() {
        let rows = run_table4(&EngineFarm::new(), &AccuracyConfig::quick());
        for model in [ModelId::Alexnet, ModelId::Resnet18, ModelId::Vgg16] {
            let s1 = rows
                .iter()
                .find(|r| r.model == model && r.severity == 1)
                .unwrap();
            let s5 = rows
                .iter()
                .find(|r| r.model == model && r.severity == 5)
                .unwrap();
            assert!(
                s5.unopt_error > s1.unopt_error,
                "{model}: sev5 {} !> sev1 {}",
                s5.unopt_error,
                s1.unopt_error
            );
        }
    }

    #[test]
    fn errors_are_nontrivial_rates() {
        let rows = run_table3(&EngineFarm::new(), &AccuracyConfig::quick());
        for r in &rows {
            assert!(r.unopt_error > 0.0, "{}: dataset too easy", r.model);
            assert!(r.nx_error < 100.0, "{}: dataset impossible", r.model);
        }
        assert!(render_table3(&rows).contains("Unoptimized"));
    }
}
