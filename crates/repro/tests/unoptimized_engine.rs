//! The un-optimized column of Tables III/IV is an FP32 no-pass engine run
//! through its plan. These tests pin that it computes exactly what the
//! reference interpreter computes on every image the accuracy experiments
//! feed it, that those images are finite (the only inputs on which the two
//! agree), and that the adversarial set keeps its order.

use trtsim_core::runtime::ExecutionContext;
use trtsim_data::corruptions::{apply_corruption, Corruption, Severity};
use trtsim_data::imagenet::LabeledImage;
use trtsim_gpu::device::DeviceSpec;
use trtsim_ir::{ReferenceExecutor, Tensor};
use trtsim_models::numeric::unoptimized_engine;
use trtsim_models::ModelId;
use trtsim_repro::exp_accuracy::{AccuracyConfig, AccuracySetup};
use trtsim_repro::support::CAMPAIGN_SEED;
use trtsim_util::derive_seed;
use trtsim_util::pool::{auto_threads, map_indexed};

/// Every model with a numeric variant (Tables III–VI).
const NUMERIC_MODELS: [ModelId; 5] = [
    ModelId::Alexnet,
    ModelId::Resnet18,
    ModelId::Vgg16,
    ModelId::Googlenet,
    ModelId::InceptionV4,
];

fn bits(outputs: &[Tensor]) -> Vec<Vec<u32>> {
    outputs
        .iter()
        .map(|t| t.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn unoptimized_plan_equals_the_reference_interpreter_bit_for_bit() {
    let config = AccuracyConfig::quick();
    for model in NUMERIC_MODELS {
        let setup = AccuracySetup::new(model, &config);
        let mut images = setup.benign(&config);
        for level in [1, 5] {
            images.extend(setup.adversarial(&config, Severity::new(level)));
        }
        let inputs: Vec<&Tensor> = images.iter().map(|img| &img.image).collect();

        let engine = unoptimized_engine(&setup.network).expect("builds");
        let ctx = ExecutionContext::new(&engine, DeviceSpec::pinned_clock(engine.build_platform()));
        let planned = ctx.infer_batch(&inputs, auto_threads()).expect("runs");
        let exec = ReferenceExecutor::new(&setup.network).expect("valid network");
        let reference = map_indexed(auto_threads(), inputs.len(), |i| {
            exec.run(inputs[i]).expect("runs")
        });
        for (i, (plan, oracle)) in planned.iter().zip(&reference).enumerate() {
            assert_eq!(bits(plan), bits(oracle), "{model}: image {i} differs");
        }

        let labels: Vec<usize> = reference
            .iter()
            .map(|out| out[0].argmax().unwrap_or(0))
            .collect();
        assert_eq!(setup.unopt_predictions(&images), labels, "{model}");
    }
}

#[test]
fn every_evaluation_image_is_finite() {
    let config = AccuracyConfig {
        corruption_families: Corruption::all().len(),
        ..AccuracyConfig::quick()
    };
    for model in NUMERIC_MODELS {
        let setup = AccuracySetup::new(model, &config);
        let mut sets = vec![("benign".to_string(), setup.benign(&config))];
        for level in 1..=5 {
            let set = setup.adversarial(&config, Severity::new(level));
            assert_eq!(
                set.len(),
                15 * config.classes * config.adversarial_per_class
            );
            sets.push((format!("severity {level}"), set));
        }
        for (name, set) in &sets {
            for (i, img) in set.iter().enumerate() {
                assert!(
                    img.image.as_slice().iter().all(|v| v.is_finite()),
                    "{model}: {name} image {i} has a non-finite pixel"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "non-finite pixel")]
fn unopt_predictions_rejects_a_non_finite_image() {
    let config = AccuracyConfig::quick();
    let setup = AccuracySetup::new(ModelId::Alexnet, &config);
    let mut images = setup.benign(&config);
    images[3].image.as_mut_slice()[17] = f32::INFINITY;
    setup.unopt_predictions(&images);
}

#[test]
fn adversarial_set_keeps_the_per_family_order() {
    let config = AccuracyConfig {
        adversarial_per_class: 3,
        corruption_families: 5,
        ..AccuracyConfig::quick()
    };
    let setup = AccuracySetup::new(ModelId::Resnet18, &config);
    for level in [1, 5] {
        let severity = Severity::new(level);
        // One base sample per (family, class, index), as the set was built
        // before bases were shared across families.
        let mut expected = Vec::new();
        for corruption in Corruption::all()
            .into_iter()
            .take(config.corruption_families)
        {
            for class in 0..config.classes {
                for idx in 0..config.adversarial_per_class {
                    let base = setup.dataset.sample(class, 1000 + idx);
                    let seed = derive_seed(
                        CAMPAIGN_SEED,
                        corruption.label(),
                        (class * 131 + idx) as u64,
                    );
                    expected.push(LabeledImage {
                        image: apply_corruption(&base.image, corruption, severity, seed),
                        label: class,
                    });
                }
            }
        }
        let labeled_bits = |set: &[LabeledImage]| -> Vec<(usize, Vec<Vec<u32>>)> {
            set.iter()
                .map(|img| (img.label, bits(std::slice::from_ref(&img.image))))
                .collect()
        };
        assert_eq!(
            labeled_bits(&setup.adversarial(&config, severity)),
            labeled_bits(&expected),
            "severity {level}"
        );
    }
}
