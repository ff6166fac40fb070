//! Tables V and VI: output-label consistency across engine builds.
//!
//! Several engines of the same network are built per platform; every engine
//! classifies the same images. Engines differ only in tactic selection, so
//! any disagreement comes from FP16 accumulation-order differences flipping
//! borderline images — Finding 2, emergent.

use trtsim_data::corruptions::{apply_corruption, Corruption, Severity};
use trtsim_data::imagenet::LabeledImage;
use trtsim_gpu::device::Platform;
use trtsim_metrics::{consistency, ConsistencyReport};
use trtsim_models::ModelId;
use trtsim_util::derive_seed;

use crate::exp_accuracy::{AccuracyConfig, AccuracySetup};
use crate::support::{EngineFarm, TextTable, CAMPAIGN_SEED};

/// The models the paper studies in Tables V/VI.
pub fn consistency_models() -> [ModelId; 4] {
    [
        ModelId::Resnet18,
        ModelId::Vgg16,
        ModelId::InceptionV4,
        ModelId::Alexnet,
    ]
}

/// Engines per platform (the paper builds 3+3 = 6 per network).
pub const ENGINES: u64 = 3;

/// One model's full consistency study.
#[derive(Debug, Clone)]
pub struct ConsistencyStudy {
    /// The model.
    pub model: ModelId,
    /// Images compared.
    pub total: usize,
    /// Cross-platform pairs: `cross[i][j]` compares NX engine i vs AGX
    /// engine j (Table V).
    pub cross: Vec<Vec<ConsistencyReport>>,
    /// Same-platform pairs on NX and AGX: (1-2, 2-3, 1-3) (Table VI).
    pub same_nx: [ConsistencyReport; 3],
    /// AGX pairs.
    pub same_agx: [ConsistencyReport; 3],
}

/// The evaluation corpus: benign plus mildly corrupted images (mirrors the
/// paper comparing predictions over its adversarial corpus).
fn corpus(setup: &AccuracySetup, config: &AccuracyConfig) -> Vec<LabeledImage> {
    let mut images = setup.benign(config);
    for (k, corruption) in Corruption::all()
        .into_iter()
        .take(config.corruption_families)
        .enumerate()
    {
        for class in 0..config.classes {
            let base = setup.dataset.sample(class, 5000 + k);
            images.push(LabeledImage {
                image: apply_corruption(
                    &base.image,
                    corruption,
                    Severity::new(1),
                    derive_seed(CAMPAIGN_SEED, "consistency", (k * 1000 + class) as u64),
                ),
                label: class,
            });
        }
    }
    images
}

/// Runs the study for one model.
pub fn run(farm: &EngineFarm, model: ModelId, config: &AccuracyConfig) -> ConsistencyStudy {
    let setup = AccuracySetup::new(model, config);
    let images = corpus(&setup, config);
    let predict = |platform: Platform, index: u64| -> Vec<usize> {
        let engine = setup.engine(farm, platform, index);
        setup.engine_predictions(&engine, &images)
    };
    let nx: Vec<Vec<usize>> = (0..ENGINES).map(|i| predict(Platform::Nx, i)).collect();
    let agx: Vec<Vec<usize>> = (0..ENGINES).map(|i| predict(Platform::Agx, i)).collect();

    let cross = nx
        .iter()
        .map(|a| agx.iter().map(|b| consistency(a, b)).collect())
        .collect();
    let pairs = |v: &[Vec<usize>]| -> [ConsistencyReport; 3] {
        [
            consistency(&v[0], &v[1]),
            consistency(&v[1], &v[2]),
            consistency(&v[0], &v[2]),
        ]
    };
    ConsistencyStudy {
        model,
        total: images.len(),
        cross,
        same_nx: pairs(&nx),
        same_agx: pairs(&agx),
    }
}

/// Renders Table V (cross-platform pairs) for several studies.
pub fn render_table5(studies: &[ConsistencyStudy]) -> String {
    let mut header = vec!["NN Model".to_string()];
    for i in 1..=ENGINES {
        for j in 1..=ENGINES {
            header.push(format!("NX{i}-AGX{j}"));
        }
    }
    header.push("(scaled to 60k)".into());
    let mut t = TextTable::new(header);
    for s in studies {
        let mut row = vec![s.model.to_string()];
        let mut scaled_total = 0.0;
        for i in 0..ENGINES as usize {
            for j in 0..ENGINES as usize {
                row.push(s.cross[i][j].mismatches.to_string());
                scaled_total += s.cross[i][j].scaled_to(60_000);
            }
        }
        row.push(format!("avg {:.0}", scaled_total / 9.0));
        t.row(row);
    }
    format!(
        "Table V: differing predictions across cross-platform engine pairs (out of {} images)\n{}",
        studies.first().map(|s| s.total).unwrap_or(0),
        t.render()
    )
}

/// Renders Table VI (same-platform pairs).
pub fn render_table6(studies: &[ConsistencyStudy]) -> String {
    let mut t = TextTable::new(vec![
        "Platform".into(),
        "NN Model".into(),
        "Engines 1-2".into(),
        "Engines 2-3".into(),
        "Engines 1-3".into(),
    ]);
    for s in studies {
        t.row(vec![
            "NX".into(),
            s.model.to_string(),
            s.same_nx[0].mismatches.to_string(),
            s.same_nx[1].mismatches.to_string(),
            s.same_nx[2].mismatches.to_string(),
        ]);
        t.row(vec![
            "AGX".into(),
            s.model.to_string(),
            s.same_agx[0].mismatches.to_string(),
            s.same_agx[1].mismatches.to_string(),
            s.same_agx[2].mismatches.to_string(),
        ]);
    }
    format!(
        "Table VI: differing predictions across same-platform engine pairs\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_shapes_are_complete() {
        let s = run(
            &EngineFarm::new(),
            ModelId::Alexnet,
            &AccuracyConfig::quick(),
        );
        assert_eq!(s.cross.len(), 3);
        assert_eq!(s.cross[0].len(), 3);
        assert!(s.total > 0);
        for row in &s.cross {
            for r in row {
                assert_eq!(r.total, s.total);
            }
        }
        let studies = vec![s];
        assert!(render_table5(&studies).contains("NX1-AGX1"));
        assert!(render_table6(&studies).contains("Engines 1-2"));
    }

    #[test]
    fn mismatch_rates_are_small() {
        // The paper's Tables V/VI: 0.1-0.8% of predictions differ — never
        // wholesale disagreement.
        let s = run(
            &EngineFarm::new(),
            ModelId::Resnet18,
            &AccuracyConfig::quick(),
        );
        for row in &s.cross {
            for r in row {
                assert!(
                    r.mismatch_percent() < 12.0,
                    "cross-engine mismatch rate {:.1}% is not 'minimal'",
                    r.mismatch_percent()
                );
            }
        }
    }

    #[test]
    fn identical_build_would_be_identical() {
        // Two predictions with the same engine are bit-equal (control).
        let config = AccuracyConfig::quick();
        let setup = AccuracySetup::new(ModelId::Alexnet, &config);
        let images = setup.benign(&config);
        let e = setup.engine(&EngineFarm::new(), Platform::Nx, 0);
        let a = setup.engine_predictions(&e, &images);
        let b = setup.engine_predictions(&e, &images);
        assert_eq!(consistency(&a, &b).mismatches, 0);
    }
}
