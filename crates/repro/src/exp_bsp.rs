//! Tables XVII and XVIII: BSP performance-model prediction under engine
//! non-determinism.
//!
//! Three engines of the same model are built on NX; λs are calibrated per
//! engine on NX and used to predict AGX execution. The paper's point — the
//! prediction error swings across builds because each engine maps to
//! different kernels — is reproduced and quantified.

use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_models::ModelId;
use trtsim_perfmodel::PredictionOutcome;

use crate::support::{EngineFarm, TextTable};

/// One engine's prediction outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BspRow {
    /// Engine build index.
    pub engine: u64,
    /// Distinct kernel symbols calibrated.
    pub lambda_count: usize,
    /// Predicted AGX time, ms.
    pub predicted_ms: f64,
    /// Simulated AGX time, ms.
    pub actual_ms: f64,
    /// Absolute error, percent.
    pub error_percent: f64,
}

/// The experiment for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct BspExperiment {
    /// Model studied (Table XVII: Inception-v4; Table XVIII: MobileNetV1).
    pub model: ModelId,
    /// One row per engine build.
    pub rows: Vec<BspRow>,
}

impl BspExperiment {
    /// Spread of prediction error across builds, percentage points.
    pub fn error_spread(&self) -> f64 {
        let errs: Vec<f64> = self.rows.iter().map(|r| r.error_percent).collect();
        let min = errs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = errs.iter().cloned().fold(0.0, f64::max);
        max - min
    }
}

/// Runs the experiment: `engines` NX builds of `model`, predicted onto AGX.
pub fn run(farm: &EngineFarm, model: ModelId, engines: u64) -> BspExperiment {
    let wanted: Vec<_> = (0..engines).map(|i| (model, Platform::Nx, i)).collect();
    farm.prefetch_zoo(&wanted);
    let nx = DeviceSpec::pinned_clock(Platform::Nx);
    let agx = DeviceSpec::pinned_clock(Platform::Agx);
    let rows = (0..engines)
        .map(|i| {
            let engine = farm.zoo(model, Platform::Nx, i);
            let outcome = PredictionOutcome::evaluate(&engine, &nx, &agx, i ^ 0xb5b);
            BspRow {
                engine: i + 1,
                lambda_count: outcome.lambda_count,
                predicted_ms: outcome.predicted_us / 1000.0,
                actual_ms: outcome.actual_us / 1000.0,
                error_percent: outcome.error_percent(),
            }
        })
        .collect();
    BspExperiment { model, rows }
}

/// Renders the table.
pub fn render(exp: &BspExperiment) -> String {
    let mut t = TextTable::new(vec![
        "Engine".into(),
        "# λ kernels".into(),
        "Predicted AGX (ms)".into(),
        "Actual AGX (ms)".into(),
        "Error (%)".into(),
    ]);
    for r in &exp.rows {
        t.row(vec![
            r.engine.to_string(),
            r.lambda_count.to_string(),
            format!("{:.2}", r.predicted_ms),
            format!("{:.2}", r.actual_ms),
            format!("{:.1}", r.error_percent),
        ]);
    }
    format!(
        "BSP cross-platform prediction for {} (λ calibrated per engine on NX)\n{}\nerror spread across engines: {:.1} percentage points\n",
        exp.model,
        t.render(),
        exp.error_spread()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inception_prediction_error_varies_across_engines() {
        // Paper: "a significant change of around 2-13% in the prediction
        // error across the three engines".
        let exp = run(&EngineFarm::new(), ModelId::InceptionV4, 3);
        assert_eq!(exp.rows.len(), 3);
        assert!(
            exp.error_spread() > 0.2,
            "error spread {:.2} — engines predicted identically",
            exp.error_spread()
        );
    }

    #[test]
    fn predictions_are_right_order_of_magnitude() {
        let exp = run(&EngineFarm::new(), ModelId::Mobilenetv1, 2);
        for r in &exp.rows {
            assert!(r.predicted_ms > 0.0);
            assert!(
                r.error_percent < 80.0,
                "engine {}: error {:.1}%",
                r.engine,
                r.error_percent
            );
        }
    }

    #[test]
    fn renders() {
        let exp = run(&EngineFarm::new(), ModelId::Mobilenetv1, 2);
        let s = render(&exp);
        assert!(s.contains("Error (%)"));
        assert!(s.contains("error spread"));
    }
}
