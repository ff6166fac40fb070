//! λ calibration and cross-platform prediction (the Tables XVII/XVIII
//! experiment).
//!
//! Following \[56\], λ for each kernel is the ratio between the raw Eq. 2
//! prediction and the measured execution time on a calibration platform; the
//! same λ is then reused to predict the kernel on another platform with the
//! same microarchitecture. The application's predicted time is
//! `Σ T_kernel · invocations`.

use std::collections::BTreeMap;

use trtsim_core::engine::Engine;
use trtsim_gpu::device::DeviceSpec;
use trtsim_gpu::timing::kernel_busy_us;
use trtsim_util::rng::Pcg32;

use crate::bsp::{predict_raw_us, BspParams};

/// Per-kernel-symbol λ values calibrated on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaTable {
    entries: BTreeMap<String, f64>,
}

impl LambdaTable {
    /// Calibrates λ for every kernel of `engine` by "measuring" it on
    /// `device` (the simulator's timing model plus measurement noise).
    pub fn calibrate(
        engine: &Engine,
        device: &DeviceSpec,
        params: &BspParams,
        measurement_seed: u64,
    ) -> Self {
        let mut rng = Pcg32::seed_from_u64(measurement_seed);
        let mut entries = BTreeMap::new();
        for unit in engine.units() {
            let Some(choice) = &unit.choice else {
                continue;
            };
            let raw = predict_raw_us(&choice.kernel, device, params);
            let measured =
                kernel_busy_us(&choice.kernel, device).max(1e-6) * (1.0 + 0.02 * rng.normal());
            // Average λ across invocations of the same symbol.
            let lambda = raw / measured;
            entries
                .entry(choice.kernel.name.to_string())
                .and_modify(|l: &mut f64| *l = (*l + lambda) / 2.0)
                .or_insert(lambda);
        }
        Self { entries }
    }

    /// λ for a kernel symbol.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).copied()
    }

    /// Number of distinct kernel symbols calibrated.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no kernels were calibrated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(symbol, λ)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Predicted execution time of one inference of `engine` on `device`, µs,
/// using λs from a (possibly different) engine's calibration. Kernels with
/// no λ — possible because another build mapped to different kernels — fall
/// back to λ = 1, degrading the prediction exactly as the paper describes.
pub fn predict_engine_us(
    engine: &Engine,
    device: &DeviceSpec,
    params: &BspParams,
    lambdas: &LambdaTable,
) -> f64 {
    engine
        .units()
        .iter()
        .filter_map(|u| u.choice.as_ref())
        .map(|c| {
            let raw = predict_raw_us(&c.kernel, device, params);
            raw / lambdas.get(&c.kernel.name).unwrap_or(1.0)
        })
        .sum()
}

/// The full Tables XVII/XVIII experiment for one engine: calibrate on NX,
/// predict on AGX, compare against the simulated AGX execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionOutcome {
    /// Number of λ entries used.
    pub lambda_count: usize,
    /// Predicted AGX time, µs.
    pub predicted_us: f64,
    /// Simulated AGX time, µs.
    pub actual_us: f64,
}

impl PredictionOutcome {
    /// Runs the experiment.
    pub fn evaluate(
        engine: &Engine,
        calibration_device: &DeviceSpec,
        target_device: &DeviceSpec,
        seed: u64,
    ) -> Self {
        let params = crate::microbench::measure_params(calibration_device, seed);
        let lambdas = LambdaTable::calibrate(engine, calibration_device, &params, seed ^ 0xabc);
        let predicted_us = predict_engine_us(engine, target_device, &params, &lambdas);
        let actual_us: f64 = engine
            .units()
            .iter()
            .filter_map(|u| u.choice.as_ref())
            .map(|c| kernel_busy_us(&c.kernel, target_device))
            .sum();
        Self {
            lambda_count: lambdas.len(),
            predicted_us,
            actual_us,
        }
    }

    /// Absolute prediction error in percent.
    pub fn error_percent(&self) -> f64 {
        100.0 * (self.predicted_us - self.actual_us).abs() / self.actual_us.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_core::{Builder, BuilderConfig};
    use trtsim_ir::graph::{Graph, LayerKind, PoolKind};

    fn engine(seed: u64) -> Engine {
        let mut g = Graph::new("bsp_test", [16, 64, 64]);
        let c1 = g.add_layer(
            "c1",
            LayerKind::conv_seeded(96, 16, 3, 1, 1, 0),
            &[Graph::INPUT],
        );
        let p = g.add_layer(
            "p",
            LayerKind::Pool {
                kind: PoolKind::Max,
                kernel: 2,
                stride: 2,
                pad: 0,
            },
            &[c1],
        );
        let c2 = g.add_layer("c2", LayerKind::conv_seeded(128, 96, 3, 1, 1, 1), &[p]);
        let c3 = g.add_layer("c3", LayerKind::conv_seeded(64, 128, 1, 1, 0, 2), &[c2]);
        g.mark_output(c3);
        Builder::new(
            DeviceSpec::pinned_clock(trtsim_gpu::device::Platform::Nx),
            BuilderConfig::default().with_build_seed(seed),
        )
        .build(&g)
        .unwrap()
    }

    #[test]
    fn calibration_covers_all_kernels() {
        let e = engine(1);
        let dev = DeviceSpec::xavier_nx();
        let params = BspParams::nominal(&dev);
        let t = LambdaTable::calibrate(&e, &dev, &params, 0);
        assert!(!t.is_empty());
        for name in e.kernel_names() {
            assert!(t.get(&name).is_some(), "missing λ for {name}");
        }
    }

    #[test]
    fn self_prediction_is_nearly_exact() {
        // Calibrating and predicting on the same platform with the same
        // engine should land within measurement noise.
        let e = engine(2);
        let dev = DeviceSpec::xavier_nx();
        let params = BspParams::nominal(&dev);
        let t = LambdaTable::calibrate(&e, &dev, &params, 3);
        let predicted = predict_engine_us(&e, &dev, &params, &t);
        let actual: f64 = e
            .units()
            .iter()
            .filter_map(|u| u.choice.as_ref())
            .map(|c| kernel_busy_us(&c.kernel, &dev))
            .sum();
        let err = (predicted - actual).abs() / actual;
        assert!(err < 0.10, "self-prediction error {err:.3}");
    }

    #[test]
    fn cross_platform_prediction_has_error() {
        let e = engine(3);
        let outcome = PredictionOutcome::evaluate(
            &e,
            &DeviceSpec::pinned_clock(trtsim_gpu::device::Platform::Nx),
            &DeviceSpec::pinned_clock(trtsim_gpu::device::Platform::Agx),
            5,
        );
        assert!(outcome.predicted_us > 0.0);
        assert!(outcome.error_percent() < 100.0);
    }

    #[test]
    fn error_varies_across_engine_builds() {
        // The paper's headline: λs from one build do not transfer cleanly;
        // prediction error changes 2-13% across engines of the same model.
        let nx = DeviceSpec::pinned_clock(trtsim_gpu::device::Platform::Nx);
        let agx = DeviceSpec::pinned_clock(trtsim_gpu::device::Platform::Agx);
        let errors: Vec<f64> = (0..6)
            .map(|s| PredictionOutcome::evaluate(&engine(s), &nx, &agx, s).error_percent())
            .collect();
        let min = errors.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = errors.iter().cloned().fold(0.0, f64::max);
        assert!(
            max - min > 0.1,
            "errors suspiciously stable across builds: {errors:?}"
        );
    }

    #[test]
    fn missing_lambdas_fall_back() {
        let e = engine(4);
        let dev = DeviceSpec::xavier_nx();
        let params = BspParams::nominal(&dev);
        let empty = LambdaTable {
            entries: BTreeMap::new(),
        };
        let t = predict_engine_us(&e, &dev, &params, &empty);
        assert!(t > 0.0);
    }
}
