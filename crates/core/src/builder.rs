//! The engine builder: runs the full Figure 2 pipeline.

use trtsim_gpu::device::DeviceSpec;
use trtsim_ir::Graph;

use crate::autotune::{self, AutotuneOptions};
use crate::calibrate::{self, CalibrationTable};
use crate::compress;
use crate::config::BuilderConfig;
use crate::engine::{BuildReport, Engine, EngineData, ExecUnit, IoBytes};
use crate::error::EngineError;
use crate::passes::{self, PassReport};

/// Builds [`Engine`]s for one target device (TensorRT `IBuilder` analog).
///
/// # Examples
///
/// ```
/// use trtsim_core::{Builder, BuilderConfig};
/// use trtsim_gpu::device::DeviceSpec;
/// use trtsim_ir::graph::{Graph, LayerKind};
///
/// let mut g = Graph::new("m", [3, 8, 8]);
/// let c = g.add_layer("c", LayerKind::conv_seeded(8, 3, 3, 1, 1, 0), &[Graph::INPUT]);
/// g.mark_output(c);
/// let engine = Builder::new(DeviceSpec::xavier_nx(), BuilderConfig::default())
///     .build(&g)?;
/// assert_eq!(engine.launch_count(), 1);
/// # Ok::<(), trtsim_core::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Builder {
    device: DeviceSpec,
    config: BuilderConfig,
}

impl Builder {
    /// Creates a builder targeting `device`.
    pub fn new(device: DeviceSpec, config: BuilderConfig) -> Self {
        Self { device, config }
    }

    /// The target device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The configuration.
    pub fn config(&self) -> &BuilderConfig {
        &self.config
    }

    /// Runs the optimization pipeline and returns a built engine.
    ///
    /// Each call without a pinned seed behaves like a fresh TensorRT build:
    /// tactic timing noise is drawn anew, so repeated builds of the same
    /// network may select different kernels.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the network is invalid, a layer has no
    /// tactic, or INT8 calibration fails.
    pub fn build(&self, network: &Graph) -> Result<Engine, EngineError> {
        let build_seed = self.config.resolve_seed();

        // Figure 2, steps 1-3 (each independently ablatable).
        let mut passes_report = PassReport::default();
        let mut g = network.clone();
        if self.config.enable_dead_layer {
            let (next, r) = passes::dead_layer::run(&g)?;
            passes_report.merge(&r);
            g = next;
        } else {
            g.validate()?;
        }
        if self.config.enable_vertical_fusion {
            let (next, r) = passes::vertical_fusion::run(&g)?;
            passes_report.merge(&r);
            g = next;
        }
        if self.config.enable_horizontal_merge {
            let (next, r) = passes::horizontal_merge::run(&g)?;
            passes_report.merge(&r);
            g = next;
        }

        // Step 4a: weight compression.
        let (g, compressed_blobs) = if self.config.enable_clustering || self.config.enable_pruning {
            compress::compress_graph(
                &g,
                self.config
                    .enable_clustering
                    .then_some(self.config.cluster_bits),
                self.config
                    .enable_pruning
                    .then_some(self.config.prune_threshold),
            )
        } else {
            (g, 0)
        };

        // Step 4b: INT8 calibration (only when images were provided).
        let calibration: CalibrationTable =
            if self.config.policy.allow_int8 && !self.config.calibration.is_empty() {
                calibrate::calibrate(&g, &self.config.calibration)?
            } else {
                CalibrationTable::new()
            };

        // Step 5: timing-based kernel mapping. Per-node RNG streams keep the
        // result bit-identical at any thread count and under any cache state.
        let choices = autotune::select(
            &g,
            self.config.policy,
            &calibration,
            &self.device,
            build_seed,
            &AutotuneOptions {
                noise_sd: self.config.timing_noise_sd,
                samples: self.config.timing_samples,
                threads: self.config.resolve_build_threads(g.len()),
                cache: self.config.timing_cache.as_deref(),
            },
        )?;

        let shapes = g.infer_shapes()?;
        let units: Vec<ExecUnit> = choices
            .into_iter()
            .enumerate()
            .map(|(id, choice)| ExecUnit {
                quant: choice.as_ref().and_then(|_| calibration.get(&id).copied()),
                choice,
            })
            .collect();

        // Each candidate is timed `samples` times (at least once).
        let autotune_measurements = units
            .iter()
            .filter_map(|u| u.choice.as_ref())
            .map(|c| c.candidates as u64)
            .sum::<u64>()
            * u64::from(self.config.timing_samples.max(1));
        Ok(Engine::new(EngineData {
            name: network.name().to_string(),
            io: IoBytes::of(&g, &shapes),
            graph: g,
            shapes,
            units,
            build_platform: self.device.platform,
            build_seed,
            report: BuildReport {
                passes: passes_report,
                compressed_blobs,
                autotune_measurements,
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_gpu::device::Platform;
    use trtsim_ir::graph::{Activation, Graph, LayerKind};
    use trtsim_ir::weights::Weights;
    use trtsim_ir::Tensor;
    use trtsim_util::rng::Pcg32;

    /// conv → bn → relu → {branch1x1 a, branch1x1 b} → concat → dropout → softmax
    fn rich_net() -> Graph {
        let mut g = Graph::new("rich", [3, 16, 16]);
        let mut conv = LayerKind::conv_seeded(8, 3, 3, 1, 1, 0);
        if let LayerKind::Conv(c) = &mut conv {
            c.activation = None;
            c.weights = Weights::Dense(c.weights.iter().collect());
        }
        let c1 = g.add_layer("c1", conv, &[Graph::INPUT]);
        let bn = g.add_layer(
            "bn",
            LayerKind::BatchNorm {
                mean: vec![0.0; 8],
                var: vec![1.0; 8],
                gamma: vec![1.0; 8],
                beta: vec![0.0; 8],
                eps: 1e-5,
            },
            &[c1],
        );
        let relu = g.add_layer("relu", LayerKind::Act(Activation::Relu), &[bn]);
        let mk_branch = |g: &mut Graph, name: &str, seed: u64, input| {
            let mut k = LayerKind::conv_seeded(4, 8, 1, 1, 0, seed);
            if let LayerKind::Conv(c) = &mut k {
                c.weights = Weights::Dense(c.weights.iter().collect());
            }
            g.add_layer(name, k, &[input])
        };
        let b1 = mk_branch(&mut g, "b1", 1, relu);
        let b2 = mk_branch(&mut g, "b2", 2, relu);
        let cat = g.add_layer("cat", LayerKind::Concat, &[b1, b2]);
        let drop = g.add_layer("drop", LayerKind::Dropout { rate: 0.4 }, &[cat]);
        let gp = g.add_layer(
            "gp",
            LayerKind::GlobalPool {
                kind: trtsim_ir::graph::PoolKind::Avg,
            },
            &[drop],
        );
        let sm = g.add_layer("sm", LayerKind::Softmax, &[gp]);
        g.mark_output(sm);
        g
    }

    #[test]
    fn full_pipeline_runs_all_passes() {
        let engine = Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(5),
        )
        .build(&rich_net())
        .unwrap();
        let r = engine.report().passes;
        assert_eq!(r.removed, 1, "dropout removed");
        assert_eq!(r.fused, 2, "bn+relu fused");
        assert_eq!(r.merged, 1, "branches merged");
        assert_eq!(engine.build_platform(), Platform::Nx);
        // Fewer launches than source layers.
        assert!(engine.launch_count() < rich_net().len() - 1);
    }

    #[test]
    fn pinned_builds_are_identical() {
        let net = rich_net();
        let b = Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(9),
        );
        assert_eq!(b.build(&net).unwrap(), b.build(&net).unwrap());
    }

    #[test]
    fn thread_count_and_cache_never_change_the_engine() {
        use crate::timing_cache::TimingCache;
        use std::sync::Arc;
        let net = rich_net();
        let device = DeviceSpec::xavier_nx();
        let reference = Builder::new(
            device.clone(),
            BuilderConfig::default()
                .with_build_seed(9)
                .with_build_threads(1),
        )
        .build(&net)
        .unwrap();
        let cache = Arc::new(TimingCache::new());
        for threads in [0, 2, 8] {
            // Cold then warm cache at each thread count; all bit-identical.
            for _ in 0..2 {
                let engine = Builder::new(
                    device.clone(),
                    BuilderConfig::default()
                        .with_build_seed(9)
                        .with_build_threads(threads)
                        .with_timing_cache(cache.clone()),
                )
                .build(&net)
                .unwrap();
                assert_eq!(reference, engine, "threads={threads}");
            }
        }
        assert!(cache.stats().hits > 0, "warm rebuilds must hit the cache");
    }

    #[test]
    fn unpinned_builds_differ_in_seed() {
        let net = rich_net();
        let b = Builder::new(DeviceSpec::xavier_nx(), BuilderConfig::default());
        let e1 = b.build(&net).unwrap();
        let e2 = b.build(&net).unwrap();
        assert_ne!(e1.build_seed(), e2.build_seed());
    }

    #[test]
    fn warm_cache_preserves_build_to_build_drift() {
        use crate::timing_cache::TimingCache;
        use std::sync::Arc;
        // The cache memoizes only deterministic times; noise is drawn fresh
        // per build, so different seeds must keep selecting different kernel
        // sets (Tables XII/XIII) even with every timing query served warm.
        let net = rich_net();
        let cache = Arc::new(TimingCache::new());
        let kernel_sets: Vec<Vec<String>> = (0..12)
            .map(|seed| {
                let engine = Builder::new(
                    DeviceSpec::xavier_nx(),
                    BuilderConfig::default()
                        .with_build_seed(seed)
                        .with_timing_cache(cache.clone()),
                )
                .build(&net)
                .unwrap();
                engine
                    .units()
                    .iter()
                    .filter_map(|u| u.choice.as_ref().map(|c| c.kernel.name.to_string()))
                    .collect()
            })
            .collect();
        assert!(
            kernel_sets.iter().any(|s| *s != kernel_sets[0]),
            "12 warm-cache builds all chose identical kernel sets"
        );
        assert!(cache.stats().hits > 0, "builds never hit the warm cache");
    }

    #[test]
    fn semantics_preserved_through_whole_pipeline() {
        use crate::runtime::ExecutionContext;
        let net = rich_net();
        let engine = Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(3),
        )
        .build(&net)
        .unwrap();
        let ctx = ExecutionContext::new(&engine, DeviceSpec::xavier_nx());
        let mut rng = Pcg32::seed_from_u64(11);
        let input = Tensor::from_fn([3, 16, 16], |_, _, _| rng.normal() as f32);
        let reference = trtsim_ir::ReferenceExecutor::new(&net)
            .unwrap()
            .run(&input)
            .unwrap();
        let optimized = ctx.infer(&input).unwrap();
        assert_eq!(reference.len(), optimized.len());
        for (a, b) in reference[0].as_slice().iter().zip(optimized[0].as_slice()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn int8_build_quantizes_convs() {
        let net = rich_net();
        let mut rng = Pcg32::seed_from_u64(0);
        let calib: Vec<Tensor> = (0..3)
            .map(|_| Tensor::from_fn([3, 16, 16], |_, _, _| rng.normal() as f32))
            .collect();
        let engine = Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default()
                .with_build_seed(0)
                .with_calibration(calib),
        )
        .build(&net)
        .unwrap();
        // Calibration makes INT8 tactics *available*; the autotuner may or
        // may not pick them, but quant tables must align with choices.
        for unit in engine.units() {
            if let Some(c) = &unit.choice {
                if c.tactic.precision == trtsim_gpu::kernel::Precision::Int8 {
                    assert!(unit.quant.is_some());
                }
            }
        }
    }

    #[test]
    fn invalid_network_rejected() {
        let g = Graph::new("empty", [1, 1, 1]); // no outputs
        let err = Builder::new(DeviceSpec::xavier_nx(), BuilderConfig::default())
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidNetwork(_)));
    }
}
