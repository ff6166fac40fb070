//! Timing-based tactic selection (Figure 2, step 5) — the non-determinism
//! engine.
//!
//! For every layer, each candidate tactic is "measured" on the build device:
//! the analytic timing model provides the true cost, and each measurement
//! adds multiplicative noise drawn from the build's RNG (a real SoC's
//! run-to-run variation under DVFS, thermal, and co-tenant load). The fastest
//! *measured* tactic wins. Near-tied candidates — common, because several
//! tile shapes suit a layer almost equally — therefore resolve differently
//! from build to build: different builds of the same network genuinely run
//! different kernels (paper Tables XII/XIII) and produce different
//! accumulation orders (paper Tables V/VI).
//!
//! # Determinism model
//!
//! Each node draws its noise from an **independent RNG stream** seeded by
//! [`stream_seed`]`(build_seed, node.id)` — a pure function of the build seed
//! and the node id, never of measurement order. Layers can therefore be
//! measured concurrently on a scoped worker pool
//! ([`trtsim_util::pool::map_indexed`]) while staying bit-identical to the
//! sequential path for a pinned seed. The deterministic component of each
//! measurement may additionally be served from a shared [`TimingCache`];
//! noise is still drawn fresh per measurement, so a warm cache never changes
//! which tactic wins and build-to-build non-determinism survives caching.

use trtsim_gpu::device::DeviceSpec;
use trtsim_gpu::kernel::KernelDesc;
use trtsim_gpu::timing::kernel_time_us;
use trtsim_ir::flops::{graph_costs, LayerCost};
use trtsim_ir::graph::LayerKind;
use trtsim_ir::Graph;
use trtsim_kernels::catalog::{candidate_tactics, PrecisionPolicy};
use trtsim_kernels::cost::kernel_desc;
use trtsim_kernels::tactic::Tactic;
use trtsim_util::pool::map_indexed;
use trtsim_util::rng::{stream_seed, Pcg32};

use crate::calibrate::CalibrationTable;
use crate::error::EngineError;
use crate::timing_cache::TimingCache;

/// A layer's selected implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct Choice {
    /// The winning tactic.
    pub tactic: Tactic,
    /// Its kernel descriptor at this layer's shape.
    pub kernel: KernelDesc,
    /// The noisy time that won selection, µs (diagnostic).
    pub measured_us: f64,
    /// How many candidates were measured.
    pub candidates: usize,
}

/// Knobs of one autotuning run, split from [`crate::BuilderConfig`] so the
/// selector can be driven directly (property tests, benches). Built as a
/// struct literal; [`crate::BuilderConfig`]'s setters validate the values
/// the builder passes in.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutotuneOptions<'a> {
    /// Relative standard deviation of each timing measurement.
    pub noise_sd: f64,
    /// Noisy measurements averaged per tactic (TensorRT `avgTiming`).
    pub samples: u32,
    /// Worker threads measuring layers concurrently; `<= 1` selects the
    /// sequential fallback path. Either way the result is bit-identical.
    pub threads: usize,
    /// Optional shared cache for the deterministic timing component.
    pub cache: Option<&'a TimingCache>,
}

/// Selects a tactic for every node; `None` for structural nodes.
///
/// Layer measurement order never influences the outcome (per-node RNG
/// streams), so `opts.threads` trades wall-clock for nothing else.
///
/// # Errors
///
/// Propagates shape errors from the graph, and [`EngineError::NoTactic`] for
/// compute layers with no candidate under the policy.
pub fn select(
    graph: &Graph,
    policy: PrecisionPolicy,
    calibration: &CalibrationTable,
    device: &DeviceSpec,
    build_seed: u64,
    opts: &AutotuneOptions<'_>,
) -> Result<Vec<Option<Choice>>, EngineError> {
    let shapes = graph.infer_shapes()?;
    let costs = graph_costs(graph)?;
    let nodes = graph.nodes();
    let results = map_indexed(opts.threads, nodes.len(), |id| {
        select_node(
            graph,
            id,
            policy,
            calibration,
            device,
            shapes[id],
            &costs[id],
            build_seed,
            opts,
        )
    });
    results.into_iter().collect()
}

/// Measures every candidate of one node on its own RNG stream. Pure in
/// `(graph, id, build_seed, options)` — the worker-pool determinism contract.
#[allow(clippy::too_many_arguments)]
fn select_node(
    graph: &Graph,
    id: usize,
    policy: PrecisionPolicy,
    calibration: &CalibrationTable,
    device: &DeviceSpec,
    shape: [usize; 3],
    cost: &LayerCost,
    build_seed: u64,
    opts: &AutotuneOptions<'_>,
) -> Result<Option<Choice>, EngineError> {
    let node = &graph.nodes()[id];
    let mut candidates = candidate_tactics(&node.kind, policy);
    // INT8 tactics are only usable where calibration observed the layer.
    if !calibration.contains_key(&node.id) {
        candidates.retain(|t| t.precision != trtsim_gpu::kernel::Precision::Int8);
    }
    if candidates.is_empty() {
        let needs_compute = cost.flops() > 0 && !matches!(node.kind, LayerKind::Input);
        if needs_compute {
            return Err(EngineError::NoTactic {
                node: node.name.clone(),
            });
        }
        return Ok(None);
    }
    let mut rng = Pcg32::seed_from_u64(stream_seed(build_seed, node.id as u64));
    let n_candidates = candidates.len();
    let mut best: Option<Choice> = None;
    // One session per node: the device fingerprint is folded once and every
    // candidate query takes the cache's shard-local fast path.
    let session = opts.cache.map(|cache| cache.session(device));
    for tactic in candidates {
        let kernel = kernel_desc(&tactic, &node.kind, cost, shape);
        let true_us = match &session {
            Some(session) => session.time_us(&kernel),
            None => kernel_time_us(&kernel, device),
        };
        let measured_us = measure(true_us, &mut rng, opts.noise_sd, opts.samples);
        if best.as_ref().is_none_or(|b| measured_us < b.measured_us) {
            best = Some(Choice {
                tactic,
                kernel,
                measured_us,
                candidates: n_candidates,
            });
        }
    }
    Ok(best)
}

/// Every kernel descriptor a default build of `graph` will time under
/// `policy` (INT8 candidates excluded, as for an uncalibrated build) — the
/// timing-cache query population. The default optimization pipeline
/// (dead-layer elimination, vertical fusion, horizontal merge) runs first
/// so the enumeration matches what [`crate::Builder::build`] actually hands
/// to the autotuner. `bench_build` replays it to compare cache hits against
/// analytic re-timing.
///
/// # Errors
///
/// Propagates shape/cost errors from the graph.
pub fn candidate_kernels(
    graph: &Graph,
    policy: PrecisionPolicy,
) -> Result<Vec<KernelDesc>, EngineError> {
    let (graph, _) = crate::passes::dead_layer::run(graph)?;
    let (graph, _) = crate::passes::vertical_fusion::run(&graph)?;
    let (graph, _) = crate::passes::horizontal_merge::run(&graph)?;
    let graph = &graph;
    let shapes = graph.infer_shapes()?;
    let costs = graph_costs(graph)?;
    let mut kernels = Vec::new();
    for node in graph.nodes() {
        let mut candidates = candidate_tactics(&node.kind, policy);
        candidates.retain(|t| t.precision != trtsim_gpu::kernel::Precision::Int8);
        for tactic in candidates {
            kernels.push(kernel_desc(
                &tactic,
                &node.kind,
                &costs[node.id],
                shapes[node.id],
            ));
        }
    }
    Ok(kernels)
}

/// One averaged noisy measurement.
fn measure(true_us: f64, rng: &mut Pcg32, noise_sd: f64, samples: u32) -> f64 {
    let samples = samples.max(1);
    let mut total = 0.0;
    for _ in 0..samples {
        total += true_us * (1.0 + noise_sd * rng.normal()).max(0.05);
    }
    total / f64::from(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_gpu::device::DeviceSpec;
    use trtsim_ir::graph::{Graph, LayerKind, PoolKind};

    fn conv_net() -> Graph {
        let mut g = Graph::new("t", [16, 32, 32]);
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
        let c2 = g.add_layer("c2", LayerKind::conv_seeded(80, 96, 3, 1, 1, 1), &[p]);
        g.mark_output(c2);
        g
    }

    fn run_select_with(seed: u64, opts: &AutotuneOptions<'_>) -> Vec<Option<Choice>> {
        let g = conv_net();
        select(
            &g,
            PrecisionPolicy::fp16(),
            &CalibrationTable::new(),
            &DeviceSpec::xavier_nx(),
            seed,
            opts,
        )
        .unwrap()
    }

    fn run_select(seed: u64, noise: f64) -> Vec<Option<Choice>> {
        run_select_with(
            seed,
            &AutotuneOptions {
                noise_sd: noise,
                samples: 1,
                ..AutotuneOptions::default()
            },
        )
    }

    #[test]
    fn compute_nodes_get_choices() {
        let choices = run_select(1, 0.06);
        assert!(choices[0].is_none()); // input
        assert!(choices[1].is_some());
        assert!(choices[2].is_some()); // pool
        assert!(choices[3].is_some());
        assert!(choices[1].as_ref().unwrap().candidates > 1);
    }

    #[test]
    fn same_seed_same_choices() {
        let a = run_select(7, 0.06);
        let b = run_select(7, 0.06);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        for seed in 0..8 {
            let sequential = run_select(seed, 0.06);
            for threads in [2, 4, 8] {
                let parallel = run_select_with(
                    seed,
                    &AutotuneOptions {
                        noise_sd: 0.06,
                        samples: 1,
                        threads,
                        cache: None,
                    },
                );
                assert_eq!(sequential, parallel, "threads={threads} seed={seed}");
            }
        }
    }

    #[test]
    fn warm_cache_never_changes_selection() {
        let cache = TimingCache::new();
        let baseline = run_select(3, 0.06);
        let cold = run_select_with(
            3,
            &AutotuneOptions {
                noise_sd: 0.06,
                samples: 1,
                threads: 1,
                cache: Some(&cache),
            },
        );
        assert!(cache.stats().misses > 0);
        let warm = run_select_with(
            3,
            &AutotuneOptions {
                noise_sd: 0.06,
                samples: 1,
                threads: 1,
                cache: Some(&cache),
            },
        );
        assert!(cache.stats().hits > 0);
        assert_eq!(baseline, cold);
        assert_eq!(cold, warm);
    }

    #[test]
    fn different_seeds_eventually_pick_different_kernels() {
        // The paper's core observation: rebuilds select different tactics.
        let baseline = run_select(0, 0.06);
        let mut any_diff = false;
        for seed in 1..24 {
            let other = run_select(seed, 0.06);
            for (a, b) in baseline.iter().zip(&other) {
                if let (Some(a), Some(b)) = (a, b) {
                    if a.tactic != b.tactic {
                        any_diff = true;
                    }
                }
            }
            if any_diff {
                break;
            }
        }
        assert!(
            any_diff,
            "24 rebuilds never changed a tactic — noise too weak"
        );
    }

    #[test]
    fn zero_noise_is_deterministic_across_seeds() {
        let a = run_select(1, 0.0);
        let b = run_select(2, 0.0);
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Some(x), Some(y)) => assert_eq!(x.tactic, y.tactic),
                (None, None) => {}
                _ => panic!("structural mismatch"),
            }
        }
    }

    #[test]
    fn noise_changes_with_more_samples_less() {
        // Averaging 16 samples should flip fewer decisions than 1 sample.
        let flips = |samples: u32| {
            let g = conv_net();
            let dev = DeviceSpec::xavier_nx();
            let mut base: Option<Vec<Option<Choice>>> = None;
            let mut flips = 0;
            for seed in 0..16 {
                let c = select(
                    &g,
                    PrecisionPolicy::fp16(),
                    &CalibrationTable::new(),
                    &dev,
                    seed,
                    &AutotuneOptions {
                        noise_sd: 0.06,
                        samples,
                        ..AutotuneOptions::default()
                    },
                )
                .unwrap();
                if let Some(b) = &base {
                    for (x, y) in b.iter().zip(&c) {
                        if let (Some(x), Some(y)) = (x, y) {
                            if x.tactic != y.tactic {
                                flips += 1;
                            }
                        }
                    }
                } else {
                    base = Some(c);
                }
            }
            flips
        };
        assert!(flips(16) <= flips(1), "{} > {}", flips(16), flips(1));
    }

    #[test]
    fn int8_requires_calibration_entry() {
        let g = conv_net();
        let choices = select(
            &g,
            PrecisionPolicy::all(),
            &CalibrationTable::new(), // empty: no INT8 anywhere
            &DeviceSpec::xavier_nx(),
            0,
            &AutotuneOptions::default(),
        )
        .unwrap();
        for c in choices.into_iter().flatten() {
            assert_ne!(c.tactic.precision, trtsim_gpu::kernel::Precision::Int8);
        }
    }
}
