//! Workspace property tests for the numeric inference fast path.
//!
//! The contract under test is the one `bench_infer` enforces on one model:
//! the precompiled [`trtsim::InferencePlan`] must be bit-identical (under
//! `f32` equality) to the naive interpreter, and the batch APIs must return
//! the same results at every thread count — here checked across *random*
//! networks and inputs instead of a single zoo model.

use proptest::prelude::*;
use trtsim::data::SyntheticImageNet;
use trtsim::engine::{Builder, BuilderConfig, ExecutionContext};
use trtsim::ir::graph::{Activation, ConvParams, Graph, LayerKind, PoolKind};
use trtsim::ir::layout::{convert, Layout};
use trtsim::ir::weights::Weights;
use trtsim::ir::Tensor;
use trtsim::models::numeric::{build_classifier, NUMERIC_INPUT};
use trtsim::models::ModelId;
use trtsim::util::rng::Pcg32;
use trtsim::{DeviceSpec, InferencePlan, PlanScratch};

/// A seeded 3x3 depthwise convolution (`groups == in == out`) — the shape
/// the autotuner resolves to the NHWC-layout depthwise lane tactic.
fn depthwise_seeded(channels: usize, seed: u64) -> LayerKind {
    LayerKind::Conv(ConvParams {
        out_channels: channels,
        in_channels: channels,
        kernel_h: 3,
        kernel_w: 3,
        stride: 1,
        pad_h: 1,
        pad_w: 1,
        groups: channels,
        weights: Weights::seeded_he(seed, channels * 9, 9),
        bias: Weights::Dense(vec![0.0; channels]),
        activation: Some(Activation::Relu),
    })
}

/// A random small conv/branch/pool network over a `[3, 16, 16]` input.
/// Roughly every third stage tacks on a depthwise conv, so the proptests
/// below also cover the NHWC lane path and its layout converts.
fn arb_network() -> impl Strategy<Value = Graph> {
    (1u64..1000, 2usize..5, 1usize..3).prop_map(|(seed, depth, branches)| {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut g = Graph::new(format!("fp{seed}"), [3, 16, 16]);
        let mut frontier = vec![(Graph::INPUT, 3usize)];
        for d in 0..depth {
            let (from, in_c) = frontier[rng.range_usize(frontier.len())];
            let out_c = 2 + rng.range_usize(6);
            let mut stage = g.add_layer(
                format!("c{d}"),
                LayerKind::conv_seeded(out_c, in_c, 3, 1, 1, seed + d as u64),
                &[from],
            );
            if rng.range_usize(3) == 0 {
                stage = g.add_layer(
                    format!("dw{d}"),
                    depthwise_seeded(out_c, seed + 500 + d as u64),
                    &[stage],
                );
            }
            frontier.push((stage, out_c));
        }
        let (last, last_c) = *frontier.last().unwrap();
        let mut branch_ids = Vec::new();
        for i in 0..branches {
            let kind = LayerKind::conv_seeded(4, last_c, 1, 1, 0, 100 + i as u64);
            branch_ids.push(g.add_layer(format!("b{i}"), kind, &[last]));
        }
        let out = if branch_ids.len() > 1 {
            g.add_layer("cat", LayerKind::Concat, &branch_ids)
        } else {
            branch_ids[0]
        };
        let drop = g.add_layer("drop", LayerKind::Dropout { rate: 0.5 }, &[out]);
        let gp = g.add_layer(
            "gp",
            LayerKind::GlobalPool {
                kind: PoolKind::Avg,
            },
            &[drop],
        );
        g.mark_output(gp);
        g
    })
}

/// A random finite input with a realistic share of exact zeros (post-ReLU
/// activations in real networks are sparse, and the fast path's zero
/// handling is exactly what must not change results).
fn random_input(seed: u64) -> Tensor {
    let mut rng = Pcg32::seed_from_u64(seed);
    Tensor::from_fn([3, 16, 16], |_, _, _| {
        if rng.range_usize(4) == 0 {
            0.0
        } else {
            (rng.normal() * 0.6) as f32
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The plan's output tensors equal the interpreter's exactly, for every
    /// output, across random networks, build seeds, and inputs.
    #[test]
    fn plan_is_bit_identical_to_interpreter(g in arb_network(), build_seed in 0u64..500) {
        let engine = Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(build_seed),
        )
        .build(&g)
        .expect("builds");
        let ctx = ExecutionContext::new(&engine, DeviceSpec::xavier_nx());
        for i in 0..3u64 {
            let input = random_input(build_seed * 31 + i);
            let planned = ctx.infer(&input).expect("planned path runs");
            let naive = ctx.infer_unplanned(&input).expect("interpreter runs");
            prop_assert_eq!(planned, naive);
        }
    }
}

/// A batch larger than the worker count, made of all-zero tensors (the
/// degenerate input the zero-skipping fast path most wants to mishandle),
/// still yields one output per input.
#[test]
fn uneven_batch_of_zero_inputs_yields_all_outputs() {
    let mut g = Graph::new("m", [3, 8, 8]);
    let conv = g.add_layer(
        "c0",
        LayerKind::conv_seeded(4, 3, 3, 1, 1, 0),
        &[Graph::INPUT],
    );
    g.mark_output(conv);
    let engine = Builder::new(
        DeviceSpec::xavier_nx(),
        BuilderConfig::default().with_build_seed(1),
    )
    .build(&g)
    .expect("builds");
    let ctx = ExecutionContext::new(&engine, DeviceSpec::xavier_nx());
    let inputs: Vec<Tensor> = (0..5).map(|_| Tensor::zeros([3, 8, 8])).collect();
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let out = ctx.infer_batch(&refs, 4).expect("batch runs");
    assert_eq!(out.len(), 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `infer_batch` and `classify_batch` return the same results at every
    /// thread count, and match a sequential `infer` loop element-for-element.
    #[test]
    fn batch_apis_are_thread_count_invariant(g in arb_network(), build_seed in 0u64..500) {
        let engine = Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(build_seed),
        )
        .build(&g)
        .expect("builds");
        let ctx = ExecutionContext::new(&engine, DeviceSpec::xavier_nx());
        let inputs: Vec<Tensor> = (0..5).map(|i| random_input(build_seed * 97 + i)).collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();

        let sequential: Vec<_> = refs
            .iter()
            .map(|t| ctx.infer(t).expect("runs"))
            .collect();
        let labels: Vec<usize> = sequential
            .iter()
            .map(|o| o[0].argmax().unwrap_or(0))
            .collect();
        for threads in [1usize, 2, 5, 16] {
            let batched = ctx.infer_batch(&refs, threads).expect("batch runs");
            prop_assert_eq!(&batched, &sequential);
            let classified = ctx.classify_batch(&refs, threads).expect("classify runs");
            prop_assert_eq!(&classified, &labels);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Physical-layout round trips preserve every `f32` bit pattern — NaN
    /// payloads, signed zeros, and infinities included — for any logical
    /// shape, including channel counts that force `CHWc8` tail padding.
    #[test]
    fn layout_round_trips_are_byte_identical(
        c in 1usize..20,
        h in 1usize..6,
        w in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let shape = [c, h, w];
        let mut rng = Pcg32::seed_from_u64(seed);
        // Raw bit patterns, so NaNs/infinities/denormals all occur.
        let src: Vec<f32> = (0..c * h * w).map(|_| f32::from_bits(rng.next_u32())).collect();
        for via in [Layout::Nhwc, Layout::Chwc8] {
            let there = convert(&src, shape, Layout::Chw, via);
            prop_assert_eq!(there.len(), via.physical_len(shape));
            let back = convert(&there, shape, via, Layout::Chw);
            for (i, (a, b)) in src.iter().zip(&back).enumerate() {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "element {} differs after round trip via {:?}",
                    i,
                    via
                );
            }
        }
    }
}

/// Every plan step takes its output from the scratch arena and releases it
/// back, so a reused scratch reaches its full footprint on the first
/// execution and never grows after that.
#[test]
fn reused_scratch_stops_growing_on_googlenet() {
    let dataset = SyntheticImageNet::new(4, NUMERIC_INPUT, 17).with_snr(1.0, 1.0);
    let prototypes: Vec<_> = (0..4).map(|c| dataset.prototype(c)).collect();
    let network = build_classifier(ModelId::Googlenet, &prototypes, 0.1, 3);
    let engine = Builder::new(
        DeviceSpec::xavier_nx(),
        BuilderConfig::default()
            .with_build_seed(5)
            .with_pruning(true),
    )
    .build(&network)
    .expect("builds");
    let plan = InferencePlan::compile(&engine).expect("compiles");
    let mut scratch = PlanScratch::new();
    let mut retained = Vec::new();
    for i in 0..20 {
        plan.execute(&prototypes[i % 4], &mut scratch)
            .expect("runs");
        retained.push(scratch.arena().retained_bytes());
    }
    assert!(retained[1] > 0);
    assert_eq!(
        retained[1], retained[19],
        "retained bytes per execution: {retained:?}"
    );
}
