//! Numeric-scale classification models for the accuracy experiments.
//!
//! The accuracy tables (III–VI) need networks that actually classify. Since
//! no pretrained weights can ship with a simulator, each numeric model is a
//! channel-reduced version of its full-size topology whose final layer is a
//! **prototype head**: the classifier row for class `c` is the (normalized)
//! feature vector the extractor produces for class `c`'s dataset prototype —
//! one-shot nearest-prototype "training". On the class-prototype dataset
//! this classifies well, with accuracy controlled by the dataset's
//! signal-to-noise ratio.
//!
//! The **over-fitting** the paper invokes to explain Finding 1 is modeled
//! explicitly: [`build_classifier`] can jitter every weight after the head
//! is fit (an over-fitted model = ideal weights + high-frequency noise).
//! The engine builder's weight-clustering pass partially removes that
//! jitter, which is why optimized engines score slightly *better* — the
//! paper's explanation, executed.
//!
//! The paper's *un-optimized* network is [`unoptimized_engine`]: the graph
//! built as an FP32 engine with no graph pass and no weight compression,
//! run through the same precompiled plan as every TensorRT engine.

use trtsim_core::runtime::ExecutionContext;
use trtsim_core::{Builder, BuilderConfig, Engine, EngineError};
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_ir::graph::{Activation, Graph, LayerKind, NodeId};
use trtsim_ir::tensor::Tensor;
use trtsim_ir::weights::Weights;
use trtsim_kernels::catalog::PrecisionPolicy;
use trtsim_util::derive_seed;
use trtsim_util::rng::Pcg32;

use crate::common::NetBuilder;
use crate::ModelId;

const RELU: Option<Activation> = Some(Activation::Relu);

/// Input shape of every numeric model.
pub const NUMERIC_INPUT: [usize; 3] = [3, 32, 32];

/// Build seed of [`unoptimized_engine`]. Every FP32 tactic computes the
/// same bits, so the seed only fixes which kernel names the engine lists.
const UNOPTIMIZED_BUILD_SEED: u64 = 0;

/// Builds `network` as the paper's un-optimized network: an FP32-only
/// engine with no graph pass, no pruning and no clustering, under a fixed
/// build seed. On finite inputs its plan computes exactly what the
/// reference interpreter (`trtsim_ir::ReferenceExecutor`) computes, at a
/// fraction of the cost; on a non-finite input the plan scrubs NaN to zero
/// after every layer and the interpreter does not.
///
/// # Errors
///
/// Returns [`EngineError`] if `network` does not validate.
pub fn unoptimized_engine(network: &Graph) -> Result<Engine, EngineError> {
    let config = BuilderConfig::default()
        .with_policy(PrecisionPolicy::fp32_only())
        .without_graph_passes()
        .with_build_seed(UNOPTIMIZED_BUILD_SEED);
    Builder::new(DeviceSpec::pinned_clock(Platform::Nx), config).build(network)
}

/// Builds the feature extractor for a model's numeric variant (topology
/// mirrors the full model, channels scaled down ~16×). Ends with a flatten
/// node; returns `(builder, feature_node)`.
fn extractor(id: ModelId) -> (NetBuilder, NodeId) {
    match id {
        ModelId::Alexnet => {
            let mut b = NetBuilder::new("Alexnet-numeric", NUMERIC_INPUT);
            let c1 = b.conv(Graph::INPUT, 16, 5, 1, 2, RELU);
            let n1 = b.lrn(c1);
            let p1 = b.max_pool(n1, 2, 2, 0);
            let c2 = b.conv(p1, 32, 3, 1, 1, RELU);
            let n2 = b.lrn(c2);
            let p2 = b.max_pool(n2, 2, 2, 0);
            let c3 = b.conv(p2, 48, 3, 1, 1, RELU);
            let c4 = b.conv(c3, 48, 3, 1, 1, RELU);
            let c5 = b.conv(c4, 32, 3, 1, 1, RELU);
            let p5 = b.max_pool(c5, 2, 2, 0);
            let f = b.flatten(p5);
            (b, f)
        }
        ModelId::Vgg16 => {
            let mut b = NetBuilder::new("vgg-16-numeric", NUMERIC_INPUT);
            let mut x = Graph::INPUT;
            for (reps, channels) in [(2usize, 10usize), (2, 14), (2, 20)] {
                for _ in 0..reps {
                    x = b.conv(x, channels, 3, 1, 1, RELU);
                }
                x = b.max_pool(x, 2, 2, 0);
            }
            let f = b.flatten(x);
            (b, f)
        }
        ModelId::Resnet18 => {
            let mut b = NetBuilder::new("ResNet-18-numeric", NUMERIC_INPUT);
            let c1 = b.conv(Graph::INPUT, 8, 3, 1, 1, RELU);
            let mut x = c1;
            for (stage, channels) in [8usize, 16, 32].iter().enumerate() {
                for block in 0..2 {
                    let stride = if stage > 0 && block == 0 { 2 } else { 1 };
                    let bc1 = b.conv(x, *channels, 3, stride, 1, RELU);
                    let bc2 = b.conv(bc1, *channels, 3, 1, 1, None);
                    let skip = if stride != 1 || b.shape(x)[0] != *channels {
                        b.conv(x, *channels, 1, stride, 0, None)
                    } else {
                        x
                    };
                    let sum = b.add(bc2, skip);
                    x = b.act(sum, Activation::Relu);
                }
            }
            let dp = b.avg_pool(x, 2, 2, 0);
            let f = b.flatten(dp);
            (b, f)
        }
        ModelId::InceptionV4 | ModelId::Googlenet => {
            let name = if id == ModelId::InceptionV4 {
                "inception-v4-numeric"
            } else {
                "Googlenet-numeric"
            };
            let mut b = NetBuilder::new(name, NUMERIC_INPUT);
            let stem = b.conv(Graph::INPUT, 16, 3, 2, 1, RELU);
            let p1 = b.max_pool(stem, 3, 2, 1);
            let mut x = p1;
            let modules = if id == ModelId::InceptionV4 { 3 } else { 2 };
            for _ in 0..modules {
                let b1 = b.conv(x, 16, 1, 1, 0, RELU);
                let b3r = b.conv(x, 12, 1, 1, 0, RELU);
                let b3 = b.conv(b3r, 16, 3, 1, 1, RELU);
                let b5r = b.conv(x, 8, 1, 1, 0, RELU);
                let b5 = b.conv(b5r, 8, 5, 1, 2, RELU);
                let bp = b.max_pool(x, 3, 1, 1);
                let bpp = b.conv(bp, 8, 1, 1, 0, RELU);
                x = b.concat(&[b1, b3, b5, bpp]);
            }
            let dp = b.avg_pool(x, 2, 2, 0);
            let f = b.flatten(dp);
            (b, f)
        }
        other => panic!("{other} has no numeric classification variant"),
    }
}

/// Builds a complete numeric classifier for `id`.
///
/// * `prototypes` — one per class, from the synthetic dataset; the head is
///   fit to the extractor's features of these.
/// * `overfit_jitter` — relative weight noise applied *after* head fitting
///   (0.0 = ideally trained; the paper's un-optimized models use > 0).
/// * `seed` — jitter randomness.
///
/// # Panics
///
/// Panics if `prototypes` is empty, shapes mismatch [`NUMERIC_INPUT`], or
/// `id` has no numeric variant (detection/segmentation models).
pub fn build_classifier(
    id: ModelId,
    prototypes: &[Tensor],
    overfit_jitter: f32,
    seed: u64,
) -> Graph {
    assert!(!prototypes.is_empty(), "need at least one class prototype");
    let (mut b, feat) = extractor(id);
    // "Trained" weights carry discrete structure: weight decay and implicit
    // regularization concentrate weights around a few levels. Snapping the
    // seeded weights onto a coarse grid models that; it is also what makes
    // the engine's clustering pass able to *denoise* an over-fitted model
    // (Finding 1) — k-means can only recover structure that exists.
    snap_weights_to_levels(b.graph_mut(), 1.2);
    let feat_dim = {
        let s = b.shape(feat);
        s[0] * s[1] * s[2]
    };

    // Fit the prototype head on the clean extractor.
    let features: Vec<Vec<f32>> = {
        for p in prototypes {
            assert_eq!(p.shape(), NUMERIC_INPUT, "prototype shape mismatch");
        }
        let mut g = b.graph().clone();
        g.mark_output(feat);
        let engine = unoptimized_engine(&g).expect("extractor is valid");
        let ctx = ExecutionContext::new(&engine, DeviceSpec::pinned_clock(engine.build_platform()));
        ctx.infer_batch(prototypes, 1)
            .expect("extractor runs")
            .into_iter()
            .map(|out| out[0].as_slice().to_vec())
            .collect()
    };
    let classes = prototypes.len();
    let mut head = Vec::with_capacity(classes * feat_dim);
    for f in &features {
        let norm = f.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
        head.extend(f.iter().map(|x| x / norm));
    }

    let fc = b.graph().len();
    let fc = {
        let _ = fc;
        let mut kind = LayerKind::InnerProduct {
            out_features: classes,
            in_features: feat_dim,
            weights: Weights::Dense(head),
            bias: Weights::Dense(vec![0.0; classes]),
            activation: None,
        };
        if let LayerKind::InnerProduct { .. } = &mut kind {}
        b.push_raw("prototype_head", kind, feat)
    };
    let sm = b.softmax(fc);
    let mut graph = b.finish(&[sm]);

    if overfit_jitter > 0.0 {
        graph = apply_overfit(&graph, overfit_jitter, seed);
    }
    graph
}

/// Snaps every conv weight blob onto a grid of `step · std(w)` levels,
/// in place (numeric models only; see [`build_classifier`]).
pub fn snap_weights_to_levels(graph: &mut Graph, step_factor: f32) {
    let nodes: Vec<usize> = (1..graph.len()).collect();
    let mut rebuilt = Graph::new(graph.name().to_string(), graph.input_shape());
    for &id in &nodes {
        let node = graph.node(id);
        let mut kind = node.kind.clone();
        if let LayerKind::Conv(c) = &mut kind {
            let values: Vec<f32> = c.weights.iter().collect();
            let mean = values.iter().sum::<f32>() / values.len().max(1) as f32;
            let sd = (values.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>()
                / values.len().max(1) as f32)
                .sqrt()
                .max(1e-9);
            let q = step_factor * sd;
            c.weights = Weights::Dense(values.iter().map(|x| (x / q).round() * q).collect());
        }
        rebuilt.add_layer(node.name.clone(), kind, &node.inputs);
    }
    for &o in graph.outputs() {
        rebuilt.mark_output(o);
    }
    *graph = rebuilt;
}

/// Adds high-frequency jitter to every dense weight blob (over-fitting
/// model). Seeded weights are first materialized (numeric models are small).
pub fn apply_overfit(graph: &Graph, jitter: f32, seed: u64) -> Graph {
    let mut out = Graph::new(graph.name().to_string(), graph.input_shape());
    for node in graph.nodes().iter().skip(1) {
        let mut kind = node.kind.clone();
        match &mut kind {
            LayerKind::Conv(c) => {
                c.weights = jittered(&c.weights, jitter, derive_seed(seed, "ofc", node.id as u64));
            }
            LayerKind::InnerProduct { weights, .. } => {
                *weights = jittered(weights, jitter, derive_seed(seed, "off", node.id as u64));
            }
            _ => {}
        }
        out.add_layer(node.name.clone(), kind, &node.inputs);
    }
    for &o in graph.outputs() {
        out.mark_output(o);
    }
    out
}

fn jittered(w: &Weights, jitter: f32, seed: u64) -> Weights {
    let values: Vec<f32> = w.iter().collect();
    let sd = {
        let mean = values.iter().sum::<f32>() / values.len().max(1) as f32;
        (values.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / values.len().max(1) as f32)
            .sqrt()
    };
    let mut rng = Pcg32::seed_from_u64(seed);
    Weights::Dense(
        values
            .into_iter()
            .map(|x| x + jitter * sd * rng.normal() as f32)
            .collect(),
    )
}

impl NetBuilder {
    /// Appends a raw layer kind (used by the prototype head, which needs
    /// dense externally-computed weights).
    ///
    /// # Panics
    ///
    /// Panics if the layer is inconsistent with its input shape.
    pub fn push_raw(&mut self, name: &str, kind: LayerKind, input: NodeId) -> NodeId {
        let in_shape = self.shape(input);
        let out = trtsim_ir::shape::infer(&kind, &[in_shape], name)
            .unwrap_or_else(|e| panic!("model construction error at {name}: {e}"));
        let id = self.graph_mut().add_layer(name.to_string(), kind, &[input]);
        self.shapes_mut().push(out);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_ir::ReferenceExecutor;

    fn prototypes(classes: usize) -> Vec<Tensor> {
        let mut rng = Pcg32::seed_from_u64(1);
        (0..classes)
            .map(|_| Tensor::from_fn(NUMERIC_INPUT, |_, _, _| rng.normal() as f32))
            .collect()
    }

    #[test]
    fn classifier_builds_for_all_table5_models() {
        let protos = prototypes(4);
        for id in [
            ModelId::Alexnet,
            ModelId::Resnet18,
            ModelId::Vgg16,
            ModelId::InceptionV4,
            ModelId::Googlenet,
        ] {
            let g = build_classifier(id, &protos, 0.0, 0);
            assert!(g.validate().is_ok(), "{id}");
            let shapes = g.infer_shapes().unwrap();
            assert_eq!(shapes[g.outputs()[0]], [4, 1, 1]);
        }
    }

    #[test]
    fn clean_model_classifies_prototypes_perfectly() {
        let protos = prototypes(6);
        let g = build_classifier(ModelId::Resnet18, &protos, 0.0, 0);
        let exec = ReferenceExecutor::new(&g).unwrap();
        for (c, p) in protos.iter().enumerate() {
            let out = exec.run(p).unwrap();
            assert_eq!(out[0].argmax(), Some(c), "prototype {c} misclassified");
        }
    }

    #[test]
    fn clean_model_tolerates_mild_noise() {
        let protos = prototypes(6);
        let g = build_classifier(ModelId::Alexnet, &protos, 0.0, 0);
        let exec = ReferenceExecutor::new(&g).unwrap();
        let mut rng = Pcg32::seed_from_u64(7);
        let mut correct = 0;
        let trials = 30;
        for t in 0..trials {
            let c = t % 6;
            let mut img = protos[c].clone();
            for v in img.as_mut_slice() {
                *v += 0.3 * rng.normal() as f32;
            }
            if exec.run(&img).unwrap()[0].argmax() == Some(c) {
                correct += 1;
            }
        }
        assert!(correct * 10 >= trials * 8, "{correct}/{trials}");
    }

    #[test]
    fn overfit_jitter_degrades_accuracy() {
        let protos = prototypes(6);
        let clean = build_classifier(ModelId::Vgg16, &protos, 0.0, 0);
        let overfit = build_classifier(ModelId::Vgg16, &protos, 0.35, 3);
        let acc = |g: &Graph| {
            let exec = ReferenceExecutor::new(g).unwrap();
            let mut rng = Pcg32::seed_from_u64(9);
            let mut correct = 0;
            for t in 0..48 {
                let c = t % 6;
                let mut img = protos[c].clone();
                for v in img.as_mut_slice() {
                    *v += 0.8 * rng.normal() as f32;
                }
                if exec.run(&img).unwrap()[0].argmax() == Some(c) {
                    correct += 1;
                }
            }
            correct
        };
        assert!(
            acc(&overfit) <= acc(&clean),
            "jitter should not help: {} vs {}",
            acc(&overfit),
            acc(&clean)
        );
    }

    #[test]
    fn overfit_is_deterministic() {
        let protos = prototypes(3);
        let a = build_classifier(ModelId::Googlenet, &protos, 0.2, 5);
        let b = build_classifier(ModelId::Googlenet, &protos, 0.2, 5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "no numeric classification variant")]
    fn detection_models_have_no_numeric_variant() {
        build_classifier(ModelId::TinyYolov3, &prototypes(2), 0.0, 0);
    }
}
