//! Network graphs: layers, connectivity, validation.

use crate::error::IrError;
use crate::shape;
use crate::weights::Weights;

/// Identifier of a node within one [`Graph`]. Node 0 is always the input.
pub type NodeId = usize;

/// Pointwise non-linearity, optionally fused into a preceding layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// x for x ≥ 0, slope·x otherwise.
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu(slope) => {
                if x >= 0.0 {
                    x
                } else {
                    slope * x
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }
}

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window.
    Max,
    /// Arithmetic mean over the window.
    Avg,
}

/// How multi-input element-wise layers combine their operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EltwiseOp {
    /// Element-wise sum (ResNet shortcut joins).
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise product.
    Prod,
}

/// Parameters of a 2-D convolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvParams {
    /// Output channel count.
    pub out_channels: usize,
    /// Input channel count (must match the producer's output channels).
    pub in_channels: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width (equal to `kernel_h` for square kernels; Inception-style
    /// 1×7 / 7×1 factorized convolutions use rectangular kernels).
    pub kernel_w: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding rows (top and bottom).
    pub pad_h: usize,
    /// Zero padding columns (left and right).
    pub pad_w: usize,
    /// Grouped-convolution group count (`in == out == groups` ⇒ depthwise).
    pub groups: usize,
    /// Filter weights, `out_channels · in_channels/groups · kernel²` elements.
    pub weights: Weights,
    /// Bias, `out_channels` elements (empty = no bias).
    pub bias: Weights,
    /// Activation fused after the convolution, if any.
    pub activation: Option<Activation>,
}

impl ConvParams {
    /// Number of weight elements this convolution requires.
    pub fn expected_weight_len(&self) -> usize {
        self.out_channels * (self.in_channels / self.groups) * self.kernel_h * self.kernel_w
    }
}

/// One layer's operation. See the crate docs for the modeling conventions.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerKind {
    /// Graph input placeholder (node 0 only).
    Input,
    /// 2-D convolution.
    Conv(ConvParams),
    /// Spatial pooling.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Square window side.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
    },
    /// Pooling over the entire spatial extent, producing `[c, 1, 1]`.
    GlobalPool {
        /// Max or average.
        kind: PoolKind,
    },
    /// Fully-connected layer over the flattened input.
    InnerProduct {
        /// Output feature count.
        out_features: usize,
        /// Input feature count (flattened c·h·w of the producer).
        in_features: usize,
        /// Weights, `out_features · in_features` elements.
        weights: Weights,
        /// Bias, `out_features` elements (empty = no bias).
        bias: Weights,
        /// Fused activation, if any.
        activation: Option<Activation>,
    },
    /// Standalone activation layer.
    Act(Activation),
    /// Batch normalization (inference form).
    BatchNorm {
        /// Per-channel running mean.
        mean: Vec<f32>,
        /// Per-channel running variance.
        var: Vec<f32>,
        /// Per-channel scale.
        gamma: Vec<f32>,
        /// Per-channel shift.
        beta: Vec<f32>,
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Per-channel affine transform (Caffe `Scale`).
    Scale {
        /// Per-channel multiplier.
        scale: Vec<f32>,
        /// Per-channel offset.
        bias: Vec<f32>,
    },
    /// Local response normalization across channels (AlexNet/GoogLeNet).
    Lrn {
        /// Window size across channels.
        local_size: usize,
        /// Scaling parameter.
        alpha: f32,
        /// Exponent.
        beta: f32,
        /// Additive constant.
        k: f32,
    },
    /// Element-wise combination of ≥ 2 equal-shaped inputs.
    Eltwise {
        /// Combination operator.
        op: EltwiseOp,
    },
    /// Channel-axis concatenation of ≥ 2 inputs with equal spatial dims.
    Concat,
    /// Channel-wise softmax over a `[c, 1, 1]` tensor.
    Softmax,
    /// Nearest-neighbour spatial upsampling.
    Upsample {
        /// Integer scale factor.
        factor: usize,
    },
    /// Reshape to `[c·h·w, 1, 1]`.
    Flatten,
    /// Channel-range view `[begin, begin+len)` of the input (zero-copy; used
    /// by the horizontal-merge pass to split a merged convolution's output).
    Slice {
        /// First channel of the view.
        begin: usize,
        /// Number of channels in the view.
        len: usize,
    },
    /// Dropout — a no-op at inference; removed by the dead-layer pass.
    Dropout {
        /// Training-time drop rate (unused at inference).
        rate: f32,
    },
    /// Pass-through, used by tests and as a rewrite placeholder.
    Identity,
}

/// Input arity a layer kind accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly this many inputs.
    Exact(usize),
    /// At least this many inputs.
    AtLeast(usize),
}

impl LayerKind {
    /// Convenience constructor: a seeded square convolution with ReLU.
    ///
    /// # Examples
    ///
    /// ```
    /// use trtsim_ir::graph::LayerKind;
    /// let k = LayerKind::conv_seeded(16, 3, 3, 1, 1, 7);
    /// assert_eq!(k.kind_name(), "Conv");
    /// ```
    pub fn conv_seeded(
        out_channels: usize,
        in_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let len = out_channels * in_channels * kernel * kernel;
        LayerKind::Conv(ConvParams {
            out_channels,
            in_channels,
            kernel_h: kernel,
            kernel_w: kernel,
            stride,
            pad_h: pad,
            pad_w: pad,
            groups: 1,
            weights: Weights::seeded_he(seed, len, fan_in),
            bias: Weights::Dense(vec![0.0; out_channels]),
            activation: Some(Activation::Relu),
        })
    }

    /// Convenience constructor: a seeded fully-connected layer.
    pub fn fc_seeded(out_features: usize, in_features: usize, seed: u64) -> Self {
        LayerKind::InnerProduct {
            out_features,
            in_features,
            weights: Weights::seeded_he(seed, out_features * in_features, in_features),
            bias: Weights::Dense(vec![0.0; out_features]),
            activation: None,
        }
    }

    /// Short, stable name of the layer kind (used in kernel naming and logs).
    pub fn kind_name(&self) -> &'static str {
        match self {
            LayerKind::Input => "Input",
            LayerKind::Conv(_) => "Conv",
            LayerKind::Pool { .. } => "Pool",
            LayerKind::GlobalPool { .. } => "GlobalPool",
            LayerKind::InnerProduct { .. } => "InnerProduct",
            LayerKind::Act(_) => "Activation",
            LayerKind::BatchNorm { .. } => "BatchNorm",
            LayerKind::Scale { .. } => "Scale",
            LayerKind::Lrn { .. } => "LRN",
            LayerKind::Eltwise { .. } => "Eltwise",
            LayerKind::Concat => "Concat",
            LayerKind::Softmax => "Softmax",
            LayerKind::Upsample { .. } => "Upsample",
            LayerKind::Flatten => "Flatten",
            LayerKind::Slice { .. } => "Slice",
            LayerKind::Dropout { .. } => "Dropout",
            LayerKind::Identity => "Identity",
        }
    }

    /// Input arity this layer requires.
    pub fn arity(&self) -> Arity {
        match self {
            LayerKind::Input => Arity::Exact(0),
            LayerKind::Eltwise { .. } | LayerKind::Concat => Arity::AtLeast(2),
            _ => Arity::Exact(1),
        }
    }

    /// Whether the layer is a no-op at inference time (dead-layer candidates).
    pub fn is_inference_noop(&self) -> bool {
        matches!(self, LayerKind::Dropout { .. } | LayerKind::Identity)
    }

    /// Total learned parameter count of this layer.
    pub fn param_count(&self) -> usize {
        match self {
            LayerKind::Conv(c) => c.weights.len() + c.bias.len(),
            LayerKind::InnerProduct { weights, bias, .. } => weights.len() + bias.len(),
            LayerKind::BatchNorm {
                mean,
                var,
                gamma,
                beta,
                ..
            } => mean.len() + var.len() + gamma.len() + beta.len(),
            LayerKind::Scale { scale, bias } => scale.len() + bias.len(),
            _ => 0,
        }
    }
}

/// A node: one layer instance wired to its producers.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Position in the graph's node list.
    pub id: NodeId,
    /// Human-readable layer name (unique names are conventional, not enforced).
    pub name: String,
    /// The operation.
    pub kind: LayerKind,
    /// Producer node ids (always `< id`, so graphs are topological by construction).
    pub inputs: Vec<NodeId>,
}

/// A directed acyclic network graph with a single image input.
///
/// Nodes are stored in topological order by construction: a layer may only
/// consume nodes that already exist.
///
/// # Examples
///
/// ```
/// use trtsim_ir::graph::{Graph, LayerKind};
/// let mut g = Graph::new("demo", [3, 32, 32]);
/// let c1 = g.add_layer("c1", LayerKind::conv_seeded(8, 3, 3, 1, 1, 0), &[Graph::INPUT]);
/// let c2 = g.add_layer("c2", LayerKind::conv_seeded(8, 8, 3, 1, 1, 1), &[c1]);
/// g.mark_output(c2);
/// assert!(g.validate().is_ok());
/// assert_eq!(g.conv_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    name: String,
    input_shape: [usize; 3],
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
}

impl Graph {
    /// Id of the implicit input node.
    pub const INPUT: NodeId = 0;

    /// Creates an empty graph with the given input shape `[c, h, w]`.
    pub fn new(name: impl Into<String>, input_shape: [usize; 3]) -> Self {
        Self {
            name: name.into(),
            input_shape,
            nodes: vec![Node {
                id: 0,
                name: "input".to_string(),
                kind: LayerKind::Input,
                inputs: Vec::new(),
            }],
            outputs: Vec::new(),
        }
    }

    /// Appends a layer consuming the given producers; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any input id is not yet in the graph (this preserves the
    /// topological-order invariant); semantic errors are reported by
    /// [`Graph::validate`] instead.
    pub fn add_layer(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        inputs: &[NodeId],
    ) -> NodeId {
        let id = self.nodes.len();
        for &i in inputs {
            assert!(i < id, "layer input {i} does not exist yet");
        }
        self.nodes.push(Node {
            id,
            name: name.into(),
            kind,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// Marks a node as a graph output (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn mark_output(&mut self, id: NodeId) {
        assert!(id < self.nodes.len(), "output node {id} does not exist");
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input shape `[c, h, w]`.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Output node ids in marking order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Number of nodes including the input placeholder.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph contains only the input placeholder.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Ids of nodes that consume `id`.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// Number of convolution layers (the paper's Table II reports these).
    pub fn conv_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, LayerKind::Conv(_)))
            .count()
    }

    /// Number of max-pooling layers (Table II's second architecture column).
    pub fn max_pool_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    LayerKind::Pool {
                        kind: PoolKind::Max,
                        ..
                    } | LayerKind::GlobalPool {
                        kind: PoolKind::Max
                    }
                )
            })
            .count()
    }

    /// Total learned parameter count.
    pub fn param_count(&self) -> usize {
        self.nodes.iter().map(|n| n.kind.param_count()).sum()
    }

    /// Model size in bytes at 4 bytes/parameter (the "un-optimized model
    /// size" of the paper's Table II).
    pub fn fp32_bytes(&self) -> usize {
        self.param_count() * 4
    }

    /// Checks connectivity, arity, weight sizes, and shape compatibility.
    ///
    /// # Errors
    ///
    /// Returns the first [`IrError`] found walking nodes in topological order,
    /// or [`IrError::NoOutputs`] if no output was marked.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.outputs.is_empty() {
            return Err(IrError::NoOutputs);
        }
        self.infer_shapes().map(|_| ())
    }

    /// Infers every node's output shape. Index 0 is the input shape.
    ///
    /// # Errors
    ///
    /// Propagates arity/shape/weight-size errors from shape inference.
    pub fn infer_shapes(&self) -> Result<Vec<[usize; 3]>, IrError> {
        let mut shapes: Vec<[usize; 3]> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            if node.id == Self::INPUT {
                shapes.push(self.input_shape);
                continue;
            }
            for &input in &node.inputs {
                if input >= node.id {
                    return Err(IrError::DanglingInput {
                        node: node.name.clone(),
                        input,
                    });
                }
            }
            let in_shapes: Vec<[usize; 3]> = node.inputs.iter().map(|&i| shapes[i]).collect();
            shapes.push(shape::infer(&node.kind, &in_shapes, &node.name)?);
        }
        Ok(shapes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_graph() -> Graph {
        let mut g = Graph::new("t", [3, 16, 16]);
        let c1 = g.add_layer(
            "c1",
            LayerKind::conv_seeded(8, 3, 3, 1, 1, 0),
            &[Graph::INPUT],
        );
        let p1 = g.add_layer(
            "p1",
            LayerKind::Pool {
                kind: PoolKind::Max,
                kernel: 2,
                stride: 2,
                pad: 0,
            },
            &[c1],
        );
        let f = g.add_layer("flat", LayerKind::Flatten, &[p1]);
        let fc = g.add_layer("fc", LayerKind::fc_seeded(10, 8 * 8 * 8, 1), &[f]);
        g.mark_output(fc);
        g
    }

    #[test]
    fn builds_and_validates() {
        let g = linear_graph();
        assert!(g.validate().is_ok());
        assert_eq!(g.conv_count(), 1);
        assert_eq!(g.max_pool_count(), 1);
    }

    #[test]
    fn shapes_flow_through() {
        let g = linear_graph();
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[0], [3, 16, 16]);
        assert_eq!(shapes[1], [8, 16, 16]);
        assert_eq!(shapes[2], [8, 8, 8]);
        assert_eq!(shapes[3], [512, 1, 1]);
        assert_eq!(shapes[4], [10, 1, 1]);
    }

    #[test]
    fn no_outputs_is_an_error() {
        let mut g = Graph::new("t", [1, 4, 4]);
        g.add_layer("id", LayerKind::Identity, &[Graph::INPUT]);
        assert_eq!(g.validate(), Err(IrError::NoOutputs));
    }

    #[test]
    fn param_count_sums_layers() {
        let g = linear_graph();
        // conv: 8*3*3*3 + 8 bias; fc: 10*512 + 10 bias
        assert_eq!(g.param_count(), 8 * 3 * 3 * 3 + 8 + 10 * 512 + 10);
        assert_eq!(g.fp32_bytes(), g.param_count() * 4);
    }

    #[test]
    fn consumers_are_found() {
        let g = linear_graph();
        assert_eq!(g.consumers(1), vec![2]);
        assert!(g.consumers(4).is_empty());
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut g = linear_graph();
        g.mark_output(4);
        g.mark_output(4);
        assert_eq!(g.outputs(), &[4]);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut g = Graph::new("t", [1, 4, 4]);
        g.add_layer("bad", LayerKind::Identity, &[5]);
    }

    #[test]
    fn activation_values() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::LeakyRelu(0.1).apply(-10.0), -1.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!(Activation::Tanh.apply(100.0) <= 1.0);
    }

    #[test]
    fn arity_classifications() {
        assert_eq!(LayerKind::Concat.arity(), Arity::AtLeast(2));
        assert_eq!(LayerKind::Softmax.arity(), Arity::Exact(1));
        assert_eq!(LayerKind::Input.arity(), Arity::Exact(0));
    }

    #[test]
    fn inference_noops() {
        assert!(LayerKind::Dropout { rate: 0.5 }.is_inference_noop());
        assert!(LayerKind::Identity.is_inference_noop());
        assert!(!LayerKind::Softmax.is_inference_noop());
    }
}
