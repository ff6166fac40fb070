//! The built engine: an optimized graph with kernel assignments.

use std::collections::BTreeMap;
use std::sync::Arc;

use trtsim_gpu::device::Platform;
use trtsim_gpu::kernel::Precision;
use trtsim_ir::graph::LayerKind;
use trtsim_ir::Graph;
use trtsim_kernels::numeric::QuantDesc;

use crate::autotune::Choice;
use crate::passes::PassReport;

/// Per-platform bytes of embedded runtime/cubin payload in a serialized plan
/// (TensorRT plans carry device code; the AGX build embeds more SM
/// configurations). Calibrated against Table II's MTCNN row, where the
/// payload dominates a 1.9 MB model's 3.8 / 4.78 MB engines.
pub fn runtime_payload_bytes(platform: Platform) -> u64 {
    match platform {
        Platform::Nx => 2_800_000,
        Platform::Agx => 3_750_000,
    }
}

/// Serialized per-node metadata overhead (tactic record, tensor descriptors).
pub const NODE_METADATA_BYTES: u64 = 256;

/// One node's execution assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecUnit {
    /// Selected tactic and kernel, `None` for structural nodes.
    pub choice: Option<Choice>,
    /// INT8 scales, if this node runs quantized.
    pub quant: Option<QuantDesc>,
}

/// Precomputed H2D/D2H byte counts of one inference frame, memoized at
/// engine construction so the per-enqueue hot path does no shape walking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoBytes {
    /// Bytes of one FP32 input frame.
    pub input_bytes: u64,
    /// Bytes of all FP32 output bindings of one frame.
    pub output_bytes: u64,
}

impl IoBytes {
    /// Computes the per-frame transfer sizes from a graph and its shapes.
    pub fn of(graph: &Graph, shapes: &[[usize; 3]]) -> Self {
        let bytes = |s: &[usize; 3]| (s[0] * s[1] * s[2]) as u64 * 4;
        Self {
            input_bytes: bytes(&graph.input_shape()),
            output_bytes: graph.outputs().iter().map(|&id| bytes(&shapes[id])).sum(),
        }
    }
}

/// What the build did (pass statistics), kept for reporting. Every field
/// is a deterministic function of the network, configuration and device, so
/// parallel and sequential builds (cached or not) report the same values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildReport {
    /// Pass counters.
    pub passes: PassReport,
    /// Weight blobs compressed by clustering/pruning.
    pub compressed_blobs: usize,
    /// Noisy tactic timing measurements the autotuner took: the candidates
    /// timed per node times the samples per candidate.
    pub autotune_measurements: u64,
}

/// An immutable, runnable inference engine (TensorRT `ICudaEngine` analog).
///
/// Engines are produced by [`crate::Builder`] and consumed by
/// [`crate::runtime::ExecutionContext`]. Two engines built from the same
/// network are **not** guaranteed to be identical — that is the paper's
/// subject — unless the build seed was pinned.
///
/// An engine is a handle to one shared, never-mutated body: cloning it (a
/// fleet placing replicas, a server handing the engine to its workers) bumps
/// a reference count instead of copying the graph and weights. Equality
/// compares contents, so a clone and a plan round trip both compare equal.
#[derive(Debug, Clone)]
pub struct Engine {
    data: Arc<EngineData>,
}

/// The immutable body every clone of an [`Engine`] shares.
#[derive(Debug, PartialEq)]
pub(crate) struct EngineData {
    pub(crate) name: String,
    pub(crate) graph: Graph,
    pub(crate) shapes: Vec<[usize; 3]>,
    pub(crate) units: Vec<ExecUnit>,
    pub(crate) io: IoBytes,
    pub(crate) build_platform: Platform,
    pub(crate) build_seed: u64,
    pub(crate) report: BuildReport,
}

impl PartialEq for Engine {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.data, &other.data) || self.data == other.data
    }
}

impl Engine {
    /// Wraps a freshly built or deserialized body.
    pub(crate) fn new(data: EngineData) -> Self {
        Self {
            data: Arc::new(data),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.data.name
    }

    /// The optimized graph this engine executes.
    pub fn graph(&self) -> &Graph {
        &self.data.graph
    }

    /// Output shape of every optimized node.
    pub fn shapes(&self) -> &[[usize; 3]] {
        &self.data.shapes
    }

    /// Per-node execution assignments (aligned with `graph().nodes()`).
    pub fn units(&self) -> &[ExecUnit] {
        &self.data.units
    }

    /// Per-frame input/output transfer sizes, memoized at construction.
    pub fn io_bytes(&self) -> IoBytes {
        self.data.io
    }

    /// Platform the engine was built (autotuned) on.
    pub fn build_platform(&self) -> Platform {
        self.data.build_platform
    }

    /// The build's resolved seed (diagnostic; real TensorRT has no analog).
    pub fn build_seed(&self) -> u64 {
        self.data.build_seed
    }

    /// Build statistics.
    pub fn report(&self) -> &BuildReport {
        &self.data.report
    }

    /// Kernel launch sequence, one name per compute node, in execution order.
    pub fn kernel_names(&self) -> Vec<String> {
        self.units()
            .iter()
            .filter_map(|u| u.choice.as_ref().map(|c| c.kernel.name.to_string()))
            .collect()
    }

    /// Invocation count per kernel symbol — the paper's Table XIII view.
    pub fn kernel_invocations(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for name in self.kernel_names() {
            *out.entry(name).or_insert(0) += 1;
        }
        out
    }

    /// Number of kernel launches one inference performs.
    pub fn launch_count(&self) -> usize {
        self.units().iter().filter(|u| u.choice.is_some()).count()
    }

    /// Bytes of weights the plan stores, in each layer's selected precision.
    pub fn stored_weight_bytes(&self) -> u64 {
        let mut total = 0u64;
        for (node, unit) in self.graph().nodes().iter().zip(self.units()) {
            let params = match &node.kind {
                LayerKind::Conv(c) => Some((c.weights.len(), c.bias.len())),
                LayerKind::InnerProduct { weights, bias, .. } => Some((weights.len(), bias.len())),
                _ => None,
            };
            let Some((w_len, b_len)) = params else {
                continue;
            };
            let precision = unit
                .choice
                .as_ref()
                .map(|c| c.tactic.precision)
                .unwrap_or(Precision::Fp32);
            // Bias stays FP32 in all precisions (it adds into the accumulator).
            total += w_len as u64 * precision.bytes() as u64 + b_len as u64 * 4;
        }
        total
    }

    /// Count of compute layers per precision `(fp32, fp16, int8)`.
    pub fn precision_mix(&self) -> (usize, usize, usize) {
        let mut mix = (0, 0, 0);
        for unit in self.units() {
            if let Some(c) = &unit.choice {
                match c.tactic.precision {
                    Precision::Fp32 => mix.0 += 1,
                    Precision::Fp16 => mix.1 += 1,
                    Precision::Int8 => mix.2 += 1,
                }
            }
        }
        mix
    }

    /// Size of the serialized plan in bytes — the paper's Table II
    /// "TensorRT engine size".
    pub fn plan_size_bytes(&self) -> u64 {
        self.stored_weight_bytes()
            + self.launch_count() as u64 * NODE_METADATA_BYTES
            + runtime_payload_bytes(self.build_platform())
    }

    /// Total bytes of all activation bindings at FP16 (execution contexts
    /// allocate every binding).
    pub fn total_activation_bytes(&self) -> u64 {
        self.shapes()
            .iter()
            .skip(1)
            .map(|s| (s[0] * s[1] * s[2]) as u64 * 2)
            .sum()
    }

    /// Largest activation tensor in bytes at the widest stored precision
    /// (FP16 activations unless an FP32 layer touches them; conservatively 2
    /// bytes minimum).
    pub fn max_activation_bytes(&self) -> u64 {
        self.shapes()
            .iter()
            .map(|s| (s[0] * s[1] * s[2]) as u64 * 2)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::BuilderConfig;
    use trtsim_gpu::device::DeviceSpec;
    use trtsim_ir::graph::{Graph, LayerKind, PoolKind};

    fn small_engine(seed: u64) -> Engine {
        let mut g = Graph::new("m", [3, 32, 32]);
        let c1 = g.add_layer(
            "c1",
            LayerKind::conv_seeded(64, 3, 3, 1, 1, 0),
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
        let c2 = g.add_layer("c2", LayerKind::conv_seeded(64, 64, 3, 1, 1, 1), &[p]);
        g.mark_output(c2);
        Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(seed),
        )
        .build(&g)
        .unwrap()
    }

    #[test]
    fn engine_reports_kernels_and_sizes() {
        let e = small_engine(1);
        assert_eq!(e.launch_count(), 3); // 2 convs + pool
        assert_eq!(e.kernel_names().len(), 3);
        assert!(e.plan_size_bytes() > runtime_payload_bytes(Platform::Nx));
        assert!(e.stored_weight_bytes() > 0);
        assert!(e.max_activation_bytes() >= 64 * 32 * 32 * 2);
    }

    #[test]
    fn fp16_plan_is_smaller_than_fp32_weights() {
        let e = small_engine(2);
        let (_, fp16, _) = e.precision_mix();
        if fp16 > 0 {
            assert!(e.stored_weight_bytes() < e.graph().fp32_bytes() as u64);
        }
    }

    #[test]
    fn invocation_counts_sum_to_launches() {
        let e = small_engine(3);
        let total: usize = e.kernel_invocations().values().sum();
        assert_eq!(total, e.launch_count());
    }

    #[test]
    fn clones_share_one_body_and_compare_by_content() {
        let e = small_engine(4);
        let clone = e.clone();
        assert!(Arc::ptr_eq(&e.data, &clone.data));
        assert_eq!(clone, e);
        let round_trip = crate::plan::deserialize(&crate::plan::serialize(&e)).unwrap();
        assert!(!Arc::ptr_eq(&e.data, &round_trip.data));
        assert_eq!(round_trip, e);
        assert_ne!(small_engine(5), e);
    }

    #[test]
    fn agx_payload_exceeds_nx() {
        assert!(runtime_payload_bytes(Platform::Agx) > runtime_payload_bytes(Platform::Nx));
    }
}
