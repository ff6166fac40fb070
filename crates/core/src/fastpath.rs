//! Precompiled execution plans: the numeric-inference fast path.
//!
//! [`crate::runtime::ExecutionContext::infer`] re-resolves everything on
//! every call: it materializes conv/FC weights, re-rounds them to the
//! tactic's precision, clones tensors through Identity/Dropout/Flatten, and
//! scans every layer output for NaN. An [`InferencePlan`] does all of that
//! work **once** per engine:
//!
//! * every node's tactic and precision resolve to a plan step with a
//!   pre-lowered kernel ([`trtsim_kernels::numeric::PreparedConv`] /
//!   [`PreparedFc`]) — weights materialized and precision-converted, packed
//!   into lane blocks for FP32/FP16, and for INT8 quantized with pruned
//!   zeros elided from the multiply stream;
//! * liveness analysis ([`trtsim_ir::liveness::Liveness`]) assigns every
//!   activation to a reusable slot, and a [`trtsim_ir::arena::TensorArena`]
//!   recycles freed buffers into later same-size-class allocations;
//! * a layout assignment pass gives every value a physical
//!   [`trtsim_ir::layout::Layout`]: lane-kernel convs store their outputs in
//!   the tactic's preferred format (blocked `CHWc8` for implicit-GEMM
//!   tactics, `NHWC` for depthwise — [`trtsim_kernels::cost::preferred_layout`]),
//!   layout-agnostic elementwise nodes propagate their input's format, and
//!   minimal reformat steps are inserted only where a CHW-only consumer (or
//!   a graph output) actually needs canonical order — TensorRT's reformat
//!   layers between `_nhwc`-suffixed kernels;
//! * per-step flags mark which outputs need FP16 rounding and which can
//!   carry NaN (only reduced-precision-reachable values can), so pure-FP32
//!   layers skip the scrub scan;
//! * Identity/Dropout/Flatten forward their input **by move** when the
//!   value dies there, instead of cloning.
//!
//! The invariant, enforced by the `bench_infer` harness and the workspace
//! proptests: plan execution is **bit-identical** (under `f32` equality) to
//! the reference interpreter path, now exposed as
//! [`crate::runtime::ExecutionContext::infer_unplanned`].

use trtsim_gpu::kernel::Precision;
use trtsim_ir::arena::{size_class, TensorArena};
use trtsim_ir::graph::{Activation, ConvParams, EltwiseOp, Graph, LayerKind, NodeId, PoolKind};
use trtsim_ir::layout::{self, Layout};
use trtsim_ir::liveness::Liveness;
use trtsim_ir::ops;
use trtsim_ir::tensor::Tensor;
use trtsim_ir::weights::MATERIALIZE_LIMIT;
use trtsim_ir::IrError;
use trtsim_kernels::lanes::PathCounts;
use trtsim_kernels::numeric::{apply_precision, lane_layout, PreparedConv, PreparedFc};
use trtsim_metrics::memory::ArenaStats;

use crate::engine::Engine;
use crate::error::EngineError;

/// The resolved operation of one plan step.
#[derive(Debug, Clone)]
enum StepOp<'e> {
    Conv {
        params: &'e ConvParams,
        prepared: Box<PreparedConv>,
    },
    Fc {
        prepared: PreparedFc,
        activation: Option<Activation>,
    },
    Pool {
        kind: PoolKind,
        kernel: usize,
        stride: usize,
        pad: usize,
    },
    GlobalPool {
        kind: PoolKind,
    },
    Act(Activation),
    BatchNorm {
        mean: &'e [f32],
        var: &'e [f32],
        gamma: &'e [f32],
        beta: &'e [f32],
        eps: f32,
    },
    Scale {
        scale: &'e [f32],
        bias: &'e [f32],
    },
    Lrn {
        local_size: usize,
        alpha: f32,
        beta: f32,
        k: f32,
    },
    Eltwise(EltwiseOp),
    Concat,
    Softmax,
    Upsample {
        factor: usize,
    },
    Flatten,
    Slice {
        begin: usize,
        len: usize,
    },
    /// Identity/Dropout: zero-copy forward.
    Forward,
}

/// One fully-resolved execution step of a plan.
#[derive(Debug, Clone)]
struct Step<'e> {
    node: NodeId,
    inputs: &'e [NodeId],
    op: StepOp<'e>,
    /// Output must be rounded onto the binary16 grid (non-GEMM layer whose
    /// tactic runs FP16 — the interpreter's `precision_rounded`).
    fp16_round: bool,
    /// Output can carry NaN: a reduced-precision kernel runs at or upstream
    /// of this node. Pure-FP32 steps skip the scrub scan.
    scrub: bool,
    /// For [`StepOp::Forward`]/[`StepOp::Flatten`]: the input dies at this
    /// step, so its tensor may be moved instead of copied.
    move_input: bool,
    /// Reformat steps to materialize before the op runs: for each
    /// `(input index, logical shape, from, to)`, the producer's physical
    /// tensor is permuted into an arena temp the op reads instead.
    converts: Vec<(usize, [usize; 3], Layout, Layout)>,
    /// Physical shape of this step's output under its assigned layout.
    phys_shape: [usize; 3],
    /// Values whose buffers recycle into the arena once this step ran.
    free_after: Vec<NodeId>,
}

/// What plan executions through one [`PlanScratch`] did: plain counts,
/// summed per call by [`InferencePlan::execute`] and published by whoever
/// owns the scratch ([`crate::telemetry::publish_plan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Inferences executed.
    pub executions: u64,
    /// Identity/Dropout/Flatten inputs forwarded by move instead of copied.
    pub zero_copy_forwards: u64,
    /// Reformat (layout-convert) steps executed.
    pub layout_converts: u64,
    /// Output values the conv/FC kernels produced on the SIMD lanes and on
    /// scalar walks (dense fallbacks, reference walks).
    pub lanes: PathCounts,
}

impl std::ops::AddAssign for PlanStats {
    fn add_assign(&mut self, other: Self) {
        self.executions += other.executions;
        self.zero_copy_forwards += other.zero_copy_forwards;
        self.layout_converts += other.layout_converts;
        self.lanes += other.lanes;
    }
}

/// Reusable per-thread execution state: value slots, the recycling buffer
/// arena, and the [`PlanStats`] of every execution run through it. One
/// scratch serves any number of sequential [`InferencePlan::execute`]
/// calls; batch APIs keep one per worker.
#[derive(Debug, Default)]
pub struct PlanScratch {
    slots: Vec<Option<Tensor>>,
    arena: TensorArena,
    /// A step's reformatted inputs, by input index; empty between steps.
    tmps: Vec<(usize, Tensor)>,
    stats: PlanStats,
}

impl PlanScratch {
    /// An empty scratch (slots grow to the plan's requirement on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer arena (for allocation statistics).
    pub fn arena(&self) -> &TensorArena {
        &self.arena
    }

    /// Counts accumulated by every execution through this scratch.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }
}

/// A precompiled execution plan for one [`Engine`] — the analog of the
/// schedule TensorRT freezes into a serialized engine, where tactic
/// resolution, weight formatting, and memory binding happen at build time
/// rather than per enqueue.
///
/// Obtain one through [`crate::runtime::ExecutionContext::plan`] (cached
/// per context) or compile directly. Execution is bit-identical to the
/// reference interpreter.
///
/// # Examples
///
/// ```
/// use trtsim_core::fastpath::{InferencePlan, PlanScratch};
/// use trtsim_core::{Builder, BuilderConfig};
/// use trtsim_gpu::device::DeviceSpec;
/// use trtsim_ir::graph::{Graph, LayerKind};
/// use trtsim_ir::Tensor;
///
/// let mut g = Graph::new("m", [3, 8, 8]);
/// let c = g.add_layer("c", LayerKind::conv_seeded(4, 3, 3, 1, 1, 0), &[Graph::INPUT]);
/// g.mark_output(c);
/// let engine = Builder::new(DeviceSpec::xavier_nx(), BuilderConfig::default().with_build_seed(1))
///     .build(&g)?;
///
/// let plan = InferencePlan::compile(&engine)?;
/// let out = plan.execute(&Tensor::zeros([3, 8, 8]), &mut PlanScratch::new())?;
/// assert_eq!(out[0].shape(), [4, 8, 8]);
/// # Ok::<(), trtsim_core::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct InferencePlan<'e> {
    engine: &'e Engine,
    steps: Vec<Step<'e>>,
    slot_of: Vec<usize>,
    slot_count: usize,
    stats: ArenaStats,
    layout_converts_per_execution: u64,
    /// Statically counted `move_input` steps per execution, so the hot loop
    /// adds one precomputed number instead of branching per step.
    moves_per_execution: u64,
}

impl<'e> InferencePlan<'e> {
    /// Resolves every node of `engine` into an executable step: weights
    /// materialized and precision-lowered, liveness computed, slots
    /// assigned.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Execution`] if the engine holds
    /// descriptor-scale weights too large to materialize (same condition as
    /// the interpreter path).
    pub fn compile(engine: &'e Engine) -> Result<Self, EngineError> {
        let graph: &'e Graph = engine.graph();
        let shapes = engine.shapes();
        for node in graph.nodes() {
            let weights_len = match &node.kind {
                LayerKind::Conv(c) => c.weights.len(),
                LayerKind::InnerProduct { weights, .. } => weights.len(),
                _ => 0,
            };
            if weights_len > MATERIALIZE_LIMIT {
                return Err(EngineError::Execution(IrError::NotExecutable {
                    node: node.name.clone(),
                    detail: format!(
                        "{weights_len} weights exceed the materialization limit; \
                         use the numeric-scale variant of this model"
                    ),
                }));
            }
        }

        // Layout assignment (DESIGN §13). Lane-kernel convs read any
        // physical layout and want their tactic's preferred one for their
        // output; elementwise nodes (Act / Eltwise / Identity / Dropout)
        // are layout-agnostic and propagate their first input's format;
        // every other op reads and writes canonical CHW. A conv only emits
        // a non-CHW format when some transitive consumer — through agnostic
        // nodes — is itself a lane conv; otherwise the blocked store would
        // just buy a reformat straight back. Graph outputs are always CHW,
        // so callers keep seeing logical tensors.
        let n = graph.len();
        let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for node in graph.nodes().iter().skip(1) {
            for &input in &node.inputs {
                consumers[input].push(node.id);
            }
        }
        let lane_pref: Vec<Option<Layout>> = graph
            .nodes()
            .iter()
            .map(|node| match &node.kind {
                LayerKind::Conv(c) => {
                    let tactic = &engine.units()[node.id].choice.as_ref()?.tactic;
                    lane_layout(c, tactic)
                }
                _ => None,
            })
            .collect();
        let is_agnostic: Vec<bool> = graph
            .nodes()
            .iter()
            .map(|node| {
                matches!(
                    node.kind,
                    LayerKind::Act(_)
                        | LayerKind::Eltwise { .. }
                        | LayerKind::Dropout { .. }
                        | LayerKind::Identity
                )
            })
            .collect();
        let mut is_out = vec![false; n];
        for &output in graph.outputs() {
            is_out[output] = true;
        }
        // Does any consumer of this value — possibly through a chain of
        // non-output agnostic nodes — read it with a lane kernel? Nodes are
        // topological, so one reverse sweep settles the recurrence.
        let mut feeds_lanes = vec![false; n];
        for id in (0..n).rev() {
            feeds_lanes[id] = consumers[id].iter().any(|&c| {
                lane_pref[c].is_some() || (is_agnostic[c] && !is_out[c] && feeds_lanes[c])
            });
        }
        let mut layouts = vec![Layout::Chw; n];
        for node in graph.nodes().iter().skip(1) {
            layouts[node.id] = match lane_pref[node.id] {
                Some(pref) if feeds_lanes[node.id] && !is_out[node.id] => pref,
                Some(_) => Layout::Chw,
                None if is_agnostic[node.id] && !is_out[node.id] => layouts[node.inputs[0]],
                None => Layout::Chw,
            };
        }

        let liveness = Liveness::analyze(graph);
        let slots = liveness.assign_slots();
        // Footprints and slot capacities account *physical* sizes: blocked
        // CHWc8 values carry their channel padding, and each slot is
        // provisioned at the arena size class of the largest value it ever
        // holds — the bytes `utilization()` divides the liveness peak by.
        let phys_shapes: Vec<[usize; 3]> = (0..n)
            .map(|id| layouts[id].physical_shape(shapes[id]))
            .collect();
        let (peak, total) = liveness.activation_footprint(&phys_shapes);
        let mut slot_max_elems = vec![0usize; slots.slot_count];
        for (value, shape) in phys_shapes.iter().enumerate() {
            let slot = slots.slot_of[value];
            slot_max_elems[slot] = slot_max_elems[slot].max(shape[0] * shape[1] * shape[2]);
        }
        let slot_capacity: u64 = slot_max_elems
            .iter()
            .map(|&elems| size_class(elems) as u64 * 4)
            .sum();
        let stats = ArenaStats::new(peak, total, slot_capacity, slots.slot_count, n);

        // NaN can only appear downstream of a reduced-precision kernel
        // (FP16 overflow); pure-FP32 steps skip the interpreter's per-node
        // scrub scan.
        let mut tainted = vec![false; graph.len()];
        let mut steps = Vec::with_capacity(graph.len().saturating_sub(1));
        for node in graph.nodes().iter().skip(1) {
            let unit = &engine.units()[node.id];
            let precision = unit
                .choice
                .as_ref()
                .map(|c| c.tactic.precision)
                .unwrap_or(Precision::Fp32);
            tainted[node.id] =
                precision != Precision::Fp32 || node.inputs.iter().any(|&i| tainted[i]);
            let op = match &node.kind {
                LayerKind::Input => unreachable!("input node is implicit"),
                LayerKind::Conv(c) => {
                    let tactic = &unit
                        .choice
                        .as_ref()
                        .expect("conv nodes always have a tactic")
                        .tactic;
                    let layout_in = if lane_pref[node.id].is_some() {
                        layouts[node.inputs[0]]
                    } else {
                        Layout::Chw
                    };
                    StepOp::Conv {
                        params: c,
                        prepared: Box::new(PreparedConv::with_layouts(
                            c,
                            shapes[node.inputs[0]],
                            tactic,
                            unit.quant.as_ref(),
                            layout_in,
                            layouts[node.id],
                        )),
                    }
                }
                LayerKind::InnerProduct {
                    out_features,
                    weights,
                    bias,
                    activation,
                    ..
                } => {
                    let tactic = &unit
                        .choice
                        .as_ref()
                        .expect("fc nodes always have a tactic")
                        .tactic;
                    StepOp::Fc {
                        prepared: PreparedFc::new(weights, bias, *out_features, tactic),
                        activation: *activation,
                    }
                }
                LayerKind::Pool {
                    kind,
                    kernel,
                    stride,
                    pad,
                } => StepOp::Pool {
                    kind: *kind,
                    kernel: *kernel,
                    stride: *stride,
                    pad: *pad,
                },
                LayerKind::GlobalPool { kind } => StepOp::GlobalPool { kind: *kind },
                LayerKind::Act(a) => StepOp::Act(*a),
                LayerKind::BatchNorm {
                    mean,
                    var,
                    gamma,
                    beta,
                    eps,
                } => StepOp::BatchNorm {
                    mean,
                    var,
                    gamma,
                    beta,
                    eps: *eps,
                },
                LayerKind::Scale { scale, bias } => StepOp::Scale { scale, bias },
                LayerKind::Lrn {
                    local_size,
                    alpha,
                    beta,
                    k,
                } => StepOp::Lrn {
                    local_size: *local_size,
                    alpha: *alpha,
                    beta: *beta,
                    k: *k,
                },
                LayerKind::Eltwise { op } => StepOp::Eltwise(*op),
                LayerKind::Concat => StepOp::Concat,
                LayerKind::Softmax => StepOp::Softmax,
                LayerKind::Upsample { factor } => StepOp::Upsample { factor: *factor },
                LayerKind::Flatten => StepOp::Flatten,
                LayerKind::Slice { begin, len } => StepOp::Slice {
                    begin: *begin,
                    len: *len,
                },
                LayerKind::Dropout { .. } | LayerKind::Identity => StepOp::Forward,
            };
            let fp16_round = precision == Precision::Fp16
                && matches!(
                    node.kind,
                    LayerKind::Pool { .. }
                        | LayerKind::GlobalPool { .. }
                        | LayerKind::Act(_)
                        | LayerKind::BatchNorm { .. }
                        | LayerKind::Scale { .. }
                        | LayerKind::Lrn { .. }
                        | LayerKind::Eltwise { .. }
                );
            let move_input = matches!(op, StepOp::Forward | StepOp::Flatten)
                && liveness.dies_at(node.inputs[0], node.id);
            // Lane convs ingest the producer's layout directly; agnostic
            // nodes run in their own assigned format; everything else
            // (including graph-output agnostic nodes, which must hand back
            // CHW) reformats non-canonical inputs.
            let required = if lane_pref[node.id].is_some() {
                None
            } else if is_agnostic[node.id] && !is_out[node.id] {
                Some(layouts[node.id])
            } else {
                Some(Layout::Chw)
            };
            let converts = match required {
                None => Vec::new(),
                Some(req) => node
                    .inputs
                    .iter()
                    .enumerate()
                    .filter(|&(_, &input)| layouts[input] != req)
                    .map(|(idx, &input)| (idx, shapes[input], layouts[input], req))
                    .collect(),
            };
            steps.push(Step {
                node: node.id,
                inputs: &node.inputs,
                op,
                fp16_round,
                scrub: tainted[node.id],
                move_input,
                converts,
                phys_shape: phys_shapes[node.id],
                free_after: liveness.dead_after(node.id).to_vec(),
            });
        }

        Ok(Self {
            engine,
            slot_of: slots.slot_of,
            slot_count: slots.slot_count,
            stats,
            layout_converts_per_execution: steps.iter().map(|s| s.converts.len() as u64).sum(),
            moves_per_execution: steps.iter().filter(|s| s.move_input).count() as u64,
            steps,
        })
    }

    /// The engine this plan executes.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// Number of execution steps (compute and structural nodes).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Static activation-memory footprint: peak live bytes under
    /// liveness-driven reuse vs the keep-everything total, and the slot
    /// count backing the arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.stats
    }

    /// Reformat (layout-convert) steps the plan executes per inference —
    /// the price of running lane kernels in their preferred blocked/NHWC
    /// formats. The assignment pass keeps this minimal by eliding every
    /// back-to-back convert pair it can.
    pub fn layout_converts_per_execution(&self) -> u64 {
        self.layout_converts_per_execution
    }

    /// Runs the plan on one input, bit-identical to
    /// [`crate::runtime::ExecutionContext::infer_unplanned`].
    ///
    /// `scratch` carries the value slots and buffer arena between calls;
    /// reusing one across a batch serves every allocation of the steady
    /// state from recycled buffers. The call's counts land in
    /// [`PlanScratch::stats`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Execution`] on input shape mismatch.
    pub fn execute(
        &self,
        input: &Tensor,
        scratch: &mut PlanScratch,
    ) -> Result<Vec<Tensor>, EngineError> {
        let graph = self.engine.graph();
        if input.shape() != graph.input_shape() {
            return Err(EngineError::Execution(IrError::ShapeMismatch {
                node: "input".into(),
                detail: format!(
                    "expected {:?}, got {:?}",
                    graph.input_shape(),
                    input.shape()
                ),
            }));
        }
        // A non-finite input defeats the static taint analysis (NaN can then
        // appear anywhere); scrub every step like the interpreter does. The
        // prepared kernels make the matching dense-fallback choice.
        let scrub_all = input.as_slice().iter().any(|v| !v.is_finite());

        let PlanScratch {
            slots,
            arena,
            tmps,
            stats,
        } = scratch;
        let mut lanes = PathCounts::default();
        if slots.len() < self.slot_count {
            slots.resize_with(self.slot_count, || None);
        }
        slots[self.slot_of[Graph::INPUT]] = Some(arena.alloc_copy(input));

        for step in &self.steps {
            // Materialize this step's reformat inputs into arena temps; the
            // op reads those in place of the producers' physical tensors.
            for &(idx, shape, from, to) in &step.converts {
                let src = slots[self.slot_of[step.inputs[idx]]]
                    .as_ref()
                    .expect("producer computed");
                let mut buf = arena.take_buffer(to.physical_len(shape));
                layout::convert_into(src.as_slice(), shape, from, to, &mut buf);
                tmps.push((idx, Tensor::from_vec(to.physical_shape(shape), buf)));
            }
            let read = |i: usize| -> &Tensor {
                tmps.iter()
                    .find(|(idx, _)| *idx == i)
                    .map(|(_, t)| t)
                    .unwrap_or_else(|| {
                        slots[self.slot_of[step.inputs[i]]]
                            .as_ref()
                            .expect("producer computed")
                    })
            };
            let (mut out, counts) = match &step.op {
                StepOp::Conv { params, prepared } => prepared.run(params, read(0), arena),
                StepOp::Fc {
                    prepared,
                    activation,
                } => prepared.run(read(0), *activation, arena),
                StepOp::Flatten => (
                    self.forward(step, slots, arena, tmps).into_flat(),
                    PathCounts::default(),
                ),
                StepOp::Forward => (
                    self.forward(step, slots, arena, tmps),
                    PathCounts::default(),
                ),
                op => {
                    // Every other op writes a recycled arena buffer, so a
                    // reused scratch reaches a fixed footprint.
                    let [c, h, w] = step.phys_shape;
                    let mut buf = arena.take_buffer(c * h * w);
                    let ins = || (0..step.inputs.len()).map(read);
                    match op {
                        StepOp::Pool {
                            kind,
                            kernel,
                            stride,
                            pad,
                        } => ops::pool2d_into(
                            read(0),
                            *kind,
                            *kernel,
                            *stride,
                            *pad,
                            &mut buf,
                            arena,
                        ),
                        StepOp::GlobalPool { kind } => {
                            ops::global_pool_into(read(0), *kind, &mut buf)
                        }
                        StepOp::Act(a) => ops::activate_into(read(0), *a, &mut buf),
                        StepOp::BatchNorm {
                            mean,
                            var,
                            gamma,
                            beta,
                            eps,
                        } => ops::batch_norm_into(read(0), mean, var, gamma, beta, *eps, &mut buf),
                        StepOp::Scale { scale, bias } => {
                            ops::scale_into(read(0), scale, bias, &mut buf)
                        }
                        StepOp::Lrn {
                            local_size,
                            alpha,
                            beta,
                            k,
                        } => ops::lrn_into(read(0), *local_size, *alpha, *beta, *k, &mut buf),
                        StepOp::Eltwise(op) => ops::eltwise_into(ins(), *op, &mut buf),
                        StepOp::Concat => ops::concat_into(ins(), &mut buf),
                        StepOp::Softmax => ops::softmax_into(read(0), &mut buf),
                        StepOp::Upsample { factor } => {
                            ops::upsample_into(read(0), *factor, &mut buf)
                        }
                        StepOp::Slice { begin, len } => {
                            ops::slice_channels_into(read(0), *begin, *len, &mut buf)
                        }
                        StepOp::Conv { .. }
                        | StepOp::Fc { .. }
                        | StepOp::Flatten
                        | StepOp::Forward => unreachable!("handled above"),
                    }
                    (
                        Tensor::from_vec(step.phys_shape, buf),
                        PathCounts::default(),
                    )
                }
            };
            lanes += counts;
            for (_, t) in tmps.drain(..) {
                arena.release(t);
            }
            if step.fp16_round {
                apply_precision(&mut out, Precision::Fp16);
            }
            debug_assert_eq!(out.shape(), step.phys_shape);
            if step.scrub || scrub_all {
                // Keep NaN out of downstream argmaxes if an fp16 overflowed.
                // A fold without early exit, so the scan vectorizes.
                if out.as_slice().iter().fold(false, |nan, v| nan | v.is_nan()) {
                    out.map_inplace(|v| if v.is_nan() { 0.0 } else { v });
                }
            } else {
                debug_assert!(
                    !out.as_slice().iter().any(|v| v.is_nan()),
                    "pure-FP32 step {} produced NaN",
                    step.node
                );
            }
            let slot = self.slot_of[step.node];
            debug_assert!(
                slots[slot].is_none(),
                "slot still owned at step {}",
                step.node
            );
            slots[slot] = Some(out);
            for &dead in &step.free_after {
                if let Some(t) = slots[self.slot_of[dead]].take() {
                    arena.release(t);
                }
            }
        }

        let outputs = graph
            .outputs()
            .iter()
            .map(|&id| slots[self.slot_of[id]].take().expect("output computed"))
            .collect();
        // Anything still parked (e.g. an input no step consumed) recycles.
        for slot in slots.iter_mut() {
            if let Some(t) = slot.take() {
                arena.release(t);
            }
        }
        *stats += PlanStats {
            executions: 1,
            zero_copy_forwards: self.moves_per_execution,
            layout_converts: self.layout_converts_per_execution,
            lanes,
        };
        Ok(outputs)
    }

    /// Zero-copy forward for Identity/Dropout/Flatten: moves the input
    /// tensor when it dies at this step, copies through the arena otherwise.
    /// A reformatted input is always taken by move — the temp is owned, and
    /// the original stays in its slot for `free_after` to recycle.
    fn forward(
        &self,
        step: &Step<'e>,
        slots: &mut [Option<Tensor>],
        arena: &mut TensorArena,
        tmps: &mut Vec<(usize, Tensor)>,
    ) -> Tensor {
        if let Some(pos) = tmps.iter().position(|(idx, _)| *idx == 0) {
            return tmps.swap_remove(pos).1;
        }
        let slot = self.slot_of[step.inputs[0]];
        if step.move_input {
            slots[slot].take().expect("producer computed")
        } else {
            arena.alloc_copy(slots[slot].as_ref().expect("producer computed"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::BuilderConfig;
    use crate::runtime::ExecutionContext;
    use trtsim_gpu::device::DeviceSpec;
    use trtsim_util::rng::Pcg32;

    fn deep_chain(depth: usize) -> Graph {
        let mut g = Graph::new("chain", [3, 16, 16]);
        let mut prev = Graph::INPUT;
        for d in 0..depth {
            let ic = if d == 0 { 3 } else { 8 };
            prev = g.add_layer(
                format!("c{d}"),
                LayerKind::conv_seeded(8, ic, 3, 1, 1, d as u64),
                &[prev],
            );
        }
        g.mark_output(prev);
        g
    }

    fn rich_net() -> Graph {
        let mut g = Graph::new("rich", [3, 16, 16]);
        let c1 = g.add_layer(
            "c1",
            LayerKind::conv_seeded(8, 3, 3, 1, 1, 0),
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
        let a = g.add_layer("a", LayerKind::conv_seeded(8, 8, 3, 1, 1, 1), &[p]);
        let b = g.add_layer("b", LayerKind::conv_seeded(8, 8, 3, 1, 1, 2), &[p]);
        let e = g.add_layer("e", LayerKind::Eltwise { op: EltwiseOp::Sum }, &[a, b]);
        let drop = g.add_layer("d", LayerKind::Dropout { rate: 0.5 }, &[e]);
        let gp = g.add_layer(
            "gp",
            LayerKind::GlobalPool {
                kind: PoolKind::Avg,
            },
            &[drop],
        );
        let flat = g.add_layer("flat", LayerKind::Flatten, &[gp]);
        let fc = g.add_layer("fc", LayerKind::fc_seeded(10, 8, 3), &[flat]);
        let sm = g.add_layer("sm", LayerKind::Softmax, &[fc]);
        g.mark_output(sm);
        g
    }

    fn build(graph: &Graph, seed: u64) -> Engine {
        Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(seed),
        )
        .build(graph)
        .unwrap()
    }

    fn random_input(shape: [usize; 3], seed: u64) -> Tensor {
        let mut rng = Pcg32::seed_from_u64(seed);
        Tensor::from_fn(shape, |_, _, _| rng.normal() as f32)
    }

    fn assert_bit_identical(engine: &Engine, input: &Tensor) {
        let ctx = ExecutionContext::new(engine, DeviceSpec::xavier_nx());
        let want = ctx.infer_unplanned(input).unwrap();
        let plan = InferencePlan::compile(engine).unwrap();
        let mut scratch = PlanScratch::new();
        for pass in 0..2 {
            let got = plan.execute(input, &mut scratch).unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g, w, "plan output differs on pass {pass}");
            }
        }
    }

    #[test]
    fn plan_matches_interpreter_on_rich_graph() {
        let engine = build(&rich_net(), 3);
        assert_bit_identical(&engine, &random_input([3, 16, 16], 11));
    }

    #[test]
    fn plan_matches_interpreter_on_deep_chain() {
        let engine = build(&deep_chain(6), 4);
        assert_bit_identical(&engine, &random_input([3, 16, 16], 12));
    }

    #[test]
    fn plan_matches_interpreter_on_non_finite_input() {
        let engine = build(&rich_net(), 5);
        let mut input = random_input([3, 16, 16], 13);
        *input.at_mut(1, 3, 3) = f32::NAN;
        *input.at_mut(2, 8, 8) = f32::INFINITY;
        let ctx = ExecutionContext::new(&engine, DeviceSpec::xavier_nx());
        let want = ctx.infer_unplanned(&input).unwrap();
        let plan = InferencePlan::compile(&engine).unwrap();
        let got = plan.execute(&input, &mut PlanScratch::new()).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w);
        }
    }

    #[test]
    fn plan_rejects_wrong_input_shape() {
        let engine = build(&rich_net(), 6);
        let plan = InferencePlan::compile(&engine).unwrap();
        assert!(plan
            .execute(&Tensor::zeros([3, 8, 8]), &mut PlanScratch::new())
            .is_err());
    }

    #[test]
    fn deep_chain_arena_peak_is_far_below_total() {
        let engine = build(&deep_chain(10), 7);
        let plan = InferencePlan::compile(&engine).unwrap();
        let stats = plan.arena_stats();
        assert!(stats.peak_live_bytes < stats.total_activation_bytes);
        assert!(
            stats.footprint_ratio() <= 0.5,
            "deep chain should reuse buffers: {}",
            stats.footprint_ratio()
        );
        // Size-classed slots provision close to the liveness peak: only a
        // producer/consumer pair is live, so three slots of one class each
        // stay mostly full.
        assert!(
            stats.utilization() >= 0.4,
            "slots should be provisioned near the peak: {}",
            stats.utilization()
        );
        assert!(stats.slot_count <= 3, "{}", stats.slot_count);
    }

    #[test]
    fn lane_convs_get_non_canonical_interior_layouts() {
        // Interior convs of a chain feed other lane convs, so the
        // assignment stores them blocked (CHWc8) or NHWC; the output conv
        // always hands back canonical CHW.
        let engine = build(&deep_chain(6), 4);
        let plan = InferencePlan::compile(&engine).unwrap();
        let mut non_chw = 0;
        for step in &plan.steps {
            if let StepOp::Conv { prepared, .. } = &step.op {
                let (_, out) = prepared.layouts();
                if out != Layout::Chw {
                    non_chw += 1;
                }
            }
        }
        let last = plan.steps.last().unwrap();
        assert_eq!(last.phys_shape, engine.shapes()[last.node]);
        assert!(
            non_chw >= 1,
            "interior convs should run in a preferred layout"
        );
        // Lane convs ingest the producer's format directly, so a pure conv
        // chain needs no reformat steps at all.
        assert_eq!(plan.layout_converts_per_execution(), 0);
    }

    #[test]
    fn mixed_layout_eltwise_reformats_and_stays_bit_identical() {
        // One eltwise arm comes from a pool (CHW-only), the other from a
        // conv that may run blocked; the joined value feeds another conv so
        // the assignment has a reason to keep lanes hot across the sum.
        let mut g = Graph::new("mixed", [3, 16, 16]);
        let c1 = g.add_layer(
            "c1",
            LayerKind::conv_seeded(8, 3, 3, 1, 1, 0),
            &[Graph::INPUT],
        );
        let p = g.add_layer(
            "p",
            LayerKind::Pool {
                kind: PoolKind::Max,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            &[c1],
        );
        let a = g.add_layer("a", LayerKind::conv_seeded(8, 8, 3, 1, 1, 1), &[p]);
        let e = g.add_layer("e", LayerKind::Eltwise { op: EltwiseOp::Sum }, &[p, a]);
        let c2 = g.add_layer("c2", LayerKind::conv_seeded(8, 8, 3, 1, 1, 2), &[e]);
        g.mark_output(c2);
        let engine = build(&g, 17);
        assert_bit_identical(&engine, &random_input([3, 16, 16], 23));
        let plan = InferencePlan::compile(&engine).unwrap();
        let mut scratch = PlanScratch::new();
        for _ in 0..2 {
            plan.execute(&random_input([3, 16, 16], 23), &mut scratch)
                .unwrap();
        }
        // Every reformat the plan schedules executes on both passes.
        assert!(plan.layout_converts_per_execution() > 0);
        assert_eq!(
            scratch.stats().layout_converts,
            2 * plan.layout_converts_per_execution()
        );
    }

    #[test]
    fn steady_state_recycles_buffers() {
        let engine = build(&deep_chain(6), 8);
        let plan = InferencePlan::compile(&engine).unwrap();
        let mut scratch = PlanScratch::new();
        let input = random_input([3, 16, 16], 14);
        plan.execute(&input, &mut scratch).unwrap();
        let fresh_after_warmup = scratch.arena().fresh_allocs();
        let recycled_before = scratch.arena().recycled_allocs();
        plan.execute(&input, &mut scratch).unwrap();
        assert!(
            scratch.arena().recycled_allocs() > recycled_before,
            "second pass should hit the arena"
        );
        // Every step recycles; only the output handed to the caller leaves
        // the arena and is replaced fresh.
        assert!(
            scratch.arena().fresh_allocs() <= fresh_after_warmup + 1,
            "{} fresh allocs after warmup",
            scratch.arena().fresh_allocs()
        );
    }

    #[test]
    fn forwarding_moves_instead_of_cloning() {
        // Dropout/Flatten survive only with optimization passes disabled.
        let mut g = Graph::new("fwd", [4, 8, 8]);
        let c = g.add_layer(
            "c",
            LayerKind::conv_seeded(4, 4, 3, 1, 1, 0),
            &[Graph::INPUT],
        );
        let d = g.add_layer("d", LayerKind::Dropout { rate: 0.5 }, &[c]);
        let f = g.add_layer("f", LayerKind::Flatten, &[d]);
        g.mark_output(f);
        let engine = Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default()
                .with_build_seed(9)
                .without_graph_passes(),
        )
        .build(&g)
        .unwrap();
        let plan = InferencePlan::compile(&engine).unwrap();
        let forwards = plan
            .steps
            .iter()
            .filter(|s| matches!(s.op, StepOp::Forward | StepOp::Flatten))
            .count();
        let moved = plan.steps.iter().filter(|s| s.move_input).count();
        assert!(forwards >= 2, "expected surviving forward steps");
        assert_eq!(moved, forwards, "single-consumer forwards should move");
        let ctx = ExecutionContext::new(&engine, DeviceSpec::xavier_nx());
        let input = random_input([4, 8, 8], 15);
        let mut scratch = PlanScratch::new();
        assert_eq!(
            plan.execute(&input, &mut scratch).unwrap(),
            ctx.infer_unplanned(&input).unwrap()
        );
        // The scratch counts exactly what this one execution did.
        let stats = scratch.stats();
        assert_eq!(stats.executions, 1);
        assert_eq!(stats.zero_copy_forwards, moved as u64);
        assert_eq!(stats.lanes.vector + stats.lanes.scalar, 4 * 8 * 8);
    }
}
