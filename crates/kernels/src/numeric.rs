//! Order-sensitive numeric execution of tactics.
//!
//! The `h884` kernels the paper profiles accumulate in FP16. FP16 addition is
//! far from associative, so the *order* in which a convolution's products are
//! summed — which depends on the tactic's tile/chunk geometry — changes the
//! result. When the autotuner picks different tactics on different builds
//! (because measured timings carry noise), the same input image can cross a
//! decision boundary differently: the paper's Finding 2.
//!
//! INT8 kernels accumulate in integers (exact and associative); their
//! numeric identity across builds is a useful control in tests.

use trtsim_gpu::kernel::Precision;
use trtsim_ir::arena::TensorArena;
use trtsim_ir::graph::{Activation, ConvParams};
use trtsim_ir::layout::{self, Layout, LANES};
use trtsim_ir::tensor::Tensor;
use trtsim_ir::weights::Weights;
use trtsim_util::f16::{round_f16, QuantParams};

use crate::lanes::{round8_acc, round_f16_slice, LaneConv, PathCounts};
use crate::tactic::{AccumOrder, Tactic};

/// Calibration scales for INT8 execution of one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantDesc {
    /// Input activation quantization.
    pub input: QuantParams,
    /// Weight quantization.
    pub weights: QuantParams,
}

/// Accumulates a sequence of values under a tactic's ordering and precision.
///
/// For FP16 tactics every partial sum is rounded back onto the binary16 grid
/// (h884 semantics); chunked orders flush chunk subtotals into an FP32
/// carry, reproducing split-K behaviour.
#[derive(Debug, Clone)]
pub struct Reducer {
    order: AccumOrder,
    fp16: bool,
}

impl Reducer {
    /// Creates a reducer for the tactic's accumulation semantics.
    pub fn for_tactic(tactic: &Tactic) -> Self {
        Self {
            order: tactic.accum,
            fp16: tactic.precision == Precision::Fp16,
        }
    }

    /// Reduces `terms` (already precision-rounded products) to a scalar.
    pub fn reduce(&self, terms: &[f32]) -> f32 {
        match self.order {
            AccumOrder::Sequential => self.fold_run(terms),
            AccumOrder::Chunked(chunk) => {
                let chunk = chunk.max(1) as usize;
                let mut carry = 0.0f64; // split-K partials combine in FP32-ish carry
                for c in terms.chunks(chunk) {
                    carry += f64::from(self.fold_run(c));
                }
                carry as f32
            }
        }
    }

    fn fold_run(&self, terms: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for &t in terms {
            acc += t;
            if self.fp16 {
                acc = round_f16(acc);
            }
        }
        acc
    }
}

/// Executes a convolution under a tactic's numeric semantics.
///
/// * FP16 tactics round inputs, weights, and every partial sum to binary16.
/// * INT8 tactics quantize inputs/weights with `quant` and accumulate exactly.
/// * FP32 tactics match the reference executor bit-for-bit.
///
/// # Panics
///
/// Panics if an INT8 tactic is used without calibration scales, or if the
/// weight blob length mismatches the parameters.
pub fn conv_forward(
    params: &ConvParams,
    input: &Tensor,
    tactic: &Tactic,
    quant: Option<&QuantDesc>,
) -> Tensor {
    let weights = params.weights.materialize();
    let bias: Vec<f32> = params.bias.iter().collect();
    match tactic.precision {
        Precision::Fp32 => trtsim_ir::ops::conv2d(input, &weights, &bias, params),
        Precision::Fp16 => conv_fp16(params, input, &weights, &bias, tactic),
        Precision::Int8 => {
            let q = quant.expect("INT8 tactic requires calibration scales");
            conv_int8(params, input, &weights, &bias, q)
        }
    }
}

/// The blocked physical layout [`PreparedConv::with_layouts`] can exploit
/// for this (params, tactic) pair, if any — the plan-time layout assignment
/// queries this when deciding which activations leave canonical CHW.
///
/// The preference comes from the tactic family's kernel descriptor
/// ([`crate::cost::preferred_layout`]): `CHWc8` for ungrouped convolutions
/// (output-channel lanes, contiguous blocked stores), `NHWC` for depthwise
/// ones (channel lanes, contiguous channel loads). `None` means the conv
/// has no lane kernel and stays in CHW: INT8 convs on their sparse walk,
/// grouped non-depthwise FP32/FP16 convs on the reference walk.
pub fn lane_layout(params: &ConvParams, tactic: &Tactic) -> Option<Layout> {
    if tactic.precision == Precision::Int8 {
        return None;
    }
    let depthwise = params.groups > 1
        && params.groups == params.in_channels
        && params.groups == params.out_channels;
    match crate::cost::preferred_layout(tactic) {
        Layout::Chw => None,
        pref if params.groups == 1 => Some(pref),
        Layout::Nhwc if depthwise => Some(Layout::Nhwc),
        _ => None,
    }
}

/// Geometry of one convolution lowered against a concrete input shape.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvGeom {
    pub(crate) in_shape: [usize; 3],
    pub(crate) ih: usize,
    pub(crate) iw: usize,
    pub(crate) oh: usize,
    pub(crate) ow: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) s: usize,
    pub(crate) ph: isize,
    pub(crate) pw: isize,
    pub(crate) cpg_in: usize,
    pub(crate) cpg_out: usize,
    pub(crate) out_channels: usize,
}

impl ConvGeom {
    pub(crate) fn of(params: &ConvParams, in_shape: [usize; 3]) -> Self {
        let [ic, ih, iw] = in_shape;
        assert_eq!(ic, params.in_channels, "conv input channel mismatch");
        let (kh, kw) = (params.kernel_h, params.kernel_w);
        let s = params.stride;
        Self {
            in_shape,
            ih,
            iw,
            oh: (ih + 2 * params.pad_h - kh) / s + 1,
            ow: (iw + 2 * params.pad_w - kw) / s + 1,
            kh,
            kw,
            s,
            ph: params.pad_h as isize,
            pw: params.pad_w as isize,
            cpg_in: params.in_channels / params.groups,
            cpg_out: params.out_channels / params.groups,
            out_channels: params.out_channels,
        }
    }
}

/// Output-pixel rectangle whose every kernel tap lands in bounds — the
/// region where precomputed input offsets are valid and no per-tap bounds
/// check is needed.
#[derive(Debug, Clone, Copy)]
struct Interior {
    oy_lo: usize,
    oy_hi: usize,
    ox_lo: usize,
    ox_hi: usize,
}

impl Interior {
    fn of(params: &ConvParams, g: &ConvGeom) -> Self {
        let lo = |pad: usize, s: usize| pad.div_ceil(s);
        let hi = |dim: usize, pad: usize, k: usize, s: usize, o: usize| {
            if dim + pad >= k {
                ((dim + pad - k) / s + 1).min(o)
            } else {
                0
            }
        };
        Self {
            oy_lo: lo(params.pad_h, g.s),
            oy_hi: hi(g.ih, params.pad_h, g.kh, g.s, g.oh),
            ox_lo: lo(params.pad_w, g.s),
            ox_hi: hi(g.iw, params.pad_w, g.kw, g.s, g.ow),
        }
    }
}

/// Chunk length of a folded FP16 accumulation (`usize::MAX` = never flush).
pub(crate) fn fold_chunk(accum: AccumOrder) -> usize {
    match accum {
        AccumOrder::Chunked(c) => c.max(1) as usize,
        AccumOrder::Sequential => usize::MAX,
    }
}

/// Applies an optional fused activation to one output value.
#[inline(always)]
pub(crate) fn apply_act(activation: Option<Activation>, v: f32) -> f32 {
    match activation {
        Some(a) => a.apply(v),
        None => v,
    }
}

fn conv_fp16(
    params: &ConvParams,
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    tactic: &Tactic,
) -> Tensor {
    let g = ConvGeom::of(params, input.shape());
    // Round operands onto the binary16 grid once (engine weights and
    // activations are stored as FP16); per-term work is then one product
    // round plus one accumulate round.
    let rx: Vec<f32> = input.as_slice().iter().map(|&v| round_f16(v)).collect();
    let rw: Vec<f32> = weights.iter().map(|&v| round_f16(v)).collect();
    let mut out = Tensor::zeros([g.out_channels, g.oh, g.ow]);
    conv_fp16_dense(&g, &rx, &rw, bias, tactic, params.activation, &mut out);
    out
}

/// The dense FP16 walk over every output pixel, with operands already on the
/// binary16 grid. Shared by the per-call path ([`conv_fp16`]) and the lane
/// kernels' non-finite fallback.
pub(crate) fn conv_fp16_dense(
    g: &ConvGeom,
    rx: &[f32],
    rw: &[f32],
    bias: &[f32],
    tactic: &Tactic,
    activation: Option<Activation>,
    out: &mut Tensor,
) {
    let chunk = fold_chunk(tactic.accum);
    for oc in 0..g.out_channels {
        let b = bias.get(oc).copied().unwrap_or(0.0);
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                let acc = fp16_pixel(rx, rw, g, oc, oy, ox, chunk) + b;
                *out.at_mut(oc, oy, ox) = match activation {
                    Some(a) => a.apply(acc),
                    None => acc,
                };
            }
        }
    }
}

/// One output pixel under FP16 accumulation: an FP16 accumulator with an
/// FP32-ish carry at chunk flushes (split-K semantics; see [`Reducer`]).
/// Returns the pre-bias sum.
fn fp16_pixel(
    rx: &[f32],
    rw: &[f32],
    g: &ConvGeom,
    oc: usize,
    oy: usize,
    ox: usize,
    chunk: usize,
) -> f32 {
    let group = oc / g.cpg_out;
    let w_base = oc * g.cpg_in * g.kh * g.kw;
    let mut carry = 0.0f64;
    let mut chunk_acc = 0.0f32;
    let mut in_chunk = 0usize;
    for icg in 0..g.cpg_in {
        let c_in = group * g.cpg_in + icg;
        for ky in 0..g.kh {
            let iy = (oy * g.s) as isize + ky as isize - g.ph;
            if iy < 0 || iy >= g.ih as isize {
                continue;
            }
            let row = (c_in * g.ih + iy as usize) * g.iw;
            for kx in 0..g.kw {
                let ix = (ox * g.s) as isize + kx as isize - g.pw;
                if ix < 0 || ix >= g.iw as isize {
                    continue;
                }
                let w = rw[w_base + (icg * g.kh + ky) * g.kw + kx];
                chunk_acc = round_f16(chunk_acc + round_f16(rx[row + ix as usize] * w));
                in_chunk += 1;
                if in_chunk == chunk {
                    carry += f64::from(chunk_acc);
                    chunk_acc = 0.0;
                    in_chunk = 0;
                }
            }
        }
    }
    (carry + f64::from(chunk_acc)) as f32
}

fn conv_int8(
    params: &ConvParams,
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    quant: &QuantDesc,
) -> Tensor {
    let [ic, ih, iw] = input.shape();
    assert_eq!(ic, params.in_channels);
    let (kh, kw) = (params.kernel_h, params.kernel_w);
    let s = params.stride;
    let (ph, pw) = (params.pad_h as isize, params.pad_w as isize);
    let oh = (ih + 2 * params.pad_h - kh) / s + 1;
    let ow = (iw + 2 * params.pad_w - kw) / s + 1;
    let cpg_in = params.in_channels / params.groups;
    let cpg_out = params.out_channels / params.groups;

    // Quantize once up front (the engine stores INT8 weights).
    let qw: Vec<i32> = weights
        .iter()
        .map(|&w| i32::from(quant.weights.quantize(w)))
        .collect();
    let qx: Vec<i32> = input
        .as_slice()
        .iter()
        .map(|&x| i32::from(quant.input.quantize(x)))
        .collect();
    let out_scale = quant.input.scale * quant.weights.scale;

    let mut out = Tensor::zeros([params.out_channels, oh, ow]);
    for oc in 0..params.out_channels {
        let group = oc / cpg_out;
        let b = bias.get(oc).copied().unwrap_or(0.0);
        let w_base = oc * cpg_in * kh * kw;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: i64 = 0;
                for icg in 0..cpg_in {
                    let c_in = group * cpg_in + icg;
                    for ky in 0..kh {
                        let iy = (oy * s) as isize + ky as isize - ph;
                        if iy < 0 || iy >= ih as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * s) as isize + kx as isize - pw;
                            if ix < 0 || ix >= iw as isize {
                                continue;
                            }
                            let xi = qx[(c_in * ih + iy as usize) * iw + ix as usize];
                            let wi = qw[w_base + (icg * kh + ky) * kw + kx];
                            acc += i64::from(xi) * i64::from(wi);
                        }
                    }
                }
                let v = acc as f32 * out_scale + b;
                *out.at_mut(oc, oy, ox) = match params.activation {
                    Some(a) => a.apply(v),
                    None => v,
                };
            }
        }
    }
    out
}

/// Executes a fully-connected layer under a tactic's numeric semantics
/// (FP16 tactics round operands and partials to binary16 in tactic order).
///
/// # Panics
///
/// Panics if `weights.len() != out_features · input.len()` or an INT8 tactic
/// is used (FC layers in the catalog are FP16/FP32 only).
pub fn fc_forward(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    out_features: usize,
    activation: Option<Activation>,
    tactic: &Tactic,
) -> Tensor {
    match tactic.precision {
        Precision::Fp32 => {
            trtsim_ir::ops::inner_product(input, weights, bias, out_features, activation)
        }
        Precision::Int8 => panic!("INT8 fully-connected tactics are not in the catalog"),
        Precision::Fp16 => {
            let in_features = input.len();
            assert_eq!(
                weights.len(),
                out_features * in_features,
                "fc weight mismatch"
            );
            let reducer = Reducer::for_tactic(tactic);
            let mut terms = Vec::with_capacity(in_features);
            let x = input.as_slice();
            let mut out = Tensor::zeros([out_features, 1, 1]);
            for o in 0..out_features {
                terms.clear();
                let row = &weights[o * in_features..(o + 1) * in_features];
                for (xi, wi) in x.iter().zip(row.iter()) {
                    terms.push(round_f16(round_f16(*xi) * round_f16(*wi)));
                }
                let acc = reducer.reduce(&terms) + bias.get(o).copied().unwrap_or(0.0);
                *out.at_mut(o, 0, 0) = match activation {
                    Some(a) => a.apply(acc),
                    None => acc,
                };
            }
            out
        }
    }
}

/// Rounds an activation tensor onto a precision's grid (kernel-boundary
/// fake quantization for non-GEMM layers in reduced-precision engines).
pub fn apply_precision(tensor: &mut Tensor, precision: Precision) {
    match precision {
        Precision::Fp32 => {}
        Precision::Fp16 => {
            round_f16_slice(tensor.as_mut_slice());
        }
        Precision::Int8 => {
            let q = QuantParams::calibrate(tensor.as_slice());
            tensor.map_inplace(|x| q.round_trip(x));
        }
    }
}

/// One live (nonzero-weight) tap of a prepared INT8 convolution kernel.
#[derive(Debug, Clone, Copy)]
struct SparseEntry {
    /// Input offset from `(oy·s)·iw + ox·s` — valid only for interior
    /// output pixels, where every tap is in bounds.
    delta: isize,
    /// Absolute input channel (for bounds-checked border evaluation).
    c_in: usize,
    /// Tap offsets relative to the window origin, padding applied.
    dy: isize,
    dx: isize,
    w: i32,
}

/// Extracts the nonzero taps of every output channel, in the order the
/// dense walk visits them.
fn build_sparse(g: &ConvGeom, dense: &[i32]) -> Vec<Vec<SparseEntry>> {
    (0..g.out_channels)
        .map(|oc| {
            let group = oc / g.cpg_out;
            let w_base = oc * g.cpg_in * g.kh * g.kw;
            let mut entries = Vec::new();
            for icg in 0..g.cpg_in {
                let c_in = group * g.cpg_in + icg;
                for ky in 0..g.kh {
                    for kx in 0..g.kw {
                        let w = dense[w_base + (icg * g.kh + ky) * g.kw + kx];
                        if w == 0 {
                            continue;
                        }
                        let dy = ky as isize - g.ph;
                        let dx = kx as isize - g.pw;
                        entries.push(SparseEntry {
                            delta: (c_in * g.ih * g.iw) as isize + dy * g.iw as isize + dx,
                            c_in,
                            dy,
                            dx,
                            w,
                        });
                    }
                }
            }
            entries
        })
        .collect()
}

/// Per-precision lowering of a prepared convolution.
#[derive(Debug, Clone)]
enum PreparedKind {
    /// FP32/FP16: SIMD lane-array micro-kernels ([`crate::lanes`]): 8
    /// channels advance in lockstep, operands in per-tactic physical
    /// layouts. No zero elision — dense vector arithmetic beats sparse
    /// scalar walks by a wide margin on the catalog's weight densities.
    Lanes(Box<LaneConv>),
    /// FP32/FP16 grouped non-depthwise convs, which no lane kernel takes
    /// and no zoo model builds: the reference walk [`conv_forward`] itself.
    Reference,
    /// INT8: integer accumulation is exact and associative, so pruned zero
    /// taps are elided with no finiteness guard at all.
    Int8 {
        sparse: Vec<Vec<SparseEntry>>,
        input: QuantParams,
        out_scale: f32,
    },
}

/// A convolution pre-lowered for repeated execution under a fixed tactic.
///
/// Construction does all per-layer work once — weight materialization,
/// FP16 rounding and packing into lane blocks, or INT8 quantization with
/// extraction of the *nonzero* taps — so each [`PreparedConv::run`] call
/// only executes arithmetic, bit-identical to [`conv_forward`] under the
/// tactic's accumulation order.
///
/// # Examples
///
/// ```
/// use trtsim_ir::arena::TensorArena;
/// use trtsim_ir::graph::LayerKind;
/// use trtsim_ir::tensor::Tensor;
/// use trtsim_kernels::numeric::{conv_forward, PreparedConv};
/// use trtsim_kernels::tactic::Tactic;
///
/// let params = match LayerKind::conv_seeded(4, 3, 3, 1, 1, 7) {
///     LayerKind::Conv(c) => c,
///     _ => unreachable!(),
/// };
/// let input = Tensor::from_fn([3, 8, 8], |c, y, x| (c + y + x) as f32 * 0.1);
/// let tactic = Tactic::conv_hmma(128, 64, "");
///
/// let prepared = PreparedConv::new(&params, input.shape(), &tactic, None);
/// let (fast, counts) = prepared.run(&params, &input, &mut TensorArena::new());
/// assert_eq!(fast, conv_forward(&params, &input, &tactic, None));
/// assert_eq!(counts.vector + counts.scalar, fast.len() as u64);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedConv {
    geom: ConvGeom,
    interior: Interior,
    bias: Vec<f32>,
    tactic: Tactic,
    kind: PreparedKind,
    layout_in: Layout,
    layout_out: Layout,
}

impl PreparedConv {
    /// Lowers `params` under `tactic` for inputs of shape `in_shape`.
    ///
    /// # Panics
    ///
    /// Panics on an INT8 tactic without calibration scales, on a weight
    /// blob length mismatch, or on an input channel mismatch — the same
    /// conditions under which [`conv_forward`] panics.
    pub fn new(
        params: &ConvParams,
        in_shape: [usize; 3],
        tactic: &Tactic,
        quant: Option<&QuantDesc>,
    ) -> Self {
        Self::with_layouts(params, in_shape, tactic, quant, Layout::Chw, Layout::Chw)
    }

    /// Like [`PreparedConv::new`], but with the input consumed and the
    /// output produced in explicit physical layouts.
    ///
    /// `in_shape` is always the *logical* CHW shape; [`PreparedConv::run`]
    /// then expects the input tensor in `layout_in`'s physical shape and
    /// returns the output in `layout_out`'s. Results are bit-identical to
    /// the canonical layouts for every assignment (layout conversion is a
    /// pure permutation and the lane kernels preserve accumulation order).
    ///
    /// # Panics
    ///
    /// Panics (in addition to [`PreparedConv::new`]'s conditions) when a
    /// non-CHW layout is requested for a conv that has no lane kernel
    /// (see [`lane_layout`]) — the INT8 and reference walks are CHW-only.
    pub fn with_layouts(
        params: &ConvParams,
        in_shape: [usize; 3],
        tactic: &Tactic,
        quant: Option<&QuantDesc>,
        layout_in: Layout,
        layout_out: Layout,
    ) -> Self {
        let geom = ConvGeom::of(params, in_shape);
        let dense = params.weights.materialize().into_owned();
        assert_eq!(
            dense.len(),
            params.expected_weight_len(),
            "conv weight length mismatch"
        );
        let bias: Vec<f32> = params.bias.iter().collect();
        let lanes = LaneConv::build(params, &geom, tactic, &dense, &bias, layout_in, layout_out);
        let kind = match (lanes, tactic.precision) {
            (Some(lanes), _) => PreparedKind::Lanes(Box::new(lanes)),
            (None, Precision::Int8) => {
                let q = quant.expect("INT8 tactic requires calibration scales");
                let qdense: Vec<i32> = dense
                    .iter()
                    .map(|&w| i32::from(q.weights.quantize(w)))
                    .collect();
                PreparedKind::Int8 {
                    sparse: build_sparse(&geom, &qdense),
                    input: q.input,
                    out_scale: q.input.scale * q.weights.scale,
                }
            }
            (None, _) => PreparedKind::Reference,
        };
        if !matches!(kind, PreparedKind::Lanes(_)) {
            assert!(
                layout_in == Layout::Chw && layout_out == Layout::Chw,
                "INT8 and reference conv walks are CHW-only"
            );
        }
        Self {
            geom,
            interior: Interior::of(params, &geom),
            bias,
            tactic: tactic.clone(),
            kind,
            layout_in,
            layout_out,
        }
    }

    /// Output shape for the prepared input shape.
    pub fn out_shape(&self) -> [usize; 3] {
        [self.geom.out_channels, self.geom.oh, self.geom.ow]
    }

    /// The (input, output) physical layouts this conv was prepared for.
    pub fn layouts(&self) -> (Layout, Layout) {
        (self.layout_in, self.layout_out)
    }

    /// Physical shape [`PreparedConv::run`] expects its input tensor in.
    pub fn in_physical_shape(&self) -> [usize; 3] {
        self.layout_in.physical_shape(self.geom.in_shape)
    }

    /// Physical shape of the tensor [`PreparedConv::run`] returns.
    pub fn out_physical_shape(&self) -> [usize; 3] {
        self.layout_out.physical_shape(self.out_shape())
    }

    /// Executes the convolution; bit-identical (under `f32` equality) to
    /// [`conv_forward`] with the same tactic and calibration, modulo the
    /// prepared layouts' pure permutation of element positions. Also
    /// returns how many output values the vector and scalar paths produced.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have the prepared physical shape.
    pub fn run(
        &self,
        params: &ConvParams,
        input: &Tensor,
        arena: &mut TensorArena,
    ) -> (Tensor, PathCounts) {
        assert_eq!(
            input.shape(),
            self.in_physical_shape(),
            "prepared conv input shape mismatch"
        );
        let out = match &self.kind {
            PreparedKind::Lanes(lanes) => return self.run_lanes(lanes, params, input, arena),
            PreparedKind::Reference => {
                let want = conv_forward(params, input, &self.tactic, None);
                arena.alloc_copy(&want)
            }
            PreparedKind::Int8 {
                sparse,
                input: qin,
                out_scale,
            } => {
                let qx: Vec<i32> = input
                    .as_slice()
                    .iter()
                    .map(|&x| i32::from(qin.quantize(x)))
                    .collect();
                let mut out = arena.alloc_zeroed(self.out_shape());
                self.run_i8(sparse, &qx, *out_scale, params.activation, &mut out);
                out
            }
        };
        // Both CHW walks are scalar.
        let values = out.len();
        (out, PathCounts::scalar(values))
    }

    /// The lane-array fast path. FP32 runs unconditionally (exact reference
    /// order, non-finite values propagate identically); FP16 rounds the
    /// input onto the binary16 grid first and drops to the exact dense CHW
    /// walk when the input or weights carry non-finite values (NaN payloads
    /// from `0·∞` or NaN operands would depend on operand order).
    fn run_lanes(
        &self,
        lanes: &LaneConv,
        params: &ConvParams,
        input: &Tensor,
        arena: &mut TensorArena,
    ) -> (Tensor, PathCounts) {
        // The lane kernels write every physical element, pad lanes included.
        let shape = self.out_physical_shape();
        let mut out = Tensor::from_vec(shape, arena.take_buffer(shape.iter().product()));
        let values = self.geom.out_channels * self.geom.oh * self.geom.ow;
        if !lanes.fp16 {
            lanes.run(params.activation, input.as_slice(), out.as_mut_slice());
            return (out, PathCounts::vector(values));
        }
        let mut rx = arena.take_buffer(input.len());
        rx.copy_from_slice(input.as_slice());
        let finite = round_f16_slice(&mut rx);
        let counts = if finite && !lanes.force_dense {
            lanes.run(params.activation, &rx, out.as_mut_slice());
            PathCounts::vector(values)
        } else {
            // Exact dense fallback in canonical CHW, converted at the edges
            // (conversion is a pure permutation, so bit-exactness holds).
            let logical_in = self.geom.in_shape;
            let mut chw = arena.take_buffer(logical_in.iter().product());
            if lanes.layout_in == Layout::Chw {
                chw.copy_from_slice(&rx);
            } else {
                layout::convert_into(&rx, logical_in, lanes.layout_in, Layout::Chw, &mut chw);
            }
            let mut tmp = arena.alloc_zeroed(self.out_shape());
            conv_fp16_dense(
                &self.geom,
                &chw,
                &lanes.rdense,
                &self.bias,
                &self.tactic,
                params.activation,
                &mut tmp,
            );
            if lanes.layout_out == Layout::Chw {
                out.as_mut_slice().copy_from_slice(tmp.as_slice());
            } else {
                layout::convert_into(
                    tmp.as_slice(),
                    self.out_shape(),
                    Layout::Chw,
                    lanes.layout_out,
                    out.as_mut_slice(),
                );
            }
            arena.release(tmp);
            arena.give_buffer(chw);
            PathCounts::scalar(values)
        };
        arena.give_buffer(rx);
        (out, counts)
    }

    /// Offset of the first interior pixel of output row `oy` in the input
    /// image plane (channel offsets live in each entry's `delta`).
    fn row_base(&self, oy: usize) -> isize {
        ((oy * self.geom.s) * self.geom.iw + self.interior.ox_lo * self.geom.s) as isize
    }

    fn run_i8(
        &self,
        sparse: &[Vec<SparseEntry>],
        qx: &[i32],
        out_scale: f32,
        activation: Option<Activation>,
        out: &mut Tensor,
    ) {
        let g = self.geom;
        let it = self.interior;
        let width = it.ox_hi.saturating_sub(it.ox_lo);
        let mut acc_row = vec![0i64; width];
        for (oc, entries) in sparse.iter().enumerate() {
            let b = self.bias.get(oc).copied().unwrap_or(0.0);
            for oy in 0..g.oh {
                let interior_row = width > 0 && oy >= it.oy_lo && oy < it.oy_hi;
                if interior_row {
                    // Integer accumulation is exact and associative, so the
                    // entry-outer row order needs no rounding care at all.
                    acc_row.fill(0);
                    for e in entries {
                        let src = (self.row_base(oy) + e.delta) as usize;
                        let w = i64::from(e.w);
                        if g.s == 1 {
                            for (a, &xv) in acc_row.iter_mut().zip(&qx[src..src + width]) {
                                *a += i64::from(xv) * w;
                            }
                        } else {
                            for (i, a) in acc_row.iter_mut().enumerate() {
                                *a += i64::from(qx[src + i * g.s]) * w;
                            }
                        }
                    }
                    for (i, ox) in (it.ox_lo..it.ox_hi).enumerate() {
                        let v = acc_row[i] as f32 * out_scale + b;
                        *out.at_mut(oc, oy, ox) = apply_act(activation, v);
                    }
                }
                let border_cols: Box<dyn Iterator<Item = usize>> = if interior_row {
                    Box::new((0..it.ox_lo).chain(it.ox_hi..g.ow))
                } else {
                    Box::new(0..g.ow)
                };
                for ox in border_cols {
                    let mut acc: i64 = 0;
                    for e in entries {
                        let iy = (oy * g.s) as isize + e.dy;
                        let ix = (ox * g.s) as isize + e.dx;
                        if iy < 0 || iy >= g.ih as isize || ix < 0 || ix >= g.iw as isize {
                            continue;
                        }
                        let xv = qx[(e.c_in * g.ih + iy as usize) * g.iw + ix as usize];
                        if xv != 0 {
                            acc += i64::from(xv) * i64::from(e.w);
                        }
                    }
                    let v = acc as f32 * out_scale + b;
                    *out.at_mut(oc, oy, ox) = apply_act(activation, v);
                }
            }
        }
    }
}

/// A fully-connected layer pre-lowered for repeated execution.
///
/// For FP16 tactics the weight matrix is rounded to binary16 once at
/// construction; each [`PreparedFc::run`] call then rounds the input vector
/// once and performs a single product round per term — bit-identical to
/// [`fc_forward`], which re-rounds the weights and wraps every operand in a
/// fresh round on every call.
#[derive(Debug, Clone)]
pub struct PreparedFc {
    /// FP16: pre-rounded; FP32: raw.
    weights: Vec<f32>,
    bias: Vec<f32>,
    out_features: usize,
    tactic: Tactic,
    lanes: Option<FcLanes>,
}

/// Output-feature blocks the FC lane kernel advances per pass.
const FC_CHAINS: usize = 4;

/// FC weights repacked for the lane micro-kernel: `[block][tap]` gives the
/// weight lanes of 8 consecutive output features at input tap `tap`, so the
/// inner loop broadcasts one input value against a contiguous vector.
#[derive(Debug, Clone)]
struct FcLanes {
    /// Split-K flush period in taps (`usize::MAX`: never flush).
    chunk: usize,
    w: Vec<Vec<[f32; LANES]>>,
    bias_v: Vec<[f32; LANES]>,
}

impl FcLanes {
    fn build(weights: &[f32], bias: &[f32], out_features: usize, chunk: usize) -> Self {
        let in_features = weights.len() / out_features.max(1);
        let blocks = out_features.div_ceil(LANES);
        let mut w = Vec::with_capacity(blocks);
        let mut bias_v = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let mut wb = vec![[0.0f32; LANES]; in_features];
            let mut bv = [0.0f32; LANES];
            for l in 0..LANES {
                let o = b * LANES + l;
                if o >= out_features {
                    break;
                }
                bv[l] = bias.get(o).copied().unwrap_or(0.0);
                for (tap, lane) in wb.iter_mut().enumerate() {
                    lane[l] = weights[o * in_features + tap];
                }
            }
            w.push(wb);
            bias_v.push(bv);
        }
        Self { chunk, w, bias_v }
    }
}

impl PreparedFc {
    /// Lowers an FC layer's weights under `tactic`.
    ///
    /// # Panics
    ///
    /// Panics on an INT8 tactic, like [`fc_forward`] (FC layers in the
    /// catalog are FP16/FP32 only).
    pub fn new(weights: &Weights, bias: &Weights, out_features: usize, tactic: &Tactic) -> Self {
        let w = weights.materialize();
        let weights: Vec<f32> = match tactic.precision {
            Precision::Fp32 => w.into_owned(),
            Precision::Fp16 => w.iter().map(|&v| round_f16(v)).collect(),
            Precision::Int8 => panic!("INT8 fully-connected tactics are not in the catalog"),
        };
        let bias: Vec<f32> = bias.iter().collect();
        let lanes = match tactic.precision {
            Precision::Fp32 => Some(FcLanes::build(&weights, &bias, out_features, usize::MAX)),
            // Non-finite rounded weights make NaN payloads order-dependent.
            Precision::Fp16 if weights.iter().all(|v| v.is_finite()) => Some(FcLanes::build(
                &weights,
                &bias,
                out_features,
                fold_chunk(tactic.accum),
            )),
            _ => None,
        };
        Self {
            weights,
            bias,
            out_features,
            tactic: tactic.clone(),
            lanes,
        }
    }

    /// Executes the layer; bit-identical to [`fc_forward`]. Also returns
    /// how many output values the vector and scalar paths produced.
    ///
    /// # Panics
    ///
    /// Panics if the weight length does not match
    /// `out_features · input.len()`.
    pub fn run(
        &self,
        input: &Tensor,
        activation: Option<Activation>,
        arena: &mut TensorArena,
    ) -> (Tensor, PathCounts) {
        let in_features = input.len();
        assert_eq!(
            self.weights.len(),
            self.out_features * in_features,
            "fc weight mismatch"
        );
        let mut out = arena.alloc_zeroed([self.out_features, 1, 1]);
        if self.tactic.precision == Precision::Fp32 {
            // FP32 lanes (always built) replay the reference order exactly
            // (bias-start, sequential taps), so they need no finiteness guard.
            let lanes = self.lanes.as_ref().expect("FP32 FC layers always lane");
            self.run_lanes::<false>(lanes, input.as_slice(), activation, &mut out);
            return (out, PathCounts::vector(self.out_features));
        }
        let mut rx = arena.take_buffer(in_features);
        rx.copy_from_slice(input.as_slice());
        let finite = round_f16_slice(&mut rx);
        let counts = match &self.lanes {
            // Non-finite inputs make NaN payloads order-dependent; take the
            // reference walk instead (re-rounding the binary16 weights is
            // the identity).
            Some(lanes) if finite => {
                self.run_lanes::<true>(lanes, &rx, activation, &mut out);
                PathCounts::vector(self.out_features)
            }
            _ => {
                let want = fc_forward(
                    input,
                    &self.weights,
                    &self.bias,
                    self.out_features,
                    activation,
                    &self.tactic,
                );
                out.as_mut_slice().copy_from_slice(want.as_slice());
                PathCounts::scalar(self.out_features)
            }
        };
        arena.give_buffer(rx);
        (out, counts)
    }

    /// The lane kernel: up to [`FC_CHAINS`] blocks of 8 output features
    /// advance together as independent accumulation chains, sharing each
    /// input broadcast.
    fn run_lanes<const FP16: bool>(
        &self,
        lanes: &FcLanes,
        x: &[f32],
        activation: Option<Activation>,
        out: &mut Tensor,
    ) {
        let mut b = 0;
        while b < lanes.w.len() {
            b += match lanes.w.len() - b {
                1 => self.fc_chains::<1, FP16>(lanes, b, x, activation, out),
                2 => self.fc_chains::<2, FP16>(lanes, b, x, activation, out),
                3 => self.fc_chains::<3, FP16>(lanes, b, x, activation, out),
                _ => self.fc_chains::<FC_CHAINS, FP16>(lanes, b, x, activation, out),
            };
        }
    }

    /// Blocks `b0..b0 + N` of the lane kernel; returns `N`. Per feature the
    /// operations and their order are the reference walk's: FP32 starts
    /// from the bias and adds taps in order, so even non-finite values
    /// propagate identically; FP16 rounds every product and partial sum
    /// with [`round8_acc`] (operands are finite on the binary16 grid) and
    /// flushes split-K chunks into an f64 carry.
    fn fc_chains<const N: usize, const FP16: bool>(
        &self,
        lanes: &FcLanes,
        b0: usize,
        x: &[f32],
        activation: Option<Activation>,
        out: &mut Tensor,
    ) -> usize {
        let w: [&[[f32; LANES]]; N] = std::array::from_fn(|j| &lanes.w[b0 + j][..x.len()]);
        let sums: [[f32; LANES]; N] = if FP16 {
            let mut carry = [[0.0f64; LANES]; N];
            let flushed = x.len() / lanes.chunk * lanes.chunk;
            for lo in (0..flushed).step_by(lanes.chunk) {
                let part = fc_taps::<N, true>(&w, x, lo..lo + lanes.chunk, [[0.0; LANES]; N]);
                for (c, p) in carry.iter_mut().zip(&part) {
                    *c = std::array::from_fn(|l| c[l] + f64::from(p[l]));
                }
            }
            let rest = fc_taps::<N, true>(&w, x, flushed..x.len(), [[0.0; LANES]; N]);
            std::array::from_fn(|j| {
                std::array::from_fn(|l| {
                    (carry[j][l] + f64::from(rest[j][l])) as f32 + lanes.bias_v[b0 + j][l]
                })
            })
        } else {
            let bias = std::array::from_fn(|j| lanes.bias_v[b0 + j]);
            fc_taps::<N, false>(&w, x, 0..x.len(), bias)
        };
        for (j, v) in sums.iter().enumerate() {
            let b = b0 + j;
            let real = (self.out_features - b * LANES).min(LANES);
            for (l, &a) in v.iter().enumerate().take(real) {
                *out.at_mut(b * LANES + l, 0, 0) = apply_act(activation, a);
            }
        }
        N
    }
}

/// Accumulates FC taps `range` of `N` blocks onto `acc`, one input
/// broadcast per tap shared by every block.
#[inline(always)]
fn fc_taps<const N: usize, const FP16: bool>(
    w: &[&[[f32; LANES]]; N],
    x: &[f32],
    range: std::ops::Range<usize>,
    mut acc: [[f32; LANES]; N],
) -> [[f32; LANES]; N] {
    let w: [&[[f32; LANES]]; N] = std::array::from_fn(|j| &w[j][range.clone()]);
    for (i, &xv) in x[range].iter().enumerate() {
        for j in 0..N {
            let p: [f32; LANES] = std::array::from_fn(|l| xv * w[j][i][l]);
            if FP16 {
                let p = round8_acc(p);
                acc[j] = round8_acc(std::array::from_fn(|l| acc[j][l] + p[l]));
            } else {
                for l in 0..LANES {
                    acc[j][l] += p[l];
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_ir::graph::LayerKind;
    use trtsim_ir::weights::Weights;
    use trtsim_util::rng::Pcg32;

    fn test_conv(seed: u64) -> ConvParams {
        let mut rng = Pcg32::seed_from_u64(seed);
        let len = 8 * 8 * 3 * 3;
        ConvParams {
            out_channels: 8,
            in_channels: 8,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 1,
            weights: Weights::Dense((0..len).map(|_| rng.normal() as f32 * 0.2).collect()),
            bias: Weights::Dense(vec![0.01; 8]),
            activation: Some(Activation::Relu),
        }
    }

    fn test_input(seed: u64) -> Tensor {
        let mut rng = Pcg32::seed_from_u64(seed);
        Tensor::from_fn([8, 8, 8], |_, _, _| rng.normal() as f32)
    }

    #[test]
    fn fp32_tactic_matches_reference() {
        let params = test_conv(1);
        let input = test_input(2);
        let t = Tactic::conv_fp32(128, 64);
        let got = conv_forward(&params, &input, &t, None);
        let w = params.weights.materialize();
        let b: Vec<f32> = params.bias.iter().collect();
        let want = trtsim_ir::ops::conv2d(&input, &w, &b, &params);
        assert_eq!(got, want);
    }

    #[test]
    fn fp16_is_close_but_not_equal_to_fp32() {
        let params = test_conv(3);
        let input = test_input(4);
        let fp32 = conv_forward(&params, &input, &Tactic::conv_fp32(128, 64), None);
        let fp16 = conv_forward(&params, &input, &Tactic::conv_hmma(128, 64, ""), None);
        let mut max_rel = 0.0f32;
        let mut any_diff = false;
        for (a, b) in fp32.as_slice().iter().zip(fp16.as_slice()) {
            if a != b {
                any_diff = true;
            }
            if a.abs() > 0.1 {
                max_rel = max_rel.max((a - b).abs() / a.abs());
            }
        }
        assert!(any_diff, "fp16 should differ in low-order bits");
        assert!(max_rel < 0.05, "fp16 error too large: {max_rel}");
    }

    #[test]
    fn different_tiles_produce_different_fp16_results() {
        // The heart of Finding 2: same layer, same input, different tactic ⇒
        // different accumulation order ⇒ different bits.
        let params = test_conv(5);
        let input = test_input(6);
        let a = conv_forward(&params, &input, &Tactic::conv_hmma(256, 64, ""), None);
        let b = conv_forward(&params, &input, &Tactic::conv_hmma(128, 128, ""), None);
        assert_ne!(a, b);
        // But they agree to FP16 tolerance.
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= 0.01 * x.abs().max(1.0));
        }
    }

    #[test]
    fn int8_is_deterministic_across_tile_choices() {
        let params = test_conv(7);
        let input = test_input(8);
        let q = QuantDesc {
            input: QuantParams::calibrate(input.as_slice()),
            weights: QuantParams::calibrate(&params.weights.materialize()),
        };
        let a = conv_forward(&params, &input, &Tactic::conv_int8(128, 64), Some(&q));
        let b = conv_forward(&params, &input, &Tactic::conv_int8(256, 64), Some(&q));
        assert_eq!(a, b, "integer accumulation is associative");
    }

    #[test]
    fn int8_tracks_fp32_within_quant_error() {
        let params = test_conv(9);
        let input = test_input(10);
        let q = QuantDesc {
            input: QuantParams::calibrate(input.as_slice()),
            weights: QuantParams::calibrate(&params.weights.materialize()),
        };
        let fp32 = conv_forward(&params, &input, &Tactic::conv_fp32(128, 64), None);
        let int8 = conv_forward(&params, &input, &Tactic::conv_int8(128, 64), Some(&q));
        let amax = fp32.amax();
        for (a, b) in fp32.as_slice().iter().zip(int8.as_slice()) {
            assert!((a - b).abs() < 0.08 * amax, "{a} vs {b}");
        }
    }

    #[test]
    fn reducer_orders_differ_on_adversarial_input() {
        // Finding 2 in one reduction: the same FP16 terms summed in one run
        // and split-K give different bits.
        let fp16 = |order| Reducer { order, fp16: true };
        // Growing terms: one FP16 run loses low bits at its large running
        // total that short chunks keep.
        let terms: Vec<f32> = (0..64).map(|i| 1.0 + i as f32 * 0.0137).collect();
        let seq = fp16(AccumOrder::Sequential).reduce(&terms);
        let chunked = fp16(AccumOrder::Chunked(8)).reduce(&terms);
        // Both approximate the same sum...
        let exact: f32 = terms.iter().sum();
        for v in [seq, chunked] {
            assert!((v - exact).abs() < 0.005 * exact, "{v} vs {exact}");
        }
        // ...in different bits.
        assert_ne!(seq.to_bits(), chunked.to_bits());
    }

    #[test]
    fn reducer_handles_empty_and_single() {
        let r = Reducer::for_tactic(&Tactic::conv_hmma(128, 64, ""));
        assert_eq!(r.reduce(&[]), 0.0);
        assert_eq!(r.reduce(&[2.5]), 2.5);
    }

    #[test]
    fn apply_precision_fp16_rounds() {
        let mut t = Tensor::from_vec([1, 1, 2], vec![1.0 / 3.0, 1.0]);
        apply_precision(&mut t, Precision::Fp16);
        assert_ne!(t.at(0, 0, 0), 1.0 / 3.0);
        assert_eq!(t.at(0, 0, 1), 1.0);
    }

    /// Zeroes small weights, mimicking the accuracy experiments' magnitude
    /// pruning (the sparsity the INT8 walk elides).
    fn prune(params: &mut ConvParams, thresh: f32) {
        let w: Vec<f32> = params
            .weights
            .materialize()
            .iter()
            .map(|&v| if v.abs() < thresh { 0.0 } else { v })
            .collect();
        params.weights = Weights::Dense(w);
    }

    /// Asymmetric geometry: 5×3 kernel, stride 2, pad 2×0, two groups.
    fn strided_conv(seed: u64) -> ConvParams {
        let mut rng = Pcg32::seed_from_u64(seed);
        let len = 6 * 2 * 5 * 3;
        ConvParams {
            out_channels: 6,
            in_channels: 4,
            kernel_h: 5,
            kernel_w: 3,
            stride: 2,
            pad_h: 2,
            pad_w: 0,
            groups: 2,
            weights: Weights::Dense((0..len).map(|_| rng.normal() as f32 * 0.2).collect()),
            bias: Weights::Dense(vec![-0.02, 0.0, 0.01, 0.3, -0.1, 0.07]),
            activation: None,
        }
    }

    fn strided_input(seed: u64) -> Tensor {
        let mut rng = Pcg32::seed_from_u64(seed);
        // Odd height so the last output row's window is clipped.
        Tensor::from_fn([4, 9, 8], |_, _, _| rng.normal() as f32)
    }

    fn assert_prepared_matches(
        params: &ConvParams,
        input: &Tensor,
        tactic: &Tactic,
        quant: Option<&QuantDesc>,
    ) {
        let want = conv_forward(params, input, tactic, quant);
        let prepared = PreparedConv::new(params, input.shape(), tactic, quant);
        let mut arena = TensorArena::new();
        let (first, counts) = prepared.run(params, input, &mut arena);
        assert_eq!(first, want, "prepared mismatch under {:?}", tactic.accum);
        assert_eq!(counts.vector + counts.scalar, want.len() as u64);
        arena.release(first);
        // A second pass runs on recycled buffers and must still agree.
        assert_eq!(prepared.run(params, input, &mut arena), (want, counts));
    }

    #[test]
    fn prepared_fp32_bit_identical_on_pruned_weights() {
        let mut square = test_conv(21);
        prune(&mut square, 0.15);
        assert_prepared_matches(&square, &test_input(22), &Tactic::conv_fp32(128, 64), None);
        let mut strided = strided_conv(23);
        prune(&mut strided, 0.15);
        assert_prepared_matches(
            &strided,
            &strided_input(24),
            &Tactic::conv_fp32(128, 64),
            None,
        );
    }

    #[test]
    fn prepared_fp16_bit_identical_across_accum_orders() {
        let mut chunk_small = Tactic::conv_hmma(128, 64, "");
        chunk_small.accum = AccumOrder::Chunked(4); // stress static flush points
        let mut seq = Tactic::conv_hmma(128, 64, "");
        seq.accum = AccumOrder::Sequential;
        for tactic in [Tactic::conv_hmma(128, 64, ""), chunk_small, seq] {
            let mut square = test_conv(31);
            prune(&mut square, 0.15);
            assert_prepared_matches(&square, &test_input(32), &tactic, None);
            let mut strided = strided_conv(33);
            prune(&mut strided, 0.15);
            assert_prepared_matches(&strided, &strided_input(34), &tactic, None);
        }
    }

    #[test]
    fn prepared_int8_bit_identical_on_pruned_weights() {
        let mut params = test_conv(41);
        prune(&mut params, 0.15);
        let input = test_input(42);
        let q = QuantDesc {
            input: QuantParams::calibrate(input.as_slice()),
            weights: QuantParams::calibrate(&params.weights.materialize()),
        };
        assert_prepared_matches(&params, &input, &Tactic::conv_int8(128, 64), Some(&q));
    }

    #[test]
    fn prepared_falls_back_on_non_finite_input() {
        let mut params = test_conv(51);
        prune(&mut params, 0.15);
        let mut input = test_input(52);
        *input.at_mut(0, 0, 0) = f32::INFINITY;
        *input.at_mut(3, 4, 5) = f32::NAN;
        for tactic in [Tactic::conv_fp32(128, 64), Tactic::conv_hmma(128, 64, "")] {
            let want = conv_forward(&params, &input, &tactic, None);
            let prepared = PreparedConv::new(&params, input.shape(), &tactic, None);
            let (got, counts) = prepared.run(&params, &input, &mut TensorArena::new());
            assert_eq!(got.shape(), want.shape());
            // FP32 lanes propagate non-finite values themselves; FP16 lanes
            // hand the whole output to the dense scalar walk.
            let want_counts = match tactic.precision {
                Precision::Fp32 => PathCounts::vector(want.len()),
                _ => PathCounts::scalar(want.len()),
            };
            assert_eq!(counts, want_counts, "{:?}", tactic.precision);
            // NaN != NaN, so compare bit patterns.
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Runs `params` under every (layout_in, layout_out) pair, converting
    /// the input/output at the edges, and asserts bitwise identity with the
    /// canonical CHW result.
    fn assert_layouts_match(params: &ConvParams, input: &Tensor, tactic: &Tactic) {
        let want = conv_forward(params, input, tactic, None);
        let all = [Layout::Chw, Layout::Nhwc, Layout::Chwc8];
        for li in all {
            for lo in all {
                let prepared =
                    PreparedConv::with_layouts(params, input.shape(), tactic, None, li, lo);
                assert_eq!(prepared.layouts(), (li, lo));
                let phys_in = Tensor::from_vec(
                    prepared.in_physical_shape(),
                    layout::convert(input.as_slice(), input.shape(), Layout::Chw, li),
                );
                let mut arena = TensorArena::new();
                let (phys_out, _) = prepared.run(params, &phys_in, &mut arena);
                assert_eq!(phys_out.shape(), prepared.out_physical_shape());
                let back = layout::convert(phys_out.as_slice(), want.shape(), lo, Layout::Chw);
                for (i, (a, b)) in back.iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{li:?}->{lo:?} elem {i}: {a:e} vs {b:e} under {:?}",
                        tactic.accum
                    );
                }
            }
        }
    }

    #[test]
    fn lane_layouts_bit_identical_fp32() {
        assert_layouts_match(&test_conv(81), &test_input(82), &Tactic::conv_fp32(128, 64));
    }

    #[test]
    fn lane_layouts_bit_identical_fp16_orders() {
        let mut seq = Tactic::conv_hmma(128, 64, "");
        seq.accum = AccumOrder::Sequential;
        let mut chunk_small = Tactic::conv_hmma(128, 64, "");
        chunk_small.accum = AccumOrder::Chunked(4);
        for tactic in [Tactic::conv_hmma(128, 64, ""), chunk_small, seq] {
            assert_layouts_match(&test_conv(83), &test_input(84), &tactic);
        }
    }

    /// Channel count not a multiple of 8 exercises blocked pad lanes and a
    /// partial final lane block.
    #[test]
    fn lane_layouts_bit_identical_ragged_channels() {
        let mut rng = Pcg32::seed_from_u64(85);
        let len = 10 * 6 * 3 * 3;
        let params = ConvParams {
            out_channels: 10,
            in_channels: 6,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 1,
            weights: Weights::Dense((0..len).map(|_| rng.normal() as f32 * 0.2).collect()),
            bias: Weights::Dense((0..10).map(|_| rng.normal() as f32 * 0.1).collect()),
            activation: Some(Activation::Relu),
        };
        let input = Tensor::from_fn([6, 7, 9], |_, _, _| rng.normal() as f32);
        assert_layouts_match(&params, &input, &Tactic::conv_fp32(128, 64));
        assert_layouts_match(&params, &input, &Tactic::conv_hmma(128, 64, ""));
    }

    #[test]
    fn lane_layouts_bit_identical_depthwise() {
        for channels in [4usize, 12] {
            let mut rng = Pcg32::seed_from_u64(86 + channels as u64);
            let params = ConvParams {
                out_channels: channels,
                in_channels: channels,
                kernel_h: 3,
                kernel_w: 3,
                stride: 1,
                pad_h: 1,
                pad_w: 1,
                groups: channels,
                weights: Weights::Dense(
                    (0..channels * 9)
                        .map(|_| rng.normal() as f32 * 0.3)
                        .collect(),
                ),
                bias: Weights::Dense((0..channels).map(|_| rng.normal() as f32 * 0.1).collect()),
                activation: Some(Activation::Relu),
            };
            let input = Tensor::from_fn([channels, 6, 6], |_, _, _| rng.normal() as f32);
            assert_layouts_match(&params, &input, &Tactic::conv_fp32(128, 64));
            let mut dw = Tactic::conv_hmma(64, 64, "");
            dw.family = crate::tactic::TacticFamily::Depthwise;
            assert_layouts_match(&params, &input, &dw);
        }
    }

    #[test]
    fn lane_non_finite_falls_back_dense_under_layouts() {
        let params = test_conv(87);
        let mut input = test_input(88);
        *input.at_mut(0, 0, 0) = f32::INFINITY;
        *input.at_mut(5, 3, 2) = f32::NAN;
        for tactic in [Tactic::conv_fp32(128, 64), Tactic::conv_hmma(128, 64, "")] {
            assert_layouts_match(&params, &input, &tactic);
        }
    }

    #[test]
    fn lane_layout_descriptor_matches_eligibility() {
        let square = test_conv(89);
        assert_eq!(
            lane_layout(&square, &Tactic::conv_hmma(128, 64, "")),
            Some(Layout::Chwc8)
        );
        assert_eq!(
            lane_layout(&square, &Tactic::conv_fp32(128, 64)),
            Some(Layout::Chwc8)
        );
        assert_eq!(lane_layout(&square, &Tactic::conv_int8(128, 64)), None);
        // Grouped non-depthwise: no lane kernel.
        assert_eq!(
            lane_layout(&strided_conv(90), &Tactic::conv_hmma(128, 64, "")),
            None
        );
        // Depthwise prefers NHWC under a depthwise tactic.
        let mut dw_params = strided_conv(91);
        dw_params.groups = 4;
        dw_params.in_channels = 4;
        dw_params.out_channels = 4;
        let mut dw = Tactic::conv_hmma(64, 64, "");
        dw.family = crate::tactic::TacticFamily::Depthwise;
        assert_eq!(lane_layout(&dw_params, &dw), Some(Layout::Nhwc));
    }

    #[test]
    fn prepared_fc_bit_identical() {
        let mut rng = Pcg32::seed_from_u64(71);
        let (out_features, in_features) = (10, 48);
        let w: Vec<f32> = (0..out_features * in_features)
            .map(|_| rng.normal() as f32 * 0.3)
            .collect();
        let b: Vec<f32> = (0..out_features)
            .map(|_| rng.normal() as f32 * 0.1)
            .collect();
        let input = Tensor::from_vec(
            [in_features, 1, 1],
            (0..in_features).map(|_| rng.normal() as f32).collect(),
        );
        for tactic in [Tactic::conv_fp32(128, 64), Tactic::conv_hmma(128, 64, "")] {
            let want = fc_forward(
                &input,
                &w,
                &b,
                out_features,
                Some(Activation::Relu),
                &tactic,
            );
            let prepared = PreparedFc::new(
                &Weights::Dense(w.clone()),
                &Weights::Dense(b.clone()),
                out_features,
                &tactic,
            );
            let mut arena = TensorArena::new();
            for _ in 0..2 {
                let (got, counts) = prepared.run(&input, Some(Activation::Relu), &mut arena);
                assert_eq!(got, want);
                assert_eq!(counts.vector + counts.scalar, out_features as u64);
            }
        }
    }

    /// A 3×3/pad-1 conv over a positive input whose taps `(1, 1)` and
    /// `(1, 2)` weigh ±60000: their FP16 products round to +inf and -inf
    /// and meet in one chunk of the lane accumulation (adjacent in every
    /// in-bounds list that holds both), forming the default NaN there.
    fn inf_cancelling_conv(channels: usize, groups: usize) -> (ConvParams, Tensor) {
        let mut rng = Pcg32::seed_from_u64(2024);
        let per_out = channels / groups * 9;
        let weights = (0..channels * per_out)
            .map(|i| match i % 9 {
                4 => 60_000.0,
                5 => -60_000.0,
                _ => rng.normal() as f32 * 0.1,
            })
            .collect();
        let params = ConvParams {
            out_channels: channels,
            in_channels: channels,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups,
            weights: Weights::Dense(weights),
            bias: Weights::Dense(vec![0.5; channels]),
            activation: None,
        };
        let input = Tensor::from_fn([channels, 6, 7], |c, y, x| {
            1.5 + ((c + y * 7 + x) % 5) as f32
        });
        (params, input)
    }

    #[test]
    fn lanes_carry_inf_minus_inf_nan_bits_like_the_reference() {
        let fp16 = |accum| {
            let mut t = Tactic::conv_hmma(128, 64, "");
            t.accum = accum;
            t
        };
        for accum in [AccumOrder::Chunked(4), AccumOrder::Sequential] {
            let tactic = fp16(accum);
            for (channels, groups) in [(10, 1), (8, 8)] {
                let (params, input) = inf_cancelling_conv(channels, groups);
                let want = conv_forward(&params, &input, &tactic, None);
                assert!(
                    want.as_slice().iter().any(|v| v.to_bits() == 0xffc0_0000),
                    "groups {groups} {accum:?}: no default NaN formed"
                );
                let prepared = PreparedConv::new(&params, input.shape(), &tactic, None);
                let (_, counts) = prepared.run(&params, &input, &mut TensorArena::new());
                assert_eq!(counts.vector, want.len() as u64, "lane path ran");
                assert_layouts_match(&params, &input, &tactic);
            }

            let (out_features, in_features) = (20, 16);
            let w: Vec<f32> = (0..out_features * in_features)
                .map(|i| match i % in_features {
                    2 => 60_000.0,
                    3 => -60_000.0,
                    _ => 0.25,
                })
                .collect();
            let b = vec![0.5; out_features];
            let input = Tensor::from_fn([in_features, 1, 1], |c, _, _| 1.5 + c as f32 * 0.25);
            let want = fc_forward(&input, &w, &b, out_features, None, &tactic);
            assert!(want.as_slice().iter().all(|v| v.to_bits() == 0xffc0_0000));
            let prepared = PreparedFc::new(
                &Weights::Dense(w),
                &Weights::Dense(b),
                out_features,
                &tactic,
            );
            let (got, counts) = prepared.run(&input, None, &mut TensorArena::new());
            assert_eq!(counts.vector, out_features as u64, "lane path ran");
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "fc {accum:?}");
            }
        }
    }

    #[test]
    fn depthwise_numeric_fp16_runs() {
        let mut params = match LayerKind::conv_seeded(4, 4, 3, 1, 1, 0) {
            LayerKind::Conv(c) => c,
            _ => unreachable!(),
        };
        params.groups = 4;
        params.weights = Weights::Dense(vec![0.5; 4 * 9]);
        let input = test_input(11);
        let input = Tensor::from_vec([4, 8, 8], input.as_slice()[..4 * 64].to_vec());
        let mut t = Tactic::conv_hmma(64, 64, "");
        t.family = crate::tactic::TacticFamily::Depthwise;
        let out = conv_forward(&params, &input, &t, None);
        assert_eq!(out.shape(), [4, 8, 8]);
    }
}
