//! SIMD lane-array convolution micro-kernels with per-tactic data layouts.
//!
//! The hot inner loops of [`crate::numeric::PreparedConv`] are written here
//! as branch-free `[f32; 8]` *lane arrays*: eight output channels advance
//! in lockstep through the kernel taps, so LLVM lowers each step to a handful
//! of 256-bit vector instructions (the build sets `-C target-cpu=native`).
//! This is the simulator's analog of TensorRT's tactic-specific
//! `h884cudnn…nhwc` kernels — and like them, each kernel prefers a physical
//! activation layout ([`trtsim_ir::layout::Layout`]):
//!
//! * ungrouped convolutions vectorize over **output channels** and prefer
//!   blocked `CHWc8` so their stores are contiguous 8-lane vectors;
//! * depthwise convolutions vectorize over **channels** and prefer `NHWC`
//!   so their loads are contiguous 8-lane vectors;
//! * every kernel also accepts canonical CHW operands (scalar broadcasts /
//!   gathers), so the plan-time layout assignment is free to leave a value
//!   canonical when converts would cost more than they save.
//!
//! Output rows and columns split into *bands* whose kernel windows keep the
//! same taps in bounds. Each band pair carries the list of its in-bounds
//! taps with precomputed physical input deltas, and a tile schedule packs
//! every output pixel into tiles of 4 pixels with equal-length lists,
//! each pixel running its own list. Border pixels of different bands thus
//! fill full tiles next to the interior, with no per-tap bounds checks
//! anywhere.
//!
//! # Bit-exactness
//!
//! Results are bit-identical to the scalar reference walks in
//! [`crate::numeric`]:
//!
//! * FP32 lanes accumulate in *exactly* the reference tap order with the
//!   bias as the initial accumulator — the same f32 operations in the same
//!   order, so even non-finite inputs propagate identically.
//! * FP16 inputs are rounded with [`round8`], an exact binary16 round trip
//!   equal to [`round_f16`] for every `f32` input, overflow to ±inf and NaN
//!   included, and checked finite. The accumulation loops then round every
//!   product and partial sum with [`round8_acc`], which drops `round8`'s
//!   NaN blend: their operands are finite, so the only NaN they can form
//!   is `inf + -inf`, the default NaN, which `round8_acc` keeps exactly as
//!   `round_f16` does. No value ever needs a scalar redo. Tap lists skip
//!   out-of-bounds taps, so split-K chunk positions count in-bounds taps
//!   only, as the reference walk does.
//!
//! Each prepared-kernel call returns how many output values it produced on
//! the vector path and on scalar walks (dense fallbacks for non-finite
//! operands, the INT8 and reference walks) as a [`PathCounts`]; the plan sums
//! them, and its owner publishes them as `trtsim_kernel_vector_lanes_total`
//! / `trtsim_kernel_scalar_fallback_total`.

use trtsim_gpu::kernel::Precision;
use trtsim_ir::graph::{Activation, ConvParams};
use trtsim_ir::layout::{Layout, LANES};
use trtsim_util::f16::round_f16;

use crate::numeric::{apply_act, fold_chunk, ConvGeom};
use crate::tactic::Tactic;

/// Output-pixel positions advanced together by the tile micro-kernel.
const TILE: usize = 4;

/// Output values one prepared-kernel call produced, by path. The kernels
/// hand these back to their caller instead of publishing them anywhere;
/// the inference plan sums them per scratch (DESIGN §10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCounts {
    /// Values produced by the vectorized lane-array path.
    pub vector: u64,
    /// Values produced by scalar walks: dense fallbacks for non-finite
    /// operands, the INT8 sparse walk and the reference walks.
    pub scalar: u64,
}

impl PathCounts {
    /// `n` values from the vector path.
    pub fn vector(n: usize) -> Self {
        Self {
            vector: n as u64,
            scalar: 0,
        }
    }

    /// `n` values from a scalar walk.
    pub fn scalar(n: usize) -> Self {
        Self {
            vector: 0,
            scalar: n as u64,
        }
    }
}

impl std::ops::AddAssign for PathCounts {
    fn add_assign(&mut self, other: Self) {
        self.vector += other.vector;
        self.scalar += other.scalar;
    }
}

/// Round-to-nearest-even binary16 round trip of 8 lanes, bit-identical to
/// [`round_f16`] for every `f32` input: NaN becomes the canonical quiet NaN
/// `sign | 0x7fc0_0000`, magnitudes from 65520 up become ±inf.
///
/// With F16C this is one `vcvtps2ph`/`vcvtph2ps` pair plus a NaN blend;
/// other targets take [`round8_portable`].
#[cfg(all(target_arch = "x86_64", target_feature = "f16c"))]
#[inline(always)]
pub fn round8(v: [f32; LANES]) -> [f32; LANES] {
    use std::arch::x86_64::*;
    // SAFETY: the cfg guarantees AVX and F16C; loads and stores stay within
    // the two 8-element arrays.
    unsafe {
        let x = _mm256_loadu_ps(v.as_ptr());
        let r = _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x));
        let sign = _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN)));
        let qnan = _mm256_or_ps(sign, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fc0_0000)));
        let r = _mm256_blendv_ps(r, qnan, _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x));
        let mut out = [0.0f32; LANES];
        _mm256_storeu_ps(out.as_mut_ptr(), r);
        out
    }
}

/// Round-to-nearest-even binary16 round trip of 8 lanes (see the F16C
/// variant); targets without F16C take [`round8_portable`].
#[cfg(not(all(target_arch = "x86_64", target_feature = "f16c")))]
#[inline(always)]
pub fn round8(v: [f32; LANES]) -> [f32; LANES] {
    round8_portable(v)
}

/// Branch-free software body of [`round8`]. Normals take the Veltkamp split
/// (`c = v·(2¹³+1); c − (c − v)` rounds the significand to 11 bits); a
/// magic-number add (`(v + 0.75) − 0.75`) lands subnormals on the binary16
/// grid (f32 ulp in `[0.5, 1)` is 2⁻²⁴, the binary16 subnormal quantum),
/// with zero results given the argument's sign back; results past 65504
/// (or NaN from an overflowed split) select ±inf, or the canonical NaN for
/// a NaN argument.
#[inline(always)]
pub fn round8_portable(v: [f32; LANES]) -> [f32; LANES] {
    let mut r = [0.0f32; LANES];
    for l in 0..LANES {
        let x = v[l];
        let c = x * 8193.0;
        let rn = c - (c - x);
        let mut rs = (x + 0.75) - 0.75;
        if rs == 0.0 {
            rs = 0.0f32.copysign(x);
        }
        let big = if x.is_nan() {
            f32::from_bits((x.to_bits() & 0x8000_0000) | 0x7fc0_0000)
        } else {
            f32::INFINITY.copysign(x)
        };
        r[l] = if x.abs() < 6.103_515_6e-5 {
            rs
        } else if rn.abs() <= 65_504.0 {
            rn
        } else {
            big
        };
    }
    r
}

/// Round-to-nearest-even binary16 round trip of 8 lanes for the
/// accumulation loops, whose operands are finite on the binary16 grid.
///
/// With F16C this is the bare `vcvtps2ph`/`vcvtph2ps` pair, without
/// [`round8`]'s NaN blend. It equals [`round_f16`] on every non-NaN input,
/// and on the default NaN `0xffc0_0000`: the pair keeps a NaN's sign and
/// top payload bits, so it differs from the canonical NaN only for other
/// payloads. Inside a lane accumulation no other NaN can arise: a product
/// of finite binary16 values is finite before rounding, so the only NaN a
/// loop can form is the sum `inf + -inf`, which x86 returns as the default
/// NaN, and a NaN accumulator then stays that NaN. Other targets take
/// [`round8_portable`].
#[cfg(all(target_arch = "x86_64", target_feature = "f16c"))]
#[inline(always)]
pub fn round8_acc(v: [f32; LANES]) -> [f32; LANES] {
    use std::arch::x86_64::*;
    // SAFETY: the cfg guarantees AVX and F16C; loads and stores stay within
    // the two 8-element arrays.
    unsafe {
        let x = _mm256_loadu_ps(v.as_ptr());
        let r = _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x));
        let mut out = [0.0f32; LANES];
        _mm256_storeu_ps(out.as_mut_ptr(), r);
        out
    }
}

/// Binary16 round trip for the accumulation loops (see the F16C variant);
/// targets without F16C take the blended [`round8_portable`].
#[cfg(not(all(target_arch = "x86_64", target_feature = "f16c")))]
#[inline(always)]
pub fn round8_acc(v: [f32; LANES]) -> [f32; LANES] {
    round8_portable(v)
}

/// Rounds a slice onto the binary16 grid in place, 8 lanes at a time;
/// bit-identical to mapping [`round_f16`]. Returns whether every rounded
/// value is finite.
pub(crate) fn round_f16_slice(buf: &mut [f32]) -> bool {
    let mut finite = true;
    let mut chunks = buf.chunks_exact_mut(LANES);
    for c in &mut chunks {
        let r = round8(c.try_into().unwrap());
        for v in r {
            finite &= v.is_finite();
        }
        c.copy_from_slice(&r);
    }
    for x in chunks.into_remainder() {
        *x = round_f16(*x);
        finite &= x.is_finite();
    }
    finite
}

/// Output rows (or columns) `[lo, hi)` whose kernel windows keep exactly
/// the taps `[k_lo, k_hi)` along that axis in bounds.
#[derive(Debug, Clone, Copy)]
struct Band {
    lo: usize,
    hi: usize,
    k_lo: usize,
    k_hi: usize,
}

/// Splits `0..out` into maximal runs of positions with the same in-bounds
/// kernel range (interior positions form one band; each border position
/// with its own clipping forms another).
fn bands(out: usize, inp: usize, k: usize, s: usize, pad: isize) -> Vec<Band> {
    let mut v: Vec<Band> = Vec::new();
    for o in 0..out {
        let start = (o * s) as isize - pad;
        let k_lo = (-start).clamp(0, k as isize) as usize;
        let k_hi = (inp as isize - start).clamp(0, k as isize) as usize;
        match v.last_mut() {
            Some(b) if (b.k_lo, b.k_hi) == (k_lo, k_hi) => b.hi = o + 1,
            _ => v.push(Band {
                lo: o,
                hi: o + 1,
                k_lo,
                k_hi,
            }),
        }
    }
    v
}

/// Up to [`TILE`] output pixels the tile micro-kernel advances together.
/// Their tap lists have equal length, so the positions step through their
/// taps and split-K flushes in lockstep, each through its own list.
#[derive(Debug, Clone, Copy)]
struct Tile {
    /// Positions in use (`1..=TILE`).
    n: u32,
    /// Flat output pixel `oy·ow + ox` of each position.
    px: [u32; TILE],
    /// Physical input offset of each position's window origin.
    origin: [u32; TILE],
    /// Each position's tap list, as an index into [`LaneConv::subs`].
    sub: [u32; TILE],
}

impl Tile {
    /// Every position runs the same tap list (interior tiles), so one
    /// weight load serves the whole tile.
    fn shared(&self) -> bool {
        self.sub.iter().all(|&s| s == self.sub[0])
    }
}

/// The tile schedule: every output pixel exactly once, grouped by the
/// length of its in-bounds tap list (longest first, raster order within a
/// group) and cut into [`TILE`]-pixel tiles, so border pixels of different
/// bands share full tiles and only the last tile of each distinct length
/// can be partial. `subs[ri · cols.len() + ci]` is the tap list of row
/// band `ri` × column band `ci`.
fn schedule(
    g: &ConvGeom,
    in_mul: usize,
    rows: &[Band],
    cols: &[Band],
    subs: &[Vec<(u32, i32)>],
) -> Vec<Tile> {
    let mut pixels = Vec::with_capacity(g.oh * g.ow);
    for (ri, r) in rows.iter().enumerate() {
        for oy in r.lo..r.hi {
            for (ci, c) in cols.iter().enumerate() {
                for ox in c.lo..c.hi {
                    let sub = ri * cols.len() + ci;
                    pixels.push((subs[sub].len(), oy * g.ow + ox, sub));
                }
            }
        }
    }
    pixels.sort_by_key(|&(len, px, _)| (std::cmp::Reverse(len), px));
    let u32_of = |v: usize| u32::try_from(v).expect("conv too large");
    let mut tiles = Vec::with_capacity(pixels.len().div_ceil(TILE));
    for group in pixels.chunk_by(|a, b| a.0 == b.0) {
        for chunk in group.chunks(TILE) {
            let mut tile = Tile {
                n: chunk.len() as u32,
                px: [0; TILE],
                origin: [0; TILE],
                sub: [chunk[0].2 as u32; TILE],
            };
            for (t, &(_, px, sub)) in chunk.iter().enumerate() {
                let (oy, ox) = (px / g.ow, px % g.ow);
                tile.px[t] = u32_of(px);
                tile.origin[t] = u32_of((oy * g.iw + ox) * g.s * in_mul);
                tile.sub[t] = sub as u32;
            }
            tiles.push(tile);
        }
    }
    tiles
}

/// A convolution lowered onto the lane-array micro-kernels.
///
/// Weights are packed `[oc_block][tap] -> [f32; 8]` (output-channel lanes;
/// channel lanes for depthwise), in the exact tap order of the dense
/// reference walk. Input addressing is layout-parameterized through
/// per-band tap lists of `(tap, physical delta from the window origin)`,
/// and a precomputed tile schedule assigns each output pixel its list.
#[derive(Debug, Clone)]
pub(crate) struct LaneConv {
    /// The geometry the tap lists and tile schedule were built for.
    g: ConvGeom,
    pub(crate) layout_in: Layout,
    pub(crate) layout_out: Layout,
    pub(crate) fp16: bool,
    depthwise: bool,
    /// FP16 weights contain non-finite values: NaN payloads would then
    /// depend on operand order, so every run takes the exact dense walk.
    pub(crate) force_dense: bool,
    /// Split-K flush period in taps (`usize::MAX`: never flush).
    chunk: usize,
    /// `[row band × column band]`: the in-bounds taps in dense order, each
    /// as `(tap, input delta from the window origin)`.
    subs: Vec<Vec<(u32, i32)>>,
    /// Every output pixel once, packed into tiles (see [`schedule`]).
    tiles: Vec<Tile>,
    /// `[block][tap]` weight lanes; lanes past the real channel count are 0.
    w: Vec<Vec<[f32; LANES]>>,
    /// Per-block bias lanes; pad lanes are 0.
    bias_v: Vec<[f32; LANES]>,
    /// Dense CHW-ordered weights (FP16: pre-rounded) for the fallback path.
    pub(crate) rdense: Vec<f32>,
}

/// Per-block operands of one lane-conv run, shared by every tile.
struct BlockCtx<'a> {
    x: &'a [f32],
    wb: &'a [[f32; LANES]],
    bv: [f32; LANES],
    b: usize,
    real: usize,
    /// Depthwise: input elements between channel lanes, and the block's
    /// channel offset.
    ls: usize,
    boff: isize,
    chunk: usize,
    act: Option<Activation>,
}

impl LaneConv {
    /// Lowers the conv onto lane kernels, or `None` for INT8 tactics and
    /// grouped non-depthwise convolutions, which have no lane kernel.
    pub(crate) fn build(
        params: &ConvParams,
        g: &ConvGeom,
        tactic: &Tactic,
        dense: &[f32],
        bias: &[f32],
        layout_in: Layout,
        layout_out: Layout,
    ) -> Option<Self> {
        let fp16 = match tactic.precision {
            Precision::Fp32 => false,
            Precision::Fp16 => true,
            Precision::Int8 => return None,
        };
        let depthwise = params.groups > 1
            && params.groups == params.in_channels
            && params.groups == params.out_channels;
        if params.groups != 1 && !depthwise {
            return None;
        }
        let rdense: Vec<f32> = if fp16 {
            dense.iter().map(|&v| round_f16(v)).collect()
        } else {
            dense.to_vec()
        };
        let force_dense = fp16 && rdense.iter().any(|v| !v.is_finite());

        let [ic, ih, iw] = g.in_shape;
        let in_mul = match layout_in {
            Layout::Chw => 1,
            Layout::Chwc8 => LANES,
            Layout::Nhwc => ic,
        };
        // Each band's in-bounds taps in dense `(c_in, ky, kx)` order, with
        // their input delta from the window origin. Depthwise deltas are
        // spatial only (the channel is the lane); standard ones add the
        // input channel's physical offset.
        let c_ins = if depthwise { 1 } else { ic };
        let ntaps = c_ins * g.kh * g.kw;
        let rows = bands(g.oh, ih, g.kh, g.s, g.ph);
        let cols = bands(g.ow, iw, g.kw, g.s, g.pw);
        let mut subs = Vec::with_capacity(rows.len() * cols.len());
        for r in &rows {
            for c in &cols {
                let area = r.k_hi.saturating_sub(r.k_lo) * c.k_hi.saturating_sub(c.k_lo);
                let mut sub = Vec::with_capacity(c_ins * area);
                for c_in in 0..c_ins {
                    let c_off = match layout_in {
                        _ if depthwise => 0,
                        Layout::Chw => c_in * ih * iw,
                        Layout::Chwc8 => (c_in / LANES) * ih * iw * LANES + c_in % LANES,
                        Layout::Nhwc => c_in,
                    } as isize;
                    for ky in r.k_lo..r.k_hi {
                        for kx in c.k_lo..c.k_hi {
                            let (dy, dx) = (ky as isize - g.ph, kx as isize - g.pw);
                            let delta = c_off + (dy * iw as isize + dx) * in_mul as isize;
                            let tap = (c_in * g.kh + ky) * g.kw + kx;
                            sub.push((tap as u32, i32::try_from(delta).expect("conv too large")));
                        }
                    }
                }
                subs.push(sub);
            }
        }
        let tiles = schedule(g, in_mul, &rows, &cols, &subs);

        let blocks = g.out_channels.div_ceil(LANES);
        let mut w = Vec::with_capacity(blocks);
        let mut bias_v = Vec::with_capacity(blocks);
        for b in 0..blocks {
            let mut wb = vec![[0.0f32; LANES]; ntaps];
            let mut bv = [0.0f32; LANES];
            for l in 0..LANES {
                let oc = b * LANES + l;
                if oc >= g.out_channels {
                    break;
                }
                bv[l] = bias.get(oc).copied().unwrap_or(0.0);
                for (tap, lane) in wb.iter_mut().enumerate() {
                    lane[l] = rdense[oc * ntaps + tap];
                }
            }
            w.push(wb);
            bias_v.push(bv);
        }

        Some(Self {
            g: *g,
            layout_in,
            layout_out,
            fp16,
            depthwise,
            force_dense,
            chunk: if fp16 {
                fold_chunk(tactic.accum)
            } else {
                usize::MAX
            },
            subs,
            tiles,
            w,
            bias_v,
            rdense,
        })
    }

    /// Executes the lane kernels. `x` is the physical input in `layout_in`
    /// (already rounded to binary16 and verified finite for FP16); `out` is
    /// the physical output buffer in `layout_out`.
    pub(crate) fn run(&self, act: Option<Activation>, x: &[f32], out: &mut [f32]) {
        // The tile kernels index `x` unchecked (see `step`).
        assert_eq!(
            x.len(),
            self.layout_in.physical_len(self.g.in_shape),
            "lane conv input length"
        );
        match (self.depthwise, self.fp16) {
            (false, true) => self.run_typed::<true, false>(act, x, out),
            (false, false) => self.run_typed::<false, false>(act, x, out),
            (true, true) => self.run_typed::<true, true>(act, x, out),
            (true, false) => self.run_typed::<false, true>(act, x, out),
        }
    }

    fn run_typed<const FP16: bool, const DW: bool>(
        &self,
        act: Option<Activation>,
        x: &[f32],
        out: &mut [f32],
    ) {
        let g = &self.g;
        let plane = g.ih * g.iw;
        let ls = match self.layout_in {
            Layout::Chw => plane,
            Layout::Chwc8 | Layout::Nhwc => 1,
        };
        for b in 0..g.out_channels.div_ceil(LANES) {
            let boff = match self.layout_in {
                _ if !DW => 0,
                Layout::Chw | Layout::Chwc8 => b * LANES * plane,
                Layout::Nhwc => b * LANES,
            };
            let cx = BlockCtx {
                x,
                wb: &self.w[b],
                bv: self.bias_v[b],
                b,
                real: (g.out_channels - b * LANES).min(LANES),
                ls,
                boff: boff as isize,
                chunk: self.chunk,
                act,
            };
            for tile in &self.tiles {
                match tile.n {
                    1 => self.emit::<1, FP16, DW, false>(&cx, tile, out),
                    2 => self.emit::<2, FP16, DW, false>(&cx, tile, out),
                    3 => self.emit::<3, FP16, DW, false>(&cx, tile, out),
                    _ if tile.shared() => self.emit::<TILE, FP16, DW, true>(&cx, tile, out),
                    _ => self.emit::<TILE, FP16, DW, false>(&cx, tile, out),
                }
            }
        }
    }

    /// Computes and stores the first `T` positions of `tile`. `SHARED`:
    /// every position runs the first position's tap list.
    #[inline(always)]
    fn emit<const T: usize, const FP16: bool, const DW: bool, const SHARED: bool>(
        &self,
        cx: &BlockCtx,
        tile: &Tile,
        out: &mut [f32],
    ) {
        let subs: [&[(u32, i32)]; T] = std::array::from_fn(|t| {
            self.subs[tile.sub[if SHARED { 0 } else { t }] as usize].as_slice()
        });
        let bases: [isize; T] = std::array::from_fn(|t| tile.origin[t] as isize + cx.boff);
        let vals = tile_sums::<T, FP16, DW>(cx, subs, &bases);
        for (t, v) in vals.iter().enumerate() {
            self.store8(cx, tile.px[t] as usize, v, out);
        }
    }

    /// Activates and stores one pixel's 8 lanes; `px` is the flat output
    /// pixel `oy·ow + ox`.
    #[inline(always)]
    fn store8(&self, cx: &BlockCtx, px: usize, vals: &[f32; LANES], out: &mut [f32]) {
        let (g, b, real) = (&self.g, cx.b, cx.real);
        let plane = g.oh * g.ow;
        let mut sv = act8(cx.act, *vals);
        match self.layout_out {
            Layout::Chw => {
                for (l, &v) in sv.iter().enumerate().take(real) {
                    out[(b * LANES + l) * plane + px] = v;
                }
            }
            // Contiguous 8-lane vector store; pad lanes written as explicit
            // zeros so blocked buffers stay clean for downstream converts.
            Layout::Chwc8 => {
                sv[real..].fill(0.0);
                let o = (b * plane + px) * LANES;
                out[o..o + LANES].copy_from_slice(&sv);
            }
            Layout::Nhwc => {
                let o = px * g.out_channels + b * LANES;
                out[o..o + real].copy_from_slice(&sv[..real]);
            }
        }
    }
}

/// [`apply_act`] on 8 lanes, with the activation matched once so the lane
/// loop vectorizes.
#[inline(always)]
fn act8(act: Option<Activation>, v: [f32; LANES]) -> [f32; LANES] {
    match act {
        None => v,
        Some(Activation::Relu) => v.map(|x| apply_act(Some(Activation::Relu), x)),
        Some(a) => v.map(|x| a.apply(x)),
    }
}

/// The tile micro-kernel: `T` output pixels × 8 lanes advance through their
/// equal-length tap lists. FP16 flushes the accumulator into an f64 carry
/// every `chunk` taps of the list. Returns biased pre-activation values.
#[inline(always)]
fn tile_sums<const T: usize, const FP16: bool, const DW: bool>(
    cx: &BlockCtx,
    subs: [&[(u32, i32)]; T],
    bases: &[isize; T],
) -> [[f32; LANES]; T] {
    let len = subs[0].len();
    if !FP16 {
        return taps_sum::<T, false, DW>(cx, subs, bases, 0..len, [cx.bv; T]);
    }
    let mut carry = [[0.0f64; LANES]; T];
    let flushed = len / cx.chunk * cx.chunk;
    for lo in (0..flushed).step_by(cx.chunk) {
        let part = taps_sum::<T, true, DW>(cx, subs, bases, lo..lo + cx.chunk, [[0.0; LANES]; T]);
        for (c, p) in carry.iter_mut().zip(&part) {
            *c = std::array::from_fn(|l| c[l] + f64::from(p[l]));
        }
    }
    let rest = taps_sum::<T, true, DW>(cx, subs, bases, flushed..len, [[0.0; LANES]; T]);
    std::array::from_fn(|t| {
        std::array::from_fn(|l| (carry[t][l] + f64::from(rest[t][l])) as f32 + cx.bv[l])
    })
}

/// Accumulates taps `range` of each position's list onto `acc`.
#[inline(always)]
fn taps_sum<const T: usize, const FP16: bool, const DW: bool>(
    cx: &BlockCtx,
    subs: [&[(u32, i32)]; T],
    bases: &[isize; T],
    range: std::ops::Range<usize>,
    mut acc: [[f32; LANES]; T],
) -> [[f32; LANES]; T] {
    let subs: [&[(u32, i32)]; T] = std::array::from_fn(|t| &subs[t][range.clone()]);
    // `i` walks all `T` lists in lockstep.
    #[allow(clippy::needless_range_loop)]
    for i in 0..range.len() {
        let taps: [(u32, i32); T] = std::array::from_fn(|t| subs[t][i]);
        step::<T, FP16, DW>(cx, taps, bases, &mut acc);
    }
    acc
}

/// One tap of the tile micro-kernel: load the input lanes of each tile
/// position (a broadcast for standard convs, the block's channels for
/// depthwise), multiply against the position's 8 weight lanes, round
/// (FP16, with the unblended [`round8_acc`]: operands are finite) and
/// accumulate.
#[inline(always)]
fn step<const T: usize, const FP16: bool, const DW: bool>(
    cx: &BlockCtx,
    taps: [(u32, i32); T],
    bases: &[isize; T],
    acc: &mut [[f32; LANES]; T],
) {
    for t in 0..T {
        let (tap, delta) = taps[t];
        let o = (bases[t] + delta as isize) as usize;
        debug_assert!((tap as usize) < cx.wb.len());
        debug_assert!(o + (cx.real - 1) * cx.ls * usize::from(DW) < cx.x.len());
        // SAFETY: `LaneConv::build` lists only taps `< ntaps == wb.len()`,
        // each in bounds of the window of every pixel that runs the list
        // in the geometry it stores, and `LaneConv::run` asserted that `x`
        // is that geometry's whole physical input, so `o` (plus the
        // block's real channel lanes for depthwise) indexes `x`.
        let (wv, xv) = unsafe {
            let wv = *cx.wb.get_unchecked(tap as usize);
            let xv = if DW {
                let mut v = [0.0f32; LANES];
                for (l, lane) in v.iter_mut().enumerate().take(cx.real) {
                    *lane = *cx.x.get_unchecked(o + l * cx.ls);
                }
                v
            } else {
                [*cx.x.get_unchecked(o); LANES]
            };
            (wv, xv)
        };
        let mut p = [0.0f32; LANES];
        for l in 0..LANES {
            p[l] = xv[l] * wv[l];
        }
        if FP16 {
            let p = round8_acc(p);
            let mut s = [0.0f32; LANES];
            for l in 0..LANES {
                s[l] = acc[t][l] + p[l];
            }
            acc[t] = round8_acc(s);
        } else {
            for l in 0..LANES {
                acc[t][l] += p[l];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default NaN x86 arithmetic returns for `inf + -inf`.
    const DEFAULT_NAN: u32 = 0xffc0_0000;

    /// Checks both `round8` bodies against `round_f16` on 8 bit patterns,
    /// and `round8_acc` on those that are not NaN or are the default NaN.
    fn check8(bits: [u32; LANES]) {
        let v = bits.map(f32::from_bits);
        for (name, got) in [
            ("round8", round8(v)),
            ("portable", round8_portable(v)),
            ("acc", round8_acc(v)),
        ] {
            for l in 0..LANES {
                if name == "acc" && v[l].is_nan() && bits[l] != DEFAULT_NAN {
                    continue;
                }
                let want = round_f16(v[l]);
                assert_eq!(
                    got[l].to_bits(),
                    want.to_bits(),
                    "{name}({:#010x} = {:e}) = {:e}, want {want:e}",
                    bits[l],
                    v[l],
                    got[l]
                );
            }
        }
    }

    #[test]
    fn round8_acc_keeps_the_default_nan() {
        let mut bits = [0u32; LANES];
        bits[3] = DEFAULT_NAN;
        check8(bits);
        if cfg!(target_arch = "x86_64") {
            let sum = f32::INFINITY + std::hint::black_box(f32::NEG_INFINITY);
            assert_eq!(sum.to_bits(), DEFAULT_NAN, "x86 default NaN");
        }
    }

    #[test]
    #[ignore = "exhaustive 2^32 sweep; run with --release -- --ignored"]
    fn round8_matches_round_f16_exhaustively() {
        let mut b = [0u32; LANES];
        for hi in 0..=u32::MAX >> 3 {
            for (l, lane) in b.iter_mut().enumerate() {
                *lane = hi << 3 | l as u32;
            }
            check8(b);
        }
    }

    #[test]
    fn round_f16_slice_matches_and_reports_finiteness() {
        let vals: Vec<f32> = (0..1001)
            .map(|i| (i as f32 - 500.0) * 131.7)
            .chain([f32::NAN, 1e-9])
            .collect();
        let mut lanes = vals.clone();
        assert!(!round_f16_slice(&mut lanes), "65520+ overflows to inf");
        for (&src, &got) in vals.iter().zip(&lanes) {
            assert_eq!(got.to_bits(), round_f16(src).to_bits(), "{src:e}");
        }
        let mut small = vec![1.5f32, -0.25, 3.0e4, 1.0e-6, 0.0];
        assert!(round_f16_slice(&mut small));
    }

    /// The in-bounds taps of output pixel `(oy, ox)`'s window in dense
    /// `(c_in, ky, kx)` order, as `(tap, input offset)` in CHW.
    fn window_taps(g: &ConvGeom, c_ins: usize, oy: usize, ox: usize) -> Vec<(u32, isize)> {
        let mut taps = Vec::new();
        for c_in in 0..c_ins {
            for ky in 0..g.kh {
                for kx in 0..g.kw {
                    let iy = (oy * g.s + ky) as isize - g.ph;
                    let ix = (ox * g.s + kx) as isize - g.pw;
                    if iy >= 0 && ix >= 0 && iy < g.ih as isize && ix < g.iw as isize {
                        let tap = ((c_in * g.kh + ky) * g.kw + kx) as u32;
                        taps.push((
                            tap,
                            (c_in * g.ih + iy as usize) as isize * g.iw as isize + ix,
                        ));
                    }
                }
            }
        }
        taps
    }

    #[test]
    fn tile_schedule_covers_every_pixel_once_with_its_own_taps() {
        use trtsim_ir::graph::LayerKind;
        // The border-heavy shapes of `tests/fp16_exactness.rs`:
        // `[oc, ic, k, stride, pad, groups]` over `[c, h, w]`.
        let cases: [([usize; 6], [usize; 3]); 8] = [
            ([16, 8, 5, 1, 2, 1], [8, 8, 8]),
            ([12, 5, 3, 2, 1, 1], [5, 9, 8]),
            ([8, 3, 7, 2, 3, 1], [3, 11, 10]),
            ([10, 6, 3, 1, 1, 1], [6, 7, 9]),
            ([9, 4, 5, 1, 2, 1], [4, 3, 2]),
            ([8, 16, 1, 1, 0, 1], [16, 5, 5]),
            ([12, 12, 3, 1, 1, 12], [12, 6, 6]),
            ([10, 10, 5, 2, 2, 10], [10, 7, 7]),
        ];
        for ([oc, ic, k, s, p, groups], in_shape) in cases {
            let LayerKind::Conv(mut params) = LayerKind::conv_seeded(oc, ic, k, s, p, 1) else {
                unreachable!()
            };
            params.groups = groups;
            params.weights =
                trtsim_ir::weights::Weights::Dense(vec![0.5; params.expected_weight_len()]);
            let g = ConvGeom::of(&params, in_shape);
            let dense = params.weights.materialize();
            let lanes = LaneConv::build(
                &params,
                &g,
                &Tactic::conv_hmma(128, 64, ""),
                &dense,
                &[],
                Layout::Chw,
                Layout::Chw,
            )
            .expect("lane conv");
            let c_ins = if groups > 1 { 1 } else { ic };
            let mut seen = vec![0u32; g.oh * g.ow];
            let mut tile_taps = 0;
            for tile in &lanes.tiles {
                let n = tile.n as usize;
                assert!((1..=TILE).contains(&n));
                let len = lanes.subs[tile.sub[0] as usize].len();
                tile_taps += len;
                for t in 0..n {
                    let px = tile.px[t] as usize;
                    seen[px] += 1;
                    let (oy, ox) = (px / g.ow, px % g.ow);
                    let sub = &lanes.subs[tile.sub[t] as usize];
                    assert_eq!(sub.len(), len, "positions of a tile share a list length");
                    let got: Vec<(u32, isize)> = sub
                        .iter()
                        .map(|&(tap, delta)| (tap, tile.origin[t] as isize + delta as isize))
                        .collect();
                    assert_eq!(got, window_taps(&g, c_ins, oy, ox), "pixel ({oy}, {ox})");
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "{in_shape:?}: {seen:?}");
            if (k, p, in_shape) == (5, 2, [8, 8, 8]) {
                // 1156 window taps per input channel in 289 full tiles: no
                // partial tile at all.
                assert_eq!(tile_taps, 289 * c_ins);
            }
        }
    }

    #[test]
    fn bands_split_borders_from_interior() {
        // k3 s1 p1 on 5: clipped left, full interior, clipped right.
        let b = bands(5, 5, 3, 1, 1);
        let got: Vec<_> = b.iter().map(|b| (b.lo, b.hi, b.k_lo, b.k_hi)).collect();
        assert_eq!(got, [(0, 1, 1, 3), (1, 4, 0, 3), (4, 5, 0, 2)]);
        // k5 p2 on 2: every position clipped on both sides.
        let b = bands(2, 2, 5, 1, 2);
        let got: Vec<_> = b.iter().map(|b| (b.k_lo, b.k_hi)).collect();
        assert_eq!(got, [(2, 4), (1, 3)]);
    }
}
