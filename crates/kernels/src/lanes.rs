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
//! Output pixels are walked in *bands*: maximal rectangles of rows × columns
//! whose kernel windows keep the same taps in bounds. Each band carries the
//! sub-list of its in-bounds taps with precomputed physical input deltas, so
//! border pixels run the same multi-pixel tile kernel as the interior, with
//! no per-tap bounds checks anywhere.
//!
//! # Bit-exactness
//!
//! Results are bit-identical to the scalar reference walks in
//! [`crate::numeric`]:
//!
//! * FP32 lanes accumulate in *exactly* the reference tap order with the
//!   bias as the initial accumulator — the same f32 operations in the same
//!   order, so even non-finite inputs propagate identically.
//! * FP16 lanes round every product and partial sum with `round8`, an
//!   exact binary16 round trip equal to [`round_f16`] for every `f32`
//!   input — overflow to ±inf and NaN included — so no value ever needs a
//!   scalar redo. Band tap lists skip out-of-bounds taps, so split-K chunk
//!   positions count in-bounds taps only, as the reference walk does.
//!
//! Each prepared-kernel call returns how many output values it produced on
//! the vector path and on scalar walks (dense fallbacks for non-finite
//! operands, legacy prepared kernels) as a [`PathCounts`]; the plan sums
//! them, and its owner publishes them as `trtsim_kernel_vector_lanes_total`
//! / `trtsim_kernel_scalar_fallback_total`.

use trtsim_gpu::kernel::Precision;
use trtsim_ir::graph::{Activation, ConvParams};
use trtsim_ir::layout::{Layout, LANES};
use trtsim_util::f16::round_f16;

use crate::numeric::{apply_act, fold_chunk, ConvGeom};
use crate::tactic::{AccumOrder, Tactic};

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
    /// operands and the legacy (non-lane) prepared kernels.
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

/// A convolution lowered onto the lane-array micro-kernels.
///
/// Weights are packed `[oc_block][tap] -> [f32; 8]` (output-channel lanes;
/// channel lanes for depthwise), in the exact tap order of the dense
/// reference walk. Input addressing is layout-parameterized through
/// per-band tap lists of `(tap, physical delta from the window origin)`.
#[derive(Debug, Clone)]
pub(crate) struct LaneConv {
    pub(crate) layout_in: Layout,
    pub(crate) layout_out: Layout,
    pub(crate) fp16: bool,
    depthwise: bool,
    /// FP16 weights contain non-finite values: NaN payloads would then
    /// depend on operand order, so every run takes the exact dense walk.
    pub(crate) force_dense: bool,
    /// Split-K flush period in taps (`usize::MAX`: never flush).
    chunk: usize,
    /// Physical elements per one-pixel step along x in `layout_in`.
    in_mul: usize,
    rows: Vec<Band>,
    cols: Vec<Band>,
    /// `[row band × column band]`: the in-bounds taps in dense order, each
    /// as `(tap, input delta from the window origin)`.
    subs: Vec<Vec<(u32, i32)>>,
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
    /// Lowers the conv onto lane kernels, or `None` when the shape/tactic
    /// combination stays on the legacy prepared paths (grouped non-depthwise
    /// convolutions, pairwise FP16, INT8).
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
            Precision::Fp16 if tactic.accum != AccumOrder::Pairwise => true,
            _ => return None,
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
            in_mul,
            rows,
            cols,
            subs,
            w,
            bias_v,
            rdense,
        })
    }

    /// Executes the lane kernels. `x` is the physical input in `layout_in`
    /// (already rounded to binary16 and verified finite for FP16); `out` is
    /// the physical output buffer in `layout_out`.
    pub(crate) fn run(&self, g: &ConvGeom, act: Option<Activation>, x: &[f32], out: &mut [f32]) {
        match (self.depthwise, self.fp16) {
            (false, true) => self.run_typed::<true, false>(g, act, x, out),
            (false, false) => self.run_typed::<false, false>(g, act, x, out),
            (true, true) => self.run_typed::<true, true>(g, act, x, out),
            (true, false) => self.run_typed::<false, true>(g, act, x, out),
        }
    }

    fn run_typed<const FP16: bool, const DW: bool>(
        &self,
        g: &ConvGeom,
        act: Option<Activation>,
        x: &[f32],
        out: &mut [f32],
    ) {
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
            for (ri, r) in self.rows.iter().enumerate() {
                for (ci, c) in self.cols.iter().enumerate() {
                    // Every pixel of the band shares its tap list, so tiles
                    // run across row ends: a one-column border band still
                    // advances `TILE` pixels at a time down the column.
                    let sub = &self.subs[ri * self.cols.len() + ci];
                    let mut pixels =
                        (r.lo..r.hi).flat_map(|oy| (c.lo..c.hi).map(move |ox| (oy, ox)));
                    loop {
                        let mut at = [(0, 0); TILE];
                        let n = at.iter_mut().zip(&mut pixels).map(|(a, p)| *a = p).count();
                        match n {
                            0 => break,
                            1 => self.emit::<1, FP16, DW>(g, &cx, sub, &at, out),
                            2 => self.emit::<2, FP16, DW>(g, &cx, sub, &at, out),
                            3 => self.emit::<3, FP16, DW>(g, &cx, sub, &at, out),
                            _ => self.emit::<TILE, FP16, DW>(g, &cx, sub, &at, out),
                        }
                    }
                }
            }
        }
    }

    /// Computes and stores the output pixels `at[..T]` (all in one band).
    #[inline(always)]
    fn emit<const T: usize, const FP16: bool, const DW: bool>(
        &self,
        g: &ConvGeom,
        cx: &BlockCtx,
        sub: &[(u32, i32)],
        at: &[(usize, usize); TILE],
        out: &mut [f32],
    ) {
        let bases: [isize; T] = std::array::from_fn(|t| {
            let (oy, ox) = at[t];
            (((oy * g.iw + ox) * g.s) * self.in_mul) as isize + cx.boff
        });
        let vals = tile::<T, FP16, DW>(cx, sub, &bases);
        for (t, v) in vals.iter().enumerate() {
            let (oy, ox) = at[t];
            self.store8(g, cx, oy, ox, v, out);
        }
    }

    #[inline(always)]
    fn store8(
        &self,
        g: &ConvGeom,
        cx: &BlockCtx,
        oy: usize,
        ox: usize,
        vals: &[f32; LANES],
        out: &mut [f32],
    ) {
        let (act, b, real) = (cx.act, cx.b, cx.real);
        match self.layout_out {
            Layout::Chw => {
                for (l, &v) in vals.iter().enumerate().take(real) {
                    out[((b * LANES + l) * g.oh + oy) * g.ow + ox] = apply_act(act, v);
                }
            }
            // Contiguous 8-lane vector store; pad lanes written as explicit
            // zeros so blocked buffers stay clean for downstream converts.
            Layout::Chwc8 => {
                let mut sv = [0.0f32; LANES];
                for l in 0..real {
                    sv[l] = apply_act(act, vals[l]);
                }
                let o = ((b * g.oh + oy) * g.ow + ox) * LANES;
                out[o..o + LANES].copy_from_slice(&sv);
            }
            Layout::Nhwc => {
                let o = (oy * g.ow + ox) * g.out_channels + b * LANES;
                for (l, &v) in vals.iter().enumerate().take(real) {
                    out[o + l] = apply_act(act, v);
                }
            }
        }
    }
}

/// The tile micro-kernel: `T` output pixels × 8 lanes advance through a
/// band's in-bounds taps (no bounds checks). FP16 flushes the accumulator
/// into an f64 carry every `chunk` taps of the list. Returns biased
/// pre-activation values.
#[inline(always)]
fn tile<const T: usize, const FP16: bool, const DW: bool>(
    cx: &BlockCtx,
    sub: &[(u32, i32)],
    bases: &[isize; T],
) -> [[f32; LANES]; T] {
    let mut acc = [[0.0f32; LANES]; T];
    if !FP16 {
        acc.fill(cx.bv);
    }
    let mut carry = [[0.0f64; LANES]; T];
    let flushed = if FP16 {
        sub.len() / cx.chunk * cx.chunk
    } else {
        0
    };
    let (chunks, rest) = sub.split_at(flushed);
    for chunk in chunks.chunks_exact(cx.chunk) {
        for &(tap, delta) in chunk {
            step::<T, FP16, DW>(cx, tap, delta as isize, bases, &mut acc);
        }
        for t in 0..T {
            for l in 0..LANES {
                carry[t][l] += f64::from(acc[t][l]);
                acc[t][l] = 0.0;
            }
        }
    }
    for &(tap, delta) in rest {
        step::<T, FP16, DW>(cx, tap, delta as isize, bases, &mut acc);
    }
    if FP16 {
        let mut vals = [[0.0f32; LANES]; T];
        for t in 0..T {
            for l in 0..LANES {
                vals[t][l] = (carry[t][l] + f64::from(acc[t][l])) as f32 + cx.bv[l];
            }
        }
        vals
    } else {
        acc
    }
}

/// One tap of the tile micro-kernel: load the input lanes of each tile
/// position (a broadcast for standard convs, the block's channels for
/// depthwise), multiply against 8 weight lanes, round (FP16) and accumulate.
#[inline(always)]
fn step<const T: usize, const FP16: bool, const DW: bool>(
    cx: &BlockCtx,
    tap: u32,
    delta: isize,
    bases: &[isize; T],
    acc: &mut [[f32; LANES]; T],
) {
    let wv = cx.wb[tap as usize];
    for t in 0..T {
        let o = (bases[t] + delta) as usize;
        let xv = if DW {
            let mut v = [0.0f32; LANES];
            for (l, lane) in v.iter_mut().enumerate().take(cx.real) {
                *lane = cx.x[o + l * cx.ls];
            }
            v
        } else {
            [cx.x[o]; LANES]
        };
        let mut p = [0.0f32; LANES];
        for l in 0..LANES {
            p[l] = xv[l] * wv[l];
        }
        if FP16 {
            let p = round8(p);
            let mut s = [0.0f32; LANES];
            for l in 0..LANES {
                s[l] = acc[t][l] + p[l];
            }
            acc[t] = round8(s);
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

    /// Checks both `round8` bodies against `round_f16` on 8 bit patterns.
    fn check8(bits: [u32; LANES]) {
        let v = bits.map(f32::from_bits);
        for (name, got) in [("round8", round8(v)), ("portable", round8_portable(v))] {
            for l in 0..LANES {
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
