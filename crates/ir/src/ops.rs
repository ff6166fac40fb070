//! Canonical FP32 numeric implementations of every layer.
//!
//! These are the *reference semantics*: straightforward sequential
//! accumulation, exactly what a framework's CPU/GPU path computes before any
//! engine optimization. The tactic implementations in `trtsim-kernels`
//! deliberately deviate from these in accumulation order and precision; their
//! correctness is defined as closeness to this module's output.

use crate::arena::TensorArena;
use crate::graph::{Activation, ConvParams, EltwiseOp, PoolKind};
use crate::tensor::Tensor;

/// Direct 2-D convolution with groups, stride, zero padding, bias, and an
/// optional fused activation.
///
/// # Panics
///
/// Panics if the weight slice length does not match the parameters, or the
/// input channel count differs from `params.in_channels`.
pub fn conv2d(input: &Tensor, weights: &[f32], bias: &[f32], params: &ConvParams) -> Tensor {
    let [ic, ih, iw] = input.shape();
    assert_eq!(ic, params.in_channels, "conv input channel mismatch");
    assert_eq!(
        weights.len(),
        params.expected_weight_len(),
        "conv weight length mismatch"
    );
    let (kh, kw) = (params.kernel_h, params.kernel_w);
    let s = params.stride;
    let (ph, pw) = (params.pad_h as isize, params.pad_w as isize);
    let oh = (ih + 2 * params.pad_h - kh) / s + 1;
    let ow = (iw + 2 * params.pad_w - kw) / s + 1;
    let cpg_in = params.in_channels / params.groups;
    let cpg_out = params.out_channels / params.groups;

    let mut out = Tensor::zeros([params.out_channels, oh, ow]);
    for oc in 0..params.out_channels {
        let group = oc / cpg_out;
        let b = bias.get(oc).copied().unwrap_or(0.0);
        let w_base = oc * cpg_in * kh * kw;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b;
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
                            acc += input.at(c_in, iy as usize, ix as usize)
                                * weights[w_base + (icg * kh + ky) * kw + kx];
                        }
                    }
                }
                *out.at_mut(oc, oy, ox) = match params.activation {
                    Some(a) => a.apply(acc),
                    None => acc,
                };
            }
        }
    }
    out
}

/// Spatial max/average pooling.
///
/// Average pooling divides by the full window area (count-includes-padding
/// convention, as in Caffe's default).
pub fn pool2d(input: &Tensor, kind: PoolKind, kernel: usize, stride: usize, pad: usize) -> Tensor {
    let [c, ih, iw] = input.shape();
    let (oh, ow) = (
        (ih + 2 * pad - kernel) / stride + 1,
        (iw + 2 * pad - kernel) / stride + 1,
    );
    fresh([c, oh, ow], |o| {
        pool2d_into(input, kind, kernel, stride, pad, o, &mut TensorArena::new())
    })
}

/// [`pool2d`] into a caller-provided buffer of exactly the output length
/// (every element is written).
///
/// Windows that reach past the border read their padding taps as `0.0`
/// from a zero-bordered copy of each plane, built in a buffer taken from
/// (and given back to) `arena`, so every window takes the same
/// bounds-check-free walk: taps in row-major order, eight output columns
/// at a time (then four, then one, for a row's remainder), each window
/// row loaded as one slice. Max pooling keeps the
/// first of equal taps (`v > acc`), which fixes the sign of a `±0` tie,
/// and ignores NaN taps like `f32::max`.
///
/// # Panics
///
/// Panics if `out.len()` is not the pooled output's element count.
pub fn pool2d_into(
    input: &Tensor,
    kind: PoolKind,
    kernel: usize,
    stride: usize,
    pad: usize,
    out: &mut [f32],
    arena: &mut TensorArena,
) {
    let [c, ih, iw] = input.shape();
    let (ph, pw) = (ih + 2 * pad, iw + 2 * pad);
    let (oh, ow) = ((ph - kernel) / stride + 1, (pw - kernel) / stride + 1);
    assert_eq!(out.len(), c * oh * ow, "pool output length mismatch");
    let mut padded = Vec::new();
    if pad > 0 {
        padded = arena.take_buffer(ph * pw);
        // Only the interior is rewritten per plane; the border stays zero.
        padded[..pad * pw].fill(0.0);
        padded[(pad + ih) * pw..].fill(0.0);
        for row in padded[pad * pw..(pad + ih) * pw].chunks_exact_mut(pw) {
            row[..pad].fill(0.0);
            row[pad + iw..].fill(0.0);
        }
    }
    let body = match (kind, stride) {
        (PoolKind::Max, 1) => pool_plane::<true, 1>,
        (PoolKind::Max, 2) => pool_plane::<true, 2>,
        (PoolKind::Max, _) => pool_plane::<true, 0>,
        (PoolKind::Avg, 1) => pool_plane::<false, 1>,
        (PoolKind::Avg, 2) => pool_plane::<false, 2>,
        (PoolKind::Avg, _) => pool_plane::<false, 0>,
    };
    for (plane, dst) in input
        .as_slice()
        .chunks_exact(ih * iw)
        .zip(out.chunks_exact_mut(oh * ow))
    {
        let src: &[f32] = if pad == 0 {
            plane
        } else {
            for (y, row) in plane.chunks_exact(iw).enumerate() {
                let at = (y + pad) * pw + pad;
                padded[at..at + iw].copy_from_slice(row);
            }
            &padded
        };
        body(src, pw, kernel, stride, ow, dst);
    }
    arena.give_buffer(padded);
}

/// Pools one zero-bordered plane `src` (row pitch `pw`) into `dst`, eight
/// output columns at a time. `S` is the stride as a constant (`0`: read
/// `stride`), so the common strides compile to fixed-offset vector loads.
fn pool_plane<const MAX: bool, const S: usize>(
    src: &[f32],
    pw: usize,
    kernel: usize,
    stride: usize,
    ow: usize,
    dst: &mut [f32],
) {
    const W: usize = 8;
    let s = if S == 0 { stride } else { S };
    let area = (kernel * kernel) as f32;
    let finish = |a: f32| if MAX { a } else { a / area };
    for (oy, drow) in dst.chunks_exact_mut(ow).enumerate() {
        let window = &src[oy * s * pw..];
        let mut chunks = drow.chunks_exact_mut(W);
        for (chunk, d) in (&mut chunks).enumerate() {
            let acc = pool_window::<MAX, W>(window, pw, kernel, s, chunk * W * s);
            for (o, a) in d.iter_mut().zip(acc) {
                *o = finish(a);
            }
        }
        // A remainder of four or more columns takes one 4-wide pass.
        let mut x0 = (ow / W) * W * s;
        let mut rest = chunks.into_remainder();
        if rest.len() >= W / 2 {
            let (d, tail) = rest.split_at_mut(W / 2);
            let acc = pool_window::<MAX, { W / 2 }>(window, pw, kernel, s, x0);
            for (o, a) in d.iter_mut().zip(acc) {
                *o = finish(a);
            }
            (rest, x0) = (tail, x0 + W / 2 * s);
        }
        for (l, o) in rest.iter_mut().enumerate() {
            let [a] = pool_window::<MAX, 1>(window, pw, kernel, s, x0 + l * s);
            *o = finish(a);
        }
    }
}

/// `N` adjacent pooling windows starting at column `x0` of `window`: taps
/// in row-major order, each window row loaded as one slice. Max keeps the
/// first of equal taps and skips NaN taps (`v > acc`); avg sums.
#[inline(always)]
fn pool_window<const MAX: bool, const N: usize>(
    window: &[f32],
    pw: usize,
    kernel: usize,
    s: usize,
    x0: usize,
) -> [f32; N] {
    let mut acc = [if MAX { f32::NEG_INFINITY } else { 0.0 }; N];
    for ky in 0..kernel {
        let row = &window[ky * pw + x0..][..(N - 1) * s + kernel];
        for kx in 0..kernel {
            let taps = &row[kx..kx + (N - 1) * s + 1];
            let v: [f32; N] = std::array::from_fn(|l| taps[l * s]);
            acc = std::array::from_fn(|l| match MAX {
                true if v[l] > acc[l] => v[l],
                true => acc[l],
                false => acc[l] + v[l],
            });
        }
    }
    acc
}

/// Runs an `_into` op body on a fresh zeroed tensor of `shape`.
fn fresh(shape: [usize; 3], f: impl FnOnce(&mut [f32])) -> Tensor {
    let mut out = Tensor::zeros(shape);
    f(out.as_mut_slice());
    out
}

/// Pooling over the whole spatial extent, producing `[c, 1, 1]`.
pub fn global_pool(input: &Tensor, kind: PoolKind) -> Tensor {
    fresh([input.channels(), 1, 1], |o| {
        global_pool_into(input, kind, o)
    })
}

/// [`global_pool`] into a `c`-element buffer.
pub fn global_pool_into(input: &Tensor, kind: PoolKind, out: &mut [f32]) {
    let area = (input.height() * input.width()) as f32;
    for (ch, o) in out.iter_mut().enumerate().take(input.channels()) {
        let plane = input.channel(ch);
        *o = match kind {
            PoolKind::Max => plane.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b)),
            PoolKind::Avg => plane.iter().sum::<f32>() / area,
        };
    }
}

/// Fully-connected layer over the flattened input.
///
/// # Panics
///
/// Panics if `weights.len() != out_features * input.len()`.
pub fn inner_product(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    out_features: usize,
    activation: Option<Activation>,
) -> Tensor {
    let in_features = input.len();
    assert_eq!(
        weights.len(),
        out_features * in_features,
        "fc weight mismatch"
    );
    let x = input.as_slice();
    let mut out = Tensor::zeros([out_features, 1, 1]);
    for o in 0..out_features {
        let row = &weights[o * in_features..(o + 1) * in_features];
        let mut acc = bias.get(o).copied().unwrap_or(0.0);
        for (xi, wi) in x.iter().zip(row.iter()) {
            acc += xi * wi;
        }
        *out.at_mut(o, 0, 0) = match activation {
            Some(a) => a.apply(acc),
            None => acc,
        };
    }
    out
}

/// Standalone activation.
pub fn activate(input: &Tensor, activation: Activation) -> Tensor {
    fresh(input.shape(), |o| activate_into(input, activation, o))
}

/// [`activate`] into a buffer of the input's length. Elementwise, so any
/// physical layout works.
pub fn activate_into(input: &Tensor, activation: Activation, out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(input.as_slice()) {
        *o = activation.apply(x);
    }
}

/// Inference-form batch normalization.
pub fn batch_norm(
    input: &Tensor,
    mean: &[f32],
    var: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) -> Tensor {
    fresh(input.shape(), |o| {
        batch_norm_into(input, mean, var, gamma, beta, eps, o)
    })
}

/// [`batch_norm`] into a buffer of the input's length.
pub fn batch_norm_into(
    input: &Tensor,
    mean: &[f32],
    var: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
) {
    let plane = input.height() * input.width();
    for (ch, dst) in out.chunks_exact_mut(plane.max(1)).enumerate() {
        let inv_std = 1.0 / (var[ch] + eps).sqrt();
        for (o, &x) in dst.iter_mut().zip(input.channel(ch)) {
            *o = (x - mean[ch]) * inv_std * gamma[ch] + beta[ch];
        }
    }
}

/// Per-channel affine transform (channels past `scale.len()` become 0).
pub fn scale(input: &Tensor, scale: &[f32], bias: &[f32]) -> Tensor {
    fresh(input.shape(), |o| scale_into(input, scale, bias, o))
}

/// [`scale`] into a buffer of the input's length.
pub fn scale_into(input: &Tensor, scale: &[f32], bias: &[f32], out: &mut [f32]) {
    let plane = input.height() * input.width();
    for (ch, dst) in out.chunks_exact_mut(plane.max(1)).enumerate() {
        match scale.get(ch) {
            Some(&mult) => {
                let b = bias.get(ch).copied().unwrap_or(0.0);
                for (o, &x) in dst.iter_mut().zip(input.channel(ch)) {
                    *o = x * mult + b;
                }
            }
            None => dst.fill(0.0),
        }
    }
}

/// Across-channel local response normalization (AlexNet-style):
/// `out = in / (k + α/n · Σ in²)^β` over a window of `local_size` channels.
pub fn lrn(input: &Tensor, local_size: usize, alpha: f32, beta: f32, k: f32) -> Tensor {
    fresh(input.shape(), |o| {
        lrn_into(input, local_size, alpha, beta, k, o)
    })
}

/// [`lrn`] into a buffer of the input's length.
pub fn lrn_into(input: &Tensor, local_size: usize, alpha: f32, beta: f32, k: f32, out: &mut [f32]) {
    let [c, h, w] = input.shape();
    let half = local_size / 2;
    for ch in 0..c {
        let lo = ch.saturating_sub(half);
        let hi = (ch + half).min(c - 1);
        for y in 0..h {
            for x in 0..w {
                let mut sq = 0.0f32;
                for n in lo..=hi {
                    let v = input.at(n, y, x);
                    sq += v * v;
                }
                let denom = (k + alpha / local_size as f32 * sq).powf(beta);
                out[(ch * h + y) * w + x] = input.at(ch, y, x) / denom;
            }
        }
    }
}

/// Element-wise combination of equal-shaped tensors.
///
/// # Panics
///
/// Panics if fewer than two inputs are given or shapes differ.
pub fn eltwise(inputs: &[&Tensor], op: EltwiseOp) -> Tensor {
    fresh(inputs[0].shape(), |o| {
        eltwise_into(inputs.iter().copied(), op, o)
    })
}

/// [`eltwise`] into a buffer of the inputs' length. Elementwise, so any
/// physical layout works.
///
/// # Panics
///
/// Panics if fewer than two inputs are given or shapes differ.
pub fn eltwise_into<'a>(
    inputs: impl IntoIterator<Item = &'a Tensor>,
    op: EltwiseOp,
    out: &mut [f32],
) {
    let mut inputs = inputs.into_iter();
    let first = inputs.next().expect("eltwise needs at least two inputs");
    out.copy_from_slice(first.as_slice());
    let mut count = 1;
    for t in inputs {
        assert_eq!(t.shape(), first.shape(), "eltwise shape mismatch");
        for (o, &v) in out.iter_mut().zip(t.as_slice()) {
            *o = match op {
                EltwiseOp::Sum => *o + v,
                EltwiseOp::Max => o.max(v),
                EltwiseOp::Prod => *o * v,
            };
        }
        count += 1;
    }
    assert!(count >= 2, "eltwise needs at least two inputs");
}

/// Output shape of a channel-axis concatenation.
///
/// # Panics
///
/// Panics if inputs are empty or have differing spatial dims.
fn concat_shape(inputs: &[&Tensor]) -> [usize; 3] {
    assert!(!inputs.is_empty());
    let h = inputs[0].height();
    let w = inputs[0].width();
    assert!(inputs.iter().all(|t| t.height() == h && t.width() == w));
    [inputs.iter().map(|t| t.channels()).sum(), h, w]
}

/// Channel-axis concatenation.
///
/// # Panics
///
/// Panics if inputs have differing spatial dims.
pub fn concat(inputs: &[&Tensor]) -> Tensor {
    fresh(concat_shape(inputs), |o| {
        concat_into(inputs.iter().copied(), o)
    })
}

/// [`concat()`] into a buffer of the concatenated length.
pub fn concat_into<'a>(inputs: impl IntoIterator<Item = &'a Tensor>, out: &mut [f32]) {
    let mut at = 0;
    for t in inputs {
        out[at..at + t.len()].copy_from_slice(t.as_slice());
        at += t.len();
    }
}

/// Channel-range view copy: channels `[begin, begin+len)`.
///
/// # Panics
///
/// Panics if the range exceeds the input's channels.
pub fn slice_channels(input: &Tensor, begin: usize, len: usize) -> Tensor {
    let [_, h, w] = input.shape();
    fresh([len, h, w], |o| slice_channels_into(input, begin, len, o))
}

/// [`slice_channels`] into a `len·h·w` buffer.
///
/// # Panics
///
/// Panics if the range exceeds the input's channels.
pub fn slice_channels_into(input: &Tensor, begin: usize, len: usize, out: &mut [f32]) {
    let [c, h, w] = input.shape();
    assert!(begin + len <= c, "slice out of range");
    let plane = h * w;
    out.copy_from_slice(&input.as_slice()[begin * plane..(begin + len) * plane]);
}

/// Numerically-stable softmax over all elements.
pub fn softmax(input: &Tensor) -> Tensor {
    fresh(input.shape(), |o| softmax_into(input, o))
}

/// [`softmax`] into a buffer of the input's length.
pub fn softmax_into(input: &Tensor, out: &mut [f32]) {
    let max = input
        .as_slice()
        .iter()
        .fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0f32;
    for (o, &x) in out.iter_mut().zip(input.as_slice()) {
        *o = (x - max).exp();
        sum += *o;
    }
    for v in out {
        *v /= sum;
    }
}

/// Nearest-neighbour upsampling by an integer factor.
pub fn upsample(input: &Tensor, factor: usize) -> Tensor {
    let [c, h, w] = input.shape();
    fresh([c, h * factor, w * factor], |o| {
        upsample_into(input, factor, o)
    })
}

/// [`upsample`] into a `c·(h·factor)·(w·factor)` buffer.
pub fn upsample_into(input: &Tensor, factor: usize, out: &mut [f32]) {
    let [c, h, w] = input.shape();
    let (oh, ow) = (h * factor, w * factor);
    for ch in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                out[(ch * oh + y) * ow + x] = input.at(ch, y / factor, x / factor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ConvParams;
    use crate::weights::Weights;

    fn identity_conv(channels: usize) -> (ConvParams, Vec<f32>) {
        // 1x1 conv that copies each channel.
        let mut w = vec![0.0; channels * channels];
        for c in 0..channels {
            w[c * channels + c] = 1.0;
        }
        let params = ConvParams {
            out_channels: channels,
            in_channels: channels,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            pad_h: 0,
            pad_w: 0,
            groups: 1,
            weights: Weights::Dense(w.clone()),
            bias: Weights::Dense(vec![]),
            activation: None,
        };
        (params, w)
    }

    #[test]
    fn identity_conv_copies_input() {
        let input = Tensor::from_fn([3, 4, 4], |c, h, w| (c + h + w) as f32);
        let (params, w) = identity_conv(3);
        let out = conv2d(&input, &w, &[], &params);
        assert_eq!(out, input);
    }

    #[test]
    fn conv_box_filter_sums_window() {
        let input = Tensor::from_vec([1, 3, 3], vec![1.0; 9]);
        let params = ConvParams {
            out_channels: 1,
            in_channels: 1,
            kernel_h: 3,
            kernel_w: 3,
            stride: 1,
            pad_h: 1,
            pad_w: 1,
            groups: 1,
            weights: Weights::Dense(vec![1.0; 9]),
            bias: Weights::Dense(vec![]),
            activation: None,
        };
        let out = conv2d(&input, &[1.0; 9], &[], &params);
        // Center sees all 9 ones; corners see 4.
        assert_eq!(out.at(0, 1, 1), 9.0);
        assert_eq!(out.at(0, 0, 0), 4.0);
        assert_eq!(out.at(0, 0, 1), 6.0);
    }

    #[test]
    fn conv_bias_and_relu() {
        let input = Tensor::from_vec([1, 1, 1], vec![1.0]);
        let params = ConvParams {
            out_channels: 2,
            in_channels: 1,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            pad_h: 0,
            pad_w: 0,
            groups: 1,
            weights: Weights::Dense(vec![1.0, -5.0]),
            bias: Weights::Dense(vec![0.5, 0.5]),
            activation: Some(Activation::Relu),
        };
        let out = conv2d(&input, &[1.0, -5.0], &[0.5, 0.5], &params);
        assert_eq!(out.at(0, 0, 0), 1.5);
        assert_eq!(out.at(1, 0, 0), 0.0); // clipped by relu
    }

    #[test]
    fn depthwise_conv_respects_groups() {
        let input = Tensor::from_vec([2, 1, 1], vec![3.0, 5.0]);
        let params = ConvParams {
            out_channels: 2,
            in_channels: 2,
            kernel_h: 1,
            kernel_w: 1,
            stride: 1,
            pad_h: 0,
            pad_w: 0,
            groups: 2,
            weights: Weights::Dense(vec![2.0, 10.0]),
            bias: Weights::Dense(vec![]),
            activation: None,
        };
        let out = conv2d(&input, &[2.0, 10.0], &[], &params);
        assert_eq!(out.at(0, 0, 0), 6.0);
        assert_eq!(out.at(1, 0, 0), 50.0);
    }

    #[test]
    fn max_pool_picks_maxima() {
        let input = Tensor::from_vec([1, 2, 2], vec![1.0, 7.0, 3.0, 2.0]);
        let out = pool2d(&input, PoolKind::Max, 2, 2, 0);
        assert_eq!(out.shape(), [1, 1, 1]);
        assert_eq!(out.at(0, 0, 0), 7.0);
    }

    /// A per-tap bounds-checked walk (the old `pool2d`, with its max made
    /// first-wins on ±0 ties like the new one), as an oracle.
    fn pool_oracle(input: &Tensor, kind: PoolKind, k: usize, s: usize, p: usize) -> Tensor {
        let [c, ih, iw] = input.shape();
        let (oh, ow) = ((ih + 2 * p - k) / s + 1, (iw + 2 * p - k) / s + 1);
        Tensor::from_fn([c, oh, ow], |ch, oy, ox| {
            let (mut best, mut sum) = (f32::NEG_INFINITY, 0.0f32);
            for ky in 0..k {
                for kx in 0..k {
                    let iy = (oy * s + ky) as isize - p as isize;
                    let ix = (ox * s + kx) as isize - p as isize;
                    let inside = iy >= 0 && ix >= 0 && iy < ih as isize && ix < iw as isize;
                    let v = if inside {
                        input.at(ch, iy as usize, ix as usize)
                    } else {
                        0.0
                    };
                    best = if v > best { v } else { best };
                    sum += v;
                }
            }
            match kind {
                PoolKind::Max => best,
                PoolKind::Avg => sum / (k * k) as f32,
            }
        })
    }

    #[test]
    fn pool_fast_paths_match_checked_walk_bitwise() {
        let mut seed = 0x9e37_79b9u32;
        let input = Tensor::from_fn([3, 13, 21], |_, _, _| {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            match seed % 17 {
                0 => f32::NAN,
                1 => -0.0,
                2 => f32::NEG_INFINITY,
                r => (r as f32 - 9.0) * 0.37,
            }
        });
        for (k, s, p) in [
            (3, 1, 1),
            (3, 2, 1),
            (2, 2, 0),
            (3, 2, 0),
            (5, 1, 2),
            (5, 3, 2),
        ] {
            for kind in [PoolKind::Max, PoolKind::Avg] {
                let got = pool2d(&input, kind, k, s, p);
                let want = pool_oracle(&input, kind, k, s, p);
                assert_eq!(got.shape(), want.shape());
                for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{kind:?} k{k} s{s} p{p} elem {i}");
                }
            }
        }
    }

    #[test]
    fn avg_pool_divides_by_window() {
        let input = Tensor::from_vec([1, 2, 2], vec![1.0, 7.0, 3.0, 2.0]);
        let out = pool2d(&input, PoolKind::Avg, 2, 2, 0);
        assert_eq!(out.at(0, 0, 0), 13.0 / 4.0);
    }

    #[test]
    fn global_pool_variants() {
        let input = Tensor::from_vec([1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(global_pool(&input, PoolKind::Max).at(0, 0, 0), 4.0);
        assert_eq!(global_pool(&input, PoolKind::Avg).at(0, 0, 0), 2.5);
    }

    #[test]
    fn inner_product_is_matvec() {
        let input = Tensor::from_vec([2, 1, 1], vec![1.0, 2.0]);
        let out = inner_product(&input, &[1.0, 0.0, 0.5, 0.5], &[0.0, 1.0], 2, None);
        assert_eq!(out.at(0, 0, 0), 1.0);
        assert_eq!(out.at(1, 0, 0), 2.5);
    }

    #[test]
    fn batch_norm_standardizes() {
        let input = Tensor::from_vec([1, 1, 2], vec![2.0, 4.0]);
        let out = batch_norm(&input, &[3.0], &[1.0], &[1.0], &[0.0], 0.0);
        assert!((out.at(0, 0, 0) + 1.0).abs() < 1e-6);
        assert!((out.at(0, 0, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lrn_normalizes_by_neighbourhood() {
        let input = Tensor::from_vec([2, 1, 1], vec![1.0, 1.0]);
        let out = lrn(&input, 2, 1.0, 1.0, 1.0);
        // each channel sees both channels: denom = 1 + (1/2)*2 = 2
        assert!((out.at(0, 0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn eltwise_ops() {
        let a = Tensor::from_vec([1, 1, 2], vec![1.0, 4.0]);
        let b = Tensor::from_vec([1, 1, 2], vec![3.0, 2.0]);
        assert_eq!(eltwise(&[&a, &b], EltwiseOp::Sum).as_slice(), &[4.0, 6.0]);
        assert_eq!(eltwise(&[&a, &b], EltwiseOp::Max).as_slice(), &[3.0, 4.0]);
        assert_eq!(eltwise(&[&a, &b], EltwiseOp::Prod).as_slice(), &[3.0, 8.0]);
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::from_vec([1, 1, 2], vec![1.0, 2.0]);
        let b = Tensor::from_vec([2, 1, 2], vec![3.0, 4.0, 5.0, 6.0]);
        let out = concat(&[&a, &b]);
        assert_eq!(out.shape(), [3, 1, 2]);
        assert_eq!(out.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let input = Tensor::from_vec([3, 1, 1], vec![1000.0, 1001.0, 1002.0]);
        let out = softmax(&input);
        let sum: f32 = out.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(out.at(2, 0, 0) > out.at(0, 0, 0));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn upsample_replicates() {
        let input = Tensor::from_vec([1, 1, 2], vec![1.0, 2.0]);
        let out = upsample(&input, 2);
        assert_eq!(out.shape(), [1, 2, 4]);
        assert_eq!(out.at(0, 1, 1), 1.0);
        assert_eq!(out.at(0, 0, 3), 2.0);
    }
}
