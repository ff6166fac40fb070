//! Bit-identity of the lane conv/FC kernels against the reference walks
//! (`conv_forward` / `fc_forward`) on operands scaled so that FP16 products
//! and partial sums cross 32768 and overflow to ±inf (and from there to
//! NaN), under every accumulation order the lanes run, every layout pair,
//! and border-heavy geometries.

use trtsim_ir::arena::TensorArena;
use trtsim_ir::graph::{Activation, ConvParams};
use trtsim_ir::layout::{convert, Layout};
use trtsim_ir::tensor::Tensor;
use trtsim_ir::weights::Weights;
use trtsim_kernels::numeric::{conv_forward, fc_forward, PreparedConv, PreparedFc};
use trtsim_kernels::tactic::{AccumOrder, Tactic};
use trtsim_util::rng::Pcg32;

const LAYOUTS: [Layout; 3] = [Layout::Chw, Layout::Chwc8, Layout::Nhwc];

/// Normal samples times a magnitude spread over 2⁻⁶..2¹¹, so a window mixes
/// tiny, ordinary and overflowing products. Every value stays finite on
/// the binary16 grid (below 65504), so the lane path (not the dense
/// fallback for non-finite operands) runs.
fn wide(rng: &mut Pcg32, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| {
            let v = rng.normal() as f32 * 2f32.powf(rng.uniform(-6.0, 11.0) as f32);
            v.clamp(-60_000.0, 60_000.0)
        })
        .collect()
}

/// `[oc, ic, k, stride, pad, groups]` over an `ih × iw` input.
fn conv(rng: &mut Pcg32, shape: [usize; 6]) -> ConvParams {
    let [oc, ic, k, stride, pad, groups] = shape;
    ConvParams {
        out_channels: oc,
        in_channels: ic,
        kernel_h: k,
        kernel_w: k,
        stride,
        pad_h: pad,
        pad_w: pad,
        groups,
        weights: Weights::Dense(wide(rng, oc * ic / groups * k * k)),
        bias: Weights::Dense(wide(rng, oc)),
        activation: Some(Activation::Relu),
    }
}

fn fp16(accum: AccumOrder) -> Tactic {
    let mut t = Tactic::conv_hmma(128, 64, "");
    t.accum = accum;
    t
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what} elem {i}: {a:e} vs {b:e}");
    }
}

/// Runs `params` under every layout pair, twice on one arena (the second
/// pass on recycled buffers), and compares bits with the reference.
fn check_conv(params: &ConvParams, input: &Tensor, tactic: &Tactic) {
    let want = conv_forward(params, input, tactic, None);
    for li in LAYOUTS {
        for lo in LAYOUTS {
            let prepared = PreparedConv::with_layouts(params, input.shape(), tactic, None, li, lo);
            let phys = Tensor::from_vec(
                prepared.in_physical_shape(),
                convert(input.as_slice(), input.shape(), Layout::Chw, li),
            );
            let mut arena = TensorArena::new();
            for pass in 0..2 {
                let (out, _) = prepared.run(params, &phys, &mut arena);
                let back = convert(out.as_slice(), want.shape(), lo, Layout::Chw);
                let what = format!(
                    "{:?} {li:?}->{lo:?} k{} s{} p{} pass {pass}",
                    tactic.accum, params.kernel_h, params.stride, params.pad_h
                );
                assert_bits(&back, want.as_slice(), &what);
                arena.release(out);
            }
        }
    }
}

#[test]
fn lane_convs_match_reference_through_fp16_overflow() {
    let mut rng = Pcg32::seed_from_u64(1601);
    // (conv shape, input [c, h, w]): k5 pad2 on 8×8 (two border bands per
    // side), k3 s2, a 7×7 s2 stem, ragged channels, a window wider than
    // the input on both sides, and a 1×1.
    let cases: [([usize; 6], [usize; 3]); 6] = [
        ([16, 8, 5, 1, 2, 1], [8, 8, 8]),
        ([12, 5, 3, 2, 1, 1], [5, 9, 8]),
        ([8, 3, 7, 2, 3, 1], [3, 11, 10]),
        ([10, 6, 3, 1, 1, 1], [6, 7, 9]),
        ([9, 4, 5, 1, 2, 1], [4, 3, 2]),
        ([8, 16, 1, 1, 0, 1], [16, 5, 5]),
    ];
    let mut overflowed = 0;
    for (shape, in_shape) in cases {
        let params = conv(&mut rng, shape);
        let input = Tensor::from_vec(in_shape, wide(&mut rng, in_shape.iter().product()));
        for accum in [AccumOrder::Chunked(4), AccumOrder::Sequential] {
            let tactic = fp16(accum);
            let mut raw = params.clone();
            raw.activation = None;
            let reference = conv_forward(&raw, &input, &tactic, None);
            overflowed += reference
                .as_slice()
                .iter()
                .filter(|v| !v.is_finite())
                .count();
            check_conv(&params, &input, &tactic);
            check_conv(&raw, &input, &tactic);
        }
        check_conv(&params, &input, &Tactic::conv_fp32(128, 64));
    }
    assert!(overflowed > 0, "no output reached the overflow region");
}

#[test]
fn depthwise_lanes_match_reference_through_fp16_overflow() {
    let mut rng = Pcg32::seed_from_u64(1602);
    for (shape, in_shape) in [
        ([12, 12, 3, 1, 1, 12], [12, 6, 6]),
        ([10, 10, 5, 2, 2, 10], [10, 7, 7]),
    ] {
        let params = conv(&mut rng, shape);
        let input = Tensor::from_vec(in_shape, wide(&mut rng, in_shape.iter().product()));
        for accum in [AccumOrder::Chunked(4), AccumOrder::Sequential] {
            check_conv(&params, &input, &fp16(accum));
        }
        check_conv(&params, &input, &Tactic::conv_fp32(128, 64));
    }
}

#[test]
fn fc_lanes_match_reference_through_fp16_overflow() {
    let mut rng = Pcg32::seed_from_u64(1603);
    let (out_features, in_features) = (13, 100);
    let w = wide(&mut rng, out_features * in_features);
    let b = wide(&mut rng, out_features);
    let input = Tensor::from_vec([in_features, 1, 1], wide(&mut rng, in_features));
    for accum in [AccumOrder::Chunked(4), AccumOrder::Sequential] {
        let tactic = fp16(accum);
        let want = fc_forward(&input, &w, &b, out_features, None, &tactic);
        assert!(want.as_slice().iter().any(|v| !v.is_finite()));
        let prepared = PreparedFc::new(
            &Weights::Dense(w.clone()),
            &Weights::Dense(b.clone()),
            out_features,
            &tactic,
        );
        let (got, counts) = prepared.run(&input, None, &mut TensorArena::new());
        assert_eq!(counts.vector + counts.scalar, out_features as u64);
        assert_bits(got.as_slice(), want.as_slice(), &format!("fc {accum:?}"));
    }
}
