//! Property tests for shape inference and the reference executor.

use proptest::prelude::*;
use trtsim_ir::arena::TensorArena;
use trtsim_ir::graph::{Graph, LayerKind, PoolKind};
use trtsim_ir::shape::conv_extent;
use trtsim_ir::{ReferenceExecutor, Tensor};

/// Plain scalar pooling: a bounds-checked walk over each window in
/// row-major tap order, padding taps read as `0.0`; max keeps the first of
/// equal taps and skips NaN (`v > best`), avg divides by the full area.
fn pool_reference(input: &Tensor, kind: PoolKind, k: usize, s: usize, p: usize) -> Tensor {
    let [c, ih, iw] = input.shape();
    let (oh, ow) = ((ih + 2 * p - k) / s + 1, (iw + 2 * p - k) / s + 1);
    Tensor::from_fn([c, oh, ow], |ch, oy, ox| {
        let (mut best, mut sum) = (f32::NEG_INFINITY, 0.0f32);
        for ky in 0..k {
            for kx in 0..k {
                let (iy, ix) = (
                    (oy * s + ky) as isize - p as isize,
                    (ox * s + kx) as isize - p as isize,
                );
                let inside = iy >= 0 && ix >= 0 && iy < ih as isize && ix < iw as isize;
                let v = if inside {
                    input.at(ch, iy as usize, ix as usize)
                } else {
                    0.0
                };
                if v > best {
                    best = v;
                }
                sum += v;
            }
        }
        match kind {
            PoolKind::Max => best,
            PoolKind::Avg => sum / (k * k) as f32,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conv_extent_matches_loop_count(
        input in 1usize..64,
        kernel in 1usize..8,
        stride in 1usize..4,
        pad in 0usize..4,
    ) {
        match conv_extent(input, kernel, stride, pad) {
            Some(extent) => {
                // Count valid window positions directly.
                let padded = input + 2 * pad;
                let mut count = 0;
                let mut pos = 0;
                while pos + kernel <= padded {
                    count += 1;
                    pos += stride;
                }
                prop_assert_eq!(extent, count);
                prop_assert!(extent >= 1);
            }
            None => prop_assert!(kernel > input + 2 * pad),
        }
    }

    #[test]
    fn conv_output_shape_matches_execution(
        in_c in 1usize..4,
        out_c in 1usize..6,
        size in 4usize..12,
        kernel in 1usize..4,
        stride in 1usize..3,
    ) {
        prop_assume!(kernel <= size);
        let pad = kernel / 2;
        let mut g = Graph::new("p", [in_c, size, size]);
        let c = g.add_layer(
            "c",
            LayerKind::conv_seeded(out_c, in_c, kernel, stride, pad, 1),
            &[Graph::INPUT],
        );
        g.mark_output(c);
        let shapes = g.infer_shapes().unwrap();
        let exec = ReferenceExecutor::new(&g).unwrap();
        let out = exec.run(&Tensor::zeros([in_c, size, size])).unwrap();
        prop_assert_eq!(out[0].shape(), shapes[c]);
    }

    #[test]
    fn pooling_never_grows_spatial_dims(
        c in 1usize..4,
        size in 4usize..16,
        kernel in 1usize..4,
        stride in 1usize..4,
    ) {
        prop_assume!(kernel <= size);
        let mut g = Graph::new("p", [c, size, size]);
        let p = g.add_layer(
            "p",
            LayerKind::Pool { kind: PoolKind::Max, kernel, stride, pad: 0 },
            &[Graph::INPUT],
        );
        g.mark_output(p);
        let shapes = g.infer_shapes().unwrap();
        prop_assert!(shapes[p][1] <= size);
        prop_assert!(shapes[p][2] <= size);
    }

    #[test]
    fn max_pool_output_bounded_by_input_range(
        seed in 0u64..500,
        size in 4usize..10,
    ) {
        let mut rng = trtsim_util::rng::Pcg32::seed_from_u64(seed);
        let input = Tensor::from_fn([2, size, size], |_, _, _| rng.normal() as f32);
        let out = trtsim_ir::ops::pool2d(&input, PoolKind::Max, 2, 2, 0);
        let in_max = input.as_slice().iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        for &v in out.as_slice() {
            prop_assert!(v <= in_max + 1e-6);
        }
    }

    #[test]
    fn relu_conv_outputs_nonnegative(seed in 0u64..500) {
        let mut rng = trtsim_util::rng::Pcg32::seed_from_u64(seed);
        let mut g = Graph::new("p", [2, 6, 6]);
        let c = g.add_layer("c", LayerKind::conv_seeded(3, 2, 3, 1, 1, seed), &[Graph::INPUT]);
        g.mark_output(c);
        let input = Tensor::from_fn([2, 6, 6], |_, _, _| rng.normal() as f32);
        let out = ReferenceExecutor::new(&g).unwrap().run(&input).unwrap();
        for &v in out[0].as_slice() {
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn softmax_is_a_distribution(seed in 0u64..500, n in 2usize..32) {
        let mut rng = trtsim_util::rng::Pcg32::seed_from_u64(seed);
        let input = Tensor::from_fn([n, 1, 1], |_, _, _| (rng.normal() * 10.0) as f32);
        let out = trtsim_ir::ops::softmax(&input);
        let sum: f32 = out.as_slice().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(out.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn pool_into_matches_scalar_reference_bitwise(
        seed in 0u64..1_000_000,
        (c, h, w) in (1usize..4, 1usize..14, 1usize..30),
        (kernel, stride, pad) in (1usize..6, 1usize..=3, 0usize..=2),
        max in 0u8..2,
    ) {
        prop_assume!(kernel <= h + 2 * pad && kernel <= w + 2 * pad);
        let kind = if max == 1 { PoolKind::Max } else { PoolKind::Avg };
        // ±0 ties, NaN and ±inf among small integers (frequent equal taps).
        let mut rng = trtsim_util::rng::Pcg32::seed_from_u64(seed);
        let input = Tensor::from_fn([c, h, w], |_, _, _| match rng.next_u32() % 13 {
            0 => f32::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => f32::NEG_INFINITY,
            4 => f32::INFINITY,
            r => r as f32 - 8.0,
        });
        let want = pool_reference(&input, kind, kernel, stride, pad);
        // A recycled arena buffer full of NaN: the padding border must be
        // rewritten, not assumed zero.
        let mut arena = TensorArena::new();
        arena.give_buffer(vec![f32::NAN; (h + 2 * pad) * (w + 2 * pad)]);
        let mut got = vec![f32::NAN; want.len()];
        trtsim_ir::ops::pool2d_into(&input, kind, kernel, stride, pad, &mut got, &mut arena);
        for (i, (a, b)) in got.iter().zip(want.as_slice()).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "{kind:?} k{kernel} s{stride} p{pad} elem {i}: {a:e} vs {b:e}"
            );
        }
    }
}
