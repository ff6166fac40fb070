//! Physical activation layouts and conversion kernels.
//!
//! Logically every activation is a rank-3 CHW tensor ([`crate::Tensor`]);
//! this module adds the *physical* axis TensorRT's tactic-specific kernels
//! exploit (`…nhwc_tn_v1` in the paper's kernel tables X/XI): the same
//! logical values can be stored CHW (canonical), NHWC (channels innermost),
//! or blocked `CHWc8` (channels split into lanes of 8, lane innermost —
//! cuDNN's `NCHW_VECT_C` analog for an 8-wide SIMD unit).
//!
//! Conversions are pure permutations (plus explicit zero padding for the
//! blocked tail), so round-tripping any tensor through any layout is
//! byte-identical on the `f32` bit patterns — NaN payloads included. The
//! plan-time layout assignment pass in `trtsim-core` decides which values
//! live in which layout and inserts the minimal number of these converts;
//! the plan counts the converts it executes per scratch, and its owner
//! publishes them as `trtsim_kernel_layout_converts_total`.

/// Channel lane width of the blocked [`Layout::Chwc8`] format.
pub const LANES: usize = 8;

/// How a logical CHW value is stored in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Canonical channel-major storage: `data[(c*h + y)*w + x]`.
    #[default]
    Chw,
    /// Channels innermost: `data[(y*w + x)*c_total + c]`.
    Nhwc,
    /// Channels blocked into lanes of [`LANES`], lane innermost:
    /// `data[(((c/8)*h + y)*w + x)*8 + c%8]`. The channel axis is padded up
    /// to a multiple of 8; pad lanes hold explicit zeros.
    Chwc8,
}

impl Layout {
    /// Physical buffer shape for a logical `[c, h, w]` value. CHW and NHWC
    /// are unpadded (`NHWC` permutes within the same length); `CHWc8` pads
    /// the channel axis up to a multiple of [`LANES`].
    pub fn physical_shape(self, shape: [usize; 3]) -> [usize; 3] {
        match self {
            Layout::Chw | Layout::Nhwc => shape,
            Layout::Chwc8 => [shape[0].div_ceil(LANES) * LANES, shape[1], shape[2]],
        }
    }

    /// Physical element count for a logical `[c, h, w]` value.
    pub fn physical_len(self, shape: [usize; 3]) -> usize {
        let p = self.physical_shape(shape);
        p[0] * p[1] * p[2]
    }

    /// Index of logical element `(c, y, x)` within this layout's physical
    /// buffer for a logical shape `[ch, h, w]`.
    #[inline]
    pub fn index(self, shape: [usize; 3], c: usize, y: usize, x: usize) -> usize {
        let [ch, h, w] = shape;
        debug_assert!(c < ch && y < h && x < w);
        match self {
            Layout::Chw => (c * h + y) * w + x,
            Layout::Nhwc => (y * w + x) * ch + c,
            Layout::Chwc8 => (((c / LANES) * h + y) * w + x) * LANES + c % LANES,
        }
    }

    /// Short lowercase name used in kernel names and telemetry labels.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Chw => "chw",
            Layout::Nhwc => "nhwc",
            Layout::Chwc8 => "chw8",
        }
    }
}

/// Converts `src` (holding logical shape `shape` stored as `from`) into a
/// freshly laid-out buffer stored as `to`. `CHWc8` pad lanes are written as
/// explicit zeros; real elements are moved bit-exactly.
///
/// # Panics
///
/// Panics if `src.len()` does not match `from.physical_len(shape)`.
pub fn convert(src: &[f32], shape: [usize; 3], from: Layout, to: Layout) -> Vec<f32> {
    let mut dst = vec![0.0f32; to.physical_len(shape)];
    convert_into(src, shape, from, to, &mut dst);
    dst
}

/// [`convert`] into a caller-provided buffer (arena-recycled on the hot
/// path). `dst` is fully overwritten, pad lanes included.
///
/// # Panics
///
/// Panics if either buffer length does not match its layout's physical
/// length for `shape`.
pub fn convert_into(src: &[f32], shape: [usize; 3], from: Layout, to: Layout, dst: &mut [f32]) {
    assert_eq!(src.len(), from.physical_len(shape), "src/layout mismatch");
    assert_eq!(dst.len(), to.physical_len(shape), "dst/layout mismatch");
    let [c_total, h, w] = shape;
    if to == Layout::Chwc8 {
        // Pad lanes must come out zero regardless of what `dst` held.
        dst.fill(0.0);
    }
    match (from, to) {
        (a, b) if a == b => dst.copy_from_slice(src),
        // The hot pair on the resnet fast path: blocked conv output back to
        // canonical rows. Walk destination rows so writes stay sequential.
        (Layout::Chwc8, Layout::Chw) => {
            for c in 0..c_total {
                let (cb, cl) = (c / LANES, c % LANES);
                for y in 0..h {
                    let s = ((cb * h + y) * w) * LANES + cl;
                    let d = (c * h + y) * w;
                    for x in 0..w {
                        dst[d + x] = src[s + x * LANES];
                    }
                }
            }
        }
        (Layout::Chw, Layout::Chwc8) => {
            for c in 0..c_total {
                let (cb, cl) = (c / LANES, c % LANES);
                for y in 0..h {
                    let s = (c * h + y) * w;
                    let d = ((cb * h + y) * w) * LANES + cl;
                    for x in 0..w {
                        dst[d + x * LANES] = src[s + x];
                    }
                }
            }
        }
        (Layout::Chw, Layout::Nhwc) => {
            for c in 0..c_total {
                for y in 0..h {
                    let s = (c * h + y) * w;
                    let d = y * w * c_total + c;
                    for x in 0..w {
                        dst[d + x * c_total] = src[s + x];
                    }
                }
            }
        }
        (Layout::Nhwc, Layout::Chw) => {
            for c in 0..c_total {
                for y in 0..h {
                    let s = y * w * c_total + c;
                    let d = (c * h + y) * w;
                    for x in 0..w {
                        dst[d + x] = src[s + x * c_total];
                    }
                }
            }
        }
        // Rare pairs (never emitted by the current assignment pass, which
        // anchors converts at CHW): go element-wise through logical indices.
        (from, to) => {
            for c in 0..c_total {
                for y in 0..h {
                    for x in 0..w {
                        dst[to.index(shape, c, y, x)] = src[from.index(shape, c, y, x)];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 - 7.5).collect()
    }

    #[test]
    fn physical_shapes_pad_only_chwc8() {
        assert_eq!(Layout::Chw.physical_shape([3, 4, 5]), [3, 4, 5]);
        assert_eq!(Layout::Nhwc.physical_shape([3, 4, 5]), [3, 4, 5]);
        assert_eq!(Layout::Chwc8.physical_shape([3, 4, 5]), [8, 4, 5]);
        assert_eq!(Layout::Chwc8.physical_shape([16, 2, 2]), [16, 2, 2]);
    }

    #[test]
    fn indexing_agrees_with_conversion() {
        let shape = [5, 3, 4];
        let src = ramp(Layout::Chw.physical_len(shape));
        for to in [Layout::Nhwc, Layout::Chwc8] {
            let out = convert(&src, shape, Layout::Chw, to);
            for c in 0..shape[0] {
                for y in 0..shape[1] {
                    for x in 0..shape[2] {
                        assert_eq!(
                            out[to.index(shape, c, y, x)],
                            src[Layout::Chw.index(shape, c, y, x)],
                            "({c},{y},{x}) via {to:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chwc8_pad_lanes_are_zero() {
        let shape = [3, 2, 2];
        let src = vec![1.0f32; 12];
        let out = convert(&src, shape, Layout::Chw, Layout::Chwc8);
        assert_eq!(out.len(), 8 * 2 * 2);
        for y in 0..2 {
            for x in 0..2 {
                for lane in 3..8 {
                    assert_eq!(out[(y * 2 + x) * 8 + lane], 0.0);
                }
            }
        }
    }

    #[test]
    fn round_trips_are_bit_identical_including_nan_payloads() {
        let shape = [11, 3, 2]; // padded tail: 11 % 8 != 0
        let mut src = ramp(Layout::Chw.physical_len(shape));
        src[5] = f32::from_bits(0x7fc0_1234); // NaN with payload
        src[6] = -0.0;
        for via in [Layout::Nhwc, Layout::Chwc8] {
            let there = convert(&src, shape, Layout::Chw, via);
            let back = convert(&there, shape, via, Layout::Chw);
            let same = src
                .iter()
                .zip(&back)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "round trip through {via:?} not byte-identical");
        }
    }

    #[test]
    fn generic_pair_matches_two_hops() {
        let shape = [9, 2, 3];
        let src = ramp(Layout::Nhwc.physical_len(shape));
        let direct = convert(&src, shape, Layout::Nhwc, Layout::Chwc8);
        let chw = convert(&src, shape, Layout::Nhwc, Layout::Chw);
        let two_hop = convert(&chw, shape, Layout::Chw, Layout::Chwc8);
        assert_eq!(direct, two_hop);
    }
}
