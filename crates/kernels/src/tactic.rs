//! Tactic descriptors and TensorRT-style kernel naming.

use trtsim_gpu::kernel::Precision;

/// Which operation family a tactic implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TacticFamily {
    /// Implicit-GEMM convolution on tensor cores (FP16, `h884cudnn`).
    ConvHmma,
    /// FP32 implicit-GEMM convolution (`scudnn`).
    ConvFp32,
    /// INT8 convolution via DP4A (`i8816cudnn`).
    ConvInt8,
    /// Depthwise convolution (`cuDepthwise`).
    Depthwise,
    /// Dense/fully-connected GEMM (`h884gemm` / `sgemm`).
    Gemm,
    /// Pooling (`cudnn::pooling_fw`).
    Pool,
    /// Local response normalization (`lrn::lrnForward`).
    Lrn,
    /// Pointwise ops: activations, eltwise, scale (`trt_pointwise`).
    Pointwise,
    /// Softmax (`cudnn::softmax_fw`).
    Softmax,
    /// Data movement: concat/flatten/reformat (`trt_reformat`).
    Reformat,
}

/// Accumulation strategy of a tactic's inner reduction.
///
/// Floating-point addition is not associative, so two tactics that sum the
/// same products in different orders produce different low-order bits — and
/// `h884` kernels accumulate in FP16, where the difference is large enough to
/// flip borderline classifications. This is the paper's Finding 2 made
/// concrete.
///
/// FP32 and FP16 kernels visit every in-bounds tap in this order, pruned
/// zero weights included. Only INT8 kernels, whose integer accumulation is
/// exact, elide pruned zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccumOrder {
    /// Straight sequential accumulation in reading order.
    Sequential,
    /// Split-K: sequential within chunks of the given size, chunk partials
    /// combined afterwards (tile-size dependent).
    Chunked(u32),
}

/// One pre-implemented kernel the builder can select.
///
/// # Examples
///
/// ```
/// use trtsim_kernels::tactic::{Tactic, TacticFamily};
/// let t = Tactic::conv_hmma(256, 64, "small");
/// assert_eq!(t.family, TacticFamily::ConvHmma);
/// assert!(t.kernel_name([64, 28, 28]).starts_with("trt_volta_h884cudnn_256x64"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tactic {
    /// Operation family.
    pub family: TacticFamily,
    /// Tile rows (output-channel dimension of the implicit GEMM).
    pub tile_m: u32,
    /// Tile columns (spatial dimension of the implicit GEMM).
    pub tile_n: u32,
    /// Depth of one K-slice the kernel stages through shared memory.
    pub tile_k: u32,
    /// Numeric precision.
    pub precision: Precision,
    /// Whether the tensor-core path is used.
    pub tensor_core: bool,
    /// Fraction of peak throughput at a perfectly tiled shape.
    pub base_efficiency: f64,
    /// Concurrent blocks per SM (occupancy).
    pub blocks_per_sm: u32,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Name suffix variant (`ldg8_relu_exp`, `ldg16`, …).
    pub variant: &'static str,
    /// Inner-reduction ordering.
    pub accum: AccumOrder,
}

impl Tactic {
    /// An FP16 tensor-core convolution tactic with the given tile.
    pub fn conv_hmma(tile_m: u32, tile_n: u32, _hint: &'static str) -> Self {
        Self {
            family: TacticFamily::ConvHmma,
            tile_m,
            tile_n,
            tile_k: 64,
            precision: Precision::Fp16,
            tensor_core: true,
            base_efficiency: 0.62,
            blocks_per_sm: 1,
            threads_per_block: 256,
            variant: "ldg8_relu_exp",
            accum: AccumOrder::Chunked(tile_m.min(tile_n)),
        }
    }

    /// An FP32 convolution tactic.
    pub fn conv_fp32(tile_m: u32, tile_n: u32) -> Self {
        Self {
            family: TacticFamily::ConvFp32,
            tile_m,
            tile_n,
            tile_k: 32,
            precision: Precision::Fp32,
            tensor_core: false,
            base_efficiency: 0.55,
            blocks_per_sm: 2,
            threads_per_block: 256,
            variant: "relu",
            accum: AccumOrder::Sequential,
        }
    }

    /// An INT8 DP4A convolution tactic.
    pub fn conv_int8(tile_m: u32, tile_n: u32) -> Self {
        Self {
            family: TacticFamily::ConvInt8,
            tile_m,
            tile_n,
            tile_k: 64,
            precision: Precision::Int8,
            tensor_core: false,
            base_efficiency: 0.58,
            blocks_per_sm: 2,
            threads_per_block: 256,
            variant: "ldg16_relu",
            accum: AccumOrder::Sequential, // integer accumulation is exact
        }
    }

    /// Per-block L2 working set: double-buffered A and B panels (the C tile
    /// lives in registers). For the 256×64 FP16 tile this is 80 KiB — between
    /// the AGX's 64 KiB and the NX's ≈87 KiB per-block L2 share, which is why
    /// exactly the `h884cudnn_256x64` kernels of the paper's Table XI run
    /// slower on the AGX.
    pub fn l2_working_set_bytes(&self) -> u64 {
        let e = self.precision.bytes() as u64;
        let (m, n, k) = (
            u64::from(self.tile_m),
            u64::from(self.tile_n),
            u64::from(self.tile_k),
        );
        2 * (m * k + n * k) * e
    }

    /// Grid size for an implicit GEMM of logical dims `M×N`.
    pub fn grid_blocks(&self, gemm_m: u64, gemm_n: u64) -> u64 {
        gemm_m.div_ceil(u64::from(self.tile_m)) * gemm_n.div_ceil(u64::from(self.tile_n))
    }

    /// Fraction of tile slots doing useful work at `M×N` (tile quantization).
    pub fn tile_utilization(&self, gemm_m: u64, gemm_n: u64) -> f64 {
        let padded =
            self.grid_blocks(gemm_m, gemm_n) * u64::from(self.tile_m) * u64::from(self.tile_n);
        (gemm_m * gemm_n) as f64 / padded as f64
    }

    /// The TensorRT-style kernel symbol this tactic produces for a layer of
    /// the given output shape (the names the paper's nvprof traces show).
    pub fn kernel_name(&self, out_shape: [usize; 3]) -> String {
        let spatial = out_shape[1] * out_shape[2];
        let size_class = match spatial {
            0..=255 => "small",
            256..=4095 => "medium",
            4096..=16383 => "large",
            _ => "interior",
        };
        match self.family {
            TacticFamily::ConvHmma => format!(
                "trt_volta_h884cudnn_{}x{}_{}_{}_nhwc_tn_v1",
                self.tile_m, self.tile_n, self.variant, size_class
            ),
            TacticFamily::ConvFp32 => format!(
                "trt_volta_scudnn_{}x{}_{}_{}_nn_v1",
                self.tile_m, self.tile_n, self.variant, size_class
            ),
            TacticFamily::ConvInt8 => format!(
                "trt_volta_i8816cudnn_int8_{}x{}_{}_{}_nt_v1",
                self.tile_m, self.tile_n, self.variant, size_class
            ),
            TacticFamily::Depthwise => "cuDepthwise::depthwiseConvHMMAPrefetchKernel".to_string(),
            TacticFamily::Gemm => match self.precision {
                Precision::Fp16 => format!(
                    "trt_volta_h884gemm_{}x{}_ldg8_tn_v1",
                    self.tile_m, self.tile_n
                ),
                _ => format!("trt_volta_sgemm_{}x{}_tn_v1", self.tile_m, self.tile_n),
            },
            TacticFamily::Pool => "cudnn::pooling_fw_4d_kernel".to_string(),
            TacticFamily::Lrn => "lrn::lrnForward_NChWH2".to_string(),
            TacticFamily::Pointwise => "trt_pointwise_vectorized_kernel".to_string(),
            TacticFamily::Softmax => "cudnn::softmax_fw_kernel".to_string(),
            TacticFamily::Reformat => "trt_reformat_copy_kernel".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmma_names_match_paper_traces() {
        let t = Tactic::conv_hmma(256, 64, "small");
        let name = t.kernel_name([64, 14, 14]);
        assert_eq!(
            name,
            "trt_volta_h884cudnn_256x64_ldg8_relu_exp_small_nhwc_tn_v1"
        );
        let name = t.kernel_name([64, 56, 56]);
        assert!(name.ends_with("medium_nhwc_tn_v1"));
    }

    #[test]
    fn grid_and_utilization() {
        let t = Tactic::conv_hmma(128, 128, "x");
        assert_eq!(t.grid_blocks(256, 256), 4);
        assert_eq!(t.tile_utilization(256, 256), 1.0);
        assert_eq!(t.grid_blocks(129, 128), 2);
        assert!((t.tile_utilization(129, 128) - 129.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn working_set_straddles_the_two_l2_shares() {
        // 512K/6 ≈ 87.4K (NX share), 512K/8 = 64K (AGX share) at 1 block/SM.
        // At least one cataloged tile must land between them for the
        // cross-platform kernel anomaly to be reachable.
        let between = [(256u32, 64u32), (128, 128), (256, 128), (64, 64), (128, 64)]
            .iter()
            .map(|&(m, n)| Tactic::conv_hmma(m, n, "x").l2_working_set_bytes())
            .filter(|&ws| (64 << 10..87 << 10).contains(&ws))
            .count();
        assert!(between >= 1, "no tile straddles the NX/AGX L2 shares");
    }

    #[test]
    fn int8_uses_exact_accumulation() {
        assert_eq!(Tactic::conv_int8(128, 64).accum, AccumOrder::Sequential);
    }

    #[test]
    fn chunk_size_depends_on_tile() {
        let a = Tactic::conv_hmma(256, 64, "x");
        let b = Tactic::conv_hmma(128, 128, "x");
        assert_ne!(a.accum, b.accum);
    }

    #[test]
    fn depthwise_name_matches_table_xi() {
        let mut t = Tactic::conv_hmma(64, 64, "x");
        t.family = TacticFamily::Depthwise;
        assert_eq!(
            t.kernel_name([32, 10, 10]),
            "cuDepthwise::depthwiseConvHMMAPrefetchKernel"
        );
    }
}
