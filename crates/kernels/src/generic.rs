//! The un-optimized framework execution path.
//!
//! The paper's baseline runs trained models straight from their framework
//! (Caffe/TensorFlow/Darknet) with no inference engine: every layer becomes
//! one or more naive FP32 kernels (im2col materialization + unblocked GEMM),
//! each layer synchronizes before the next, and the framework adds per-layer
//! host glue. That stack of inefficiencies — no fusion, no tensor cores, no
//! tiling, per-layer round trips — is what TensorRT's 23–27× speedup
//! (Table VII) is measured against.

use trtsim_gpu::kernel::{KernelDesc, Precision};
use trtsim_ir::flops::LayerCost;
use trtsim_ir::graph::LayerKind;

/// Sustained fraction of FP32 peak a naive unblocked GEMM achieves
/// (no shared-memory tiling, no vectorized loads).
pub const NAIVE_GEMM_EFFICIENCY: f64 = 0.08;

/// Sustained efficiency of the simple elementwise/pool framework kernels.
pub const NAIVE_POINTWISE_EFFICIENCY: f64 = 0.25;

/// Host-side framework glue per layer, µs (Python/C++ dispatch, tensor
/// bookkeeping, per-layer synchronization).
pub const FRAMEWORK_LAYER_GLUE_US: f64 = 500.0;

/// Kernels the framework path launches for one layer, in order.
///
/// Convolutions lower to `im2col` (a pure data-movement kernel that
/// materializes the patch matrix in DRAM!) followed by `sgemm`; other layers
/// lower to one naive kernel. Structural layers launch nothing.
pub fn framework_kernels(
    kind: &LayerKind,
    cost: &LayerCost,
    out_shape: [usize; 3],
) -> Vec<KernelDesc> {
    match kind {
        LayerKind::Conv(c) => {
            let n = (out_shape[1] * out_shape[2]) as u64;
            let k = ((c.in_channels / c.groups) * c.kernel_h * c.kernel_w) as u64;
            let patch_bytes = n * k * 4;
            let im2col = KernelDesc::new("im2col4d_kernel")
                .grid(n.div_ceil(256).max(1), 256)
                .occupancy(8)
                .dram_bytes(cost.input_elems * 4 + patch_bytes) // reads input, WRITES patch matrix
                .precision(Precision::Fp32, false)
                .efficiency(NAIVE_POINTWISE_EFFICIENCY);
            let gemm = KernelDesc::new("sgemm_128x128_nn")
                .grid((c.out_channels as u64).div_ceil(128) * n.div_ceil(128), 256)
                .occupancy(2)
                .flops(cost.flops())
                .dram_bytes(patch_bytes + cost.weight_elems * 4 + cost.output_elems * 4)
                .precision(Precision::Fp32, false)
                .efficiency(NAIVE_GEMM_EFFICIENCY);
            let mut out = vec![im2col, gemm];
            if c.activation.is_some() {
                out.push(pointwise("relu_forward_kernel", cost.output_elems));
            }
            out
        }
        LayerKind::InnerProduct { activation, .. } => {
            let mut out = vec![KernelDesc::new("sgemv_kernel")
                .grid((cost.weight_elems / 4).div_ceil(256).max(1), 256)
                .flops(cost.flops())
                .dram_bytes(cost.weight_elems * 4 + cost.input_elems * 4 + cost.output_elems * 4)
                .precision(Precision::Fp32, false)
                .efficiency(NAIVE_GEMM_EFFICIENCY * 2.0)];
            if activation.is_some() {
                out.push(pointwise("relu_forward_kernel", cost.output_elems));
            }
            out
        }
        LayerKind::Pool { .. } | LayerKind::GlobalPool { .. } => {
            vec![traffic_kernel("pooling_fw_kernel", cost)]
        }
        LayerKind::Act(_) => vec![pointwise("activation_forward_kernel", cost.output_elems)],
        LayerKind::BatchNorm { .. } => vec![traffic_kernel("bn_forward_inference_kernel", cost)],
        LayerKind::Scale { .. } => vec![traffic_kernel("scale_forward_kernel", cost)],
        LayerKind::Lrn { .. } => vec![traffic_kernel("lrn_fill_scale_kernel", cost)],
        LayerKind::Eltwise { .. } => vec![traffic_kernel("eltwise_forward_kernel", cost)],
        LayerKind::Concat => vec![traffic_kernel("concat_copy_kernel", cost)],
        LayerKind::Softmax => vec![traffic_kernel("softmax_forward_kernel", cost)],
        LayerKind::Upsample { .. } => vec![traffic_kernel("upsample_nearest_kernel", cost)],
        LayerKind::Input
        | LayerKind::Flatten
        | LayerKind::Slice { .. }
        | LayerKind::Dropout { .. }
        | LayerKind::Identity => Vec::new(),
    }
}

fn pointwise(name: &str, elems: u64) -> KernelDesc {
    KernelDesc::new(name)
        .grid(elems.div_ceil(256).max(1), 256)
        .occupancy(8)
        .flops(elems)
        .dram_bytes(elems * 8) // read + write fp32
        .precision(Precision::Fp32, false)
        .efficiency(NAIVE_POINTWISE_EFFICIENCY)
}

fn traffic_kernel(name: &str, cost: &LayerCost) -> KernelDesc {
    KernelDesc::new(name)
        .grid(cost.output_elems.max(1).div_ceil(256).max(1), 256)
        .occupancy(8)
        .flops(cost.other_ops + 2 * cost.macs)
        .dram_bytes((cost.input_elems + cost.output_elems + cost.weight_elems) * 4)
        .precision(Precision::Fp32, false)
        .efficiency(NAIVE_POINTWISE_EFFICIENCY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_gpu::device::DeviceSpec;
    use trtsim_gpu::timing::kernel_busy_us;
    use trtsim_ir::flops::layer_cost;
    use trtsim_ir::graph::LayerKind;

    #[test]
    fn conv_lowered_to_im2col_gemm_relu() {
        let kind = LayerKind::conv_seeded(64, 32, 3, 1, 1, 0);
        let cost = layer_cost(&kind, &[[32, 28, 28]], [64, 28, 28]);
        let ks = framework_kernels(&kind, &cost, [64, 28, 28]);
        assert_eq!(ks.len(), 3);
        assert_eq!(&*ks[0].name, "im2col4d_kernel");
        assert_eq!(&*ks[1].name, "sgemm_128x128_nn");
        assert!(ks.iter().all(|k| k.precision == Precision::Fp32));
    }

    #[test]
    fn framework_conv_is_far_slower_than_tuned_tactic() {
        use crate::cost::kernel_desc;
        use crate::tactic::Tactic;
        let kind = LayerKind::conv_seeded(256, 256, 3, 1, 1, 0);
        let cost = layer_cost(&kind, &[[256, 28, 28]], [256, 28, 28]);
        let dev = DeviceSpec::xavier_nx();
        let naive: f64 = framework_kernels(&kind, &cost, [256, 28, 28])
            .iter()
            .map(|k| kernel_busy_us(k, &dev))
            .sum();
        let tuned = kernel_busy_us(
            &kernel_desc(
                &Tactic::conv_hmma(128, 128, ""),
                &kind,
                &cost,
                [256, 28, 28],
            ),
            &dev,
        );
        let speedup = naive / tuned;
        assert!(
            (20.0..120.0).contains(&speedup),
            "speedup {speedup:.1}x outside the paper's regime"
        );
    }

    #[test]
    fn structural_layers_launch_nothing() {
        let cost = LayerCost::default();
        assert!(framework_kernels(&LayerKind::Flatten, &cost, [1, 1, 1]).is_empty());
        assert!(framework_kernels(&LayerKind::Dropout { rate: 0.1 }, &cost, [1, 1, 1]).is_empty());
    }

    #[test]
    fn im2col_writes_patch_matrix() {
        // The hidden cost of the framework path: im2col DRAM traffic exceeds
        // the conv's own input size by ~kernel² ×.
        let kind = LayerKind::conv_seeded(8, 8, 3, 1, 1, 0);
        let cost = layer_cost(&kind, &[[8, 16, 16]], [8, 16, 16]);
        let ks = framework_kernels(&kind, &cost, [8, 16, 16]);
        assert!(ks[0].dram_bytes > cost.input_elems * 4 * 8);
    }
}
