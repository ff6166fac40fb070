//! Plan (serialized engine) format.
//!
//! TensorRT engines are deployed as opaque plan files. The paper's §VI
//! recommends building **once** and shipping the same plan to every device so
//! outputs and latencies stay consistent; this module provides that workflow:
//! [`serialize`] an [`Engine`] and [`deserialize`] it bit-identically on any
//! host. Weights are stored in each layer's selected precision, which is why
//! plan sizes track Table II (FP16 engines ≈ half the FP32 model, plus the
//! embedded runtime payload).

use bytes::{Buf, BufMut, BytesMut};
use trtsim_gpu::device::Platform;
use trtsim_gpu::kernel::{KernelDesc, Precision};
use trtsim_ir::graph::{Activation, ConvParams, EltwiseOp, Graph, LayerKind, PoolKind};
use trtsim_ir::weights::Weights;
use trtsim_kernels::numeric::QuantDesc;
use trtsim_kernels::tactic::{AccumOrder, Tactic, TacticFamily};
use trtsim_util::f16::QuantParams;

use crate::autotune::Choice;
use crate::engine::{BuildReport, Engine, EngineData, ExecUnit, IoBytes};
use crate::error::EngineError;
use crate::passes::PassReport;

const MAGIC: &[u8; 8] = b"TRTSPLAN";
const VERSION: u32 = 2;

/// Serializes an engine to a plan blob.
pub fn serialize(engine: &Engine) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u8(match engine.build_platform() {
        Platform::Nx => 0,
        Platform::Agx => 1,
    });
    buf.put_u64_le(engine.build_seed());
    put_string(&mut buf, engine.name());
    for d in engine.graph().input_shape() {
        buf.put_u64_le(d as u64);
    }
    let r = engine.report();
    for v in [
        r.passes.removed,
        r.passes.fused,
        r.passes.merged,
        r.compressed_blobs,
    ] {
        buf.put_u64_le(v as u64);
    }
    buf.put_u64_le(r.autotune_measurements);
    buf.put_u64_le((engine.graph().len() - 1) as u64);
    for node in engine.graph().nodes().iter().skip(1) {
        put_string(&mut buf, &node.name);
        buf.put_u32_le(node.inputs.len() as u32);
        for &i in &node.inputs {
            buf.put_u64_le(i as u64);
        }
        put_kind(&mut buf, &node.kind);
        put_unit(&mut buf, &engine.units()[node.id]);
    }
    buf.put_u32_le(engine.graph().outputs().len() as u32);
    for &o in engine.graph().outputs() {
        buf.put_u64_le(o as u64);
    }
    buf.to_vec()
}

/// Deserializes a plan blob back into an engine.
///
/// # Errors
///
/// Returns [`EngineError::MalformedPlan`] on truncation, bad magic, version
/// mismatch, or any structurally invalid content.
pub fn deserialize(data: &[u8]) -> Result<Engine, EngineError> {
    let mut r = Reader { data, pos: 0 };
    let magic = r.bytes(8)?;
    if magic != MAGIC {
        return Err(malformed("bad magic"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(malformed(format!("unsupported version {version}")));
    }
    let platform = match r.u8()? {
        0 => Platform::Nx,
        1 => Platform::Agx,
        p => return Err(malformed(format!("unknown platform {p}"))),
    };
    let build_seed = r.u64()?;
    let name = r.string()?;
    let input_shape = [r.u64()? as usize, r.u64()? as usize, r.u64()? as usize];
    let report = BuildReport {
        passes: PassReport {
            removed: r.u64()? as usize,
            fused: r.u64()? as usize,
            merged: r.u64()? as usize,
        },
        compressed_blobs: r.u64()? as usize,
        autotune_measurements: r.u64()?,
    };

    let node_count = r.u64()? as usize;
    if node_count > 1_000_000 {
        return Err(malformed("implausible node count"));
    }
    let mut graph = Graph::new(name.clone(), input_shape);
    let mut units = vec![ExecUnit {
        choice: None,
        quant: None,
    }];
    for _ in 0..node_count {
        let node_name = r.string()?;
        let n_inputs = r.u32()? as usize;
        if n_inputs > 4096 {
            return Err(malformed("implausible input count"));
        }
        let mut inputs = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            let i = r.u64()? as usize;
            if i >= graph.len() {
                return Err(malformed("forward reference in plan"));
            }
            inputs.push(i);
        }
        let kind = get_kind(&mut r)?;
        graph.add_layer(node_name, kind, &inputs);
        units.push(get_unit(&mut r)?);
    }
    let n_outputs = r.u32()? as usize;
    for _ in 0..n_outputs {
        let o = r.u64()? as usize;
        if o >= graph.len() {
            return Err(malformed("output id out of range"));
        }
        graph.mark_output(o);
    }
    let shapes = graph
        .infer_shapes()
        .map_err(|e| malformed(format!("invalid graph in plan: {e}")))?;
    graph
        .validate()
        .map_err(|e| malformed(format!("invalid graph in plan: {e}")))?;
    Ok(Engine::new(EngineData {
        name,
        io: IoBytes::of(&graph, &shapes),
        graph,
        shapes,
        units,
        build_platform: platform,
        build_seed,
        report,
    }))
}

fn malformed(detail: impl Into<String>) -> EngineError {
    EngineError::MalformedPlan(detail.into())
}

// ---------- writing ----------

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_weights(buf: &mut BytesMut, w: &Weights) {
    match w {
        Weights::Dense(v) => {
            buf.put_u8(0);
            buf.put_u64_le(v.len() as u64);
            for &x in v {
                buf.put_f32_le(x);
            }
        }
        Weights::Seeded { seed, len, scale } => {
            buf.put_u8(1);
            buf.put_u64_le(*seed);
            buf.put_u64_le(*len as u64);
            buf.put_f32_le(*scale);
        }
    }
}

fn put_vec(buf: &mut BytesMut, v: &[f32]) {
    buf.put_u64_le(v.len() as u64);
    for &x in v {
        buf.put_f32_le(x);
    }
}

fn put_act(buf: &mut BytesMut, a: &Option<Activation>) {
    match a {
        None => buf.put_u8(0),
        Some(Activation::Relu) => buf.put_u8(1),
        Some(Activation::LeakyRelu(s)) => {
            buf.put_u8(2);
            buf.put_f32_le(*s);
        }
        Some(Activation::Sigmoid) => buf.put_u8(3),
        Some(Activation::Tanh) => buf.put_u8(4),
    }
}

fn put_kind(buf: &mut BytesMut, kind: &LayerKind) {
    match kind {
        LayerKind::Input => unreachable!("input node is implicit"),
        LayerKind::Conv(c) => {
            buf.put_u8(1);
            for v in [
                c.out_channels,
                c.in_channels,
                c.kernel_h,
                c.kernel_w,
                c.stride,
                c.pad_h,
                c.pad_w,
                c.groups,
            ] {
                buf.put_u64_le(v as u64);
            }
            put_weights(buf, &c.weights);
            put_weights(buf, &c.bias);
            put_act(buf, &c.activation);
        }
        LayerKind::Pool {
            kind,
            kernel,
            stride,
            pad,
        } => {
            buf.put_u8(2);
            buf.put_u8(pool_tag(*kind));
            for v in [kernel, stride, pad] {
                buf.put_u64_le(*v as u64);
            }
        }
        LayerKind::GlobalPool { kind } => {
            buf.put_u8(3);
            buf.put_u8(pool_tag(*kind));
        }
        LayerKind::InnerProduct {
            out_features,
            in_features,
            weights,
            bias,
            activation,
        } => {
            buf.put_u8(4);
            buf.put_u64_le(*out_features as u64);
            buf.put_u64_le(*in_features as u64);
            put_weights(buf, weights);
            put_weights(buf, bias);
            put_act(buf, activation);
        }
        LayerKind::Act(a) => {
            buf.put_u8(5);
            put_act(buf, &Some(*a));
        }
        LayerKind::BatchNorm {
            mean,
            var,
            gamma,
            beta,
            eps,
        } => {
            buf.put_u8(6);
            put_vec(buf, mean);
            put_vec(buf, var);
            put_vec(buf, gamma);
            put_vec(buf, beta);
            buf.put_f32_le(*eps);
        }
        LayerKind::Scale { scale, bias } => {
            buf.put_u8(7);
            put_vec(buf, scale);
            put_vec(buf, bias);
        }
        LayerKind::Lrn {
            local_size,
            alpha,
            beta,
            k,
        } => {
            buf.put_u8(8);
            buf.put_u64_le(*local_size as u64);
            buf.put_f32_le(*alpha);
            buf.put_f32_le(*beta);
            buf.put_f32_le(*k);
        }
        LayerKind::Eltwise { op } => {
            buf.put_u8(9);
            buf.put_u8(match op {
                EltwiseOp::Sum => 0,
                EltwiseOp::Max => 1,
                EltwiseOp::Prod => 2,
            });
        }
        LayerKind::Concat => buf.put_u8(10),
        LayerKind::Softmax => buf.put_u8(11),
        LayerKind::Upsample { factor } => {
            buf.put_u8(12);
            buf.put_u64_le(*factor as u64);
        }
        LayerKind::Flatten => buf.put_u8(13),
        LayerKind::Dropout { rate } => {
            buf.put_u8(14);
            buf.put_f32_le(*rate);
        }
        LayerKind::Identity => buf.put_u8(15),
        LayerKind::Slice { begin, len } => {
            buf.put_u8(16);
            buf.put_u64_le(*begin as u64);
            buf.put_u64_le(*len as u64);
        }
    }
}

fn pool_tag(kind: PoolKind) -> u8 {
    match kind {
        PoolKind::Max => 0,
        PoolKind::Avg => 1,
    }
}

fn precision_tag(p: Precision) -> u8 {
    match p {
        Precision::Fp32 => 0,
        Precision::Fp16 => 1,
        Precision::Int8 => 2,
    }
}

fn put_unit(buf: &mut BytesMut, unit: &ExecUnit) {
    match &unit.choice {
        None => buf.put_u8(0),
        Some(c) => {
            buf.put_u8(1);
            // Tactic.
            let t = &c.tactic;
            buf.put_u8(family_tag(t.family));
            buf.put_u32_le(t.tile_m);
            buf.put_u32_le(t.tile_n);
            buf.put_u32_le(t.tile_k);
            buf.put_u8(precision_tag(t.precision));
            buf.put_u8(u8::from(t.tensor_core));
            buf.put_f64_le(t.base_efficiency);
            buf.put_u32_le(t.blocks_per_sm);
            buf.put_u32_le(t.threads_per_block);
            put_string(buf, t.variant);
            match t.accum {
                AccumOrder::Sequential => buf.put_u8(0),
                AccumOrder::Chunked(n) => {
                    buf.put_u8(1);
                    buf.put_u32_le(n);
                }
                AccumOrder::Pairwise => buf.put_u8(2),
            }
            // Kernel.
            let k = &c.kernel;
            put_string(buf, &k.name);
            buf.put_u64_le(k.grid_blocks);
            buf.put_u32_le(k.threads_per_block);
            buf.put_u32_le(k.blocks_per_sm);
            buf.put_u64_le(k.flops);
            buf.put_u64_le(k.dram_bytes);
            buf.put_u64_le(k.l2_bytes);
            buf.put_u64_le(k.shared_bytes);
            buf.put_u64_le(k.l2_working_set_bytes);
            buf.put_u8(precision_tag(k.precision));
            buf.put_u8(u8::from(k.uses_tensor_cores));
            buf.put_f64_le(k.compute_efficiency);
            buf.put_f64_le(c.measured_us);
            buf.put_u64_le(c.candidates as u64);
        }
    }
    match &unit.quant {
        None => buf.put_u8(0),
        Some(q) => {
            buf.put_u8(1);
            buf.put_f32_le(q.input.scale);
            buf.put_f32_le(q.weights.scale);
        }
    }
}

fn family_tag(f: TacticFamily) -> u8 {
    match f {
        TacticFamily::ConvHmma => 0,
        TacticFamily::ConvFp32 => 1,
        TacticFamily::ConvInt8 => 2,
        TacticFamily::Depthwise => 3,
        TacticFamily::Gemm => 4,
        TacticFamily::Pool => 5,
        TacticFamily::Lrn => 6,
        TacticFamily::Pointwise => 7,
        TacticFamily::Softmax => 8,
        TacticFamily::Reformat => 9,
    }
}

// ---------- reading ----------

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        if self.pos + n > self.data.len() {
            return Err(malformed("truncated plan"));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, EngineError> {
        Ok(self.bytes(4)?.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, EngineError> {
        Ok(self.bytes(8)?.get_u64_le())
    }

    /// A structural dimension (channel count, kernel side, …): bounded so
    /// corrupted plans cannot trigger arithmetic overflow downstream.
    fn dim(&mut self) -> Result<usize, EngineError> {
        let v = self.u64()?;
        if v > 1 << 24 {
            return Err(malformed(format!("implausible dimension {v}")));
        }
        Ok(v as usize)
    }

    fn f32(&mut self) -> Result<f32, EngineError> {
        Ok(self.bytes(4)?.get_f32_le())
    }

    fn f64(&mut self) -> Result<f64, EngineError> {
        Ok(self.bytes(8)?.get_f64_le())
    }

    fn string(&mut self) -> Result<String, EngineError> {
        let len = self.u32()? as usize;
        if len > 1 << 20 {
            return Err(malformed("implausible string length"));
        }
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid utf-8"))
    }

    fn weights(&mut self) -> Result<Weights, EngineError> {
        match self.u8()? {
            0 => {
                let len = self.u64()? as usize;
                if len > 1 << 28 {
                    return Err(malformed("implausible dense weight length"));
                }
                let mut v = Vec::with_capacity(len);
                for _ in 0..len {
                    v.push(self.f32()?);
                }
                Ok(Weights::Dense(v))
            }
            1 => {
                let seed = self.u64()?;
                let len = self.u64()?;
                if len > 1 << 40 {
                    return Err(malformed("implausible seeded weight length"));
                }
                Ok(Weights::Seeded {
                    seed,
                    len: len as usize,
                    scale: self.f32()?,
                })
            }
            t => Err(malformed(format!("unknown weights tag {t}"))),
        }
    }

    fn vec_f32(&mut self) -> Result<Vec<f32>, EngineError> {
        let len = self.u64()? as usize;
        if len > 1 << 24 {
            return Err(malformed("implausible vector length"));
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.f32()?);
        }
        Ok(v)
    }

    fn act(&mut self) -> Result<Option<Activation>, EngineError> {
        Ok(match self.u8()? {
            0 => None,
            1 => Some(Activation::Relu),
            2 => Some(Activation::LeakyRelu(self.f32()?)),
            3 => Some(Activation::Sigmoid),
            4 => Some(Activation::Tanh),
            t => return Err(malformed(format!("unknown activation tag {t}"))),
        })
    }

    fn pool_kind(&mut self) -> Result<PoolKind, EngineError> {
        match self.u8()? {
            0 => Ok(PoolKind::Max),
            1 => Ok(PoolKind::Avg),
            t => Err(malformed(format!("unknown pool tag {t}"))),
        }
    }

    fn precision(&mut self) -> Result<Precision, EngineError> {
        match self.u8()? {
            0 => Ok(Precision::Fp32),
            1 => Ok(Precision::Fp16),
            2 => Ok(Precision::Int8),
            t => Err(malformed(format!("unknown precision tag {t}"))),
        }
    }
}

fn get_kind(r: &mut Reader<'_>) -> Result<LayerKind, EngineError> {
    Ok(match r.u8()? {
        1 => LayerKind::Conv(ConvParams {
            out_channels: r.dim()?,
            in_channels: r.dim()?,
            kernel_h: r.dim()?,
            kernel_w: r.dim()?,
            stride: r.dim()?,
            pad_h: r.dim()?,
            pad_w: r.dim()?,
            groups: r.dim()?,
            weights: r.weights()?,
            bias: r.weights()?,
            activation: r.act()?,
        }),
        2 => LayerKind::Pool {
            kind: r.pool_kind()?,
            kernel: r.dim()?,
            stride: r.dim()?,
            pad: r.dim()?,
        },
        3 => LayerKind::GlobalPool {
            kind: r.pool_kind()?,
        },
        4 => LayerKind::InnerProduct {
            out_features: r.dim()?,
            in_features: r.dim()?,
            weights: r.weights()?,
            bias: r.weights()?,
            activation: r.act()?,
        },
        5 => LayerKind::Act(r.act()?.ok_or_else(|| malformed("missing activation"))?),
        6 => LayerKind::BatchNorm {
            mean: r.vec_f32()?,
            var: r.vec_f32()?,
            gamma: r.vec_f32()?,
            beta: r.vec_f32()?,
            eps: r.f32()?,
        },
        7 => LayerKind::Scale {
            scale: r.vec_f32()?,
            bias: r.vec_f32()?,
        },
        8 => LayerKind::Lrn {
            local_size: r.dim()?,
            alpha: r.f32()?,
            beta: r.f32()?,
            k: r.f32()?,
        },
        9 => LayerKind::Eltwise {
            op: match r.u8()? {
                0 => EltwiseOp::Sum,
                1 => EltwiseOp::Max,
                2 => EltwiseOp::Prod,
                t => return Err(malformed(format!("unknown eltwise tag {t}"))),
            },
        },
        10 => LayerKind::Concat,
        11 => LayerKind::Softmax,
        12 => LayerKind::Upsample { factor: r.dim()? },
        13 => LayerKind::Flatten,
        14 => LayerKind::Dropout { rate: r.f32()? },
        15 => LayerKind::Identity,
        16 => LayerKind::Slice {
            begin: r.dim()?,
            len: r.dim()?,
        },
        t => return Err(malformed(format!("unknown layer tag {t}"))),
    })
}

/// Known variant strings interned back to `'static` lifetimes.
fn intern_variant(s: &str) -> &'static str {
    for known in ["ldg8_relu_exp", "relu", "ldg16_relu", "prefetch", ""] {
        if s == known {
            return known;
        }
    }
    ""
}

fn get_unit(r: &mut Reader<'_>) -> Result<ExecUnit, EngineError> {
    let choice = match r.u8()? {
        0 => None,
        1 => {
            let family = match r.u8()? {
                0 => TacticFamily::ConvHmma,
                1 => TacticFamily::ConvFp32,
                2 => TacticFamily::ConvInt8,
                3 => TacticFamily::Depthwise,
                4 => TacticFamily::Gemm,
                5 => TacticFamily::Pool,
                6 => TacticFamily::Lrn,
                7 => TacticFamily::Pointwise,
                8 => TacticFamily::Softmax,
                9 => TacticFamily::Reformat,
                t => return Err(malformed(format!("unknown family tag {t}"))),
            };
            let tile_m = r.u32()?;
            let tile_n = r.u32()?;
            let tile_k = r.u32()?;
            let precision = r.precision()?;
            let tensor_core = r.u8()? != 0;
            let base_efficiency = r.f64()?;
            let blocks_per_sm = r.u32()?;
            let threads_per_block = r.u32()?;
            let variant = intern_variant(&r.string()?);
            let accum = match r.u8()? {
                0 => AccumOrder::Sequential,
                1 => AccumOrder::Chunked(r.u32()?),
                2 => AccumOrder::Pairwise,
                t => return Err(malformed(format!("unknown accum tag {t}"))),
            };
            let tactic = Tactic {
                family,
                tile_m,
                tile_n,
                tile_k,
                precision,
                tensor_core,
                base_efficiency,
                blocks_per_sm,
                threads_per_block,
                variant,
                accum,
            };
            let name = r.string()?;
            let mut kernel = KernelDesc::new(name)
                .grid(r.u64()?, r.u32()?)
                .occupancy(r.u32()?)
                .flops(r.u64()?)
                .dram_bytes(r.u64()?)
                .l2_bytes(r.u64()?)
                .shared_bytes(r.u64()?)
                .l2_working_set(r.u64()?);
            let k_precision = r.precision()?;
            let k_tc = r.u8()? != 0;
            kernel = kernel.precision(k_precision, k_tc);
            let eff = r.f64()?;
            if !(eff > 0.0 && eff <= 1.0) {
                return Err(malformed("kernel efficiency out of range"));
            }
            kernel = kernel.efficiency(eff);
            let measured_us = r.f64()?;
            let candidates = r.u64()? as usize;
            Some(Choice {
                tactic,
                kernel,
                measured_us,
                candidates,
            })
        }
        t => return Err(malformed(format!("unknown unit tag {t}"))),
    };
    let quant = match r.u8()? {
        0 => None,
        1 => Some(QuantDesc {
            input: QuantParams { scale: r.f32()? },
            weights: QuantParams { scale: r.f32()? },
        }),
        t => return Err(malformed(format!("unknown quant tag {t}"))),
    };
    Ok(ExecUnit { choice, quant })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::BuilderConfig;
    use trtsim_gpu::device::DeviceSpec;
    use trtsim_ir::graph::{Graph, LayerKind, PoolKind};

    fn engine() -> Engine {
        let mut g = Graph::new("plan_test", [3, 16, 16]);
        let c1 = g.add_layer(
            "c1",
            LayerKind::conv_seeded(16, 3, 3, 1, 1, 0),
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
        let b1 = g.add_layer("b1", LayerKind::conv_seeded(8, 16, 1, 1, 0, 1), &[p]);
        let b2 = g.add_layer("b2", LayerKind::conv_seeded(8, 16, 1, 1, 0, 2), &[p]);
        let cat = g.add_layer("cat", LayerKind::Concat, &[b1, b2]);
        let gp = g.add_layer(
            "gp",
            LayerKind::GlobalPool {
                kind: PoolKind::Avg,
            },
            &[cat],
        );
        let fc = g.add_layer("fc", LayerKind::fc_seeded(10, 16, 3), &[gp]);
        let sm = g.add_layer("sm", LayerKind::Softmax, &[fc]);
        g.mark_output(sm);
        Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(17),
        )
        .build(&g)
        .unwrap()
    }

    #[test]
    fn round_trip_is_identical() {
        let e = engine();
        let blob = serialize(&e);
        let back = deserialize(&blob).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn deployed_plan_behaves_identically() {
        // The paper's mitigation: ship one plan everywhere.
        use crate::runtime::ExecutionContext;
        use trtsim_ir::Tensor;
        use trtsim_util::rng::Pcg32;
        let e = engine();
        let back = deserialize(&serialize(&e)).unwrap();
        let mut rng = Pcg32::seed_from_u64(1);
        let input = Tensor::from_fn([3, 16, 16], |_, _, _| rng.normal() as f32);
        let a = ExecutionContext::new(&e, DeviceSpec::xavier_nx())
            .infer(&input)
            .unwrap();
        let b = ExecutionContext::new(&back, DeviceSpec::xavier_agx())
            .infer(&input)
            .unwrap();
        assert_eq!(a, b, "same plan must give bit-identical outputs anywhere");
    }

    #[test]
    fn truncated_plans_are_rejected() {
        let blob = serialize(&engine());
        for cut in [0, 4, 8, 20, blob.len() / 2, blob.len() - 1] {
            assert!(
                matches!(
                    deserialize(&blob[..cut]),
                    Err(EngineError::MalformedPlan(_))
                ),
                "cut at {cut} not rejected"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut blob = serialize(&engine());
        blob[0] ^= 0xff;
        assert!(matches!(
            deserialize(&blob),
            Err(EngineError::MalformedPlan(_))
        ));
    }

    #[test]
    fn garbage_rejected_without_panic() {
        let mut rng = trtsim_util::rng::Pcg32::seed_from_u64(0);
        for len in [0usize, 1, 8, 64, 1024] {
            let junk: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let _ = deserialize(&junk); // must not panic
        }
    }

    #[test]
    fn plan_size_tracks_weight_precision() {
        let e = engine();
        let blob = serialize(&e);
        // Seeded weights serialize compactly; the analytic size accounts for
        // logical weight bytes and exceeds the blob for descriptor engines.
        assert!(e.plan_size_bytes() > 0);
        assert!(!blob.is_empty());
    }
}
