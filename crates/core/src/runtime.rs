//! Engine execution: numeric inference and simulated timing.
//!
//! An [`ExecutionContext`] binds an [`Engine`] to a device. It can:
//!
//! * run real numerics ([`ExecutionContext::infer`]) — convolutions and FC
//!   layers execute under their selected tactic's precision and accumulation
//!   order, so two engines with different tactic sets can (rarely) emit
//!   different labels for the same image. Single-image and batch inference
//!   run through a lazily-compiled [`InferencePlan`] (bit-identical to the
//!   reference interpreter, [`ExecutionContext::infer_unplanned`]);
//! * enqueue simulated work on a [`GpuTimeline`]
//!   ([`ExecutionContext::enqueue_inference`]) for latency/throughput
//!   studies, including the per-run engine upload the paper's harness
//!   performs (its Table X separates that memcpy out). The first batched
//!   enqueue of each batch size derives one [`TimedKernel`] row per kernel
//!   against the context's device and caches the table; later enqueues of
//!   that size replay it, so serving the same engine again and again costs
//!   a slice walk rather than a roofline evaluation per kernel;
//! * summarize itself as an [`EngineProfile`] for the concurrency model.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use trtsim_gpu::contention::EngineProfile;
use trtsim_gpu::device::DeviceSpec;
use trtsim_gpu::kernel::Precision;
use trtsim_gpu::timeline::{GpuTimeline, ProfilingOverhead, StreamId, TimedKernel};
use trtsim_gpu::timing::kernel_busy_us;
use trtsim_ir::graph::{Graph, LayerKind};
use trtsim_ir::ops;
use trtsim_ir::tensor::Tensor;
use trtsim_kernels::numeric::{apply_precision, conv_forward, fc_forward};
use trtsim_util::pool::map_indexed;
use trtsim_util::rng::Pcg32;

use crate::engine::Engine;
use crate::error::EngineError;
use crate::fastpath::{InferencePlan, PlanScratch, PlanStats};

/// cuDNN workspace each kernel reserves in an execution context (calibrated
/// against the thread counts of the paper's Figures 3/4).
pub const PER_KERNEL_WORKSPACE_BYTES: u64 = 4 << 20;

/// Fixed CUDA context overhead per stream.
pub const PER_CONTEXT_OVERHEAD_BYTES: u64 = 48 << 20;

/// How a timed inference is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingOptions {
    /// Include the engine-upload `cudaMemcpyHostToDevice` in each run (the
    /// paper's harness does; Table X subtracts it).
    pub include_engine_upload: bool,
    /// Profiler instrumentation (nvprof attached vs not — Tables VIII vs IX).
    pub profiling: ProfilingOverhead,
    /// Host-side glue per inference, µs (pre/post-processing, sync). Model
    /// zoo entries carry calibrated values.
    pub host_glue_us: f64,
    /// Run-to-run relative jitter applied by the measurement harness.
    pub run_jitter_sd: f64,
}

impl Default for TimingOptions {
    fn default() -> Self {
        Self {
            include_engine_upload: true,
            profiling: ProfilingOverhead::none(),
            host_glue_us: 1_500.0,
            run_jitter_sd: 0.02,
        }
    }
}

impl TimingOptions {
    /// With nvprof attached (Table VIII conditions).
    #[deprecated(note = "use `with_profiling(ProfilingOverhead::nvprof())`")]
    pub fn profiled(self) -> Self {
        self.with_profiling(ProfilingOverhead::nvprof())
    }

    /// Sets the profiler instrumentation overhead
    /// ([`ProfilingOverhead::nvprof`] reproduces Table VIII's conditions).
    pub fn with_profiling(mut self, profiling: ProfilingOverhead) -> Self {
        self.profiling = profiling;
        self
    }

    /// Without the per-run engine upload (Table X "memcpy excluded").
    pub fn without_engine_upload(mut self) -> Self {
        self.include_engine_upload = false;
        self
    }

    /// Sets the host glue time.
    pub fn with_host_glue_us(mut self, us: f64) -> Self {
        self.host_glue_us = us;
        self
    }

    /// Sets the measurement harness' run-to-run relative jitter; negative or
    /// NaN values clamp to zero (deterministic runs).
    pub fn with_run_jitter_sd(mut self, sd: f64) -> Self {
        self.run_jitter_sd = if sd.is_nan() { 0.0 } else { sd.max(0.0) };
        self
    }
}

/// State a context derives through `&self` as it runs, behind a mutex; a
/// clone copies what it holds.
#[derive(Debug, Default)]
struct Derived<T>(Mutex<T>);

impl<T: Clone> Clone for Derived<T> {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.0.lock().expect("derived state").clone()))
    }
}

/// A bound (engine, device) pair ready to run (TensorRT
/// `IExecutionContext` analog).
#[derive(Debug, Clone)]
pub struct ExecutionContext<'e> {
    engine: &'e Engine,
    device: DeviceSpec,
    plan: OnceLock<InferencePlan<'e>>,
    /// Batch size → the engine's kernel launches timed on the context's
    /// device at that size, one [`TimedKernel`] per compute unit in
    /// execution order.
    batch_timings: Derived<BTreeMap<u64, Arc<[TimedKernel]>>>,
    /// The summed [`PlanStats`] of every scratch the context's numeric
    /// inferences ran through.
    plan_totals: Derived<PlanStats>,
}

impl<'e> ExecutionContext<'e> {
    /// Binds an engine to a device. Running an engine on a different
    /// platform than it was built for is allowed — exactly what the paper's
    /// cNX_rAGX / cAGX_rNX experiments do.
    pub fn new(engine: &'e Engine, device: DeviceSpec) -> Self {
        Self {
            engine,
            device,
            plan: OnceLock::new(),
            batch_timings: Derived::default(),
            plan_totals: Derived::default(),
        }
    }

    /// The context's precompiled execution plan, compiled on first use and
    /// cached for the context's lifetime.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Execution`] if the engine holds
    /// descriptor-scale weights too large to materialize.
    pub fn plan(&self) -> Result<&InferencePlan<'e>, EngineError> {
        if let Some(p) = self.plan.get() {
            return Ok(p);
        }
        let compiled = InferencePlan::compile(self.engine)?;
        // A racing thread may have set it meanwhile; both compiles are
        // deterministic and identical, so either one serves.
        let _ = self.plan.set(compiled);
        Ok(self.plan.get().expect("plan just set"))
    }

    /// What the context's planned inferences ([`ExecutionContext::infer`]
    /// and the batch APIs) did so far: executions, zero-copy forwards,
    /// layout converts and lane-path output values, summed over every
    /// scratch they ran through. Publish it with
    /// [`crate::telemetry::publish_plan`].
    pub fn plan_stats(&self) -> PlanStats {
        *self.plan_totals.0.lock().expect("plan totals")
    }

    /// Folds a finished scratch's counts into [`ExecutionContext::plan_stats`].
    fn fold(&self, scratch: &PlanScratch) {
        *self.plan_totals.0.lock().expect("plan totals") += scratch.stats();
    }

    /// The engine.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// The device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Numeric inference under each layer's selected tactic.
    ///
    /// Runs through the context's cached [`InferencePlan`] — weights
    /// materialize and lower to their tactic precision once, activations
    /// come from a liveness-driven arena — and is bit-identical to the
    /// naive interpreter ([`ExecutionContext::infer_unplanned`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Execution`] on shape mismatch or if the engine
    /// holds descriptor-scale weights too large to materialize.
    pub fn infer(&self, input: &Tensor) -> Result<Vec<Tensor>, EngineError> {
        let mut scratch = PlanScratch::new();
        let out = self.plan()?.execute(input, &mut scratch);
        self.fold(&scratch);
        out
    }

    /// Numeric inference through the reference interpreter: every call
    /// re-materializes weights, re-rounds them to the tactic precision, and
    /// allocates every activation fresh.
    ///
    /// This is the validation baseline the fast path is checked against
    /// (proptests and `bench_infer` assert bit-identity); production callers
    /// want [`ExecutionContext::infer`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Execution`] on shape mismatch.
    pub fn infer_unplanned(&self, input: &Tensor) -> Result<Vec<Tensor>, EngineError> {
        let graph: &Graph = self.engine.graph();
        if input.shape() != graph.input_shape() {
            return Err(EngineError::Execution(trtsim_ir::IrError::ShapeMismatch {
                node: "input".into(),
                detail: format!(
                    "expected {:?}, got {:?}",
                    graph.input_shape(),
                    input.shape()
                ),
            }));
        }
        let mut values: Vec<Option<Tensor>> = vec![None; graph.len()];
        values[Graph::INPUT] = Some(input.clone());
        for node in graph.nodes().iter().skip(1) {
            let unit = &self.engine.units()[node.id];
            let get = |i: usize| -> &Tensor {
                values[node.inputs[i]].as_ref().expect("producer computed")
            };
            let precision = unit
                .choice
                .as_ref()
                .map(|c| c.tactic.precision)
                .unwrap_or(Precision::Fp32);
            let mut out = match &node.kind {
                LayerKind::Input => unreachable!(),
                LayerKind::Conv(c) => {
                    let tactic = &unit
                        .choice
                        .as_ref()
                        .expect("conv nodes always have a tactic")
                        .tactic;
                    conv_forward(c, get(0), tactic, unit.quant.as_ref())
                }
                LayerKind::InnerProduct {
                    out_features,
                    weights,
                    bias,
                    activation,
                    ..
                } => {
                    let tactic = &unit
                        .choice
                        .as_ref()
                        .expect("fc nodes always have a tactic")
                        .tactic;
                    let w = weights.materialize();
                    let b: Vec<f32> = bias.iter().collect();
                    fc_forward(get(0), &w, &b, *out_features, *activation, tactic)
                }
                LayerKind::Pool {
                    kind,
                    kernel,
                    stride,
                    pad,
                } => precision_rounded(
                    ops::pool2d(get(0), *kind, *kernel, *stride, *pad),
                    precision,
                ),
                LayerKind::GlobalPool { kind } => {
                    precision_rounded(ops::global_pool(get(0), *kind), precision)
                }
                LayerKind::Act(a) => precision_rounded(ops::activate(get(0), *a), precision),
                LayerKind::BatchNorm {
                    mean,
                    var,
                    gamma,
                    beta,
                    eps,
                } => precision_rounded(
                    ops::batch_norm(get(0), mean, var, gamma, beta, *eps),
                    precision,
                ),
                LayerKind::Scale { scale, bias } => {
                    precision_rounded(ops::scale(get(0), scale, bias), precision)
                }
                LayerKind::Lrn {
                    local_size,
                    alpha,
                    beta,
                    k,
                } => precision_rounded(ops::lrn(get(0), *local_size, *alpha, *beta, *k), precision),
                LayerKind::Eltwise { op } => {
                    let ins: Vec<&Tensor> = (0..node.inputs.len()).map(get).collect();
                    precision_rounded(ops::eltwise(&ins, *op), precision)
                }
                LayerKind::Concat => {
                    let ins: Vec<&Tensor> = (0..node.inputs.len()).map(get).collect();
                    ops::concat(&ins)
                }
                LayerKind::Softmax => ops::softmax(get(0)),
                LayerKind::Upsample { factor } => ops::upsample(get(0), *factor),
                LayerKind::Flatten => get(0).clone().into_flat(),
                LayerKind::Slice { begin, len } => ops::slice_channels(get(0), *begin, *len),
                LayerKind::Dropout { .. } | LayerKind::Identity => get(0).clone(),
            };
            debug_assert_eq!(out.shape(), self.engine.shapes()[node.id]);
            // Keep NaN out of downstream argmaxes if an fp16 overflowed.
            if out.as_slice().iter().any(|v| v.is_nan()) {
                out.map_inplace(|v| if v.is_nan() { 0.0 } else { v });
            }
            values[node.id] = Some(out);
        }
        Ok(graph
            .outputs()
            .iter()
            .map(|&id| values[id].take().expect("output computed"))
            .collect())
    }

    /// Predicted class of a classification engine (argmax of first output).
    ///
    /// # Errors
    ///
    /// Propagates [`ExecutionContext::infer`] errors.
    pub fn classify(&self, input: &Tensor) -> Result<usize, EngineError> {
        let out = self.infer(input)?;
        Ok(out[0].argmax().unwrap_or(0))
    }

    /// Runs the plan over `inputs` on up to `threads` worker threads,
    /// splitting the batch into contiguous chunks so each worker reuses one
    /// [`PlanScratch`] across its whole chunk. Results come back in input
    /// order and are bit-identical to calling `f` sequentially per input.
    fn run_batch<T, R, F>(&self, inputs: &[T], threads: usize, f: F) -> Result<Vec<R>, EngineError>
    where
        T: Borrow<Tensor> + Sync,
        R: Send,
        F: Fn(&InferencePlan<'e>, &mut PlanScratch, &Tensor) -> Result<R, EngineError> + Sync,
    {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let plan = self.plan()?;
        let workers = threads.max(1).min(inputs.len());
        let chunk = inputs.len().div_ceil(workers);
        let chunks = map_indexed(workers, workers, |w| {
            // div_ceil chunking can leave trailing workers with no inputs
            // (5 inputs / 4 workers -> chunks of 2, worker 3 starts past the
            // end); clamp so they get an empty slice instead of a panic.
            let start = (w * chunk).min(inputs.len());
            let end = ((w + 1) * chunk).min(inputs.len());
            let mut scratch = PlanScratch::new();
            let out = inputs[start..end]
                .iter()
                .map(|t| f(plan, &mut scratch, t.borrow()))
                .collect::<Result<Vec<R>, EngineError>>();
            self.fold(&scratch);
            out
        });
        let mut out = Vec::with_capacity(inputs.len());
        for chunk in chunks {
            out.extend(chunk?);
        }
        Ok(out)
    }

    /// [`ExecutionContext::infer`] over a batch, fanned out across up to
    /// `threads` worker threads (`1` runs inline). Output order matches
    /// input order and every tensor is bit-identical to the sequential
    /// single-image loop — workers share nothing but the read-only plan.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecutionContext::infer`] error in input order.
    pub fn infer_batch<T>(
        &self,
        inputs: &[T],
        threads: usize,
    ) -> Result<Vec<Vec<Tensor>>, EngineError>
    where
        T: Borrow<Tensor> + Sync,
    {
        self.run_batch(inputs, threads, |plan, scratch, input| {
            plan.execute(input, scratch)
        })
    }

    /// [`ExecutionContext::classify`] over a batch, fanned out across up to
    /// `threads` worker threads. Labels come back in input order,
    /// bit-identical to the sequential loop.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecutionContext::infer`] error in input order.
    pub fn classify_batch<T>(&self, inputs: &[T], threads: usize) -> Result<Vec<usize>, EngineError>
    where
        T: Borrow<Tensor> + Sync,
    {
        self.run_batch(inputs, threads, |plan, scratch, input| {
            let out = plan.execute(input, scratch)?;
            Ok(out[0].argmax().unwrap_or(0))
        })
    }

    /// Uploads the engine to the device (plan-sized H2D copy).
    pub fn upload_engine(&self, timeline: &mut GpuTimeline, stream: StreamId) -> f64 {
        timeline.enqueue_h2d(stream, self.engine.plan_size_bytes())
    }

    /// Enqueues one inference: input H2D, every kernel, output D2H, host glue.
    /// Returns the completion time (µs).
    pub fn enqueue_inference(
        &self,
        timeline: &mut GpuTimeline,
        stream: StreamId,
        opts: &TimingOptions,
    ) -> f64 {
        self.enqueue_batched_inference(timeline, stream, opts, 1)
    }

    /// Enqueues one *batched* inference covering `batch` frames: a single
    /// `batch`×-sized input H2D, one `batch`-scaled launch per kernel, one
    /// combined output D2H, and one round of host glue. Kernel work and copy
    /// traffic scale with the batch; launch overhead and glue are paid once —
    /// the amortization a dynamic batcher exploits (`batch == 1` is exactly
    /// [`ExecutionContext::enqueue_inference`]). Returns the completion time
    /// (µs).
    pub fn enqueue_batched_inference(
        &self,
        timeline: &mut GpuTimeline,
        stream: StreamId,
        opts: &TimingOptions,
        batch: usize,
    ) -> f64 {
        let batch = batch.max(1) as u64;
        let mut cache;
        let uncached;
        let rows: &Arc<[TimedKernel]> = if timeline.device() == &self.device {
            cache = self.batch_timings.0.lock().expect("batch timings");
            cache
                .entry(batch)
                .or_insert_with(|| batch_timing(self.engine, batch, &self.device))
        } else {
            // A timeline on another device times the kernels against its
            // own device, through the same derivation, uncached.
            uncached = batch_timing(self.engine, batch, timeline.device());
            &uncached
        };
        enqueue_timed_batch(timeline, stream, self.engine, rows, batch, opts)
    }

    /// Measures `runs` end-to-end latencies (µs) under the paper's harness
    /// conditions, with run-to-run jitter drawn from `seed`.
    pub fn measure_latency(&self, opts: &TimingOptions, runs: usize, seed: u64) -> Vec<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        (0..runs)
            .map(|_| {
                let mut tl = GpuTimeline::with_overhead(self.device.clone(), opts.profiling);
                let s = tl.create_stream();
                if opts.include_engine_upload {
                    self.upload_engine(&mut tl, s);
                }
                let end = self.enqueue_inference(&mut tl, s, opts);
                (end * (1.0 + opts.run_jitter_sd * rng.normal())).max(0.0)
            })
            .collect()
    }

    /// GPU busy time of one inference (kernel roofline sum, no launches), µs.
    pub fn gpu_busy_us(&self) -> f64 {
        self.engine
            .units()
            .iter()
            .filter_map(|u| u.choice.as_ref())
            .map(|c| kernel_busy_us(&c.kernel, &self.device))
            .sum()
    }

    /// Total post-cache DRAM traffic of one inference, bytes.
    pub fn dram_bytes_per_inference(&self) -> u64 {
        self.engine
            .units()
            .iter()
            .filter_map(|u| u.choice.as_ref())
            .map(|c| c.kernel.dram_bytes)
            .sum()
    }

    /// Summarizes this context for the multi-stream concurrency model
    /// (Figures 3/4). `host_glue_us` should match the serving loop's.
    ///
    /// Per-stream context memory is what bounds the thread count in the
    /// paper's Figures 3/4: each stream's context allocates its activation
    /// bindings (multiply-buffered for pipelining), a cuDNN workspace per
    /// kernel, and fixed CUDA overhead. Deeper engines (GoogLeNet: ~70
    /// launches) therefore support fewer streams than shallow ones
    /// (Tiny-YOLOv3: ~20) even at similar activation volume.
    pub fn profile(&self, host_glue_us: f64) -> EngineProfile {
        let launches = self.engine.launch_count() as u64;
        EngineProfile {
            busy_us: self.gpu_busy_us(),
            gap_us: launches as f64 * self.device.kernel_launch_us + host_glue_us,
            dram_bytes: self.dram_bytes_per_inference(),
            activation_bytes: 4 * self.engine.total_activation_bytes()
                + launches * PER_KERNEL_WORKSPACE_BYTES
                + PER_CONTEXT_OVERHEAD_BYTES,
            weight_bytes: self.engine.stored_weight_bytes(),
        }
    }
}

fn precision_rounded(mut t: Tensor, precision: Precision) -> Tensor {
    if precision == Precision::Fp16 {
        apply_precision(&mut t, Precision::Fp16);
    }
    t
}

/// The engine's kernel launches scaled to `batch` and timed on `device`,
/// in execution order.
pub(crate) fn batch_timing(engine: &Engine, batch: u64, device: &DeviceSpec) -> Arc<[TimedKernel]> {
    engine
        .units()
        .iter()
        .filter_map(|u| u.choice.as_ref())
        .map(|c| TimedKernel::derive(&c.kernel, batch, device))
        .collect()
}

/// Enqueues one batched inference of `engine` whose launches were timed up
/// front ([`batch_timing`]): the `batch`×-sized input H2D, the launch run,
/// the combined output D2H and one round of host glue. Returns the
/// completion time (µs).
pub(crate) fn enqueue_timed_batch(
    timeline: &mut GpuTimeline,
    stream: StreamId,
    engine: &Engine,
    rows: &Arc<[TimedKernel]>,
    batch: u64,
    opts: &TimingOptions,
) -> f64 {
    let io = engine.io_bytes();
    timeline.enqueue_h2d(stream, io.input_bytes * batch);
    timeline.enqueue_timed(stream, rows);
    timeline.enqueue_d2h(stream, (io.output_bytes * batch).max(4));
    timeline.host_span(stream, "host_glue", opts.host_glue_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::BuilderConfig;
    use trtsim_ir::graph::{Graph, LayerKind, PoolKind};

    fn net() -> Graph {
        let mut g = Graph::new("m", [3, 16, 16]);
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
        let gp = g.add_layer(
            "gp",
            LayerKind::GlobalPool {
                kind: PoolKind::Avg,
            },
            &[p],
        );
        let fc = g.add_layer("fc", LayerKind::fc_seeded(10, 16, 3), &[gp]);
        g.mark_output(fc);
        g
    }

    fn engine(seed: u64) -> Engine {
        Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(seed),
        )
        .build(&net())
        .unwrap()
    }

    #[test]
    fn numeric_inference_close_to_reference() {
        let e = engine(1);
        let ctx = ExecutionContext::new(&e, DeviceSpec::xavier_nx());
        let mut rng = Pcg32::seed_from_u64(2);
        let input = Tensor::from_fn([3, 16, 16], |_, _, _| rng.normal() as f32);
        let opt = ctx.infer(&input).unwrap();
        let src = net();
        let reference = trtsim_ir::ReferenceExecutor::new(&src)
            .unwrap()
            .run(&input)
            .unwrap();
        for (a, b) in reference[0].as_slice().iter().zip(opt[0].as_slice()) {
            assert!((a - b).abs() < 0.05 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn latency_is_positive_and_jittered() {
        let e = engine(2);
        let ctx = ExecutionContext::new(&e, DeviceSpec::xavier_nx());
        let lats = ctx.measure_latency(&TimingOptions::default(), 10, 7);
        assert_eq!(lats.len(), 10);
        assert!(lats.iter().all(|&l| l > 0.0));
        let first = lats[0];
        assert!(lats.iter().any(|&l| (l - first).abs() > 1e-9), "no jitter");
    }

    #[test]
    fn profiling_and_upload_increase_latency() {
        let e = engine(3);
        let ctx = ExecutionContext::new(&e, DeviceSpec::xavier_nx());
        let base = TimingOptions {
            run_jitter_sd: 0.0,
            ..TimingOptions::default()
        };
        let with_all = ctx.measure_latency(&base, 1, 0)[0];
        let no_upload = ctx.measure_latency(&base.without_engine_upload(), 1, 0)[0];
        let profiled =
            ctx.measure_latency(&base.with_profiling(ProfilingOverhead::nvprof()), 1, 0)[0];
        assert!(no_upload < with_all);
        assert!(profiled > with_all);
    }

    #[test]
    fn cross_platform_context_runs() {
        let e = engine(4); // built on NX
        let ctx = ExecutionContext::new(&e, DeviceSpec::xavier_agx());
        let opts = TimingOptions {
            run_jitter_sd: 0.0,
            ..TimingOptions::default()
        };
        let lat = ctx.measure_latency(&opts, 1, 0)[0];
        assert!(lat > 0.0);
    }

    #[test]
    fn profile_quantities_are_consistent() {
        let e = engine(5);
        let ctx = ExecutionContext::new(&e, DeviceSpec::xavier_nx());
        let p = ctx.profile(1000.0);
        assert!(p.busy_us > 0.0);
        assert!(p.gap_us >= 1000.0);
        assert!(p.dram_bytes > 0);
        assert!(p.weight_bytes > 0);
        assert!(p.activation_bytes > (48 << 20));
    }

    #[test]
    fn planned_infer_matches_interpreter_bit_for_bit() {
        let e = engine(9);
        let ctx = ExecutionContext::new(&e, DeviceSpec::xavier_nx());
        let mut rng = Pcg32::seed_from_u64(17);
        for _ in 0..4 {
            let input = Tensor::from_fn([3, 16, 16], |_, _, _| rng.normal() as f32);
            assert_eq!(
                ctx.infer(&input).unwrap(),
                ctx.infer_unplanned(&input).unwrap()
            );
        }
    }

    #[test]
    fn batch_apis_match_sequential_loop_at_any_thread_count() {
        let e = engine(10);
        let ctx = ExecutionContext::new(&e, DeviceSpec::xavier_nx());
        let mut rng = Pcg32::seed_from_u64(21);
        let inputs: Vec<Tensor> = (0..7)
            .map(|_| Tensor::from_fn([3, 16, 16], |_, _, _| rng.normal() as f32))
            .collect();
        let want_outs: Vec<Vec<Tensor>> = inputs.iter().map(|t| ctx.infer(t).unwrap()).collect();
        let want_labels: Vec<usize> = inputs.iter().map(|t| ctx.classify(t).unwrap()).collect();
        for threads in [1, 2, 3, 16] {
            assert_eq!(ctx.infer_batch(&inputs, threads).unwrap(), want_outs);
            assert_eq!(ctx.classify_batch(&inputs, threads).unwrap(), want_labels);
        }
        assert!(ctx.infer_batch::<Tensor>(&[], 4).unwrap().is_empty());
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let e = engine(6);
        let ctx = ExecutionContext::new(&e, DeviceSpec::xavier_nx());
        assert!(ctx.infer(&Tensor::zeros([3, 8, 8])).is_err());
    }

    #[test]
    fn batched_enqueue_amortizes_per_frame_cost() {
        let e = engine(8);
        let ctx = ExecutionContext::new(&e, DeviceSpec::xavier_nx());
        let opts = TimingOptions {
            run_jitter_sd: 0.0,
            ..TimingOptions::default()
        };
        let mut tl1 = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s1 = tl1.create_stream();
        let mut one_by_one = 0.0;
        for _ in 0..8 {
            one_by_one = ctx.enqueue_inference(&mut tl1, s1, &opts);
        }
        let mut tl8 = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s8 = tl8.create_stream();
        let batched = ctx.enqueue_batched_inference(&mut tl8, s8, &opts, 8);
        // Same 8 frames, one launch set + one glue round: strictly faster.
        assert!(batched < one_by_one, "{batched} !< {one_by_one}");
        assert_eq!(tl8.kernels().len(), e.launch_count());
        // And a batch of one is byte-identical to the single-frame path.
        let mut tl_a = GpuTimeline::new(DeviceSpec::xavier_nx());
        let mut tl_b = GpuTimeline::new(DeviceSpec::xavier_nx());
        let sa = tl_a.create_stream();
        let sb = tl_b.create_stream();
        assert_eq!(
            ctx.enqueue_inference(&mut tl_a, sa, &opts),
            ctx.enqueue_batched_inference(&mut tl_b, sb, &opts, 1)
        );
    }

    #[test]
    fn timeline_records_all_kernels() {
        let e = engine(7);
        let ctx = ExecutionContext::new(&e, DeviceSpec::xavier_nx());
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        ctx.enqueue_inference(&mut tl, s, &TimingOptions::default());
        assert_eq!(tl.kernels().len(), e.launch_count());
        assert_eq!(tl.memcpys().len(), 2); // input h2d + output d2h
    }
}
