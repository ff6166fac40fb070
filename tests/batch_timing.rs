//! Compiled batch timing: `ExecutionContext::enqueue_batched_inference`
//! replays a per-batch-size table of derived kernel timings. These tests pin
//! its records bit-for-bit to the per-kernel reference — one
//! `GpuTimeline::enqueue_batched_kernel` per compute unit, which derives
//! every launch's roofline time on the spot — across models, boards, clocks,
//! profiler settings and batch sizes, on a timeline whose device differs
//! from the context's, and with two contexts sharing one timeline.

use trtsim::engine::runtime::{ExecutionContext, TimingOptions};
use trtsim::gpu::timeline::{GpuTimeline, ProfilingOverhead, StreamId};
use trtsim::models::ModelId;
use trtsim::{Builder, BuilderConfig, DeviceSpec, Engine, Platform};

const MODELS: [ModelId; 3] = [ModelId::Googlenet, ModelId::Resnet18, ModelId::Mobilenetv1];

fn boards() -> [DeviceSpec; 4] {
    [
        DeviceSpec::pinned_clock(Platform::Nx),
        DeviceSpec::max_clock(Platform::Nx),
        DeviceSpec::pinned_clock(Platform::Agx),
        DeviceSpec::max_clock(Platform::Agx),
    ]
}

fn engine(model: ModelId) -> Engine {
    Builder::new(
        DeviceSpec::pinned_clock(Platform::Nx),
        BuilderConfig::default().with_build_seed(0xba7c),
    )
    .build(&model.descriptor())
    .expect("zoo model builds")
}

fn opts(model: ModelId) -> TimingOptions {
    TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(model.info().host_glue_us)
        .with_run_jitter_sd(0.0)
}

/// The per-kernel reference: what `enqueue_batched_inference` did before
/// its timings were compiled.
fn reference_enqueue(
    engine: &Engine,
    timeline: &mut GpuTimeline,
    stream: StreamId,
    opts: &TimingOptions,
    batch: usize,
) -> f64 {
    let batch = batch.max(1) as u64;
    let io = engine.io_bytes();
    timeline.enqueue_h2d(stream, io.input_bytes * batch);
    for unit in engine.units() {
        if let Some(choice) = &unit.choice {
            timeline.enqueue_batched_kernel(stream, &choice.kernel, batch);
        }
    }
    timeline.enqueue_d2h(stream, (io.output_bytes * batch).max(4));
    timeline.host_span(stream, "host_glue", opts.host_glue_us)
}

/// Batch sizes 1..=8 up and back down, so every size is enqueued once cold
/// and once from the context's table.
fn batch_sequence() -> impl Iterator<Item = usize> {
    (1..=8).chain((1..=8).rev())
}

fn assert_identical(compiled: &GpuTimeline, reference: &GpuTimeline, what: &str) {
    assert_eq!(compiled.kernels(), reference.kernels(), "{what}: kernels");
    assert_eq!(compiled.memcpys(), reference.memcpys(), "{what}: memcpys");
    assert_eq!(
        compiled.host_spans(),
        reference.host_spans(),
        "{what}: host spans"
    );
    for (a, b) in compiled.kernels().iter().zip(reference.kernels()) {
        assert_eq!(a.start_us.to_bits(), b.start_us.to_bits(), "{what}");
        assert_eq!(a.duration_us.to_bits(), b.duration_us.to_bits(), "{what}");
        assert_eq!(a.sm_occupancy.to_bits(), b.sm_occupancy.to_bits(), "{what}");
    }
}

#[test]
fn compiled_enqueue_matches_per_kernel_reference_bit_for_bit() {
    for model in MODELS {
        let engine = engine(model);
        let opts = opts(model);
        for device in boards() {
            let ctx = ExecutionContext::new(&engine, device.clone());
            for overhead in [ProfilingOverhead::none(), ProfilingOverhead::nvprof()] {
                let mut compiled = GpuTimeline::with_overhead(device.clone(), overhead);
                let mut reference = GpuTimeline::with_overhead(device.clone(), overhead);
                let sc = compiled.create_stream();
                let sr = reference.create_stream();
                for batch in batch_sequence() {
                    let done = ctx.enqueue_batched_inference(&mut compiled, sc, &opts, batch);
                    let want = reference_enqueue(&engine, &mut reference, sr, &opts, batch);
                    assert_eq!(done.to_bits(), want.to_bits(), "{model} batch {batch}");
                }
                let what = format!("{model} on {} ({overhead:?})", device.name);
                assert_identical(&compiled, &reference, &what);
                assert_eq!(compiled.kernels().len(), 16 * engine.launch_count());
            }
        }
    }
}

#[test]
fn timeline_on_another_device_is_timed_against_that_device() {
    let engine = engine(ModelId::Googlenet);
    let opts = opts(ModelId::Googlenet);
    let ctx = ExecutionContext::new(&engine, DeviceSpec::pinned_clock(Platform::Nx));
    let other = DeviceSpec::max_clock(Platform::Agx);
    let mut compiled = GpuTimeline::new(other.clone());
    let mut reference = GpuTimeline::new(other);
    let sc = compiled.create_stream();
    let sr = reference.create_stream();
    for batch in batch_sequence() {
        ctx.enqueue_batched_inference(&mut compiled, sc, &opts, batch);
        reference_enqueue(&engine, &mut reference, sr, &opts, batch);
    }
    assert_identical(&compiled, &reference, "context on NX, timeline on AGX");
    // The foreign device left nothing behind in the context's own table.
    let own = DeviceSpec::pinned_clock(Platform::Nx);
    let mut compiled = GpuTimeline::new(own.clone());
    let mut reference = GpuTimeline::new(own);
    let sc = compiled.create_stream();
    let sr = reference.create_stream();
    for batch in batch_sequence() {
        ctx.enqueue_batched_inference(&mut compiled, sc, &opts, batch);
        reference_enqueue(&engine, &mut reference, sr, &opts, batch);
    }
    assert_identical(&compiled, &reference, "context and timeline on NX");
}

#[test]
fn two_contexts_interleave_streams_on_one_shared_timeline() {
    let device = DeviceSpec::max_clock(Platform::Nx);
    let googlenet = engine(ModelId::Googlenet);
    let resnet = engine(ModelId::Resnet18);
    let (opts_g, opts_r) = (opts(ModelId::Googlenet), opts(ModelId::Resnet18));
    let ctx_g = ExecutionContext::new(&googlenet, device.clone());
    let ctx_r = ExecutionContext::new(&resnet, device.clone());
    for overhead in [ProfilingOverhead::none(), ProfilingOverhead::nvprof()] {
        let mut compiled = GpuTimeline::with_overhead(device.clone(), overhead);
        let mut reference = GpuTimeline::with_overhead(device.clone(), overhead);
        let streams_c = [compiled.create_stream(), compiled.create_stream()];
        let streams_r = [reference.create_stream(), reference.create_stream()];
        for (i, batch) in batch_sequence().enumerate() {
            let other = 9 - batch;
            ctx_g.enqueue_batched_inference(&mut compiled, streams_c[i % 2], &opts_g, batch);
            ctx_r.enqueue_batched_inference(&mut compiled, streams_c[1 - i % 2], &opts_r, other);
            reference_enqueue(&googlenet, &mut reference, streams_r[i % 2], &opts_g, batch);
            reference_enqueue(
                &resnet,
                &mut reference,
                streams_r[1 - i % 2],
                &opts_r,
                other,
            );
        }
        assert_identical(&compiled, &reference, &format!("shared ({overhead:?})"));
        assert_eq!(
            compiled.next_seq(streams_c[0]),
            reference.next_seq(streams_r[0])
        );
    }
}

#[test]
fn records_share_their_kernels_names() {
    let engine = engine(ModelId::Googlenet);
    let device = DeviceSpec::pinned_clock(Platform::Nx);
    let ctx = ExecutionContext::new(&engine, device.clone());
    let mut tl = GpuTimeline::new(device);
    let s = tl.create_stream();
    let opts = opts(ModelId::Googlenet);
    for batch in [1, 4, 4] {
        ctx.enqueue_batched_inference(&mut tl, s, &opts, batch);
    }
    let kernels: Vec<_> = engine
        .units()
        .iter()
        .filter_map(|u| u.choice.as_ref().map(|c| &c.kernel))
        .collect();
    for (i, record) in tl.kernels().iter().enumerate() {
        let kernel = kernels[i % kernels.len()];
        assert!(
            std::sync::Arc::ptr_eq(&record.name, &kernel.name),
            "record {i} ({}) copied its name",
            record.name
        );
    }
}
