//! Core-side telemetry: metric handle bundles for the instrumented
//! subsystems and the periodic tegrastats-style GPU sampler.
//!
//! Everything here publishes into [`Registry::global`] so one scrape of the
//! [`trtsim_metrics::TelemetryServer`] endpoint sees the whole process:
//! serving counters, build-cache hit rates, fast-path activity, and the
//! live per-stream GPU utilization the paper reads off `tegrastats` during
//! its concurrency experiments.
//!
//! Naming scheme (documented in DESIGN §10): every family is prefixed
//! `trtsim_`, subsystem second (`server`, `build`, `timing_cache`, `farm`,
//! `plan`, `gpu`), unit suffixes spelled out (`_us`, `_bytes`, `_mw`),
//! counters end `_total`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use trtsim_gpu::tegrastats;
use trtsim_gpu::timeline::GpuTimeline;
use trtsim_metrics::{log_buckets, Counter, Gauge, Histogram, Registry};

/// Default latency-histogram bounds: 1 µs to ~33.5 s in ×2 steps. Quantile
/// estimates are therefore exact to within a factor of 2 — the resolution a
/// serving dashboard needs, at 27 fixed buckets of memory forever.
pub fn latency_buckets_us() -> Vec<f64> {
    log_buckets(1.0, 2.0, 26)
}

/// Serving-path metric handles, one bundle per [`crate::InferenceServer`],
/// labelled `model=<engine name>` plus — when the server is one member of a
/// fleet — `device=<fleet device name>` and optionally `tenant=<tenant>`.
/// The single-device default (no device label) keeps the legacy
/// `{model=...}` series stable, while two fleet devices serving the same
/// model publish two distinct series instead of silently merging into one.
/// Handles are `Arc`-backed: cloning the bundle for a worker thread is a
/// handful of refcount bumps, and every update afterwards is a relaxed
/// atomic op.
#[derive(Debug, Clone)]
pub(crate) struct ServingMetrics {
    pub(crate) accepted: Counter,
    pub(crate) rejected: Counter,
    pub(crate) completed: Counter,
    pub(crate) dropped: Counter,
    pub(crate) batches: Counter,
    pub(crate) queue_depth: Gauge,
    pub(crate) queue_high_water: Gauge,
    pub(crate) batch_size: Histogram,
    pub(crate) latency_us: Histogram,
    pub(crate) deadline_missed: Counter,
    pub(crate) deadline_rejected: Counter,
    pub(crate) predictor_observations: Gauge,
    pub(crate) predictor_mape_percent: Gauge,
    pub(crate) predictor_mape: Gauge,
    pub(crate) predictor_calibration_p50: Gauge,
    pub(crate) predictor_calibration_p99: Gauge,
}

impl ServingMetrics {
    pub(crate) fn register(model: &str, device: Option<&str>, tenant: Option<&str>) -> Self {
        let reg = Registry::global();
        let mut label_vec: Vec<(&str, &str)> = vec![("model", model)];
        if let Some(device) = device {
            label_vec.push(("device", device));
        }
        if let Some(tenant) = tenant {
            label_vec.push(("tenant", tenant));
        }
        let labels: &[(&str, &str)] = &label_vec;
        Self {
            accepted: reg.counter(
                "trtsim_server_accepted_total",
                "Frames admitted past the bounded submission queue",
                labels,
            ),
            rejected: reg.counter(
                "trtsim_server_rejected_total",
                "Frames refused by try_submit on a full queue",
                labels,
            ),
            completed: reg.counter(
                "trtsim_server_completed_total",
                "Frames fully served",
                labels,
            ),
            dropped: reg.counter(
                "trtsim_server_dropped_total",
                "Accepted frames discarded by abort",
                labels,
            ),
            batches: reg.counter(
                "trtsim_server_batches_total",
                "Batched enqueues issued by the dynamic batcher",
                labels,
            ),
            queue_depth: reg.gauge(
                "trtsim_server_queue_depth",
                "Frames currently waiting in the submission queue",
                labels,
            ),
            queue_high_water: reg.gauge(
                "trtsim_server_queue_high_water",
                "Most frames ever waiting in the submission queue",
                labels,
            ),
            batch_size: reg.histogram(
                "trtsim_server_batch_size",
                "Frames per batched enqueue",
                labels,
                &log_buckets(1.0, 2.0, 8),
            ),
            latency_us: reg.histogram(
                "trtsim_server_latency_us",
                "Per-request simulated latency, microseconds",
                labels,
                &latency_buckets_us(),
            ),
            deadline_missed: reg.counter(
                "trtsim_server_deadline_missed_total",
                "Completed frames whose end-to-end latency exceeded the deadline",
                labels,
            ),
            deadline_rejected: reg.counter(
                "trtsim_server_deadline_rejected_total",
                "Frames refused at admission because their deadline was predicted unmeetable",
                labels,
            ),
            predictor_observations: reg.gauge(
                "trtsim_server_predictor_observations",
                "Latency observations absorbed by the online predictor",
                labels,
            ),
            predictor_mape_percent: reg.gauge(
                "trtsim_server_predictor_mape_percent",
                "Prequential mean absolute percentage error of the online predictor",
                labels,
            ),
            // The `trtsim_predictor_*` family groups the model-quality view
            // (error + calibration multipliers) under one prefix, distinct
            // from the serving-path `trtsim_server_*` counters.
            predictor_mape: reg.gauge(
                "trtsim_predictor_mape_percent",
                "Prequential mean absolute percentage error of the online latency model",
                labels,
            ),
            predictor_calibration_p50: reg.gauge(
                "trtsim_predictor_calibration_p50",
                "Actual/predicted residual-ratio multiplier applied to p50 predictions",
                labels,
            ),
            predictor_calibration_p99: reg.gauge(
                "trtsim_predictor_calibration_p99",
                "Actual/predicted residual-ratio multiplier applied to p99 predictions",
                labels,
            ),
        }
    }
}

/// Fast-path metric handles, registered once per [`crate::InferencePlan`]
/// compilation.
#[derive(Debug, Clone)]
pub(crate) struct PlanMetrics {
    pub(crate) executions: Counter,
    pub(crate) zero_copy_forwards: Counter,
    /// Statically counted `move_input` steps per execution, so the hot loop
    /// adds one precomputed number instead of branching per step.
    pub(crate) moves_per_execution: u64,
}

impl PlanMetrics {
    pub(crate) fn register(model: &str, moves_per_execution: u64) -> Self {
        let reg = Registry::global();
        let labels: &[(&str, &str)] = &[("model", model)];
        Self {
            executions: reg.counter(
                "trtsim_plan_executions_total",
                "Inferences served through a precompiled plan",
                labels,
            ),
            zero_copy_forwards: reg.counter(
                "trtsim_plan_zero_copy_forwards_total",
                "Tensor moves forwarded without a copy by plan steps",
                labels,
            ),
            moves_per_execution,
        }
    }
}

/// Registers plan-compile activity: bumps the compile counter and publishes
/// the arena footprint gauges for `model`.
pub(crate) fn record_plan_compile(model: &str, stats: &trtsim_metrics::ArenaStats) {
    let reg = Registry::global();
    let labels: &[(&str, &str)] = &[("model", model)];
    reg.counter(
        "trtsim_plan_compiles_total",
        "Inference plans compiled",
        labels,
    )
    .inc();
    reg.gauge(
        "trtsim_plan_arena_peak_live_bytes",
        "Peak live activation bytes of the plan's tensor arena",
        labels,
    )
    .set(stats.peak_live_bytes as f64);
    reg.gauge(
        "trtsim_plan_arena_total_activation_bytes",
        "Keep-everything activation bytes the arena avoided",
        labels,
    )
    .set(stats.total_activation_bytes as f64);
    reg.gauge(
        "trtsim_plan_arena_slot_capacity_bytes",
        "Bytes provisioned for the plan's size-classed arena slots",
        labels,
    )
    .set(stats.slot_capacity_bytes as f64);
    reg.gauge(
        "trtsim_plan_arena_utilization",
        "Peak live bytes over provisioned slot bytes (1.0 = no slack)",
        labels,
    )
    .set(stats.utilization());
}

/// Folds the `[last, now)` delta of a raw monotone count into a registry
/// counter. Exactly-once under concurrency: a CAS loop claims the delta for
/// a single caller. This is the bridge pattern for subsystems (`trtsim-ir`,
/// `trtsim-kernels`) that keep raw atomics instead of depending on metrics.
fn drain_monotone(last: &AtomicU64, now: u64, counter: &Counter) {
    let mut seen = last.load(Ordering::Relaxed);
    while now > seen {
        match last.compare_exchange_weak(seen, now, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                counter.add(now - seen);
                return;
            }
            Err(raced) => seen = raced,
        }
    }
}

/// Lane-kernel activity counters, bridged from the raw atomics in
/// `trtsim-ir` (layout conversions) and `trtsim-kernels` (values produced
/// by SIMD lanes vs scalar walks).
fn lane_counters() -> &'static (Counter, Counter, Counter) {
    static C: OnceLock<(Counter, Counter, Counter)> = OnceLock::new();
    C.get_or_init(|| {
        let reg = Registry::global();
        (
            reg.counter(
                "trtsim_kernel_layout_converts_total",
                "Physical-layout (reformat) conversions executed",
                &[],
            ),
            reg.counter(
                "trtsim_kernel_vector_lanes_total",
                "Output values produced by SIMD lane-array kernels",
                &[],
            ),
            reg.counter(
                "trtsim_kernel_scalar_fallback_total",
                "Output values produced by scalar walks (dense fallbacks, legacy kernels)",
                &[],
            ),
        )
    })
}

/// Folds any new layout-convert / vector-lane / scalar-fallback events into
/// their registry counters.
pub(crate) fn sync_lane_counters() {
    static LAYOUT_LAST: AtomicU64 = AtomicU64::new(0);
    static VECTOR_LAST: AtomicU64 = AtomicU64::new(0);
    static SCALAR_LAST: AtomicU64 = AtomicU64::new(0);
    let (converts, vector, scalar) = lane_counters();
    drain_monotone(
        &LAYOUT_LAST,
        trtsim_ir::layout::layout_convert_events(),
        converts,
    );
    drain_monotone(
        &VECTOR_LAST,
        trtsim_kernels::lanes::vector_lane_events(),
        vector,
    );
    drain_monotone(
        &SCALAR_LAST,
        trtsim_kernels::lanes::scalar_fallback_events(),
        scalar,
    );
}

/// Flight-recorder activity counters, bridged from the raw atomics in
/// [`crate::reqtrace`] (recording never touches the registry lock).
fn trace_counters() -> &'static (Counter, Counter, Counter, Counter) {
    static C: OnceLock<(Counter, Counter, Counter, Counter)> = OnceLock::new();
    C.get_or_init(|| {
        let reg = Registry::global();
        (
            reg.counter(
                "trtsim_trace_recorded_total",
                "Request traces offered to a flight recorder",
                &[],
            ),
            reg.counter(
                "trtsim_trace_retained_total",
                "Request traces retained in a flight-recorder ring (pinned or sampled)",
                &[],
            ),
            reg.counter(
                "trtsim_trace_sampled_total",
                "Non-tail request traces retained by 1-in-N sampling",
                &[],
            ),
            reg.counter(
                "trtsim_trace_evicted_total",
                "Request traces evicted from a flight-recorder ring",
                &[],
            ),
        )
    })
}

/// Folds any new flight-recorder events into their registry counters.
pub(crate) fn sync_trace_counters() {
    static RECORDED_LAST: AtomicU64 = AtomicU64::new(0);
    static RETAINED_LAST: AtomicU64 = AtomicU64::new(0);
    static SAMPLED_LAST: AtomicU64 = AtomicU64::new(0);
    static EVICTED_LAST: AtomicU64 = AtomicU64::new(0);
    let (recorded, retained, sampled, evicted) = trace_counters();
    drain_monotone(&RECORDED_LAST, crate::reqtrace::recorded_events(), recorded);
    drain_monotone(&RETAINED_LAST, crate::reqtrace::retained_events(), retained);
    drain_monotone(&SAMPLED_LAST, crate::reqtrace::sampled_events(), sampled);
    drain_monotone(&EVICTED_LAST, crate::reqtrace::evicted_events(), evicted);
}

/// The autotuner's per-tactic measurement counter, cached so the parallel
/// autotune fan-out never touches the registry lock.
pub(crate) fn autotune_measurements_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        Registry::global().counter(
            "trtsim_autotune_measurements_total",
            "Noisy tactic timing measurements taken by the autotuner",
            &[],
        )
    })
}

/// Timing-cache hit/miss counters, labelled `result="hit"|"miss"`. Cached:
/// `TimingCache::time_us` sits under the autotune fan-out.
pub(crate) fn timing_cache_counters() -> &'static (Counter, Counter) {
    static C: OnceLock<(Counter, Counter)> = OnceLock::new();
    C.get_or_init(|| {
        let reg = Registry::global();
        let help = "Timing-cache lookups by outcome";
        (
            reg.counter(
                "trtsim_timing_cache_lookups_total",
                help,
                &[("result", "hit")],
            ),
            reg.counter(
                "trtsim_timing_cache_lookups_total",
                help,
                &[("result", "miss")],
            ),
        )
    })
}

/// Records one engine build: bumps the per-model build counter and observes
/// the wall-clock build time.
pub(crate) fn record_build(model: &str, seconds: f64) {
    let reg = Registry::global();
    let labels: &[(&str, &str)] = &[("model", model)];
    reg.counter("trtsim_build_total", "Engine builds completed", labels)
        .inc();
    reg.histogram(
        "trtsim_build_seconds",
        "Wall-clock engine build time, seconds",
        labels,
        // 1 ms to ~65 s in x2 steps.
        &log_buckets(1e-3, 2.0, 17),
    )
    .observe(seconds);
}

/// A periodic tegrastats-style sampler over a live serving timeline.
///
/// Every `period` of *wall* time it locks the shared [`GpuTimeline`], takes
/// the simulated window since its previous sample, and publishes:
///
/// * `trtsim_gpu_gr3d_percent` — occupancy-weighted device utilization
/// * `trtsim_gpu_stream_busy_percent{stream=...}` — per-stream busy fraction
/// * `trtsim_gpu_memcpy_bytes_per_second{direction=...}` — PCIe traffic per
///   simulated second
/// * `trtsim_gpu_power_mw` — the CV²f power estimate from
///   [`tegrastats::gpu_power_mw`]
/// * `trtsim_gpu_elapsed_simulated_us` — the simulated clock itself
///
/// Rates are per **simulated** second: the timeline advances in bursts
/// relative to wall time, so wall-clock rates would be an artifact of the
/// simulator's own speed. Windows in which no simulated time passed leave
/// the gauges at their previous values.
///
/// One sample is taken immediately at spawn and a final one at [`stop`],
/// so short runs and tests always see fresh gauges.
///
/// [`stop`]: GpuSampler::stop
#[derive(Debug)]
pub struct GpuSampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl GpuSampler {
    /// Spawns the sampler thread over `timeline` at the given wall-clock
    /// cadence.
    pub fn spawn(timeline: Arc<Mutex<GpuTimeline>>, period: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("gpu-sampler".into())
            .spawn(move || {
                let mut last_us = 0.0f64;
                loop {
                    last_us = sample_once(&timeline, last_us);
                    if stop_flag.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::park_timeout(period);
                }
            })
            .expect("spawn gpu sampler");
        Self {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the sampler after one final sample. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for GpuSampler {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Takes one sample over `[last_us, now)`; returns the new cursor.
fn sample_once(timeline: &Mutex<GpuTimeline>, last_us: f64) -> f64 {
    let tl = timeline.lock().expect("timeline lock");
    let now_us = tl.elapsed_us();
    let reg = Registry::global();
    reg.gauge(
        "trtsim_gpu_elapsed_simulated_us",
        "Simulated timeline clock, microseconds",
        &[],
    )
    .set(now_us);
    if now_us <= last_us {
        return last_us;
    }
    let window_s = (now_us - last_us) / 1e6;
    let utilization = tl.utilization_between(last_us, now_us);
    reg.gauge(
        "trtsim_gpu_gr3d_percent",
        "GR3D utilization over the last sampling window, percent",
        &[],
    )
    .set(utilization * 100.0);
    reg.gauge(
        "trtsim_gpu_power_mw",
        "Estimated GPU-rail power draw, milliwatts",
        &[],
    )
    .set(tegrastats::gpu_power_mw(tl.device(), utilization));
    for stream in 0..tl.stream_count() {
        let busy = tegrastats::stream_busy_between(&tl, stream, last_us, now_us);
        reg.gauge(
            "trtsim_gpu_stream_busy_percent",
            "Per-stream device-busy fraction over the last window, percent",
            &[("stream", &stream.to_string())],
        )
        .set(busy * 100.0);
    }
    let (h2d, d2h) = tegrastats::memcpy_bytes_between(&tl, last_us, now_us);
    let help = "Memcpy traffic over the last window, bytes per simulated second";
    reg.gauge(
        "trtsim_gpu_memcpy_bytes_per_second",
        help,
        &[("direction", "h2d")],
    )
    .set(h2d / window_s);
    reg.gauge(
        "trtsim_gpu_memcpy_bytes_per_second",
        help,
        &[("direction", "d2h")],
    )
    .set(d2h / window_s);
    now_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_gpu::device::DeviceSpec;
    use trtsim_gpu::kernel::{KernelDesc, Precision};

    #[test]
    fn sampler_publishes_stream_and_memcpy_gauges() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        tl.enqueue_h2d(s, 1 << 20);
        tl.enqueue_kernel(
            s,
            &KernelDesc::new("k")
                .grid(48, 128)
                .flops(200_000_000)
                .precision(Precision::Fp16, true),
        );
        let timeline = Arc::new(Mutex::new(tl));
        let mut sampler = GpuSampler::spawn(Arc::clone(&timeline), Duration::from_millis(5));
        sampler.stop();
        let reg = Registry::global();
        let busy = reg.gauge(
            "trtsim_gpu_stream_busy_percent",
            "Per-stream device-busy fraction over the last window, percent",
            &[("stream", "0")],
        );
        assert!(busy.get() > 0.0, "stream 0 saw work: {}", busy.get());
        let h2d = reg.gauge(
            "trtsim_gpu_memcpy_bytes_per_second",
            "Memcpy traffic over the last window, bytes per simulated second",
            &[("direction", "h2d")],
        );
        assert!(h2d.get() > 0.0);
    }

    #[test]
    fn trace_counter_sync_tracks_raw_sources() {
        sync_trace_counters();
        let (recorded, retained, sampled, evicted) = trace_counters();
        let before = (recorded.get(), retained.get(), sampled.get(), evicted.get());
        sync_trace_counters();
        // Monotone, and never ahead of the raw atomics they mirror.
        assert!(recorded.get() >= before.0);
        assert!(retained.get() >= before.1);
        assert!(recorded.get() <= crate::reqtrace::recorded_events());
        assert!(retained.get() <= crate::reqtrace::retained_events());
        assert!(sampled.get() <= crate::reqtrace::sampled_events());
        assert!(evicted.get() <= crate::reqtrace::evicted_events());
    }

    #[test]
    fn lane_counter_sync_tracks_raw_sources() {
        sync_lane_counters();
        let (converts, vector, scalar) = lane_counters();
        let before = (converts.get(), vector.get(), scalar.get());
        sync_lane_counters();
        // Monotone, and never ahead of the raw atomics they mirror (other
        // tests may bump the raw counts concurrently, so no exact equality).
        assert!(converts.get() >= before.0);
        assert!(vector.get() >= before.1);
        assert!(scalar.get() >= before.2);
        assert!(converts.get() <= trtsim_ir::layout::layout_convert_events());
        assert!(vector.get() <= trtsim_kernels::lanes::vector_lane_events());
        assert!(scalar.get() <= trtsim_kernels::lanes::scalar_fallback_events());
    }
}
