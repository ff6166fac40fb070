//! Core-side telemetry: the serving metric handles, the `publish_*`
//! helpers for build, timing-cache and plan statistics, and the periodic
//! tegrastats-style GPU sampler.
//!
//! Telemetry is scoped to its owner. An [`crate::InferenceServer`] or a
//! [`crate::Fleet`] creates its own [`Registry`]: its serving counters,
//! flight-recorder counters and GPU sampler publish there, and its
//! `/metrics` endpoint scrapes only that registry. The build, plan and
//! kernel layers publish nothing themselves; they hand counts back as plain
//! data ([`crate::engine::BuildReport`], [`crate::TimingCache::stats`],
//! [`PlanStats`]) and the owner of those objects publishes them with
//! [`publish_build`], [`publish_timing_cache`] and [`publish_plan`].
//!
//! Naming scheme (documented in DESIGN §10): every family is prefixed
//! `trtsim_`, subsystem second (`server`, `build`, `timing_cache`, `farm`,
//! `plan`, `gpu`), unit suffixes spelled out (`_us`, `_bytes`, `_mw`),
//! counters end `_total`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use trtsim_gpu::tegrastats;
use trtsim_gpu::timeline::GpuTimeline;
use trtsim_metrics::{log_buckets, CacheStats, Counter, Gauge, Histogram, Registry};

use crate::engine::BuildReport;
use crate::fastpath::{InferencePlan, PlanStats};

/// Serving-path metric handles, one bundle per [`crate::InferenceServer`],
/// registered in the server's (or its fleet's) registry and labelled
/// `model=<engine name>` plus — when the server is one member of a fleet —
/// `device=<fleet device name>` and optionally `tenant=<tenant>`.
/// The single-device default (no device label) keeps the legacy
/// `{model=...}` series stable, while two fleet devices serving the same
/// model publish two distinct series instead of silently merging into one.
/// Every update is a relaxed atomic op on an `Arc`-backed handle.
#[derive(Debug)]
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
    pub(crate) fn register(
        reg: &Registry,
        model: &str,
        device: Option<&str>,
        tenant: Option<&str>,
    ) -> Self {
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
                // 1 µs to ~33.5 s in x2 steps: quantiles exact to within a
                // factor of 2, at 27 fixed buckets of memory forever.
                &log_buckets(1.0, 2.0, 26),
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

/// Publishes one compiled plan and the [`PlanStats`] its executions
/// accumulated: the compile counter and arena footprint gauges
/// (`trtsim_plan_*{model}`) plus the execution, zero-copy-forward,
/// layout-convert and lane-path counters. Counts one compile per call, so
/// publish each plan once (e.g. `ctx.plan()` with `ctx.plan_stats()`).
pub fn publish_plan(registry: &Registry, plan: &InferencePlan<'_>, stats: &PlanStats) {
    let labels: &[(&str, &str)] = &[("model", plan.engine().name())];
    registry
        .counter(
            "trtsim_plan_compiles_total",
            "Inference plans compiled",
            labels,
        )
        .inc();
    let arena = plan.arena_stats();
    for (name, help, value) in [
        (
            "trtsim_plan_arena_peak_live_bytes",
            "Peak live activation bytes of the plan's tensor arena",
            arena.peak_live_bytes as f64,
        ),
        (
            "trtsim_plan_arena_total_activation_bytes",
            "Keep-everything activation bytes the arena avoided",
            arena.total_activation_bytes as f64,
        ),
        (
            "trtsim_plan_arena_slot_capacity_bytes",
            "Bytes provisioned for the plan's size-classed arena slots",
            arena.slot_capacity_bytes as f64,
        ),
        (
            "trtsim_plan_arena_utilization",
            "Peak live bytes over provisioned slot bytes (1.0 = no slack)",
            arena.utilization(),
        ),
    ] {
        registry.gauge(name, help, labels).set(value);
    }
    for (name, help, labels, value) in [
        (
            "trtsim_plan_executions_total",
            "Inferences served through a precompiled plan",
            labels,
            stats.executions,
        ),
        (
            "trtsim_plan_zero_copy_forwards_total",
            "Tensor moves forwarded without a copy by plan steps",
            labels,
            stats.zero_copy_forwards,
        ),
        (
            "trtsim_kernel_layout_converts_total",
            "Physical-layout (reformat) conversions executed",
            &[],
            stats.layout_converts,
        ),
        (
            "trtsim_kernel_vector_lanes_total",
            "Output values produced by SIMD lane-array kernels",
            &[],
            stats.lanes.vector,
        ),
        (
            "trtsim_kernel_scalar_fallback_total",
            "Output values produced by scalar walks (dense fallbacks, legacy kernels)",
            &[],
            stats.lanes.scalar,
        ),
    ] {
        registry.counter(name, help, labels).add(value);
    }
}

/// Publishes a timing cache's lookup counts as
/// `trtsim_timing_cache_lookups_total{result="hit"|"miss"}`. Additive:
/// publish each cache's [`crate::TimingCache::stats`] once.
pub fn publish_timing_cache(registry: &Registry, stats: &CacheStats) {
    for (result, count) in [("hit", stats.hits), ("miss", stats.misses)] {
        registry
            .counter(
                "trtsim_timing_cache_lookups_total",
                "Timing-cache lookups by outcome",
                &[("result", result)],
            )
            .add(count);
    }
}

/// Publishes one engine build of `model` that took `seconds` of wall time:
/// bumps `trtsim_build_total{model}`, observes `trtsim_build_seconds{model}`
/// and adds the report's autotune measurements to
/// `trtsim_autotune_measurements_total`. The builder does not time itself;
/// whoever runs the build (an engine farm, a bench binary) does.
pub fn publish_build(registry: &Registry, model: &str, report: &BuildReport, seconds: f64) {
    let labels: &[(&str, &str)] = &[("model", model)];
    registry
        .counter("trtsim_build_total", "Engine builds completed", labels)
        .inc();
    registry
        .histogram(
            "trtsim_build_seconds",
            "Wall-clock engine build time, seconds",
            labels,
            // 1 ms to ~65 s in x2 steps.
            &log_buckets(1e-3, 2.0, 17),
        )
        .observe(seconds);
    registry
        .counter(
            "trtsim_autotune_measurements_total",
            "Noisy tactic timing measurements taken by the autotuner",
            &[],
        )
        .add(report.autotune_measurements);
}

/// A periodic tegrastats-style sampler over a live serving timeline.
///
/// Every `period` of *wall* time it locks the shared [`GpuTimeline`], takes
/// the simulated window since its previous sample, and publishes into the
/// given registry:
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
    /// cadence, publishing into `registry`.
    pub fn spawn(
        timeline: Arc<Mutex<GpuTimeline>>,
        registry: Arc<Registry>,
        period: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("gpu-sampler".into())
            .spawn(move || {
                let mut last_us = 0.0f64;
                loop {
                    last_us = sample_once(&timeline, &registry, last_us);
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
fn sample_once(timeline: &Mutex<GpuTimeline>, reg: &Registry, last_us: f64) -> f64 {
    let tl = timeline.lock().expect("timeline lock");
    let now_us = tl.elapsed_us();
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
        let reg = Arc::new(Registry::new());
        let mut sampler = GpuSampler::spawn(
            Arc::clone(&timeline),
            Arc::clone(&reg),
            Duration::from_millis(5),
        );
        sampler.stop();
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
    fn publish_helpers_write_the_given_counts() {
        let reg = Registry::new();
        publish_timing_cache(&reg, &CacheStats { hits: 3, misses: 2 });
        let report = BuildReport {
            autotune_measurements: 40,
            ..BuildReport::default()
        };
        publish_build(&reg, "m", &report, 0.01);
        publish_build(&reg, "m", &report, 0.02);
        let help = "Timing-cache lookups by outcome";
        let lookups = |result| {
            reg.counter(
                "trtsim_timing_cache_lookups_total",
                help,
                &[("result", result)],
            )
            .get()
        };
        assert_eq!((lookups("hit"), lookups("miss")), (3, 2));
        assert_eq!(
            reg.counter("trtsim_build_total", "", &[("model", "m")])
                .get(),
            2
        );
        let seconds = reg.histogram("trtsim_build_seconds", "", &[("model", "m")], &[1.0]);
        assert_eq!(seconds.count(), 2);
        assert_eq!(
            reg.counter("trtsim_autotune_measurements_total", "", &[])
                .get(),
            80
        );
    }
}
