//! Production-style inference serving over the simulated GPU.
//!
//! The paper's deployment pattern (§IV-B, §VI-A) is N camera feeds fanned
//! onto one Jetson: one engine, one CUDA context, one stream per worker.
//! This module runs that architecture as a discrete-event simulation: one
//! event loop per server, a plain value stepped on the simulated clock, so
//! every serving number is a pure function of the inputs and seeds.
//!
//! ```text
//!   submit(_at) at t: advance        bounded queue          worker streams
//!  ─────────────────────────────▶ (accepted, not yet ──────────────────────▶ GpuTimeline
//!   Err(QueueFull) ◀── depth ==     dispatched)        dispatch ≤ B frames    (stream s)
//!   capacity                            │              to the lowest free        │
//!                                       ▼              stream once the fill      ▼
//!                               depth / high-water     target is met or the   completion
//!                                                      timeout expires        event at done
//!                                                                                │
//!                                                                                ▼
//!                                          ServerStats: p50/p90/p99, batch histogram,
//!                                          rejects, GR3D, FPS; traces; model training
//! ```
//!
//! * **Events** — arrivals (each submit), dispatches and completions. A
//!   submit stamped `t` first advances the server to `t`: every event at
//!   or before `t` is processed in time order, ties by stream index. A
//!   frame stamped before the clock joins the queue at the clock, but its
//!   latency counts from its own stamp.
//! * **Backpressure** — queue depth is the number of frames accepted and
//!   not yet dispatched. [`InferenceServer::try_submit`] refuses with
//!   [`ServingError::QueueFull`] when it equals
//!   [`ServerConfig::queue_capacity`] (shed load at admission, the knee in
//!   the serving curve); [`InferenceServer::submit`] instead runs the clock
//!   forward until a dispatch frees a slot.
//! * **Dynamic batching** — dispatch is work-conserving: whenever a stream
//!   is free and frames are queued, up to [`ServerConfig::max_batch_size`]
//!   of them close into one batched enqueue
//!   ([`crate::runtime::ExecutionContext::enqueue_batched_inference`]),
//!   paying launch overhead and host glue once per batch instead of once per
//!   frame. A batch short of its fill target waits at most
//!   [`ServerConfig::batch_timeout_us`] simulated µs from its oldest frame
//!   (`0` = never wait, `f64::INFINITY` = only full batches, flushed at
//!   drain).
//! * **Graceful shutdown** — [`InferenceServer::drain`] runs the loop until
//!   no event remains, completing every accepted frame;
//!   [`InferenceServer::abort`] drops what is still queued at the clock.
//! * **Observability** — [`ServerStats`] carries per-request simulated
//!   latency percentiles (via [`trtsim_metrics::LatencyPercentiles`]), the
//!   batch-size histogram, the exact queue-depth high-water mark, and the
//!   rejected count. Each [`RequestRecord`] carries a span-id range joining
//!   it to the exact timeline records that served it; with
//!   [`ServerConfig::profile`] on, the stats also gain a per-kernel time
//!   breakdown plus the full captured timeline — ready for
//!   `trtsim_profiler`'s chrome-trace export and anomaly detectors.
//! * **Telemetry** — each server owns a [`Registry`] (a fleet replica uses
//!   its fleet's) holding its `trtsim_server_*` and `trtsim_trace_*`
//!   series; [`InferenceServer::registry`] hands it out and the optional
//!   `/metrics` endpoint scrapes it. A server with a bound endpoint also
//!   publishes tegrastats' `trtsim_gpu_*` readings
//!   ([`trtsim_gpu::tegrastats::Sampler`]) over the simulated window since
//!   its previous reading, at the end of every
//!   [`InferenceServer::run_until`] and at drain.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use trtsim_gpu::device::DeviceSpec;
use trtsim_gpu::tegrastats::{self, Sampler};
use trtsim_gpu::timeline::{GpuTimeline, SpanSeq, StreamId, TimedKernel};
use trtsim_metrics::{LatencyPercentiles, Registry, TelemetryServer};
use trtsim_util::Pcg32;

use crate::engine::Engine;
use crate::predict::{EngineFeatures, LatencyModel, QueueSignals};
use crate::reqtrace::{
    FlightRecorder, TraceCtx, TraceIdGen, TraceOptions, TraceOutcome, TraceSink,
};
use crate::runtime::{batch_timing, enqueue_timed_batch, TimingOptions};
use crate::telemetry::{publish_gpu, ServingMetrics};

/// Errors from configuring or feeding an [`InferenceServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServingError {
    /// The [`ServerConfig`] is unusable; the message names the bad knob.
    InvalidConfig(String),
    /// The bounded submission queue is full — shed load or retry later.
    QueueFull,
    /// Deadline-based admission refused the frame: the online latency model
    /// predicts that even a best-case (batch-1) service would land past the
    /// configured deadline, so accepting it would only waste capacity.
    /// Counted in [`ServerStats::deadline_rejected`].
    DeadlineUnmeetable,
    /// A submitted arrival timestamp is NaN, infinite or negative; the
    /// frame was not accepted and is not counted.
    InvalidArrival(String),
    /// The telemetry scrape endpoint could not be started (bind failure).
    Telemetry(String),
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::InvalidConfig(detail) => write!(f, "invalid server config: {detail}"),
            ServingError::QueueFull => write!(f, "submission queue is full"),
            ServingError::DeadlineUnmeetable => {
                write!(f, "deadline is predicted unmeetable at current load")
            }
            ServingError::InvalidArrival(detail) => write!(f, "invalid arrival: {detail}"),
            ServingError::Telemetry(detail) => {
                write!(f, "telemetry endpoint failed to start: {detail}")
            }
        }
    }
}

impl std::error::Error for ServingError {}

/// Total busy time attributed to one kernel symbol over a serving run — the
/// [`ServerStats::kernel_breakdown`] row type.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTime {
    /// Kernel symbol.
    pub name: String,
    /// Number of launches across all streams.
    pub calls: u64,
    /// Total busy time, µs.
    pub total_us: f64,
}

/// How simulated arrival timestamps are assigned to accepted frames.
///
/// The arrival clock is what [`ServerStats`] latencies are measured
/// against: a frame's reported latency is its completion time minus its
/// arrival time, so an open-loop source charges queueing delay to bursts
/// the way a real camera feed would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalProcess {
    /// Deterministic fixed-rate source: frame `n` arrives at exactly
    /// `n * arrival_period_us`. This is the legacy behaviour and keeps
    /// closed-loop runs bit-identical across versions.
    #[default]
    Periodic,
    /// Open-loop Poisson source: inter-arrival gaps are exponential with
    /// mean [`ServerConfig::arrival_period_us`], drawn from a PCG stream
    /// seeded here so a given seed replays bit-identically.
    Poisson {
        /// Seed of the inter-arrival gap stream.
        seed: u64,
    },
}

/// Configuration for [`InferenceServer`], built fluently like
/// [`crate::config::BuilderConfig`]: start from [`ServerConfig::default`],
/// chain `with_*` setters, and let [`InferenceServer::start`] validate the
/// result. New knobs get defaults, so code built this way keeps compiling as
/// fields are added (the `Default` + builder convention documented in
/// DESIGN §6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// Worker count; each worker owns one stream on the shared timeline and
    /// serves one batch at a time (the paper's thread-per-camera pattern).
    pub workers: usize,
    /// Capacity of the bounded submission queue. Admission beyond this
    /// rejects ([`ServingError::QueueFull`]) or blocks.
    pub queue_capacity: usize,
    /// Largest number of frames the dynamic batcher coalesces into one
    /// batched enqueue. `1` disables batching.
    pub max_batch_size: usize,
    /// How long (simulated µs) a partial batch waits for stragglers, counted
    /// from its oldest queued frame, before dispatching. `0` never waits;
    /// `f64::INFINITY` dispatches full batches only and flushes the rest at
    /// drain. The wait is charged to the dispatching stream as `batch_wait`.
    pub batch_timeout_us: f64,
    /// Simulated inter-arrival gap between accepted frames, µs. Models an
    /// open-loop source (a camera at a fixed rate); `0` means all frames
    /// arrive at t = 0, so reported latency includes time spent queued.
    pub arrival_period_us: f64,
    /// How arrival timestamps are generated from the period: a fixed-rate
    /// clock (default) or a seeded Poisson process for open-loop traffic.
    pub arrival_process: ArrivalProcess,
    /// Per-request latency deadline, simulated µs, measured from arrival to
    /// completion. `0` disables deadline accounting. When set, late
    /// completions are counted in [`ServerStats::deadline_missed`]; with
    /// [`ServerConfig::predictive`] also on, admission and the batcher
    /// consult the online latency model ([`crate::predict::LatencyModel`])
    /// to refuse doomed frames and cap batch sizes under the SLO.
    pub deadline_us: f64,
    /// Enables predictive scheduling: the server trains an online latency
    /// model from its own completions and uses it for deadline-based
    /// admission and SLO-aware batch sizing (no-ops until the model has
    /// [`ServerConfig::predictor_min_obs`] observations).
    pub predictive: bool,
    /// Cold-start gate of the online latency model: predictions (and the
    /// decisions they drive) only activate after this many observations.
    pub predictor_min_obs: u64,
    /// Timing harness options applied to every enqueue.
    pub timing: TimingOptions,
    /// Keep the run's full [`GpuTimeline`] ([`ServerStats::timeline`]) and
    /// its per-kernel busy time ([`ServerStats::kernel_breakdown`]) at
    /// snapshot/drain, for chrome-trace export and anomaly detection
    /// (`trtsim-profiler`). Span attribution on every [`RequestRecord`] is
    /// always on; this gates the parts with real memory or time cost.
    pub profile: bool,
    /// When set, the server binds a [`trtsim_metrics::TelemetryServer`] on
    /// this address (`GET /metrics` Prometheus text, `GET /metrics.json`
    /// snapshot) and publishes tegrastats-style `trtsim_gpu_*` readings at
    /// the end of every [`InferenceServer::run_until`] and at drain. Port 0
    /// picks a free port; see [`InferenceServer::telemetry_addr`] for the
    /// bound address.
    pub telemetry_addr: Option<std::net::SocketAddr>,
    /// Request-trace flight-recorder knobs ([`crate::reqtrace`]): ring
    /// capacity, tail-retention sampling rate, and the master switch. The
    /// recorder is always wired (admission mints a trace id per frame either
    /// way); disabling it only stops retention.
    pub trace: TraceOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            max_batch_size: 1,
            batch_timeout_us: 0.0,
            arrival_period_us: 0.0,
            arrival_process: ArrivalProcess::Periodic,
            deadline_us: 0.0,
            predictive: false,
            predictor_min_obs: 64,
            timing: TimingOptions::default(),
            profile: false,
            telemetry_addr: None,
            trace: TraceOptions::default(),
        }
    }
}

impl ServerConfig {
    /// Sets the worker (= stream) count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded submission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the dynamic batcher's maximum batch size.
    pub fn with_max_batch_size(mut self, batch: usize) -> Self {
        self.max_batch_size = batch;
        self
    }

    /// Sets the straggler wait for partial batches, simulated µs.
    pub fn with_batch_timeout_us(mut self, us: f64) -> Self {
        self.batch_timeout_us = us;
        self
    }

    /// Sets the simulated inter-arrival gap between accepted frames, µs.
    pub fn with_arrival_period_us(mut self, us: f64) -> Self {
        self.arrival_period_us = us;
        self
    }

    /// Sets the arrival-timestamp generator.
    pub fn with_arrival_process(mut self, process: ArrivalProcess) -> Self {
        self.arrival_process = process;
        self
    }

    /// Switches the arrival clock to a seeded Poisson process with mean
    /// inter-arrival gap [`ServerConfig::arrival_period_us`] (shorthand for
    /// [`ServerConfig::with_arrival_process`]).
    pub fn with_poisson_arrivals(mut self, seed: u64) -> Self {
        self.arrival_process = ArrivalProcess::Poisson { seed };
        self
    }

    /// Sets the per-request latency deadline, simulated µs (`0` disables).
    pub fn with_deadline_us(mut self, us: f64) -> Self {
        self.deadline_us = us;
        self
    }

    /// Enables or disables predictive (learned-model) scheduling.
    pub fn with_predictive(mut self, on: bool) -> Self {
        self.predictive = on;
        self
    }

    /// Sets the predictor's cold-start observation threshold.
    pub fn with_predictor_min_obs(mut self, min_obs: u64) -> Self {
        self.predictor_min_obs = min_obs;
        self
    }

    /// Sets the timing harness options.
    pub fn with_timing(mut self, timing: TimingOptions) -> Self {
        self.timing = timing;
        self
    }

    /// Enables timeline capture and the per-kernel breakdown (see
    /// [`ServerConfig::profile`]).
    pub fn with_profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Enables the live telemetry endpoint and its GPU readings on `addr`
    /// (e.g. `"127.0.0.1:9090".parse().unwrap()`; port 0 picks a free port).
    pub fn with_telemetry(mut self, addr: std::net::SocketAddr) -> Self {
        self.telemetry_addr = Some(addr);
        self
    }

    /// Sets the request-trace flight-recorder options.
    pub fn with_trace(mut self, trace: TraceOptions) -> Self {
        self.trace = trace;
        self
    }

    /// Checks every knob, naming the first invalid one.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::InvalidConfig`] if any field is out of range.
    pub fn validate(&self) -> Result<(), ServingError> {
        if self.workers == 0 {
            return Err(ServingError::InvalidConfig(
                "need at least one worker".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServingError::InvalidConfig(
                "queue capacity must be at least 1".into(),
            ));
        }
        if self.max_batch_size == 0 {
            return Err(ServingError::InvalidConfig(
                "max batch size must be at least 1".into(),
            ));
        }
        if self.batch_timeout_us.is_nan() || self.batch_timeout_us < 0.0 {
            return Err(ServingError::InvalidConfig(
                "batch timeout must be non-negative (or infinite)".into(),
            ));
        }
        if !self.arrival_period_us.is_finite() || self.arrival_period_us < 0.0 {
            return Err(ServingError::InvalidConfig(
                "arrival period must be finite and non-negative".into(),
            ));
        }
        if matches!(self.arrival_process, ArrivalProcess::Poisson { .. })
            && self.arrival_period_us == 0.0
        {
            return Err(ServingError::InvalidConfig(
                "poisson arrivals need a positive mean period".into(),
            ));
        }
        if self.deadline_us.is_nan() || self.deadline_us < 0.0 {
            return Err(ServingError::InvalidConfig(
                "deadline must be non-negative".into(),
            ));
        }
        if self.predictor_min_obs == 0 {
            return Err(ServingError::InvalidConfig(
                "predictor needs at least one observation before it is warm".into(),
            ));
        }
        if self.trace.capacity == 0 {
            return Err(ServingError::InvalidConfig(
                "trace ring capacity must be at least 1".into(),
            ));
        }
        if self.trace.sample_every == 0 {
            return Err(ServingError::InvalidConfig(
                "trace sample rate must be at least 1 (1 keeps everything)".into(),
            ));
        }
        Ok(())
    }
}

/// One completed request, for order/latency audits and trace attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Caller-supplied frame id.
    pub frame: u64,
    /// Worker (= stream index) that served it.
    pub worker: usize,
    /// Sequence number of the batched enqueue that carried it (dispatch
    /// order).
    pub batch: u64,
    /// First span sequence number (inclusive) of the batch's records on the
    /// worker's stream — host waits, H2D, kernels, D2H, glue. With
    /// [`RequestRecord::span_hi`] this is the half-open range that joins a
    /// slow request to the exact timeline records (and chrome-trace spans)
    /// that served it. Per-stream numbering keeps the range independent of
    /// what other streams ran.
    pub span_lo: SpanSeq,
    /// One past the last span sequence number of the batch's records.
    pub span_hi: SpanSeq,
    /// Simulated arrival time, µs.
    pub arrival_us: f64,
    /// Simulated completion time, µs.
    pub done_us: f64,
}

/// Snapshot of a server's counters and simulated-time metrics; obtained live
/// via [`InferenceServer::stats`] or finally from [`InferenceServer::drain`]
/// / [`InferenceServer::abort`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Worker count.
    pub workers: usize,
    /// Frames admitted past the bounded queue.
    pub accepted: u64,
    /// Frames fully served.
    pub completed: u64,
    /// Accepted frames discarded by [`InferenceServer::abort`].
    pub dropped: u64,
    /// Frames refused by [`InferenceServer::try_submit`] on a full queue.
    pub rejected: u64,
    /// Completed frames whose end-to-end latency exceeded
    /// [`ServerConfig::deadline_us`] (0 when no deadline is set).
    pub deadline_missed: u64,
    /// Frames refused at admission because the online model predicted their
    /// deadline unmeetable ([`ServingError::DeadlineUnmeetable`]).
    pub deadline_rejected: u64,
    /// Batched enqueues issued.
    pub batches: u64,
    /// Batch-size histogram: `batch_size_counts[s - 1]` batches held `s`
    /// frames.
    pub batch_size_counts: Vec<u64>,
    /// Most frames ever waiting in the submission queue (exact: depth is
    /// counted on the simulated clock).
    pub queue_high_water: usize,
    /// Per-request simulated latency percentiles.
    pub latency: LatencyPercentiles,
    /// Simulated wall time consumed, seconds.
    pub simulated_seconds: f64,
    /// Completed frames per simulated second.
    pub aggregate_fps: f64,
    /// Mean GR3D utilization over the run, percent.
    pub gr3d_percent: f64,
    /// Frames each worker served.
    pub frames_per_worker: Vec<u64>,
    /// Per-request completion log, in completion order per worker.
    pub completions: Vec<RequestRecord>,
    /// Per-kernel busy-time totals, heaviest first. Populated when
    /// [`ServerConfig::profile`] is set; empty otherwise.
    pub kernel_breakdown: Vec<KernelTime>,
    /// The run's full simulated timeline. Populated when
    /// [`ServerConfig::profile`] is set; feed it to
    /// `trtsim_profiler::chrome_trace` / `trtsim_profiler::anomaly`.
    pub timeline: Option<GpuTimeline>,
}

impl ServerStats {
    /// Mean frames per batched enqueue (0 when no batch ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}

/// An accepted frame waiting in the queue, then riding its batch.
#[derive(Debug, Clone, Copy)]
struct Request {
    frame: u64,
    arrival_us: f64,
    /// When the frame joined the queue: its arrival, or the clock when it
    /// was stamped in the past. Batch timeouts count from here.
    queued_us: f64,
    /// Queue state sampled at admission, carried through so the predictor's
    /// training examples see exactly the signals a prediction would have.
    signals: QueueSignals,
    /// Request-scoped trace context, minted at admission and carried to the
    /// completion event that records the span tree.
    trace: TraceCtx,
}

/// The predictive-scheduling bundle of admission, dispatch and completion:
/// one online model plus the static features of this server's (engine,
/// device) pair.
#[derive(Debug)]
struct Predictor {
    model: Arc<LatencyModel>,
    features: EngineFeatures,
}

impl Predictor {
    /// Largest batch size in `1..=max_batch` whose predicted p99 stays under
    /// `deadline_us`. Falls back to the static `max_batch` cap while the
    /// model is cold, and when even a lone frame is predicted to blow the
    /// deadline (the SLO is forfeit either way — drain at full speed and
    /// let admission shed the overload); the batcher adds a third fallback
    /// when the queue already holds a full batch. The cap therefore binds
    /// exactly in the light-load regime, where it stops the batcher from
    /// holding a frame through the `batch_timeout_us` window that its
    /// deadline cannot afford. Predictions are monotone in batch size, so
    /// the first overshoot ends the scan.
    fn slo_batch_cap(&self, max_batch: usize, deadline_us: f64, signals: &QueueSignals) -> usize {
        match self.model.predict(&self.features, 1, signals) {
            None => return max_batch,
            Some(p) if p.p99_us > deadline_us => return max_batch,
            Some(_) => {}
        }
        let mut cap = 1;
        for batch in 2..=max_batch {
            match self.model.predict(&self.features, batch, signals) {
                Some(p) if p.p99_us <= deadline_us => cap = batch,
                _ => break,
            }
        }
        cap
    }
}

/// A batch in service on one worker stream, from dispatch to completion.
#[derive(Debug)]
struct Batch {
    /// Dispatch sequence number (global, not per-worker).
    seq: u64,
    requests: Vec<Request>,
    /// Where the batch began waiting for stragglers on a free stream; equal
    /// to `exec_start_us` when it dispatched as soon as the stream freed.
    wait_start_us: f64,
    /// Dispatch time: batched execution begins here on the stream.
    exec_start_us: f64,
    done_us: f64,
    span_lo: SpanSeq,
    span_hi: SpanSeq,
}

/// What a fleet hands each replica it starts: the fleet-wide latency model
/// (when predictive), the flight recorder, the fleet's registry, and the
/// replica's `device=` and `tenant=` labels, so two devices serving the
/// same model publish distinct series. The device's timeline is not among
/// them: the fleet owns it and lends it to each call that steps the
/// replica. A standalone server makes its own of each and has no labels
/// beyond `model=`.
#[derive(Debug)]
pub(crate) struct FleetShared {
    pub(crate) device: Option<String>,
    pub(crate) tenant: Option<String>,
    pub(crate) model: Option<Arc<LatencyModel>>,
    pub(crate) recorder: Arc<FlightRecorder>,
    pub(crate) registry: Arc<Registry>,
}

/// A running inference server: one event loop over worker streams on a
/// simulated timeline, fed through a bounded queue and a dynamic batcher.
/// A plain value: every call that moves the clock takes `&mut self`. See
/// the [module docs](self) for the event model.
///
/// # Examples
///
/// ```no_run
/// use trtsim_core::serving::{InferenceServer, ServerConfig};
/// # fn demo(engine: &trtsim_core::Engine, device: &trtsim_gpu::device::DeviceSpec)
/// #     -> Result<(), trtsim_core::serving::ServingError> {
/// let config = ServerConfig::default()
///     .with_workers(4)
///     .with_max_batch_size(8)
///     .with_batch_timeout_us(500.0);
/// let mut server = InferenceServer::start(engine, device, config)?;
/// for frame in 0..256 {
///     server.submit(frame)?;
/// }
/// let stats = server.drain();
/// println!("{:.0} FPS, {}", stats.aggregate_fps, stats.latency);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct InferenceServer {
    /// The simulated clock, µs: every event at or before it is processed.
    now_us: f64,
    /// Accepted frames not yet dispatched, oldest first.
    queue: VecDeque<Request>,
    /// The batch each worker stream is serving (`None` = free).
    in_service: Vec<Option<Batch>>,
    arrivals: ArrivalClock,
    /// Set by drain: no frame can arrive any more, so a partial batch
    /// dispatches as soon as a stream is free.
    draining: bool,
    next_batch: u64,
    /// Batch size → the engine's launches timed on the device, derived on
    /// first use.
    timings: BTreeMap<u64, Arc<[TimedKernel]>>,
    accepted: u64,
    rejected: u64,
    deadline_rejected: u64,
    queue_high_water: usize,
    completed: u64,
    dropped: u64,
    deadline_missed: u64,
    batches: u64,
    batch_size_counts: Vec<u64>,
    frames_per_worker: Vec<u64>,
    latencies_us: Vec<f64>,
    completions: Vec<RequestRecord>,
    /// The device timeline the worker streams run on: the server's own
    /// when standalone; `None` on a fleet replica, whose fleet owns its
    /// device's timeline and lends it to every call that steps the replica.
    timeline: Option<GpuTimeline>,
    engine: Engine,
    /// Worker stream ids, in worker order.
    streams: Vec<StreamId>,
    predictor: Option<Predictor>,
    config: ServerConfig,
    metrics: ServingMetrics,
    /// Where `metrics` and the recorder's counters live.
    registry: Arc<Registry>,
    exporter: Option<TelemetryServer>,
    /// The tegrastats reading cursor behind the `trtsim_gpu_*` gauges a
    /// server with a bound endpoint publishes.
    gpu: Sampler,
    /// Always-on flight recorder holding the retained request traces —
    /// fleet-shared when this server is a replica, private otherwise.
    recorder: Arc<FlightRecorder>,
    /// Mints one deterministic trace id per admitted frame (a fleet
    /// replica's frames arrive with router-minted ids instead).
    idgen: TraceIdGen,
    /// This server's identity (model/device/tenant) stamped on every trace.
    sink: TraceSink,
}

impl InferenceServer {
    /// Validates `config`, opens one stream per worker on a timeline of its
    /// own, and starts accepting frames.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::InvalidConfig`] if any knob is out of range.
    pub fn start(
        engine: &Engine,
        device: &DeviceSpec,
        config: ServerConfig,
    ) -> Result<Self, ServingError> {
        let mut timeline = GpuTimeline::new(device.clone());
        let mut server = Self::start_inner(engine, device, config, None, &mut timeline)?;
        server.timeline = Some(timeline);
        Ok(server)
    }

    /// Starts a replica on what its fleet shares — the latency model, the
    /// flight recorder and the registry — with its worker streams on the
    /// device's `timeline` (two replicas on one device genuinely contend
    /// for its GPU). The fleet keeps the timeline and lends it back to
    /// every call that steps the replica.
    pub(crate) fn start_on_timeline(
        engine: &Engine,
        device: &DeviceSpec,
        config: ServerConfig,
        shared: FleetShared,
        timeline: &mut GpuTimeline,
    ) -> Result<Self, ServingError> {
        Self::start_inner(engine, device, config, Some(shared), timeline)
    }

    fn start_inner(
        engine: &Engine,
        device: &DeviceSpec,
        config: ServerConfig,
        shared: Option<FleetShared>,
        timeline: &mut GpuTimeline,
    ) -> Result<Self, ServingError> {
        config.validate()?;
        // A standalone server owns everything a fleet would share, each
        // derived from the device's timing identity — fully deterministic,
        // no wall clock anywhere in the trace ids or the model seed.
        let FleetShared {
            device: device_label,
            tenant,
            model: shared_model,
            recorder,
            registry,
        } = shared.unwrap_or_else(|| {
            let registry = Arc::new(Registry::new());
            FleetShared {
                device: None,
                tenant: None,
                model: None,
                recorder: Arc::new(FlightRecorder::new(config.trace, &registry)),
                registry,
            }
        });
        // The predictor exists when this server schedules predictively or
        // when a fleet shares its model here (so completions on this replica
        // train the fleet-wide model even if local batching stays static).
        let predictor = if config.predictive || shared_model.is_some() {
            let model = shared_model.unwrap_or_else(|| {
                Arc::new(
                    LatencyModel::new(trtsim_util::derive_seed(
                        device.timing_fingerprint(),
                        "latency-model",
                        0,
                    ))
                    .with_min_obs(config.predictor_min_obs),
                )
            });
            Some(Predictor {
                features: EngineFeatures::measure(engine, device, config.timing.host_glue_us),
                model,
            })
        } else {
            None
        };
        let (device_label, tenant) = (device_label.as_deref(), tenant.as_deref());
        let metrics = ServingMetrics::register(&registry, engine.name(), device_label, tenant);
        let sink = TraceSink::new(Arc::clone(&recorder), engine.name(), device_label, tenant);
        let exporter = match config.telemetry_addr {
            Some(addr) => Some(
                TelemetryServer::bind_with_routes(
                    addr,
                    Arc::clone(&registry),
                    recorder.route_handler(),
                )
                .map_err(|e| ServingError::Telemetry(format!("bind {addr}: {e}")))?,
            ),
            None => None,
        };
        Ok(Self {
            now_us: 0.0,
            queue: VecDeque::new(),
            in_service: (0..config.workers).map(|_| None).collect(),
            arrivals: ArrivalClock::new(config.arrival_period_us, config.arrival_process),
            draining: false,
            next_batch: 0,
            timings: BTreeMap::new(),
            accepted: 0,
            rejected: 0,
            deadline_rejected: 0,
            queue_high_water: 0,
            completed: 0,
            dropped: 0,
            deadline_missed: 0,
            batches: 0,
            batch_size_counts: vec![0; config.max_batch_size],
            frames_per_worker: vec![0; config.workers],
            latencies_us: Vec::new(),
            completions: Vec::new(),
            timeline: None,
            engine: engine.clone(),
            streams: (0..config.workers)
                .map(|_| timeline.create_stream())
                .collect(),
            predictor,
            config,
            metrics,
            registry,
            exporter,
            gpu: Sampler::default(),
            recorder,
            idgen: TraceIdGen::new(trtsim_util::derive_seed(
                device.timing_fingerprint(),
                "reqtrace",
                0,
            )),
            sink,
        })
    }

    /// Runs `f` with the server's own timeline lent out beside it.
    ///
    /// # Panics
    ///
    /// Panics on a fleet replica, which its fleet steps with the device's
    /// timeline instead.
    fn with_timeline<R>(&mut self, f: impl FnOnce(&mut Self, &mut GpuTimeline) -> R) -> R {
        let mut timeline = self
            .timeline
            .take()
            .expect("a fleet replica is stepped by its fleet");
        let out = f(self, &mut timeline);
        self.timeline = Some(timeline);
        out
    }

    /// The registry this server's metrics live in — its own, or its
    /// fleet's when it is a replica. The telemetry endpoint scrapes it; a
    /// binary writing one snapshot of several servers
    /// [`absorb`](Registry::absorb)s each.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// The flight recorder holding this server's retained request traces —
    /// shared with the fleet when this server is a replica.
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Submits a frame without blocking, stamped by the server's own
    /// arrival clock ([`ServerConfig::arrival_process`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::QueueFull`] when the bounded queue is at
    /// capacity (the rejection is counted in [`ServerStats::rejected`]), or
    /// [`ServingError::DeadlineUnmeetable`] when deadline-based admission
    /// refuses it.
    pub fn try_submit(&mut self, frame: u64) -> Result<(), ServingError> {
        let arrival_us = self.arrivals.next();
        self.with_timeline(|s, tl| s.offer(tl, frame, arrival_us, None))
    }

    /// Submits a frame without blocking, carrying an explicit simulated
    /// arrival timestamp instead of drawing one from the server's own
    /// arrival clock — the open-loop path a fleet router uses to replay one
    /// shared traffic trace across many devices.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::InvalidArrival`] for a NaN, infinite or
    /// negative timestamp (the frame is not counted), and otherwise the
    /// errors of [`InferenceServer::try_submit`].
    pub fn try_submit_at(&mut self, frame: u64, arrival_us: f64) -> Result<(), ServingError> {
        check_arrival(arrival_us)?;
        self.with_timeline(|s, tl| s.offer(tl, frame, arrival_us, None))
    }

    /// Fleet entry point: submit with a router-minted trace context (score
    /// and predictions already stamped) and the queue signals the router
    /// priced this replica under, instead of minting and reading fresh
    /// ones. A refusal here records no trace — the router may still place
    /// the frame on another replica, and it records the single rejection
    /// trace itself only when every replica refuses.
    pub(crate) fn try_submit_traced(
        &mut self,
        tl: &mut GpuTimeline,
        frame: u64,
        arrival_us: f64,
        signals: QueueSignals,
        trace: TraceCtx,
    ) -> Result<(), ServingError> {
        self.offer(tl, frame, arrival_us, Some((signals, trace)))
    }

    /// Submits a frame stamped by the server's arrival clock, blocking on a
    /// full queue: the clock runs forward until a dispatch frees a slot,
    /// and the frame joins the queue then (its latency still counts from
    /// its stamp).
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` keeps the signature of the
    /// non-blocking paths.
    pub fn submit(&mut self, frame: u64) -> Result<(), ServingError> {
        let arrival_us = self.arrivals.next();
        self.with_timeline(|s, tl| {
            s.advance(tl, arrival_us);
            while s.queue.len() >= s.config.queue_capacity {
                // A full queue with a free stream dispatches at once, so
                // every stream is busy and a completion is pending.
                let at = s.next_event_us().expect("a full queue has a pending event");
                s.advance(tl, at);
            }
            let signals = s.queue_signals(tl, arrival_us);
            let trace = TraceCtx::new(s.idgen.mint());
            s.accept(tl, frame, arrival_us, signals, trace);
        });
        Ok(())
    }

    /// The shared admission path: advance to the arrival, price it, apply
    /// deadline admission and the queue bound, then accept.
    fn offer(
        &mut self,
        tl: &mut GpuTimeline,
        frame: u64,
        arrival_us: f64,
        routed: Option<(QueueSignals, TraceCtx)>,
    ) -> Result<(), ServingError> {
        self.advance(tl, arrival_us);
        let record_rejects = routed.is_none();
        let (signals, mut trace) = match routed {
            Some(routed) => routed,
            None => (
                self.queue_signals(tl, arrival_us),
                TraceCtx::new(self.idgen.mint()),
            ),
        };
        let refusal = if let Err(e) = self.admit(&signals, &mut trace) {
            (e, TraceOutcome::DeadlineRejected)
        } else if self.queue.len() >= self.config.queue_capacity {
            self.rejected += 1;
            self.metrics.rejected.inc();
            (ServingError::QueueFull, TraceOutcome::QueueRejected)
        } else {
            self.accept(tl, frame, arrival_us, signals, trace);
            return Ok(());
        };
        if record_rejects {
            self.sink
                .record_unserved(trace, frame, arrival_us, refusal.1);
        }
        Err(refusal.0)
    }

    /// Live queue state as the predictor's feature vector reads it: backlog
    /// depth, the fraction of workers currently serving a batch, and the
    /// committed-work horizon — how far past `arrival_us` the earliest-free
    /// worker stream is already booked. Depth is a noisy *proxy* for
    /// waiting time; the horizon is the waiting time itself, read off the
    /// dispatch ledger the same way a real runtime knows when each enqueued
    /// batch retires.
    pub(crate) fn queue_signals(&self, tl: &GpuTimeline, arrival_us: f64) -> QueueSignals {
        let earliest_free = self
            .streams
            .iter()
            .map(|&stream| tl.sync(stream))
            .fold(f64::INFINITY, f64::min);
        self.load()
            .with_committed_us((earliest_free - arrival_us).max(0.0))
    }

    /// Queue depth and busy streams, both per worker.
    fn load(&self) -> QueueSignals {
        let workers = self.config.workers as f64;
        let busy = self.in_service.iter().flatten().count();
        QueueSignals::new(self.queue.len() as f64 / workers, busy as f64 / workers)
    }

    /// Deadline-based admission: refuse a frame when the warm model predicts
    /// that even best-case batch-1 service lands past the deadline. Cold
    /// models admit everything (fallback to plain queue-bound admission).
    fn admit(&mut self, signals: &QueueSignals, trace: &mut TraceCtx) -> Result<(), ServingError> {
        if !self.config.predictive || self.config.deadline_us <= 0.0 {
            return Ok(());
        }
        // Fail open while the backlog is shallower than two batch waves per
        // worker. Shedding only pays in deep backlog, where removing one
        // frame moves every frame behind it up a service slot (one shed
        // saves several near-deadline frames); at shallow depth a rejection
        // mostly discards a frame that would have met its deadline. The
        // floor also keeps the model honest: rejections produce no
        // completions and therefore no training examples, so a model whose
        // base prediction drifted past the deadline could otherwise wedge
        // itself rejecting forever with nothing left to correct it — frames
        // accepted into a shallow queue are cheap probes whose observed
        // latencies pull the base back down.
        if signals.queue_depth < 2.0 {
            return Ok(());
        }
        // Shed only clearly-hopeless frames: predicted median latency past
        // the deadline with headroom to spare. A frame predicted merely
        // *near* the deadline is worth serving — prediction error is
        // two-sided, and a borderline frame served late costs one miss
        // while a borderline frame shed costs one completion *and* the
        // capacity it would have freed was mostly imaginary.
        const ADMIT_HEADROOM: f64 = 1.3;
        if let Some(p) = &self.predictor {
            if let Some(pred) = p.model.predict(&p.features, 1, signals) {
                // Stamp the admission-time prediction on the trace (unless a
                // fleet router already priced this replica) so the retained
                // trace can report predicted-vs-actual error.
                if trace.predicted_p50_us.is_nan() {
                    trace.predicted_p50_us = pred.p50_us;
                    trace.predicted_p99_us = pred.p99_us;
                }
                if pred.p50_us > self.config.deadline_us * ADMIT_HEADROOM {
                    self.deadline_rejected += 1;
                    self.metrics.deadline_rejected.inc();
                    return Err(ServingError::DeadlineUnmeetable);
                }
            }
        }
        Ok(())
    }

    /// Queues an admitted frame at the clock and dispatches what is ready.
    fn accept(
        &mut self,
        tl: &mut GpuTimeline,
        frame: u64,
        arrival_us: f64,
        signals: QueueSignals,
        trace: TraceCtx,
    ) {
        self.queue.push_back(Request {
            frame,
            arrival_us,
            queued_us: self.now_us,
            signals,
            trace,
        });
        self.accepted += 1;
        self.queue_high_water = self.queue_high_water.max(self.queue.len());
        self.metrics.accepted.inc();
        self.metrics.queue_depth.set(self.queue.len() as f64);
        self.metrics
            .queue_high_water
            .set(self.queue_high_water as f64);
        self.dispatch(tl);
    }

    /// Runs the event loop up to simulated time `t_us` without shutting
    /// down: every completion and timed-out batch at or before `t_us` is
    /// processed, in time order, and the clock moves to `t_us` (to the last
    /// event when `t_us` is infinite). Frames still waiting for their batch
    /// to fill stay queued. Submits advance the clock themselves; call this
    /// to observe a live server (its `/metrics`, its flight recorder) at a
    /// given simulated time. A server with a bound telemetry endpoint then
    /// publishes its `trtsim_gpu_*` gauges over the simulated window since
    /// its previous reading.
    pub fn run_until(&mut self, t_us: f64) {
        self.with_timeline(|s, tl| {
            s.advance(tl, t_us);
            s.publish_gpu(tl);
        });
    }

    /// [`InferenceServer::run_until`] on a fleet replica, stepped on its
    /// device's lent timeline.
    pub(crate) fn advance(&mut self, tl: &mut GpuTimeline, t_us: f64) {
        while let Some(at) = self.next_event_us().filter(|&at| at <= t_us) {
            self.now_us = at;
            for s in 0..self.in_service.len() {
                if self.in_service[s].as_ref().is_some_and(|b| b.done_us <= at) {
                    self.complete(s);
                }
            }
            self.dispatch(tl);
        }
        if t_us.is_finite() {
            self.now_us = self.now_us.max(t_us);
        }
    }

    /// Publishes a tegrastats reading of `tl` over the simulated window
    /// since the previous one, when a telemetry endpoint is bound.
    fn publish_gpu(&mut self, tl: &GpuTimeline) {
        if self.exporter.is_some() {
            if let Some(reading) = self.gpu.sample(tl, self.now_us) {
                publish_gpu(&self.registry, &reading);
            }
        }
    }

    /// The time of this server's next event, if any: the earliest batch
    /// completion, or the batch timeout of the queue's oldest frame while a
    /// stream is free.
    pub(crate) fn next_event_us(&self) -> Option<f64> {
        let completion = self.in_service.iter().flatten().map(|b| b.done_us);
        let timeout = self
            .queue
            .front()
            .filter(|_| self.in_service.iter().any(Option::is_none))
            .map(|oldest| oldest.queued_us + self.config.batch_timeout_us)
            .filter(|t| t.is_finite());
        completion.chain(timeout).min_by(f64::total_cmp)
    }

    /// Work-conserving dispatch at the clock: while a stream is free and a
    /// batch is ready, the lowest-index free stream takes it. Equal-length
    /// batches therefore rotate over the streams in index order.
    fn dispatch(&mut self, tl: &mut GpuTimeline) {
        while let Some(s) = self.in_service.iter().position(Option::is_none) {
            let Some(size) = self.ready_batch() else {
                return;
            };
            self.start_batch(tl, s, size);
        }
    }

    /// How many queued frames close into a batch now, if any. A batch short
    /// of its fill target waits for stragglers until the timeout, unless no
    /// straggler can join it (drain, or a full queue).
    fn ready_batch(&self) -> Option<usize> {
        let depth = self.queue.len();
        let oldest = self.queue.front()?.queued_us;
        let take = depth.min(self.config.max_batch_size);
        let ready = take == self.config.max_batch_size
            || self.draining
            || depth >= self.config.queue_capacity
            || oldest + self.config.batch_timeout_us <= self.now_us
            || take >= self.fill_target();
        ready.then_some(take)
    }

    /// SLO-aware fill target: under a deadline, the largest batch whose
    /// predicted p99 still lands inside it at the current load. The target
    /// governs ONLY the straggler wait — frames already queued always
    /// coalesce up to the static cap, because batch service time is
    /// sublinear in size: truncating a batch below the live backlog would
    /// serialize frames that a single launch could have carried, burning
    /// drain rate exactly when the queue is growing. A cold model (or no
    /// deadline) leaves the static cap alone.
    fn fill_target(&self) -> usize {
        let max_batch = self.config.max_batch_size;
        match &self.predictor {
            Some(p) if self.config.predictive && self.config.deadline_us > 0.0 => {
                p.slo_batch_cap(max_batch, self.config.deadline_us, &self.load())
            }
            _ => max_batch,
        }
    }

    /// Dispatches the queue's oldest `size` frames onto free stream `s` at
    /// the clock. Idle time before the batch is charged to the stream as
    /// `arrival_wait` (no frame queued) and `batch_wait` (waiting for
    /// stragglers), so stream time stays accounted for.
    fn start_batch(&mut self, tl: &mut GpuTimeline, s: usize, size: usize) {
        let requests: Vec<Request> = self.queue.drain(..size).collect();
        self.metrics.queue_depth.set(self.queue.len() as f64);
        let seq = self.next_batch;
        self.next_batch += 1;
        let now = self.now_us;
        let stream = self.streams[s];
        let span_lo = tl.next_seq(stream);
        let front = tl.sync(stream);
        let wait_start_us = front.max(requests[0].queued_us).min(now);
        tl.host_span(stream, "arrival_wait", wait_start_us - front);
        tl.host_span(stream, "batch_wait", now - wait_start_us);
        let batch = size as u64;
        let rows = self
            .timings
            .entry(batch)
            .or_insert_with(|| batch_timing(&self.engine, batch, tl.device()));
        let done_us =
            enqueue_timed_batch(tl, stream, &self.engine, rows, batch, &self.config.timing);
        self.in_service[s] = Some(Batch {
            seq,
            requests,
            wait_start_us,
            exec_start_us: now,
            done_us,
            span_lo,
            span_hi: tl.next_seq(stream),
        });
    }

    /// The completion event of stream `s`'s batch: stats, metrics, one
    /// trace per request, and one training example per request for the
    /// latency model — all at `done_us`, so training is causal.
    fn complete(&mut self, s: usize) {
        let batch = self.in_service[s].take().expect("stream is busy");
        let size = batch.requests.len();
        self.metrics.completed.add(size as u64);
        self.metrics.batches.inc();
        self.metrics.batch_size.observe(size as f64);
        self.completed += size as u64;
        self.batches += 1;
        self.batch_size_counts[size - 1] += 1;
        self.frames_per_worker[s] += size as u64;
        let deadline_us = self.config.deadline_us;
        for request in &batch.requests {
            let latency_us = batch.done_us - request.arrival_us;
            let missed = deadline_us > 0.0 && latency_us > deadline_us;
            let retained = self.sink.record_completed(
                request.trace,
                request.frame,
                request.arrival_us,
                batch.wait_start_us,
                batch.exec_start_us,
                batch.done_us,
                s,
                self.streams[s],
                batch.seq,
                size,
                batch.span_lo,
                batch.span_hi,
                missed,
            );
            // A retained trace becomes the exemplar on its latency bucket,
            // so a scrape can jump from a slow histogram bucket straight to
            // the span tree that produced it.
            if retained {
                self.metrics
                    .latency_us
                    .observe_with_exemplar(latency_us, &request.trace.id.to_string());
            } else {
                self.metrics.latency_us.observe(latency_us);
            }
            self.latencies_us.push(latency_us);
            if missed {
                self.deadline_missed += 1;
                self.metrics.deadline_missed.inc();
            }
            // Prequential training: each completion becomes an example under
            // the exact queue signals its admission-time prediction saw.
            if let Some(p) = &self.predictor {
                p.model
                    .observe(&p.features, size, &request.signals, latency_us);
            }
            self.completions.push(RequestRecord {
                frame: request.frame,
                worker: s,
                batch: batch.seq,
                span_lo: batch.span_lo,
                span_hi: batch.span_hi,
                arrival_us: request.arrival_us,
                done_us: batch.done_us,
            });
        }
    }

    /// The configuration this server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Frames waiting in the queue at the clock — the live backlog signal a
    /// fleet router's least-loaded dispatch reads.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The static features this server's predictor evaluates its model
    /// against — present exactly when [`InferenceServer::latency_model`] is.
    pub(crate) fn features(&self) -> Option<&EngineFeatures> {
        self.predictor.as_ref().map(|p| &p.features)
    }

    /// The online latency model this server trains — present when
    /// [`ServerConfig::predictive`] is set or a fleet shares its model here.
    pub fn latency_model(&self) -> Option<Arc<LatencyModel>> {
        self.predictor.as_ref().map(|p| Arc::clone(&p.model))
    }

    /// The bound address of the telemetry endpoint, when
    /// [`ServerConfig::with_telemetry`] was set. Useful with port 0:
    /// `curl http://<addr>/metrics`.
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.exporter.as_ref().map(TelemetryServer::local_addr)
    }

    /// A snapshot of the counters and simulated-time metrics at the clock.
    /// The final numbers come from [`InferenceServer::drain`].
    ///
    /// # Panics
    ///
    /// Panics on a fleet replica (its stats come from the fleet's drain).
    pub fn stats(&self) -> ServerStats {
        self.snapshot(
            self.timeline
                .as_ref()
                .expect("a fleet replica is read through its fleet"),
        )
    }

    /// Stops admission and runs the loop until no event remains, so every
    /// accepted frame is served, then reports the final statistics.
    pub fn drain(mut self) -> ServerStats {
        self.with_timeline(|s, tl| s.shutdown(tl, false))
    }

    /// Stops admission, drops the frames still queued at the clock, and
    /// lets the batches in service finish. Dropped frames are counted in
    /// [`ServerStats::dropped`].
    pub fn abort(mut self) -> ServerStats {
        self.with_timeline(|s, tl| s.shutdown(tl, true))
    }

    /// Marks the loop as draining: no frame can arrive any more, so partial
    /// batches dispatch as streams free up. A fleet closes every replica
    /// before running them to the end in one time order.
    pub(crate) fn close(&mut self, tl: &mut GpuTimeline) {
        self.draining = true;
        self.dispatch(tl);
    }

    /// [`InferenceServer::drain`] (or, with `abort`,
    /// [`InferenceServer::abort`]) on `tl`: a fleet drains each replica on
    /// its device's timeline.
    pub(crate) fn shutdown(&mut self, tl: &mut GpuTimeline, abort: bool) -> ServerStats {
        if abort {
            let dropped: Vec<Request> = self.queue.drain(..).collect();
            self.dropped += dropped.len() as u64;
            self.metrics.dropped.add(dropped.len() as u64);
            self.metrics.queue_depth.set(0.0);
            for request in dropped {
                self.sink.record_unserved(
                    request.trace,
                    request.frame,
                    request.arrival_us,
                    TraceOutcome::Dropped,
                );
            }
        }
        self.close(tl);
        self.advance(tl, f64::INFINITY);
        // One final GPU reading over the completed run, then stop the
        // scrape endpoint (dropping it joins its accept thread).
        self.publish_gpu(tl);
        self.exporter.take();
        self.snapshot(tl)
    }

    fn snapshot(&self, tl: &GpuTimeline) -> ServerStats {
        let simulated_seconds = tl.elapsed_us() / 1e6;
        if let Some(p) = &self.predictor {
            self.metrics
                .predictor_observations
                .set(p.model.observations() as f64);
            if let Some(mape) = p.model.mape_percent() {
                self.metrics.predictor_mape_percent.set(mape);
                self.metrics.predictor_mape.set(mape);
            }
            let (cal_p50, cal_p99) = p.model.calibration();
            self.metrics.predictor_calibration_p50.set(cal_p50);
            self.metrics.predictor_calibration_p99.set(cal_p99);
        }
        ServerStats {
            workers: self.config.workers,
            accepted: self.accepted,
            completed: self.completed,
            dropped: self.dropped,
            rejected: self.rejected,
            deadline_missed: self.deadline_missed,
            deadline_rejected: self.deadline_rejected,
            batches: self.batches,
            batch_size_counts: self.batch_size_counts.clone(),
            queue_high_water: self.queue_high_water,
            latency: LatencyPercentiles::from_runs_us(&self.latencies_us),
            simulated_seconds,
            aggregate_fps: self.completed as f64 / simulated_seconds.max(1e-12),
            gr3d_percent: tegrastats::mean_gr3d_percent(tl),
            frames_per_worker: self.frames_per_worker.clone(),
            completions: self.completions.clone(),
            kernel_breakdown: if self.config.profile {
                kernel_breakdown(tl)
            } else {
                Vec::new()
            },
            timeline: self.config.profile.then(|| tl.clone()),
        }
    }
}

/// Rejects an arrival timestamp the event loop cannot order: NaN, infinite
/// or negative.
pub(crate) fn check_arrival(arrival_us: f64) -> Result<(), ServingError> {
    if arrival_us.is_finite() && arrival_us >= 0.0 {
        Ok(())
    } else {
        Err(ServingError::InvalidArrival(format!(
            "arrival timestamp {arrival_us} µs must be finite and non-negative"
        )))
    }
}

/// Aggregates a timeline's kernel records into per-symbol busy-time totals,
/// heaviest first (ties broken by name for a stable order).
fn kernel_breakdown(timeline: &GpuTimeline) -> Vec<KernelTime> {
    let mut by_name: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for k in timeline.kernels() {
        let entry = by_name.entry(&k.name).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += k.duration_us;
    }
    let mut breakdown: Vec<KernelTime> = by_name
        .into_iter()
        .map(|(name, (calls, total_us))| KernelTime {
            name: name.to_string(),
            calls,
            total_us,
        })
        .collect();
    breakdown.sort_by(|a, b| {
        b.total_us
            .total_cmp(&a.total_us)
            .then_with(|| a.name.cmp(&b.name))
    });
    breakdown
}

/// Simulated arrival clock: hands out the arrival timestamp of each frame
/// offered to the server, in submission order.
#[derive(Debug)]
struct ArrivalClock {
    period_us: f64,
    seq: u64,
    clock_us: f64,
    /// `Some` for Poisson arrivals; `None` keeps the legacy fixed-rate
    /// `seq * period` timestamps bit-identical.
    rng: Option<Pcg32>,
}

impl ArrivalClock {
    fn new(period_us: f64, process: ArrivalProcess) -> Self {
        let rng = match process {
            ArrivalProcess::Periodic => None,
            ArrivalProcess::Poisson { seed } => Some(Pcg32::seed_from_u64(seed)),
        };
        Self {
            period_us,
            seq: 0,
            clock_us: 0.0,
            rng,
        }
    }

    fn next(&mut self) -> f64 {
        let arrival = match &mut self.rng {
            None => self.seq as f64 * self.period_us,
            Some(rng) => {
                // Inverse-CDF exponential gap; 1 - u is in (0, 1] so the
                // log is finite and the clock is non-decreasing.
                let u = rng.next_f64();
                self.clock_us += -self.period_us * (1.0 - u).ln();
                self.clock_us
            }
        };
        self.seq += 1;
        arrival
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::BuilderConfig;
    use trtsim_ir::graph::{Graph, LayerKind};

    fn engine() -> Engine {
        let mut g = Graph::new("serve", [3, 32, 32]);
        let c1 = g.add_layer(
            "c1",
            LayerKind::conv_seeded(32, 3, 3, 1, 1, 0),
            &[Graph::INPUT],
        );
        let c2 = g.add_layer("c2", LayerKind::conv_seeded(32, 32, 3, 1, 1, 1), &[c1]);
        g.mark_output(c2);
        Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(2),
        )
        .build(&g)
        .unwrap()
    }

    fn opts() -> TimingOptions {
        TimingOptions::default()
            .without_engine_upload()
            .with_run_jitter_sd(0.0)
            .with_host_glue_us(200.0)
    }

    /// Serves `frames` on `workers` streams with blocking admission and no
    /// batching — one frame per thread per call, the Figure 3/4 setup.
    fn serve(e: &Engine, workers: usize, frames: u64) -> ServerStats {
        let config = ServerConfig::default()
            .with_workers(workers)
            .with_queue_capacity(workers * 2)
            .with_max_batch_size(1)
            .with_timing(opts());
        let mut server = InferenceServer::start(e, &DeviceSpec::xavier_nx(), config).unwrap();
        for frame in 0..frames {
            server.submit(frame).unwrap();
        }
        server.drain()
    }

    #[test]
    fn all_frames_are_processed() {
        let e = engine();
        let stats = serve(&e, 4, 64);
        assert_eq!(stats.completed, 64);
        assert_eq!(stats.frames_per_worker.iter().sum::<u64>(), 64);
        assert!(stats.aggregate_fps > 0.0);
    }

    #[test]
    fn more_threads_do_not_lose_throughput() {
        let e = engine();
        let one = serve(&e, 1, 48);
        let four = serve(&e, 4, 48);
        // Streams overlap on the simulated timeline: aggregate FPS must not
        // regress when adding workers.
        assert!(
            four.aggregate_fps >= one.aggregate_fps * 0.95,
            "{} vs {}",
            four.aggregate_fps,
            one.aggregate_fps
        );
    }

    #[test]
    fn work_is_distributed() {
        let e = engine();
        let stats = serve(&e, 4, 100);
        let active = stats.frames_per_worker.iter().filter(|&&n| n > 0).count();
        assert!(
            active >= 2,
            "work stuck on one thread: {:?}",
            stats.frames_per_worker
        );
    }

    #[test]
    fn utilization_is_reported() {
        let stats = serve(&engine(), 2, 32);
        assert!(stats.gr3d_percent > 0.0 && stats.gr3d_percent <= 100.0);
    }

    #[test]
    fn zero_threads_rejected_as_error() {
        let config = ServerConfig::default().with_workers(0);
        let err = InferenceServer::start(&engine(), &DeviceSpec::xavier_nx(), config).unwrap_err();
        assert!(matches!(err, ServingError::InvalidConfig(_)));
        assert!(err.to_string().contains("at least one worker"));
    }

    #[test]
    fn config_validation_names_each_bad_knob() {
        let base = ServerConfig::default();
        assert!(base.validate().is_ok());
        for (bad, needle) in [
            (base.with_workers(0), "worker"),
            (base.with_queue_capacity(0), "queue"),
            (base.with_max_batch_size(0), "batch size"),
            (base.with_batch_timeout_us(-1.0), "timeout"),
            (base.with_batch_timeout_us(f64::NAN), "timeout"),
            (base.with_arrival_period_us(f64::INFINITY), "arrival"),
            (base.with_poisson_arrivals(7), "poisson"),
            (base.with_deadline_us(-1.0), "deadline"),
            (base.with_deadline_us(f64::NAN), "deadline"),
            (base.with_predictor_min_obs(0), "predictor"),
            (
                base.with_trace(TraceOptions::default().with_capacity(0)),
                "trace",
            ),
            (
                base.with_trace(TraceOptions::default().with_sample_every(0)),
                "trace",
            ),
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn poisson_arrival_clock_is_seeded_and_monotone() {
        let draw = |seed: u64| {
            let mut clock = ArrivalClock::new(1000.0, ArrivalProcess::Poisson { seed });
            (0..64).map(|_| clock.next()).collect::<Vec<_>>()
        };
        let a = draw(42);
        let b = draw(42);
        assert_eq!(a, b, "same seed must replay bit-identically");
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "arrival times must be non-decreasing"
        );
        assert!(a[0] > 0.0, "first gap is exponential, not pinned to 0");
        let c = draw(43);
        assert_ne!(a, c, "different seeds must diverge");
        // The empirical mean gap should be in the right ballpark of the
        // configured 1000 µs mean (loose 3-sigma-ish bounds for n = 64).
        let mean = a.last().unwrap() / 64.0;
        assert!((500.0..2000.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn periodic_clock_matches_legacy_timestamps() {
        let mut clock = ArrivalClock::new(250.0, ArrivalProcess::Periodic);
        for n in 0..8u64 {
            assert_eq!(clock.next(), n as f64 * 250.0);
        }
    }

    #[test]
    fn infinite_timeout_forms_full_batches() {
        let e = engine();
        let mut server = InferenceServer::start(
            &e,
            &DeviceSpec::xavier_nx(),
            ServerConfig::default()
                .with_workers(2)
                .with_queue_capacity(8)
                .with_max_batch_size(8)
                .with_batch_timeout_us(f64::INFINITY)
                .with_timing(opts()),
        )
        .unwrap();
        for frame in 0..64 {
            server.submit(frame).unwrap();
        }
        let stats = server.drain();
        assert_eq!(stats.completed, 64);
        assert_eq!(stats.batches, 8);
        assert_eq!(stats.batch_size_counts, vec![0, 0, 0, 0, 0, 0, 0, 8]);
        assert_eq!(stats.mean_batch_size(), 8.0);
    }

    #[test]
    fn batching_increases_aggregate_fps() {
        let e = engine();
        let dev = DeviceSpec::xavier_nx();
        let run = |batch: usize| {
            let mut server = InferenceServer::start(
                &e,
                &dev,
                ServerConfig::default()
                    .with_workers(2)
                    .with_queue_capacity(16)
                    .with_max_batch_size(batch)
                    .with_batch_timeout_us(f64::INFINITY)
                    .with_timing(opts()),
            )
            .unwrap();
            for frame in 0..96 {
                server.submit(frame).unwrap();
            }
            server.drain()
        };
        let unbatched = run(1);
        let batched = run(8);
        assert!(
            batched.aggregate_fps > unbatched.aggregate_fps,
            "batch 8: {} FPS, batch 1: {} FPS",
            batched.aggregate_fps,
            unbatched.aggregate_fps
        );
    }

    #[test]
    fn overload_rejects_and_drain_completes_accepted() {
        let e = engine();
        let mut server = InferenceServer::start(
            &e,
            &DeviceSpec::xavier_nx(),
            ServerConfig::default()
                .with_workers(1)
                .with_queue_capacity(2)
                .with_max_batch_size(4)
                .with_batch_timeout_us(f64::INFINITY)
                .with_timing(opts()),
        )
        .unwrap();
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for frame in 0..10_000 {
            match server.try_submit(frame) {
                Ok(()) => accepted += 1,
                Err(ServingError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        // All 10k frames arrive at t = 0. The first two fill the 2-deep
        // queue, which dispatches them at once (a full queue cannot grow to
        // the batch of 4); two more refill it while the one stream is busy;
        // everything after that is refused.
        assert_eq!((accepted, rejected), (4, 9_996));
        let stats = server.drain();
        assert_eq!(stats.accepted, accepted);
        assert_eq!(stats.completed, accepted);
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.queue_high_water, 2);
        assert_eq!(stats.batch_size_counts, vec![0, 2, 0, 0]);
    }

    #[test]
    fn abort_drops_unstarted_frames() {
        let e = engine();
        let mut server = InferenceServer::start(
            &e,
            &DeviceSpec::xavier_nx(),
            ServerConfig::default()
                .with_workers(1)
                .with_queue_capacity(64)
                .with_timing(opts()),
        )
        .unwrap();
        for frame in 0..64 {
            server.submit(frame).unwrap();
        }
        let stats = server.abort();
        assert_eq!(stats.completed + stats.dropped, stats.accepted);
    }

    #[test]
    fn latency_percentiles_are_ordered_and_populated() {
        let e = engine();
        let mut server = InferenceServer::start(
            &e,
            &DeviceSpec::xavier_nx(),
            ServerConfig::default()
                .with_workers(2)
                .with_queue_capacity(32)
                .with_max_batch_size(4)
                .with_batch_timeout_us(f64::INFINITY)
                .with_timing(opts()),
        )
        .unwrap();
        for frame in 0..64 {
            server.submit(frame).unwrap();
        }
        let stats = server.drain();
        let lat = stats.latency;
        assert_eq!(lat.count as u64, stats.completed);
        assert!(lat.p50_us > 0.0);
        assert!(lat.p90_us >= lat.p50_us);
        assert!(lat.p99_us >= lat.p90_us);
        assert!(stats.completions.len() as u64 == stats.completed);
    }

    #[test]
    fn high_water_sees_frames_coalesced_in_one_batch() {
        // Every frame in a timeout-0 batch was in the queue simultaneously
        // when the batch formed, so the high-water mark covers the largest
        // batch; blocking submits at t = 0 fill the queue to capacity.
        let e = engine();
        let mut server = InferenceServer::start(
            &e,
            &DeviceSpec::xavier_nx(),
            ServerConfig::default()
                .with_workers(1)
                .with_queue_capacity(64)
                .with_max_batch_size(16)
                .with_batch_timeout_us(0.0)
                .with_timing(opts()),
        )
        .unwrap();
        for frame in 0..256 {
            server.submit(frame).unwrap();
        }
        let stats = server.drain();
        let largest_batch = stats
            .batch_size_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, _)| i + 1)
            .max()
            .unwrap_or(0);
        assert_eq!(largest_batch, 16);
        assert_eq!(stats.queue_high_water, 64);
    }

    #[test]
    fn invalid_arrival_stamps_are_refused_uncounted() {
        let mut server = InferenceServer::start(
            &engine(),
            &DeviceSpec::xavier_nx(),
            ServerConfig::default().with_timing(opts()),
        )
        .unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5e6] {
            let err = server.try_submit_at(0, bad).unwrap_err();
            assert!(
                matches!(err, ServingError::InvalidArrival(_)),
                "{bad}: {err}"
            );
        }
        server.try_submit_at(1, 10.0).unwrap();
        let stats = server.drain();
        assert_eq!((stats.accepted, stats.rejected, stats.completed), (1, 0, 1));
    }

    #[test]
    fn timeout_dispatches_a_partial_batch_on_the_simulated_clock() {
        let mut server = InferenceServer::start(
            &engine(),
            &DeviceSpec::xavier_nx(),
            ServerConfig::default()
                .with_workers(1)
                .with_max_batch_size(4)
                .with_batch_timeout_us(500.0)
                .with_timing(opts()),
        )
        .unwrap();
        server.try_submit_at(0, 100.0).unwrap();
        server.try_submit_at(1, 300.0).unwrap();
        server.run_until(599.0);
        assert_eq!(server.queue_depth(), 2, "the window is still open");
        server.run_until(600.0);
        assert_eq!(server.queue_depth(), 0, "the window closed at 100 + 500");
        let stats = server.drain();
        assert_eq!(stats.batch_size_counts, vec![0, 1, 0, 0]);
        assert!(stats.completions.iter().all(|c| c.done_us > 600.0));
    }

    #[test]
    fn profile_options_capture_timeline_and_breakdown() {
        let e = engine();
        let mut server = InferenceServer::start(
            &e,
            &DeviceSpec::xavier_nx(),
            ServerConfig::default()
                .with_workers(4)
                .with_queue_capacity(32)
                .with_max_batch_size(4)
                .with_batch_timeout_us(f64::INFINITY)
                .with_timing(opts())
                .with_profile(true),
        )
        .unwrap();
        for frame in 0..64 {
            server.submit(frame).unwrap();
        }
        let stats = server.drain();
        let tl = stats.timeline.as_ref().expect("timeline captured");
        assert!(!tl.kernels().is_empty());
        // Breakdown totals must reconcile with the raw timeline.
        assert!(!stats.kernel_breakdown.is_empty());
        let calls: u64 = stats.kernel_breakdown.iter().map(|k| k.calls).sum();
        assert_eq!(calls as usize, tl.kernels().len());
        for pair in stats.kernel_breakdown.windows(2) {
            assert!(pair[0].total_us >= pair[1].total_us, "not heaviest-first");
        }
        // Span attribution: every request carries a non-empty half-open
        // range, identical for requests of the same batch, and the worker's
        // stream really holds kernel records numbered inside it.
        assert!(!stats.completions.is_empty());
        for r in &stats.completions {
            assert!(r.span_lo < r.span_hi, "empty span range for {:?}", r);
            let stream = r.worker; // streams are created in worker order
            let in_range = tl
                .kernels()
                .iter()
                .any(|k| k.stream == stream && (r.span_lo..r.span_hi).contains(&k.seq));
            assert!(in_range, "no kernel record inside span range of {:?}", r);
        }
        for a in &stats.completions {
            for b in &stats.completions {
                if a.worker == b.worker && a.batch == b.batch {
                    assert_eq!((a.span_lo, a.span_hi), (b.span_lo, b.span_hi));
                }
            }
        }
    }

    #[test]
    fn profile_is_off_by_default() {
        let e = engine();
        let mut server = InferenceServer::start(
            &e,
            &DeviceSpec::xavier_nx(),
            ServerConfig::default().with_workers(2).with_timing(opts()),
        )
        .unwrap();
        for frame in 0..16 {
            server.submit(frame).unwrap();
        }
        let stats = server.drain();
        assert!(stats.timeline.is_none());
        assert!(stats.kernel_breakdown.is_empty());
    }

    #[test]
    fn gpu_gauges_read_the_simulated_window_since_start() {
        let t_us = 1_000.0;
        let run = || {
            let mut server = InferenceServer::start(
                &engine(),
                &DeviceSpec::xavier_nx(),
                ServerConfig::default()
                    .with_workers(2)
                    .with_max_batch_size(2)
                    .with_timing(opts())
                    .with_profile(true)
                    .with_telemetry("127.0.0.1:0".parse().unwrap()),
            )
            .unwrap();
            for frame in 0..32 {
                server.submit(frame).unwrap();
            }
            server.run_until(t_us);
            let timeline = server.stats().timeline.expect("profiled");
            assert!(timeline.elapsed_us() > t_us, "the run is still going");
            let want = tegrastats::TegraSample::window(&timeline, 0.0, t_us);
            let reg = server.registry();
            let gauge = |name: &str, labels: &[(&str, &str)]| reg.gauge(name, "", labels).get();
            let streams: Vec<f64> = ["0", "1"]
                .iter()
                .map(|s| gauge("trtsim_gpu_stream_busy_percent", &[("stream", s)]))
                .collect();
            let got = [
                gauge("trtsim_gpu_elapsed_simulated_us", &[]),
                gauge("trtsim_gpu_gr3d_percent", &[]),
                gauge("trtsim_gpu_power_mw", &[]),
                gauge(
                    "trtsim_gpu_memcpy_bytes_per_second",
                    &[("direction", "h2d")],
                ),
                gauge(
                    "trtsim_gpu_memcpy_bytes_per_second",
                    &[("direction", "d2h")],
                ),
            ];
            assert_eq!(
                got,
                [
                    t_us,
                    want.gr3d_percent,
                    want.gpu_power_mw,
                    want.h2d_bytes_per_second,
                    want.d2h_bytes_per_second,
                ]
            );
            assert_eq!(streams, want.stream_busy_percent);
            assert!(want.gr3d_percent > 0.0);
            drop(server.drain());
            (got, streams)
        };
        assert_eq!(run(), run(), "same run, same readings");
    }

    #[test]
    fn errors_display_and_are_std_errors() {
        let err: Box<dyn std::error::Error> = Box::new(ServingError::QueueFull);
        assert!(err.to_string().contains("full"));
        assert!(ServingError::InvalidArrival("-1".into())
            .to_string()
            .contains("arrival"));
    }
}
