//! Production-style inference serving over the simulated GPU.
//!
//! The paper's deployment pattern (§IV-B, §VI-A) is N camera feeds fanned
//! onto one Jetson: one engine, one CUDA context, one stream per worker.
//! This module runs that architecture as a real server would be built on top
//! of TensorRT — with *real* OS threads against the *simulated* timeline, so
//! the concurrency structure is genuine while time stays modeled:
//!
//! ```text
//!   submit / try_submit          batcher thread              worker threads
//!  ───────────────────▶ bounded ───────────────▶ per-worker ───────────────▶ GpuTimeline
//!   Err(QueueFull) ◀──  queue    coalesce ≤ B,   rendezvous   one batched     (stream w)
//!   when full            │       wait ≤ T µs     channels     enqueue per
//!                        ▼                                    batch
//!                  depth / high-water                          │
//!                                                              ▼
//!                                             ServerStats: p50/p90/p99, batch
//!                                             histogram, rejects, GR3D, FPS
//! ```
//!
//! * **Backpressure** — the submission queue is bounded.
//!   [`InferenceServer::try_submit`] refuses with [`ServingError::QueueFull`]
//!   when it is full (shed load at admission, the knee in the serving curve);
//!   [`InferenceServer::submit`] blocks instead.
//! * **Dynamic batching** — the batcher coalesces up to
//!   [`ServerConfig::max_batch_size`] queued frames into one batched enqueue
//!   ([`crate::runtime::ExecutionContext::enqueue_batched_inference`]),
//!   paying launch overhead and host glue once per batch instead of once per
//!   frame. [`ServerConfig::batch_timeout_us`] bounds how long a partial
//!   batch waits for stragglers (`0` = never wait, `f64::INFINITY` = only
//!   full batches, which makes a submit-all-then-drain run fully
//!   deterministic).
//! * **Graceful shutdown** — [`InferenceServer::drain`] completes every
//!   accepted frame; [`InferenceServer::abort`] drops what has not started.
//! * **Observability** — [`ServerStats`] carries per-request simulated
//!   latency percentiles (via [`trtsim_metrics::LatencyPercentiles`]), the
//!   batch-size histogram, the queue-depth high-water mark, and the rejected
//!   count. With [`ProfileOptions`] enabled ([`ServerConfig::with_profile`])
//!   each [`RequestRecord`] additionally carries a span-id range joining it
//!   to the exact timeline records that served it, and the stats gain a
//!   per-kernel time breakdown plus the full captured timeline — ready for
//!   `trtsim_profiler`'s chrome-trace export and anomaly detectors.
//! * **Telemetry** — each server owns a [`Registry`] (a fleet replica uses
//!   its fleet's) holding its `trtsim_server_*` and `trtsim_trace_*`
//!   series; [`InferenceServer::registry`] hands it out and the optional
//!   `/metrics` endpoint scrapes it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use trtsim_gpu::device::DeviceSpec;
use trtsim_gpu::tegrastats;
use trtsim_gpu::timeline::{GpuTimeline, SpanSeq, StreamId};
use trtsim_metrics::{LatencyPercentiles, Registry, TelemetryServer};
use trtsim_util::Pcg32;

use crate::engine::Engine;
use crate::predict::{EngineFeatures, LatencyModel, QueueSignals};
use crate::reqtrace::{
    FlightRecorder, TraceCtx, TraceIdGen, TraceOptions, TraceOutcome, TraceSink,
};
use crate::runtime::{ExecutionContext, TimingOptions};
use crate::telemetry::{GpuSampler, ServingMetrics};

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
    /// The server has shut down and no longer accepts frames.
    Stopped,
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
            ServingError::Stopped => write!(f, "server is stopped"),
            ServingError::Telemetry(detail) => {
                write!(f, "telemetry endpoint failed to start: {detail}")
            }
        }
    }
}

impl std::error::Error for ServingError {}

/// Observability knobs for [`InferenceServer`] — what the server keeps
/// around, beyond counters, for post-run trace analysis.
///
/// Span attribution itself (the `span_lo`/`span_hi` range on every
/// [`RequestRecord`]) is always on: it costs two integer reads per batch.
/// These knobs gate the parts with real memory or time cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileOptions {
    /// Keep a clone of the full [`GpuTimeline`] in [`ServerStats::timeline`]
    /// at snapshot/drain time, for chrome-trace export and anomaly detection
    /// (`trtsim-profiler`).
    pub capture_timeline: bool,
    /// Aggregate per-kernel busy time into [`ServerStats::kernel_breakdown`]
    /// so a slow percentile can be attributed to specific kernels.
    pub kernel_breakdown: bool,
}

impl ProfileOptions {
    /// Everything on — what the `trace_export` example and the repro
    /// harnesses use.
    pub fn full() -> Self {
        Self {
            capture_timeline: true,
            kernel_breakdown: true,
        }
    }

    /// Enables timeline capture.
    pub fn with_capture_timeline(mut self, on: bool) -> Self {
        self.capture_timeline = on;
        self
    }

    /// Enables the per-kernel time breakdown.
    pub fn with_kernel_breakdown(mut self, on: bool) -> Self {
        self.kernel_breakdown = on;
        self
    }
}

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
    /// Worker thread count; each worker owns one stream on the shared
    /// timeline (the paper's thread-per-camera pattern).
    pub workers: usize,
    /// Capacity of the bounded submission queue. Admission beyond this
    /// rejects ([`ServingError::QueueFull`]) or blocks.
    pub queue_capacity: usize,
    /// Largest number of frames the dynamic batcher coalesces into one
    /// batched enqueue. `1` disables batching.
    pub max_batch_size: usize,
    /// How long (simulated µs) a partial batch waits for stragglers before
    /// dispatching. `0` never waits; `f64::INFINITY` dispatches full batches
    /// only (deterministic for submit-all-then-drain runs). The wait is
    /// charged to the dispatching stream when it expires.
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
    /// Observability knobs (timeline capture, per-kernel breakdown).
    pub profile: ProfileOptions,
    /// When set, the server binds a [`trtsim_metrics::TelemetryServer`] on
    /// this address (`GET /metrics` Prometheus text, `GET /metrics.json`
    /// snapshot) and runs the tegrastats-style [`GpuSampler`] for the life
    /// of the server. Port 0 picks a free port; see
    /// [`InferenceServer::telemetry_addr`] for the bound address.
    pub telemetry_addr: Option<std::net::SocketAddr>,
    /// Wall-clock cadence of the GPU sampler, milliseconds. Only meaningful
    /// with [`ServerConfig::telemetry_addr`] set.
    pub telemetry_sample_ms: u64,
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
            profile: ProfileOptions::default(),
            telemetry_addr: None,
            telemetry_sample_ms: 50,
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

    /// Sets the observability knobs.
    pub fn with_profile(mut self, profile: ProfileOptions) -> Self {
        self.profile = profile;
        self
    }

    /// Enables the live telemetry endpoint + GPU sampler on `addr`
    /// (e.g. `"127.0.0.1:9090".parse().unwrap()`; port 0 picks a free port).
    pub fn with_telemetry(mut self, addr: std::net::SocketAddr) -> Self {
        self.telemetry_addr = Some(addr);
        self
    }

    /// Sets the GPU sampler cadence, wall-clock milliseconds.
    pub fn with_telemetry_sample_ms(mut self, ms: u64) -> Self {
        self.telemetry_sample_ms = ms;
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
        if self.telemetry_sample_ms == 0 {
            return Err(ServingError::InvalidConfig(
                "telemetry sample period must be at least 1 ms".into(),
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
    /// Sequence number of the batched enqueue that carried it (batcher
    /// dispatch order).
    pub batch: u64,
    /// First span sequence number (inclusive) of the batch's records on the
    /// worker's stream — host waits, H2D, kernels, D2H, glue. With
    /// [`RequestRecord::span_hi`] this is the half-open range that joins a
    /// slow request to the exact timeline records (and chrome-trace spans)
    /// that served it. Per-stream numbering keeps the range deterministic
    /// under the round-robin batcher.
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
    /// Most frames ever waiting in the submission queue.
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
    /// [`ProfileOptions::kernel_breakdown`] is set; empty otherwise.
    pub kernel_breakdown: Vec<KernelTime>,
    /// The run's full simulated timeline. Populated when
    /// [`ProfileOptions::capture_timeline`] is set; feed it to
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

/// A frame travelling from the submit path to the batcher: the caller's
/// frame id plus an optional explicit arrival timestamp. `None` lets the
/// server's own [`ArrivalClock`] assign the timestamp in acceptance order
/// (the legacy behaviour); `Some` carries an externally generated open-loop
/// arrival time, which is how a fleet router replays a shared traffic trace
/// across many servers.
#[derive(Debug, Clone, Copy)]
struct Submission {
    frame: u64,
    arrival_us: Option<f64>,
    /// Queue state sampled at admission, carried through so the predictor's
    /// training examples see exactly the signals a prediction would have.
    signals: QueueSignals,
    /// Request-scoped trace context, minted at admission and carried through
    /// the batcher to the worker that records the completed span tree.
    trace: TraceCtx,
}

/// A frame travelling from the batcher to a worker.
#[derive(Debug, Clone, Copy)]
struct Request {
    frame: u64,
    arrival_us: f64,
    signals: QueueSignals,
    trace: TraceCtx,
}

/// The predictive-scheduling bundle shared by the submit path, the batcher,
/// and the workers: one online model plus the static features of this
/// server's (engine, device) pair.
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

/// A coalesced unit of work for one worker.
#[derive(Debug)]
struct Batch {
    /// Batcher dispatch sequence number (global, not per-worker).
    seq: u64,
    requests: Vec<Request>,
    /// Simulated straggler wait to charge before the enqueue (non-zero only
    /// when the batch closed because `batch_timeout_us` expired).
    waited_us: f64,
}

/// Counters the batcher and workers update as frames move through.
#[derive(Debug)]
struct StatsInner {
    completed: u64,
    dropped: u64,
    deadline_missed: u64,
    batches: u64,
    batch_size_counts: Vec<u64>,
    frames_per_worker: Vec<u64>,
    latencies_us: Vec<f64>,
    completions: Vec<RequestRecord>,
}

/// What a fleet hands each replica it starts: the device's timeline, the
/// fleet-wide latency model (when predictive), one flight recorder and
/// trace-id mint, the fleet's registry, and the replica's `device=` and
/// `tenant=` labels, so two devices serving the same model publish distinct
/// series. A standalone server makes its own of each and has no labels
/// beyond `model=`.
#[derive(Debug)]
pub(crate) struct FleetShared {
    pub(crate) device: Option<String>,
    pub(crate) tenant: Option<String>,
    pub(crate) timeline: Arc<Mutex<GpuTimeline>>,
    pub(crate) model: Option<Arc<LatencyModel>>,
    pub(crate) recorder: Arc<FlightRecorder>,
    pub(crate) idgen: Arc<TraceIdGen>,
    pub(crate) registry: Arc<Registry>,
}

/// A running inference server: worker threads with per-worker streams on one
/// shared simulated timeline, fed through a bounded queue and a dynamic
/// batcher. See the [module docs](self) for the architecture.
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
/// let server = InferenceServer::start(engine, device, config)?;
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
    tx: Option<SyncSender<Submission>>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    timeline: Arc<Mutex<GpuTimeline>>,
    stats: Arc<Mutex<StatsInner>>,
    depth: Arc<AtomicUsize>,
    high_water: Arc<AtomicUsize>,
    /// Batches currently in service across all workers — the live busy
    /// signal the predictor's feature vector reads.
    in_flight: Arc<AtomicUsize>,
    /// Frames that have left the system (served or dropped) — with
    /// `accepted`, gives [`InferenceServer::pending`].
    settled: Arc<AtomicU64>,
    /// Worker stream ids, in worker order — read to compute the
    /// committed-work horizon in [`InferenceServer::queue_signals`].
    streams: Vec<StreamId>,
    accepted: AtomicU64,
    rejected: AtomicU64,
    deadline_rejected: AtomicU64,
    predictor: Option<Arc<Predictor>>,
    abort_flag: Arc<AtomicBool>,
    config: ServerConfig,
    metrics: ServingMetrics,
    /// Where `metrics` and the recorder's counters live.
    registry: Arc<Registry>,
    exporter: Option<TelemetryServer>,
    sampler: Option<GpuSampler>,
    /// Always-on flight recorder holding the retained request traces —
    /// fleet-shared when this server is a replica, private otherwise.
    recorder: Arc<FlightRecorder>,
    /// Mints one deterministic trace id per admitted frame.
    idgen: Arc<TraceIdGen>,
    /// This server's identity (model/device/tenant) stamped on every trace.
    sink: TraceSink,
}

impl InferenceServer {
    /// Validates `config`, spawns the batcher and worker threads, and starts
    /// accepting frames.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::InvalidConfig`] if any knob is out of range.
    pub fn start(
        engine: &Engine,
        device: &DeviceSpec,
        config: ServerConfig,
    ) -> Result<Self, ServingError> {
        Self::start_inner(engine, device, config, None)
    }

    /// Starts a replica on what its fleet shares: the device's timeline
    /// (two replicas on one device genuinely contend for its GPU), the
    /// latency model, the flight recorder and id mint, and the registry.
    pub(crate) fn start_on_timeline(
        engine: &Engine,
        device: &DeviceSpec,
        config: ServerConfig,
        shared: FleetShared,
    ) -> Result<Self, ServingError> {
        Self::start_inner(engine, device, config, Some(shared))
    }

    fn start_inner(
        engine: &Engine,
        device: &DeviceSpec,
        config: ServerConfig,
        shared: Option<FleetShared>,
    ) -> Result<Self, ServingError> {
        config.validate()?;
        // A standalone server owns everything a fleet would share, each
        // derived from the device's timing identity — fully deterministic,
        // no wall clock anywhere in the trace ids or the model seed.
        let FleetShared {
            device: device_label,
            tenant,
            timeline,
            model: shared_model,
            recorder,
            idgen,
            registry,
        } = shared.unwrap_or_else(|| {
            let registry = Arc::new(Registry::new());
            FleetShared {
                device: None,
                tenant: None,
                timeline: Arc::new(Mutex::new(GpuTimeline::new(device.clone()))),
                model: None,
                recorder: Arc::new(FlightRecorder::new(config.trace, &registry)),
                idgen: Arc::new(TraceIdGen::new(trtsim_util::derive_seed(
                    device.timing_fingerprint(),
                    "reqtrace",
                    0,
                ))),
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
            Some(Arc::new(Predictor {
                features: EngineFeatures::measure(engine, device, config.timing.host_glue_us),
                model,
            }))
        } else {
            None
        };
        let (device_label, tenant) = (device_label.as_deref(), tenant.as_deref());
        let metrics = ServingMetrics::register(&registry, engine.name(), device_label, tenant);
        let sink = TraceSink::new(Arc::clone(&recorder), engine.name(), device_label, tenant);
        let engine = engine.clone();
        let streams: Vec<StreamId> = {
            let mut tl = timeline.lock().expect("timeline lock");
            (0..config.workers).map(|_| tl.create_stream()).collect()
        };
        let stats = Arc::new(Mutex::new(StatsInner {
            completed: 0,
            dropped: 0,
            deadline_missed: 0,
            batches: 0,
            batch_size_counts: vec![0; config.max_batch_size],
            frames_per_worker: vec![0; config.workers],
            latencies_us: Vec::new(),
            completions: Vec::new(),
        }));
        let depth = Arc::new(AtomicUsize::new(0));
        let high_water = Arc::new(AtomicUsize::new(0));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let settled = Arc::new(AtomicU64::new(0));
        let abort_flag = Arc::new(AtomicBool::new(false));

        let (tx, submission_rx) = mpsc::sync_channel::<Submission>(config.queue_capacity);
        let mut worker_txs = Vec::with_capacity(config.workers);
        let mut workers = Vec::with_capacity(config.workers);
        for (worker, &stream) in streams.iter().enumerate() {
            // Rendezvous-sized: a worker holds at most one batch in flight,
            // so admission control stays at the submission queue.
            let (batch_tx, batch_rx) = mpsc::sync_channel::<Batch>(1);
            worker_txs.push(batch_tx);
            let engine = engine.clone();
            let device = device.clone();
            let timeline = Arc::clone(&timeline);
            let stats = Arc::clone(&stats);
            let abort_flag = Arc::clone(&abort_flag);
            let timing = config.timing;
            let metrics = metrics.clone();
            let predictor = predictor.clone();
            let in_flight = Arc::clone(&in_flight);
            let settled = Arc::clone(&settled);
            let deadline_us = config.deadline_us;
            let sink = sink.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(
                    &engine,
                    device,
                    &timeline,
                    stream,
                    &timing,
                    &batch_rx,
                    &stats,
                    &abort_flag,
                    worker,
                    &metrics,
                    predictor.as_deref(),
                    &in_flight,
                    &settled,
                    deadline_us,
                    &sink,
                );
            }));
        }
        let batcher = {
            let depth = Arc::clone(&depth);
            let high_water = Arc::clone(&high_water);
            let max_batch = config.max_batch_size;
            let queue_capacity = config.queue_capacity;
            let batch_timeout_us = config.batch_timeout_us;
            let arrivals = ArrivalClock::new(config.arrival_period_us, config.arrival_process);
            let metrics = metrics.clone();
            let predictor = predictor.clone();
            let in_flight = Arc::clone(&in_flight);
            // SLO sizing only applies where this server batches predictively;
            // a fleet-shared model without a local deadline leaves it off.
            let deadline_us = if config.predictive {
                config.deadline_us
            } else {
                0.0
            };
            std::thread::spawn(move || {
                batcher_loop(
                    &submission_rx,
                    &worker_txs,
                    max_batch,
                    queue_capacity,
                    batch_timeout_us,
                    arrivals,
                    &depth,
                    &high_water,
                    &metrics,
                    predictor.as_deref(),
                    &in_flight,
                    deadline_us,
                );
            })
        };

        let (exporter, sampler) = match config.telemetry_addr {
            Some(addr) => {
                let exporter = TelemetryServer::bind_with_routes(
                    addr,
                    Arc::clone(&registry),
                    recorder.route_handler(),
                )
                .map_err(|e| ServingError::Telemetry(format!("bind {addr}: {e}")))?;
                let sampler = GpuSampler::spawn(
                    Arc::clone(&timeline),
                    Arc::clone(&registry),
                    Duration::from_millis(config.telemetry_sample_ms),
                );
                (Some(exporter), Some(sampler))
            }
            None => (None, None),
        };

        Ok(Self {
            tx: Some(tx),
            batcher: Some(batcher),
            workers,
            timeline,
            stats,
            depth,
            high_water,
            in_flight,
            settled,
            streams,
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            deadline_rejected: AtomicU64::new(0),
            predictor,
            abort_flag,
            config,
            metrics,
            registry,
            exporter,
            sampler,
            recorder,
            idgen,
            sink,
        })
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

    /// Submits a frame without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::QueueFull`] when the bounded queue is at
    /// capacity (the rejection is counted in [`ServerStats::rejected`]), or
    /// [`ServingError::Stopped`] after shutdown.
    pub fn try_submit(&self, frame: u64) -> Result<(), ServingError> {
        self.try_submit_inner(frame, None)
    }

    /// Submits a frame without blocking, carrying an explicit simulated
    /// arrival timestamp instead of drawing one from the server's own
    /// arrival clock — the open-loop path a fleet router uses to replay one
    /// shared traffic trace across many devices.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::QueueFull`] when the bounded queue is at
    /// capacity, or [`ServingError::Stopped`] after shutdown.
    pub fn try_submit_at(&self, frame: u64, arrival_us: f64) -> Result<(), ServingError> {
        self.try_submit_inner(frame, Some(arrival_us))
    }

    /// Live queue state as the predictor's feature vector reads it: backlog
    /// depth, the fraction of workers currently serving a batch, and the
    /// committed-work horizon — how far past `arrival_us` (or past the
    /// device's own clock when `None`) the earliest-free worker stream is
    /// already booked. Depth is a noisy *proxy* for waiting time; the
    /// horizon is the waiting time itself, read off the dispatch ledger the
    /// same way a real runtime knows when each enqueued batch retires.
    pub(crate) fn queue_signals(&self, arrival_us: Option<f64>) -> QueueSignals {
        let committed = {
            let tl = self.timeline.lock().expect("timeline lock");
            let earliest_free = self
                .streams
                .iter()
                .map(|&stream| tl.sync(stream))
                .fold(f64::INFINITY, f64::min);
            let reference = arrival_us.unwrap_or_else(|| tl.elapsed_us());
            (earliest_free - reference).max(0.0)
        };
        QueueSignals::new(
            self.depth.load(Ordering::SeqCst) as f64 / self.config.workers as f64,
            self.in_flight.load(Ordering::SeqCst) as f64 / self.config.workers as f64,
        )
        .with_committed_us(committed)
    }

    /// Deadline-based admission: refuse a frame when the warm model predicts
    /// that even best-case batch-1 service lands past the deadline. Cold
    /// models admit everything (fallback to plain queue-bound admission).
    fn admit(&self, signals: &QueueSignals, trace: &mut TraceCtx) -> Result<(), ServingError> {
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
                    self.deadline_rejected.fetch_add(1, Ordering::Relaxed);
                    self.metrics.deadline_rejected.inc();
                    return Err(ServingError::DeadlineUnmeetable);
                }
            }
        }
        Ok(())
    }

    /// Fleet entry point: submit with a router-minted trace context (score
    /// and predictions already stamped) and the queue signals the router
    /// priced this replica under, instead of minting and reading fresh
    /// ones. A refusal here records no trace — the router may still place
    /// the frame on another replica, and it records the single rejection
    /// trace itself only when every replica refuses.
    pub(crate) fn try_submit_traced(
        &self,
        frame: u64,
        arrival_us: f64,
        signals: QueueSignals,
        trace: TraceCtx,
    ) -> Result<(), ServingError> {
        self.try_submit_with(frame, Some(arrival_us), signals, trace, false)
    }

    fn try_submit_inner(&self, frame: u64, arrival_us: Option<f64>) -> Result<(), ServingError> {
        self.try_submit_with(
            frame,
            arrival_us,
            self.queue_signals(arrival_us),
            TraceCtx::new(self.idgen.mint()),
            true,
        )
    }

    fn try_submit_with(
        &self,
        frame: u64,
        arrival_us: Option<f64>,
        signals: QueueSignals,
        mut trace: TraceCtx,
        record_rejects: bool,
    ) -> Result<(), ServingError> {
        let tx = self.tx.as_ref().ok_or(ServingError::Stopped)?;
        if let Err(e) = self.admit(&signals, &mut trace) {
            if record_rejects {
                self.sink.record_rejected(
                    trace,
                    frame,
                    arrival_us.unwrap_or(0.0),
                    TraceOutcome::DeadlineRejected,
                );
            }
            return Err(e);
        }
        let submission = Submission {
            frame,
            arrival_us,
            signals,
            trace,
        };
        // SeqCst on depth/high-water: the submit-side increment, the
        // batcher-side decrement, and both fetch_max calls must observe one
        // total order, or a max recorded on one side can miss a depth the
        // other side reached. Plain event counters (accepted/rejected) stay
        // Relaxed — they are only read after thread join (drain/abort) or as
        // monotone progress hints (live stats()).
        let depth_now = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        match tx.try_send(submission) {
            Ok(()) => {
                self.note_accepted(depth_now);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                self.metrics.rejected.inc();
                if record_rejects {
                    self.sink.record_rejected(
                        trace,
                        frame,
                        arrival_us.unwrap_or(0.0),
                        TraceOutcome::QueueRejected,
                    );
                }
                Err(ServingError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                Err(ServingError::Stopped)
            }
        }
    }

    /// Counts an accepted frame and records the queue depth it saw.
    /// `depth_now` was taken when the frame reserved its slot; the batcher
    /// may have popped frames since, and a concurrent submit may have
    /// reserved one it will not get, so the high-water mark is clamped to
    /// what the queue can hold plus the frame the batcher has in hand.
    fn note_accepted(&self, depth_now: usize) {
        let depth_now = depth_now.min(self.config.queue_capacity + 1);
        let prev_max = self.high_water.fetch_max(depth_now, Ordering::SeqCst);
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.metrics.accepted.inc();
        self.metrics.queue_depth.set(depth_now as f64);
        self.metrics
            .queue_high_water
            .set(prev_max.max(depth_now) as f64);
    }

    /// Submits a frame, blocking while the bounded queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::Stopped`] after shutdown.
    pub fn submit(&self, frame: u64) -> Result<(), ServingError> {
        let tx = self.tx.as_ref().ok_or(ServingError::Stopped)?;
        let signals = self.queue_signals(None);
        let depth_now = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        match tx.send(Submission {
            frame,
            arrival_us: None,
            signals,
            trace: TraceCtx::new(self.idgen.mint()),
        }) {
            Ok(()) => {
                self.note_accepted(depth_now);
                Ok(())
            }
            Err(_) => {
                self.depth.fetch_sub(1, Ordering::SeqCst);
                Err(ServingError::Stopped)
            }
        }
    }

    /// The configuration this server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Frames accepted but not yet out of the system: queued, held by the
    /// batcher, or in service. A paced open-loop driver polls this to know
    /// whether the simulated clock can still advance on its own.
    pub fn pending(&self) -> usize {
        let accepted = self.accepted.load(Ordering::SeqCst);
        let settled = self.settled.load(Ordering::SeqCst);
        accepted.saturating_sub(settled) as usize
    }

    /// Frames currently waiting in the submission queue — the live backlog
    /// signal a fleet router's least-loaded dispatch reads.
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
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

    /// A live snapshot of the counters and simulated-time metrics. Cheap
    /// enough to poll; the final numbers come from [`InferenceServer::drain`].
    pub fn stats(&self) -> ServerStats {
        self.snapshot()
    }

    /// Stops admission and waits until every accepted frame is served, then
    /// reports the final statistics.
    pub fn drain(mut self) -> ServerStats {
        self.shutdown(false)
    }

    /// Stops admission and discards accepted frames whose batch has not
    /// started; in-flight batches finish. Dropped frames are counted in
    /// [`ServerStats::dropped`].
    pub fn abort(mut self) -> ServerStats {
        self.shutdown(true)
    }

    fn shutdown(&mut self, abort: bool) -> ServerStats {
        if abort {
            self.abort_flag.store(true, Ordering::Relaxed);
        }
        // Closing the submission channel unwinds the pipeline: the batcher
        // flushes what is queued and exits, the worker channels close, the
        // workers finish their last batches and exit.
        self.tx.take();
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // One final GPU sample over the completed timeline, then stop the
        // scrape endpoint (dropping it joins its accept thread).
        if let Some(mut sampler) = self.sampler.take() {
            sampler.stop();
        }
        self.exporter.take();
        self.snapshot()
    }

    fn snapshot(&self) -> ServerStats {
        // Lock order: timeline strictly before stats (workers release the
        // timeline before touching stats, so this cannot deadlock them).
        let (elapsed_us, gr3d_percent, kernel_breakdown, timeline) = {
            let tl = self.timeline.lock().expect("timeline lock");
            let breakdown = if self.config.profile.kernel_breakdown {
                kernel_breakdown(&tl)
            } else {
                Vec::new()
            };
            let captured = self.config.profile.capture_timeline.then(|| tl.clone());
            (
                tl.elapsed_us(),
                tegrastats::mean_gr3d_percent(&tl),
                breakdown,
                captured,
            )
        };
        let st = self.stats.lock().expect("stats lock");
        let simulated_seconds = elapsed_us / 1e6;
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
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: st.completed,
            dropped: st.dropped,
            rejected: self.rejected.load(Ordering::Relaxed),
            deadline_missed: st.deadline_missed,
            deadline_rejected: self.deadline_rejected.load(Ordering::Relaxed),
            batches: st.batches,
            batch_size_counts: st.batch_size_counts.clone(),
            queue_high_water: self.high_water.load(Ordering::Relaxed),
            latency: LatencyPercentiles::from_runs_us(&st.latencies_us),
            simulated_seconds,
            aggregate_fps: st.completed as f64 / simulated_seconds.max(1e-12),
            gr3d_percent,
            frames_per_worker: st.frames_per_worker.clone(),
            completions: st.completions.clone(),
            kernel_breakdown,
            timeline,
        }
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

/// Simulated arrival clock: hands out the arrival timestamp for each
/// accepted frame in submission order.
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

/// Coalesces queued frames into batches and hands them to workers
/// round-robin (deterministic stream assignment).
#[allow(clippy::too_many_arguments)]
fn batcher_loop(
    rx: &Receiver<Submission>,
    worker_txs: &[SyncSender<Batch>],
    max_batch: usize,
    queue_capacity: usize,
    batch_timeout_us: f64,
    mut arrivals: ArrivalClock,
    depth: &AtomicUsize,
    high_water: &AtomicUsize,
    metrics: &ServingMetrics,
    predictor: Option<&Predictor>,
    in_flight: &AtomicUsize,
    deadline_us: f64,
) {
    let mut next_worker = 0usize;
    let mut batch_seq = 0u64;
    let take = |submission: Submission, arrivals: &mut ArrivalClock| {
        // Record the high-water mark *before* decrementing: frames that
        // accumulated while the batcher was parked in recv()/recv_timeout()
        // or blocked on a full worker rendezvous were never observed by the
        // submit path alone (a submit may have recorded a smaller depth
        // before this pop, then raced with other submits), so the coalesce
        // point is the second place the true maximum can surface. A submit
        // whose `try_send` is about to fail has already bumped `depth` for a
        // frame that never enters the queue; the queue plus the frame in hand
        // never exceeds `queue_capacity + 1`, so that transient is clamped
        // out.
        let observed = depth.load(Ordering::SeqCst).min(queue_capacity + 1);
        let prev_max = high_water.fetch_max(observed, Ordering::SeqCst);
        let remaining = depth.fetch_sub(1, Ordering::SeqCst).saturating_sub(1);
        metrics.queue_depth.set(remaining as f64);
        metrics.queue_high_water.set(prev_max.max(observed) as f64);
        Request {
            frame: submission.frame,
            // Explicit open-loop timestamps bypass the per-server clock so a
            // fleet-wide trace keeps one coherent time axis.
            arrival_us: submission.arrival_us.unwrap_or_else(|| arrivals.next()),
            signals: submission.signals,
            trace: submission.trace,
        }
    };
    loop {
        let first = match rx.recv() {
            Ok(submission) => submission,
            Err(_) => return,
        };
        // SLO-aware fill target: under a deadline, the largest batch whose
        // predicted p99 still lands inside it given the load the batcher
        // sees right now. The target governs ONLY the straggler wait below —
        // frames already sitting in the queue are always coalesced up to the
        // static cap, because batch service time is sublinear in size:
        // truncating a batch below the live backlog would serialize frames
        // that a single launch could have carried, burning drain rate
        // exactly when the queue is growing. A cold model (or no deadline)
        // leaves the static behavior alone.
        let fill_target = match predictor {
            Some(p) if deadline_us > 0.0 && depth.load(Ordering::SeqCst) < max_batch => p
                .slo_batch_cap(
                    max_batch,
                    deadline_us,
                    &QueueSignals::new(
                        depth.load(Ordering::SeqCst) as f64 / worker_txs.len() as f64,
                        in_flight.load(Ordering::SeqCst) as f64 / worker_txs.len() as f64,
                    ),
                ),
            _ => max_batch,
        };
        let mut requests = vec![take(first, &mut arrivals)];
        let mut waited_us = 0.0;
        while requests.len() < max_batch {
            match rx.try_recv() {
                Ok(submission) => requests.push(take(submission, &mut arrivals)),
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {
                    // The queue is drained. Waiting out the batching window
                    // for stragglers is a latency gamble the predictor can
                    // price: once the batch already holds `fill_target`
                    // frames, the predicted p99 of a *larger* batch overruns
                    // the deadline, so close early instead of waiting.
                    if requests.len() >= fill_target || batch_timeout_us == 0.0 {
                        break;
                    } else if batch_timeout_us.is_infinite() {
                        match rx.recv() {
                            Ok(submission) => requests.push(take(submission, &mut arrivals)),
                            Err(_) => break,
                        }
                    } else {
                        match rx.recv_timeout(Duration::from_micros(batch_timeout_us as u64)) {
                            Ok(submission) => requests.push(take(submission, &mut arrivals)),
                            Err(RecvTimeoutError::Timeout) => {
                                waited_us = batch_timeout_us;
                                break;
                            }
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    }
                }
            }
        }
        if worker_txs[next_worker]
            .send(Batch {
                seq: batch_seq,
                requests,
                waited_us,
            })
            .is_err()
        {
            return;
        }
        batch_seq += 1;
        next_worker = (next_worker + 1) % worker_txs.len();
    }
}

/// Serves batches on one worker's stream until the batcher hangs up.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    engine: &Engine,
    device: DeviceSpec,
    timeline: &Mutex<GpuTimeline>,
    stream: StreamId,
    timing: &TimingOptions,
    batches: &Receiver<Batch>,
    stats: &Mutex<StatsInner>,
    abort_flag: &AtomicBool,
    worker: usize,
    metrics: &ServingMetrics,
    predictor: Option<&Predictor>,
    in_flight: &AtomicUsize,
    settled: &AtomicU64,
    deadline_us: f64,
    sink: &TraceSink,
) {
    let ctx = ExecutionContext::new(engine, device);
    while let Ok(batch) = batches.recv() {
        let size = batch.requests.len();
        if abort_flag.load(Ordering::Relaxed) {
            stats.lock().expect("stats lock").dropped += size as u64;
            metrics.dropped.add(size as u64);
            for request in &batch.requests {
                sink.record_dropped(request.trace, request.frame, request.arrival_us);
            }
            settled.fetch_add(size as u64, Ordering::SeqCst);
            continue;
        }
        in_flight.fetch_add(1, Ordering::SeqCst);
        let (done_us, span_lo, span_hi, exec_start_us) = {
            let mut tl = timeline.lock().expect("timeline lock");
            let span_lo = tl.next_seq(stream);
            // Open-loop arrival gating: service cannot begin before the last
            // frame of the batch exists on the simulated clock. Without this
            // idle wait a bursty trace and a steady one serve identically
            // (arrival pattern would only shape reported queueing latency,
            // never throughput). Closed-loop runs, whose arrivals trail the
            // stream cursor, are bit-identical with or without the gate.
            let arrival = batch
                .requests
                .iter()
                .map(|r| r.arrival_us)
                .fold(f64::NEG_INFINITY, f64::max);
            let front = tl.sync(stream);
            if arrival > front {
                tl.host_span(stream, "arrival_wait", arrival - front);
            }
            if batch.waited_us > 0.0 {
                tl.host_span(stream, "batch_wait", batch.waited_us);
            }
            // Where batched execution begins on the stream: queueing ends at
            // max(front, arrival), then the straggler wait is charged. The
            // trace's replica_queue/batch_wait/execute phases split on this.
            let exec_start_us = front.max(arrival) + batch.waited_us;
            let done_us = ctx.enqueue_batched_inference(&mut tl, stream, timing, size);
            (done_us, span_lo, tl.next_seq(stream), exec_start_us)
            // Timeline lock released here, before the stats lock, keeping
            // the snapshot path's timeline→stats order deadlock-free.
        };
        metrics.completed.add(size as u64);
        metrics.batches.inc();
        metrics.batch_size.observe(size as f64);
        let mut st = stats.lock().expect("stats lock");
        st.completed += size as u64;
        st.batches += 1;
        st.batch_size_counts[size - 1] += 1;
        st.frames_per_worker[worker] += size as u64;
        for request in &batch.requests {
            let latency_us = (done_us - request.arrival_us).max(0.0);
            let missed = deadline_us > 0.0 && latency_us > deadline_us;
            let retained = sink.record_completed(
                request.trace,
                request.frame,
                request.arrival_us,
                done_us,
                exec_start_us,
                batch.waited_us,
                worker,
                stream,
                batch.seq,
                size,
                span_lo,
                span_hi,
                missed,
            );
            // A retained trace becomes the exemplar on its latency bucket,
            // so a scrape can jump from a slow histogram bucket straight to
            // the span tree that produced it.
            if retained {
                metrics
                    .latency_us
                    .observe_with_exemplar(latency_us, &request.trace.id.to_string());
            } else {
                metrics.latency_us.observe(latency_us);
            }
            st.latencies_us.push(latency_us);
            if missed {
                st.deadline_missed += 1;
                metrics.deadline_missed.inc();
            }
            // Prequential training: each completion becomes an example under
            // the exact queue signals its admission-time prediction saw.
            if let Some(p) = predictor {
                p.model
                    .observe(&p.features, size, &request.signals, latency_us);
            }
            st.completions.push(RequestRecord {
                frame: request.frame,
                worker,
                batch: batch.seq,
                span_lo,
                span_hi,
                arrival_us: request.arrival_us,
                done_us,
            });
        }
        drop(st);
        settled.fetch_add(size as u64, Ordering::SeqCst);
        in_flight.fetch_sub(1, Ordering::SeqCst);
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
        let server = InferenceServer::start(e, &DeviceSpec::xavier_nx(), config).unwrap();
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
            (base.with_telemetry_sample_ms(0), "telemetry sample"),
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
        let server = InferenceServer::start(
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
            let server = InferenceServer::start(
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
        let server = InferenceServer::start(
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
        assert!(rejected > 0, "a 2-deep queue absorbed 10k instant frames");
        let stats = server.drain();
        assert_eq!(stats.accepted, accepted);
        assert_eq!(stats.completed, accepted);
        assert_eq!(stats.rejected, rejected);
        assert!(stats.queue_high_water >= 2);
    }

    #[test]
    fn abort_drops_unstarted_frames() {
        let e = engine();
        let server = InferenceServer::start(
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
        let server = InferenceServer::start(
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
        // Regression: the high-water mark used to be sampled only on the
        // submit path, so frames that piled up while the batcher was parked
        // on a full worker rendezvous were never counted. Every frame in a
        // timeout-0 batch was in the queue simultaneously when the batch
        // formed, so the coalesce-point sample must cover the largest batch.
        let e = engine();
        let server = InferenceServer::start(
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
        assert!(
            stats.queue_high_water >= largest_batch,
            "high water {} below largest coalesced batch {}",
            stats.queue_high_water,
            largest_batch
        );
    }

    #[test]
    fn profile_options_capture_timeline_and_breakdown() {
        let e = engine();
        let server = InferenceServer::start(
            &e,
            &DeviceSpec::xavier_nx(),
            ServerConfig::default()
                .with_workers(4)
                .with_queue_capacity(32)
                .with_max_batch_size(4)
                .with_batch_timeout_us(f64::INFINITY)
                .with_timing(opts())
                .with_profile(ProfileOptions::full()),
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
        let server = InferenceServer::start(
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
    fn errors_display_and_are_std_errors() {
        let err: Box<dyn std::error::Error> = Box::new(ServingError::QueueFull);
        assert!(err.to_string().contains("full"));
        assert!(ServingError::Stopped.to_string().contains("stopped"));
    }
}
