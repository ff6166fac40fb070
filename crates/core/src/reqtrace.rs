//! Request-scoped tracing: one span tree per request, from fleet admission
//! to drain, retained in an always-on flight recorder.
//!
//! The serving metrics (DESIGN §10) answer *aggregate* questions — p99 over
//! a window, reject rate per tenant. When one request misses its deadline
//! the aggregates cannot say *where the time went*: router queue? batch
//! wait? a slow device? This module answers that per-request question the
//! way production tracing systems do, without perturbing the simulation:
//!
//! * **Trace context** — a [`TraceId`] minted at admission from a seeded
//!   deterministic counter (no wall clock, no global RNG), carried through
//!   router → replica queue → batch dispatch → stream → `GpuTimeline`.
//!   Ids are unique per generator and reproducible per seed.
//! * **Span tree** — every completed request yields a [`RequestTrace`]
//!   whose [`PhaseSpan`]s partition its end-to-end latency exactly:
//!   `replica_queue + batch_wait + execute = done_us - arrival_us`, with
//!   zero-length `admission` / `router_queue` / `drain` markers bounding
//!   the tree. The `span_lo..span_hi` range joins the trace to the raw
//!   timeline records (and the chrome export) exactly like
//!   [`crate::serving::RequestRecord`].
//! * **Flight recorder** — a fixed-capacity ring of recent traces with
//!   *tail-based* retention: deadline-missed, deadline-rejected, dropped,
//!   and slowest-decile traces are pinned (always kept, evicted only when
//!   the ring holds nothing but pinned traces); ordinary completions are
//!   sampled 1-in-N by a deterministic counter. `GET /traces` and
//!   `GET /traces/<id>` on the telemetry endpoint serve the ring, and
//!   `GET /traces/<id>/chrome` renders one request as a chrome://tracing
//!   document.
//! * **Exemplars** — when a trace is retained, its id is attached to the
//!   `trtsim_server_latency_us` histogram bucket its latency landed in
//!   (OpenMetrics exemplar syntax), so a dashboard's p99 bucket links
//!   straight to an explaining trace.
//!
//! Recorder activity is counted once, in
//! `trtsim_trace_{recorded,retained,sampled,evicted}_total` counters the
//! recorder registers in its owner's registry (the server's or the
//! fleet's); the recorder's accessors read those same counters.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use trtsim_gpu::timeline::SpanSeq;
use trtsim_metrics::{json_string, Counter, Registry};
use trtsim_util::derive_seed;

/// A request-scoped trace identifier: 64 bits, rendered as 16 lowercase hex
/// digits. Minted by [`TraceIdGen`]; unique per generator, deterministic
/// per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// The raw 64-bit id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl FromStr for TraceId {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        u64::from_str_radix(s, 16).map(TraceId)
    }
}

/// Deterministic trace-id mint: a relaxed counter whitened through a
/// seed-derived base, so ids look unrelated across requests yet replay
/// bit-identically for a given seed. No wall clock, no shared RNG — the
/// simulated clock and the engines' seeded numerics are untouched.
#[derive(Debug)]
pub struct TraceIdGen {
    base: u64,
    next: AtomicU64,
}

impl TraceIdGen {
    /// A generator whose id sequence is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            base: derive_seed(seed, "reqtrace", 0),
            next: AtomicU64::new(0),
        }
    }

    /// Mints the next id. `xor` with an odd-multiplier sequence is a
    /// bijection on `u64`, so ids never collide within one generator.
    pub fn mint(&self) -> TraceId {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        TraceId(self.base ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// Flight-recorder knobs, carried by `ServerConfig` and `FleetConfig`.
/// Tracing is always on by default: the recorder's cost is one mutex take
/// per *completed* request, far off the enqueue hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOptions {
    /// When false, the recorder counts nothing and retains nothing.
    pub enabled: bool,
    /// Ring capacity in traces. Tail traces (deadline-missed, rejected,
    /// dropped, slowest-decile) are evicted only when the ring holds
    /// nothing but tail traces, so the "every deadline miss survives"
    /// guarantee holds while misses in flight stay under this bound.
    pub capacity: usize,
    /// Ordinary (non-tail) completions are retained 1-in-N by a
    /// deterministic counter; `1` keeps everything.
    pub sample_every: u64,
}

impl Default for TraceOptions {
    fn default() -> Self {
        Self {
            enabled: true,
            capacity: 256,
            sample_every: 16,
        }
    }
}

impl TraceOptions {
    /// Turns the recorder on or off.
    pub fn with_enabled(mut self, on: bool) -> Self {
        self.enabled = on;
        self
    }

    /// Sets the ring capacity (must be ≥ 1; validated by `ServerConfig`).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the 1-in-N sampling period for non-tail traces (must be ≥ 1).
    pub fn with_sample_every(mut self, n: u64) -> Self {
        self.sample_every = n;
        self
    }
}

/// The per-request context that rides a frame through the queue and its
/// batch to the completion event: the id plus router-time attributes.
/// `Copy` so the queued `Request` stays `Copy`; NaN marks an attribute the
/// submit path could not know (no router, cold predictor).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceCtx {
    pub(crate) id: TraceId,
    /// The chosen replica's dispatch score (NaN outside a fleet).
    pub(crate) router_score: f64,
    /// Predicted p50 latency at admission, µs (NaN when unpredicted).
    pub(crate) predicted_p50_us: f64,
    /// Predicted p99 latency at admission, µs (NaN when unpredicted).
    pub(crate) predicted_p99_us: f64,
}

impl TraceCtx {
    pub(crate) fn new(id: TraceId) -> Self {
        Self {
            id,
            router_score: f64::NAN,
            predicted_p50_us: f64::NAN,
            predicted_p99_us: f64::NAN,
        }
    }
}

/// The phases of a request's life, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseKind {
    /// Admission decision (zero-length marker at arrival).
    Admission,
    /// Router scoring/dispatch (zero-length marker: routing is synchronous
    /// in simulated time).
    RouterQueue,
    /// Waiting in the replica's bounded submission queue and for the
    /// assigned stream's backlog to clear.
    ReplicaQueue,
    /// Held by the dynamic batcher waiting for the batch to fill.
    BatchWait,
    /// Batched execution on the device (H2D, kernels, D2H, host glue).
    Execute,
    /// Completion bookkeeping (zero-length marker at done).
    Drain,
}

impl PhaseKind {
    /// Stable snake_case name used in JSON and chrome exports.
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseKind::Admission => "admission",
            PhaseKind::RouterQueue => "router_queue",
            PhaseKind::ReplicaQueue => "replica_queue",
            PhaseKind::BatchWait => "batch_wait",
            PhaseKind::Execute => "execute",
            PhaseKind::Drain => "drain",
        }
    }
}

/// One phase of one request on the simulated clock: `[start_us, end_us]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpan {
    /// Which pipeline phase this span covers.
    pub kind: PhaseKind,
    /// Phase start on the simulated clock, µs.
    pub start_us: f64,
    /// Phase end on the simulated clock, µs (≥ `start_us`).
    pub end_us: f64,
}

impl PhaseSpan {
    fn new(kind: PhaseKind, start_us: f64, end_us: f64) -> Self {
        Self {
            kind,
            start_us,
            end_us,
        }
    }

    /// The span's length, µs.
    pub fn duration_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

/// How a traced request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Served to completion.
    Completed {
        /// True when end-to-end latency exceeded the configured deadline.
        deadline_missed: bool,
    },
    /// Accepted but discarded by `abort()` before execution.
    Dropped,
    /// Refused at admission: the predictor said the deadline was
    /// unmeetable (solo server) or every replica was deadline-blocked
    /// (fleet).
    DeadlineRejected,
    /// Refused because the submission queue (or every replica's queue) was
    /// full.
    QueueRejected,
}

impl TraceOutcome {
    /// Stable snake_case name used in JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Completed { .. } => "completed",
            TraceOutcome::Dropped => "dropped",
            TraceOutcome::DeadlineRejected => "deadline_rejected",
            TraceOutcome::QueueRejected => "queue_rejected",
        }
    }

    /// Tail outcomes are pinned in the flight recorder: anything other
    /// than an in-deadline completion.
    pub fn is_tail(self) -> bool {
        !matches!(
            self,
            TraceOutcome::Completed {
                deadline_missed: false
            }
        )
    }

    /// True for `Completed` with the deadline missed.
    pub fn deadline_missed(self) -> bool {
        matches!(
            self,
            TraceOutcome::Completed {
                deadline_missed: true
            }
        )
    }
}

/// One request's complete trace: identity, placement, span tree, and
/// predicted-vs-actual attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// The request's trace id.
    pub id: TraceId,
    /// Caller-assigned frame id.
    pub frame: u64,
    /// Engine (model) name.
    pub model: Arc<str>,
    /// Fleet device name, when the server is a fleet replica.
    pub device: Option<Arc<str>>,
    /// Tenant label, when the replica is tenant-dedicated.
    pub tenant: Option<Arc<str>>,
    /// Worker (stream index) that served the request (None when rejected).
    pub worker: Option<usize>,
    /// Stream the batch executed on (None when rejected).
    pub stream: Option<usize>,
    /// The dynamic batcher's batch sequence number (None when rejected).
    pub batch_seq: Option<u64>,
    /// Frames in the request's batch (None when rejected).
    pub batch_size: Option<usize>,
    /// First timeline span id of the batch (half-open range with
    /// `span_hi`), the join key into `GpuTimeline` records and the
    /// chrome export — `None` when the request never reached a stream.
    pub span_lo: Option<SpanSeq>,
    /// One past the last timeline span id of the batch.
    pub span_hi: Option<SpanSeq>,
    /// Arrival on the simulated clock, µs.
    pub arrival_us: f64,
    /// Completion on the simulated clock, µs (= `arrival_us` for traces
    /// that never executed).
    pub done_us: f64,
    /// How the request left the system.
    pub outcome: TraceOutcome,
    /// The span tree: monotone, non-overlapping, covering
    /// `[arrival_us, done_us]` exactly.
    pub phases: Vec<PhaseSpan>,
    /// The chosen replica's dispatch score (NaN outside a fleet).
    pub router_score: f64,
    /// Predicted p50 latency at admission, µs (NaN when unpredicted).
    pub predicted_p50_us: f64,
    /// Predicted p99 latency at admission, µs (NaN when unpredicted).
    pub predicted_p99_us: f64,
}

impl RequestTrace {
    /// End-to-end latency, µs.
    pub fn latency_us(&self) -> f64 {
        (self.done_us - self.arrival_us).max(0.0)
    }

    /// Signed predicted-vs-actual error of the admission-time p50
    /// prediction, percent of actual. NaN when the request carried no
    /// prediction or never completed.
    pub fn prediction_error_percent(&self) -> f64 {
        let actual = self.latency_us();
        if !matches!(self.outcome, TraceOutcome::Completed { .. })
            || !self.predicted_p50_us.is_finite()
            || actual <= 0.0
        {
            return f64::NAN;
        }
        (self.predicted_p50_us - actual) / actual * 100.0
    }

    /// Sum of the phase durations, µs. Equals [`latency_us`] for every
    /// recorded trace (the conservation invariant the proptests pin).
    ///
    /// [`latency_us`]: RequestTrace::latency_us
    pub fn phase_sum_us(&self) -> f64 {
        self.phases.iter().map(PhaseSpan::duration_us).sum()
    }

    /// One-line JSON summary (id, outcome, latency) for the `/traces`
    /// index.
    fn summary_json(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"frame\":{},\"model\":{},\"outcome\":\"{}\",\"deadline_missed\":{},\"latency_us\":{},\"phase_sum_us\":{}}}",
            self.id,
            self.frame,
            json_string(&self.model),
            self.outcome.as_str(),
            self.outcome.deadline_missed(),
            json_f64(self.latency_us()),
            json_f64(self.phase_sum_us()),
        )
    }

    /// The full trace as a JSON object: identity, placement, attributes,
    /// and the phase spans. Non-finite attributes render as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"id\":\"{}\",", self.id));
        out.push_str(&format!("\"frame\":{},", self.frame));
        out.push_str(&format!("\"model\":{},", json_string(&self.model)));
        out.push_str(&format!(
            "\"device\":{},",
            json_opt_string(self.device.as_deref())
        ));
        out.push_str(&format!(
            "\"tenant\":{},",
            json_opt_string(self.tenant.as_deref())
        ));
        out.push_str(&format!(
            "\"worker\":{},",
            json_opt_u64(self.worker.map(|v| v as u64))
        ));
        out.push_str(&format!(
            "\"stream\":{},",
            json_opt_u64(self.stream.map(|v| v as u64))
        ));
        out.push_str(&format!("\"batch_seq\":{},", json_opt_u64(self.batch_seq)));
        out.push_str(&format!(
            "\"batch_size\":{},",
            json_opt_u64(self.batch_size.map(|v| v as u64))
        ));
        out.push_str(&format!("\"span_lo\":{},", json_opt_u64(self.span_lo)));
        out.push_str(&format!("\"span_hi\":{},", json_opt_u64(self.span_hi)));
        out.push_str(&format!("\"arrival_us\":{},", json_f64(self.arrival_us)));
        out.push_str(&format!("\"done_us\":{},", json_f64(self.done_us)));
        out.push_str(&format!("\"latency_us\":{},", json_f64(self.latency_us())));
        out.push_str(&format!("\"outcome\":\"{}\",", self.outcome.as_str()));
        out.push_str(&format!(
            "\"deadline_missed\":{},",
            self.outcome.deadline_missed()
        ));
        out.push_str(&format!(
            "\"router_score\":{},",
            json_f64(self.router_score)
        ));
        out.push_str(&format!(
            "\"predicted_p50_us\":{},",
            json_f64(self.predicted_p50_us)
        ));
        out.push_str(&format!(
            "\"predicted_p99_us\":{},",
            json_f64(self.predicted_p99_us)
        ));
        out.push_str(&format!(
            "\"prediction_error_percent\":{},",
            json_f64(self.prediction_error_percent())
        ));
        out.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"phase\":\"{}\",\"start_us\":{},\"end_us\":{},\"duration_us\":{}}}",
                p.kind.as_str(),
                json_f64(p.start_us),
                json_f64(p.end_us),
                json_f64(p.duration_us()),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Renders a set of traces as one JSON array of full trace objects —
/// the `scenario run --trace-out` dump format.
pub fn traces_json(traces: &[RequestTrace]) -> String {
    let mut out = String::from("[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&t.to_json());
    }
    out.push_str("\n]\n");
    out
}

/// Renders traces as one chrome://tracing document, stitching spans across
/// device timelines: one process (`pid`) per distinct device (process-named
/// after it), one track (`tid`) per stream, one complete event per phase.
/// Every event's `args` carry the trace id and the `span_lo`/`span_hi`
/// timeline join keys, so a phase here joins the per-device kernel trace
/// exported by `trtsim-profiler` (same span-id scheme).
pub fn chrome_trace_all(traces: &[RequestTrace]) -> String {
    let mut devices: Vec<&str> = traces
        .iter()
        .map(|t| t.device.as_deref().unwrap_or("local"))
        .collect();
    devices.sort_unstable();
    devices.dedup();
    let mut events: Vec<String> = Vec::new();
    for (pid, name) in devices.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":{}}}}}",
            pid,
            json_string(name)
        ));
    }
    // Deterministic order: by device, then arrival, then id, then phase
    // position — independent of which worker recorded first.
    let mut ordered: Vec<&RequestTrace> = traces.iter().collect();
    ordered.sort_by(|a, b| {
        let da = a.device.as_deref().unwrap_or("local");
        let db = b.device.as_deref().unwrap_or("local");
        da.cmp(db)
            .then(a.arrival_us.total_cmp(&b.arrival_us))
            .then(a.id.cmp(&b.id))
    });
    for t in &ordered {
        let device = t.device.as_deref().unwrap_or("local");
        let pid = devices.binary_search(&device).unwrap_or(0);
        let tid = t.stream.unwrap_or(0);
        let args = format!(
            "{{\"trace_id\":\"{}\",\"frame\":{},\"span_lo\":{},\"span_hi\":{},\"batch_seq\":{},\"batch_size\":{},\"outcome\":\"{}\"}}",
            t.id,
            t.frame,
            json_opt_u64(t.span_lo),
            json_opt_u64(t.span_hi),
            json_opt_u64(t.batch_seq),
            json_opt_u64(t.batch_size.map(|v| v as u64)),
            t.outcome.as_str(),
        );
        for p in &t.phases {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"request\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{}}}",
                json_string(p.kind.as_str()),
                json_ts(p.start_us),
                json_ts(p.duration_us()),
                pid,
                tid,
                args
            ));
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(e);
    }
    out.push_str("]}");
    out
}

/// Latency histogram for the running slowest-decile estimate: power-of-two
/// buckets over µs, so the p90 threshold is exact to within one octave —
/// all the resolution "pin the slowest decile" needs, in 64 fixed words.
const LAT_BUCKETS: usize = 64;

fn lat_bucket(latency_us: f64) -> usize {
    (latency_us.max(1.0).log2().floor() as usize).min(LAT_BUCKETS - 1)
}

#[derive(Debug)]
struct RecorderInner {
    /// Oldest-first ring of (pinned, trace).
    ring: VecDeque<(bool, RequestTrace)>,
    /// Completed-latency histogram backing the slowest-decile pin.
    lat_counts: [u64; LAT_BUCKETS],
    lat_total: u64,
    /// Deterministic 1-in-N tick over non-tail candidates.
    sample_tick: u64,
    completed_seen: u64,
    dropped_seen: u64,
    rejected_seen: u64,
    deadline_missed_seen: u64,
}

impl RecorderInner {
    /// The latency (µs) at or above which a completion sits in the slowest
    /// decile of everything seen so far: the upper edge of the bucket where
    /// the cumulative count crosses 90%. +Inf until anything is observed.
    fn p90_threshold_us(&self) -> f64 {
        if self.lat_total == 0 {
            return f64::INFINITY;
        }
        let cutoff = (self.lat_total as f64 * 0.9).ceil() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.lat_counts.iter().enumerate() {
            cum += c;
            if cum >= cutoff {
                return 2f64.powi(i as i32 + 1);
            }
        }
        f64::INFINITY
    }
}

/// The always-on ring of recent request traces with tail-based retention.
/// One per server (or one shared per fleet); see the [module docs](self).
#[derive(Debug)]
pub struct FlightRecorder {
    opts: TraceOptions,
    inner: Mutex<RecorderInner>,
    /// Retention counters in the owner's registry, bumped under `inner`'s
    /// lock so a reader holding the lock sees them consistent.
    recorded: Counter,
    retained: Counter,
    sampled: Counter,
    evicted: Counter,
}

impl FlightRecorder {
    /// An empty recorder with the given knobs, counting its activity in
    /// `registry` (`trtsim_trace_*_total`).
    pub fn new(opts: TraceOptions, registry: &Registry) -> Self {
        Self {
            recorded: registry.counter(
                "trtsim_trace_recorded_total",
                "Request traces offered to a flight recorder",
                &[],
            ),
            retained: registry.counter(
                "trtsim_trace_retained_total",
                "Request traces retained in a flight-recorder ring (pinned or sampled)",
                &[],
            ),
            sampled: registry.counter(
                "trtsim_trace_sampled_total",
                "Non-tail request traces retained by 1-in-N sampling",
                &[],
            ),
            evicted: registry.counter(
                "trtsim_trace_evicted_total",
                "Request traces evicted from a flight-recorder ring",
                &[],
            ),
            opts,
            inner: Mutex::new(RecorderInner {
                ring: VecDeque::with_capacity(opts.capacity.min(1024)),
                lat_counts: [0; LAT_BUCKETS],
                lat_total: 0,
                sample_tick: 0,
                completed_seen: 0,
                dropped_seen: 0,
                rejected_seen: 0,
                deadline_missed_seen: 0,
            }),
        }
    }

    /// The recorder's knobs.
    pub fn options(&self) -> TraceOptions {
        self.opts
    }

    /// Offers one finished trace. Returns `true` when the trace was
    /// retained in the ring (pinned or sampled) — the signal the serving
    /// layer uses to attach the trace id as a histogram exemplar.
    pub fn record(&self, trace: RequestTrace) -> bool {
        if !self.opts.enabled {
            return false;
        }
        let mut inner = self.inner.lock().expect("flight recorder lock");
        self.recorded.inc();
        match trace.outcome {
            TraceOutcome::Completed { deadline_missed } => {
                inner.completed_seen += 1;
                if deadline_missed {
                    inner.deadline_missed_seen += 1;
                }
            }
            TraceOutcome::Dropped => inner.dropped_seen += 1,
            TraceOutcome::DeadlineRejected | TraceOutcome::QueueRejected => {
                inner.rejected_seen += 1
            }
        }
        // Slowest-decile pin judged against the distribution *before* this
        // trace, then the observation is absorbed; the very first
        // completion is trivially "slowest" and gets pinned, which is the
        // right cold-start behaviour for a debugging ring.
        let mut pinned = trace.outcome.is_tail();
        if matches!(trace.outcome, TraceOutcome::Completed { .. }) {
            let lat = trace.latency_us();
            pinned = pinned || lat >= inner.p90_threshold_us() || inner.lat_total == 0;
            let b = lat_bucket(lat);
            inner.lat_counts[b] += 1;
            inner.lat_total += 1;
        }
        let keep = if pinned {
            true
        } else {
            inner.sample_tick += 1;
            inner.sample_tick.is_multiple_of(self.opts.sample_every)
        };
        if !keep {
            return false;
        }
        self.retained.inc();
        if !pinned {
            self.sampled.inc();
        }
        inner.ring.push_back((pinned, trace));
        while inner.ring.len() > self.opts.capacity.max(1) {
            // Oldest non-pinned first; oldest pinned only when the ring is
            // all tail traces.
            let victim = inner
                .ring
                .iter()
                .position(|(pinned, _)| !pinned)
                .unwrap_or(0);
            inner.ring.remove(victim);
            self.evicted.inc();
        }
        true
    }

    /// Retained traces, oldest first.
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.inner
            .lock()
            .expect("flight recorder lock")
            .ring
            .iter()
            .map(|(_, t)| t.clone())
            .collect()
    }

    /// Looks up one retained trace by id.
    pub fn get(&self, id: TraceId) -> Option<RequestTrace> {
        self.inner
            .lock()
            .expect("flight recorder lock")
            .ring
            .iter()
            .find(|(_, t)| t.id == id)
            .map(|(_, t)| t.clone())
    }

    /// Traces offered to this recorder.
    pub fn recorded(&self) -> u64 {
        self.recorded.get()
    }

    /// Traces this recorder kept (pinned or sampled), cumulative.
    pub fn retained(&self) -> u64 {
        self.retained.get()
    }

    /// Non-tail traces kept by 1-in-N sampling, cumulative.
    pub fn sampled(&self) -> u64 {
        self.sampled.get()
    }

    /// Traces evicted from the ring, cumulative.
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }

    /// Completed traces seen (retained or not).
    pub fn completed_seen(&self) -> u64 {
        self.inner
            .lock()
            .expect("flight recorder lock")
            .completed_seen
    }

    /// Dropped traces seen (retained or not).
    pub fn dropped_seen(&self) -> u64 {
        self.inner
            .lock()
            .expect("flight recorder lock")
            .dropped_seen
    }

    /// Rejected traces seen (deadline or queue; retained or not).
    pub fn rejected_seen(&self) -> u64 {
        self.inner
            .lock()
            .expect("flight recorder lock")
            .rejected_seen
    }

    /// Deadline-missed completions seen (all of them are retained).
    pub fn deadline_missed_seen(&self) -> u64 {
        self.inner
            .lock()
            .expect("flight recorder lock")
            .deadline_missed_seen
    }

    /// The `/traces` index document: retention counters plus a one-line
    /// summary per retained trace, oldest first.
    pub fn index_json(&self) -> String {
        let inner = self.inner.lock().expect("flight recorder lock");
        let mut out = String::from("{");
        out.push_str(&format!("\"recorded\":{},", self.recorded.get()));
        out.push_str(&format!("\"retained\":{},", self.retained.get()));
        out.push_str(&format!("\"sampled\":{},", self.sampled.get()));
        out.push_str(&format!("\"evicted\":{},", self.evicted.get()));
        out.push_str(&format!(
            "\"deadline_missed_seen\":{},",
            inner.deadline_missed_seen
        ));
        out.push_str("\"traces\":[");
        for (i, (_, t)) in inner.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&t.summary_json());
        }
        out.push_str("\n]}\n");
        out
    }

    /// Serves the recorder's HTTP routes:
    ///
    /// * `/traces` — the index document
    /// * `/traces/<id>` — one full trace as JSON
    /// * `/traces/<id>/chrome` — one trace as a chrome://tracing document
    ///
    /// Returns `None` (→ 404) for unknown paths or evicted/unknown ids.
    pub fn route(&self, path: &str) -> Option<(String, String)> {
        if path == "/traces" {
            return Some(("application/json".to_string(), self.index_json()));
        }
        let rest = path.strip_prefix("/traces/")?;
        let (id, chrome) = match rest.strip_suffix("/chrome") {
            Some(id) => (id, true),
            None => (rest, false),
        };
        let trace = self.get(id.parse().ok()?)?;
        let body = if chrome {
            chrome_trace_all(std::slice::from_ref(&trace))
        } else {
            format!("{}\n", trace.to_json())
        };
        Some(("application/json".to_string(), body))
    }

    /// Adapts the recorder into the [`trtsim_metrics::RouteHandler`] shape
    /// `TelemetryServer::bind_with_routes` consumes.
    pub fn route_handler(self: &Arc<Self>) -> trtsim_metrics::RouteHandler {
        let recorder = Arc::clone(self);
        Arc::new(move |path: &str| recorder.route(path))
    }
}

/// The serving layer's recording surface: the shared recorder plus the
/// server's identity labels. Centralizes
/// the phase decomposition so every call site produces the same span tree.
#[derive(Debug)]
pub(crate) struct TraceSink {
    recorder: Arc<FlightRecorder>,
    model: Arc<str>,
    device: Option<Arc<str>>,
    tenant: Option<Arc<str>>,
}

impl TraceSink {
    pub(crate) fn new(
        recorder: Arc<FlightRecorder>,
        model: &str,
        device: Option<&str>,
        tenant: Option<&str>,
    ) -> Self {
        Self {
            recorder,
            model: Arc::from(model),
            device: device.map(Arc::from),
            tenant: tenant.map(Arc::from),
        }
    }

    /// Records one completed request. The phases are cut from the event
    /// timestamps of its batch — `wait_start_us` (the batch began waiting
    /// for stragglers on a free stream), `exec_start_us` (dispatch) and
    /// `done_us` (completion) — so they partition `[arrival_us, done_us]`
    /// with shared boundaries:
    ///
    /// ```text
    /// replica_queue [arrival_us .. max(arrival_us, wait_start_us)]
    /// batch_wait    [..           exec_start_us]
    /// execute       [exec_start_us .. done_us]
    /// ```
    ///
    /// Returns `true` when the trace was retained (→ attach an exemplar).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_completed(
        &self,
        ctx: TraceCtx,
        frame: u64,
        arrival_us: f64,
        wait_start_us: f64,
        exec_start_us: f64,
        done_us: f64,
        worker: usize,
        stream: usize,
        batch_seq: u64,
        batch_size: usize,
        span_lo: SpanSeq,
        span_hi: SpanSeq,
        deadline_missed: bool,
    ) -> bool {
        let queue_end = wait_start_us.max(arrival_us);
        let phases = vec![
            PhaseSpan::new(PhaseKind::Admission, arrival_us, arrival_us),
            PhaseSpan::new(PhaseKind::RouterQueue, arrival_us, arrival_us),
            PhaseSpan::new(PhaseKind::ReplicaQueue, arrival_us, queue_end),
            PhaseSpan::new(PhaseKind::BatchWait, queue_end, exec_start_us),
            PhaseSpan::new(PhaseKind::Execute, exec_start_us, done_us),
            PhaseSpan::new(PhaseKind::Drain, done_us, done_us),
        ];
        self.recorder.record(RequestTrace {
            id: ctx.id,
            frame,
            model: Arc::clone(&self.model),
            device: self.device.clone(),
            tenant: self.tenant.clone(),
            worker: Some(worker),
            stream: Some(stream),
            batch_seq: Some(batch_seq),
            batch_size: Some(batch_size),
            span_lo: Some(span_lo),
            span_hi: Some(span_hi),
            arrival_us,
            done_us,
            outcome: TraceOutcome::Completed { deadline_missed },
            phases,
            router_score: ctx.router_score,
            predicted_p50_us: ctx.predicted_p50_us,
            predicted_p99_us: ctx.predicted_p99_us,
        })
    }

    /// Records a request that never executed — refused at admission or
    /// dropped by abort — with this server's labels.
    pub(crate) fn record_unserved(
        &self,
        ctx: TraceCtx,
        frame: u64,
        arrival_us: f64,
        outcome: TraceOutcome,
    ) {
        self.recorder.record(RequestTrace::unserved(
            ctx,
            frame,
            Arc::clone(&self.model),
            self.device.clone(),
            self.tenant.clone(),
            arrival_us,
            outcome,
        ));
    }
}

impl RequestTrace {
    /// The trace of a request that never executed: zero service, an
    /// `admission` marker as its only phase.
    pub(crate) fn unserved(
        ctx: TraceCtx,
        frame: u64,
        model: Arc<str>,
        device: Option<Arc<str>>,
        tenant: Option<Arc<str>>,
        arrival_us: f64,
        outcome: TraceOutcome,
    ) -> Self {
        Self {
            id: ctx.id,
            frame,
            model,
            device,
            tenant,
            worker: None,
            stream: None,
            batch_seq: None,
            batch_size: None,
            span_lo: None,
            span_hi: None,
            arrival_us,
            done_us: arrival_us,
            outcome,
            phases: vec![PhaseSpan::new(PhaseKind::Admission, arrival_us, arrival_us)],
            router_score: ctx.router_score,
            predicted_p50_us: ctx.predicted_p50_us,
            predicted_p99_us: ctx.predicted_p99_us,
        }
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Chrome timestamps: µs with three decimals (ns resolution), non-finite
/// clamped to 0 so the viewer still loads.
fn json_ts(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => format!("{v}"),
        None => "null".to_string(),
    }
}

fn json_opt_string(v: Option<&str>) -> String {
    match v {
        Some(v) => json_string(v),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(recorder: &Arc<FlightRecorder>) -> TraceSink {
        TraceSink::new(Arc::clone(recorder), "m", Some("nx0"), None)
    }

    fn completed(
        s: &TraceSink,
        gen: &TraceIdGen,
        frame: u64,
        arrival: f64,
        latency: f64,
        missed: bool,
    ) -> TraceId {
        let ctx = TraceCtx::new(gen.mint());
        let done = arrival + latency;
        // 40% queue, 10% batch wait, 50% execute.
        let wait_start = arrival + latency * 0.4;
        let exec_start = arrival + latency * 0.5;
        s.record_completed(
            ctx, frame, arrival, wait_start, exec_start, done, 0, 0, frame, 1, 0, 3, missed,
        );
        ctx.id
    }

    #[test]
    fn ids_are_deterministic_unique_and_hex_round_trip() {
        let a = TraceIdGen::new(42);
        let b = TraceIdGen::new(42);
        let ids: Vec<TraceId> = (0..64).map(|_| a.mint()).collect();
        let again: Vec<TraceId> = (0..64).map(|_| b.mint()).collect();
        assert_eq!(ids, again, "same seed must mint the same sequence");
        let mut uniq = ids.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len(), "ids must be unique");
        assert_ne!(TraceIdGen::new(43).mint(), ids[0]);
        let hex = ids[7].to_string();
        assert_eq!(hex.len(), 16);
        assert_eq!(hex.parse::<TraceId>().unwrap(), ids[7]);
    }

    #[test]
    fn phases_partition_the_end_to_end_latency() {
        let rec = Arc::new(FlightRecorder::new(
            TraceOptions::default().with_sample_every(1),
            &Registry::new(),
        ));
        let s = sink(&rec);
        let gen = TraceIdGen::new(1);
        let id = completed(&s, &gen, 0, 1000.0, 800.0, false);
        let t = rec.get(id).expect("retained");
        assert_eq!(t.phases.len(), 6);
        // Monotone and non-overlapping: each phase starts where the
        // previous ended.
        for w in t.phases.windows(2) {
            assert!(w[0].end_us <= w[1].start_us + 1e-9);
            assert!(w[0].start_us <= w[0].end_us);
        }
        assert!((t.phase_sum_us() - t.latency_us()).abs() < 1e-6);
        assert_eq!(t.phases.first().unwrap().start_us, t.arrival_us);
        assert_eq!(t.phases.last().unwrap().end_us, t.done_us);
    }

    #[test]
    fn tail_traces_survive_eviction_under_load() {
        let rec = Arc::new(FlightRecorder::new(
            TraceOptions::default()
                .with_capacity(16)
                .with_sample_every(2),
            &Registry::new(),
        ));
        let s = sink(&rec);
        let gen = TraceIdGen::new(9);
        let mut missed_ids = Vec::new();
        // 400 ordinary completions with occasional deadline misses: far
        // more retention candidates than the ring holds.
        for frame in 0..400u64 {
            let missed = frame % 97 == 0;
            let latency = if missed { 9000.0 } else { 100.0 };
            let id = completed(&s, &gen, frame, frame as f64 * 10.0, latency, missed);
            if missed {
                missed_ids.push(id);
            }
        }
        assert!(rec.evicted() > 0, "load must overflow the ring");
        for id in &missed_ids {
            assert!(
                rec.get(*id).is_some(),
                "deadline-missed trace {id} must survive eviction"
            );
        }
        // And the sampler kept roughly 1-in-2 of the rest on offer, so the
        // ring still carries some ordinary traffic context.
        assert!(rec.sampled() > 0);
    }

    #[test]
    fn slowest_decile_is_pinned_without_a_deadline() {
        let rec = Arc::new(FlightRecorder::new(
            TraceOptions::default()
                .with_capacity(32)
                .with_sample_every(1_000_000),
            &Registry::new(),
        ));
        let s = sink(&rec);
        let gen = TraceIdGen::new(5);
        // 200 fast completions establish the distribution, then one 100×
        // outlier: it must be pinned even though nothing missed a deadline
        // and the sampling period never triggers.
        for frame in 0..200u64 {
            completed(&s, &gen, frame, frame as f64, 100.0, false);
        }
        let slow = completed(&s, &gen, 200, 5000.0, 10_000.0, false);
        assert!(rec.get(slow).is_some(), "slow outlier must be pinned");
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Arc::new(FlightRecorder::new(
            TraceOptions::default().with_enabled(false),
            &Registry::new(),
        ));
        let s = sink(&rec);
        let gen = TraceIdGen::new(2);
        completed(&s, &gen, 0, 0.0, 50_000.0, true);
        assert_eq!(rec.recorded(), 0);
        assert!(rec.traces().is_empty());
    }

    #[test]
    fn rejected_and_dropped_traces_are_recorded_and_counted() {
        let rec = Arc::new(FlightRecorder::new(
            TraceOptions::default(),
            &Registry::new(),
        ));
        let s = sink(&rec);
        let gen = TraceIdGen::new(3);
        s.record_unserved(
            TraceCtx::new(gen.mint()),
            0,
            10.0,
            TraceOutcome::DeadlineRejected,
        );
        s.record_unserved(
            TraceCtx::new(gen.mint()),
            1,
            20.0,
            TraceOutcome::QueueRejected,
        );
        s.record_unserved(TraceCtx::new(gen.mint()), 2, 30.0, TraceOutcome::Dropped);
        assert_eq!(rec.rejected_seen(), 2);
        assert_eq!(rec.dropped_seen(), 1);
        // Tail outcomes are always retained.
        assert_eq!(rec.traces().len(), 3);
        for t in rec.traces() {
            assert!(t.outcome.is_tail());
            assert_eq!(t.latency_us(), 0.0);
            assert!(t.worker.is_none());
        }
    }

    #[test]
    fn routes_serve_index_trace_and_chrome() {
        let rec = Arc::new(FlightRecorder::new(
            TraceOptions::default().with_sample_every(1),
            &Registry::new(),
        ));
        let s = sink(&rec);
        let gen = TraceIdGen::new(4);
        let id = completed(&s, &gen, 7, 100.0, 900.0, true);

        let (ct, index) = rec.route("/traces").expect("index");
        assert_eq!(ct, "application/json");
        assert!(index.contains(&format!("\"id\":\"{id}\"")));
        assert!(index.contains("\"deadline_missed\":true"));
        assert!(index.contains("\"recorded\":1"));

        let (_, body) = rec.route(&format!("/traces/{id}")).expect("trace");
        assert!(body.contains("\"outcome\":\"completed\""));
        assert!(body.contains("\"phase\":\"execute\""));
        assert!(body.contains("\"model\":\"m\""));

        let (_, chrome) = rec.route(&format!("/traces/{id}/chrome")).expect("chrome");
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains(&format!("\"trace_id\":\"{id}\"")));
        assert!(chrome.contains("\"cat\":\"request\""));

        assert!(rec.route("/traces/zzzz").is_none());
        assert!(rec.route("/nope").is_none());
        assert!(rec.route("/traces/0000000000000000").is_none());
    }

    #[test]
    fn chrome_export_stitches_devices_into_processes() {
        let rec = Arc::new(FlightRecorder::new(
            TraceOptions::default().with_sample_every(1),
            &Registry::new(),
        ));
        let gen = TraceIdGen::new(6);
        let nx = TraceSink::new(Arc::clone(&rec), "m", Some("nx0"), None);
        let agx = TraceSink::new(Arc::clone(&rec), "m", Some("agx0"), Some("cam"));
        let a = TraceCtx::new(gen.mint());
        let b = TraceCtx::new(gen.mint());
        nx.record_completed(a, 0, 0.0, 40.0, 50.0, 100.0, 0, 1, 0, 2, 0, 4, false);
        agx.record_completed(b, 1, 5.0, 105.0, 105.0, 205.0, 1, 0, 0, 1, 4, 8, false);
        let doc = chrome_trace_all(&rec.traces());
        // Sorted device names: agx0 = pid 0, nx0 = pid 1.
        assert!(doc.contains("\"args\":{\"name\":\"agx0\"}"));
        assert!(doc.contains("\"args\":{\"name\":\"nx0\"}"));
        assert!(doc.contains("\"pid\":0"));
        assert!(doc.contains("\"pid\":1"));
        assert!(doc.contains("\"span_lo\":4"));
        assert!(doc.contains(&format!("\"trace_id\":\"{}\"", a.id)));
    }

    #[test]
    fn prediction_error_is_signed_percent_or_nan() {
        let mut ctx = TraceCtx::new(TraceIdGen::new(8).mint());
        ctx.predicted_p50_us = 1200.0;
        let rec = Arc::new(FlightRecorder::new(
            TraceOptions::default().with_sample_every(1),
            &Registry::new(),
        ));
        let s = sink(&rec);
        s.record_completed(ctx, 0, 0.0, 500.0, 500.0, 1000.0, 0, 0, 0, 1, 0, 1, false);
        let t = &rec.traces()[0];
        assert!((t.prediction_error_percent() - 20.0).abs() < 1e-9);
        assert!(t.to_json().contains("\"prediction_error_percent\":20"));
        // No prediction → NaN → JSON null.
        let plain = TraceCtx::new(TraceIdGen::new(8).mint());
        s.record_unserved(plain, 1, 0.0, TraceOutcome::QueueRejected);
        let r = rec.traces().into_iter().find(|t| t.frame == 1).unwrap();
        assert!(r.prediction_error_percent().is_nan());
        assert!(r.to_json().contains("\"predicted_p50_us\":null"));
    }
}
