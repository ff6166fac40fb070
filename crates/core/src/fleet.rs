//! Fleet-scale serving: N heterogeneous simulated Jetsons behind a router.
//!
//! The paper characterizes a *single* device's serving behaviour (the
//! multi-stream ceiling of Figures 3/4, the batching knee of §VI); the
//! ROADMAP north-star is a production deployment — many NX/AGX boards
//! behind a request router. This module runs that architecture on the
//! simulator:
//!
//! ```text
//!    open-loop trace (trtsim-data ArrivalTrace or any timestamp list)
//!            │  Fleet::submit(model, frame, arrival_us)
//!            ▼
//!        ┌────────┐  least-estimated-finish dispatch over the model's
//!        │ router │  replicas; full queues are skipped; when every
//!        └────────┘  replica is full the request is REJECTED (admission
//!          │  │  │   control), never silently dropped
//!          ▼  ▼  ▼
//!        device: one DeviceSpec + one GpuTimeline each; replicas on the
//!        same device share its timeline, so co-located models genuinely
//!        contend. Every replica is a full [`InferenceServer`] (bounded
//!        queue, dynamic batcher, worker streams).
//! ```
//!
//! * **One clock** — the fleet steps its replicas' event loops in one
//!   simulated-time order: [`Fleet::submit`] first advances every replica
//!   to the arrival, always processing the replica with the earliest next
//!   event (lowest placement index on ties), so the shared latency model
//!   trains and the shared flight recorder records in time order, and the
//!   router prices queue depths as they stand at the arrival.
//!
//! * **Replica placement** — the builder places engines on named devices;
//!   one model may have replicas on any subset of the fleet
//!   ([`FleetBuilder::replica`]).
//! * **Saturation-aware dispatch** — each replica's per-frame service cost
//!   is estimated up front from its [`EngineProfile`] (worker parallelism
//!   clamped to the paper's Equation-1 thread ceiling), and the router
//!   picks the replica with the least estimated finish time
//!   `(queue_depth + 1) × service_us`, so a slow or saturated device stops
//!   attracting load as soon as its backlog catches up.
//! * **Admission control** — [`Fleet::submit`] tries replicas in score
//!   order with non-blocking submission; only when *every* replica's
//!   bounded queue is full does it return [`ServingError::QueueFull`] and
//!   count a fleet-level rejection.
//! * **Observability** — the fleet owns one registry
//!   ([`Fleet::registry`]): every replica server publishes the standard
//!   serving series there with `device=` (and optional `tenant=`) labels,
//!   the router adds `trtsim_fleet_*` counters, and
//!   [`FleetConfig::telemetry_addr`] binds one scrape endpoint for the
//!   whole fleet. [`FleetStats`] aggregates per-device and fleet-wide
//!   p50/p90/p99 plus reject/drop accounting.
//!
//! [`EngineProfile`]: trtsim_gpu::contention::EngineProfile

use std::collections::HashMap;
use std::sync::Arc;

use trtsim_gpu::contention::max_threads;
use trtsim_gpu::device::DeviceSpec;
use trtsim_gpu::timeline::GpuTimeline;
use trtsim_metrics::{Counter, LatencyPercentiles, Registry, TelemetryServer};

use crate::engine::Engine;
use crate::predict::{LatencyModel, PredictedLatency, QueueSignals};
use crate::reqtrace::{
    FlightRecorder, RequestTrace, TraceCtx, TraceIdGen, TraceOptions, TraceOutcome,
};
use crate::runtime::ExecutionContext;
use crate::serving::{
    check_arrival, FleetShared, InferenceServer, ServerConfig, ServerStats, ServingError,
};

/// Dispatch scores within this relative margin of the best count as a tie,
/// which the affinity tie-break resolves toward the replica that served
/// this (model, tenant) most recently.
const AFFINITY_EPSILON: f64 = 0.05;

/// Fleet-wide knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// When set, binds one [`TelemetryServer`] scrape endpoint
    /// (`GET /metrics`, `GET /metrics.json`) covering every device in the
    /// fleet. Port 0 picks a free port; see [`Fleet::telemetry_addr`].
    pub telemetry_addr: Option<std::net::SocketAddr>,
    /// When set, the router scores replicas with one fleet-shared online
    /// [`LatencyModel`] (predicted batch-1 finish time under each replica's
    /// live queue signals) instead of the static
    /// `(queue_depth + 1) × service_us` heuristic. The model trains from
    /// every replica's completions and the router falls back to the
    /// heuristic while it is cold.
    pub predictive: bool,
    /// Completions the shared model needs before it is warm (see
    /// [`LatencyModel::with_min_obs`]).
    pub predictor_min_obs: u64,
    /// Seed for the shared model's deterministic weight initialisation.
    pub predictor_seed: u64,
    /// Request-trace flight-recorder knobs, shared by every replica: one
    /// fleet-wide ring so a request traced on any device lands in the same
    /// `GET /traces` index.
    pub trace: TraceOptions,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            telemetry_addr: None,
            predictive: false,
            predictor_min_obs: 64,
            predictor_seed: 0x1eaf,
            trace: TraceOptions::default(),
        }
    }
}

impl FleetConfig {
    /// Enables predictive replica scoring (see [`FleetConfig::predictive`]).
    pub fn with_predictive(mut self, on: bool) -> Self {
        self.predictive = on;
        self
    }

    /// Sets the shared model's warm-up threshold.
    pub fn with_predictor_min_obs(mut self, n: u64) -> Self {
        self.predictor_min_obs = n;
        self
    }

    /// Sets the shared model's seed.
    pub fn with_predictor_seed(mut self, seed: u64) -> Self {
        self.predictor_seed = seed;
        self
    }

    /// Sets the fleet-shared request-trace flight-recorder options.
    pub fn with_trace(mut self, trace: TraceOptions) -> Self {
        self.trace = trace;
        self
    }
}

/// One device of the fleet: a named board and its simulated timeline, the
/// one timeline every replica placed here runs its streams on.
#[derive(Debug)]
struct FleetDevice {
    name: String,
    timeline: GpuTimeline,
}

/// One placed engine replica: a full [`InferenceServer`] on its device's
/// shared timeline, plus the router's dispatch bookkeeping.
#[derive(Debug)]
struct Replica {
    device: usize,
    model: String,
    tenant: Option<String>,
    server: InferenceServer,
    /// Estimated per-frame service time, µs: single-stream latency divided
    /// by the worker parallelism, the latter clamped to the Equation-1
    /// thread ceiling so an over-provisioned worker count cannot make a
    /// saturated device look faster than it is.
    service_us: f64,
    /// Frames the router sent here (accepted submissions).
    routed: u64,
    routed_metric: Counter,
}

/// One served model's routing table: its replicas, plus per-tenant state
/// keyed by tenant name so a submit finds it by `&str` without allocating.
#[derive(Debug, Default)]
struct ModelRoute {
    /// Replica indices, in placement order.
    replicas: Vec<usize>,
    /// Tenant → admission counters and affinity memory, created on the
    /// tenant's first request.
    tenants: HashMap<String, TenantRoute>,
}

/// One (model, tenant)'s admission counters, cached so the registry lock is
/// taken once per label set, and the affinity tie-break's memory.
#[derive(Debug)]
struct TenantRoute {
    submitted: Counter,
    rejected: Counter,
    /// The replica that served this (model, tenant) most recently.
    last_replica: Option<usize>,
}

/// One candidate replica as the router priced it for one request: the
/// queue signals it read, the warm model's prediction under them, and the
/// dispatch score. Computed once per submit and reused for the sort, the
/// tie-break, the trace stamp and the replica's admission.
#[derive(Debug)]
struct Priced {
    replica: usize,
    signals: QueueSignals,
    pred: Option<PredictedLatency>,
    score: f64,
}

// Servers and fleets are plain values that may move between threads whole;
// this fails to compile if an `Rc` or another `!Send` field gets in.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<InferenceServer>();
    assert_send::<Fleet>();
};

/// Declarative fleet assembly: name devices, place replicas, start.
///
/// # Examples
///
/// ```no_run
/// use trtsim_core::fleet::{FleetBuilder, FleetConfig};
/// use trtsim_core::serving::ServerConfig;
/// use trtsim_gpu::device::{DeviceSpec, Platform};
/// # fn demo(engine_nx: &trtsim_core::Engine, engine_agx: &trtsim_core::Engine)
/// #     -> Result<(), trtsim_core::serving::ServingError> {
/// let fleet = FleetBuilder::new()
///     .device("nx0", DeviceSpec::max_clock(Platform::Nx))
///     .device("agx0", DeviceSpec::max_clock(Platform::Agx))
///     .replica("nx0", engine_nx, ServerConfig::default())?
///     .replica("agx0", engine_agx, ServerConfig::default())?
///     .start(FleetConfig::default())?;
/// fleet.submit(engine_nx.name(), 0, 0.0)?;
/// let stats = fleet.drain();
/// println!("{} completed, p99 {:.0} µs", stats.completed, stats.latency.p99_us);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct FleetBuilder {
    devices: Vec<(String, DeviceSpec)>,
    // (device name, engine, per-replica server config, tenant)
    replicas: Vec<(String, Engine, ServerConfig, Option<String>)>,
}

impl FleetBuilder {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a named device. Names must be unique; [`FleetBuilder::start`]
    /// rejects duplicates.
    pub fn device(mut self, name: impl Into<String>, spec: DeviceSpec) -> Self {
        self.devices.push((name.into(), spec));
        self
    }

    /// Places a replica of `engine` on the named device.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::InvalidConfig`] if the device name is
    /// unknown (devices must be declared first).
    pub fn replica(
        self,
        device: &str,
        engine: &Engine,
        config: ServerConfig,
    ) -> Result<Self, ServingError> {
        self.replica_for_tenant(device, engine, config, None)
    }

    /// [`FleetBuilder::replica`] dedicated to a named tenant: the replica's
    /// serving series additionally carry a `tenant=` label.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::InvalidConfig`] if the device name is
    /// unknown.
    pub fn replica_for_tenant(
        mut self,
        device: &str,
        engine: &Engine,
        config: ServerConfig,
        tenant: Option<&str>,
    ) -> Result<Self, ServingError> {
        if !self.devices.iter().any(|(name, _)| name == device) {
            return Err(ServingError::InvalidConfig(format!(
                "replica of `{}` placed on unknown device `{device}`",
                engine.name()
            )));
        }
        self.replicas.push((
            device.to_string(),
            engine.clone(),
            config,
            tenant.map(str::to_string),
        ));
        Ok(self)
    }

    /// Validates the topology and starts every replica server.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::InvalidConfig`] for duplicate device names,
    /// an empty fleet, or a replica whose [`ServerConfig`] fails its own
    /// validation; [`ServingError::Telemetry`] if the scrape endpoint
    /// cannot bind.
    pub fn start(self, config: FleetConfig) -> Result<Fleet, ServingError> {
        if self.devices.is_empty() {
            return Err(ServingError::InvalidConfig(
                "a fleet needs at least one device".into(),
            ));
        }
        if self.replicas.is_empty() {
            return Err(ServingError::InvalidConfig(
                "a fleet needs at least one replica".into(),
            ));
        }
        let mut devices: Vec<FleetDevice> = Vec::with_capacity(self.devices.len());
        for (name, spec) in self.devices {
            if devices.iter().any(|d| d.name == name) {
                return Err(ServingError::InvalidConfig(format!(
                    "duplicate device name `{name}`"
                )));
            }
            devices.push(FleetDevice {
                timeline: GpuTimeline::new(spec),
                name,
            });
        }
        // One registry for the whole fleet: the router's counters and every
        // replica's serving and trace series, device-labelled.
        let reg = Arc::new(Registry::new());
        // One model for the whole fleet: every replica's completions train
        // it, so a device class the router has barely used still benefits
        // from what similar replicas observed.
        let shared_model = config.predictive.then(|| {
            Arc::new(
                LatencyModel::new(config.predictor_seed).with_min_obs(config.predictor_min_obs),
            )
        });
        // One flight recorder and one id mint for the whole fleet: a request
        // owns exactly one trace id no matter which replica serves it, and
        // every device's retained traces share one `GET /traces` index.
        let recorder = Arc::new(FlightRecorder::new(config.trace, &reg));
        let idgen = TraceIdGen::new(trtsim_util::derive_seed(
            config.predictor_seed,
            "reqtrace",
            0,
        ));
        let mut replicas = Vec::with_capacity(self.replicas.len());
        let mut by_model: HashMap<String, ModelRoute> = HashMap::new();
        for (device_name, engine, server_config, tenant) in self.replicas {
            let d = devices
                .iter()
                .position(|dev| dev.name == device_name)
                .expect("checked in replica()");
            let device = &mut devices[d];
            let spec = device.timeline.device().clone();
            let server = InferenceServer::start_on_timeline(
                &engine,
                &spec,
                server_config,
                FleetShared {
                    device: Some(device.name.clone()),
                    tenant: tenant.clone(),
                    model: shared_model.clone(),
                    recorder: Arc::clone(&recorder),
                    registry: Arc::clone(&reg),
                },
                &mut device.timeline,
            )?;
            // Service-cost estimate for the router: one profiled inference
            // on a scratch context (does not touch the serving timeline).
            let ctx = ExecutionContext::new(&engine, spec.clone());
            let profile = ctx.profile(server_config.timing.host_glue_us);
            let (ceiling, _) = max_threads(&profile, &spec);
            let parallel = (server_config.workers as f64).min(ceiling.max(1) as f64);
            let service_us = profile.latency_us() / parallel.max(1.0);
            let model = engine.name().to_string();
            let routed_metric = reg.counter(
                "trtsim_fleet_routed_total",
                "Frames the fleet router dispatched, by model and device",
                &[("model", &model), ("device", &device.name)],
            );
            by_model
                .entry(model.clone())
                .or_default()
                .replicas
                .push(replicas.len());
            replicas.push(Replica {
                device: d,
                model,
                tenant,
                server,
                service_us,
                routed: 0,
                routed_metric,
            });
        }
        let predicted_metric = reg.counter(
            "trtsim_fleet_predicted_dispatch_total",
            "Dispatches scored by the warm shared latency model",
            &[],
        );
        let heuristic_metric = reg.counter(
            "trtsim_fleet_heuristic_dispatch_total",
            "Dispatches scored by the static (queue_depth+1) x service_us heuristic",
            &[],
        );
        let affinity_metric = reg.counter(
            "trtsim_fleet_affinity_hits_total",
            "Score ties the affinity tie-break resolved toward the most recent replica",
            &[],
        );
        let exporter = match config.telemetry_addr {
            Some(addr) => Some(
                TelemetryServer::bind_with_routes(addr, Arc::clone(&reg), recorder.route_handler())
                    .map_err(|e| ServingError::Telemetry(format!("bind {addr}: {e}")))?,
            ),
            None => None,
        };
        Ok(Fleet {
            state: FleetState {
                devices,
                replicas,
                by_model,
                submitted: 0,
                rejected: 0,
                idgen,
                predicted_metric,
                heuristic_metric,
                affinity_metric,
                model: shared_model,
                recorder,
                registry: reg,
            }
            .into(),
            exporter,
        })
    }
}

/// A running fleet. See the [module docs](self) for the architecture.
///
/// A fleet is one state machine on the simulated clock. Its state sits in
/// one cell so that [`Fleet::submit`] takes `&self`, as callers that submit
/// from inside a closure need; nothing is shared across threads.
#[derive(Debug)]
pub struct Fleet {
    state: std::cell::RefCell<FleetState>,
    exporter: Option<TelemetryServer>,
}

/// Everything [`Fleet`] owns and steps: the devices and their timelines,
/// the replicas, the routing tables, and the router's counters.
#[derive(Debug)]
struct FleetState {
    devices: Vec<FleetDevice>,
    replicas: Vec<Replica>,
    by_model: HashMap<String, ModelRoute>,
    submitted: u64,
    rejected: u64,
    /// Fleet-wide trace-id mint, so ids are unique across replicas.
    idgen: TraceIdGen,
    /// Dispatch counters in the fleet's registry — the only count of these
    /// fleet-level events; [`FleetStats`] reads them back at drain.
    predicted_metric: Counter,
    heuristic_metric: Counter,
    affinity_metric: Counter,
    /// Fleet-shared online latency model, present when
    /// [`FleetConfig::predictive`] is set.
    model: Option<Arc<LatencyModel>>,
    /// Fleet-shared flight recorder every replica records into.
    recorder: Arc<FlightRecorder>,
    /// The fleet's own registry: router counters plus every replica's
    /// device-labelled serving and trace series.
    registry: Arc<Registry>,
}

impl Fleet {
    /// Routes one request for `model` arriving at simulated `arrival_us`
    /// under the default tenant.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::QueueFull`] when every replica's queue is
    /// full (counted as a fleet rejection),
    /// [`ServingError::InvalidConfig`] when no replica serves `model`, or
    /// [`ServingError::InvalidArrival`] for a NaN, infinite or negative
    /// `arrival_us` (neither of the last two is counted).
    pub fn submit(&self, model: &str, frame: u64, arrival_us: f64) -> Result<(), ServingError> {
        self.submit_as("default", model, frame, arrival_us)
    }

    /// [`Fleet::submit`] attributed to a named tenant (per-tenant admission
    /// counters).
    ///
    /// # Errors
    ///
    /// Same as [`Fleet::submit`].
    pub fn submit_as(
        &self,
        tenant: &str,
        model: &str,
        frame: u64,
        arrival_us: f64,
    ) -> Result<(), ServingError> {
        let mut st = self.state.borrow_mut();
        if !st.by_model.contains_key(model) {
            return Err(ServingError::InvalidConfig(format!(
                "no replica serves model `{model}`"
            )));
        }
        check_arrival(arrival_us)?;
        st.run_until(arrival_us);
        st.submitted += 1;
        st.place(tenant, model, frame, arrival_us)
    }

    /// The fleet-shared flight recorder holding retained request traces
    /// from every replica (see [`crate::reqtrace`]).
    pub fn flight_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.state.borrow().recorder)
    }

    /// The fleet's registry: router counters (`trtsim_fleet_*`) plus every
    /// replica's `trtsim_server_*{device}` and the shared recorder's
    /// `trtsim_trace_*` series. Take it before [`Fleet::drain`] to publish
    /// or [`absorb`](Registry::absorb) the final counts.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.state.borrow().registry)
    }

    /// The fleet-shared online latency model, when
    /// [`FleetConfig::predictive`] is set.
    pub fn latency_model(&self) -> Option<Arc<LatencyModel>> {
        self.state.borrow().model.clone()
    }

    /// Replays a sorted arrival-timestamp list (e.g. a
    /// `trtsim_data::traffic::ArrivalTrace`) for one model: frame ids are
    /// `first_frame..`, one per timestamp. Returns `(accepted, rejected)`.
    pub fn replay(&self, model: &str, arrivals_us: &[f64], first_frame: u64) -> (u64, u64) {
        let mut accepted = 0;
        let mut rejected = 0;
        for (i, &t) in arrivals_us.iter().enumerate() {
            match self.submit(model, first_frame + i as u64, t) {
                Ok(()) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        (accepted, rejected)
    }

    /// Runs every replica's event loop up to simulated time `t_us` without
    /// shutting down (see [`InferenceServer::run_until`]), in one fleet-wide
    /// time order: the replica with the earliest next event goes first,
    /// the lowest placement index on ties.
    pub fn run_until(&self, t_us: f64) {
        self.state.borrow_mut().run_until(t_us);
    }

    /// The bound address of the fleet-wide telemetry endpoint, when
    /// [`FleetConfig::telemetry_addr`] was set.
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.exporter.as_ref().map(TelemetryServer::local_addr)
    }

    /// Stops admission on every replica and runs the fleet until each
    /// accepted frame is served, then aggregates the final statistics.
    pub fn drain(self) -> FleetStats {
        let mut st = self.state.into_inner();
        for replica in &mut st.replicas {
            replica
                .server
                .close(&mut st.devices[replica.device].timeline);
        }
        st.run_until(f64::INFINITY);
        let FleetState {
            mut devices,
            replicas,
            ..
        } = st;
        let replicas: Vec<ReplicaStats> = replicas
            .into_iter()
            .map(|mut replica| {
                let device = &mut devices[replica.device];
                ReplicaStats {
                    device: device.name.clone(),
                    stats: replica.server.shutdown(&mut device.timeline, false),
                    model: replica.model,
                    tenant: replica.tenant,
                    routed: replica.routed,
                }
            })
            .collect();
        drop(self.exporter);
        aggregate(
            replicas,
            st.submitted,
            st.rejected,
            st.predicted_metric.get(),
            st.heuristic_metric.get(),
            st.affinity_metric.get(),
        )
    }
}

impl FleetState {
    /// Prices the model's replicas for one request, offers it to them best
    /// first, and counts the outcome against the (model, tenant) entry.
    fn place(
        &mut self,
        tenant: &str,
        model: &str,
        frame: u64,
        arrival_us: f64,
    ) -> Result<(), ServingError> {
        let Self {
            devices,
            replicas,
            by_model,
            rejected,
            idgen,
            registry,
            ..
        } = self;
        let route = by_model.get_mut(model).expect("checked by submit_as");
        // The tenant's entry is looked up once, at admission, and held until
        // the frame is placed or refused.
        let entry = match route.tenants.get_mut(tenant) {
            Some(entry) => entry,
            None => route
                .tenants
                .entry(tenant.to_string())
                .or_insert_with(|| TenantRoute::register(registry, model, tenant)),
        };
        entry.submitted.inc();
        // Predicted finish time when the shared model is warm: batch-1 p50
        // under each replica's live queue signals, which folds in batch
        // effects, backlog and busy streams the static heuristic cannot see.
        // Cold (or non-predictive) fleets score with the original
        // least-estimated-finish heuristic: backlog depth × per-frame
        // service cost. Either way a saturated device's score stays high,
        // steering new load toward devices with headroom.
        let warm_model = self.model.as_deref().filter(|m| m.is_warm());
        let mut order: Vec<Priced> = route
            .replicas
            .iter()
            .map(|&r| {
                let replica = &replicas[r];
                let timeline = &devices[replica.device].timeline;
                let signals = replica.server.queue_signals(timeline, arrival_us);
                let pred =
                    warm_model.and_then(|m| m.predict(replica.server.features()?, 1, &signals));
                let score = pred.as_ref().map_or_else(
                    || (replica.server.queue_depth() as f64 + 1.0) * replica.service_us,
                    |p| p.p50_us,
                );
                Priced {
                    replica: r,
                    signals,
                    pred,
                    score,
                }
            })
            .collect();
        order.sort_by(|a, b| a.score.total_cmp(&b.score));
        // Affinity tie-break: when the top scores are within epsilon, prefer
        // the replica that served this (model, tenant) most recently —
        // sticky routing where the scores cannot tell replicas apart.
        let mut affinity_choice = None;
        if let Some(prev) = entry.last_replica.filter(|_| order.len() >= 2) {
            let bound = order[0].score * (1.0 + AFFINITY_EPSILON);
            let ties = order.iter().take_while(|p| p.score <= bound).count();
            if ties >= 2 {
                if let Some(pos) = order[..ties].iter().position(|p| p.replica == prev) {
                    let chosen = order.remove(pos);
                    order.insert(0, chosen);
                    affinity_choice = Some(prev);
                }
            }
        }
        // One trace context per request, minted at fleet admission. Each
        // placement attempt re-stamps the attempted replica's score and
        // predicted latency, so the trace that survives carries the numbers
        // of the replica that actually served (or finally refused) it.
        let mut ctx = TraceCtx::new(idgen.mint());
        let mut deadline_blocked = false;
        for priced in &order {
            let r = priced.replica;
            let replica = &mut replicas[r];
            ctx.router_score = priced.score;
            if let Some(p) = &priced.pred {
                ctx.predicted_p50_us = p.p50_us;
                ctx.predicted_p99_us = p.p99_us;
            }
            match replica.server.try_submit_traced(
                &mut devices[replica.device].timeline,
                frame,
                arrival_us,
                priced.signals,
                ctx,
            ) {
                Ok(()) => {
                    replica.routed += 1;
                    replica.routed_metric.inc();
                    if warm_model.is_some() {
                        self.predicted_metric.inc();
                    } else {
                        self.heuristic_metric.inc();
                    }
                    if affinity_choice == Some(r) {
                        self.affinity_metric.inc();
                    }
                    entry.last_replica = Some(r);
                    return Ok(());
                }
                Err(ServingError::QueueFull) => continue,
                Err(ServingError::DeadlineUnmeetable) => {
                    deadline_blocked = true;
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        *rejected += 1;
        entry.rejected.inc();
        // Deadline-blocked everywhere reads differently from merely full:
        // the caller learns shedding was a latency decision, not capacity.
        let outcome = if deadline_blocked {
            TraceOutcome::DeadlineRejected
        } else {
            TraceOutcome::QueueRejected
        };
        // The fleet-level rejection trace: no replica took the frame, so it
        // carries no device — just the admission marker and the last
        // attempted replica's score, preserving one-trace-per-request.
        self.recorder.record(RequestTrace::unserved(
            ctx,
            frame,
            Arc::from(model),
            None,
            Some(Arc::from(tenant)),
            arrival_us,
            outcome,
        ));
        Err(if deadline_blocked {
            ServingError::DeadlineUnmeetable
        } else {
            ServingError::QueueFull
        })
    }

    /// [`Fleet::run_until`]: steps the replica with the earliest next event
    /// on its device's timeline until none is due by `t_us`.
    fn run_until(&mut self, t_us: f64) {
        loop {
            let next = self
                .replicas
                .iter()
                .enumerate()
                .filter_map(|(i, r)| Some((r.server.next_event_us()?, i)))
                .min_by(|a, b| a.0.total_cmp(&b.0));
            match next {
                Some((at, i)) if at <= t_us => self.step(i, at),
                _ => break,
            }
        }
        for i in 0..self.replicas.len() {
            self.step(i, t_us);
        }
    }

    /// Advances replica `i` to `t_us` on its device's timeline.
    fn step(&mut self, i: usize, t_us: f64) {
        let replica = &mut self.replicas[i];
        let timeline = &mut self.devices[replica.device].timeline;
        replica.server.advance(timeline, t_us);
    }
}

impl TenantRoute {
    /// Registers the (model, tenant) admission counters in `reg`.
    fn register(reg: &Registry, model: &str, tenant: &str) -> Self {
        let labels: &[(&str, &str)] = &[("model", model), ("tenant", tenant)];
        Self {
            submitted: reg.counter(
                "trtsim_fleet_submitted_total",
                "Requests offered to the fleet router, by model and tenant",
                labels,
            ),
            rejected: reg.counter(
                "trtsim_fleet_rejected_total",
                "Requests refused because every replica queue was full",
                labels,
            ),
            last_replica: None,
        }
    }
}

/// One replica's final accounting inside a [`FleetStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaStats {
    /// Fleet device name the replica ran on.
    pub device: String,
    /// Engine (model) name.
    pub model: String,
    /// Tenant the replica was dedicated to, if any.
    pub tenant: Option<String>,
    /// Frames the router dispatched here.
    pub routed: u64,
    /// The replica server's full statistics (per-device p50/p90/p99 live in
    /// `stats.latency`).
    pub stats: ServerStats,
}

/// Fleet-wide aggregate of every replica's counters and latency tail.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Per-replica accounting, in placement order.
    pub replicas: Vec<ReplicaStats>,
    /// Requests offered to the router.
    pub submitted: u64,
    /// Requests some replica accepted (= Σ per-replica accepted).
    pub accepted: u64,
    /// Requests refused by admission control (every replica full).
    pub rejected: u64,
    /// Frames fully served across the fleet.
    pub completed: u64,
    /// Accepted frames discarded by abort across the fleet.
    pub dropped: u64,
    /// Fleet-wide latency percentiles, merged over every completion.
    pub latency: LatencyPercentiles,
    /// Largest simulated clock over the fleet's device timelines, seconds.
    pub simulated_seconds: f64,
    /// Completed frames per simulated second, fleet-wide.
    pub aggregate_fps: f64,
    /// Dispatches scored by the warm shared latency model.
    pub predicted_dispatches: u64,
    /// Dispatches scored by the static heuristic (model cold or predictive
    /// scoring off).
    pub heuristic_dispatches: u64,
    /// Score ties the affinity tie-break resolved toward the replica that
    /// served the (model, tenant) most recently.
    pub affinity_hits: u64,
    /// Completed frames that landed past their replica's deadline, summed
    /// over replicas (0 when no deadline is configured).
    pub deadline_missed: u64,
    /// Frames some replica's deadline-based admission refused, summed over
    /// replicas.
    pub deadline_rejected: u64,
}

impl FleetStats {
    /// Frames completed on the named device (0 for unknown names).
    pub fn device_completed(&self, device: &str) -> u64 {
        self.replicas
            .iter()
            .filter(|r| r.device == device)
            .map(|r| r.stats.completed)
            .sum()
    }

    /// The named device's share of all completed frames, in `[0, 1]`.
    pub fn completed_share(&self, device: &str) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.device_completed(device) as f64 / self.completed as f64
        }
    }

    /// Goodput against an offered-load horizon: completed frames per second
    /// of trace duration. This is the fleet-vs-single-device comparison
    /// number — under the same offered trace, more capacity completes more
    /// of it.
    pub fn goodput_fps(&self, horizon_us: f64) -> f64 {
        self.completed as f64 / (horizon_us / 1e6).max(1e-12)
    }
}

fn aggregate(
    replicas: Vec<ReplicaStats>,
    submitted: u64,
    rejected: u64,
    predicted_dispatches: u64,
    heuristic_dispatches: u64,
    affinity_hits: u64,
) -> FleetStats {
    let accepted = replicas.iter().map(|r| r.stats.accepted).sum();
    let completed = replicas.iter().map(|r| r.stats.completed).sum();
    let dropped = replicas.iter().map(|r| r.stats.dropped).sum();
    let deadline_missed = replicas.iter().map(|r| r.stats.deadline_missed).sum();
    let deadline_rejected = replicas.iter().map(|r| r.stats.deadline_rejected).sum();
    let simulated_seconds = replicas
        .iter()
        .map(|r| r.stats.simulated_seconds)
        .fold(0.0f64, f64::max);
    let latencies: Vec<f64> = replicas
        .iter()
        .flat_map(|r| {
            r.stats
                .completions
                .iter()
                .map(|c| (c.done_us - c.arrival_us).max(0.0))
        })
        .collect();
    FleetStats {
        replicas,
        submitted,
        accepted,
        rejected,
        completed,
        dropped,
        latency: LatencyPercentiles::from_runs_us(&latencies),
        simulated_seconds,
        aggregate_fps: completed as f64 / simulated_seconds.max(1e-12),
        predicted_dispatches,
        heuristic_dispatches,
        affinity_hits,
        deadline_missed,
        deadline_rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::BuilderConfig;
    use crate::runtime::TimingOptions;
    use trtsim_gpu::device::Platform;
    use trtsim_ir::graph::{Graph, LayerKind};
    use trtsim_util::rng::Pcg32;

    fn engine(name: &str) -> Engine {
        let mut g = Graph::new(name, [3, 32, 32]);
        let c1 = g.add_layer(
            "c1",
            LayerKind::conv_seeded(32, 3, 3, 1, 1, 0),
            &[Graph::INPUT],
        );
        let c2 = g.add_layer("c2", LayerKind::conv_seeded(32, 32, 3, 1, 1, 1), &[c1]);
        g.mark_output(c2);
        Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(7),
        )
        .build(&g)
        .unwrap()
    }

    fn config() -> ServerConfig {
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(512)
            .with_timing(
                TimingOptions::default()
                    .without_engine_upload()
                    .with_run_jitter_sd(0.0)
                    .with_host_glue_us(200.0),
            )
    }

    /// Open-loop Poisson arrivals, inline (core cannot depend on
    /// trtsim-data; the DSL path uses `ArrivalTrace` for the same thing).
    fn poisson_arrivals(frames: usize, mean_gap_us: f64, seed: u64) -> Vec<f64> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut clock = 0.0;
        (0..frames)
            .map(|_| {
                clock += -mean_gap_us * (1.0 - rng.next_f64()).ln();
                clock
            })
            .collect()
    }

    /// Square-wave burst arrivals: tight gaps inside the burst window,
    /// long gaps outside.
    fn burst_arrivals(frames: usize, quiet_gap_us: f64, burst_gap_us: f64) -> Vec<f64> {
        let cycle_us = 4_000.0f64;
        let mut clock = 0.0f64;
        (0..frames)
            .map(|_| {
                let in_burst = (clock / cycle_us).fract() < 0.25;
                clock += if in_burst { burst_gap_us } else { quiet_gap_us };
                clock
            })
            .collect()
    }

    fn solo_fps(e: &Engine, spec: &DeviceSpec, arrivals: &[f64]) -> f64 {
        let mut server = InferenceServer::start(e, spec, config()).unwrap();
        for (i, &t) in arrivals.iter().enumerate() {
            server.try_submit_at(i as u64, t).unwrap();
        }
        server.drain().aggregate_fps
    }

    fn nx_agx_mix() -> Vec<(&'static str, DeviceSpec)> {
        vec![
            ("nx0", DeviceSpec::pinned_clock(Platform::Nx)),
            ("nx1", DeviceSpec::max_clock(Platform::Nx)),
            ("agx0", DeviceSpec::pinned_clock(Platform::Agx)),
            ("agx1", DeviceSpec::max_clock(Platform::Agx)),
        ]
    }

    #[test]
    fn fleet_outperforms_any_single_device() {
        let e = engine("fleet-goodput");
        // Both open-loop shapes the paper's deployment would face: steady
        // Poisson and square-wave bursts, each far above single-device
        // capacity so throughput (not arrival rate) is what's measured.
        let traces = [
            poisson_arrivals(192, 40.0, 11),
            burst_arrivals(192, 400.0, 10.0),
        ];
        for arrivals in &traces {
            let mut builder = FleetBuilder::new();
            for (name, spec) in nx_agx_mix() {
                builder = builder.device(name, spec);
            }
            for (name, _) in nx_agx_mix() {
                builder = builder.replica(name, &e, config()).unwrap();
            }
            let fleet = builder.start(FleetConfig::default()).unwrap();
            let (accepted, rejected) = fleet.replay(e.name(), arrivals, 0);
            assert_eq!(accepted, arrivals.len() as u64);
            assert_eq!(rejected, 0);
            let stats = fleet.drain();
            assert_eq!(stats.completed, arrivals.len() as u64);
            let best_solo = nx_agx_mix()
                .iter()
                .map(|(_, spec)| solo_fps(&e, spec, arrivals))
                .fold(0.0f64, f64::max);
            assert!(
                stats.aggregate_fps > best_solo * 1.2,
                "fleet {} fps should beat best solo {} fps",
                stats.aggregate_fps,
                best_solo
            );
        }
    }

    #[test]
    fn router_steers_load_away_from_saturated_device() {
        let e = engine("fleet-steer");
        let fleet = FleetBuilder::new()
            .device("weak", DeviceSpec::pinned_clock(Platform::Nx))
            .device("strong", DeviceSpec::max_clock(Platform::Agx))
            .replica("weak", &e, config().with_workers(1))
            .unwrap()
            .replica("strong", &e, config().with_workers(4))
            .unwrap()
            .start(FleetConfig::default())
            .unwrap();
        let arrivals = poisson_arrivals(200, 30.0, 3);
        fleet.replay(e.name(), &arrivals, 0);
        let stats = fleet.drain();
        assert_eq!(stats.completed, 200);
        // The pinned single-worker NX saturates almost immediately; the
        // least-estimated-finish score must keep routing the bulk of the
        // trace to the AGX with headroom.
        let weak_share = stats.completed_share("weak");
        assert!(
            weak_share < 0.4,
            "saturated device kept attracting load: share {weak_share}"
        );
        assert!(stats.device_completed("strong") > stats.device_completed("weak"));
    }

    #[test]
    fn admission_counters_are_conserved() {
        let e = engine("fleet-conserve");
        let tight = config().with_queue_capacity(4).with_workers(1);
        let fleet = FleetBuilder::new()
            .device("nx0", DeviceSpec::pinned_clock(Platform::Nx))
            .device("nx1", DeviceSpec::pinned_clock(Platform::Nx))
            .replica("nx0", &e, tight)
            .unwrap()
            .replica("nx1", &e, tight)
            .unwrap()
            .start(FleetConfig::default())
            .unwrap();
        // Everything arrives at t = 0. Each replica takes one frame onto its
        // single stream (batch 1, no wait) and queues four more: 2 × (1 + 4)
        // = 10 accepted, the other 54 rejected by admission control.
        let arrivals = vec![0.0; 64];
        let (accepted, rejected) = fleet.replay(e.name(), &arrivals, 0);
        assert_eq!((accepted, rejected), (10, 54));
        let stats = fleet.drain();
        assert_eq!(stats.submitted, 64);
        assert_eq!(stats.accepted, accepted);
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.submitted, stats.accepted + stats.rejected);
        assert_eq!(
            stats.replicas.iter().map(|r| r.routed).collect::<Vec<_>>(),
            vec![5, 5]
        );
        assert_eq!(
            stats.accepted,
            stats.replicas.iter().map(|r| r.stats.accepted).sum::<u64>()
        );
        assert_eq!(
            stats.accepted,
            stats.replicas.iter().map(|r| r.routed).sum::<u64>()
        );
        assert_eq!(stats.completed + stats.dropped, stats.accepted);
        assert_eq!(
            stats.completed,
            stats.device_completed("nx0") + stats.device_completed("nx1")
        );
    }

    #[test]
    fn affinity_tie_break_sticks_to_the_recent_replica() {
        let e = engine("fleet-affinity");
        // Two byte-identical devices: the dispatch scores tie exactly on
        // every submit, so only the affinity tie-break decides.
        let fleet = FleetBuilder::new()
            .device("twin0", DeviceSpec::max_clock(Platform::Nx))
            .device("twin1", DeviceSpec::max_clock(Platform::Nx))
            .replica("twin0", &e, config())
            .unwrap()
            .replica("twin1", &e, config())
            .unwrap()
            .start(FleetConfig::default())
            .unwrap();
        let submits = 8u64;
        for frame in 0..submits {
            // 10 ms apart in simulated time: each submit finds both replicas
            // idle, an exact score tie.
            fleet
                .submit(e.name(), frame, frame as f64 * 10_000.0)
                .unwrap();
        }
        let stats = fleet.drain();
        assert_eq!(stats.completed, submits);
        // First submit seeds the history; every later tie resolves to the
        // same replica, so one replica serves everything.
        assert_eq!(stats.affinity_hits, submits - 1);
        let shares: Vec<u64> = stats.replicas.iter().map(|r| r.routed).collect();
        assert!(
            shares.contains(&submits),
            "ties should stick to one replica, got {shares:?}"
        );
    }

    #[test]
    fn cold_predictive_fleet_falls_back_to_the_heuristic() {
        let e = engine("fleet-cold");
        let fleet = FleetBuilder::new()
            .device("nx0", DeviceSpec::pinned_clock(Platform::Nx))
            .device("agx0", DeviceSpec::max_clock(Platform::Agx))
            .replica("nx0", &e, config())
            .unwrap()
            .replica("agx0", &e, config())
            .unwrap()
            // A warm-up threshold the run cannot reach: every dispatch must
            // take the heuristic path even though the model exists.
            .start(
                FleetConfig::default()
                    .with_predictive(true)
                    .with_predictor_min_obs(1 << 40),
            )
            .unwrap();
        let arrivals = poisson_arrivals(64, 50.0, 5);
        let (accepted, _) = fleet.replay(e.name(), &arrivals, 0);
        let stats = fleet.drain();
        assert_eq!(stats.heuristic_dispatches, accepted);
        assert_eq!(stats.predicted_dispatches, 0);
    }

    #[test]
    fn warm_predictive_fleet_switches_to_model_scores() {
        let e = engine("fleet-warm");
        let fleet = FleetBuilder::new()
            .device("nx0", DeviceSpec::pinned_clock(Platform::Nx))
            .device("agx0", DeviceSpec::max_clock(Platform::Agx))
            .replica("nx0", &e, config())
            .unwrap()
            .replica("agx0", &e, config())
            .unwrap()
            .start(
                FleetConfig::default()
                    .with_predictive(true)
                    .with_predictor_min_obs(16),
            )
            .unwrap();
        let model = fleet.latency_model().expect("predictive fleet has a model");
        let arrivals = poisson_arrivals(200, 40.0, 9);
        let (first, second) = arrivals.split_at(100);
        let (mut accepted, _) = fleet.replay(e.name(), first, 0);
        // Completions train the model as the clock passes them, so the first
        // wave warms it before the second wave is routed.
        assert!(model.is_warm());
        accepted += fleet.replay(e.name(), second, 100).0;
        let stats = fleet.drain();
        assert_eq!(stats.completed, accepted);
        // Early dispatches are heuristic (cold model), the second wave is
        // model-scored.
        assert!(
            stats.predicted_dispatches > 0,
            "model never warmed: {} heuristic / {} predicted",
            stats.heuristic_dispatches,
            stats.predicted_dispatches
        );
        assert!(model.is_warm());
        assert!(model.observations() >= 16);
        assert_eq!(
            stats.predicted_dispatches + stats.heuristic_dispatches,
            accepted
        );
    }

    #[test]
    fn builder_rejects_bad_topology() {
        let e = engine("fleet-topology");
        assert!(matches!(
            FleetBuilder::new().replica("ghost", &e, config()),
            Err(ServingError::InvalidConfig(_))
        ));
        assert!(matches!(
            FleetBuilder::new().start(FleetConfig::default()),
            Err(ServingError::InvalidConfig(_))
        ));
        assert!(matches!(
            FleetBuilder::new()
                .device("nx0", DeviceSpec::xavier_nx())
                .start(FleetConfig::default()),
            Err(ServingError::InvalidConfig(_))
        ));
        assert!(matches!(
            FleetBuilder::new()
                .device("nx0", DeviceSpec::xavier_nx())
                .device("nx0", DeviceSpec::xavier_nx())
                .replica("nx0", &e, config())
                .unwrap()
                .start(FleetConfig::default()),
            Err(ServingError::InvalidConfig(_))
        ));
    }

    #[test]
    fn unknown_model_is_rejected_without_counting() {
        let e = engine("fleet-unknown");
        let fleet = FleetBuilder::new()
            .device("nx0", DeviceSpec::xavier_nx())
            .replica("nx0", &e, config())
            .unwrap()
            .start(FleetConfig::default())
            .unwrap();
        assert!(matches!(
            fleet.submit("no-such-model", 0, 0.0),
            Err(ServingError::InvalidConfig(_))
        ));
        let stats = fleet.drain();
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn invalid_arrival_stamps_are_refused_uncounted() {
        let e = engine("fleet-stamps");
        let fleet = FleetBuilder::new()
            .device("nx0", DeviceSpec::xavier_nx())
            .replica("nx0", &e, config())
            .unwrap()
            .start(FleetConfig::default())
            .unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5e6] {
            assert!(matches!(
                fleet.submit(e.name(), 0, bad),
                Err(ServingError::InvalidArrival(_))
            ));
            assert!(matches!(
                fleet.submit_as("cam", e.name(), 0, bad),
                Err(ServingError::InvalidArrival(_))
            ));
        }
        let stats = fleet.drain();
        assert_eq!((stats.submitted, stats.accepted, stats.rejected), (0, 0, 0));
    }

    #[test]
    fn per_tenant_submission_is_tracked() {
        let e = engine("fleet-tenant");
        let fleet = FleetBuilder::new()
            .device("agx0", DeviceSpec::xavier_agx())
            .replica_for_tenant("agx0", &e, config(), Some("cam-east"))
            .unwrap()
            .start(FleetConfig::default())
            .unwrap();
        fleet.submit_as("cam-east", e.name(), 0, 0.0).unwrap();
        fleet.submit_as("cam-west", e.name(), 1, 10.0).unwrap();
        let stats = fleet.drain();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.replicas[0].tenant.as_deref(), Some("cam-east"));
    }

    #[test]
    fn per_tenant_counters_match_what_each_tenant_saw() {
        let e = engine("fleet-tenant-counts");
        let tight = config().with_workers(1).with_queue_capacity(2);
        let fleet = FleetBuilder::new()
            .device("agx0", DeviceSpec::xavier_agx())
            .device("nx0", DeviceSpec::xavier_nx())
            .replica("agx0", &e, tight)
            .unwrap()
            .replica("nx0", &e, tight)
            .unwrap()
            .start(FleetConfig::default())
            .unwrap();
        // Arrivals far faster than two one-worker replicas serve, so every
        // tenant sees both placements and refusals.
        let tenants = ["cam-a", "cam-b", "default", "cam-a", "cam-c"];
        let mut seen: HashMap<&str, (u64, u64)> = HashMap::new();
        for i in 0..200u64 {
            let tenant = tenants[i as usize % tenants.len()];
            let outcome = fleet.submit_as(tenant, e.name(), i, i as f64 * 20.0);
            let (ok, refused) = seen.entry(tenant).or_default();
            match outcome {
                Ok(()) => *ok += 1,
                Err(ServingError::QueueFull) => *refused += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        let reg = fleet.registry();
        for (tenant, &(ok, refused)) in &seen {
            assert!(
                ok > 0 && refused > 0,
                "{tenant}: {ok} placed, {refused} refused"
            );
            let labels: &[(&str, &str)] = &[("model", e.name()), ("tenant", tenant)];
            let submitted = reg.counter("trtsim_fleet_submitted_total", "", labels);
            let rejected = reg.counter("trtsim_fleet_rejected_total", "", labels);
            assert_eq!((submitted.get(), rejected.get()), (ok + refused, refused));
        }
        let stats = fleet.drain();
        let refused: u64 = seen.values().map(|&(_, r)| r).sum();
        assert_eq!((stats.submitted, stats.rejected), (200, refused));
    }
}
