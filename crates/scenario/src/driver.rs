//! The one generic driver every scenario runs through.
//!
//! This is the piece the repro bins used to hand-roll twenty times over:
//! given an [`ExecutionPlan`], source the engines (shared
//! [`EngineFarm`] zoo for `source = zoo`, seeded fresh builds for
//! `source = fresh`), execute each unit's traffic — closed-loop latency via
//! [`ExecutionContext::measure_latency`], closed-loop or Poisson open-loop
//! serving via [`InferenceServer`] — and fold the outcomes into named
//! metrics the assertion nodes are checked against. Driver activity lands
//! in the caller's telemetry [`Registry`] (`trtsim_scenario_units_total`,
//! `trtsim_scenario_asserts_total`), next to the final series of every
//! server and fleet a unit ran.
//!
//! Parity with the legacy harnesses is load-bearing, not cosmetic: the
//! integration tests pin this driver's numbers equal to
//! `trtsim_repro::exp_fps`, `trtsim_repro::exp_serving`, and the
//! `adas_pipeline` example, so every code path here mirrors those exactly
//! (same engine provenance, same `TimingOptions`, same seeds).

use std::sync::Arc;

use trtsim_core::fleet::{FleetBuilder, FleetConfig};
use trtsim_core::runtime::{ExecutionContext, TimingOptions};
use trtsim_core::serving::{InferenceServer, ServerConfig, ServingError};
use trtsim_core::{Builder, BuilderConfig, Engine, RequestTrace};

/// What a serving/fleet unit returns: its metric rows, the flight
/// recorder's retained request traces, and the server's or fleet's registry.
type ServingUnitResult = (Vec<(String, f64)>, Vec<RequestTrace>, Arc<Registry>);
use trtsim_data::traffic::ArrivalTrace;
use trtsim_gpu::contention;
use trtsim_gpu::device::Platform;
use trtsim_metrics::{fps_from_latency_us, Counter, LatencyPercentiles, Registry};
use trtsim_models::ModelId;
use trtsim_repro::exp_fps::unoptimized_latency_us;
use trtsim_repro::support::{EngineFarm, FarmKey};
use trtsim_util::derive_seed;
use trtsim_util::stats::Summary;

use crate::compile::{ExecutionPlan, PlanUnit};
use crate::validate::{EngineSource, FleetTrace, PowerMode, TrafficKind};

fn scenario_counter(registry: &Registry, metric: &str, label: &str) -> Counter {
    registry.counter(
        &format!("trtsim_scenario_{metric}_total"),
        "Scenario-driver activity by kind/outcome",
        &[("kind", label)],
    )
}

/// A driver failure (engine builds panic inside the farm instead — a
/// validated network failing to build is a bug, not an input error).
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// The inference server rejected its configuration or a submission.
    Serving(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Serving(msg) => write!(f, "serving error: {msg}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<ServingError> for DriverError {
    fn from(e: ServingError) -> Self {
        DriverError::Serving(format!("{e:?}"))
    }
}

/// The timed runs of one engine build (latency traffic only).
#[derive(Debug, Clone, PartialEq)]
pub struct BuildRuns {
    /// Build index.
    pub build: u32,
    /// Per-run latencies, µs.
    pub samples: Vec<f64>,
}

/// One executed unit's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitResult {
    /// Display label (see [`PlanUnit::label`]).
    pub label: String,
    /// Traffic node name.
    pub traffic: String,
    /// Model node name.
    pub model: String,
    /// Network under test.
    pub network: ModelId,
    /// Platform executed on.
    pub platform: Platform,
    /// Device node name.
    pub device: String,
    /// Batch size.
    pub batch: u32,
    /// `latency` / `closed` / `poisson` / `fleet` / `concurrency`.
    pub kind: &'static str,
    /// Host wall-clock time spent executing the unit, ms.
    pub wall_ms: f64,
    /// Named metrics (keys from [`crate::validate::METRICS`]).
    pub metrics: Vec<(String, f64)>,
    /// Raw per-build samples (latency traffic; empty for serving).
    pub builds: Vec<BuildRuns>,
    /// Request traces the serving/fleet flight recorder retained (empty for
    /// latency and concurrency units). Dumped by `scenario run --trace-out`.
    pub traces: Vec<RequestTrace>,
}

impl UnitResult {
    /// Looks up a metric by key.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// One assertion check against one unit.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertOutcome {
    /// Assert node name.
    pub name: String,
    /// Unit label the bound was checked against.
    pub unit: String,
    /// Metric key.
    pub metric: String,
    /// Observed value; `None` when the unit never produced the metric.
    pub value: Option<f64>,
    /// Inclusive lower bound, if any.
    pub min: Option<f64>,
    /// Inclusive upper bound, if any.
    pub max: Option<f64>,
    /// Whether the bound held.
    pub passed: bool,
}

impl AssertOutcome {
    /// Renders `name: metric=value in [min, max] — ok|FAIL`.
    pub fn render(&self) -> String {
        let bound = match (self.min, self.max) {
            (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
            (Some(lo), None) => format!(">= {lo}"),
            (None, Some(hi)) => format!("<= {hi}"),
            (None, None) => "(no bound)".into(),
        };
        let value = match self.value {
            Some(v) => format!("{v:.3}"),
            None => "missing".into(),
        };
        format!(
            "{}: {} = {} {} on {} — {}",
            self.name,
            self.metric,
            value,
            bound,
            self.unit,
            if self.passed { "ok" } else { "FAIL" }
        )
    }
}

/// Everything one scenario run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Unit outcomes, in plan order.
    pub units: Vec<UnitResult>,
    /// Assertion outcomes, in plan order.
    pub asserts: Vec<AssertOutcome>,
}

impl ScenarioReport {
    /// Whether every assertion held.
    pub fn passed(&self) -> bool {
        self.asserts.iter().all(|a| a.passed)
    }
}

/// Sources the engine for `(unit, build)` — the farm zoo for `zoo`, a
/// memoized seeded build on the unit's execution device for `fresh`.
fn engine_for(unit: &PlanUnit, build: u32) -> Arc<Engine> {
    let farm = EngineFarm::global();
    match unit.source {
        EngineSource::Zoo => farm.zoo(unit.network, unit.device.platform, u64::from(build)),
        EngineSource::Fresh { seed } => {
            let power_salt = match unit.device.power {
                PowerMode::Max => 0,
                PowerMode::Pinned => 1,
            };
            let key = FarmKey {
                domain: "scenario",
                model: unit.network,
                platform: unit.device.platform,
                index: u64::from(build),
                // Different base seeds / power modes must not collide in the
                // farm's memo table.
                variant: derive_seed(seed, "scenario", power_salt),
            };
            farm.get_or_build(key, |cache| {
                Builder::new(
                    unit.device_spec(),
                    BuilderConfig::default()
                        .with_build_seed(seed + u64::from(build))
                        .with_timing_cache(cache.clone()),
                )
                .build(&unit.network.descriptor())
            })
        }
    }
}

/// Timing options shared by every unit: engine resident, upload excluded —
/// the paper's FPS convention ("excluding the time to load the image").
fn unit_timing(unit: &PlanUnit, jitter_sd: f64) -> TimingOptions {
    TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(unit.host_glue_us)
        .with_run_jitter_sd(jitter_sd)
}

fn run_latency_unit(
    unit: &PlanUnit,
    runs: u32,
    jitter_sd: f64,
    compare_unoptimized: bool,
) -> (Vec<(String, f64)>, Vec<BuildRuns>) {
    let opts = unit_timing(unit, jitter_sd);
    let mut builds = Vec::new();
    let mut all = Vec::new();
    for build in 0..unit.builds {
        let engine = engine_for(unit, build);
        let ctx = ExecutionContext::new(&engine, unit.device_spec());
        // Seeding by build index matches the legacy harnesses: exp_fps uses
        // seed 0 for its single build, adas_pipeline seeds run `b` with `b`.
        let samples = ctx.measure_latency(&opts, runs as usize, u64::from(build));
        all.extend_from_slice(&samples);
        builds.push(BuildRuns { build, samples });
    }
    let tail = LatencyPercentiles::from_runs_us(&all);
    let summary = Summary::from_samples(&all);
    let fps = fps_from_latency_us(tail.mean_us);
    let mut metrics = vec![
        ("fps".to_string(), fps),
        ("mean_us".to_string(), tail.mean_us),
        ("p50_us".to_string(), tail.p50_us),
        ("p90_us".to_string(), tail.p90_us),
        ("p95_us".to_string(), summary.p95),
        ("p99_us".to_string(), tail.p99_us),
        ("max_us".to_string(), tail.max_us),
    ];
    if compare_unoptimized {
        let unopt_fps =
            fps_from_latency_us(unoptimized_latency_us(unit.network, &unit.device_spec()));
        metrics.push(("unoptimized_fps".to_string(), unopt_fps));
        metrics.push(("gain".to_string(), fps / unopt_fps));
    }
    (metrics, builds)
}

#[allow(clippy::too_many_arguments)]
fn run_serving_unit(
    unit: &PlanUnit,
    frames: u32,
    workers: u32,
    queue: u32,
    timeout_us: f64,
    arrival: Option<(f64, u64)>,
    deadline_us: Option<f64>,
) -> Result<ServingUnitResult, DriverError> {
    let engine = engine_for(unit, 0);
    let device = unit.device_spec();
    // Serving is deterministic (jitter 0), matching exp_serving.
    let mut config = ServerConfig::default()
        .with_workers(workers as usize)
        .with_queue_capacity(queue as usize)
        .with_max_batch_size(unit.batch as usize)
        .with_batch_timeout_us(timeout_us)
        .with_timing(unit_timing(unit, 0.0));
    if let Some((period_us, seed)) = arrival {
        config = config
            .with_arrival_period_us(period_us)
            .with_poisson_arrivals(seed);
    }
    // A deadline turns on predictive serving: SLO-aware batch sizing and
    // per-request miss accounting.
    if let Some(d) = deadline_us {
        config = config.with_deadline_us(d).with_predictive(true);
    }
    let server = InferenceServer::start(&engine, &device, config)?;
    let recorder = server.flight_recorder();
    let server_registry = server.registry();
    let mut rejected = 0u64;
    for frame in 0..u64::from(frames) {
        match server.submit(frame) {
            Ok(()) => {}
            Err(ServingError::QueueFull) => rejected += 1,
            Err(e) => return Err(e.into()),
        }
    }
    let stats = server.drain();
    let metrics = vec![
        ("fps".to_string(), stats.aggregate_fps),
        ("mean_us".to_string(), stats.latency.mean_us),
        ("p50_us".to_string(), stats.latency.p50_us),
        ("p90_us".to_string(), stats.latency.p90_us),
        ("p99_us".to_string(), stats.latency.p99_us),
        ("max_us".to_string(), stats.latency.max_us),
        ("gr3d_percent".to_string(), stats.gr3d_percent),
        ("batches".to_string(), stats.batches as f64),
        ("completed".to_string(), stats.completed as f64),
        ("rejected".to_string(), (stats.rejected + rejected) as f64),
        ("deadline_missed".to_string(), stats.deadline_missed as f64),
        (
            "deadline_miss_rate".to_string(),
            stats.deadline_missed as f64 / (stats.completed.max(1)) as f64,
        ),
    ];
    Ok((metrics, recorder.traces(), server_registry))
}

/// Lowers a fleet unit's arrival-trace declaration into timestamps.
fn fleet_arrivals(trace: &FleetTrace, frames: u32, seed: u64) -> ArrivalTrace {
    let frames = frames as usize;
    match trace {
        FleetTrace::Poisson { period_us } => ArrivalTrace::poisson(*period_us, frames, seed),
        FleetTrace::Diurnal {
            period_us,
            peak_period_us,
            cycle_us,
        } => ArrivalTrace::diurnal(*period_us, *peak_period_us, *cycle_us, frames, seed),
        FleetTrace::Burst {
            period_us,
            peak_period_us,
            cycle_us,
            burst_fraction,
        } => ArrivalTrace::burst(
            *period_us,
            *peak_period_us,
            *cycle_us,
            *burst_fraction,
            frames,
            seed,
        ),
    }
}

/// One fleet unit: every device the unit spans becomes a board, one replica
/// of the unit's engine per board, and the trace is replayed through the
/// router ([`trtsim_core::fleet::Fleet`]).
#[allow(clippy::too_many_arguments)]
fn run_fleet_unit(
    unit: &PlanUnit,
    trace: &FleetTrace,
    frames: u32,
    workers: u32,
    queue: u32,
    seed: u64,
    tenant: Option<&str>,
    deadline_us: Option<f64>,
) -> Result<ServingUnitResult, DriverError> {
    let engine = engine_for(unit, 0);
    let mut config = ServerConfig::default()
        .with_workers(workers as usize)
        .with_queue_capacity(queue as usize)
        .with_max_batch_size(unit.batch as usize)
        .with_batch_timeout_us(0.0)
        .with_timing(unit_timing(unit, 0.0));
    if let Some(d) = deadline_us {
        config = config.with_deadline_us(d).with_predictive(true);
    }
    let devices = unit.device_specs();
    let mut builder = FleetBuilder::new();
    for (decl, spec) in &devices {
        builder = builder.device(&decl.name, spec.clone());
    }
    for (decl, _) in &devices {
        builder = builder.replica_for_tenant(&decl.name, &engine, config, tenant)?;
    }
    // A deadline also turns on predictive routing: the fleet shares one
    // learned model across replicas and scores by predicted finish time.
    let fleet_config = FleetConfig::default().with_predictive(deadline_us.is_some());
    let fleet = builder.start(fleet_config)?;
    let recorder = fleet.flight_recorder();
    let fleet_registry = fleet.registry();
    let arrivals = fleet_arrivals(trace, frames, seed);
    let tenant = tenant.unwrap_or("default");
    for (i, &t) in arrivals.arrivals_us.iter().enumerate() {
        match fleet.submit_as(tenant, engine.name(), i as u64, t) {
            Ok(()) | Err(ServingError::QueueFull) | Err(ServingError::DeadlineUnmeetable) => {}
            Err(e) => return Err(e.into()),
        }
    }
    let stats = fleet.drain();
    let shares: Vec<f64> = devices
        .iter()
        .map(|(decl, _)| stats.completed_share(&decl.name))
        .collect();
    let total_completed: u64 = stats.completed;
    let gr3d = if total_completed == 0 {
        0.0
    } else {
        stats
            .replicas
            .iter()
            .map(|r| r.stats.gr3d_percent * r.stats.completed as f64)
            .sum::<f64>()
            / total_completed as f64
    };
    let metrics = vec![
        ("fps".to_string(), stats.aggregate_fps),
        ("mean_us".to_string(), stats.latency.mean_us),
        ("p50_us".to_string(), stats.latency.p50_us),
        ("p90_us".to_string(), stats.latency.p90_us),
        ("p99_us".to_string(), stats.latency.p99_us),
        ("max_us".to_string(), stats.latency.max_us),
        ("gr3d_percent".to_string(), gr3d),
        (
            "batches".to_string(),
            stats.replicas.iter().map(|r| r.stats.batches).sum::<u64>() as f64,
        ),
        ("completed".to_string(), stats.completed as f64),
        ("accepted".to_string(), stats.accepted as f64),
        ("rejected".to_string(), stats.rejected as f64),
        ("dropped".to_string(), stats.dropped as f64),
        ("devices".to_string(), devices.len() as f64),
        (
            "min_device_share".to_string(),
            shares.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        (
            "max_device_share".to_string(),
            shares.iter().copied().fold(0.0, f64::max),
        ),
        ("deadline_missed".to_string(), stats.deadline_missed as f64),
        (
            "deadline_miss_rate".to_string(),
            stats.deadline_missed as f64 / (stats.completed.max(1)) as f64,
        ),
    ];
    Ok((metrics, recorder.traces(), fleet_registry))
}

/// One concurrency unit: the closed-form saturation sweep, mirroring
/// `trtsim_repro::exp_concurrency::run` exactly (same engine provenance,
/// same profile inputs) so the parity tests can pin equality.
fn run_concurrency_unit(unit: &PlanUnit) -> Vec<(String, f64)> {
    let engine = engine_for(unit, 0);
    let device = unit.device_spec();
    let ctx = ExecutionContext::new(&engine, device.clone());
    let profile = ctx.profile(unit.host_glue_us);
    let (points, _) = contention::sweep(&profile, &device);
    let last = points.last().expect("sweep yields at least one point");
    vec![
        ("max_threads".to_string(), f64::from(last.threads)),
        ("fps".to_string(), last.fps),
        ("gr3d_percent".to_string(), last.utilization * 100.0),
    ]
}

/// Executes every unit of the plan, then checks every assertion. Driver
/// activity and the final series of every server and fleet a unit ran are
/// folded into `registry`.
///
/// # Errors
///
/// Returns the first [`DriverError`] — an invalid serving configuration
/// that survived validation (a driver bug, surfaced rather than hidden).
pub fn run(plan: &ExecutionPlan, registry: &Registry) -> Result<ScenarioReport, DriverError> {
    let mut units = Vec::with_capacity(plan.units.len());
    for unit in &plan.units {
        let started = std::time::Instant::now();
        let (kind, metrics, builds, traces) = match &unit.kind {
            TrafficKind::Latency {
                runs,
                jitter_sd,
                compare_unoptimized,
            } => {
                let (metrics, builds) =
                    run_latency_unit(unit, *runs, *jitter_sd, *compare_unoptimized);
                ("latency", metrics, builds, Vec::new())
            }
            TrafficKind::Closed {
                frames,
                workers,
                queue,
                timeout_us,
            } => {
                let (metrics, traces, owner) =
                    run_serving_unit(unit, *frames, *workers, *queue, *timeout_us, None, None)?;
                registry.absorb(&owner);
                ("closed", metrics, Vec::new(), traces)
            }
            TrafficKind::Poisson {
                frames,
                workers,
                queue,
                period_us,
                seed,
                deadline_us,
            } => {
                let (metrics, traces, owner) = run_serving_unit(
                    unit,
                    *frames,
                    *workers,
                    *queue,
                    f64::INFINITY,
                    Some((*period_us, *seed)),
                    *deadline_us,
                )?;
                registry.absorb(&owner);
                ("poisson", metrics, Vec::new(), traces)
            }
            TrafficKind::Fleet {
                trace,
                frames,
                workers,
                queue,
                seed,
                tenant,
                deadline_us,
            } => {
                let (metrics, traces, owner) = run_fleet_unit(
                    unit,
                    trace,
                    *frames,
                    *workers,
                    *queue,
                    *seed,
                    tenant.as_deref(),
                    *deadline_us,
                )?;
                registry.absorb(&owner);
                ("fleet", metrics, Vec::new(), traces)
            }
            TrafficKind::Concurrency => (
                "concurrency",
                run_concurrency_unit(unit),
                Vec::new(),
                Vec::new(),
            ),
        };
        scenario_counter(registry, "units", kind).inc();
        units.push(UnitResult {
            label: unit.label(),
            traffic: unit.traffic.clone(),
            model: unit.model.clone(),
            network: unit.network,
            platform: unit.device.platform,
            device: unit.device.name.clone(),
            batch: unit.batch,
            kind,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            metrics,
            builds,
            traces,
        });
    }
    let mut asserts = Vec::new();
    for a in &plan.asserts {
        for &u in &a.units {
            let unit = &units[u];
            let value = unit.metric(&a.metric);
            let passed = match value {
                None => false,
                Some(v) => {
                    v.is_finite()
                        && a.min.is_none_or(|lo| v >= lo)
                        && a.max.is_none_or(|hi| v <= hi)
                }
            };
            scenario_counter(registry, "asserts", if passed { "pass" } else { "fail" }).inc();
            asserts.push(AssertOutcome {
                name: a.name.clone(),
                unit: unit.label.clone(),
                metric: a.metric.clone(),
                value,
                min: a.min,
                max: a.max,
                passed,
            });
        }
    }
    Ok(ScenarioReport {
        name: plan.name.clone(),
        units,
        asserts,
    })
}
