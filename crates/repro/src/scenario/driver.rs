//! The one generic driver every scenario runs through.
//!
//! Given an [`ExecutionPlan`], it sources the engines (the caller's
//! [`EngineFarm`] zoo for `source = zoo`, seeded fresh builds for
//! `source = fresh`), executes each unit's traffic — closed-loop latency via
//! [`ExecutionContext::measure_latency`], closed-loop or Poisson open-loop
//! serving via [`InferenceServer`], fleets, the closed-form concurrency
//! sweep — and folds the outcomes into named metrics the assertion nodes
//! are checked against. Driver activity lands in the caller's telemetry
//! [`Registry`] (`trtsim_scn_units_total`, `trtsim_scn_asserts_total`),
//! next to the final series of every server and fleet a unit ran.
//!
//! The campaign's `table7`, `fig3`/`fig4`, `serving` and `table14_16`
//! sections render their tables from this driver's reports on the checked-in
//! `.scn` files, so the campaign goldens pin every number it produces there.

use std::sync::Arc;

use trtsim_core::fleet::{FleetBuilder, FleetConfig};
use trtsim_core::runtime::{ExecutionContext, TimingOptions};
use trtsim_core::serving::{InferenceServer, ServerConfig, ServingError};
use trtsim_core::{Builder, BuilderConfig, Engine, RequestTrace};
use trtsim_data::traffic::ArrivalTrace;
use trtsim_gpu::contention::{self, ConcurrencyPoint, ThreadBound};
use trtsim_gpu::device::Platform;
use trtsim_metrics::{fps_from_latency_us, Counter, LatencyPercentiles, Registry};
use trtsim_models::ModelId;
use trtsim_util::derive_seed;
use trtsim_util::stats::Summary;

use super::compile::{ExecutionPlan, PlanUnit};
use super::validate::{EngineSource, FleetTrace, PowerMode, TrafficKind};
use crate::exp_fps::unoptimized_latency_us;
use crate::support::{EngineFarm, FarmKey};

/// A concurrency unit's contention sweep, threads 1..=max, and what bounded
/// the thread count.
pub type Sweep = (Vec<ConcurrencyPoint>, ThreadBound);

fn scenario_counter(registry: &Registry, metric: &str, label: &str) -> Counter {
    registry.counter(
        &format!("trtsim_scn_{metric}_total"),
        "Scenario-driver activity by kind/outcome",
        &[("kind", label)],
    )
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
    /// The unit as planned: traffic and model nodes, network, device,
    /// batch size and the resolved traffic kind.
    pub plan: PlanUnit,
    /// Host wall-clock time spent executing the unit, ms.
    pub wall_ms: f64,
    /// Named metrics (keys from [`super::validate::METRICS`]).
    pub metrics: Vec<(String, f64)>,
    /// Raw per-build samples (latency traffic; empty otherwise).
    pub builds: Vec<BuildRuns>,
    /// Request traces the serving/fleet flight recorder retained (empty for
    /// latency and concurrency units). `campaign --scn FILE --out-dir DIR`
    /// dumps them.
    pub traces: Vec<RequestTrace>,
    /// The full contention sweep (concurrency traffic only).
    pub sweep: Option<Sweep>,
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

    /// The first unit that ran `network` on a `platform` device.
    pub fn unit(&self, network: ModelId, platform: Platform) -> Option<&UnitResult> {
        self.units
            .iter()
            .find(|u| u.plan.network == network && u.plan.device.platform == platform)
    }
}

/// Sources the engine for `(unit, build)` — the farm zoo for `zoo`, a
/// memoized seeded build on the unit's execution device for `fresh`.
fn engine_for(farm: &EngineFarm, unit: &PlanUnit, build: u32) -> Arc<Engine> {
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

/// Owned metric rows from `(key, value)` pairs.
fn named(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// What one unit's traffic produced, beyond its label and wall time.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(String, f64)>,
    builds: Vec<BuildRuns>,
    traces: Vec<RequestTrace>,
    sweep: Option<Sweep>,
}

fn run_latency_unit(
    farm: &EngineFarm,
    unit: &PlanUnit,
    runs: u32,
    jitter_sd: f64,
    compare_unoptimized: bool,
) -> Outcome {
    let opts = unit_timing(unit, jitter_sd);
    let mut builds = Vec::new();
    let mut all = Vec::new();
    for build in 0..unit.builds {
        let engine = engine_for(farm, unit, build);
        let ctx = ExecutionContext::new(&engine, unit.device_spec());
        // Runs are seeded by build index, as the adas_pipeline example
        // seeds build `b`'s runs with `b`.
        let samples = ctx.measure_latency(&opts, runs as usize, u64::from(build));
        all.extend_from_slice(&samples);
        builds.push(BuildRuns { build, samples });
    }
    let tail = LatencyPercentiles::from_runs_us(&all);
    let fps = fps_from_latency_us(tail.mean_us);
    let mut metrics = named(&[
        ("fps", fps),
        ("mean_us", tail.mean_us),
        ("p50_us", tail.p50_us),
        ("p90_us", tail.p90_us),
        ("p95_us", Summary::from_samples(&all).p95),
        ("p99_us", tail.p99_us),
        ("max_us", tail.max_us),
    ]);
    if compare_unoptimized {
        let unopt_fps =
            fps_from_latency_us(unoptimized_latency_us(unit.network, &unit.device_spec()));
        metrics.extend(named(&[
            ("unoptimized_fps", unopt_fps),
            ("gain", fps / unopt_fps),
        ]));
    }
    Outcome {
        metrics,
        builds,
        ..Outcome::default()
    }
}

/// The server configuration of every serving and fleet unit: deterministic
/// timing (jitter 0) and, given a deadline, predictive serving (SLO-aware
/// batch sizing and per-request miss accounting).
fn server_config(unit: &PlanUnit, workers: u32, queue: u32, deadline: Option<f64>) -> ServerConfig {
    let config = ServerConfig::default()
        .with_workers(workers as usize)
        .with_queue_capacity(queue as usize)
        .with_max_batch_size(unit.batch as usize)
        .with_timing(unit_timing(unit, 0.0));
    match deadline {
        Some(d) => config.with_deadline_us(d).with_predictive(true),
        None => config,
    }
}

/// The deadline-miss count and rate over `completed` requests.
fn deadline_metrics(missed: u64, completed: u64) -> Vec<(String, f64)> {
    let rate = missed as f64 / completed.max(1) as f64;
    named(&[
        ("deadline_missed", missed as f64),
        ("deadline_miss_rate", rate),
    ])
}

/// One closed-loop or Poisson open-loop unit: one [`InferenceServer`]
/// serving every frame, its final series absorbed into `registry`.
fn run_serving_unit(
    farm: &EngineFarm,
    unit: &PlanUnit,
    registry: &Registry,
) -> Result<Outcome, ServingError> {
    let (frames, config) = match unit.kind {
        TrafficKind::Closed {
            frames,
            workers,
            queue,
            timeout_us,
        } => (
            frames,
            server_config(unit, workers, queue, None).with_batch_timeout_us(timeout_us),
        ),
        TrafficKind::Poisson {
            frames,
            workers,
            queue,
            period_us,
            seed,
            deadline_us,
        } => (
            frames,
            server_config(unit, workers, queue, deadline_us)
                .with_batch_timeout_us(f64::INFINITY)
                .with_arrival_period_us(period_us)
                .with_poisson_arrivals(seed),
        ),
        _ => unreachable!("{}: not a single-server unit", unit.label()),
    };
    let engine = engine_for(farm, unit, 0);
    let server = InferenceServer::start(&engine, &unit.device_spec(), config)?;
    let (owner, recorder) = (server.registry(), server.flight_recorder());
    let mut rejected = 0u64;
    for frame in 0..u64::from(frames) {
        match server.submit(frame) {
            Ok(()) => {}
            Err(ServingError::QueueFull) => rejected += 1,
            Err(e) => return Err(e),
        }
    }
    let stats = server.drain();
    registry.absorb(&owner);
    let mut metrics = named(&[
        ("fps", stats.aggregate_fps),
        ("mean_us", stats.latency.mean_us),
        ("p50_us", stats.latency.p50_us),
        ("p90_us", stats.latency.p90_us),
        ("p99_us", stats.latency.p99_us),
        ("max_us", stats.latency.max_us),
        ("gr3d_percent", stats.gr3d_percent),
        ("batches", stats.batches as f64),
        ("completed", stats.completed as f64),
        ("rejected", (stats.rejected + rejected) as f64),
    ]);
    metrics.extend(deadline_metrics(stats.deadline_missed, stats.completed));
    Ok(Outcome {
        metrics,
        traces: recorder.traces(),
        ..Outcome::default()
    })
}

/// Lowers a fleet unit's arrival-trace declaration into timestamps.
fn fleet_arrivals(trace: &FleetTrace, frames: u32, seed: u64) -> ArrivalTrace {
    let frames = frames as usize;
    match *trace {
        FleetTrace::Poisson { period_us } => ArrivalTrace::poisson(period_us, frames, seed),
        FleetTrace::Diurnal {
            period_us,
            peak_period_us,
            cycle_us,
        } => ArrivalTrace::diurnal(period_us, peak_period_us, cycle_us, frames, seed),
        FleetTrace::Burst {
            period_us,
            peak_period_us,
            cycle_us,
            burst_fraction,
        } => ArrivalTrace::burst(
            period_us,
            peak_period_us,
            cycle_us,
            burst_fraction,
            frames,
            seed,
        ),
    }
}

/// One fleet unit: every device the unit spans becomes a board, one replica
/// of the unit's engine per board, and the trace is replayed through the
/// router ([`trtsim_core::fleet::Fleet`]), whose final series are absorbed
/// into `registry`.
fn run_fleet_unit(
    farm: &EngineFarm,
    unit: &PlanUnit,
    registry: &Registry,
) -> Result<Outcome, ServingError> {
    let TrafficKind::Fleet {
        ref trace,
        frames,
        workers,
        queue,
        seed,
        ref tenant,
        deadline_us,
    } = unit.kind
    else {
        unreachable!("{}: not a fleet unit", unit.label());
    };
    let engine = engine_for(farm, unit, 0);
    let config = server_config(unit, workers, queue, deadline_us).with_batch_timeout_us(0.0);
    let devices = unit.device_specs();
    let mut builder = FleetBuilder::new();
    for (decl, spec) in &devices {
        builder = builder.device(&decl.name, spec.clone());
    }
    for (decl, _) in &devices {
        builder = builder.replica_for_tenant(&decl.name, &engine, config, tenant.as_deref())?;
    }
    // A deadline also turns on predictive routing: the fleet shares one
    // learned model across replicas and scores by predicted finish time.
    let fleet = builder.start(FleetConfig::default().with_predictive(deadline_us.is_some()))?;
    let (owner, recorder) = (fleet.registry(), fleet.flight_recorder());
    let tenant = tenant.as_deref().unwrap_or("default");
    let arrivals = fleet_arrivals(trace, frames, seed);
    for (i, &t) in arrivals.arrivals_us.iter().enumerate() {
        match fleet.submit_as(tenant, engine.name(), i as u64, t) {
            Ok(()) | Err(ServingError::QueueFull) | Err(ServingError::DeadlineUnmeetable) => {}
            Err(e) => return Err(e),
        }
    }
    let stats = fleet.drain();
    registry.absorb(&owner);
    let shares: Vec<f64> = devices
        .iter()
        .map(|(decl, _)| stats.completed_share(&decl.name))
        .collect();
    let busy: f64 = stats
        .replicas
        .iter()
        .map(|r| r.stats.gr3d_percent * r.stats.completed as f64)
        .sum();
    let gr3d = if stats.completed == 0 {
        0.0
    } else {
        busy / stats.completed as f64
    };
    let batches: u64 = stats.replicas.iter().map(|r| r.stats.batches).sum();
    let mut metrics = named(&[
        ("fps", stats.aggregate_fps),
        ("mean_us", stats.latency.mean_us),
        ("p50_us", stats.latency.p50_us),
        ("p90_us", stats.latency.p90_us),
        ("p99_us", stats.latency.p99_us),
        ("max_us", stats.latency.max_us),
        ("gr3d_percent", gr3d),
        ("batches", batches as f64),
        ("completed", stats.completed as f64),
        ("accepted", stats.accepted as f64),
        ("rejected", stats.rejected as f64),
        ("dropped", stats.dropped as f64),
        ("devices", devices.len() as f64),
        (
            "min_device_share",
            shares.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        (
            "max_device_share",
            shares.iter().copied().fold(0.0, f64::max),
        ),
    ]);
    metrics.extend(deadline_metrics(stats.deadline_missed, stats.completed));
    Ok(Outcome {
        metrics,
        traces: recorder.traces(),
        ..Outcome::default()
    })
}

/// One concurrency unit: the closed-form saturation sweep at the unit's
/// device, from the engine's kernel profile.
fn run_concurrency_unit(farm: &EngineFarm, unit: &PlanUnit) -> Outcome {
    let engine = engine_for(farm, unit, 0);
    let device = unit.device_spec();
    let profile = ExecutionContext::new(&engine, device.clone()).profile(unit.host_glue_us);
    let (points, bound) = contention::sweep(&profile, &device);
    let last = points.last().expect("sweep yields at least one point");
    Outcome {
        metrics: named(&[
            ("max_threads", f64::from(last.threads)),
            ("fps", last.fps),
            ("gr3d_percent", last.utilization * 100.0),
        ]),
        sweep: Some((points, bound)),
        ..Outcome::default()
    }
}

/// The zoo engines a plan's units draw: every build of a latency unit,
/// build 0 of any other.
fn zoo_requests(plan: &ExecutionPlan) -> Vec<(ModelId, Platform, u64)> {
    plan.units
        .iter()
        .filter(|u| u.source == EngineSource::Zoo)
        .flat_map(|u| {
            let builds = match u.kind {
                TrafficKind::Latency { .. } => u.builds,
                _ => 1,
            };
            (0..builds).map(move |b| (u.network, u.device.platform, u64::from(b)))
        })
        .collect()
}

/// Executes every unit of the plan on engines from `farm` — its zoo
/// engines built up front, in parallel — then checks every assertion.
/// Driver activity and the final series of every server and fleet a unit
/// ran are folded into `registry`; the farm's own activity is the caller's
/// to publish ([`EngineFarm::publish`]), once per snapshot. Engine builds
/// panic inside the farm instead: a validated network failing to build is
/// a bug, not an input error.
///
/// # Errors
///
/// Returns the first [`ServingError`] other than load shedding — an
/// invalid serving configuration that survived validation (a driver bug,
/// surfaced rather than hidden).
pub fn run(
    plan: &ExecutionPlan,
    farm: &EngineFarm,
    registry: &Registry,
) -> Result<ScenarioReport, ServingError> {
    farm.prefetch_zoo(&zoo_requests(plan));
    let mut units = Vec::with_capacity(plan.units.len());
    for unit in &plan.units {
        let started = std::time::Instant::now();
        let outcome = match unit.kind {
            TrafficKind::Latency {
                runs,
                jitter_sd,
                compare_unoptimized,
            } => run_latency_unit(farm, unit, runs, jitter_sd, compare_unoptimized),
            TrafficKind::Closed { .. } | TrafficKind::Poisson { .. } => {
                run_serving_unit(farm, unit, registry)?
            }
            TrafficKind::Fleet { .. } => run_fleet_unit(farm, unit, registry)?,
            TrafficKind::Concurrency => run_concurrency_unit(farm, unit),
        };
        scenario_counter(registry, "units", unit.kind.name()).inc();
        units.push(UnitResult {
            label: unit.label(),
            plan: unit.clone(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            metrics: outcome.metrics,
            builds: outcome.builds,
            traces: outcome.traces,
            sweep: outcome.sweep,
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
