//! # trtsim
//!
//! A simulator-based reproduction of **"Demystifying TensorRT:
//! Characterizing Neural Network Inference Engine on Nvidia Edge Devices"**
//! (IISWC 2021): a TensorRT-like inference-engine builder and runtime, an
//! analytic model of the Jetson Xavier NX/AGX GPUs, the paper's 13-network
//! model zoo, synthetic datasets, profilers, and harnesses that regenerate
//! every table and figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace's public API under one roof:
//!
//! * [`ir`] — network IR and FP32 reference executor (the un-optimized path)
//! * [`engine`] — the builder/runtime (`Builder`, `Engine`,
//!   `ExecutionContext`, plan serialization)
//! * [`gpu`] — device models, kernel timing, streams, concurrency
//! * [`kernels`] — the tactic catalog and order-sensitive numerics
//! * [`models`] — the 13 networks of the paper's Table II
//! * [`data`] — synthetic benign/adversarial/traffic datasets
//! * [`metrics`] — top-1 error, IoU precision/recall, latency cells, and
//!   the process-wide telemetry registry with Prometheus/JSON exporters
//! * [`profiler`] — nvprof-like summaries, chrome://tracing export, and
//!   anomaly detection over simulated timelines
//! * [`perfmodel`] — the BSP prediction model (Eq. 2) and λ calibration
//! * [`repro`] — one harness per paper table/figure
//! * [`scenario`] — the declarative experiment DSL: `.scn` files parsed,
//!   validated, and compiled to plans run by one generic driver
//!
//! The most commonly used types are also re-exported at the crate root —
//! `use trtsim::{Builder, BuilderConfig, InferenceServer, ServerConfig, ...}`
//! covers a typical build-then-serve application without reaching into the
//! submodules.
//!
//! # Quickstart
//!
//! ```
//! use trtsim::{Builder, BuilderConfig, DeviceSpec};
//! use trtsim::models::ModelId;
//!
//! // Build a TensorRT-like engine for Tiny-YOLOv3 on a simulated Xavier NX.
//! let network = ModelId::TinyYolov3.descriptor();
//! let engine = Builder::new(DeviceSpec::xavier_nx(), BuilderConfig::default())
//!     .build(&network)?;
//! println!(
//!     "{} kernels, plan {:.1} MiB",
//!     engine.launch_count(),
//!     engine.plan_size_bytes() as f64 / (1 << 20) as f64
//! );
//! # Ok::<(), trtsim::EngineError>(())
//! ```
//!
//! # Serving
//!
//! The production entry point is [`InferenceServer`]: worker threads with
//! per-worker streams, a bounded submission queue with backpressure, and a
//! dynamic batcher — see [`engine::serving`] for the architecture.
//!
//! ```
//! use trtsim::{
//!     Builder, BuilderConfig, DeviceSpec, InferenceServer, ServerConfig, TimingOptions,
//! };
//! use trtsim::models::ModelId;
//!
//! let device = DeviceSpec::xavier_nx();
//! let engine = Builder::new(device.clone(), BuilderConfig::default().with_build_seed(1))
//!     .build(&ModelId::TinyYolov3.descriptor())?;
//! let server = InferenceServer::start(
//!     &engine,
//!     &device,
//!     ServerConfig::default()
//!         .with_workers(2)
//!         .with_max_batch_size(4)
//!         .with_batch_timeout_us(f64::INFINITY)
//!         .with_timing(TimingOptions::default().without_engine_upload()),
//! )?;
//! for frame in 0..16 {
//!     server.submit(frame)?;
//! }
//! let stats = server.drain();
//! assert_eq!(stats.completed, 16);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Observability
//!
//! Telemetry is scoped to its owner. Each [`InferenceServer`] and each
//! [`Fleet`] owns a [`Registry`] of counters, gauges and latency histograms
//! (`trtsim_server_*`, `trtsim_fleet_*`, `trtsim_trace_*`, `trtsim_gpu_*`),
//! so two servers in one process report separately. Builds, timing caches
//! and plans hand back plain counts ([`engine::engine::BuildReport`],
//! [`TimingCache::stats`], [`PlanStats`]) that their owner publishes with
//! [`engine::publish_build`], [`engine::publish_timing_cache`] and
//! [`engine::publish_plan`]. Turn on a server's live endpoint with
//! [`ServerConfig::with_telemetry`] and scrape `GET /metrics` (Prometheus
//! text) or `GET /metrics.json`; or fold several registries into one with
//! [`Registry::absorb`] and snapshot it with [`Registry::write_json`] — see
//! [`metrics::telemetry`].
//!
//! Beyond metrics, every served request carries a trace: admission mints a
//! deterministic [`TraceId`], the span tree of its pipeline phases
//! (queueing, batch wait, execution) lands in an always-on [`FlightRecorder`]
//! with tail-based retention (deadline misses, rejections, drops, and the
//! slowest decile always survive), and the same telemetry endpoint serves
//! `GET /traces`, `GET /traces/<id>`, and a per-trace chrome://tracing
//! export. Retained trace ids also appear as OpenMetrics exemplars on the
//! server latency histogram — see [`engine::reqtrace`].
//!
//! # Scenarios
//!
//! Experiments are described declaratively in `.scn` files — graphs of
//! `device`, `model`, `traffic`, and `assert` nodes — checked with
//! accumulated, span-carrying diagnostics and executed by a single generic
//! driver ([`scenario::driver::run`]). The checked-in files under
//! `scenarios/` reproduce the legacy harnesses bit-for-bit:
//!
//! ```
//! let src = r#"
//! scenario "smoke" {
//!   device nx { platform = nx }
//!   model m { uses = [nx] network = alexnet }
//!   traffic t { uses = [m] kind = latency runs = 3 }
//!   assert a { uses = [t] metric = fps min = 1 }
//! }
//! "#;
//! let plan = trtsim::scenario::compile_src(src, trtsim::CompileOptions::default())
//!     .expect("valid scenario");
//! assert_eq!(plan.units.len(), 1);
//! ```
//!
//! The `scenario` bin (`cargo run --bin scenario -- check scenarios/`)
//! lints, lists, and runs scenario files from the command line.

#![warn(missing_docs)]

pub use trtsim_core as engine;

pub use trtsim_core::autotune::AutotuneOptions;
pub use trtsim_core::serving::ArrivalProcess;
pub use trtsim_core::{
    Builder, BuilderConfig, Engine, EngineError, ExecutionContext, Fleet, FleetBuilder,
    FleetConfig, FleetStats, FlightRecorder, InferencePlan, InferenceServer, KernelTime, PhaseKind,
    PhaseSpan, PlanScratch, PlanStats, ProfileOptions, ReplicaStats, RequestRecord, RequestTrace,
    ServerConfig, ServerStats, ServingError, TimingCache, TimingOptions, TraceId, TraceOptions,
    TraceOutcome,
};
pub use trtsim_gpu::device::{DeviceSpec, Platform};
pub use trtsim_gpu::timeline::ProfilingOverhead;
pub use trtsim_metrics::{
    render_json, render_prometheus, Counter, Gauge, Histogram, Registry, TelemetryServer,
};
pub use trtsim_profiler::anomaly::DetectorConfig;
pub use trtsim_scenario::{
    check_src, compile_src, CompileOptions, ExecutionPlan, ScenarioError, ScenarioGraph,
    ScenarioReport,
};

pub use trtsim_data as data;
pub use trtsim_gpu as gpu;
pub use trtsim_ir as ir;
pub use trtsim_kernels as kernels;
pub use trtsim_metrics as metrics;
pub use trtsim_models as models;
pub use trtsim_perfmodel as perfmodel;
pub use trtsim_profiler as profiler;
pub use trtsim_repro as repro;
pub use trtsim_scenario as scenario;
pub use trtsim_util as util;
