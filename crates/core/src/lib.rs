//! The TensorRT-like inference engine — the paper's subject, reimplemented as
//! a simulator faithful enough to reproduce its published behaviour.
//!
//! Building an engine follows the paper's Figure 2 exactly:
//!
//! 1. **Dead-layer removal** ([`passes::dead_layer`]) — dropout, identity,
//!    and nodes that cannot reach an output are deleted.
//! 2. **Vertical fusion** ([`passes::vertical_fusion`]) — BatchNorm/Scale
//!    fold into the preceding convolution's weights; activations fuse into
//!    the convolution's epilogue.
//! 3. **Horizontal merging** ([`passes::horizontal_merge`]) — sibling
//!    convolutions with the same input and geometry (Inception-style
//!    branches) merge into one wider launch.
//! 4. **Quantization** ([`calibrate`], [`compress`]) — FP16 by policy; INT8
//!    with a calibration set; optional weight clustering/pruning.
//! 5. **Kernel mapping** ([`autotune`]) — every candidate tactic from the
//!    catalog is *timed on the target device* and the fastest wins. The
//!    timings carry measurement noise, so **each build of the same network
//!    selects a different kernel set** — the root cause of every
//!    non-determinism finding in the paper.
//!
//! The result is an [`Engine`] that can be serialized to a plan
//! ([`plan`]), executed numerically, or timed on any simulated device
//! ([`runtime::ExecutionContext`]).
//!
//! # Examples
//!
//! ```
//! use trtsim_core::builder::Builder;
//! use trtsim_core::config::BuilderConfig;
//! use trtsim_gpu::device::{DeviceSpec, Platform};
//! use trtsim_ir::graph::{Graph, LayerKind};
//!
//! let mut g = Graph::new("m", [3, 16, 16]);
//! let c = g.add_layer("c1", LayerKind::conv_seeded(8, 3, 3, 1, 1, 7), &[Graph::INPUT]);
//! g.mark_output(c);
//!
//! let config = BuilderConfig::default().with_build_seed(42);
//! let engine = Builder::new(DeviceSpec::xavier_nx(), config)
//!     .build(&g)
//!     .unwrap();
//! assert_eq!(engine.build_platform(), Platform::Nx);
//! assert!(engine.plan_size_bytes() > 0);
//! ```

#![warn(missing_docs)]

pub mod autotune;
pub mod builder;
pub mod calibrate;
pub mod compress;
pub mod config;
pub mod engine;
pub mod error;
pub mod fastpath;
pub mod fleet;
pub mod passes;
pub mod plan;
pub mod predict;
pub mod reqtrace;
pub mod runtime;
pub mod serving;
pub mod telemetry;
pub mod timing_cache;

pub use builder::Builder;
pub use config::BuilderConfig;
pub use engine::{Engine, ExecUnit, IoBytes};
pub use error::EngineError;
pub use fastpath::{InferencePlan, PlanScratch, PlanStats};
pub use fleet::{Fleet, FleetBuilder, FleetConfig, FleetStats, ReplicaStats};
pub use predict::{EngineFeatures, LatencyModel, PredictedLatency, QueueSignals};
pub use reqtrace::{
    FlightRecorder, PhaseKind, PhaseSpan, RequestTrace, TraceId, TraceOptions, TraceOutcome,
};
pub use runtime::{ExecutionContext, TimingOptions};
pub use serving::{
    InferenceServer, KernelTime, RequestRecord, ServerConfig, ServerStats, ServingError,
};
pub use telemetry::{publish_build, publish_plan, publish_timing_cache, GpuSampler};
pub use timing_cache::TimingCache;
