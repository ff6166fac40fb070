//! An nvprof-like profiler and trace subsystem over simulated timelines
//! (paper §II-C, §V).
//!
//! The real study drives nvprof in two modes: *summary mode* ("overview of
//! GPU kernels and memory copies") and *GPU-trace mode* ("list of all kernel
//! launches"). This crate reproduces both over a
//! [`trtsim_gpu::timeline::GpuTimeline`], including the aggregation the
//! paper's Tables X–XIII are built from. Attaching the profiler inflates
//! runtimes (see [`trtsim_gpu::timeline::ProfilingOverhead`]), which is the
//! Table VIII vs Table IX difference.
//!
//! Beyond the nvprof views, two observability modules make the paper's §V
//! anomaly anatomy first-class:
//!
//! * [`chrome_trace`] serializes any timeline — kernels, memcpys, host-glue
//!   spans, one track per stream — to chrome://tracing JSON;
//! * [`anomaly`] detects the three anomaly classes the paper reads out of
//!   its traces: H2D copy outliers, per-invocation kernel slowdowns, and
//!   kernel-set drift between engine builds.

#![warn(missing_docs)]

pub mod anomaly;
pub mod chrome_trace;
pub mod report;
pub mod summary;
pub mod trace;

pub use anomaly::{
    detect, format_report, h2d_outliers, kernel_set_diff, kernel_slowdowns, AnomalyReport,
    DetectorConfig, H2dOutlier, KernelSetDiff, KernelSlowdown,
};
pub use chrome_trace::{chrome_trace_json, chrome_trace_json_multi, write_chrome_trace};
pub use report::format_summary;
pub use summary::{summarize, KernelSummary, MemcpySummary, ProfileSummary};
pub use trace::{format_trace, gpu_trace, invocation_durations, TraceEntry};
