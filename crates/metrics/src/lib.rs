//! Evaluation metrics used by every experiment harness (paper §II-E).
//!
//! * [`classification`] — top-1 error and cross-engine output-consistency
//!   counting (Tables III–VI).
//! * [`detection`] — IoU-thresholded precision/recall for object detection
//!   (the paper reports IoU 0.75).
//! * [`latency`] — mean(σ) latency formatting matching the paper's
//!   "12.65 (0.05)" table cells, plus FPS computation.
//! * [`cache`] — hit/miss accounting for the build pipeline's memoization
//!   layers (timing cache, engine farm).
//! * [`memory`] — activation-arena footprint accounting for the inference
//!   fast path (peak live bytes vs keep-everything bytes).
//! * [`telemetry`] — the per-owner metric [`Registry`] (counters, gauges,
//!   log-bucket histograms) with Prometheus/JSON exporters and a std-only
//!   TCP scrape endpoint.

#![warn(missing_docs)]

pub mod cache;
pub mod classification;
pub mod detection;
pub mod latency;
pub mod memory;
pub mod telemetry;

pub use cache::CacheStats;
pub use classification::{consistency, top1_error_percent, ConsistencyReport};
pub use detection::{precision_recall, DetectionEval};
pub use latency::{fps_from_latency_us, LatencyCell, LatencyPercentiles};
pub use memory::ArenaStats;
pub use telemetry::{
    json_string, log_buckets, render_json, render_prometheus, Counter, Gauge, Histogram, Registry,
    RouteHandler, TelemetryServer,
};
