//! Telemetry: a registry of named, labelled counters, gauges, and bounded
//! log-bucket histograms, with lock-cheap handles for hot paths and two
//! exporters (Prometheus text exposition, JSON snapshot) plus a std-only
//! TCP scrape endpoint.
//!
//! There is no process-wide registry. Each owner — a server, a fleet, an
//! engine farm, a benchmark binary — creates its own [`Registry`], so two
//! servers in one process report separately and a test reads only what it
//! produced. A binary that wants one snapshot of several owners folds their
//! registries together with [`Registry::absorb`].
//!
//! The design splits cleanly in two:
//!
//! * **Registration** is slow-path: [`Registry::counter`],
//!   [`Registry::gauge`] and [`Registry::histogram`] take the registry's
//!   lock, find or create the metric family and the labelled series, and
//!   hand back a cheap `Arc`-backed handle. Do this once, at subsystem
//!   start.
//! * **Updates** are lock-free: [`Counter::inc`], [`Gauge::set`] and
//!   [`Histogram::observe`] touch only atomics on the shared series core, so
//!   the serving hot path pays a few relaxed atomic ops per request and
//!   nothing more.
//!
//! Unlike [`crate::latency::LatencyPercentiles`], which stores every sample
//! and is therefore unbounded for a long-running server, a [`Histogram`]
//! here holds a fixed set of log-spaced buckets: quantile estimates are
//! accurate to within one bucket growth factor, and memory stays constant
//! forever.

mod export;
mod http;
mod registry;

pub use export::{json_string, render_json, render_prometheus};
pub use http::{RouteHandler, TelemetryServer};
pub use registry::{log_buckets, Counter, Gauge, Histogram, Registry};
