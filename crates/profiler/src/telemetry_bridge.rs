//! Bridges post-hoc trace analysis into the live metric registry.
//!
//! The trace subsystem (chrome-trace export, [`crate::anomaly`] detectors)
//! works on captured [`GpuTimeline`]s after the fact; the telemetry layer
//! watches counters live. This module joins the two: publishing a timeline
//! or an anomaly report folds its totals into the caller's registry —
//! typically the serving owner's ([`crate`] holds no registry of its own) —
//! so one `/metrics` scrape shows "how many anomalies has this server seen"
//! next to its serving counters: the continuous-counter view the Jetson
//! profiling literature argues makes concurrency anomalies legible. The
//! core crate's `publish_build` / `publish_timing_cache` / `publish_plan`
//! follow the same shape.
//!
//! Counters only, and strictly additive: publishing the same report twice
//! counts it twice. Callers own the once-per-run discipline (the repro
//! harnesses publish at the end of each serving run).

use std::collections::BTreeMap;

use trtsim_gpu::timeline::GpuTimeline;
use trtsim_metrics::Registry;

use crate::anomaly::AnomalyReport;
use crate::chrome_trace::OverlaySpan;

/// Folds an [`AnomalyReport`]'s finding counts into `registry` as
/// `trtsim_anomaly_total{kind="h2d_outlier"|"kernel_slowdown"}`.
pub fn publish_anomalies(registry: &Registry, report: &AnomalyReport) {
    let help = "Trace anomalies detected, by kind";
    registry
        .counter("trtsim_anomaly_total", help, &[("kind", "h2d_outlier")])
        .add(report.h2d_outliers.len() as u64);
    registry
        .counter("trtsim_anomaly_total", help, &[("kind", "kernel_slowdown")])
        .add(report.kernel_slowdowns.len() as u64);
}

/// Folds a timeline's span population into `registry`:
/// `trtsim_trace_spans_total{kind}` (span counts) and
/// `trtsim_trace_span_us_total{kind}` (busy microseconds, rounded), for
/// `kind` in `kernel` / `memcpy` / `host`.
pub fn publish_timeline(registry: &Registry, timeline: &GpuTimeline) {
    let spans_help = "Timeline spans published, by kind";
    let us_help = "Total span busy time published, microseconds by kind";
    let groups: [(&str, usize, f64); 3] = [
        (
            "kernel",
            timeline.kernels().len(),
            timeline.kernels().iter().map(|k| k.duration_us).sum(),
        ),
        (
            "memcpy",
            timeline.memcpys().len(),
            timeline.memcpys().iter().map(|c| c.duration_us).sum(),
        ),
        (
            "host",
            timeline.host_spans().len(),
            timeline.host_spans().iter().map(|h| h.duration_us).sum(),
        ),
    ];
    for (kind, count, total_us) in groups {
        registry
            .counter("trtsim_trace_spans_total", spans_help, &[("kind", kind)])
            .add(count as u64);
        registry
            .counter("trtsim_trace_span_us_total", us_help, &[("kind", kind)])
            .add(total_us.round() as u64);
    }
}

/// Folds overlay spans (e.g. request-phase spans from the serving layer's
/// flight recorder) into the same two families as [`publish_timeline`],
/// grouped by each span's category: `trtsim_trace_spans_total{kind=<cat>}`
/// and `trtsim_trace_span_us_total{kind=<cat>}`.
pub fn publish_overlay_spans(registry: &Registry, spans: &[OverlaySpan]) {
    let spans_help = "Timeline spans published, by kind";
    let us_help = "Total span busy time published, microseconds by kind";
    let mut by_cat: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for span in spans {
        let entry = by_cat.entry(span.cat.as_str()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += span.duration_us;
    }
    for (cat, (count, total_us)) in by_cat {
        registry
            .counter("trtsim_trace_spans_total", spans_help, &[("kind", cat)])
            .add(count);
        registry
            .counter("trtsim_trace_span_us_total", us_help, &[("kind", cat)])
            .add(total_us.round() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::{detect, DetectorConfig};
    use trtsim_gpu::device::DeviceSpec;
    use trtsim_gpu::kernel::{KernelDesc, Precision};

    fn timeline_with_work() -> GpuTimeline {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        tl.enqueue_h2d(s, 1 << 20);
        for _ in 0..3 {
            tl.enqueue_kernel(
                s,
                &KernelDesc::new("k")
                    .grid(48, 128)
                    .flops(100_000_000)
                    .precision(Precision::Fp16, true),
            );
        }
        tl.host_span(s, "glue", 25.0);
        tl
    }

    #[test]
    fn timeline_publish_counts_every_span_kind() {
        let reg = Registry::new();
        let tl = timeline_with_work();
        publish_timeline(&reg, &tl);
        let kernels = reg.counter("trtsim_trace_spans_total", "", &[("kind", "kernel")]);
        let copies = reg.counter("trtsim_trace_spans_total", "", &[("kind", "memcpy")]);
        let host = reg.counter("trtsim_trace_spans_total", "", &[("kind", "host")]);
        assert_eq!(
            (kernels.get(), copies.get(), host.get()),
            (3, 1, 1),
            "span counts must mirror the timeline"
        );
        let kernel_us = reg.counter("trtsim_trace_span_us_total", "", &[("kind", "kernel")]);
        assert!(kernel_us.get() > 0);
        // Additive on repeat publish.
        publish_timeline(&reg, &tl);
        assert_eq!(kernels.get(), 6);
    }

    #[test]
    fn overlay_publish_groups_by_category() {
        let reg = Registry::new();
        let spans = vec![
            OverlaySpan {
                name: "execute f=1".into(),
                cat: "request".into(),
                stream: 0,
                seq: 0,
                start_us: 0.0,
                duration_us: 100.0,
                args: "{}".into(),
            },
            OverlaySpan {
                name: "execute f=2".into(),
                cat: "request".into(),
                stream: 1,
                seq: 0,
                start_us: 50.0,
                duration_us: 150.4,
                args: "{}".into(),
            },
        ];
        publish_overlay_spans(&reg, &spans);
        let count = reg.counter("trtsim_trace_spans_total", "", &[("kind", "request")]);
        let us = reg.counter("trtsim_trace_span_us_total", "", &[("kind", "request")]);
        assert_eq!((count.get(), us.get()), (2, 250));
    }

    #[test]
    fn anomaly_publish_matches_report_sizes() {
        let reg = Registry::new();
        let tl = timeline_with_work();
        let report = detect(&tl, &DetectorConfig::default());
        publish_anomalies(&reg, &report);
        let h2d = reg.counter("trtsim_anomaly_total", "", &[("kind", "h2d_outlier")]);
        assert_eq!(h2d.get(), report.h2d_outliers.len() as u64);
    }
}
