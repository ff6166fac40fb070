//! Serving extension (§VI-A deployment pattern): dynamic-batching sweep.
//!
//! Not a paper table — the paper serves one frame per thread per call — but
//! the natural production follow-up to Figures 3/4: hold the worker count
//! fixed and sweep the dynamic batcher's maximum batch size, reporting
//! aggregate FPS, GR3D utilization, and the per-request latency tail. Launch
//! overhead and host glue amortize across a batch, so FPS climbs with batch
//! size — and since the sweep submits its whole backlog up front, queue wait
//! dominates latency and the tail shrinks along with it.
//!
//! The experiment is `scenarios/serving_batch_sweep.scn`, run by the
//! scenario driver; this module renders one platform of its report.

use trtsim_gpu::device::Platform;

use crate::scenario::{ScenarioReport, TrafficKind, UnitResult};
use crate::support::TextTable;

/// Renders the closed-loop units `report` ran on `platform`, one row per
/// batch size in plan order, under a header naming the sweep and its FPS
/// gain from the first batch size to the last.
///
/// # Panics
///
/// Panics unless `report` holds closed-loop units on `platform`.
pub fn render(report: &ScenarioReport, platform: Platform) -> String {
    let units: Vec<&UnitResult> = report
        .units
        .iter()
        .filter(|u| u.plan.device.platform == platform)
        .collect();
    let (first, last) = (units[0], units[units.len() - 1]);
    let TrafficKind::Closed {
        frames, workers, ..
    } = first.plan.kind
    else {
        panic!("{}: the serving sweep is closed-loop", first.label);
    };
    let metric = |u: &UnitResult, key| u.metric(key).expect("closed-loop serving metric");
    let mut t = TextTable::new(vec![
        "batch".into(),
        "batches".into(),
        "FPS".into(),
        "GR3D (%)".into(),
        "p50 (ms)".into(),
        "p99 (ms)".into(),
    ]);
    for &u in &units {
        t.row(vec![
            u.plan.batch.to_string(),
            format!("{:.0}", metric(u, "batches")),
            format!("{:.1}", metric(u, "fps")),
            format!("{:.1}", metric(u, "gr3d_percent")),
            format!("{:.2}", metric(u, "p50_us") / 1000.0),
            format!("{:.2}", metric(u, "p99_us") / 1000.0),
        ]);
    }
    let first_fps = metric(first, "fps");
    let speedup = if first_fps > 0.0 {
        metric(last, "fps") / first_fps
    } else {
        0.0
    };
    format!(
        "{} on {platform} — {workers} workers, {frames} frames: batching speedup {speedup:.2}x\n{}",
        first.plan.network,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use trtsim_metrics::Registry;
    use trtsim_models::ModelId;

    use super::*;
    use crate::campaign::{run_checked_in, SERVING_SCN};

    #[test]
    fn batching_raises_fps_and_every_frame_is_served() {
        let registry = Registry::new();
        let report = run_checked_in(SERVING_SCN, &Default::default(), &registry);
        let TrafficKind::Closed { frames, .. } = report.units[0].plan.kind else {
            panic!("closed-loop sweep");
        };
        for p in Platform::all() {
            let units = report.units.iter().filter(|u| u.plan.device.platform == p);
            let fps: Vec<f64> = units.map(|u| u.metric("fps").unwrap()).collect();
            assert_eq!(fps.len(), 4);
            assert!(fps.windows(2).all(|w| w[1] > w[0]), "{p}: FPS {fps:?}");
        }
        // Every point's server folds its final counts into the registry.
        let completed = registry.counter(
            "trtsim_server_completed_total",
            "",
            &[("model", ModelId::TinyYolov3.info().name)],
        );
        assert_eq!(
            completed.get(),
            u64::from(frames) * report.units.len() as u64
        );
        for u in &report.units {
            let m = |key| u.metric(key).unwrap();
            assert_eq!(m("completed"), f64::from(frames), "{}", u.label);
            assert!(m("gr3d_percent") > 0.0 && m("gr3d_percent") <= 100.0);
            assert!(m("p99_us") >= m("p50_us"));
        }
        let s = render(&report, Platform::Nx);
        assert!(s.contains("batch") && s.contains("p99") && s.contains("speedup"));
        assert_eq!(s.lines().count(), 4 + 3);
    }
}
