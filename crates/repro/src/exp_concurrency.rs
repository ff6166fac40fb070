//! Figures 3 and 4: multi-stream concurrency — aggregate FPS and GR3D
//! utilization vs thread count, and the supported thread bound (Eq. 1).
//!
//! The experiment is `scenarios/fig3_fig4_concurrency.scn`, run by the
//! scenario driver at the board-maximum clock ("we obtain these statistics
//! on the maximum GPU frequency", §IV-B); this module renders one of its
//! concurrency units.

use crate::scenario::UnitResult;
use crate::support::TextTable;

/// Renders one concurrency unit's series as a text table.
///
/// # Panics
///
/// Panics if `unit` is not a concurrency unit.
pub fn render(unit: &UnitResult) -> String {
    let (points, bound) = unit.sweep.as_ref().expect("a concurrency unit");
    let last = points.last().expect("sweep yields at least one point");
    let mut t = TextTable::new(vec!["threads".into(), "FPS".into(), "GPU util (%)".into()]);
    for p in points {
        t.row(vec![
            p.threads.to_string(),
            format!("{:.1}", p.fps),
            format!("{:.1}", p.utilization * 100.0),
        ]);
    }
    format!(
        "{} on {} — saturates at {} threads ({:?}-bound), util {:.1}%\n{}",
        unit.plan.network,
        unit.plan.device.platform,
        last.threads,
        bound,
        last.utilization * 100.0,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use trtsim_gpu::device::Platform;
    use trtsim_models::ModelId;

    use super::*;
    use crate::campaign::{run_checked_in, CONCURRENCY_SCN};

    #[test]
    fn sweeps_have_the_papers_shape() {
        let report = run_checked_in(CONCURRENCY_SCN, &Default::default(), &Default::default());
        let unit = |m, p| report.unit(m, p).expect("a unit per figure and platform");
        let threads = |m, p| unit(m, p).metric("max_threads").unwrap();
        let (yolo, goog) = (ModelId::TinyYolov3, ModelId::Googlenet);
        for p in Platform::all() {
            // Paper: 28 vs 16 on NX; 36 vs 24 on AGX.
            assert!(threads(yolo, p) > threads(goog, p), "{p}");
            // Paper: 82-86% at saturation.
            let sat = unit(yolo, p).metric("gr3d_percent").unwrap();
            assert!(
                (55.0..=90.0).contains(&sat),
                "Tiny-Yolov3 {p}: saturation {sat:.1}%"
            );
        }
        for m in [yolo, goog] {
            assert!(threads(m, Platform::Agx) > threads(m, Platform::Nx), "{m}");
        }
        let (points, _) = unit(yolo, Platform::Nx).sweep.as_ref().unwrap();
        assert!(points.len() >= 4, "too few points: {}", points.len());
        let (first, last) = (&points[0], points.last().unwrap());
        assert!(last.fps >= first.fps * 0.99);
        assert!(last.utilization > first.utilization);

        let s = render(unit(goog, Platform::Nx));
        assert!(s.contains("threads") && s.contains("GPU util"));
        let (points, _) = unit(goog, Platform::Nx).sweep.as_ref().unwrap();
        assert_eq!(s.lines().count(), points.len() + 3);
    }
}
