//! Figures 3 and 4: multi-stream concurrency — aggregate FPS and GR3D
//! utilization vs thread count, and the supported thread bound (Eq. 1).

use trtsim_core::runtime::ExecutionContext;
use trtsim_gpu::contention::{max_threads, sweep, ConcurrencyPoint, ThreadBound};
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_models::ModelId;

use crate::support::{EngineFarm, TextTable};

/// One platform's sweep for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyFigure {
    /// Model (Figure 3: Tiny-YOLOv3; Figure 4: GoogLeNet).
    pub model: ModelId,
    /// Platform.
    pub platform: Platform,
    /// The FPS/utilization series, threads 1..=max.
    pub points: Vec<ConcurrencyPoint>,
    /// What bounded the thread count.
    pub bound: ThreadBound,
}

impl ConcurrencyFigure {
    /// Maximum supported threads.
    pub fn max_threads(&self) -> u32 {
        self.points.last().map(|p| p.threads).unwrap_or(0)
    }

    /// Utilization at saturation, percent.
    pub fn saturation_utilization_percent(&self) -> f64 {
        self.points
            .last()
            .map(|p| p.utilization * 100.0)
            .unwrap_or(0.0)
    }
}

/// Computes the sweep for one (model, platform) at the board-maximum clock
/// ("we obtain these statistics on the maximum GPU frequency", §IV-B).
pub fn run(farm: &EngineFarm, model: ModelId, platform: Platform) -> ConcurrencyFigure {
    let engine = farm.zoo(model, platform, 0);
    let device = DeviceSpec::max_clock(platform);
    let ctx = ExecutionContext::new(&engine, device.clone());
    let profile = ctx.profile(model.info().host_glue_us);
    let (points, bound) = sweep(&profile, &device);
    let (_, bound_check) = max_threads(&profile, &device);
    debug_assert_eq!(bound, bound_check);
    ConcurrencyFigure {
        model,
        platform,
        points,
        bound,
    }
}

/// Renders one figure's series as a text table.
pub fn render(figure: &ConcurrencyFigure) -> String {
    let mut t = TextTable::new(vec!["threads".into(), "FPS".into(), "GPU util (%)".into()]);
    for p in &figure.points {
        t.row(vec![
            p.threads.to_string(),
            format!("{:.1}", p.fps),
            format!("{:.1}", p.utilization * 100.0),
        ]);
    }
    format!(
        "{} on {} — saturates at {} threads ({:?}-bound), util {:.1}%\n{}",
        figure.model,
        figure.platform,
        figure.max_threads(),
        figure.bound,
        figure.saturation_utilization_percent(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_yolo_supports_more_threads_than_googlenet() {
        let farm = EngineFarm::new();
        // Paper: 28 vs 16 on NX; 36 vs 24 on AGX.
        for platform in Platform::all() {
            let yolo = run(&farm, ModelId::TinyYolov3, platform);
            let goog = run(&farm, ModelId::Googlenet, platform);
            assert!(
                yolo.max_threads() > goog.max_threads(),
                "{platform}: {} !> {}",
                yolo.max_threads(),
                goog.max_threads()
            );
        }
    }

    #[test]
    fn agx_supports_more_threads_than_nx() {
        let farm = EngineFarm::new();
        for model in [ModelId::TinyYolov3, ModelId::Googlenet] {
            let nx = run(&farm, model, Platform::Nx);
            let agx = run(&farm, model, Platform::Agx);
            assert!(
                agx.max_threads() > nx.max_threads(),
                "{model}: {} !> {}",
                agx.max_threads(),
                nx.max_threads()
            );
        }
    }

    #[test]
    fn utilization_saturates_around_the_paper_band() {
        let farm = EngineFarm::new();
        // Paper: 82-86% at saturation.
        for (model, platform) in [
            (ModelId::TinyYolov3, Platform::Nx),
            (ModelId::TinyYolov3, Platform::Agx),
        ] {
            let fig = run(&farm, model, platform);
            let sat = fig.saturation_utilization_percent();
            assert!(
                (55.0..=90.0).contains(&sat),
                "{model} {platform}: saturation {sat:.1}%"
            );
        }
    }

    #[test]
    fn fps_and_util_rise_with_threads() {
        let farm = EngineFarm::new();
        let fig = run(&farm, ModelId::TinyYolov3, Platform::Nx);
        assert!(
            fig.points.len() >= 4,
            "too few points: {}",
            fig.points.len()
        );
        let first = &fig.points[0];
        let last = fig.points.last().unwrap();
        assert!(last.fps >= first.fps * 0.99);
        assert!(last.utilization > first.utilization);
    }

    #[test]
    fn renders_series() {
        let farm = EngineFarm::new();
        let fig = run(&farm, ModelId::Googlenet, Platform::Nx);
        let s = render(&fig);
        assert!(s.contains("threads") && s.contains("GPU util"));
        assert_eq!(s.lines().count(), fig.points.len() + 3);
    }
}
