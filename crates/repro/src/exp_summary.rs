//! Tables XIV–XVI: the qualitative findings summary, derived from measured
//! data rather than hand-written (each claim is checked against this run's
//! own results before being printed).

use crate::exp_accuracy::{run_table3, AccuracyConfig};
use crate::exp_latency;
use crate::scenario::ScenarioReport;
use crate::support::{EngineFarm, TextTable};
use trtsim_gpu::device::Platform;
use trtsim_models::ModelId;

/// One summary line with its measured evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct FindingRow {
    /// Short finding name (paper Table XIV column 1).
    pub finding: String,
    /// Whether this run's data supports it.
    pub supported: bool,
    /// Measured evidence string.
    pub evidence: String,
    /// "Positive" or "Unpredictable" (paper Table XIV column 3).
    pub impact: &'static str,
}

/// Computes the findings matrix from (scaled-down) reruns of the underlying
/// experiments, plus the reports of `scenarios/table7_fps.scn` (`fps`) and
/// `scenarios/fig3_fig4_concurrency.scn` (`concurrency`).
///
/// # Panics
///
/// Panics if either report lacks the NX gains or Tiny-YOLOv3's AGX sweep.
pub fn run(
    farm: &EngineFarm,
    fps: &ScenarioReport,
    concurrency: &ScenarioReport,
) -> Vec<FindingRow> {
    let mut rows = Vec::new();

    // Finding 1: accuracy maintained (average over models; single images
    // are worth ~3 points at the quick scale).
    let acc = run_table3(farm, &AccuracyConfig::quick());
    let mean_delta: f64 =
        acc.iter().map(|r| r.nx_error - r.unopt_error).sum::<f64>() / acc.len() as f64;
    let maintained = mean_delta <= 1.0;
    rows.push(FindingRow {
        finding: "Maintain task accuracy".into(),
        supported: maintained,
        evidence: acc
            .iter()
            .map(|r| {
                format!(
                    "{}: TRT {:.1}% vs unopt {:.1}%",
                    r.model, r.nx_error, r.unopt_error
                )
            })
            .collect::<Vec<_>>()
            .join("; "),
        impact: "Positive",
    });

    // Finding 3: throughput gain + concurrency.
    let gains: Vec<f64> = fps
        .units
        .iter()
        .filter(|u| u.plan.device.platform == Platform::Nx)
        .map(|u| u.metric("gain").expect("Table VII units carry their gain"))
        .collect();
    let mean_gain = gains.iter().sum::<f64>() / gains.len() as f64;
    let yolo = concurrency
        .unit(ModelId::TinyYolov3, Platform::Agx)
        .expect("Tiny-YOLOv3 on AGX");
    let max_threads = yolo.metric("max_threads").expect("concurrency metric");
    rows.push(FindingRow {
        finding: "Throughput gain, higher concurrency".into(),
        supported: mean_gain > 5.0 && max_threads >= 16.0,
        evidence: format!(
            "mean NX speedup {mean_gain:.1}x; Tiny-YOLOv3 packs {max_threads} threads on AGX at {:.0}% util",
            yolo.metric("gr3d_percent").expect("concurrency metric")
        ),
        impact: "Positive",
    });

    // Findings 4-6: non-deterministic inference times / anomalies, on a
    // representative subset (the full matrix is table8's job).
    let latency = exp_latency::run_subset(
        farm,
        &[
            ModelId::Alexnet,
            ModelId::Resnet18,
            ModelId::Pednet,
            ModelId::Facenet,
            ModelId::Mobilenetv1,
            ModelId::Googlenet,
        ],
    );
    let anomalous = latency.anomalous_rows();
    rows.push(FindingRow {
        finding: "Non-deterministic inference times".into(),
        supported: anomalous > 0,
        evidence: format!(
            "{anomalous} of {} models show at least one cross-platform latency anomaly",
            latency.rows.len()
        ),
        impact: "Unpredictable",
    });

    rows
}

/// Renders the summary matrix.
pub fn render(rows: &[FindingRow]) -> String {
    let mut t = TextTable::new(vec![
        "Finding".into(),
        "Supported by this run".into(),
        "Impact".into(),
        "Evidence".into(),
    ]);
    for r in rows {
        t.row(vec![
            r.finding.clone(),
            if r.supported { "yes" } else { "NO" }.into(),
            r.impact.into(),
            r.evidence.clone(),
        ]);
    }
    format!(
        "Tables XIV-XVI: summary of findings, re-derived from measured data\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use crate::campaign::{run_checked_in, CONCURRENCY_SCN, TABLE7_SCN};
    use crate::support::EngineFarm;

    #[test]
    fn all_findings_supported() {
        let (farm, registry) = (EngineFarm::new(), Default::default());
        let fps = run_checked_in(TABLE7_SCN, &farm, &registry);
        let concurrency = run_checked_in(CONCURRENCY_SCN, &farm, &registry);
        let rows = super::run(&farm, &fps, &concurrency);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.supported,
                "finding not reproduced: {} ({})",
                r.finding, r.evidence
            );
        }
    }
}
