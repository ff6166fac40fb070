//! Tables VIII and IX: the compile-platform × run-platform latency matrix
//! and its anomalies.

use trtsim_core::runtime::ExecutionContext;
use trtsim_core::Engine;
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_metrics::LatencyCell;
use trtsim_models::ModelId;
use trtsim_util::derive_seed;

use crate::support::{table8_options, table9_options, EngineFarm, TextTable, CAMPAIGN_SEED, RUNS};

/// The four measurement cases of Table VIII, in column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// Compiled on NX, run on NX.
    CNxRNx,
    /// Compiled on NX, run on AGX.
    CNxRAgx,
    /// Compiled on AGX, run on AGX.
    CAgxRAgx,
    /// Compiled on AGX, run on NX.
    CAgxRNx,
}

impl Case {
    /// All four, in the paper's column order.
    pub fn all() -> [Case; 4] {
        [Case::CNxRNx, Case::CNxRAgx, Case::CAgxRAgx, Case::CAgxRNx]
    }

    /// Compile and run platforms.
    pub fn platforms(self) -> (Platform, Platform) {
        match self {
            Case::CNxRNx => (Platform::Nx, Platform::Nx),
            Case::CNxRAgx => (Platform::Nx, Platform::Agx),
            Case::CAgxRAgx => (Platform::Agx, Platform::Agx),
            Case::CAgxRNx => (Platform::Agx, Platform::Nx),
        }
    }

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Case::CNxRNx => "cNX_rNX",
            Case::CNxRAgx => "cNX_rAGX",
            Case::CAgxRAgx => "cAGX_rAGX",
            Case::CAgxRNx => "cAGX_rNX",
        }
    }
}

/// The paper's three anomaly categories (¶, ·, ¸ in §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anomaly {
    /// Platform-specific engines: cAGX_rAGX slower than cNX_rNX.
    Case1,
    /// The same NX engine runs slower on AGX: cNX_rAGX > cNX_rNX.
    Case2,
    /// The same AGX engine runs faster on NX: cAGX_rNX < cAGX_rAGX.
    Case3,
}

impl Anomaly {
    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            Anomaly::Case1 => "case 1",
            Anomaly::Case2 => "case 2",
            Anomaly::Case3 => "case 3",
        }
    }
}

/// One model's Table VIII row.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRow {
    /// Model.
    pub model: ModelId,
    /// Mean(σ) latency per case, Table VIII column order.
    pub cells: [LatencyCell; 4],
    /// Detected anomalies.
    pub anomalies: Vec<Anomaly>,
}

/// The computed latency matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Table8 {
    /// One row per zoo model.
    pub rows: Vec<LatencyRow>,
}

/// Measures one cell: run `engine` on `run_platform` for [`RUNS`] runs.
pub fn measure_cell(
    engine: &Engine,
    run_platform: Platform,
    opts: &trtsim_core::runtime::TimingOptions,
    seed: u64,
) -> LatencyCell {
    let ctx = ExecutionContext::new(engine, DeviceSpec::pinned_clock(run_platform));
    LatencyCell::from_runs_us(&ctx.measure_latency(opts, RUNS, seed))
}

fn detect_anomalies(cells: &[LatencyCell; 4]) -> Vec<Anomaly> {
    let mut out = Vec::new();
    // Indices follow Case::all(): 0 cNX_rNX, 1 cNX_rAGX, 2 cAGX_rAGX, 3 cAGX_rNX.
    if cells[2].mean_ms > cells[0].mean_ms {
        out.push(Anomaly::Case1);
    }
    if cells[1].mean_ms > cells[0].mean_ms {
        out.push(Anomaly::Case2);
    }
    if cells[3].mean_ms < cells[2].mean_ms {
        out.push(Anomaly::Case3);
    }
    out
}

/// Computes Table VIII (all 13 models, nvprof attached).
pub fn run(farm: &EngineFarm) -> Table8 {
    run_for(farm, ModelId::all().to_vec(), true)
}

/// Table VIII conditions on a caller-chosen subset of models.
pub fn run_subset(farm: &EngineFarm, models: &[ModelId]) -> Table8 {
    run_for(farm, models.to_vec(), true)
}

/// Computes Table IX conditions (no nvprof) for the paper's two
/// representative models.
pub fn run_table9(farm: &EngineFarm) -> Table8 {
    run_for(farm, vec![ModelId::InceptionV4, ModelId::Pednet], false)
}

fn run_for(farm: &EngineFarm, models: Vec<ModelId>, profiled: bool) -> Table8 {
    // Build every missing engine of the matrix concurrently up front.
    let wanted: Vec<_> = models
        .iter()
        .flat_map(|&m| [(m, Platform::Nx, 0), (m, Platform::Agx, 0)])
        .collect();
    farm.prefetch_zoo(&wanted);
    let rows = models
        .into_iter()
        .map(|model| {
            let nx_engine = farm.zoo(model, Platform::Nx, 0);
            let agx_engine = farm.zoo(model, Platform::Agx, 0);
            let opts = if profiled {
                table8_options(model)
            } else {
                table9_options(model)
            };
            let cells: Vec<LatencyCell> = Case::all()
                .into_iter()
                .map(|case| {
                    let (compile, run) = case.platforms();
                    let engine = if compile == Platform::Nx {
                        &nx_engine
                    } else {
                        &agx_engine
                    };
                    let seed = derive_seed(
                        CAMPAIGN_SEED,
                        "latency-run",
                        (model.info().name.len() as u64) << 8 | case as u64,
                    );
                    measure_cell(engine, run, &opts, seed)
                })
                .collect();
            let cells: [LatencyCell; 4] = cells.try_into().expect("four cases");
            LatencyRow {
                model,
                anomalies: detect_anomalies(&cells),
                cells,
            }
        })
        .collect();
    Table8 { rows }
}

impl Table8 {
    /// Renders in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            std::iter::once("NN Model".to_string())
                .chain(Case::all().iter().map(|c| c.label().to_string()))
                .chain(["Detected Anomalies".to_string()])
                .collect(),
        );
        for r in &self.rows {
            let anomalies = if r.anomalies.is_empty() {
                "none".to_string()
            } else {
                r.anomalies
                    .iter()
                    .map(|a| a.label())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            t.row(
                std::iter::once(r.model.to_string())
                    .chain(r.cells.iter().map(|c| c.to_string()))
                    .chain([anomalies])
                    .collect(),
            );
        }
        t.render()
    }

    /// Number of rows with at least one anomaly.
    pub fn anomalous_rows(&self) -> usize {
        self.rows.iter().filter(|r| !r.anomalies.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table8 {
        run_for(
            &EngineFarm::new(),
            vec![ModelId::Resnet18, ModelId::Pednet, ModelId::Mtcnn],
            true,
        )
    }

    #[test]
    fn cells_are_positive_with_spread() {
        let t = small_table();
        for r in &t.rows {
            for c in &r.cells {
                assert!(c.mean_ms > 0.0);
                assert_eq!(c.runs, RUNS);
            }
        }
    }

    #[test]
    fn nvprof_inflates_latency() {
        let farm = EngineFarm::new();
        let with = run_for(&farm, vec![ModelId::Pednet], true);
        let without = run_for(&farm, vec![ModelId::Pednet], false);
        assert!(
            with.rows[0].cells[0].mean_ms > without.rows[0].cells[0].mean_ms,
            "profiled {} !> unprofiled {}",
            with.rows[0].cells[0].mean_ms,
            without.rows[0].cells[0].mean_ms
        );
    }

    #[test]
    fn anomaly_detector_is_sound() {
        let t = small_table();
        for r in &t.rows {
            if r.anomalies.contains(&Anomaly::Case2) {
                assert!(r.cells[1].mean_ms > r.cells[0].mean_ms);
            }
            if r.anomalies.contains(&Anomaly::Case3) {
                assert!(r.cells[3].mean_ms < r.cells[2].mean_ms);
            }
        }
    }

    #[test]
    fn renders_anomaly_column() {
        let t = small_table();
        let s = t.render();
        assert!(s.contains("Detected Anomalies"));
        assert!(s.contains("cNX_rNX") && s.contains("cAGX_rNX"));
    }
}
