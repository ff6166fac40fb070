//! Table II: model sizes, un-optimized vs TensorRT engines for NX and AGX.

use trtsim_gpu::device::Platform;
use trtsim_models::ModelId;

use crate::support::{EngineFarm, TextTable};

/// One Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeRow {
    /// Model.
    pub model: ModelId,
    /// Architecture summary (conv / max-pool counts).
    pub architecture: String,
    /// FP32 model size, MiB.
    pub unoptimized_mib: f64,
    /// NX engine plan size, MiB.
    pub engine_nx_mib: f64,
    /// AGX engine plan size, MiB.
    pub engine_agx_mib: f64,
}

/// The computed table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// All 13 rows, paper order.
    pub rows: Vec<SizeRow>,
}

const MIB: f64 = (1u64 << 20) as f64;

/// Builds every model and both engines, computing all plan sizes.
pub fn run(farm: &EngineFarm) -> Table2 {
    let wanted: Vec<_> = ModelId::all()
        .into_iter()
        .flat_map(|m| [(m, Platform::Nx, 0), (m, Platform::Agx, 0)])
        .collect();
    farm.prefetch_zoo(&wanted);
    let rows = ModelId::all()
        .into_iter()
        .map(|model| {
            let graph = model.descriptor();
            let nx = farm.zoo(model, Platform::Nx, 0);
            let agx = farm.zoo(model, Platform::Agx, 0);
            SizeRow {
                model,
                architecture: format!(
                    "{} conv, {} max pool",
                    graph.conv_count(),
                    graph.max_pool_count()
                ),
                unoptimized_mib: graph.fp32_bytes() as f64 / MIB,
                engine_nx_mib: nx.plan_size_bytes() as f64 / MIB,
                engine_agx_mib: agx.plan_size_bytes() as f64 / MIB,
            }
        })
        .collect();
    Table2 { rows }
}

impl Table2 {
    /// Renders in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "NN Model".into(),
            "# Layers".into(),
            "Un-optimized (MiB)".into(),
            "Engine NX (MiB)".into(),
            "Engine AGX (MiB)".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.model.to_string(),
                r.architecture.clone(),
                format!("{:.2}", r.unoptimized_mib),
                format!("{:.2}", r.engine_nx_mib),
                format!("{:.2}", r.engine_agx_mib),
            ]);
        }
        format!(
            "Table II: Model sizes with and without TensorRT optimizations\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_are_smaller_than_models_for_big_networks() {
        let table = run(&EngineFarm::new());
        for r in &table.rows {
            // Small models are dominated by the embedded runtime payload
            // (MTCNN grows, as in the paper); everything ≥ 20 MiB shrinks.
            if r.unoptimized_mib > 20.0 {
                assert!(
                    r.engine_nx_mib < r.unoptimized_mib,
                    "{}: {} !< {}",
                    r.model,
                    r.engine_nx_mib,
                    r.unoptimized_mib
                );
            }
        }
    }

    #[test]
    fn fp16_engines_near_half_size() {
        let table = run(&EngineFarm::new());
        let vgg = table
            .rows
            .iter()
            .find(|r| r.model == ModelId::Vgg16)
            .unwrap();
        let ratio = vgg.engine_nx_mib / vgg.unoptimized_mib;
        assert!((0.45..0.62).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn mtcnn_engine_grows_like_the_paper() {
        // Paper: 1.9 MiB model → 3.8 / 4.78 MiB engines (runtime payload
        // dominates tiny models).
        let table = run(&EngineFarm::new());
        let m = table
            .rows
            .iter()
            .find(|r| r.model == ModelId::Mtcnn)
            .unwrap();
        assert!(m.engine_nx_mib > m.unoptimized_mib);
        assert!(m.engine_agx_mib > m.engine_nx_mib);
    }

    #[test]
    fn googlenet_engine_is_far_below_half() {
        // Dead aux heads removed + FP16: 51 MiB → ~13.6 MiB in the paper.
        let table = run(&EngineFarm::new());
        let g = table
            .rows
            .iter()
            .find(|r| r.model == ModelId::Googlenet)
            .unwrap();
        assert!(
            g.engine_nx_mib < 0.42 * g.unoptimized_mib,
            "{} vs {}",
            g.engine_nx_mib,
            g.unoptimized_mib
        );
    }

    #[test]
    fn renders_all_rows() {
        let table = run(&EngineFarm::new());
        let s = table.render();
        assert_eq!(table.rows.len(), 13);
        assert!(s.contains("Tiny-Yolov3") && s.contains("MTCNN"));
    }
}
