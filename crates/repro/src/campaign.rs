//! The paper campaign: a static registry of named sections, one per table
//! or figure group, run by a [`Campaign`] that owns its engine farm.
//!
//! Each section prints under a `== name ==` header exactly the text its
//! harnesses render; wall times and artifact notices go to stderr.
//! `all_experiments.txt` pins the full run at [`AccuracyConfig::default`],
//! `crates/repro/tests/golden/campaign_quick.txt` the one at
//! [`AccuracyConfig::quick`].

use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use trtsim_gpu::device::Platform;
use trtsim_metrics::Registry;
use trtsim_models::ModelId;

use crate::exp_accuracy::{self, AccuracyConfig};
use crate::support::EngineFarm;
use crate::{exp_ablation, exp_bsp, exp_concurrency, exp_consistency, exp_fps, exp_latency};
use crate::{exp_memcpy, exp_platforms, exp_serving, exp_sizes, exp_summary, exp_variability};

type Render = fn(&Campaign) -> Vec<String>;
type Artifact = (&'static str, fn(&EngineFarm, &Path) -> io::Result<()>);

/// One entry of the campaign registry.
#[derive(Debug)]
pub struct Section {
    /// Stable name: the `--only` argument and the header line's text.
    pub name: &'static str,
    /// The section's text blocks, each printed with a newline.
    render: Render,
    /// A file the section writes under `--out-dir`, and how.
    artifact: Option<Artifact>,
}

const fn section(name: &'static str, render: Render) -> Section {
    Section {
        name,
        render,
        artifact: None,
    }
}

/// Every campaign section, in run order.
#[rustfmt::skip]
pub static SECTIONS: &[Section] = &[
    section("table1", |_| vec![exp_platforms::run()]),
    section("table2", |c| vec![exp_sizes::run(&c.farm).render()]),
    section("table3", |c| {
        vec![exp_accuracy::render_table3(&exp_accuracy::run_table3(&c.farm, &c.accuracy))]
    }),
    section("table4", |c| {
        vec![exp_accuracy::render_table4(&exp_accuracy::run_table4(&c.farm, &c.accuracy))]
    }),
    // One set of studies feeds both tables.
    section("table5_6", |c| {
        let studies: Vec<_> = exp_consistency::consistency_models()
            .into_iter()
            .map(|m| exp_consistency::run(&c.farm, m, &c.accuracy))
            .collect();
        vec![exp_consistency::render_table5(&studies), exp_consistency::render_table6(&studies)]
    }),
    section("table7", |c| vec![exp_fps::run(&c.farm).render()]),
    section("fig3", |c| concurrency(c, ModelId::TinyYolov3)),
    section("fig4", |c| concurrency(c, ModelId::Googlenet)),
    section("table8", |c| {
        let t = exp_latency::run(&c.farm).render();
        vec![format!("Table VIII: inference latency with nvprof (pinned clocks)\n{t}")]
    }),
    section("table9", |c| {
        let t = exp_latency::run_table9(&c.farm).render();
        vec![format!("Table IX: inference latency without nvprof\n{t}")]
    }),
    Section {
        artifact: Some(("table10_trace.json", |farm, path| {
            exp_memcpy::write_memcpy_trace(farm, path, ModelId::Resnet18, Platform::Agx, 16)
        })),
        ..section("table10", |c| {
            vec![exp_memcpy::render_table10(&exp_memcpy::run_table10(&c.farm))]
        })
    },
    section("table11", |c| {
        vec![exp_memcpy::render_table11(&exp_memcpy::run_table11(&c.farm, &TABLE11_MODELS))]
    }),
    section("table12", |c| {
        let rows = exp_variability::run_table12(&c.farm, &ModelId::all());
        vec![exp_variability::render_table12(&rows)]
    }),
    Section {
        artifact: Some(("table13_trace.json", |farm, path| {
            exp_variability::write_variability_trace(farm, path, ModelId::InceptionV4, 4)
        })),
        ..section("table13", |c| {
            let table = exp_variability::run_table13(&c.farm, ModelId::InceptionV4);
            vec![exp_variability::render_table13(&table)]
        })
    },
    section("table14_16", |c| vec![exp_summary::render(&exp_summary::run(&c.farm))]),
    section("table17", |c| bsp(c, ModelId::InceptionV4)),
    section("table18", |c| bsp(c, ModelId::Mobilenetv1)),
    section("serving", |c| {
        Platform::all().map(|p| {
            exp_serving::render(&exp_serving::run(&c.farm, ModelId::TinyYolov3, p, &c.registry))
        }).into()
    }),
    section("ablation", ablation),
];

/// Table XI's models (the paper's three kernels-slower-on-AGX networks).
const TABLE11_MODELS: [ModelId; 3] = [ModelId::Pednet, ModelId::Facenet, ModelId::Mobilenetv1];

fn bsp(c: &Campaign, model: ModelId) -> Vec<String> {
    vec![exp_bsp::render(&exp_bsp::run(&c.farm, model, 3))]
}

fn concurrency(c: &Campaign, model: ModelId) -> Vec<String> {
    Platform::all()
        .map(|p| exp_concurrency::render(&exp_concurrency::run(&c.farm, model, p)))
        .into()
}

/// The DESIGN.md extensions: pass contributions, precision policies, the
/// avgTiming knob, and INT8 accuracy (always at the quick accuracy scale).
fn ablation(c: &Campaign) -> Vec<String> {
    use exp_ablation::*;
    let mut out: Vec<String> = [ModelId::Googlenet, ModelId::TinyYolov3]
        .map(|m| render_pass_ablation(m, &run_pass_ablation(m)))
        .into();
    out.extend(
        [ModelId::Resnet18, ModelId::Vgg16]
            .map(|m| render_precision_ablation(m, &run_precision_ablation(m))),
    );
    let model = ModelId::InceptionV4;
    out.push(render_avgtiming(model, &run_avgtiming_sweep(model, 8)));
    let int8_rows = [ModelId::Alexnet, ModelId::Vgg16]
        .map(|m| run_int8_accuracy(&c.farm, m, &AccuracyConfig::quick()));
    out.push(render_int8(&int8_rows));
    out
}

/// `--only` names that match no section, rejected before anything runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSections(Vec<String>);

impl fmt::Display for UnknownSections {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let valid: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
        let (unknown, valid) = (self.0.join(", "), valid.join(", "));
        write!(f, "unknown section(s): {unknown}; valid sections: {valid}")
    }
}

impl std::error::Error for UnknownSections {}

/// Resolves section names against the registry. An empty list selects
/// every section; otherwise each named section runs once, in registry
/// order, however often and in whatever order it was named.
///
/// # Errors
///
/// Returns every unknown name at once.
pub fn select(names: &[impl AsRef<str>]) -> Result<Vec<&'static Section>, UnknownSections> {
    let named = |name: &str| names.iter().any(|n| n.as_ref() == name);
    let unknown: Vec<String> = names
        .iter()
        .map(|n| n.as_ref().to_string())
        .filter(|n| SECTIONS.iter().all(|s| s.name != n))
        .collect();
    if !unknown.is_empty() {
        return Err(UnknownSections(unknown));
    }
    Ok(SECTIONS
        .iter()
        .filter(|s| names.is_empty() || named(s.name))
        .collect())
}

/// One run of the paper campaign: the engine farm every section draws
/// from, the accuracy scale of Tables III–VI, and the telemetry registry
/// the serving sweep reports into.
#[derive(Debug)]
pub struct Campaign {
    farm: EngineFarm,
    accuracy: AccuracyConfig,
    registry: Registry,
}

impl Campaign {
    /// A campaign with a fresh farm and registry.
    pub fn new(accuracy: AccuracyConfig) -> Self {
        let (farm, registry) = (EngineFarm::new(), Registry::new());
        Self {
            farm,
            accuracy,
            registry,
        }
    }

    /// Writes each section's header and text to `out`. With `out_dir`, also writes the sections'
    /// trace files and one telemetry snapshot (the campaign registry with
    /// the farm published into it) there; without it, writes no file.
    ///
    /// # Errors
    ///
    /// Propagates write errors on `out` and under `out_dir`.
    pub fn run(
        &self,
        sections: &[&Section],
        out_dir: Option<&Path>,
        out: &mut impl Write,
    ) -> io::Result<()> {
        let t0 = Instant::now();
        if let Some(dir) = out_dir {
            std::fs::create_dir_all(dir)?;
        }
        for section in sections {
            let started = Instant::now();
            writeln!(out, "== {} ==", section.name)?;
            for block in (section.render)(self) {
                writeln!(out, "{block}")?;
            }
            out.flush()?;
            if let (Some(dir), Some((file, write))) = (out_dir, section.artifact) {
                let path = dir.join(file);
                write(&self.farm, &path)?;
                eprintln!("trace written to {}", path.display());
            }
            eprintln!("{}: {:.3}s", section.name, started.elapsed().as_secs_f64());
        }
        if let Some(dir) = out_dir {
            let snapshot = Registry::new();
            snapshot.absorb(&self.registry);
            self.farm.publish(&snapshot);
            snapshot.write_json(dir.join("TELEMETRY_campaign.json"))?;
            eprintln!("telemetry snapshot written to {}", dir.display());
        }
        let stats = self.farm.stats();
        eprintln!(
            "campaign: {:.3}s, {} engine builds",
            t0.elapsed().as_secs_f64(),
            stats.builds
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_are_all_rejected_before_running() {
        let err = select(&["table3", "table99", "fig5"]).unwrap_err();
        assert_eq!(err.0, ["table99", "fig5"]);
        let message = err.to_string();
        assert!(message.contains("table99, fig5"), "{message}");
        for s in SECTIONS {
            assert!(message.contains(s.name), "{message} lacks {}", s.name);
        }
    }

    #[test]
    fn repeated_names_run_once_in_registry_order() {
        let names: Vec<_> = select(&["table7", "table2", "table7"])
            .unwrap()
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["table2", "table7"]);
        assert_eq!(select(&[] as &[&str]).unwrap().len(), SECTIONS.len());
    }

    #[test]
    fn section_names_are_unique() {
        let mut names: Vec<_> = SECTIONS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SECTIONS.len());
    }
}
