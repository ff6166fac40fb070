//! The paper campaign: a static registry of named sections, one per table
//! or figure group, run by a [`Campaign`] that owns its engine farm.
//!
//! Each section prints under a `== name ==` header exactly the text its
//! harnesses render; wall times and artifact notices go to stderr.
//! `all_experiments.txt` pins the full run at [`AccuracyConfig::default`],
//! `crates/repro/tests/golden/campaign_quick.txt` the one at
//! [`AccuracyConfig::quick`].
//!
//! Table VII, Figures 3/4 and the serving sweep are checked-in `.scn`
//! files ([`TABLE7_SCN`], [`CONCURRENCY_SCN`], [`SERVING_SCN`]): their
//! sections run the file through the [`scenario`] driver on the campaign's
//! farm and render the report. Any other scenario file runs through
//! [`Campaign::run_scenario`] once [`select`] has validated it.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use trtsim_core::serving::ServingError;
use trtsim_gpu::device::Platform;
use trtsim_metrics::Registry;
use trtsim_models::ModelId;

use crate::exp_accuracy::{self, AccuracyConfig};
use crate::scenario::{self, CompileOptions, ExecutionPlan};
use crate::scenario::{ScenarioGraph, ScenarioReport};
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
    section("table7", |c| vec![exp_fps::render(&c.scn(TABLE7_SCN))]),
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
    section("table14_16", |c| {
        let (fps, concurrency) = (c.scn(TABLE7_SCN), c.scn(CONCURRENCY_SCN));
        vec![exp_summary::render(&exp_summary::run(&c.farm, &fps, &concurrency))]
    }),
    section("table17", |c| bsp(c, ModelId::InceptionV4)),
    section("table18", |c| bsp(c, ModelId::Mobilenetv1)),
    section("serving", |c| {
        let report = c.scn(SERVING_SCN);
        Platform::all().map(|p| exp_serving::render(&report, p)).into()
    }),
    section("ablation", ablation),
];

/// Table XI's models (the paper's three kernels-slower-on-AGX networks).
const TABLE11_MODELS: [ModelId; 3] = [ModelId::Pednet, ModelId::Facenet, ModelId::Mobilenetv1];

fn bsp(c: &Campaign, model: ModelId) -> Vec<String> {
    vec![exp_bsp::render(&exp_bsp::run(&c.farm, model, 3))]
}

fn concurrency(c: &Campaign, model: ModelId) -> Vec<String> {
    let report = c.scn(CONCURRENCY_SCN);
    Platform::all()
        .map(|p| exp_concurrency::render(report.unit(model, p).expect("a unit per platform")))
        .into()
}

/// Table VII's source: classification FPS, optimized vs un-optimized.
pub const TABLE7_SCN: &str = include_str!("../../../scenarios/table7_fps.scn");
/// Figures 3/4's source: the multi-stream saturation sweeps.
pub const CONCURRENCY_SCN: &str = include_str!("../../../scenarios/fig3_fig4_concurrency.scn");
/// The `serving` section's source: the dynamic-batching sweep.
pub const SERVING_SCN: &str = include_str!("../../../scenarios/serving_batch_sweep.scn");

/// Runs a checked-in scenario source at full size on `farm`, folding its
/// servers' series into `registry`.
///
/// # Panics
///
/// Panics if the source does not validate, the driver fails, or an
/// assertion fails: a checked-in file that does any of these is a bug.
pub fn run_checked_in(src: &str, farm: &EngineFarm, registry: &Registry) -> ScenarioReport {
    let plan = scenario::compile_src(src, CompileOptions::default())
        .unwrap_or_else(|e| panic!("{}", e.render("checked-in scenario", src)));
    let report = scenario::driver::run(&plan, farm, registry).expect("checked-in scenario runs");
    assert!(report.passed(), "{}", scenario::to_markdown(&report));
    report
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

/// A `--scn` file that parsed and validated.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Where it was read from.
    pub path: PathBuf,
    /// Its validated graph.
    pub graph: ScenarioGraph,
}

/// What one campaign invocation runs.
#[derive(Debug)]
pub struct Selection {
    /// Registry sections, in registry order.
    pub sections: Vec<&'static Section>,
    /// Scenario files, in argument order (a directory's in name order).
    pub scenarios: Vec<ScenarioFile>,
}

/// Every unknown `--only` name and every unreadable or invalid `--scn`
/// file, rejected together before anything runs: one message for the names,
/// then one per bad file (its read error, or every spanned diagnostic
/// rendered against its source).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionError(Vec<String>);

impl fmt::Display for SelectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.join("\n"))
    }
}

impl std::error::Error for SelectionError {}

/// `paths` with each directory replaced by its `.scn` files in name order;
/// a directory without readable ones becomes an error in `errors`.
fn scn_files(paths: &[&Path], errors: &mut Vec<String>) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for &path in paths {
        if !path.is_dir() {
            files.push(path.to_path_buf());
            continue;
        }
        let entries = std::fs::read_dir(path).into_iter().flatten().flatten();
        let mut found: Vec<PathBuf> = entries
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
            .collect();
        if found.is_empty() {
            errors.push(format!("{}: no readable .scn files", path.display()));
        }
        found.sort();
        files.extend(found);
    }
    files
}

/// Resolves section names against the registry and reads and validates
/// every scenario file (a directory stands for its `.scn` files). With
/// neither, every section is selected; otherwise each named section runs
/// once, in registry order, however often and in whatever order it was
/// named.
///
/// # Errors
///
/// Returns every unknown name and every bad file at once.
pub fn select(only: &[&str], scn: &[&Path]) -> Result<Selection, SelectionError> {
    let mut errors = Vec::new();
    let unknown: Vec<&str> = only
        .iter()
        .copied()
        .filter(|&n| SECTIONS.iter().all(|s| s.name != n))
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
        let (unknown, valid) = (unknown.join(", "), valid.join(", "));
        errors.push(format!(
            "unknown section(s): {unknown}; valid sections: {valid}"
        ));
    }
    let mut scenarios = Vec::new();
    for path in scn_files(scn, &mut errors) {
        let name = path.display().to_string();
        match std::fs::read_to_string(&path) {
            Err(e) => errors.push(format!("{name}: {e}")),
            Ok(src) => match scenario::check_src(&src) {
                Ok(graph) => scenarios.push(ScenarioFile { path, graph }),
                Err(e) => errors.push(format!("{}{name}: {e}", e.render(&name, &src))),
            },
        }
    }
    if !errors.is_empty() {
        return Err(SelectionError(errors));
    }
    let sections = SECTIONS
        .iter()
        .filter(|s| match only {
            [] => scn.is_empty(),
            _ => only.contains(&s.name),
        })
        .collect();
    Ok(Selection {
        sections,
        scenarios,
    })
}

/// One run of the paper campaign: the engine farm every section and
/// scenario draws from, the accuracy scale of Tables III–VI, and the
/// telemetry registry the scenario driver reports into.
#[derive(Debug)]
pub struct Campaign {
    farm: EngineFarm,
    accuracy: AccuracyConfig,
    registry: Registry,
    /// Each checked-in source's report, run once however many sections
    /// render it, so the registry counts its units once.
    reports: Mutex<HashMap<&'static str, ScenarioReport>>,
}

impl Campaign {
    /// A campaign with a fresh farm and registry.
    pub fn new(accuracy: AccuracyConfig) -> Self {
        let (farm, registry) = (EngineFarm::new(), Registry::new());
        Self {
            farm,
            accuracy,
            registry,
            reports: Mutex::default(),
        }
    }

    /// Writes one section's header and text to `out` and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates write errors on `out`.
    pub fn write_section(&self, section: &Section, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "== {} ==", section.name)?;
        for block in (section.render)(self) {
            writeln!(out, "{block}")?;
        }
        out.flush()
    }

    /// The report of a checked-in scenario source ([`run_checked_in`]) on
    /// this campaign's farm and registry, run on first use.
    fn scn(&self, src: &'static str) -> ScenarioReport {
        let mut reports = self.reports.lock().expect("report memo lock");
        let report = reports
            .entry(src)
            .or_insert_with(|| run_checked_in(src, &self.farm, &self.registry));
        report.clone()
    }

    /// Writes each section's header and text to `out`. With `out_dir`, also
    /// writes the sections' trace files there; without it, writes no file.
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
            self.write_section(section, out)?;
            if let (Some(dir), Some((file, write))) = (out_dir, section.artifact) {
                let path = dir.join(file);
                write(&self.farm, &path)?;
                eprintln!("trace written to {}", path.display());
            }
            eprintln!("{}: {:.3}s", section.name, started.elapsed().as_secs_f64());
        }
        let stats = self.farm.stats();
        eprintln!(
            "campaign: {:.3}s, {} engine builds",
            t0.elapsed().as_secs_f64(),
            stats.builds
        );
        Ok(())
    }

    /// Runs a scenario plan on this campaign's farm, folding its servers'
    /// and fleets' series into the campaign registry.
    ///
    /// # Errors
    ///
    /// Propagates the driver's [`ServingError`].
    pub fn run_scenario(&self, plan: &ExecutionPlan) -> Result<ScenarioReport, ServingError> {
        scenario::driver::run(plan, &self.farm, &self.registry)
    }

    /// Writes `TELEMETRY_campaign.json` under `dir`: the campaign registry
    /// with the farm published into it once.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write_telemetry(&self, dir: &Path) -> io::Result<()> {
        let snapshot = Registry::new();
        snapshot.absorb(&self.registry);
        self.farm.publish(&snapshot);
        snapshot.write_json(dir.join("TELEMETRY_campaign.json"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_are_all_rejected_before_running() {
        let dir = std::env::temp_dir().join(format!("campaign_select_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.scn");
        std::fs::write(
            &bad,
            "scenario \"bad\" {\n  device d { platform = tpu }\n}\n",
        )
        .unwrap();
        let missing = dir.join("missing.scn");
        let checked_in = Path::new("../../scenarios");
        let err = select(
            &["table3", "table99", "fig5"],
            &[bad.as_path(), missing.as_path(), checked_in],
        )
        .unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        // One message for the names, one per bad file.
        assert_eq!(err.0.len(), 3, "{err}");
        let message = err.to_string();
        assert!(
            message.contains("unknown section(s): table99, fig5;"),
            "{message}"
        );
        for s in SECTIONS {
            assert!(message.contains(s.name), "{message} lacks {}", s.name);
        }
        // The invalid file keeps its spanned diagnostic, the missing one
        // its read error; the checked-in directory is all valid.
        assert!(message.contains("bad.scn:2:"), "{message}");
        assert!(message.contains("unknown platform `tpu`"), "{message}");
        assert!(message.contains("missing.scn: "), "{message}");
        assert!(!message.contains("scenarios/"), "{message}");
    }

    #[test]
    fn repeated_names_run_once_in_registry_order() {
        let names: Vec<_> = select(&["table7", "table2", "table7"], &[])
            .unwrap()
            .sections
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["table2", "table7"]);
        assert_eq!(select(&[], &[]).unwrap().sections.len(), SECTIONS.len());
        // Scenario files alone select no section; with `--only`, its names.
        let scenarios = [Path::new("../../scenarios")];
        let selection = select(&[], &scenarios).unwrap();
        assert!(selection.sections.is_empty() && selection.scenarios.len() >= 6);
        assert_eq!(select(&["table7"], &scenarios).unwrap().sections.len(), 1);
    }

    #[test]
    fn sections_sharing_a_scenario_run_it_once() {
        let campaign = Campaign::new(AccuracyConfig::quick());
        for section in SECTIONS
            .iter()
            .filter(|s| ["fig3", "fig4"].contains(&s.name))
        {
            campaign.write_section(section, &mut io::sink()).unwrap();
        }
        let labels = [("kind", "concurrency")];
        let units = campaign
            .registry
            .counter("trtsim_scn_units_total", "", &labels);
        assert_eq!(units.get(), 4, "two models on two boards, run once");
    }

    #[test]
    fn section_names_are_unique() {
        let mut names: Vec<_> = SECTIONS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SECTIONS.len());
    }
}
