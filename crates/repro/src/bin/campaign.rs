//! Runs the paper campaign and scenario files.
//!
//! ```sh
//! campaign                                   # every section of trtsim_repro::campaign
//! campaign --only table7 --only serving      # the named sections
//! campaign --scn scenarios/ --check          # validate every checked-in .scn file
//! campaign --scn scenarios/fleet_diurnal.scn --smoke --out-dir out
//! ```
//!
//! `--scn FILE|DIR` runs scenario files (a directory's `.scn` files in name
//! order) after the `--only` sections; given alone it runs no section.
//! Each scenario prints its markdown report and exits 1 if an assertion
//! fails. `--check` validates the arguments and runs nothing. `--smoke`
//! caps scenario plans to CI size. `--out-dir DIR` also writes the
//! sections' trace files, each scenario's `SCENARIO_<stem>.json` report
//! (stamped with `--git-rev SHA`, else `TRTSIM_GIT_REV`, else the
//! checkout's `HEAD`), its markdown and its retained request traces, and
//! one `TELEMETRY_campaign.json`; without it no file is written. A bad
//! argument, an unknown section or an unreadable or invalid scenario file
//! exits 2 before anything runs, reporting all of them with their
//! diagnostics.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trtsim_metrics::report::git_rev;
use trtsim_repro::campaign::{select, Campaign, ScenarioFile};
use trtsim_repro::exp_accuracy::AccuracyConfig;
use trtsim_repro::scenario::{compile, emit, CompileOptions};

const USAGE: &str = "usage: campaign [--only SECTION]... [--scn FILE|DIR]... [--check] [--smoke]
                [--out-dir DIR] [--git-rev SHA]";

/// Runs one validated scenario file, printing its markdown and, with
/// `out = (dir, git_rev)`, writing its report, markdown and traces under
/// `dir`. Returns whether every assertion held.
fn run_scenario(
    campaign: &Campaign,
    file: &ScenarioFile,
    smoke: bool,
    out: Option<&(&Path, String)>,
) -> Result<bool, String> {
    let plan = compile(&file.graph, CompileOptions { smoke });
    eprintln!(
        "running scenario \"{}\": {} unit(s), {} assertion(s){}",
        plan.name,
        plan.units.len(),
        plan.asserts.len(),
        if smoke { " [smoke]" } else { "" }
    );
    let report = campaign.run_scenario(&plan).map_err(|e| e.to_string())?;
    let markdown = emit::to_markdown(&report);
    print!("{markdown}");
    if let Some((dir, rev)) = out {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let stem = file.path.file_stem().unwrap_or_default().to_string_lossy();
        let path = |suffix: &str| dir.join(format!("SCENARIO_{stem}{suffix}"));
        let mode = if smoke { "smoke" } else { "full" };
        let json = emit::to_bench_report(&report, mode, rev).to_json();
        std::fs::write(path(".json"), json)
            .and_then(|()| std::fs::write(path(".md"), &markdown))
            .and_then(|()| emit::write_traces(&path(""), &report))
            .map_err(|e| format!("writing under {}: {e}", dir.display()))?;
        eprintln!("report written to {}", path(".json").display());
    }
    Ok(report.passed())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut only, mut scn, mut out_dir) = (Vec::new(), Vec::new(), None);
    let (mut check, mut smoke) = (false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--smoke" => smoke = true,
            flag @ ("--only" | "--scn" | "--out-dir" | "--git-rev") => {
                let Some(value) = it.next() else {
                    eprintln!("campaign: {flag} needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                match flag {
                    "--only" => only.push(value.as_str()),
                    "--scn" => scn.push(Path::new(value)),
                    "--out-dir" => out_dir = Some(PathBuf::from(value)),
                    _ => {} // --git-rev is read by `git_rev`
                }
            }
            _ => {
                eprintln!("campaign: bad argument `{arg}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let selection = match select(&only, &scn) {
        Ok(selection) => selection,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::from(2);
        }
    };
    if check {
        for ScenarioFile { path, graph } in &selection.scenarios {
            println!(
                "ok: {} — \"{}\" ({} devices, {} models, {} traffic, {} asserts)",
                path.display(),
                graph.name,
                graph.devices.len(),
                graph.models.len(),
                graph.traffic.len(),
                graph.asserts.len()
            );
        }
        println!("{} scenario file(s) valid", selection.scenarios.len());
        return ExitCode::SUCCESS;
    }
    let campaign = Campaign::new(AccuracyConfig::default());
    let out_dir = out_dir.as_deref();
    if !selection.sections.is_empty() {
        let run = campaign.run(&selection.sections, out_dir, &mut std::io::stdout().lock());
        if let Err(e) = run {
            eprintln!("campaign: {e}");
            return ExitCode::FAILURE;
        }
    }
    let out = out_dir.map(|dir| (dir, git_rev(&args)));
    let mut passed = true;
    for file in &selection.scenarios {
        match run_scenario(&campaign, file, smoke, out.as_ref()) {
            Ok(held) => passed &= held,
            Err(e) => {
                eprintln!("campaign: {}: {e}", file.path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = out_dir {
        if let Err(e) = campaign.write_telemetry(dir) {
            eprintln!("campaign: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("telemetry snapshot written to {}", dir.display());
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
