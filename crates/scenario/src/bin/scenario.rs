//! The scenario runner: `scenario run|check|list`.
//!
//! ```sh
//! scenario check scenarios/                 # validate every checked-in .scn
//! scenario list scenarios/                  # what's available
//! scenario run scenarios/table7_fps.scn     # execute + print markdown
//! scenario run scenarios/poisson_openloop.scn --smoke --out REPORT.json
//! ```
//!
//! `check` exits non-zero if any file fails to parse or validate, printing
//! every accumulated diagnostic compiler-style. `run` exits non-zero when
//! an assertion fails, so both subcommands work as CI gates.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trtsim_bench::report::git_rev;
use trtsim_metrics::Registry;
use trtsim_repro::support::EngineFarm;
use trtsim_scenario::{check_src, compile_src, driver, emit, CompileOptions};

const USAGE: &str = "usage:
  scenario check <file.scn | dir>...
  scenario list  <file.scn | dir>...
  scenario run   <file.scn> [--smoke] [--out REPORT.json] [--md REPORT.md]
                 [--trace-out DIR] [--git-rev SHA]";

/// Expands each argument into `.scn` files (directories scan one level).
fn scn_files(paths: &[String]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for raw in paths {
        let path = Path::new(raw);
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map(|it| {
                    it.filter_map(|e| e.ok())
                        .map(|e| e.path())
                        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
                        .collect()
                })
                .unwrap_or_default();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path.to_path_buf());
        }
    }
    files
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_check(paths: &[String]) -> ExitCode {
    let files = scn_files(paths);
    if files.is_empty() {
        eprintln!("scenario check: no .scn files under {paths:?}");
        return ExitCode::from(2);
    }
    let mut failed = 0usize;
    for file in &files {
        let src = match read(file) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("error: {e}");
                failed += 1;
                continue;
            }
        };
        match check_src(&src) {
            Ok(graph) => println!(
                "ok: {} — \"{}\" ({} devices, {} models, {} traffic, {} asserts)",
                file.display(),
                graph.name,
                graph.devices.len(),
                graph.models.len(),
                graph.traffic.len(),
                graph.asserts.len()
            ),
            Err(err) => {
                eprint!("{}", err.render(&file.display().to_string(), &src));
                eprintln!("{}: {err}", file.display());
                failed += 1;
            }
        }
    }
    if failed == 0 {
        println!("{} scenario file(s) valid", files.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} of {} scenario file(s) invalid", files.len());
        ExitCode::FAILURE
    }
}

fn cmd_list(paths: &[String]) -> ExitCode {
    let files = scn_files(paths);
    if files.is_empty() {
        eprintln!("scenario list: no .scn files under {paths:?}");
        return ExitCode::from(2);
    }
    for file in &files {
        match read(file)
            .and_then(|src| check_src(&src).map_err(|e| format!("{}: {e}", file.display())))
        {
            Ok(graph) => {
                let units = trtsim_scenario::compile(&graph, CompileOptions::default())
                    .units
                    .len();
                println!("{}\t\"{}\"\t{} units", file.display(), graph.name, units);
            }
            Err(e) => println!("{}\t(invalid: {e})", file.display()),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut smoke = false;
    let mut out = None;
    let mut md = None;
    let mut trace_out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--out" | "--md" | "--trace-out" | "--git-rev" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("{} needs a value\n{USAGE}", args[i]);
                    return ExitCode::from(2);
                };
                match args[i].as_str() {
                    "--out" => out = Some(value.clone()),
                    "--md" => md = Some(value.clone()),
                    "--trace-out" => trace_out = Some(value.clone()),
                    _ => {} // --git-rev is re-read via bench::report::git_rev
                }
                i += 1;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            path => {
                if file.replace(path.to_string()).is_some() {
                    eprintln!("run takes exactly one .scn file\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
        i += 1;
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let src = match read(Path::new(&file)) {
        Ok(src) => src,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = match compile_src(&src, CompileOptions { smoke }) {
        Ok(plan) => plan,
        Err(err) => {
            eprint!("{}", err.render(&file, &src));
            eprintln!("{file}: {err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "running scenario \"{}\": {} unit(s), {} assertion(s){}",
        plan.name,
        plan.units.len(),
        plan.asserts.len(),
        if smoke { " [smoke]" } else { "" }
    );
    let registry = Registry::new();
    let report = match driver::run(&plan, &registry) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("driver error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let markdown = emit::to_markdown(&report);
    print!("{markdown}");
    if let Some(md_path) = md {
        if let Err(e) = std::fs::write(&md_path, &markdown) {
            eprintln!("error writing {md_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(out_path) = out {
        let mode = if smoke { "smoke" } else { "full" };
        EngineFarm::global().publish(&registry);
        emit::to_bench_report(&report, mode, &git_rev(args)).write(&out_path, &registry);
        eprintln!("report written to {out_path}");
    }
    if let Some(dir) = trace_out {
        if let Err(e) = write_traces(Path::new(&dir), &report) {
            eprintln!("error writing traces to {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Dumps each unit's retained flight-recorder traces under `dir`: a JSON
/// array (`<unit>_traces.json`) plus a chrome://tracing document
/// (`<unit>_trace.chrome.json`) per serving/fleet unit that retained any.
fn write_traces(dir: &Path, report: &driver::ScenarioReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut dumped = 0usize;
    for unit in &report.units {
        if unit.traces.is_empty() {
            continue;
        }
        // Unit labels may contain path-hostile characters; keep [a-z0-9_-].
        let stem: String = unit
            .label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        std::fs::write(
            dir.join(format!("{stem}_traces.json")),
            trtsim_core::reqtrace::traces_json(&unit.traces),
        )?;
        std::fs::write(
            dir.join(format!("{stem}_trace.chrome.json")),
            trtsim_core::reqtrace::chrome_trace_all(&unit.traces),
        )?;
        dumped += 1;
    }
    eprintln!("traces for {dumped} unit(s) written to {}", dir.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "check" => cmd_check(rest),
        Some((cmd, rest)) if cmd == "list" => cmd_list(rest),
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
