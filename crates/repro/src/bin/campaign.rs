//! Runs the paper campaign: every section of `trtsim_repro::campaign`, or
//! those named with `--only`. `--out-dir DIR` also writes the sections'
//! trace files and a telemetry snapshot there; without it no file is
//! written. A bad argument or unknown section exits 2 before anything runs.

use std::process::ExitCode;

use trtsim_repro::campaign::{select, Campaign};
use trtsim_repro::exp_accuracy::AccuracyConfig;

const USAGE: &str = "usage: campaign [--only SECTION]... [--out-dir DIR]";

fn main() -> ExitCode {
    let (mut only, mut out_dir) = (Vec::new(), None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--only", Some(name)) => only.push(name),
            ("--out-dir", Some(dir)) => out_dir = Some(std::path::PathBuf::from(dir)),
            _ => {
                eprintln!("campaign: bad argument `{arg}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Ok(sections) = select(&only).map_err(|e| eprintln!("campaign: {e}")) else {
        return ExitCode::from(2);
    };
    let campaign = Campaign::new(AccuracyConfig::default());
    if let Err(e) = campaign.run(&sections, out_dir.as_deref(), &mut std::io::stdout().lock()) {
        eprintln!("campaign: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
