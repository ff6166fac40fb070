//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload accuracy_eval --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run also
//! writes its spans as chrome://tracing JSON under
//! `$CARGO_TARGET_DIR/perfbench-traces/` (`.bench_build/` by default).
//! Problems go to standard error. The exit code is 0 only when every op
//! passed the correctness gate.

use std::path::PathBuf;
use std::process::ExitCode;

use trtsim_perfbench::{run, Config, Workload, MIN_OPS, SETUP_REPS};

const USAGE: &str = "usage: perfbench --workload <accuracy_eval|consistency_eval|fleet_replay> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds must be a non-negative number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let trace_out = trace.then(|| {
        PathBuf::from(target)
            .join("perfbench-traces")
            .join(format!("{}-seed{seed}.json", workload.name()))
    });
    Ok(Config {
        workload,
        seed,
        seconds,
        min_ops: MIN_OPS,
        setup_reps: SETUP_REPS,
        trace,
        trace_out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &report.problems {
        eprintln!("perfbench: {problem}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
