//! ADAS worst-case-execution-time analysis (paper §VI-A, Table XVI).
//!
//! A braking pipeline has a hard deadline: the detector's inference must
//! reach the actuator in time. The paper warns that rebuilding a TensorRT
//! engine changes its latency, "making Worst Case Execution Time (WCET)
//! analysis tough". This example quantifies that: it builds many engines of
//! the pedestrian detector, measures each one's latency distribution, and
//! shows how much WCET margin an engineer must budget if engines are rebuilt
//! in the field versus pinned to one audited plan.
//!
//! The experiment itself lives in `scenarios/adas_wcet.scn` — this example
//! is a thin front-end: it compiles the scenario file, hands the plan to
//! the generic driver, and narrates the numbers. Editing the `.scn` file
//! (more builds, a different network, pinned clocks) changes the experiment
//! without touching Rust.
//!
//! ```sh
//! cargo run --release --example adas_pipeline
//! ```

use std::path::Path;

use trtsim::repro::support::EngineFarm;
use trtsim::scenario::{compile_src, driver};
use trtsim::util::stats::Summary;
use trtsim::{CompileOptions, Registry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/adas_wcet.scn");
    let src = std::fs::read_to_string(&path)?;
    let plan = compile_src(&src, CompileOptions::default())
        .map_err(|e| e.render(&path.display().to_string(), &src))?;
    let report = driver::run(&plan, &EngineFarm::new(), &Registry::new())?;

    // One unit: pednet on the AGX, 12 fresh builds, 30 timed runs each — as
    // a fleet of vehicles each building its own engine would.
    let unit = &report.units[0];
    let mut per_engine_means = Vec::new();
    let mut all_runs = Vec::new();
    for runs in &unit.builds {
        let summary = Summary::from_samples(&runs.samples);
        println!(
            "engine {:>2}: mean {:>7.2} ms  p95 {:>7.2} ms",
            runs.build,
            summary.mean / 1000.0,
            summary.p95 / 1000.0,
        );
        per_engine_means.push(summary.mean);
        all_runs.extend_from_slice(&runs.samples);
    }

    let fleet = Summary::from_samples(&all_runs);
    let single = Summary::from_samples(&per_engine_means[..1]);
    let spread = Summary::from_samples(&per_engine_means);
    println!();
    println!(
        "fleet WCET budget (rebuild in the field): p95 {:.2} ms, max {:.2} ms",
        fleet.p95 / 1000.0,
        fleet.max / 1000.0
    );
    println!(
        "pinned-plan WCET budget (one audited engine): {:.2} ms",
        single.mean / 1000.0
    );
    println!(
        "build-to-build mean-latency spread: {:.2} ms ({:.1}% of the fastest)",
        (spread.max - spread.min) / 1000.0,
        100.0 * (spread.max - spread.min) / spread.min
    );
    println!();
    println!("mitigation (paper §VI-A): serialize ONE engine and deploy that exact");
    println!("plan to every vehicle — outputs and latencies then match everywhere.");

    for assert in &report.asserts {
        println!("{}", assert.render());
    }
    if !report.passed() {
        return Err("scenario assertions failed".into());
    }
    Ok(())
}
