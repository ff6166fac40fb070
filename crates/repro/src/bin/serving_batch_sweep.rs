//! Serving extension: dynamic-batching sweep on both platforms.
//!
//! Besides the text tables, writes one telemetry snapshot of the run
//! (every sweep point's serving counters and latency histograms, plus the
//! engine farm's build and timing-cache activity) as JSON: `--telemetry
//! PATH` moves it, default `TELEMETRY_serving.json`.
use trtsim_gpu::device::Platform;
use trtsim_metrics::Registry;
use trtsim_models::ModelId;
use trtsim_repro::exp_serving::{render, run};
use trtsim_repro::support::EngineFarm;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path = args
        .iter()
        .position(|a| a == "--telemetry")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "TELEMETRY_serving.json".to_string());
    let registry = Registry::new();
    for platform in Platform::all() {
        println!("{}", render(&run(ModelId::TinyYolov3, platform, &registry)));
    }
    EngineFarm::global().publish(&registry);
    registry
        .write_json(&telemetry_path)
        .expect("write telemetry snapshot");
    println!("telemetry snapshot -> {telemetry_path}");
}
