//! End-to-end observability: chrome-trace export and anomaly detection over
//! a multi-stream serving run (paper §V).
//!
//! The paper reads its anomaly anatomy — the H2D engine-upload spike, the
//! stretched kernel invocation — out of the *visual* trace, not the summary
//! tables. This example closes that loop for the simulator:
//!
//! 1. run a 4-worker [`trtsim::InferenceServer`] with
//!    [`trtsim::ProfileOptions`] fully enabled, so the run's timeline is
//!    captured and every request carries a span-id range;
//! 2. write the timeline as chrome://tracing JSON (`trace_export.json` —
//!    load it via chrome://tracing or <https://ui.perfetto.dev>), one lane
//!    per worker stream;
//! 3. print the per-kernel time breakdown from [`trtsim::ServerStats`];
//! 4. use the slowest request's span range to name the records that served
//!    it;
//! 5. run the anomaly detectors over the same timeline.
//!
//! ```sh
//! cargo run --release --example trace_export
//! ```

use trtsim::models::ModelId;
use trtsim::profiler::{detect, format_report, write_chrome_trace, DetectorConfig};
use trtsim::{
    Builder, BuilderConfig, DeviceSpec, InferenceServer, ProfileOptions, ServerConfig,
    TimingOptions,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceSpec::xavier_nx();
    let engine = Builder::new(device.clone(), BuilderConfig::default().with_build_seed(7))
        .build(&ModelId::TinyYolov3.descriptor())?;
    let timing = TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(ModelId::TinyYolov3.info().host_glue_us)
        .with_run_jitter_sd(0.0);

    // --- 1. A profiled 4-stream serving run -------------------------------
    let server = InferenceServer::start(
        &engine,
        &device,
        ServerConfig::default()
            .with_workers(4)
            .with_queue_capacity(64)
            .with_max_batch_size(4)
            .with_batch_timeout_us(f64::INFINITY)
            .with_timing(timing)
            .with_profile(ProfileOptions::full()),
    )?;
    for frame in 0..128 {
        server.submit(frame)?;
    }
    let stats = server.drain();
    let timeline = stats.timeline.as_ref().expect("profile captures timeline");

    // --- 2. chrome://tracing export ---------------------------------------
    let path = "trace_export.json";
    write_chrome_trace(path, timeline, "tiny-yolov3 4-stream serving")?;
    println!(
        "{} frames in {} batches across {} workers — trace written to {path}",
        stats.completed, stats.batches, stats.workers
    );

    // --- 3. Per-kernel time breakdown -------------------------------------
    println!("\nkernel breakdown (top 5):");
    for k in stats.kernel_breakdown.iter().take(5) {
        println!("  {:>9.0} us  {:>4} calls  {}", k.total_us, k.calls, k.name);
    }

    // --- 4. Span attribution: what served the slowest request? ------------
    let slowest = stats
        .completions
        .iter()
        .max_by(|a, b| (a.done_us - a.arrival_us).total_cmp(&(b.done_us - b.arrival_us)))
        .expect("completions recorded");
    let served_by: Vec<&str> = timeline
        .kernels()
        .iter()
        .filter(|k| {
            k.stream == slowest.worker && (slowest.span_lo..slowest.span_hi).contains(&k.seq)
        })
        .map(|k| &*k.name)
        .collect();
    println!(
        "\nslowest request: frame {} ({:.2} ms on worker {}, batch {}, spans {}..{})",
        slowest.frame,
        (slowest.done_us - slowest.arrival_us) / 1000.0,
        slowest.worker,
        slowest.batch,
        slowest.span_lo,
        slowest.span_hi
    );
    println!("  served by {} kernel launches", served_by.len());

    // --- 5. Anomaly detection over the same timeline ----------------------
    let report = detect(timeline, &DetectorConfig::default());
    println!("\n{}", format_report(&report));
    Ok(())
}
