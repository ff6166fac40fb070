//! Live telemetry: scrape a serving process like Prometheus would.
//!
//! Starts an [`trtsim::InferenceServer`] with the telemetry endpoint
//! enabled, publishes its engine build, timing-cache and plan counts into
//! the server's registry (those layers hand counts back rather than
//! publishing anywhere), pushes a workload through it, then scrapes
//! `GET /metrics` over plain TCP and verifies the exposition is well-formed
//! (every sample line parses, the serving / build / fast-path / GPU-sampler
//! families are all present) before printing a digest. CI runs this as the telemetry smoke
//! test; interactively you can point a real `curl` or Prometheus at the
//! printed address while the run is draining.
//!
//! ```sh
//! cargo run --release --example telemetry_endpoint
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;

use trtsim::engine::{publish_build, publish_plan, publish_timing_cache};
use trtsim::ir::graph::{Graph, LayerKind};
use trtsim::ir::Tensor;
use trtsim::models::ModelId;
use trtsim::{
    Builder, BuilderConfig, DeviceSpec, ExecutionContext, InferenceServer, ServerConfig,
    TimingOptions,
};

fn scrape(addr: std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("no header terminator"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(format!("non-200: {head}")));
    }
    Ok(body.to_string())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = DeviceSpec::xavier_nx();
    // An explicit timing cache routes kernel timings through the cache, so
    // the trtsim_timing_cache_lookups_total counters have data to show.
    let cache = std::sync::Arc::new(trtsim::TimingCache::new());
    let build_started = std::time::Instant::now();
    let engine = Builder::new(
        device.clone(),
        BuilderConfig::default()
            .with_build_seed(33)
            .with_timing_cache(std::sync::Arc::clone(&cache)),
    )
    .build(&ModelId::TinyYolov3.descriptor())?;
    let build_seconds = build_started.elapsed().as_secs_f64();

    // One numeric inference so the fast-path families have data too.
    let mut g = Graph::new("telemetry_demo", [3, 8, 8]);
    let conv = g.add_layer(
        "c0",
        LayerKind::conv_seeded(4, 3, 3, 1, 1, 3),
        &[Graph::INPUT],
    );
    g.mark_output(conv);
    let probe = Builder::new(device.clone(), BuilderConfig::default()).build(&g)?;
    let ctx = ExecutionContext::new(&probe, device.clone());
    ctx.infer(&Tensor::zeros([3, 8, 8]))?;

    let timing = TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(ModelId::TinyYolov3.info().host_glue_us)
        .with_run_jitter_sd(0.0);
    let mut server = InferenceServer::start(
        &engine,
        &device,
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(256)
            .with_max_batch_size(4)
            .with_batch_timeout_us(f64::INFINITY)
            .with_timing(timing)
            .with_telemetry("127.0.0.1:0".parse()?),
    )?;
    let addr = server.telemetry_addr().expect("telemetry enabled");
    println!("telemetry endpoint live at http://{addr}/metrics");
    let registry = server.registry();
    publish_build(&registry, engine.name(), engine.report(), build_seconds);
    publish_timing_cache(&registry, &cache.stats());
    publish_plan(&registry, ctx.plan()?, &ctx.plan_stats());

    for frame in 0..128 {
        server.submit(frame)?;
    }
    // Serve every queued batch on the simulated clock before scraping.
    server.run_until(f64::INFINITY);

    // Poll until the sampler has published its per-stream gauges.
    let families = [
        "trtsim_server_completed_total",
        "trtsim_server_latency_us_bucket",
        "trtsim_build_total",
        "trtsim_timing_cache_lookups_total",
        "trtsim_plan_executions_total",
        "trtsim_gpu_gr3d_percent",
        "trtsim_gpu_stream_busy_percent",
        "trtsim_gpu_memcpy_bytes_per_second",
    ];
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let text = loop {
        let text = scrape(addr, "/metrics")?;
        if families.iter().all(|f| text.contains(f)) {
            break text;
        }
        if std::time::Instant::now() >= deadline {
            let missing: Vec<_> = families.iter().filter(|f| !text.contains(**f)).collect();
            return Err(format!("metric families never appeared: {missing:?}").into());
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };

    // Well-formedness: every non-comment line is `name{labels} value`.
    let mut samples = 0usize;
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample line without value: {line}"))?;
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return Err(format!("non-numeric sample value: {line}").into());
        }
        let name = name_labels.split('{').next().unwrap_or(name_labels);
        if name.is_empty() || !name.starts_with("trtsim_") {
            return Err(format!("unexpected metric name: {line}").into());
        }
        samples += 1;
    }
    let json = scrape(addr, "/metrics.json")?;
    assert!(
        json.trim_start().starts_with('{'),
        "JSON snapshot malformed"
    );

    let stats = server.drain();
    println!(
        "scrape OK: {samples} samples, all {} families present; served {} frames at {:.0} fps",
        families.len(),
        stats.completed,
        stats.aggregate_fps
    );
    Ok(())
}
