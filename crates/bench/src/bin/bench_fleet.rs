//! Fleet-serving benchmark: a heterogeneous 4-board Jetson cluster behind
//! the [`trtsim_core::fleet`] router versus each board alone, under the
//! open-loop Poisson and burst traces from [`trtsim_data::traffic`].
//! Results land in `BENCH_fleet.json` in the shared
//! [`trtsim_metrics::report`] schema (plus a telemetry snapshot next to it).
//!
//! ```text
//! cargo run --release -p trtsim-bench --bin bench_fleet            # full set
//! cargo run --release -p trtsim-bench --bin bench_fleet -- --smoke # CI
//! ```
//!
//! Flags: `--smoke` shrinks the traces (CI), `--out PATH` moves the report,
//! `--git-rev SHA` stamps the report (`TRTSIM_GIT_REV` or the checkout's
//! `HEAD` otherwise). The process exits non-zero unless, on every trace,
//! the fleet's aggregate goodput beats the best single board and the
//! router steers load away from the saturated board (the single-worker
//! pinned NX must serve less than its uniform share).

use trtsim_core::fleet::{FleetBuilder, FleetConfig, FleetStats};
use trtsim_core::runtime::TimingOptions;
use trtsim_core::serving::{InferenceServer, ServerConfig};
use trtsim_data::traffic::ArrivalTrace;
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_metrics::report::{git_rev, BenchReport, PhaseReport};
use trtsim_metrics::Registry;
use trtsim_models::ModelId;
use trtsim_repro::support::EngineFarm;
use trtsim_util::pool::auto_threads;

/// The saturated board: pinned clocks and a single worker.
const WEAK: &str = "nx_pinned";

fn devices() -> Vec<(&'static str, DeviceSpec, usize)> {
    vec![
        (WEAK, DeviceSpec::pinned_clock(Platform::Nx), 1),
        ("nx_max", DeviceSpec::max_clock(Platform::Nx), 4),
        ("agx_pinned", DeviceSpec::pinned_clock(Platform::Agx), 4),
        ("agx_max", DeviceSpec::max_clock(Platform::Agx), 4),
    ]
}

fn config(model: ModelId, workers: usize, queue: usize) -> ServerConfig {
    ServerConfig::default()
        .with_workers(workers)
        .with_queue_capacity(queue)
        .with_timing(
            TimingOptions::default()
                .without_engine_upload()
                .with_host_glue_us(model.info().host_glue_us)
                .with_run_jitter_sd(0.0),
        )
}

struct TraceRun {
    fleet: FleetStats,
    fleet_wall_ms: f64,
    /// `(device, solo goodput fps, wall ms)` per board.
    solo: Vec<(&'static str, f64, f64)>,
}

/// Replays `trace` on each board alone and on the fleet, absorbing every
/// server's and the fleet's final series into `registry`.
fn run_trace(
    farm: &EngineFarm,
    model: ModelId,
    trace: &ArrivalTrace,
    queue: usize,
    registry: &Registry,
) -> TraceRun {
    let engine = farm.zoo(model, Platform::Nx, 0);
    // Each board alone, fed the identical trace.
    let mut solo = Vec::new();
    for (device, spec, workers) in devices() {
        let started = std::time::Instant::now();
        let server = InferenceServer::start(&engine, &spec, config(model, workers, queue))
            .expect("server starts");
        for (i, &t) in trace.arrivals_us.iter().enumerate() {
            let _ = server.try_submit_at(i as u64, t);
        }
        let server_registry = server.registry();
        let stats = server.drain();
        solo.push((
            device,
            stats.aggregate_fps,
            started.elapsed().as_secs_f64() * 1e3,
        ));
        registry.absorb(&server_registry);
    }
    // The whole cluster behind the router, same trace.
    let started = std::time::Instant::now();
    let mut builder = FleetBuilder::new();
    for (device, spec, _) in devices() {
        builder = builder.device(device, spec);
    }
    for (device, _, workers) in devices() {
        builder = builder
            .replica(device, &engine, config(model, workers, queue))
            .expect("known device");
    }
    let fleet = builder.start(FleetConfig::default()).expect("fleet starts");
    fleet.replay(engine.name(), &trace.arrivals_us, 0);
    let fleet_registry = fleet.registry();
    let stats = fleet.drain();
    let fleet_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    registry.absorb(&fleet_registry);
    TraceRun {
        fleet: stats,
        fleet_wall_ms,
        solo,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());

    let model = ModelId::Googlenet;
    let frames = if smoke { 64 } else { 384 };
    let queue = frames; // everything offered fits fleet- and solo-wide
    let farm = EngineFarm::new();
    let traces = [
        ("poisson", ArrivalTrace::poisson(500.0, frames, 11)),
        (
            "burst",
            ArrivalTrace::burst(4_000.0, 50.0, 20_000.0, 0.25, frames, 13),
        ),
    ];

    let mut phases = Vec::new();
    let mut summary = Vec::new();
    let mut all_pass = true;
    let mut fleet_fps_by_trace = Vec::new();
    let registry = Registry::new();
    for (name, trace) in &traces {
        let run = run_trace(&farm, model, trace, queue, &registry);
        let fleet_fps = run.fleet.aggregate_fps;
        let best_solo = run
            .solo
            .iter()
            .map(|&(_, fps, _)| fps)
            .fold(0.0f64, f64::max);
        let weak_share = run.fleet.completed_share(WEAK);
        let speedup = fleet_fps / best_solo;

        for &(device, fps, wall_ms) in &run.solo {
            phases.push(
                PhaseReport::new(format!("{name}_solo_{device}"), wall_ms).with_throughput(fps),
            );
        }
        phases.push(
            PhaseReport::new(format!("{name}_fleet"), run.fleet_wall_ms)
                .with_throughput(fleet_fps)
                .with_counter("completed", run.fleet.completed)
                .with_counter("accepted", run.fleet.accepted)
                .with_counter("rejected", run.fleet.rejected)
                .with_counter("dropped", run.fleet.dropped)
                .with_counter("devices", run.fleet.replicas.len() as u64),
        );
        summary.push((format!("{name}_fleet_goodput_fps"), fleet_fps));
        summary.push((format!("{name}_best_solo_goodput_fps"), best_solo));
        summary.push((format!("{name}_fleet_speedup"), speedup));
        summary.push((format!("{name}_p99_us"), run.fleet.latency.p99_us));
        summary.push((format!("{name}_weak_device_share"), weak_share));
        summary.push((format!("{name}_offered_rate_fps"), trace.offered_rate_fps()));

        println!(
            "{name:<8} fleet {fleet_fps:>8.1} fps vs best solo {best_solo:>8.1} fps \
             ({speedup:.2}x), weak share {weak_share:.3}"
        );
        // The two headline claims, checked on every trace: capacity
        // aggregates across the cluster, and the router starves the
        // saturated board rather than queueing behind it.
        if speedup <= 1.0 {
            eprintln!("FAIL: {name}: fleet goodput does not beat the best single device");
            all_pass = false;
        }
        if weak_share >= 0.25 {
            eprintln!("FAIL: {name}: saturated device still serves {weak_share:.3} of the trace");
            all_pass = false;
        }
        fleet_fps_by_trace.push(fleet_fps);
    }
    // Regression guard for the per-phase measurement bug: each phase must
    // measure its own run. With open-loop arrival gating in the workers,
    // Poisson and burst traces shape the timeline differently, so their
    // fleet throughputs cannot coincide; byte-identical numbers mean one
    // measurement was reused across trace kinds.
    if (fleet_fps_by_trace[0] - fleet_fps_by_trace[1]).abs() < 1e-9 {
        eprintln!(
            "FAIL: poisson and burst phases report identical fleet throughput              ({} fps) — a phase measurement is being reused",
            fleet_fps_by_trace[0]
        );
        all_pass = false;
    }

    let report = BenchReport {
        benchmark: "bench_fleet".into(),
        mode: if smoke { "smoke" } else { "full" }.into(),
        git_rev: git_rev(&args),
        threads: auto_threads(),
        throughput_unit: "frames_per_sec".into(),
        context: vec![
            ("model".into(), model.to_string()),
            ("frames".into(), frames.to_string()),
            (
                "devices".into(),
                devices()
                    .iter()
                    .map(|(d, _, _)| *d)
                    .collect::<Vec<_>>()
                    .join(","),
            ),
        ],
        phases,
        summary,
        bit_identical: all_pass,
    };
    farm.publish(&registry);
    report.write(&out_path, &registry);
    println!("-> {out_path}");
    assert!(all_pass, "fleet benchmark invariants failed");
}
