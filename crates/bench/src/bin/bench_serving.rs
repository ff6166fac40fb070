//! Predictive-scheduling benchmark: the same heterogeneous 4-board fleet
//! and the same diurnal + burst open-loop traces, served twice — once with
//! the static `(queue_depth + 1) × service_us` heuristic and plain
//! deadline accounting, once with the learned latency model driving
//! deadline-based admission, SLO-aware batching, and predicted-finish-time
//! routing. Results land in `BENCH_serving.json` in the shared
//! [`trtsim_metrics::report`] schema (plus a telemetry snapshot next to it).
//!
//! ```text
//! cargo run --release -p trtsim-bench --bin bench_serving            # full
//! cargo run --release -p trtsim-bench --bin bench_serving -- --smoke # CI
//! ```
//!
//! Flags: `--smoke` shrinks the traces (CI), `--out PATH` moves the
//! report, `--git-rev SHA` stamps it. The process exits non-zero unless,
//! on every trace, the predictive arm achieves strictly higher
//! goodput-under-SLO and a strictly lower deadline-miss rate than the
//! heuristic arm. The summary also reports the predictor's prequential
//! MAPE against observed latencies and, for the paper's Table XIII
//! argument, the analytic BSP model's error spread across four build
//! seeds of the same network (λs calibrated once, on build 0).

use trtsim_core::engine::Engine;
use trtsim_core::fleet::{Fleet, FleetBuilder, FleetConfig};
use trtsim_core::reqtrace::TraceOutcome;
use trtsim_core::runtime::TimingOptions;
use trtsim_core::serving::{ServerConfig, ServingError};
use trtsim_data::traffic::ArrivalTrace;
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_metrics::report::{git_rev, BenchReport, PhaseReport};
use trtsim_metrics::Registry;
use trtsim_models::ModelId;
use trtsim_perfmodel::learned::bsp_cross_build_error_percent;
use trtsim_repro::support::EngineFarm;
use trtsim_util::pool::auto_threads;

fn devices() -> Vec<(&'static str, DeviceSpec, usize)> {
    vec![
        ("nx_pinned", DeviceSpec::pinned_clock(Platform::Nx), 1),
        ("nx_max", DeviceSpec::max_clock(Platform::Nx), 4),
        ("agx_pinned", DeviceSpec::pinned_clock(Platform::Agx), 4),
        ("agx_max", DeviceSpec::max_clock(Platform::Agx), 4),
    ]
}

fn server_config(model: ModelId, workers: usize, queue: usize, deadline_us: f64) -> ServerConfig {
    ServerConfig::default()
        .with_workers(workers)
        .with_queue_capacity(queue)
        .with_max_batch_size(4)
        // Classic batching window: a partial batch is held up to this long
        // waiting for stragglers. The heuristic arm always pays it; the
        // predictive arm's SLO-aware cap closes the batch early whenever the
        // predicted p99 says the wait would blow the deadline.
        .with_batch_timeout_us(8_000.0)
        .with_deadline_us(deadline_us)
        .with_timing(
            TimingOptions::default()
                .without_engine_upload()
                .with_host_glue_us(model.info().host_glue_us)
                .with_run_jitter_sd(0.0),
        )
}

fn build_fleet(
    engine: &Engine,
    model: ModelId,
    queue: usize,
    deadline_us: f64,
    predictive: bool,
    fleet_config: FleetConfig,
) -> Fleet {
    let mut builder = FleetBuilder::new();
    for (device, spec, _) in devices() {
        builder = builder.device(device, spec);
    }
    for (device, _, workers) in devices() {
        let config = server_config(model, workers, queue, deadline_us).with_predictive(predictive);
        builder = builder
            .replica(device, engine, config)
            .expect("known device");
    }
    builder
        .start(fleet_config.with_predictive(predictive))
        .expect("fleet starts")
}

struct ArmResult {
    /// Completions inside the measured window that met the deadline, per
    /// second of trace horizon — the goodput-under-SLO headline.
    goodput_fps: f64,
    /// Late completions / completed, inside the measured window.
    miss_rate: f64,
    completed: u64,
    missed: u64,
    deadline_rejected: u64,
    queue_rejected: u64,
    mape_percent: Option<f64>,
    wall_ms: f64,
}

/// Replays `arrivals` for the engine's model, frame ids from
/// `first_frame`; returns `(deadline_rejected, queue_rejected)`.
fn replay(fleet: &Fleet, engine: &Engine, arrivals: &[f64], first_frame: u64) -> (u64, u64) {
    let mut queue_rejected = 0u64;
    let mut deadline_rejected = 0u64;
    for (i, &t) in arrivals.iter().enumerate() {
        match fleet.submit(engine.name(), first_frame + i as u64, t) {
            Ok(()) => {}
            Err(ServingError::DeadlineUnmeetable) => deadline_rejected += 1,
            Err(_) => queue_rejected += 1,
        }
    }
    (deadline_rejected, queue_rejected)
}

/// Runs one scheduling arm: warm-up replay (light steady load, which also
/// trains the predictive arm's shared model past its cold gate), then the
/// measured trace shifted past the warm-up so its latencies are clean.
fn run_arm(
    engine: &Engine,
    model: ModelId,
    trace: &ArrivalTrace,
    warmup: &ArrivalTrace,
    deadline_us: f64,
    predictive: bool,
    registry: &Registry,
) -> ArmResult {
    let started = std::time::Instant::now();
    let queue = warmup.len() + trace.len();
    let fleet = build_fleet(
        engine,
        model,
        queue,
        deadline_us,
        predictive,
        FleetConfig::default(),
    );
    let latency_model = fleet.latency_model();
    replay(&fleet, engine, &warmup.arrivals_us, 0);
    // Shift the measured trace past everything the warm-up can still have
    // in flight, so measured latencies start clean; the warm-up's
    // completions have trained the shared model by the first shifted
    // arrival.
    let offset_us = warmup.duration_us() + 500_000.0;
    let shifted: Vec<f64> = trace.arrivals_us.iter().map(|t| t + offset_us).collect();
    let (deadline_rejected, queue_rejected) = replay(&fleet, engine, &shifted, warmup.len() as u64);
    let fleet_registry = fleet.registry();
    let stats = fleet.drain();
    registry.absorb(&fleet_registry);
    // Window accounting from per-request records: measured frames are
    // exactly those arriving at or after the shift.
    let mut completed = 0u64;
    let mut missed = 0u64;
    for replica in &stats.replicas {
        for c in &replica.stats.completions {
            if c.arrival_us < offset_us - 1.0 {
                continue;
            }
            completed += 1;
            if (c.done_us - c.arrival_us).max(0.0) > deadline_us {
                missed += 1;
            }
        }
    }
    let horizon_s = trace.duration_us() / 1e6;
    ArmResult {
        goodput_fps: (completed - missed) as f64 / horizon_s.max(1e-12),
        miss_rate: missed as f64 / (completed.max(1)) as f64,
        completed,
        missed,
        deadline_rejected,
        queue_rejected,
        mape_percent: latency_model.as_ref().and_then(|m| m.mape_percent()),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// One plain HTTP/1.1 GET against the probe fleet's own telemetry
/// endpoint, headers included (status-line assertions want them).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect telemetry endpoint");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    body
}

/// The observability acceptance gate: replays the burst trace once against
/// a heuristic fleet (the arm guaranteed to blow deadlines at the peaks)
/// with a live telemetry endpoint, then asserts the flight recorder's
/// contract end to end — a deadline-missed trace is retained, its phase
/// spans sum to the end-to-end latency, the `/traces` routes serve it over
/// HTTP, and its id rides the latency histogram as an OpenMetrics exemplar.
fn trace_probe(
    engine: &Engine,
    model: ModelId,
    trace: &ArrivalTrace,
    warmup: &ArrivalTrace,
    deadline_us: f64,
    registry: &Registry,
) -> PhaseReport {
    let started = std::time::Instant::now();
    let queue = warmup.len() + trace.len();
    let fleet_config = FleetConfig {
        telemetry_addr: Some("127.0.0.1:0".parse().expect("loopback addr")),
        ..FleetConfig::default()
    };
    let fleet = build_fleet(engine, model, queue, deadline_us, false, fleet_config);
    replay(&fleet, engine, &warmup.arrivals_us, 0);
    let offset_us = warmup.duration_us() + 500_000.0;
    let shifted: Vec<f64> = trace.arrivals_us.iter().map(|t| t + offset_us).collect();
    replay(&fleet, engine, &shifted, warmup.len() as u64);
    // Serve everything admitted while the endpoint is still up.
    fleet.run_until(f64::INFINITY);

    let recorder = fleet.flight_recorder();
    assert!(
        recorder.deadline_missed_seen() >= 1,
        "burst replay produced no deadline-missed request — retention untestable"
    );
    let retained = recorder.traces();
    let missed = retained
        .iter()
        .find(|t| {
            t.outcome
                == TraceOutcome::Completed {
                    deadline_missed: true,
                }
        })
        .expect("tail retention must keep at least one deadline-missed trace");
    let latency = missed.latency_us();
    assert!(
        (missed.phase_sum_us() - latency).abs() <= 1e-6 * latency.max(1.0),
        "phase spans sum to {} us but end-to-end latency is {} us",
        missed.phase_sum_us(),
        latency
    );

    let addr = fleet.telemetry_addr().expect("telemetry endpoint bound");
    let id = missed.id.to_string();
    let index = http_get(addr, "/traces");
    assert!(index.starts_with("HTTP/1.1 200"), "GET /traces failed");
    assert!(
        index.contains(&id),
        "retained trace {id} missing from the /traces index"
    );
    let detail = http_get(addr, &format!("/traces/{id}"));
    assert!(
        detail.starts_with("HTTP/1.1 200") && detail.contains("\"phases\""),
        "GET /traces/{id} did not serve the span tree"
    );
    let chrome = http_get(addr, &format!("/traces/{id}/chrome"));
    assert!(
        chrome.starts_with("HTTP/1.1 200") && chrome.contains("\"traceEvents\""),
        "GET /traces/{id}/chrome did not serve a chrome-trace document"
    );
    let metrics = http_get(addr, "/metrics");
    assert!(
        metrics.lines().any(|line| {
            line.starts_with("trtsim_server_latency_us_bucket") && line.contains("# {trace_id=\"")
        }),
        "no trace-id exemplar on any trtsim_server_latency_us bucket"
    );

    let phase = PhaseReport::new("trace_probe", started.elapsed().as_secs_f64() * 1e3)
        .with_counter("traces_recorded", recorder.recorded())
        .with_counter("traces_retained", recorder.retained())
        .with_counter("traces_sampled", recorder.sampled())
        .with_counter("traces_evicted", recorder.evicted())
        .with_counter("deadline_missed_traces", recorder.deadline_missed_seen());
    let fleet_registry = fleet.registry();
    fleet.drain();
    registry.absorb(&fleet_registry);
    phase
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_serving.json".to_string());

    let model = ModelId::Googlenet;
    let frames = if smoke { 1536 } else { 4096 };
    // Long enough past the model's 64-observation cold gate that most of
    // the warm-up trains *on-policy* — under the SLO batch cap and admission
    // the measured window will actually run with — rather than on the cold
    // full-window batching whose extra wait would inflate the base weights.
    let warmup_frames = 512;
    // ~25 ms per-request SLO: a few batch-1 service times of headroom on
    // the slowest board, brutal against the queueing delay both traces
    // build up at their peaks.
    let deadline_us = 25_000.0;
    let farm = EngineFarm::new();
    let engine = farm.zoo(model, Platform::Nx, 0);
    // Bursty warm-up: training data must span the queueing regimes the
    // measured traces hit, or the model's queue-depth terms never learn and
    // admission control flies blind.
    let warmup = ArrivalTrace::burst(1_500.0, 100.0, 30_000.0, 0.3, warmup_frames, 7);
    // Both traces average ~0.7x the fleet's batch-4 drain capacity
    // (~3.9k fps) with peaks well above it: transient overload with
    // recovery, the regime scheduling actually decides. Sustained overload
    // would drown every policy alike; sustained underload gives nothing to
    // decide.
    let traces = [
        (
            "diurnal",
            ArrivalTrace::diurnal(10_000.0, 150.0, 50_000.0, frames, 11),
        ),
        (
            "burst",
            ArrivalTrace::burst(2_500.0, 60.0, 25_000.0, 0.15, frames, 13),
        ),
    ];

    let mut phases = Vec::new();
    let mut summary = Vec::new();
    let mut all_pass = true;
    let registry = Registry::new();
    for (name, trace) in &traces {
        let arm = |predictive| {
            run_arm(
                &engine,
                model,
                trace,
                &warmup,
                deadline_us,
                predictive,
                &registry,
            )
        };
        let (heuristic, predictive) = (arm(false), arm(true));
        for (arm, r) in [("heuristic", &heuristic), ("predictive", &predictive)] {
            phases.push(
                PhaseReport::new(format!("{name}_{arm}"), r.wall_ms)
                    .with_throughput(r.goodput_fps)
                    .with_counter("completed", r.completed)
                    .with_counter("deadline_missed", r.missed)
                    .with_counter("deadline_rejected", r.deadline_rejected)
                    .with_counter("queue_rejected", r.queue_rejected),
            );
            summary.push((format!("{name}_{arm}_goodput_under_slo_fps"), r.goodput_fps));
            summary.push((format!("{name}_{arm}_deadline_miss_rate"), r.miss_rate));
        }
        summary.push((
            format!("{name}_goodput_gain"),
            predictive.goodput_fps / heuristic.goodput_fps.max(1e-12),
        ));
        if let Some(mape) = predictive.mape_percent {
            summary.push((format!("{name}_predictor_mape_percent"), mape));
        }
        println!(
            "{name:<8} goodput-under-SLO {:>8.1} fps predictive vs {:>8.1} fps heuristic, \
             miss rate {:.3} vs {:.3}",
            predictive.goodput_fps,
            heuristic.goodput_fps,
            predictive.miss_rate,
            heuristic.miss_rate
        );
        if predictive.goodput_fps <= heuristic.goodput_fps {
            eprintln!("FAIL: {name}: predictive goodput-under-SLO does not beat the heuristic");
            all_pass = false;
        }
        if predictive.miss_rate >= heuristic.miss_rate {
            eprintln!("FAIL: {name}: predictive deadline-miss rate is not lower");
            all_pass = false;
        }
    }

    // Observability gate: replay the burst trace once more with the flight
    // recorder's HTTP routes live and assert the tracing contract (tail
    // retention, phase accounting, /traces routes, histogram exemplars).
    let (_, burst) = &traces[1];
    let probe = trace_probe(&engine, model, burst, &warmup, deadline_us, &registry);
    for (k, v) in &probe.counters {
        summary.push((format!("trace_probe_{k}"), *v as f64));
    }
    phases.push(probe);
    println!("trace    probe passed: retention, phase sums, /traces, exemplars");

    // Table XIII context: the analytic BSP model calibrated against build 0,
    // asked to predict builds 0..4 of the same network — its error swings
    // with the build's kernel mapping, where the learned model's prequential
    // MAPE above tracks whatever build is actually serving.
    let device = DeviceSpec::xavier_nx();
    let builds: Vec<Engine> = (0..4)
        .map(|seed| (*farm.zoo(model, Platform::Nx, seed)).clone())
        .collect();
    let bsp_errors = bsp_cross_build_error_percent(&builds, &device, 17);
    for (k, err) in bsp_errors.iter().enumerate() {
        summary.push((format!("bsp_error_percent_build{k}"), *err));
    }
    let bsp_spread = bsp_errors.iter().fold(0.0f64, |a, &b| a.max(b))
        - bsp_errors.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    summary.push(("bsp_cross_build_error_spread_percent".into(), bsp_spread));

    let report = BenchReport {
        benchmark: "bench_serving".into(),
        mode: if smoke { "smoke" } else { "full" }.into(),
        git_rev: git_rev(&args),
        threads: auto_threads(),
        throughput_unit: "frames_per_sec".into(),
        context: vec![
            ("model".into(), model.to_string()),
            ("frames".into(), frames.to_string()),
            ("deadline_us".into(), format!("{deadline_us}")),
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
    assert!(
        all_pass,
        "predictive-scheduling benchmark invariants failed"
    );
}
