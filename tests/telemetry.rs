//! Integration tests for the unified telemetry layer: the Prometheus text
//! exposition scraped over TCP from a live [`trtsim::InferenceServer`], the
//! registry's concurrency guarantees, and the log-bucket histogram's
//! agreement with the exact [`trtsim::metrics::LatencyPercentiles`].
//!
//! Every test reads only registries it owns — a server's, a fleet's, or a
//! fresh one it published into — so no test sees another's series and the
//! results do not depend on test order or thread count.
//!
//! A mini Prometheus-text parser lives at the top of the file; the tests
//! assert over parsed samples, not string fragments, so format regressions
//! (broken escaping, non-cumulative buckets) fail loudly.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;

use proptest::prelude::*;
use trtsim::engine::{publish_build, publish_plan, publish_timing_cache};
use trtsim::ir::graph::{EltwiseOp, Graph, LayerKind, PoolKind};
use trtsim::ir::Tensor;
use trtsim::metrics::{log_buckets, render_prometheus, LatencyPercentiles};
use trtsim::models::ModelId;
use trtsim::util::pool::map_indexed;
use trtsim::{
    Builder, BuilderConfig, DeviceSpec, Engine, ExecutionContext, InferenceServer, Registry,
    ServerConfig, TimingOptions,
};

/// One parsed sample line: metric name, sorted labels, value.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// Minimal parser for the Prometheus text exposition format: skips `#`
/// comment lines, strips OpenMetrics exemplar suffixes
/// (`... N # {trace_id="..."} v`), splits `name{k="v",...} value`, and
/// un-escapes label values (`\\`, `\"`, `\n`).
fn parse_prometheus(text: &str) -> Vec<Sample> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line = match line.split_once(" # ") {
            Some((sample, _exemplar)) => sample.trim_end(),
            None => line,
        };
        let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse::<f64>().expect("numeric sample value"),
        };
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels.to_string(), BTreeMap::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').expect("closing brace");
                (name.to_string(), parse_labels(body))
            }
        };
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    samples
}

/// Parses `k="v",k2="v2"` with escape handling inside quoted values.
fn parse_labels(body: &str) -> BTreeMap<String, String> {
    let mut labels = BTreeMap::new();
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        assert_eq!(chars.next(), Some('"'), "label value must be quoted");
        let mut value = String::new();
        loop {
            match chars.next().expect("unterminated label value") {
                '\\' => match chars.next().expect("dangling escape") {
                    'n' => value.push('\n'),
                    c => value.push(c),
                },
                '"' => break,
                c => value.push(c),
            }
        }
        labels.insert(key, value);
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    labels
}

/// Scrapes `path` from the telemetry endpoint at `addr`, returning the body.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("endpoint accepts");
    // One write_all: `write!` would issue one write per format fragment,
    // racing the server's response-and-close against the request's tail.
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .expect("request writes");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("response reads");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200"), "non-200 scrape: {head}");
    body.to_string()
}

fn value_of<'a>(samples: &'a [Sample], name: &str) -> Option<&'a Sample> {
    samples.iter().find(|s| s.name == name)
}

/// A tiny conv network for exercising the numeric fast path cheaply.
fn tiny_graph() -> Graph {
    let mut g = Graph::new("telemetry_probe", [3, 8, 8]);
    let conv = g.add_layer(
        "c0",
        LayerKind::conv_seeded(4, 3, 3, 1, 1, 7),
        &[Graph::INPUT],
    );
    g.mark_output(conv);
    g
}

/// The acceptance-criteria test: a live `InferenceServer` with telemetry
/// enabled serves a Prometheus scrape covering serving, build-cache,
/// fast-path, and per-stream GPU sampler metrics — plus the JSON variant
/// and a 404 — and counters are monotone across two scrapes.
#[test]
fn live_endpoint_covers_every_subsystem() {
    // Build with an explicit timing cache so the cache-lookup counters move,
    // and run one planned inference so the fast-path families have counts.
    let cache = std::sync::Arc::new(trtsim::TimingCache::new());
    let build_started = std::time::Instant::now();
    let engine = Builder::new(
        DeviceSpec::xavier_nx(),
        BuilderConfig::default()
            .with_build_seed(0x7e1e)
            .with_timing_cache(std::sync::Arc::clone(&cache)),
    )
    .build(&ModelId::TinyYolov3.descriptor())
    .expect("zoo model builds");
    let build_seconds = build_started.elapsed().as_secs_f64();
    let probe_engine = Builder::new(DeviceSpec::xavier_nx(), BuilderConfig::default())
        .build(&tiny_graph())
        .expect("probe builds");
    let ctx = ExecutionContext::new(&probe_engine, DeviceSpec::xavier_nx());
    ctx.infer(&Tensor::zeros([3, 8, 8])).expect("probe runs");

    let timing = TimingOptions::default()
        .without_engine_upload()
        .with_run_jitter_sd(0.0);
    let server = InferenceServer::start(
        &engine,
        &DeviceSpec::xavier_nx(),
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(256)
            .with_max_batch_size(4)
            .with_batch_timeout_us(f64::INFINITY)
            .with_timing(timing)
            .with_telemetry("127.0.0.1:0".parse().expect("addr"))
            .with_telemetry_sample_ms(5),
    )
    .expect("server starts");
    let addr = server.telemetry_addr().expect("endpoint bound");
    // The build, cache and plan layers hand back counts; this test owns
    // them and publishes them next to the server's own series.
    let registry = server.registry();
    publish_build(&registry, engine.name(), engine.report(), build_seconds);
    publish_timing_cache(&registry, &cache.stats());
    publish_plan(&registry, ctx.plan().expect("compiled"), &ctx.plan_stats());

    for frame in 0..64 {
        server.submit(frame).expect("accepting");
    }
    server.run_until(f64::INFINITY);

    // The sampler publishes per-stream gauges once a tick observes simulated
    // progress; poll the live endpoint until every family is present.
    let families = [
        "trtsim_server_accepted_total",
        "trtsim_server_completed_total",
        "trtsim_server_batches_total",
        "trtsim_server_queue_depth",
        "trtsim_server_latency_us_bucket",
        "trtsim_build_total",
        "trtsim_build_seconds_bucket",
        "trtsim_timing_cache_lookups_total",
        "trtsim_plan_compiles_total",
        "trtsim_plan_executions_total",
        "trtsim_gpu_gr3d_percent",
        "trtsim_gpu_stream_busy_percent",
        "trtsim_gpu_memcpy_bytes_per_second",
        "trtsim_trace_recorded_total",
        "trtsim_trace_retained_total",
    ];
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let text = loop {
        let text = scrape(addr, "/metrics");
        if families.iter().all(|f| text.contains(f)) {
            break text;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "families still missing after 30s: {:?}\n{text}",
            families
                .iter()
                .filter(|f| !text.contains(**f))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let first = parse_prometheus(&text);

    // Per-stream means one series per worker stream, labelled by stream id.
    let busy_streams: Vec<&Sample> = first
        .iter()
        .filter(|s| s.name == "trtsim_gpu_stream_busy_percent")
        .collect();
    assert_eq!(busy_streams.len(), 2, "one busy gauge per worker stream");
    for s in &busy_streams {
        assert!(s.labels.contains_key("stream"));
        assert!((0.0..=100.0).contains(&s.value), "busy% in range");
    }
    // The registry is the server's own: exactly one accepted series.
    let accepted: Vec<&Sample> = first
        .iter()
        .filter(|s| s.name == "trtsim_server_accepted_total")
        .collect();
    assert_eq!(accepted.len(), 1, "{accepted:?}");
    assert_eq!(
        accepted[0].labels.get("model").map(String::as_str),
        Some(engine.name())
    );
    assert_eq!(accepted[0].value, 64.0);

    // Histogram invariant on the wire: cumulative buckets are non-decreasing
    // and the +Inf bucket equals _count, for every histogram series.
    let inf_buckets: Vec<&Sample> = first
        .iter()
        .filter(|s| {
            s.name.ends_with("_bucket") && s.labels.get("le").map(String::as_str) == Some("+Inf")
        })
        .collect();
    assert!(!inf_buckets.is_empty());
    for inf in inf_buckets {
        let base = inf.name.strip_suffix("_bucket").expect("bucket suffix");
        let mut rest = inf.labels.clone();
        rest.remove("le");
        let count = first
            .iter()
            .find(|s| s.name == format!("{base}_count") && s.labels == rest)
            .unwrap_or_else(|| panic!("{base}_count missing"));
        assert_eq!(inf.value, count.value, "{base}: +Inf bucket != count");
        let mut buckets: Vec<(f64, f64)> = first
            .iter()
            .filter(|s| s.name == inf.name)
            .filter(|s| {
                let mut l = s.labels.clone();
                l.remove("le");
                l == rest
            })
            .map(|s| {
                let le = s.labels["le"].as_str();
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().expect("finite le")
                };
                (le, s.value)
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in buckets.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "{base}: cumulative dipped");
        }
    }

    // More work, then a second scrape: every counter is monotone.
    for frame in 64..96 {
        server.submit(frame).expect("accepting");
    }
    let stats = server.drain();
    assert_eq!(stats.completed, 96);
    let final_text = render_prometheus(&registry);
    let second = parse_prometheus(&final_text);
    for s1 in first.iter().filter(|s| s.name.ends_with("_total")) {
        let s2 = second
            .iter()
            .find(|s| s.name == s1.name && s.labels == s1.labels)
            .unwrap_or_else(|| panic!("{} vanished on second scrape", s1.name));
        assert!(
            s2.value >= s1.value,
            "{} went backwards: {} -> {}",
            s1.name,
            s1.value,
            s2.value
        );
    }

    // The exact ServerStats percentiles are still the store-every-sample
    // LatencyPercentiles — recomputable from the completion log — while the
    // registry histogram agrees on the request count.
    let latencies: Vec<f64> = stats
        .completions
        .iter()
        .map(|r| r.done_us - r.arrival_us)
        .collect();
    assert_eq!(stats.latency, LatencyPercentiles::from_runs_us(&latencies));
    let hist_count = second
        .iter()
        .find(|s| {
            s.name == "trtsim_server_latency_us_count"
                && s.labels.get("model").map(String::as_str) == Some(engine.name())
        })
        .expect("latency histogram count");
    assert_eq!(hist_count.value, stats.completed as f64);
}

/// `/metrics.json` serves the JSON snapshot and unknown paths 404.
#[test]
fn endpoint_serves_json_and_404s_unknown_paths() {
    let engine = Builder::new(
        DeviceSpec::xavier_nx(),
        BuilderConfig::default().with_build_seed(0x7e1f),
    )
    .build(&tiny_graph())
    .expect("probe builds");
    let server = InferenceServer::start(
        &engine,
        &DeviceSpec::xavier_nx(),
        ServerConfig::default()
            .with_workers(1)
            .with_timing(TimingOptions::default().without_engine_upload())
            .with_telemetry("127.0.0.1:0".parse().expect("addr")),
    )
    .expect("server starts");
    let addr = server.telemetry_addr().expect("endpoint bound");

    let json = scrape(addr, "/metrics.json");
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"trtsim_server_accepted_total\""));

    let mut stream = TcpStream::connect(addr).expect("connects");
    let request = format!("GET /nope HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("writes");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    assert!(response.starts_with("HTTP/1.1 404"), "got: {response}");
    drop(server.drain());
}

/// Retained traces surface on the wire: a latency-histogram bucket carries
/// an OpenMetrics `trace_id` exemplar that resolves to a trace in the
/// server's flight recorder, the exemplar suffix still parses as a plain
/// bucket sample, the `trtsim_trace_*` retention counters publish
/// consistently, and the predictor's MAPE + calibration gauges ride along.
#[test]
fn exemplar_trace_ids_resolve_and_trace_families_publish() {
    let mut g = Graph::new("exemplar_probe", [3, 8, 8]);
    let conv = g.add_layer(
        "c0",
        LayerKind::conv_seeded(4, 3, 3, 1, 1, 3),
        &[Graph::INPUT],
    );
    g.mark_output(conv);
    let engine = Builder::new(
        DeviceSpec::xavier_nx(),
        BuilderConfig::default().with_build_seed(0x7e20),
    )
    .build(&g)
    .expect("probe builds");
    let server = InferenceServer::start(
        &engine,
        &DeviceSpec::xavier_nx(),
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(256)
            .with_max_batch_size(4)
            .with_batch_timeout_us(f64::INFINITY)
            .with_timing(
                TimingOptions::default()
                    .without_engine_upload()
                    .with_run_jitter_sd(0.0),
            )
            .with_predictive(true)
            .with_predictor_min_obs(8)
            .with_trace(trtsim::TraceOptions::default().with_sample_every(1)),
    )
    .expect("server starts");
    let recorder = server.flight_recorder();
    let registry = server.registry();
    for frame in 0..96 {
        server.submit(frame).expect("accepting");
    }
    let stats = server.drain();
    assert_eq!(stats.completed, 96);

    // Exemplar syntax on a latency bucket of this model's series, and the
    // id resolves to a trace the flight recorder actually holds.
    let text = render_prometheus(&registry);
    let exemplar_line = text
        .lines()
        .find(|l| {
            l.starts_with("trtsim_server_latency_us_bucket")
                && l.contains("model=\"exemplar_probe\"")
                && l.contains("# {trace_id=\"")
        })
        .expect("no trace_id exemplar on any exemplar_probe latency bucket");
    let id = exemplar_line
        .split("trace_id=\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("exemplar carries a quoted trace_id");
    let trace_id: trtsim::TraceId = id.parse().expect("exemplar id is hex");
    assert!(
        recorder.get(trace_id).is_some(),
        "exemplar {id} not in the flight recorder"
    );

    // The parser sees through the exemplar suffix: the same line is still a
    // plain cumulative bucket sample.
    let samples = parse_prometheus(&text);
    assert!(
        samples.iter().any(|s| {
            s.name == "trtsim_server_latency_us_bucket"
                && s.labels.get("model").map(String::as_str) == Some("exemplar_probe")
        }),
        "exemplar-decorated buckets failed to parse"
    );

    // Retention counters: recorded bounds retained bounds sampled, and the
    // published series are the recorder's own counts, not a copy.
    let recorded = value_of(&samples, "trtsim_trace_recorded_total").expect("recorded family");
    let retained = value_of(&samples, "trtsim_trace_retained_total").expect("retained family");
    let sampled = value_of(&samples, "trtsim_trace_sampled_total").expect("sampled family");
    let evicted = value_of(&samples, "trtsim_trace_evicted_total").expect("evicted family");
    assert!(
        recorded.value >= retained.value,
        "retained exceeds recorded"
    );
    assert!(retained.value >= sampled.value, "sampled exceeds retained");
    assert_eq!(recorded.value, 96.0, "this server recorded its 96 traces");
    assert_eq!(
        [recorded.value, retained.value, sampled.value, evicted.value],
        [
            recorder.recorded(),
            recorder.retained(),
            recorder.sampled(),
            recorder.evicted()
        ]
        .map(|v| v as f64)
    );

    // Predictor gauges from the same snapshot: prequential MAPE plus the
    // residual-calibration multipliers.
    let mape = value_of(&samples, "trtsim_predictor_mape_percent").expect("mape gauge");
    assert!(mape.value >= 0.0, "MAPE must be non-negative");
    for name in [
        "trtsim_predictor_calibration_p50",
        "trtsim_predictor_calibration_p99",
    ] {
        let cal = value_of(&samples, name).unwrap_or_else(|| panic!("{name} missing"));
        assert!(
            cal.value > 0.0,
            "{name} must be a positive multiplier, got {}",
            cal.value
        );
    }
}

/// Label values survive the render → parse round trip through the
/// exposition format's escaping rules.
#[test]
fn label_escaping_round_trips() {
    let registry = Registry::new();
    let gnarly = "pa\\th \"quoted\"\nsecond line";
    registry
        .counter("escape_probe_total", "escaping probe", &[("k", gnarly)])
        .add(5);
    let samples = parse_prometheus(&render_prometheus(&registry));
    let sample = value_of(&samples, "escape_probe_total").expect("probe present");
    assert_eq!(sample.labels.get("k").map(String::as_str), Some(gnarly));
    assert_eq!(sample.value, 5.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N threads hammering one counter handle lose no increments.
    #[test]
    fn concurrent_counter_increments_are_lossless(
        threads in 2usize..9,
        per_thread in 1u64..400,
    ) {
        let registry = Registry::new();
        let counter = registry.counter("race_probe_total", "race probe", &[]);
        map_indexed(threads, threads, |_| {
            let counter = counter.clone();
            for _ in 0..per_thread {
                counter.inc();
            }
        });
        prop_assert_eq!(counter.get(), threads as u64 * per_thread);
    }

    /// The bounded log-bucket histogram's p50/p99 land within one bucket
    /// width (one growth factor) of the exact store-every-sample
    /// `LatencyPercentiles` — the accuracy contract that justified replacing
    /// unbounded sample vectors in long-running servers.
    ///
    /// 101 samples make the exact p50/p99 single order statistics (no
    /// interpolation), so "same bucket" is a hard guarantee, not a heuristic.
    #[test]
    fn histogram_quantiles_track_exact_within_one_bucket(seed in 0u64..10_000) {
        const GROWTH: f64 = 2.0;
        let mut rng = trtsim::util::rng::Pcg32::seed_from_u64(seed);
        // Log-uniform over [1, 1e6): exercises many buckets per case.
        let samples: Vec<f64> = (0..101)
            .map(|_| 10f64.powf(6.0 * rng.next_f64()))
            .collect();
        let registry = Registry::new();
        let hist = registry.histogram(
            "quantile_probe_us",
            "quantile probe",
            &[],
            &log_buckets(1.0, GROWTH, 26),
        );
        for &s in &samples {
            hist.observe(s);
        }
        let exact = LatencyPercentiles::from_runs_us(&samples);
        for (q, exact_q) in [(0.50, exact.p50_us), (0.99, exact.p99_us)] {
            let approx = hist.quantile(q);
            prop_assert!(
                approx >= exact_q && approx <= exact_q * GROWTH,
                "q{q}: approx {approx} vs exact {exact_q} (growth {GROWTH})"
            );
        }
    }
}

/// Output values the lane kernels produce per execution: every conv step
/// whose tactic lowers onto a lane kernel (FP32 or FP16, on an ungrouped or
/// depthwise conv) writes its whole output on the vector path.
fn lane_values_per_execution(engine: &Engine) -> u64 {
    use trtsim::gpu::kernel::Precision;
    engine
        .graph()
        .nodes()
        .iter()
        .filter_map(|node| {
            let LayerKind::Conv(conv) = &node.kind else {
                return None;
            };
            let tactic = &engine.units()[node.id].choice.as_ref()?.tactic;
            let lanes = tactic.precision != Precision::Int8;
            let depthwise = conv.groups == conv.in_channels && conv.groups == conv.out_channels;
            let [c, h, w] = engine.shapes()[node.id];
            (lanes && (conv.groups == 1 || depthwise)).then_some((c * h * w) as u64)
        })
        .sum()
}

/// The SIMD lane-kernel families are counted per call and published by the
/// contexts' owner: after planned inferences on a lane-friendly conv chain
/// and a mixed-layout graph, `trtsim_kernel_vector_lanes_total`,
/// `trtsim_kernel_layout_converts_total`, and
/// `trtsim_kernel_scalar_fallback_total` in a fresh registry equal exactly
/// the work the plans scheduled. The plan-compile arena gauges ride along.
#[test]
fn lane_kernel_families_reach_the_registry() {
    // A pure conv chain: interior convs run in a preferred layout, so the
    // vector-lane counter must move (same graph + build seed as the core
    // unit test that pins the non-CHW assignment).
    let mut chain = Graph::new("chain", [3, 16, 16]);
    let mut prev = Graph::INPUT;
    for d in 0..6 {
        let ic = if d == 0 { 3 } else { 8 };
        prev = chain.add_layer(
            format!("c{d}"),
            LayerKind::conv_seeded(8, ic, 3, 1, 1, d as u64),
            &[prev],
        );
    }
    chain.mark_output(prev);
    let chain_engine = Builder::new(
        DeviceSpec::xavier_nx(),
        BuilderConfig::default().with_build_seed(4),
    )
    .build(&chain)
    .expect("chain builds");

    // One eltwise arm from a pool (CHW-only), the other from a conv that
    // may run blocked: the assignment schedules real reformat steps.
    let mut mixed = Graph::new("mixed", [3, 16, 16]);
    let c1 = mixed.add_layer(
        "c1",
        LayerKind::conv_seeded(8, 3, 3, 1, 1, 0),
        &[Graph::INPUT],
    );
    let p = mixed.add_layer(
        "p",
        LayerKind::Pool {
            kind: PoolKind::Max,
            kernel: 3,
            stride: 1,
            pad: 1,
        },
        &[c1],
    );
    let a = mixed.add_layer("a", LayerKind::conv_seeded(8, 8, 3, 1, 1, 1), &[p]);
    let e = mixed.add_layer("e", LayerKind::Eltwise { op: EltwiseOp::Sum }, &[p, a]);
    let c2 = mixed.add_layer("c2", LayerKind::conv_seeded(8, 8, 3, 1, 1, 2), &[e]);
    mixed.mark_output(c2);
    let mixed_engine = Builder::new(
        DeviceSpec::xavier_nx(),
        BuilderConfig::default().with_build_seed(17),
    )
    .build(&mixed)
    .expect("mixed builds");

    let chain_ctx = ExecutionContext::new(&chain_engine, DeviceSpec::xavier_nx());
    let chain_input = Tensor::from_fn([3, 16, 16], |c, y, x| (c + y + x) as f32 * 0.05 - 0.4);
    chain_ctx.infer(&chain_input).expect("chain runs");
    let mixed_ctx = ExecutionContext::new(&mixed_engine, DeviceSpec::xavier_nx());
    let mixed_input = Tensor::from_fn([3, 16, 16], |c, y, x| (c * 2 + y + x) as f32 * 0.03 - 0.3);
    for _ in 0..2 {
        mixed_ctx.infer(&mixed_input).expect("mixed runs");
    }
    let registry = Registry::new();
    let mut executions = 0;
    let mut want_converts = 0;
    let mut want_lanes = 0;
    for ctx in [&chain_ctx, &mixed_ctx] {
        let plan = ctx.plan().expect("compiled");
        let stats = ctx.plan_stats();
        executions += stats.executions;
        want_converts += plan.layout_converts_per_execution() * stats.executions;
        want_lanes += lane_values_per_execution(ctx.engine()) * stats.executions;
        publish_plan(&registry, plan, &stats);
    }
    assert_eq!(executions, 3);
    assert!(want_converts > 0, "the mixed graph schedules reformats");
    assert!(want_lanes > 0, "the chain's convs run on lanes");

    let samples = parse_prometheus(&render_prometheus(&registry));
    let lanes = value_of(&samples, "trtsim_kernel_vector_lanes_total").expect("lanes family");
    let converts =
        value_of(&samples, "trtsim_kernel_layout_converts_total").expect("converts family");
    let fallback =
        value_of(&samples, "trtsim_kernel_scalar_fallback_total").expect("fallback family");
    assert_eq!(converts.value, want_converts as f64);
    assert_eq!(lanes.value, want_lanes as f64);
    // Finite inputs on lane tactics never take a scalar walk.
    assert_eq!(fallback.value, 0.0);

    // Plan-compile gauges from the same publish: the layout-aware arena
    // provisions its size-classed slots near the liveness peak.
    let utilization =
        value_of(&samples, "trtsim_plan_arena_utilization").expect("utilization gauge");
    assert!(
        utilization.value > 0.0 && utilization.value <= 1.0,
        "utilization out of range: {}",
        utilization.value
    );
    let capacity =
        value_of(&samples, "trtsim_plan_arena_slot_capacity_bytes").expect("capacity gauge");
    assert!(capacity.value > 0.0);
}

/// Regression for the fleet telemetry fix: two devices serving the *same*
/// model must publish distinct per-device series. Before `device=` labels,
/// both replicas silently merged into one `{model=...}` series, and a
/// scrape could not tell the boards apart.
#[test]
fn two_devices_serving_one_model_produce_distinct_series() {
    let mut g = Graph::new("dual_device_probe", [3, 8, 8]);
    let conv = g.add_layer(
        "c0",
        LayerKind::conv_seeded(4, 3, 3, 1, 1, 9),
        &[Graph::INPUT],
    );
    g.mark_output(conv);
    let engine = Builder::new(DeviceSpec::xavier_nx(), BuilderConfig::default())
        .build(&g)
        .expect("probe builds");
    let config = ServerConfig::default().with_workers(1).with_timing(
        TimingOptions::default()
            .without_engine_upload()
            .with_run_jitter_sd(0.0),
    );

    // The single-device default first: no `device` label, so pre-fleet
    // dashboards keep their series names.
    let solo = InferenceServer::start(&engine, &DeviceSpec::xavier_nx(), config)
        .expect("solo server starts");
    let solo_registry = solo.registry();
    solo.submit(0).expect("accepting");
    solo.drain();

    let fleet = trtsim::FleetBuilder::new()
        .device("edge-nx", DeviceSpec::xavier_nx())
        .device("edge-agx", DeviceSpec::xavier_agx())
        .replica("edge-nx", &engine, config)
        .expect("known device")
        .replica("edge-agx", &engine, config)
        .expect("known device")
        .start(trtsim::FleetConfig::default())
        .expect("fleet starts");
    let fleet_registry = fleet.registry();
    for frame in 0..8 {
        fleet
            .submit("dual_device_probe", frame, frame as f64 * 100.0)
            .expect("accepting");
    }
    let stats = fleet.drain();
    assert_eq!(stats.completed, 8);

    let completed_series = |registry: &Registry| -> Vec<Sample> {
        parse_prometheus(&render_prometheus(registry))
            .into_iter()
            .filter(|s| {
                s.name == "trtsim_server_completed_total"
                    && s.labels.get("model").map(String::as_str) == Some("dual_device_probe")
            })
            .collect()
    };
    // The solo server's own registry: one unlabelled default series.
    let solo_completed = completed_series(&solo_registry);
    assert_eq!(solo_completed.len(), 1, "{solo_completed:?}");
    assert!(
        !solo_completed[0].labels.contains_key("device"),
        "legacy series renamed"
    );
    assert_eq!(solo_completed[0].value, 1.0);

    // The fleet's registry: one series per device, not one merged line.
    let samples = parse_prometheus(&render_prometheus(&fleet_registry));
    let completed = completed_series(&fleet_registry);
    assert_eq!(completed.len(), 2, "{completed:?}");
    assert!(completed.iter().all(|s| s.labels.contains_key("device")));
    for device in ["edge-nx", "edge-agx"] {
        let series = completed
            .iter()
            .find(|s| s.labels.get("device").map(String::as_str) == Some(device))
            .unwrap_or_else(|| panic!("no per-device series for {device}"));
        let routed = samples
            .iter()
            .find(|s| {
                s.name == "trtsim_fleet_routed_total"
                    && s.labels.get("device").map(String::as_str) == Some(device)
            })
            .unwrap_or_else(|| panic!("no router series for {device}"));
        assert_eq!(routed.value, series.value, "router vs server on {device}");
    }
    let fleet_completed: f64 = completed.iter().map(|s| s.value).sum();
    assert_eq!(fleet_completed, stats.completed as f64);
}

/// Two servers of the same engine in one process count separately: each
/// owns its registry, so 3 and 5 submits read back as exactly 3 and 5
/// accepted frames, not 8 on one shared series.
#[test]
fn two_servers_of_one_engine_count_separately() {
    let engine = Builder::new(
        DeviceSpec::xavier_nx(),
        BuilderConfig::default().with_build_seed(0x7e21),
    )
    .build(&tiny_graph())
    .expect("probe builds");
    let config = ServerConfig::default()
        .with_workers(1)
        .with_timing(TimingOptions::default().without_engine_upload());
    let start = || {
        InferenceServer::start(&engine, &DeviceSpec::xavier_nx(), config).expect("server starts")
    };
    let (a, b) = (start(), start());
    for frame in 0..3 {
        a.submit(frame).expect("accepting");
    }
    for frame in 0..5 {
        b.submit(frame).expect("accepting");
    }
    let accepted = |registry: &Registry| {
        registry
            .counter(
                "trtsim_server_accepted_total",
                "",
                &[("model", "telemetry_probe")],
            )
            .get()
    };
    let (reg_a, reg_b) = (a.registry(), b.registry());
    a.drain();
    b.drain();
    assert_eq!((accepted(&reg_a), accepted(&reg_b)), (3, 5));
}
