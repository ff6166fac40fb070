//! Integration tests of the trace subsystem through the `trtsim` facade:
//! chrome-trace export of a profiled 4-stream serving run, span attribution,
//! and the anomaly detectors recovering the paper's §V findings from the
//! repro experiments' own timelines.

use trtsim::engine::reqtrace::{chrome_trace_all, traces_json};
use trtsim::gpu::device::Platform;
use trtsim::gpu::timeline::CopyKind;
use trtsim::models::ModelId;
use trtsim::profiler::{
    chrome_trace_json, detect, h2d_outliers, kernel_set_diff, kernel_slowdowns, DetectorConfig,
};
use trtsim::repro::exp_memcpy::memcpy_trace_timeline;
use trtsim::repro::exp_variability::variability_trace_timelines;
use trtsim::{
    Builder, BuilderConfig, DeviceSpec, InferenceServer, ProfileOptions, ServerConfig, ServerStats,
    TimingOptions, TraceOptions,
};

/// Minimal recursive-descent JSON validity checker (RFC 8259 grammar, no
/// value model). The workspace vendors no JSON crate, so "the trace viewer
/// can load this" is asserted by parsing the document ourselves.
fn assert_valid_json(doc: &str) {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) -> bool {
            if self.b.get(self.i) == Some(&c) {
                self.i += 1;
                true
            } else {
                false
            }
        }
        fn value(&mut self) {
            self.ws();
            match self.b.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    self.ws();
                    if !self.eat(b'}') {
                        loop {
                            self.ws();
                            self.string();
                            self.ws();
                            assert!(self.eat(b':'), "missing ':' at byte {}", self.i);
                            self.value();
                            self.ws();
                            if self.eat(b',') {
                                continue;
                            }
                            assert!(self.eat(b'}'), "unclosed object at byte {}", self.i);
                            break;
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    self.ws();
                    if !self.eat(b']') {
                        loop {
                            self.value();
                            self.ws();
                            if self.eat(b',') {
                                continue;
                            }
                            assert!(self.eat(b']'), "unclosed array at byte {}", self.i);
                            break;
                        }
                    }
                }
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
                other => panic!("unexpected {:?} at byte {}", other, self.i),
            }
        }
        fn string(&mut self) {
            assert!(self.eat(b'"'), "expected string at byte {}", self.i);
            loop {
                match self.b.get(self.i) {
                    Some(b'"') => {
                        self.i += 1;
                        return;
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        match self.b.get(self.i) {
                            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                                self.i += 1;
                            }
                            Some(b'u') => {
                                for k in 1..=4 {
                                    assert!(
                                        self.b.get(self.i + k).is_some_and(u8::is_ascii_hexdigit),
                                        "bad \\u escape at byte {}",
                                        self.i
                                    );
                                }
                                self.i += 5;
                            }
                            other => panic!("bad escape {:?} at byte {}", other, self.i),
                        }
                    }
                    Some(c) if *c >= 0x20 => self.i += 1,
                    other => panic!("bad string byte {:?} at {}", other, self.i),
                }
            }
        }
        fn number(&mut self) {
            let start = self.i;
            self.eat(b'-');
            while self.b.get(self.i).is_some_and(|c| {
                c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
            }) {
                self.i += 1;
            }
            assert!(self.i > start, "empty number at byte {start}");
        }
        fn lit(&mut self, s: &str) {
            assert_eq!(
                self.b.get(self.i..self.i + s.len()),
                Some(s.as_bytes()),
                "bad literal at byte {}",
                self.i
            );
            self.i += s.len();
        }
    }
    let mut p = P {
        b: doc.as_bytes(),
        i: 0,
    };
    p.value();
    p.ws();
    assert_eq!(p.i, doc.len(), "trailing garbage after JSON document");
}

fn profiled_serving_stats(workers: usize, frames: u64) -> ServerStats {
    let device = DeviceSpec::xavier_nx();
    let engine = Builder::new(
        device.clone(),
        BuilderConfig::default().with_build_seed(0xace),
    )
    .build(&ModelId::TinyYolov3.descriptor())
    .expect("zoo model builds");
    let timing = TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(ModelId::TinyYolov3.info().host_glue_us)
        .with_run_jitter_sd(0.0);
    let server = InferenceServer::start(
        &engine,
        &device,
        ServerConfig::default()
            .with_workers(workers)
            .with_queue_capacity(frames as usize)
            .with_max_batch_size(4)
            .with_batch_timeout_us(f64::INFINITY)
            .with_timing(timing)
            .with_profile(ProfileOptions::full()),
    )
    .expect("start");
    for frame in 0..frames {
        server.submit(frame).expect("accepting");
    }
    server.drain()
}

#[test]
fn four_stream_serving_trace_is_loadable_json_with_all_tracks() {
    let stats = profiled_serving_stats(4, 64);
    let timeline = stats.timeline.as_ref().expect("timeline captured");
    let json = chrome_trace_json(timeline, "serving");
    assert_valid_json(&json);
    for tid in 0..4 {
        assert!(
            json.contains(&format!("\"tid\":{tid}")),
            "stream {tid} missing from the trace"
        );
        assert!(json.contains(&format!("stream {tid}")));
    }
    assert!(json.contains("\"cat\":\"kernel\""));
    assert!(json.contains("\"cat\":\"memcpy\""));
    assert!(json.contains("\"ph\":\"X\""));
}

#[test]
fn request_span_ranges_resolve_to_captured_records() {
    let stats = profiled_serving_stats(4, 64);
    let timeline = stats.timeline.as_ref().expect("timeline captured");
    assert_eq!(stats.completions.len() as u64, stats.completed);
    for r in &stats.completions {
        let kernels = timeline
            .kernels()
            .iter()
            .filter(|k| k.stream == r.worker && (r.span_lo..r.span_hi).contains(&k.seq))
            .count();
        assert!(
            kernels > 0,
            "frame {} resolved to no kernel records (worker {}, spans {}..{})",
            r.frame,
            r.worker,
            r.span_lo,
            r.span_hi
        );
    }
    // The breakdown reconciles with the captured timeline.
    let total: u64 = stats.kernel_breakdown.iter().map(|k| k.calls).sum();
    assert_eq!(total as usize, timeline.kernels().len());
}

/// Scrapes `path` from `addr`, asserting a 200 and returning the body.
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("endpoint accepts");
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

/// The flight recorder's HTTP surface end to end: `/traces` serves a valid
/// JSON index naming every retained trace, `/traces/<id>` serves the span
/// tree, `/traces/<id>/chrome` serves a chrome://tracing document that the
/// mini-parser accepts, and the bulk exports the scenario runner's
/// `--trace-out` writes are equally loadable.
#[test]
fn flight_recorder_routes_serve_loadable_trace_documents() {
    let device = DeviceSpec::xavier_nx();
    let engine = Builder::new(
        device.clone(),
        BuilderConfig::default().with_build_seed(0xace),
    )
    .build(&ModelId::TinyYolov3.descriptor())
    .expect("zoo model builds");
    let server = InferenceServer::start(
        &engine,
        &device,
        ServerConfig::default()
            .with_workers(2)
            .with_queue_capacity(32)
            .with_max_batch_size(4)
            .with_batch_timeout_us(f64::INFINITY)
            .with_timing(
                TimingOptions::default()
                    .without_engine_upload()
                    .with_host_glue_us(ModelId::TinyYolov3.info().host_glue_us)
                    .with_run_jitter_sd(0.0),
            )
            .with_telemetry("127.0.0.1:0".parse().expect("addr"))
            .with_trace(TraceOptions::default().with_sample_every(1)),
    )
    .expect("server starts");
    let recorder = server.flight_recorder();
    for frame in 0..32 {
        server.submit(frame).expect("accepting");
    }
    // Serve every request while the endpoint is still up (drain shuts it
    // down): eight full batches of four, all traced.
    server.run_until(f64::INFINITY);
    assert_eq!(recorder.completed_seen(), 32);
    let addr = server.telemetry_addr().expect("endpoint bound");

    let index = scrape(addr, "/traces");
    assert_valid_json(&index);
    let traces = recorder.traces();
    assert_eq!(traces.len(), 32, "sample_every=1 keeps all 32 traces");
    for t in &traces {
        assert!(
            index.contains(&t.id.to_string()),
            "trace {} missing from the /traces index",
            t.id
        );
    }

    let id = traces.last().expect("non-empty").id.to_string();
    let detail = scrape(addr, &format!("/traces/{id}"));
    assert_valid_json(&detail);
    for needle in ["\"phases\"", "\"outcome\"", "\"arrival_us\""] {
        assert!(detail.contains(needle), "{needle} missing from trace JSON");
    }

    let chrome = scrape(addr, &format!("/traces/{id}/chrome"));
    assert_valid_json(&chrome);
    assert!(chrome.contains("\"traceEvents\""));
    for phase in ["replica_queue", "batch_wait", "execute"] {
        assert!(
            chrome.contains(phase),
            "phase {phase} missing from the chrome export"
        );
    }

    // The bulk exports behind `scenario run --trace-out` parse too.
    assert_valid_json(&traces_json(&traces));
    let all = chrome_trace_all(&traces);
    assert_valid_json(&all);
    assert!(all.contains("\"ph\":\"X\""));
    server.drain();
}

#[test]
fn detector_flags_the_engine_upload_as_h2d_outlier() {
    // Table X's anomaly source: the plan-sized engine upload dwarfs the
    // steady per-frame input copies.
    let tl = memcpy_trace_timeline(ModelId::Resnet18, Platform::Agx, 16);
    let outliers = h2d_outliers(&tl, &DetectorConfig::default());
    assert!(!outliers.is_empty(), "upload spike not flagged");
    let biggest = tl
        .memcpys()
        .iter()
        .filter(|m| m.kind == CopyKind::HostToDevice)
        .max_by_key(|m| m.bytes)
        .expect("H2D copies present");
    assert!(
        outliers
            .iter()
            .any(|o| o.stream == biggest.stream && o.seq == biggest.seq),
        "the plan upload itself is not among the flagged copies"
    );
    // The uniform per-frame copies must NOT drown the report.
    assert!(
        outliers.len() < 4,
        "detector flagged {} of 17 copies — threshold too loose",
        outliers.len()
    );
}

#[test]
fn detector_finds_kernel_slowdowns_in_repro_timelines() {
    // Tables XI/XIII territory: within one engine's run, repeated symbols
    // (pooling, shared conv tactics) stretch on their large-layer
    // invocations relative to the symbol median.
    let timelines = variability_trace_timelines(ModelId::InceptionV4, 2);
    let slow = kernel_slowdowns(&timelines[0], &DetectorConfig::default());
    assert!(
        !slow.is_empty(),
        "no per-invocation slowdown found in an InceptionV4 run"
    );
    for s in &slow {
        assert!(s.ratio >= 1.25, "flagged ratio {} below threshold", s.ratio);
        assert!(s.duration_us > s.median_us);
    }
}

#[test]
fn detector_sees_kernel_set_drift_between_builds() {
    // Table XIII: different builds of the same model map layers to
    // different kernel sets / invocation counts.
    let timelines = variability_trace_timelines(ModelId::InceptionV4, 1);
    let drifted = timelines
        .iter()
        .skip(1)
        .any(|tl| !kernel_set_diff(&timelines[0], tl).is_empty());
    assert!(drifted, "three builds produced identical kernel sets");
}

#[test]
fn full_detect_report_is_consistent() {
    let tl = memcpy_trace_timeline(ModelId::Resnet18, Platform::Agx, 8);
    let report = detect(&tl, &DetectorConfig::default());
    assert_eq!(
        report.h2d_outliers,
        h2d_outliers(&tl, &DetectorConfig::default())
    );
    assert_eq!(
        report.kernel_slowdowns,
        kernel_slowdowns(&tl, &DetectorConfig::default())
    );
    assert!(!report.is_empty());
}

#[test]
fn multi_stream_trace_of_repro_builds_is_valid_json() {
    let timelines = variability_trace_timelines(ModelId::Resnet18, 1);
    let named: Vec<(String, &trtsim::gpu::timeline::GpuTimeline)> = timelines
        .iter()
        .enumerate()
        .map(|(i, tl)| (format!("engine{}", i + 1), tl))
        .collect();
    let pairs: Vec<(&str, &trtsim::gpu::timeline::GpuTimeline)> =
        named.iter().map(|(n, tl)| (n.as_str(), *tl)).collect();
    let json = trtsim::profiler::chrome_trace_json_multi(&pairs);
    assert_valid_json(&json);
    for pid in 0..3 {
        assert!(json.contains(&format!("\"pid\":{pid}")));
    }
}
