//! chrome://tracing (Trace Event Format) export of simulated timelines.
//!
//! nvprof's textual views answer "which kernel is slow"; the paper's §V
//! anomaly anatomy is read from the *visual* trace — where the H2D spike
//! sits, how streams interleave, which invocation of a symbol stretched.
//! This module serializes any [`GpuTimeline`] — including multi-stream
//! serving runs — to the JSON the Chrome trace viewer (`chrome://tracing`,
//! Perfetto's legacy loader) accepts:
//!
//! * one complete (`"ph": "X"`) event per kernel, memcpy, and host span;
//! * one track per stream (`tid` = stream id), named via `"M"` metadata
//!   events, so an N-worker serving run renders as N parallel lanes;
//! * categories `kernel` / `memcpy` / `host`, so each class can be toggled
//!   in the viewer;
//! * span ids (`stream`/`seq`) and per-record detail (grid, bytes,
//!   occupancy) in `args`, joining a visual span back to
//!   [`trtsim_gpu::timeline`] records and to serving-layer span attribution.
//!
//! Events are written by [`trtsim_metrics::ChromeTrace`], the workspace's
//! one Trace Event Format writer (the request-trace export uses it too).

use std::io;
use std::path::Path;

use trtsim_gpu::timeline::{CopyKind, GpuTimeline};
use trtsim_metrics::{chrome_number, ChromeTrace, CompleteEvent};

/// Category label of kernel events.
pub const CAT_KERNEL: &str = "kernel";
/// Category label of memcpy events.
pub const CAT_MEMCPY: &str = "memcpy";
/// Category label of host-glue events.
pub const CAT_HOST: &str = "host";
/// Category label of request-phase overlay events (serving-layer traces).
pub const CAT_REQUEST: &str = "request";

/// A caller-supplied span overlaid on a timeline's chrome export — e.g. one
/// phase of a request trace, stitched onto the device timeline by the same
/// `(stream, seq)` span-id scheme the GPU records use. Overlay spans render
/// as ordinary complete events in the stream's lane, interleaved with
/// kernels/copies in deterministic span-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlaySpan {
    /// Event name (e.g. `"execute f=12 trace=4f2a…"`).
    pub name: String,
    /// Category label (e.g. [`CAT_REQUEST`]).
    pub cat: String,
    /// Stream (= `tid`) the span renders in.
    pub stream: usize,
    /// Span sequence number used for deterministic tie-breaking against the
    /// timeline's own records.
    pub seq: u64,
    /// Start on the simulated clock, µs.
    pub start_us: f64,
    /// Duration, µs.
    pub duration_us: f64,
    /// Pre-rendered JSON object for the event's `args` (must be valid JSON;
    /// `{}` when there is nothing to attach).
    pub args: String,
}

/// Serializes one timeline as a chrome://tracing JSON document.
///
/// `process_name` labels the trace's single process (`pid` 0) — typically
/// the device or run name. Events are sorted by start time, ties broken by
/// span id, so the document is byte-identical for a given timeline
/// regardless of which thread's records were appended first.
pub fn chrome_trace_json(timeline: &GpuTimeline, process_name: &str) -> String {
    chrome_trace_json_multi(&[(process_name, timeline)])
}

/// Serializes several timelines into one document, one process (`pid`) per
/// timeline — e.g. the same model's engines from different builds, side by
/// side.
pub fn chrome_trace_json_multi(timelines: &[(&str, &GpuTimeline)]) -> String {
    let with_overlays: Vec<(&str, &GpuTimeline, &[OverlaySpan])> = timelines
        .iter()
        .map(|&(name, tl)| (name, tl, &[] as &[OverlaySpan]))
        .collect();
    chrome_trace_json_multi_with_spans(&with_overlays)
}

/// [`chrome_trace_json_multi`] with caller-supplied overlay spans per
/// timeline — how the serving layer stitches request-phase spans onto the
/// device timelines that served them (joined by stream + span id).
pub fn chrome_trace_json_multi_with_spans(
    timelines: &[(&str, &GpuTimeline, &[OverlaySpan])],
) -> String {
    let mut doc = ChromeTrace::new();
    for (pid, (name, timeline, overlays)) in timelines.iter().enumerate() {
        doc.metadata("process_name", pid, None, name);
        let overlay_max = overlays.iter().map(|o| o.stream).max().unwrap_or(0);
        let streams = 1 + stream_count(timeline).max(overlay_max);
        for stream in 0..streams {
            doc.metadata(
                "thread_name",
                pid,
                Some(stream),
                &format!("stream {stream}"),
            );
        }
        // (seq, event): the event's own start and track complete the key.
        let mut spans: Vec<(u64, CompleteEvent<'_>)> = Vec::new();
        let mut span = |name, cat, start_us, duration_us, stream, seq, args| {
            spans.push((
                seq,
                CompleteEvent {
                    name,
                    cat,
                    ts_us: start_us,
                    dur_us: duration_us,
                    pid,
                    tid: stream,
                    args,
                },
            ));
        };
        for k in timeline.kernels() {
            let args = format!(
                "{{\"stream\":{},\"seq\":{},\"grid_blocks\":{},\"sm_occupancy\":{}}}",
                k.stream,
                k.seq,
                k.grid_blocks,
                chrome_number(k.sm_occupancy)
            );
            span(
                &k.name,
                CAT_KERNEL,
                k.start_us,
                k.duration_us,
                k.stream,
                k.seq,
                args,
            );
        }
        for m in timeline.memcpys() {
            let name = match m.kind {
                CopyKind::HostToDevice => "[CUDA memcpy HtoD]",
                CopyKind::DeviceToHost => "[CUDA memcpy DtoH]",
            };
            let args = format!(
                "{{\"stream\":{},\"seq\":{},\"bytes\":{}}}",
                m.stream, m.seq, m.bytes
            );
            span(
                name,
                CAT_MEMCPY,
                m.start_us,
                m.duration_us,
                m.stream,
                m.seq,
                args,
            );
        }
        for h in timeline.host_spans() {
            let args = format!("{{\"stream\":{},\"seq\":{}}}", h.stream, h.seq);
            span(
                h.label,
                CAT_HOST,
                h.start_us,
                h.duration_us,
                h.stream,
                h.seq,
                args,
            );
        }
        for o in overlays.iter() {
            let args = o.args.clone();
            span(
                &o.name,
                &o.cat,
                o.start_us,
                o.duration_us,
                o.stream,
                o.seq,
                args,
            );
        }
        // Ties on start time are real (streams overlap); break them by span
        // id so the document is identical run to run even though records
        // land in the timeline in racy lock-acquisition order.
        spans.sort_by(|(a_seq, a), (b_seq, b)| {
            a.ts_us
                .total_cmp(&b.ts_us)
                .then_with(|| (a.tid, a_seq).cmp(&(b.tid, b_seq)))
        });
        for (_, event) in &spans {
            doc.complete(event);
        }
    }
    doc.finish()
}

/// Writes [`chrome_trace_json`] output to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_chrome_trace(
    path: impl AsRef<Path>,
    timeline: &GpuTimeline,
    process_name: &str,
) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(timeline, process_name))
}

/// Highest stream id any record refers to (0 when the timeline is empty).
fn stream_count(timeline: &GpuTimeline) -> usize {
    let kernels = timeline.kernels().iter().map(|k| k.stream);
    let copies = timeline.memcpys().iter().map(|m| m.stream);
    let hosts = timeline.host_spans().iter().map(|h| h.stream);
    kernels.chain(copies).chain(hosts).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_gpu::device::DeviceSpec;
    use trtsim_gpu::kernel::KernelDesc;

    fn timeline() -> GpuTimeline {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s0 = tl.create_stream();
        let s1 = tl.create_stream();
        tl.enqueue_h2d(s0, 1 << 20);
        tl.enqueue_kernel(
            s0,
            &KernelDesc::new("conv\"odd\"").grid(6, 128).flops(1_000_000),
        );
        tl.host_span(s0, "host_glue", 100.0);
        tl.enqueue_kernel(s1, &KernelDesc::new("fc").grid(2, 64).flops(10_000));
        tl.enqueue_d2h(s1, 4096);
        tl
    }

    #[test]
    fn document_has_all_record_classes_and_tracks() {
        let json = chrome_trace_json(&timeline(), "xavier_nx");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"cat\":\"kernel\""));
        assert!(json.contains("\"cat\":\"memcpy\""));
        assert!(json.contains("\"cat\":\"host\""));
        assert!(json.contains("[CUDA memcpy HtoD]"));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("stream 1"));
        assert!(json.contains("xavier_nx"));
    }

    #[test]
    fn strings_are_escaped() {
        let json = chrome_trace_json(&timeline(), "p");
        assert!(json.contains("conv\\\"odd\\\""));
        assert!(!json.contains("\"conv\"odd\"\""));
    }

    #[test]
    fn empty_timeline_is_still_a_document() {
        let tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let json = chrome_trace_json(&tl, "empty");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("process_name"));
    }

    #[test]
    fn multi_puts_each_timeline_in_its_own_pid() {
        let a = timeline();
        let b = timeline();
        let json = chrome_trace_json_multi(&[("build0", &a), ("build1", &b)]);
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("build0") && json.contains("build1"));
    }

    #[test]
    fn overlay_spans_render_in_their_stream_lane() {
        let tl = timeline();
        let overlays = vec![OverlaySpan {
            name: "execute f=3".to_string(),
            cat: CAT_REQUEST.to_string(),
            stream: 2,
            seq: 0,
            start_us: 10.0,
            duration_us: 250.0,
            args: "{\"trace_id\":\"00000000000000aa\"}".to_string(),
        }];
        let json = chrome_trace_json_multi_with_spans(&[("dev", &tl, &overlays)]);
        assert!(json.contains("\"cat\":\"request\""));
        assert!(json.contains("execute f=3"));
        assert!(json.contains("00000000000000aa"));
        // The overlay's stream gets a named lane even though no GPU record
        // touches it.
        assert!(json.contains("stream 2"));
        // Delegation keeps the no-overlay document unchanged.
        assert_eq!(
            chrome_trace_json_multi(&[("dev", &tl)]),
            chrome_trace_json_multi_with_spans(&[("dev", &tl, &[])])
        );
    }

    #[test]
    fn write_creates_the_file() {
        let path = std::env::temp_dir().join("trtsim_chrome_trace_test.json");
        write_chrome_trace(&path, &timeline(), "t").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("traceEvents"));
        let _ = std::fs::remove_file(&path);
    }
}
