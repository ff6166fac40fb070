//! nvprof GPU-trace mode: the chronological launch listing.
//!
//! "GPU trace mode provides the list of all kernel launches" (§II-C). The
//! paper reads per-invocation runtimes out of this view (its Table XIII
//! shows the same kernel taking different times per invocation).

use std::sync::Arc;

use trtsim_gpu::timeline::GpuTimeline;

/// One chronological trace entry.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Start time, µs.
    pub start_us: f64,
    /// Duration, µs.
    pub duration_us: f64,
    /// Stream id.
    pub stream: usize,
    /// Per-stream span sequence number (stable span id with `stream`).
    pub seq: u64,
    /// Grid size.
    pub grid_blocks: u64,
    /// Kernel symbol, shared with the timeline record.
    pub name: Arc<str>,
}

/// Extracts the chronological kernel trace from a finished timeline.
pub fn gpu_trace(timeline: &GpuTimeline) -> Vec<TraceEntry> {
    let mut entries: Vec<TraceEntry> = timeline
        .kernels()
        .iter()
        .map(|k| TraceEntry {
            start_us: k.start_us,
            duration_us: k.duration_us,
            stream: k.stream,
            seq: k.seq,
            grid_blocks: k.grid_blocks,
            name: k.name.clone(),
        })
        .collect();
    // total_cmp: a NaN start time (however it got into a timeline) must not
    // panic the profiler mid-sort; it sorts to the end instead.
    entries.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    entries
}

/// Per-invocation durations of one kernel symbol, in launch order — the
/// paper's Table XIII columns.
pub fn invocation_durations(timeline: &GpuTimeline, kernel: &str) -> Vec<f64> {
    gpu_trace(timeline)
        .into_iter()
        .filter(|e| &*e.name == kernel)
        .map(|e| e.duration_us)
        .collect()
}

/// Renders the trace in nvprof's GPU-trace layout.
pub fn format_trace(timeline: &GpuTimeline) -> String {
    let mut out = String::from("==PROF== Profiling result (GPU trace):\n");
    out.push_str(&format!(
        "{:>12}  {:>12}  {:>6}  {:>8}  Name\n",
        "Start", "Duration", "Strm", "Grid"
    ));
    for e in gpu_trace(timeline) {
        out.push_str(&format!(
            "{:>10.1}us  {:>10.1}us  {:>6}  {:>8}  {}\n",
            e.start_us, e.duration_us, e.stream, e.grid_blocks, e.name
        ));
    }
    out
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
        tl.enqueue_kernel(s0, &KernelDesc::new("a").grid(6, 128).flops(1_000_000));
        tl.enqueue_kernel(s1, &KernelDesc::new("b").grid(12, 128).flops(2_000_000));
        tl.enqueue_kernel(s0, &KernelDesc::new("a").grid(6, 128).flops(3_000_000));
        tl
    }

    #[test]
    fn trace_is_chronological() {
        let trace = gpu_trace(&timeline());
        assert_eq!(trace.len(), 3);
        for pair in trace.windows(2) {
            assert!(pair[0].start_us <= pair[1].start_us);
        }
    }

    #[test]
    fn invocation_durations_per_symbol() {
        let tl = timeline();
        let durs = invocation_durations(&tl, "a");
        assert_eq!(durs.len(), 2);
        assert!(durs[1] > durs[0], "second call has 3x the flops");
        assert!(invocation_durations(&tl, "missing").is_empty());
    }

    #[test]
    fn format_has_header_and_rows() {
        let text = format_trace(&timeline());
        assert!(text.contains("GPU trace"));
        assert_eq!(text.lines().count(), 5);
    }
}
