//! Event-ordered execution of kernels and copies on CUDA-like streams.
//!
//! The timeline is what the nvprof-like profiler observes: an ordered list of
//! kernel and memcpy records with start times and durations. Work on one
//! stream serializes; separate streams advance independently (the device-wide
//! saturation effects of many concurrent streams are modeled analytically in
//! [`crate::contention`]).
//!
//! Every kernel launch is appended by one primitive,
//! [`GpuTimeline::enqueue_timed`], which takes a shared run of
//! [`TimedKernel`]s: launches whose roofline busy time and SM occupancy were
//! already derived against a device. [`GpuTimeline::enqueue_kernel`]
//! derives a one-launch run on the spot; callers that launch the same
//! kernels again and again (an execution context serving batches) derive
//! the run once and replay it. The timeline keeps each run whole — one
//! `Arc` and a start cursor — and expands runs into [`KernelRecord`]s only
//! when [`GpuTimeline::kernels`] is read, with the same arithmetic the
//! enqueue used, so replaying a batch costs no per-launch memory.

use std::sync::{Arc, OnceLock};

use crate::device::DeviceSpec;
use crate::kernel::KernelDesc;
use crate::memcpy::{d2h_time_us, h2d_time_us};
use crate::timing::{kernel_busy_us, sm_occupancy_fraction};

/// Identifier of a simulated CUDA stream within one timeline.
pub type StreamId = usize;

/// Per-stream sequence number of one timeline record.
///
/// Together with the record's [`StreamId`] this forms a *stable span id*:
/// kernels, copies, and host spans on one stream are numbered 0, 1, 2, … in
/// enqueue order. Because the numbering is per-stream it does not depend on
/// how concurrently-running streams interleave their enqueues in wall-clock
/// time, so span ids are reproducible run-to-run for any deterministic
/// per-stream workload (e.g. a round-robin serving batcher).
pub type SpanSeq = u64;

/// The kind of work a span id refers to, for trace consumers that join the
/// three record vectors back into one view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A kernel launch ([`KernelRecord`]).
    Kernel,
    /// A memory copy ([`MemcpyRecord`]).
    Memcpy,
    /// Host-side glue ([`HostSpanRecord`]).
    Host,
}

/// Direction of a memory copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyKind {
    /// `cudaMemcpyHostToDevice`.
    HostToDevice,
    /// `cudaMemcpyDeviceToHost`.
    DeviceToHost,
}

/// One executed kernel, as the profiler sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRecord {
    /// Kernel symbol name, shared with the [`KernelDesc`] it came from.
    pub name: Arc<str>,
    /// Stream it ran on.
    pub stream: StreamId,
    /// Start time (µs since timeline creation).
    pub start_us: f64,
    /// Busy duration (µs), including any profiling inflation.
    pub duration_us: f64,
    /// Grid size, for occupancy analysis.
    pub grid_blocks: u64,
    /// Fraction of SM slots occupied while resident.
    pub sm_occupancy: f64,
    /// Per-stream span sequence number (see [`SpanSeq`]).
    pub seq: SpanSeq,
}

/// One executed copy, as the profiler sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct MemcpyRecord {
    /// Copy direction.
    pub kind: CopyKind,
    /// Stream it ran on.
    pub stream: StreamId,
    /// Bytes moved.
    pub bytes: u64,
    /// Start time (µs).
    pub start_us: f64,
    /// Duration (µs).
    pub duration_us: f64,
    /// Per-stream span sequence number (see [`SpanSeq`]).
    pub seq: SpanSeq,
}

/// Host-side work between device enqueues (pre/post-processing, sync glue,
/// batcher waits), as the trace subsystem sees it.
///
/// Host spans occupy stream time exactly like kernels and copies do — they
/// advance the stream cursor — but they represent CPU work, so they are kept
/// out of [`GpuTimeline::kernels`] / [`GpuTimeline::memcpys`] and the GPU
/// utilization accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpanRecord {
    /// What the host was doing (e.g. `"host_glue"`, `"batch_wait"`).
    pub label: &'static str,
    /// Stream whose progress the host work gated.
    pub stream: StreamId,
    /// Start time (µs).
    pub start_us: f64,
    /// Duration (µs).
    pub duration_us: f64,
    /// Per-stream span sequence number (see [`SpanSeq`]).
    pub seq: SpanSeq,
}

/// One kernel launch with its device timing already derived: a row of the
/// runs [`GpuTimeline::enqueue_timed`] appends.
///
/// The busy time is the raw roofline time, before any profiling inflation;
/// the timeline applies its own launch cost and
/// [`ProfilingOverhead::busy_multiplier`] when it appends the row.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedKernel {
    /// Kernel symbol name.
    pub name: Arc<str>,
    /// Grid size.
    pub grid_blocks: u64,
    /// Roofline busy time on the device, µs ([`kernel_busy_us`]).
    pub busy_us: f64,
    /// Fraction of SM slots occupied while resident
    /// ([`sm_occupancy_fraction`]).
    pub sm_occupancy: f64,
}

impl TimedKernel {
    /// Derives the timing row of `kernel` scaled to `batch` inputs (see
    /// [`KernelDesc::with_batch`]; `batch <= 1` is the kernel as given) on
    /// `device`.
    pub fn derive(kernel: &KernelDesc, batch: u64, device: &DeviceSpec) -> Self {
        let row = |k: &KernelDesc| Self {
            name: Arc::clone(&k.name),
            grid_blocks: k.grid_blocks,
            busy_us: kernel_busy_us(k, device),
            sm_occupancy: sm_occupancy_fraction(k, device),
        };
        if batch <= 1 {
            row(kernel)
        } else {
            row(&kernel.clone().with_batch(batch))
        }
    }
}

/// Profiling instrumentation attached to a timeline.
///
/// nvprof inflates runtimes: it serializes kernel launches through the
/// profiling fabric (a per-launch cost) and adds a small multiplicative
/// overhead to kernel execution. The paper's Table VIII (with nvprof) vs
/// Table IX (without) differ by roughly these amounts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingOverhead {
    /// Extra cost per kernel launch, µs.
    pub per_launch_us: f64,
    /// Multiplier on kernel busy time (≥ 1).
    pub busy_multiplier: f64,
}

impl ProfilingOverhead {
    /// Typical nvprof GPU-trace-mode overhead, calibrated against the
    /// paper's Table VIII vs Table IX deltas.
    pub fn nvprof() -> Self {
        Self {
            per_launch_us: 55.0,
            busy_multiplier: 1.12,
        }
    }

    /// No instrumentation.
    pub fn none() -> Self {
        Self {
            per_launch_us: 0.0,
            busy_multiplier: 1.0,
        }
    }
}

/// A device plus per-stream cursors and the record log.
///
/// # Examples
///
/// ```
/// use trtsim_gpu::device::DeviceSpec;
/// use trtsim_gpu::kernel::KernelDesc;
/// use trtsim_gpu::timeline::GpuTimeline;
///
/// let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
/// let s = tl.create_stream();
/// tl.enqueue_h2d(s, 1 << 20);
/// tl.enqueue_kernel(s, &KernelDesc::new("k").grid(6, 128).flops(1_000_000));
/// let done = tl.sync(s);
/// assert!(done > 0.0);
/// assert_eq!(tl.kernels().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuTimeline {
    device: DeviceSpec,
    overhead: ProfilingOverhead,
    stream_cursor: Vec<f64>,
    stream_seq: Vec<SpanSeq>,
    /// Kernel launches in enqueue order, as runs.
    runs: Vec<KernelRun>,
    /// `runs` expanded into records on the first read after an enqueue.
    kernels: Expanded,
    memcpys: Vec<MemcpyRecord>,
    host_spans: Vec<HostSpanRecord>,
}

/// Launches enqueued back to back on one stream by one
/// [`GpuTimeline::enqueue_timed`] call.
#[derive(Debug, Clone, PartialEq)]
struct KernelRun {
    stream: StreamId,
    /// The stream's cursor when the run was enqueued.
    from_us: f64,
    /// Span sequence number of the run's first launch.
    seq: SpanSeq,
    rows: Arc<[TimedKernel]>,
}

/// The records cache. It is derived from the runs, so it never makes two
/// timelines differ.
#[derive(Debug, Clone, Default)]
struct Expanded(OnceLock<Vec<KernelRecord>>);

impl PartialEq for Expanded {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl GpuTimeline {
    /// Creates a timeline with no profiler attached.
    pub fn new(device: DeviceSpec) -> Self {
        Self::with_overhead(device, ProfilingOverhead::none())
    }

    /// Creates a timeline with explicit profiling instrumentation.
    pub fn with_overhead(device: DeviceSpec, overhead: ProfilingOverhead) -> Self {
        Self {
            device,
            overhead,
            stream_cursor: Vec::new(),
            stream_seq: Vec::new(),
            runs: Vec::new(),
            kernels: Expanded::default(),
            memcpys: Vec::new(),
            host_spans: Vec::new(),
        }
    }

    /// The device this timeline runs on.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Opens a new stream; its clock starts at the current maximum so freshly
    /// created streams cannot run "in the past".
    pub fn create_stream(&mut self) -> StreamId {
        let start = self.elapsed_us();
        self.stream_cursor.push(start);
        self.stream_seq.push(0);
        self.stream_cursor.len() - 1
    }

    /// Number of streams opened on this timeline.
    pub fn stream_count(&self) -> usize {
        self.stream_cursor.len()
    }

    /// The span sequence number the *next* record enqueued on `stream` will
    /// carry. Serving layers use `(next_seq before, next_seq after)` to
    /// attribute a half-open span range to one request batch.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn next_seq(&self, stream: StreamId) -> SpanSeq {
        self.stream_seq[stream]
    }

    fn bump_seq(&mut self, stream: StreamId) -> SpanSeq {
        let seq = self.stream_seq[stream];
        self.stream_seq[stream] += 1;
        seq
    }

    /// Enqueues a kernel; returns its completion time (µs).
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn enqueue_kernel(&mut self, stream: StreamId, kernel: &KernelDesc) -> f64 {
        self.enqueue_batched_kernel(stream, kernel, 1)
    }

    /// Enqueues one kernel launch covering `batch` inputs; returns its
    /// completion time (µs).
    ///
    /// The grid, arithmetic, and memory traffic scale with the batch (see
    /// [`KernelDesc::with_batch`]) but launch overhead — driver cost plus any
    /// profiling fabric cost — is charged once, which is where dynamic
    /// batching's throughput win comes from.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn enqueue_batched_kernel(
        &mut self,
        stream: StreamId,
        kernel: &KernelDesc,
        batch: u64,
    ) -> f64 {
        let row = TimedKernel::derive(kernel, batch, &self.device);
        self.enqueue_timed(stream, &Arc::from([row]))
    }

    /// Appends launches whose timing was derived up front (see
    /// [`TimedKernel`]) back to back on `stream`, charging this timeline's
    /// launch cost and profiling multiplier to each; returns the completion
    /// time of the last (µs). Every kernel launch,
    /// [`GpuTimeline::enqueue_kernel`]'s included, is appended here. The
    /// rows should have been derived against this timeline's device.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn enqueue_timed(&mut self, stream: StreamId, rows: &Arc<[TimedKernel]>) -> f64 {
        let run = KernelRun {
            stream,
            from_us: self.stream_cursor[stream],
            seq: self.stream_seq[stream],
            rows: Arc::clone(rows),
        };
        let end = self
            .launches(&run)
            .last()
            .map_or(run.from_us, |(_, start, busy)| start + busy);
        self.stream_cursor[stream] = end;
        self.stream_seq[stream] += rows.len() as SpanSeq;
        self.runs.push(run);
        self.kernels = Expanded::default();
        end
    }

    /// A run's launches as `(row, start_us, busy_us)`: each starts one
    /// launch cost after the previous one ends.
    fn launches<'r>(
        &self,
        run: &'r KernelRun,
    ) -> impl Iterator<Item = (&'r TimedKernel, f64, f64)> + 'r {
        let launch = self.device.kernel_launch_us + self.overhead.per_launch_us;
        let multiplier = self.overhead.busy_multiplier;
        let mut cursor = run.from_us;
        run.rows.iter().map(move |row| {
            let start = cursor + launch;
            let busy = row.busy_us * multiplier;
            cursor = start + busy;
            (row, start, busy)
        })
    }

    /// Enqueues a host→device copy; returns its completion time (µs).
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn enqueue_h2d(&mut self, stream: StreamId, bytes: u64) -> f64 {
        let dur = h2d_time_us(bytes, &self.device);
        self.push_copy(stream, CopyKind::HostToDevice, bytes, dur)
    }

    /// Enqueues a device→host copy; returns its completion time (µs).
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn enqueue_d2h(&mut self, stream: StreamId, bytes: u64) -> f64 {
        let dur = d2h_time_us(bytes, &self.device);
        self.push_copy(stream, CopyKind::DeviceToHost, bytes, dur)
    }

    fn push_copy(&mut self, stream: StreamId, kind: CopyKind, bytes: u64, dur: f64) -> f64 {
        let start = self.stream_cursor[stream];
        let end = start + dur;
        let seq = self.bump_seq(stream);
        self.memcpys.push(MemcpyRecord {
            kind,
            stream,
            bytes,
            start_us: start,
            duration_us: dur,
            seq,
        });
        self.stream_cursor[stream] = end;
        end
    }

    /// Advances a stream's cursor by host-side time (CPU work between
    /// enqueues — pre/post-processing, synchronization glue), recording an
    /// anonymous `"host"` span. Prefer [`GpuTimeline::host_span`] when the
    /// work has a meaningful label.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn host_gap(&mut self, stream: StreamId, us: f64) -> f64 {
        self.host_span(stream, "host", us)
    }

    /// Advances a stream's cursor by `us` of labelled host-side work and
    /// records it as a [`HostSpanRecord`] so traces show where stream time
    /// went between device operations. Non-positive durations advance nothing
    /// and record nothing. The label is stored as given, so recording a span
    /// allocates nothing. Returns the stream's new cursor (µs).
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn host_span(&mut self, stream: StreamId, label: &'static str, us: f64) -> f64 {
        if us > 0.0 {
            let start = self.stream_cursor[stream];
            let seq = self.bump_seq(stream);
            self.host_spans.push(HostSpanRecord {
                label,
                stream,
                start_us: start,
                duration_us: us,
                seq,
            });
            self.stream_cursor[stream] = start + us;
        }
        self.stream_cursor[stream]
    }

    /// Completion time of everything enqueued on one stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not exist.
    pub fn sync(&self, stream: StreamId) -> f64 {
        self.stream_cursor[stream]
    }

    /// Completion time of everything enqueued anywhere.
    pub fn elapsed_us(&self) -> f64 {
        self.stream_cursor.iter().copied().fold(0.0, f64::max)
    }

    /// Kernel records, in enqueue order.
    pub fn kernels(&self) -> &[KernelRecord] {
        self.kernels.0.get_or_init(|| {
            self.runs
                .iter()
                .flat_map(|run| {
                    self.launches(run)
                        .zip(run.seq..)
                        .map(|((row, start_us, duration_us), seq)| KernelRecord {
                            name: Arc::clone(&row.name),
                            stream: run.stream,
                            start_us,
                            duration_us,
                            grid_blocks: row.grid_blocks,
                            sm_occupancy: row.sm_occupancy,
                            seq,
                        })
                })
                .collect()
        })
    }

    /// Copy records, in enqueue order.
    pub fn memcpys(&self) -> &[MemcpyRecord] {
        &self.memcpys
    }

    /// Host-span records, in enqueue order.
    pub fn host_spans(&self) -> &[HostSpanRecord] {
        &self.host_spans
    }

    /// Sum of kernel busy time within `[t0, t1)`, weighted by SM occupancy,
    /// as a fraction of the window — the GR3D utilization tegrastats samples.
    pub fn utilization_between(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        let mut busy = 0.0;
        for (k, start, duration) in self.runs.iter().flat_map(|run| self.launches(run)) {
            let s = start.max(t0);
            let e = (start + duration).min(t1);
            if e > s {
                busy += (e - s) * k.sm_occupancy;
            }
        }
        (busy / (t1 - t0)).min(1.0)
    }

    /// Clears records and rewinds all stream cursors to zero; stream ids
    /// remain valid. Used between repeated timing runs.
    pub fn reset(&mut self) {
        for c in &mut self.stream_cursor {
            *c = 0.0;
        }
        for s in &mut self.stream_seq {
            *s = 0;
        }
        self.runs.clear();
        self.kernels = Expanded::default();
        self.memcpys.clear();
        self.host_spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Precision;

    fn kernel(blocks: u64) -> KernelDesc {
        KernelDesc::new("k")
            .grid(blocks, 128)
            .flops(50_000_000)
            .dram_bytes(1 << 18)
            .precision(Precision::Fp16, true)
    }

    #[test]
    fn same_stream_serializes() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        let e1 = tl.enqueue_kernel(s, &kernel(6));
        let e2 = tl.enqueue_kernel(s, &kernel(6));
        assert!(e2 > e1);
        let ks = tl.kernels();
        assert!(ks[1].start_us >= ks[0].start_us + ks[0].duration_us);
    }

    #[test]
    fn different_streams_overlap() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s1 = tl.create_stream();
        let s2 = tl.create_stream();
        tl.enqueue_kernel(s1, &kernel(6));
        tl.enqueue_kernel(s2, &kernel(6));
        let ks = tl.kernels();
        // Both start at (almost) zero: concurrent execution.
        assert!((ks[0].start_us - ks[1].start_us).abs() < 1e-9);
    }

    #[test]
    fn memcpy_then_kernel_ordering() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        let copy_end = tl.enqueue_h2d(s, 1 << 20);
        tl.enqueue_kernel(s, &kernel(6));
        assert!(tl.kernels()[0].start_us >= copy_end);
        assert_eq!(tl.memcpys().len(), 1);
        assert_eq!(tl.memcpys()[0].kind, CopyKind::HostToDevice);
    }

    #[test]
    fn profiling_inflates_time() {
        let dev = DeviceSpec::xavier_nx();
        let mut plain = GpuTimeline::new(dev.clone());
        let mut profiled = GpuTimeline::with_overhead(dev, ProfilingOverhead::nvprof());
        let s1 = plain.create_stream();
        let s2 = profiled.create_stream();
        for _ in 0..10 {
            plain.enqueue_kernel(s1, &kernel(6));
            profiled.enqueue_kernel(s2, &kernel(6));
        }
        assert!(profiled.sync(s2) > plain.sync(s1));
    }

    #[test]
    fn utilization_counts_busy_fraction() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        // Full-occupancy kernel (grid ≥ SM slots).
        let end = tl.enqueue_kernel(s, &kernel(48));
        let util = tl.utilization_between(0.0, end);
        assert!(util > 0.5 && util <= 1.0, "util {util}");
        // Window entirely after the kernel: idle.
        assert_eq!(tl.utilization_between(end + 1.0, end + 2.0), 0.0);
    }

    #[test]
    fn host_gap_delays_stream() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        tl.host_gap(s, 500.0);
        tl.enqueue_kernel(s, &kernel(6));
        assert!(tl.kernels()[0].start_us >= 500.0);
    }

    #[test]
    fn host_spans_are_recorded_and_labelled() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        tl.host_span(s, "preprocess", 250.0);
        tl.enqueue_kernel(s, &kernel(6));
        tl.host_gap(s, 100.0);
        tl.host_span(s, "noop", 0.0); // non-positive: not recorded
        let spans = tl.host_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].label, "preprocess");
        assert_eq!(spans[0].duration_us, 250.0);
        assert_eq!(spans[1].label, "host");
        assert!(spans[1].start_us >= tl.kernels()[0].start_us + tl.kernels()[0].duration_us);
    }

    #[test]
    fn span_seqs_count_per_stream_across_record_kinds() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s0 = tl.create_stream();
        let s1 = tl.create_stream();
        assert_eq!(tl.next_seq(s0), 0);
        tl.enqueue_h2d(s0, 1 << 20); // s0 seq 0
        tl.enqueue_kernel(s0, &kernel(6)); // s0 seq 1
        tl.enqueue_kernel(s1, &kernel(6)); // s1 seq 0
        tl.host_span(s0, "glue", 10.0); // s0 seq 2
        assert_eq!(tl.memcpys()[0].seq, 0);
        assert_eq!(tl.kernels()[0].seq, 1);
        assert_eq!(tl.kernels()[1].seq, 0);
        assert_eq!(tl.kernels()[1].stream, s1);
        assert_eq!(tl.host_spans()[0].seq, 2);
        assert_eq!(tl.next_seq(s0), 3);
        assert_eq!(tl.next_seq(s1), 1);
    }

    #[test]
    fn reset_rewinds_span_seqs() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        tl.enqueue_kernel(s, &kernel(6));
        tl.host_gap(s, 5.0);
        tl.reset();
        assert_eq!(tl.next_seq(s), 0);
        assert!(tl.host_spans().is_empty());
    }

    #[test]
    fn reset_clears_state() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        tl.enqueue_kernel(s, &kernel(6));
        tl.reset();
        assert!(tl.kernels().is_empty());
        assert_eq!(tl.sync(s), 0.0);
    }

    #[test]
    fn batched_launch_beats_serial_launches() {
        let dev = DeviceSpec::xavier_nx();
        let mut serial = GpuTimeline::new(dev.clone());
        let mut batched = GpuTimeline::new(dev);
        let s1 = serial.create_stream();
        let s2 = batched.create_stream();
        for _ in 0..8 {
            serial.enqueue_kernel(s1, &kernel(6));
        }
        batched.enqueue_batched_kernel(s2, &kernel(6), 8);
        // One launch instead of eight: strictly earlier completion.
        assert!(batched.sync(s2) < serial.sync(s1));
        assert_eq!(batched.kernels().len(), 1);
        assert_eq!(batched.kernels()[0].grid_blocks, 8 * 6);
    }

    #[test]
    fn batch_of_one_is_the_plain_launch() {
        let dev = DeviceSpec::xavier_nx();
        let mut plain = GpuTimeline::new(dev.clone());
        let mut batched = GpuTimeline::new(dev);
        let s1 = plain.create_stream();
        let s2 = batched.create_stream();
        plain.enqueue_kernel(s1, &kernel(6));
        batched.enqueue_batched_kernel(s2, &kernel(6), 1);
        assert_eq!(plain.kernels(), batched.kernels());
    }

    #[test]
    fn launches_charge_launch_cost_and_profiling_multiplier() {
        let dev = DeviceSpec::xavier_nx();
        let nvprof = ProfilingOverhead::nvprof();
        let mut tl = GpuTimeline::with_overhead(dev.clone(), nvprof);
        let s = tl.create_stream();
        let k = kernel(6);
        let end = tl.enqueue_kernel(s, &k);
        let r = &tl.kernels()[0];
        assert_eq!(r.start_us, dev.kernel_launch_us + nvprof.per_launch_us);
        assert_eq!(
            r.duration_us,
            kernel_busy_us(&k, &dev) * nvprof.busy_multiplier
        );
        assert_eq!(r.sm_occupancy, sm_occupancy_fraction(&k, &dev));
        assert_eq!(end, r.start_us + r.duration_us);
    }

    #[test]
    fn replayed_rows_match_fresh_launches_and_share_names() {
        let dev = DeviceSpec::xavier_agx();
        let mut fresh = GpuTimeline::with_overhead(dev.clone(), ProfilingOverhead::nvprof());
        let mut replayed = GpuTimeline::with_overhead(dev.clone(), ProfilingOverhead::nvprof());
        let s1 = fresh.create_stream();
        let s2 = replayed.create_stream();
        let k = kernel(6);
        let rows: Vec<TimedKernel> = (1..=3).map(|b| TimedKernel::derive(&k, b, &dev)).collect();
        for _ in 0..2 {
            for (b, row) in (1..=3).zip(&rows) {
                assert_eq!(
                    fresh.enqueue_batched_kernel(s1, &k, b),
                    replayed.enqueue_timed(s2, &Arc::from([row.clone()]))
                );
            }
        }
        assert_eq!(fresh.kernels(), replayed.kernels());
        assert!(replayed
            .kernels()
            .iter()
            .all(|r| Arc::ptr_eq(&r.name, &k.name)));
    }

    #[test]
    fn late_streams_start_at_now() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s1 = tl.create_stream();
        let end = tl.enqueue_kernel(s1, &kernel(6));
        let s2 = tl.create_stream();
        assert!(tl.sync(s2) >= end);
    }
}
