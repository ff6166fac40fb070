//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each op and around each call it
//! makes into a simulator layer. Spans stay in memory while the run lasts
//! and are written out once at the end, through the repository's
//! chrome-trace writer. A disabled tracer records nothing, so the timed run
//! pays one branch per call site.

use std::time::Instant;

use trtsim_gpu::device::DeviceSpec;
use trtsim_gpu::timeline::GpuTimeline;
use trtsim_profiler::chrome_trace::{chrome_trace_json_multi_with_spans, OverlaySpan};

/// One recorded span: `[start_ns, end_ns)` on the tracer's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer or op name (`"op"`, `"ir.exec"`, `"core.fleet.submit"`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op the span belongs to (`u64::MAX` for set-up spans).
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Op id carried by spans recorded outside any op (set-up).
pub const SETUP_OP: u64 = u64::MAX;

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a begun span must be ended"]
pub struct SpanId(Option<usize>);

/// Span recorder with a parent stack.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`] (spans close innermost
    /// first).
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        self.spans[idx].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration (ns) of spans called `name` whose parent is an
    /// `"op"` span — the op time that layer accounts for.
    pub fn child_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| self.spans[p].name == OP))
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed self time (ns) of every span called `name`: each span's
    /// duration minus the part of it its child spans cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c))
            .sum()
    }

    /// The set-up spans and the spans of ops below `ops` as a
    /// chrome://tracing document (one process, one track), rendered by the
    /// repository's chrome-trace writer. Each event's `args` carry its span
    /// index (`id`), its parent's index and its op (`-1` for none).
    pub fn chrome_json(&self, process_name: &str, ops: u64) -> String {
        let overlays: Vec<OverlaySpan> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op < ops || s.op == SETUP_OP)
            .map(|(i, s)| OverlaySpan {
                name: s.name.to_string(),
                cat: "perfbench".to_string(),
                stream: 0,
                seq: i as u64,
                start_us: s.start_ns as f64 / 1e3,
                duration_us: s.duration_ns() as f64 / 1e3,
                args: format!(
                    "{{\"id\":{i},\"parent\":{},\"op\":{}}}",
                    s.parent.map_or(-1, |p| p as i64),
                    if s.op == SETUP_OP { -1 } else { s.op as i64 }
                ),
            })
            .collect();
        let empty = GpuTimeline::new(DeviceSpec::xavier_nx());
        chrome_trace_json_multi_with_spans(&[(process_name, &empty, &overlays)])
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Name of the span wrapped around each op.
pub const OP: &str = "op";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let op = t.begin(OP, 0);
        let child = t.begin("child", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(op);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(t.child_ns("child"), spans[1].duration_ns());
        assert_eq!(
            t.self_ns(OP),
            spans[0].duration_ns() - spans[1].duration_ns()
        );
        assert!(t.chrome_json("test", 1).contains("\"parent\":0"));
        assert!(!t.chrome_json("test", 0).contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin(OP, 0);
        t.end(id);
        assert!(t.spans().is_empty());
    }
}
