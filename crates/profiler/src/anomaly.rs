//! Detection of the paper's three latency-anomaly classes (§V).
//!
//! The study attributes every latency surprise it finds to one of three
//! trace-level signatures:
//!
//! 1. **H2D copy outliers** — one `cudaMemcpyHostToDevice` (the per-run
//!    engine upload) dwarfing the per-frame input copies; subtracting it
//!    flips the NX/AGX ordering (Table X).
//! 2. **Per-invocation kernel slowdowns** — the same kernel symbol taking
//!    different times per invocation within one run (Table XIII's columns),
//!    or running slower than its own typical time on another platform
//!    (Table XI).
//! 3. **Kernel-set drift between builds** — two engines of the same model
//!    selecting different kernels, or the same kernel a different number of
//!    times ("9, 8 and 6 calls", Table XII/XIII).
//!
//! Each detector takes a [`DetectorConfig`] with the z-score/ratio
//! thresholds spelled out, returns plain data carrying span ids
//! (`stream`/`seq`) so findings join back to timeline records and
//! chrome-trace spans, and never panics — empty timelines yield empty
//! reports.

use std::collections::BTreeMap;

use trtsim_gpu::timeline::{CopyKind, GpuTimeline, SpanSeq, StreamId};

/// Thresholds for the three anomaly detectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Robust z-score (distance from the median in MAD units) above which an
    /// H2D copy is an outlier. 3.5 is the conventional modified-z cutoff.
    pub h2d_z_threshold: f64,
    /// Fallback ratio versus the median H2D duration used when the copy
    /// population has zero spread (MAD = 0, e.g. identical per-frame input
    /// copies): any copy slower than `ratio × median` is then an outlier.
    pub h2d_ratio_threshold: f64,
    /// A kernel invocation counts as slowed down when it takes at least this
    /// multiple of its symbol's median per-invocation time.
    pub slowdown_ratio: f64,
    /// Minimum invocations of a symbol before slowdowns are judged (a median
    /// over one or two calls is noise, as the paper's ten-run protocol
    /// implies).
    pub min_invocations: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            h2d_z_threshold: 3.5,
            h2d_ratio_threshold: 4.0,
            slowdown_ratio: 1.25,
            min_invocations: 3,
        }
    }
}

/// One H2D copy flagged as anomalous (anomaly class 1).
#[derive(Debug, Clone, PartialEq)]
pub struct H2dOutlier {
    /// Stream the copy ran on.
    pub stream: StreamId,
    /// Span id on that stream.
    pub seq: SpanSeq,
    /// Bytes moved.
    pub bytes: u64,
    /// Copy duration, µs.
    pub duration_us: f64,
    /// Median H2D duration in the same timeline, µs.
    pub median_us: f64,
    /// Robust z-score versus that median (infinite when the rest of the
    /// population has zero spread).
    pub z_score: f64,
}

/// One kernel invocation flagged as slowed down (anomaly class 2).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSlowdown {
    /// Kernel symbol.
    pub name: String,
    /// Stream the invocation ran on.
    pub stream: StreamId,
    /// Span id on that stream.
    pub seq: SpanSeq,
    /// This invocation's duration, µs.
    pub duration_us: f64,
    /// The symbol's median per-invocation duration, µs.
    pub median_us: f64,
    /// `duration_us / median_us`.
    pub ratio: f64,
}

/// Kernel-set drift between two runs/builds (anomaly class 3).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelSetDiff {
    /// Symbols invoked only by the first timeline.
    pub only_in_a: Vec<String>,
    /// Symbols invoked only by the second timeline.
    pub only_in_b: Vec<String>,
    /// Symbols both invoke, with differing counts: `(name, calls_a, calls_b)`.
    pub count_changes: Vec<(String, usize, usize)>,
}

impl KernelSetDiff {
    /// Whether the two kernel sets agree exactly (names and counts).
    pub fn is_empty(&self) -> bool {
        self.only_in_a.is_empty() && self.only_in_b.is_empty() && self.count_changes.is_empty()
    }
}

/// All three detectors over one timeline (the set diff needs a second
/// timeline; see [`kernel_set_diff`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnomalyReport {
    /// H2D copies flagged as outliers.
    pub h2d_outliers: Vec<H2dOutlier>,
    /// Kernel invocations flagged as slowdowns.
    pub kernel_slowdowns: Vec<KernelSlowdown>,
}

impl AnomalyReport {
    /// Whether nothing was flagged.
    pub fn is_empty(&self) -> bool {
        self.h2d_outliers.is_empty() && self.kernel_slowdowns.is_empty()
    }
}

/// Runs [`h2d_outliers`] and [`kernel_slowdowns`] over one timeline.
pub fn detect(timeline: &GpuTimeline, config: &DetectorConfig) -> AnomalyReport {
    AnomalyReport {
        h2d_outliers: h2d_outliers(timeline, config),
        kernel_slowdowns: kernel_slowdowns(timeline, config),
    }
}

/// Flags H2D copies that are outliers against the timeline's other H2D
/// copies — the engine-upload spike the paper's Table X subtracts out.
///
/// The score is a modified z-score: distance from the median in units of
/// `1.4826 × MAD`. When the MAD is zero (all other copies identical — the
/// common per-frame-input case), any copy slower than
/// [`DetectorConfig::h2d_ratio_threshold`] × median is flagged with an
/// infinite z-score. Fewer than three H2D copies yield no findings: there is
/// no population to be an outlier of.
pub fn h2d_outliers(timeline: &GpuTimeline, config: &DetectorConfig) -> Vec<H2dOutlier> {
    let copies: Vec<_> = timeline
        .memcpys()
        .iter()
        .filter(|m| m.kind == CopyKind::HostToDevice && !m.duration_us.is_nan())
        .collect();
    if copies.len() < 3 {
        return Vec::new();
    }
    let durations: Vec<f64> = copies.iter().map(|m| m.duration_us).collect();
    let med = median(&durations);
    let deviations: Vec<f64> = durations.iter().map(|d| (d - med).abs()).collect();
    let mad = median(&deviations);
    let spread = 1.4826 * mad;
    let mut findings: Vec<H2dOutlier> = copies
        .into_iter()
        .filter_map(|m| {
            let z = if spread > 0.0 {
                (m.duration_us - med) / spread
            } else if med > 0.0 && m.duration_us >= config.h2d_ratio_threshold * med {
                f64::INFINITY
            } else {
                0.0
            };
            (z >= config.h2d_z_threshold).then_some(H2dOutlier {
                stream: m.stream,
                seq: m.seq,
                bytes: m.bytes,
                duration_us: m.duration_us,
                median_us: med,
                z_score: z,
            })
        })
        .collect();
    // Deterministic span order regardless of which thread enqueued first.
    findings.sort_by_key(|o| (o.stream, o.seq));
    findings
}

/// Flags kernel invocations that run at least
/// [`DetectorConfig::slowdown_ratio`] × their own symbol's median
/// per-invocation time — the paper's Table XIII spread, localized to the
/// specific launch (span id included) rather than a per-symbol average.
pub fn kernel_slowdowns(timeline: &GpuTimeline, config: &DetectorConfig) -> Vec<KernelSlowdown> {
    let mut by_symbol: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for k in timeline.kernels() {
        if !k.duration_us.is_nan() {
            by_symbol.entry(&k.name).or_default().push(k.duration_us);
        }
    }
    let medians: BTreeMap<&str, f64> = by_symbol
        .into_iter()
        .filter(|(_, durs)| durs.len() >= config.min_invocations)
        .map(|(name, durs)| (name, median(&durs)))
        .collect();
    let mut findings: Vec<KernelSlowdown> = timeline
        .kernels()
        .iter()
        .filter_map(|k| {
            let &med = medians.get(&*k.name)?;
            if med <= 0.0 || k.duration_us < config.slowdown_ratio * med {
                return None;
            }
            Some(KernelSlowdown {
                name: k.name.to_string(),
                stream: k.stream,
                seq: k.seq,
                duration_us: k.duration_us,
                median_us: med,
                ratio: k.duration_us / med,
            })
        })
        .collect();
    // Records land in the timeline in wall-clock lock-acquisition order,
    // which races across streams; span order is the deterministic one.
    findings.sort_by_key(|s| (s.stream, s.seq));
    findings
}

/// Diffs the kernel sets of two timelines — builds of the same model, or the
/// same engine on two platforms. Symbol lists are sorted; an identical pair
/// of timelines yields an empty diff.
pub fn kernel_set_diff(a: &GpuTimeline, b: &GpuTimeline) -> KernelSetDiff {
    let count = |tl: &GpuTimeline| -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for k in tl.kernels() {
            *m.entry(k.name.to_string()).or_insert(0) += 1;
        }
        m
    };
    let ca = count(a);
    let cb = count(b);
    let mut diff = KernelSetDiff::default();
    for (name, &n_a) in &ca {
        match cb.get(name) {
            None => diff.only_in_a.push(name.clone()),
            Some(&n_b) if n_b != n_a => diff.count_changes.push((name.clone(), n_a, n_b)),
            Some(_) => {}
        }
    }
    for name in cb.keys() {
        if !ca.contains_key(name) {
            diff.only_in_b.push(name.clone());
        }
    }
    diff
}

/// Renders a report the way the experiment harnesses print tables.
pub fn format_report(report: &AnomalyReport) -> String {
    let mut out = String::from("==ANOMALY== trace findings:\n");
    if report.is_empty() {
        out.push_str("  (none)\n");
        return out;
    }
    for o in &report.h2d_outliers {
        out.push_str(&format!(
            "  H2D outlier: stream {} seq {} — {} bytes in {:.1}us (median {:.1}us, z {:.1})\n",
            o.stream, o.seq, o.bytes, o.duration_us, o.median_us, o.z_score
        ));
    }
    for s in &report.kernel_slowdowns {
        out.push_str(&format!(
            "  kernel slowdown: {} stream {} seq {} — {:.1}us vs median {:.1}us ({:.2}x)\n",
            s.name, s.stream, s.seq, s.duration_us, s.median_us, s.ratio
        ));
    }
    out
}

/// Median of an unsorted, non-empty, NaN-free slice (0 when empty).
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_gpu::device::DeviceSpec;
    use trtsim_gpu::kernel::KernelDesc;

    fn device() -> DeviceSpec {
        DeviceSpec::xavier_nx()
    }

    #[test]
    fn engine_upload_spike_is_flagged() {
        let mut tl = GpuTimeline::new(device());
        let s = tl.create_stream();
        tl.enqueue_h2d(s, 60 << 20); // engine upload: tens of MB
        for _ in 0..8 {
            tl.enqueue_h2d(s, 600 * 1024); // per-frame inputs
        }
        let found = h2d_outliers(&tl, &DetectorConfig::default());
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].bytes, 60 << 20);
        assert_eq!(found[0].seq, 0);
        assert!(found[0].z_score >= 3.5);
    }

    #[test]
    fn uniform_copies_have_no_outliers() {
        let mut tl = GpuTimeline::new(device());
        let s = tl.create_stream();
        for _ in 0..6 {
            tl.enqueue_h2d(s, 1 << 20);
        }
        assert!(h2d_outliers(&tl, &DetectorConfig::default()).is_empty());
    }

    #[test]
    fn too_small_population_yields_nothing() {
        let mut tl = GpuTimeline::new(device());
        let s = tl.create_stream();
        tl.enqueue_h2d(s, 60 << 20);
        tl.enqueue_h2d(s, 1024);
        assert!(h2d_outliers(&tl, &DetectorConfig::default()).is_empty());
    }

    #[test]
    fn slow_invocation_of_a_symbol_is_flagged() {
        let mut tl = GpuTimeline::new(device());
        let s = tl.create_stream();
        let fast = KernelDesc::new("conv").grid(6, 128).flops(1_000_000);
        let slow = KernelDesc::new("conv").grid(6, 128).flops(10_000_000);
        for _ in 0..4 {
            tl.enqueue_kernel(s, &fast);
        }
        tl.enqueue_kernel(s, &slow);
        let found = kernel_slowdowns(&tl, &DetectorConfig::default());
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].name, "conv");
        assert_eq!(found[0].seq, 4);
        assert!(found[0].ratio > 1.25);
    }

    #[test]
    fn rare_symbols_are_not_judged() {
        let mut tl = GpuTimeline::new(device());
        let s = tl.create_stream();
        tl.enqueue_kernel(s, &KernelDesc::new("a").grid(6, 128).flops(1_000_000));
        tl.enqueue_kernel(s, &KernelDesc::new("a").grid(6, 128).flops(9_000_000));
        assert!(kernel_slowdowns(&tl, &DetectorConfig::default()).is_empty());
    }

    #[test]
    fn set_diff_sees_drift_and_count_changes() {
        let mk = |names: &[&str]| {
            let mut tl = GpuTimeline::new(device());
            let s = tl.create_stream();
            for &n in names {
                tl.enqueue_kernel(s, &KernelDesc::new(n).grid(6, 128).flops(1_000));
            }
            tl
        };
        let a = mk(&["winograd", "winograd", "gemm", "relu"]);
        let b = mk(&["winograd", "gemm", "fft"]);
        let diff = kernel_set_diff(&a, &b);
        assert_eq!(diff.only_in_a, vec!["relu".to_string()]);
        assert_eq!(diff.only_in_b, vec!["fft".to_string()]);
        assert_eq!(diff.count_changes, vec![("winograd".to_string(), 2, 1)]);
        assert!(!diff.is_empty());
        assert!(kernel_set_diff(&a, &a).is_empty());
    }

    #[test]
    fn empty_timeline_reports_empty() {
        let tl = GpuTimeline::new(device());
        let report = detect(&tl, &DetectorConfig::default());
        assert!(report.is_empty());
        assert!(format_report(&report).contains("(none)"));
    }

    #[test]
    fn report_formats_findings() {
        let mut tl = GpuTimeline::new(device());
        let s = tl.create_stream();
        tl.enqueue_h2d(s, 60 << 20);
        for _ in 0..8 {
            tl.enqueue_h2d(s, 600 * 1024);
        }
        let text = format_report(&detect(&tl, &DetectorConfig::default()));
        assert!(text.contains("H2D outlier"));
    }
}
