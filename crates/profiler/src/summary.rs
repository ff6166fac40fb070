//! nvprof summary-mode aggregation.

use std::collections::BTreeMap;

use trtsim_gpu::timeline::{CopyKind, GpuTimeline};

/// Aggregate statistics for one kernel symbol.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    /// Kernel symbol.
    pub name: String,
    /// Invocation count.
    pub calls: usize,
    /// Total busy time, µs.
    pub total_us: f64,
    /// Mean per-call time, µs.
    pub avg_us: f64,
    /// Fastest call, µs.
    pub min_us: f64,
    /// Slowest call, µs.
    pub max_us: f64,
}

/// Aggregate statistics for one copy direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemcpySummary {
    /// Direction.
    pub kind: CopyKind,
    /// Number of copies.
    pub calls: usize,
    /// Total time, µs.
    pub total_us: f64,
    /// Total bytes moved.
    pub total_bytes: u64,
}

/// The whole summary: kernels sorted by descending total time, plus copies.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSummary {
    /// Per-kernel aggregates, heaviest first.
    pub kernels: Vec<KernelSummary>,
    /// Copy aggregates (H2D, then D2H, when present).
    pub memcpys: Vec<MemcpySummary>,
    /// Total GPU busy time, µs.
    pub gpu_total_us: f64,
}

impl ProfileSummary {
    /// Total time attributed to `cudaMemcpyHostToDevice`, µs — the quantity
    /// the paper's Table X subtracts out.
    pub fn h2d_total_us(&self) -> f64 {
        self.memcpys
            .iter()
            .filter(|m| m.kind == CopyKind::HostToDevice)
            .map(|m| m.total_us)
            .sum()
    }

    /// Look up one kernel's aggregate by symbol.
    pub fn kernel(&self, name: &str) -> Option<&KernelSummary> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// Summarizes a finished timeline (nvprof summary mode).
pub fn summarize(timeline: &GpuTimeline) -> ProfileSummary {
    let mut by_name: BTreeMap<&str, KernelSummary> = BTreeMap::new();
    for k in timeline.kernels() {
        let entry = by_name.entry(&k.name).or_insert_with(|| KernelSummary {
            name: k.name.to_string(),
            calls: 0,
            total_us: 0.0,
            avg_us: 0.0,
            min_us: f64::INFINITY,
            max_us: 0.0,
        });
        entry.calls += 1;
        entry.total_us += k.duration_us;
        entry.min_us = entry.min_us.min(k.duration_us);
        entry.max_us = entry.max_us.max(k.duration_us);
    }
    let mut kernels: Vec<KernelSummary> = by_name
        .into_values()
        .map(|mut k| {
            k.avg_us = k.total_us / k.calls as f64;
            k
        })
        .collect();
    kernels.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));

    let mut memcpys: Vec<MemcpySummary> = Vec::new();
    for kind in [CopyKind::HostToDevice, CopyKind::DeviceToHost] {
        let records: Vec<_> = timeline
            .memcpys()
            .iter()
            .filter(|m| m.kind == kind)
            .collect();
        if records.is_empty() {
            continue;
        }
        memcpys.push(MemcpySummary {
            kind,
            calls: records.len(),
            total_us: records.iter().map(|m| m.duration_us).sum(),
            total_bytes: records.iter().map(|m| m.bytes).sum(),
        });
    }
    let gpu_total_us = kernels.iter().map(|k| k.total_us).sum();
    ProfileSummary {
        kernels,
        memcpys,
        gpu_total_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_gpu::device::DeviceSpec;
    use trtsim_gpu::kernel::{KernelDesc, Precision};

    fn timeline() -> GpuTimeline {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        tl.enqueue_h2d(s, 1 << 20);
        let big = KernelDesc::new("big_kernel")
            .grid(48, 256)
            .flops(500_000_000)
            .precision(Precision::Fp16, true);
        let small = KernelDesc::new("small_kernel")
            .grid(6, 128)
            .flops(1_000_000);
        tl.enqueue_kernel(s, &big);
        tl.enqueue_kernel(s, &small);
        tl.enqueue_kernel(s, &big);
        tl.enqueue_d2h(s, 4096);
        tl
    }

    #[test]
    fn kernels_aggregate_by_name() {
        let s = summarize(&timeline());
        assert_eq!(s.kernels.len(), 2);
        assert_eq!(s.kernels[0].name, "big_kernel"); // heaviest first
        assert_eq!(s.kernels[0].calls, 2);
        assert!(s.kernels[0].total_us > s.kernels[1].total_us);
        assert!((s.kernels[0].avg_us - s.kernels[0].total_us / 2.0).abs() < 1e-9);
    }

    #[test]
    fn memcpys_split_by_direction() {
        let s = summarize(&timeline());
        assert_eq!(s.memcpys.len(), 2);
        assert!(s.h2d_total_us() > 0.0);
        assert_eq!(s.memcpys[0].kind, CopyKind::HostToDevice);
        assert_eq!(s.memcpys[0].total_bytes, 1 << 20);
    }

    #[test]
    fn lookup_by_name() {
        let s = summarize(&timeline());
        assert!(s.kernel("big_kernel").is_some());
        assert!(s.kernel("missing").is_none());
    }

    #[test]
    fn empty_timeline_summarizes_empty() {
        let tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = summarize(&tl);
        assert!(s.kernels.is_empty());
        assert!(s.memcpys.is_empty());
        assert_eq!(s.gpu_total_us, 0.0);
    }
}
