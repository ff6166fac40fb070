//! Steady-state multi-stream concurrency model (paper Figures 3 and 4).
//!
//! The paper binds N inference threads to N CUDA streams in one context and
//! measures aggregate FPS and GR3D utilization as N grows. Observed behaviour:
//! throughput saturates almost immediately (one stream already keeps the GPU
//! ~60 % busy), utilization climbs toward a platform ceiling (~82 % NX /
//! ~86 % AGX), and the supported thread count is bounded by RAM bandwidth —
//! the paper's Equation 1, `N = O(Fmem·Bwid / Bth)`.
//!
//! This module computes those curves from an [`EngineProfile`] — per-inference
//! GPU busy time, host gap, and DRAM traffic — rather than from hard-coded
//! figures, so different engines (Tiny-YOLOv3 vs GoogLeNet) produce different
//! saturation points exactly as in the paper.

use crate::device::DeviceSpec;

/// Aggregate per-inference execution profile of a built engine, measured by
/// running it once on the simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineProfile {
    /// GPU busy time per inference, µs (kernel roofline times, no launches).
    pub busy_us: f64,
    /// Host-side serial time per inference, µs (launches, sync, glue).
    pub gap_us: f64,
    /// DRAM bytes touched per inference (weights + activations after cache).
    pub dram_bytes: u64,
    /// Per-stream activation/workspace memory, bytes.
    pub activation_bytes: u64,
    /// Shared engine weight memory, bytes.
    pub weight_bytes: u64,
}

impl EngineProfile {
    /// Single-stream latency, µs.
    pub fn latency_us(&self) -> f64 {
        self.busy_us + self.gap_us
    }

    /// Single-stream throughput, inferences/s.
    pub fn fps_single(&self) -> f64 {
        1e6 / self.latency_us()
    }

    /// Single-stream GR3D utilization (busy fraction of the cycle).
    pub fn utilization_single(&self) -> f64 {
        self.busy_us / self.latency_us()
    }
}

/// What limited the supported thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadBound {
    /// RAM bandwidth (Equation 1) ran out first.
    Bandwidth,
    /// GPU-usable DRAM capacity ran out first.
    Memory,
}

/// One point of the Figure 3/4 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyPoint {
    /// Thread (= stream) count.
    pub threads: u32,
    /// Aggregate throughput across all threads, inferences/s.
    pub fps: f64,
    /// GR3D utilization in `[0, 1]`.
    pub utilization: f64,
}

/// Multiplier on busy time once many streams fight for DRAM (calibrated:
/// kernels slow by ~25 % under full bandwidth pressure).
const CONTENTION_INFLATION: f64 = 1.25;

/// Fraction of single-stream busy time spent in DRAM above which saturation
/// is attributed to RAM bandwidth (the paper: "RAM bandwidth bottleneck marks
/// this thread saturation point").
const BANDWIDTH_BOUND_FRACTION: f64 = 0.4;

/// Maximum threads the device supports for this engine, with the dominant
/// saturation cause.
///
/// The *count* is bounded by DRAM capacity — each stream's execution context
/// allocates every activation binding (multiply-buffered) plus workspace, and
/// thread creation fails once the CUDA heap is exhausted. The *cause* of
/// throughput saturation is classified by where the single-stream busy time
/// goes: engines whose kernels are dominated by DRAM traffic saturate the
/// memory system (Eq. 1's regime) long before they run out of SMs.
pub fn max_threads(profile: &EngineProfile, device: &DeviceSpec) -> (u32, ThreadBound) {
    let free = device
        .gpu_usable_dram_bytes()
        .saturating_sub(profile.weight_bytes);
    let n_mem = ((free / profile.activation_bytes.max(1)) as u32).max(1);
    let mem_time_us = profile.dram_bytes as f64 / device.effective_dram_bytes_per_us();
    let bound = if mem_time_us >= BANDWIDTH_BOUND_FRACTION * profile.busy_us {
        ThreadBound::Bandwidth
    } else {
        ThreadBound::Memory
    };
    (n_mem, bound)
}

/// The paper's Equation 1 order-of-magnitude check,
/// `N = O(Fmem · Bwid / Bth)`: the thread count at which the aggregate DRAM
/// demand would hit the memory system's roof, with `Bth` the per-thread
/// bandwidth consumption at the operating point.
pub fn equation1_threads(profile: &EngineProfile, device: &DeviceSpec) -> u32 {
    let (n_max, _) = max_threads(profile, device);
    let sat = point_at(profile, device, n_max);
    let per_thread_bytes_per_s = sat.fps / f64::from(n_max) * profile.dram_bytes as f64;
    let bw_total = device.effective_dram_bytes_per_us() * 1e6;
    ((bw_total / per_thread_bytes_per_s).floor() as u32).max(1)
}

/// Aggregate throughput and utilization at a given thread count.
pub fn point_at(profile: &EngineProfile, device: &DeviceSpec, threads: u32) -> ConcurrencyPoint {
    assert!(threads >= 1, "thread count must be positive");
    let n = f64::from(threads);

    // Saturated busy time: bandwidth pressure inflates kernels.
    let busy_sat = profile.busy_us * CONTENTION_INFLATION;

    // Throughput ceilings: GPU back-to-back at the utilization cap, and the
    // DRAM bandwidth roof.
    let fps_compute_cap = device.max_gr3d_utilization * 1e6 / busy_sat;
    let fps_bw_cap = device.effective_dram_bytes_per_us() * 1e6 / profile.dram_bytes as f64;
    let fps_ceiling = fps_compute_cap.min(fps_bw_cap);

    // Saturation pace scales with the supported range so the curves keep
    // rising across the whole sweep, as the paper's figures do.
    let (n_max, _) = max_threads(profile, device);
    let tau = (f64::from(n_max) / 3.0).max(3.0);

    let fps1 = profile.fps_single();
    let blend = 1.0 - (-(n - 1.0) / tau).exp();
    let fps = fps1 + (fps_ceiling - fps1) * blend;

    // Effective busy time drifts from the uncontended value toward the
    // saturated one along the same curve, so utilization = fps · busy.
    let busy_eff = profile.busy_us + (busy_sat - profile.busy_us) * blend;
    let utilization = (fps * busy_eff / 1e6).min(device.max_gr3d_utilization);

    ConcurrencyPoint {
        threads,
        fps,
        utilization,
    }
}

/// Full sweep from 1 to the supported maximum (Figures 3/4 series).
pub fn sweep(profile: &EngineProfile, device: &DeviceSpec) -> (Vec<ConcurrencyPoint>, ThreadBound) {
    let (n_max, bound) = max_threads(profile, device);
    let points = (1..=n_max).map(|n| point_at(profile, device, n)).collect();
    (points, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    /// A Tiny-YOLOv3-like profile on NX at max clock: ~4.5 ms latency with
    /// the GPU ~52 % busy, ~50 MB DRAM traffic, ~195 MB per-stream context.
    fn tiny_profile() -> EngineProfile {
        EngineProfile {
            busy_us: 2400.0,
            gap_us: 2200.0,
            dram_bytes: 50_000_000,
            activation_bytes: 195 << 20,
            weight_bytes: 18 << 20,
        }
    }

    /// A GoogLeNet-like profile: more launches ⇒ much larger per-stream
    /// context, similar activation volume.
    fn googlenet_profile() -> EngineProfile {
        EngineProfile {
            busy_us: 1900.0,
            gap_us: 4700.0,
            dram_bytes: 46_000_000,
            activation_bytes: 380 << 20,
            weight_bytes: 14 << 20,
        }
    }

    #[test]
    fn single_stream_quantities() {
        let p = tiny_profile();
        assert!((p.latency_us() - 4600.0).abs() < 1e-9);
        assert!((p.fps_single() - 217.4).abs() < 1.0);
        assert!((p.utilization_single() - 0.5217).abs() < 0.01);
    }

    #[test]
    fn fps_rises_modestly_and_saturates() {
        let p = tiny_profile();
        let dev = DeviceSpec::xavier_nx();
        let p1 = point_at(&p, &dev, 1);
        let (n_max, _) = max_threads(&p, &dev);
        let p_sat = point_at(&p, &dev, n_max);
        assert!(p_sat.fps > p1.fps);
        // The paper's Figure 3a: 189 → ~196 FPS; shape = small relative rise.
        assert!(p_sat.fps / p1.fps < 1.6, "rise {}", p_sat.fps / p1.fps);
    }

    #[test]
    fn utilization_approaches_platform_cap() {
        let p = tiny_profile();
        let dev = DeviceSpec::xavier_nx();
        let p1 = point_at(&p, &dev, 1);
        let (n_max, _) = max_threads(&p, &dev);
        let p_sat = point_at(&p, &dev, n_max);
        assert!(p1.utilization < 0.70);
        assert!(p_sat.utilization > 0.70 && p_sat.utilization <= dev.max_gr3d_utilization);
    }

    #[test]
    fn utilization_is_monotone() {
        let p = tiny_profile();
        let dev = DeviceSpec::xavier_nx();
        let mut last = 0.0;
        let (n_max, _) = max_threads(&p, &dev);
        for n in 1..=n_max {
            let pt = point_at(&p, &dev, n);
            assert!(pt.utilization >= last - 1e-12);
            last = pt.utilization;
        }
    }

    #[test]
    fn thread_counts_land_in_the_paper_band() {
        // Paper Figure 3a/4a: Tiny-YOLOv3 28, GoogLeNet 16 on NX.
        let dev = DeviceSpec::xavier_nx();
        let (n_tiny, bound) = max_threads(&tiny_profile(), &dev);
        assert!((20..=36).contains(&n_tiny), "tiny: {n_tiny}");
        assert_eq!(bound, ThreadBound::Bandwidth, "DRAM-heavy engine");
        let (n_goog, _) = max_threads(&googlenet_profile(), &dev);
        assert!((10..=20).contains(&n_goog), "googlenet: {n_goog}");
        assert!(n_tiny > n_goog);
    }

    #[test]
    fn agx_supports_more_threads_than_nx() {
        let p = tiny_profile();
        let (n_nx, _) = max_threads(&p, &DeviceSpec::xavier_nx());
        let (n_agx, _) = max_threads(&p, &DeviceSpec::xavier_agx());
        assert!(n_agx > n_nx, "{n_agx} vs {n_nx}");
    }

    #[test]
    fn equation1_bound_is_consistent() {
        // Eq. 1 is an order-of-magnitude bound: the supported thread count
        // must not exceed it wildly.
        let p = tiny_profile();
        let dev = DeviceSpec::xavier_nx();
        let (n_max, _) = max_threads(&p, &dev);
        let n_eq1 = equation1_threads(&p, &dev);
        assert!(
            n_eq1 >= n_max / 2,
            "Eq.1 bound {n_eq1} far below supported {n_max}"
        );
    }

    #[test]
    fn compute_heavy_engine_is_memory_classified() {
        let p = EngineProfile {
            dram_bytes: 1_000_000, // negligible traffic
            ..tiny_profile()
        };
        let (_, bound) = max_threads(&p, &DeviceSpec::xavier_nx());
        assert_eq!(bound, ThreadBound::Memory);
    }

    #[test]
    fn huge_contexts_limit_threads() {
        let p = EngineProfile {
            activation_bytes: 2 << 30,
            ..tiny_profile()
        };
        let (n, _) = max_threads(&p, &DeviceSpec::xavier_nx());
        assert!(n <= 3);
    }

    #[test]
    fn sweep_has_expected_length() {
        let p = tiny_profile();
        let dev = DeviceSpec::xavier_nx();
        let (points, _) = sweep(&p, &dev);
        let (n_max, _) = max_threads(&p, &dev);
        assert_eq!(points.len(), n_max as usize);
        assert_eq!(points[0].threads, 1);
        assert_eq!(points.last().unwrap().threads, n_max);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threads_rejected() {
        point_at(&tiny_profile(), &DeviceSpec::xavier_nx(), 0);
    }
}
