//! A `tegrastats`-like sampler over a simulated timeline.
//!
//! The real utility prints RAM usage, GR3D (GPU) utilization, CPU load and
//! thermals once per interval of the device's clock. The paper uses it for
//! GPU utilization in the concurrency experiments; this module reproduces
//! the GPU columns by reading a [`GpuTimeline`] over windows of the
//! *simulated* clock ([`Sampler`]), so a reading is a pure function of the
//! timeline and the window, never of host scheduling.

use crate::device::{DeviceSpec, Platform};
use crate::timeline::{CopyKind, GpuTimeline, StreamId};

/// GPU-rail power estimate: idle floor plus dynamic power scaling with
/// utilization and quadratically with clock (CV²f at roughly constant
/// voltage steps — the usual first-order Jetson power model).
pub fn gpu_power_mw(device: &DeviceSpec, utilization: f64) -> f64 {
    let (idle_mw, dyn_mw) = match device.platform {
        Platform::Nx => (900.0, 9_500.0),
        Platform::Agx => (1_400.0, 19_000.0),
    };
    let clock_ratio = device.gpu_clock_mhz / device.max_gpu_clock_mhz;
    idle_mw + utilization.clamp(0.0, 1.0) * dyn_mw * clock_ratio * clock_ratio
}

/// One tegrastats reading: the GPU columns over the simulated window
/// `[start_us, end_us)` of a timeline. Rates are per *simulated* second.
#[derive(Debug, Clone, PartialEq)]
pub struct TegraSample {
    /// Window start on the simulated clock, µs.
    pub start_us: f64,
    /// Window end (the reading's timestamp), µs.
    pub end_us: f64,
    /// Occupancy-weighted GR3D utilization over the window, percent.
    pub gr3d_percent: f64,
    /// Estimated GPU-rail power draw at that utilization, milliwatts.
    pub gpu_power_mw: f64,
    /// Busy percentage of each stream, indexed by stream id.
    pub stream_busy_percent: Vec<f64>,
    /// Host-to-device copy traffic, bytes per simulated second.
    pub h2d_bytes_per_second: f64,
    /// Device-to-host copy traffic, bytes per simulated second.
    pub d2h_bytes_per_second: f64,
}

impl TegraSample {
    /// Reads `timeline` over the window `[start_us, end_us)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or inverted.
    pub fn window(timeline: &GpuTimeline, start_us: f64, end_us: f64) -> Self {
        assert!(end_us > start_us, "sampling window must be non-empty");
        let seconds = (end_us - start_us) / 1e6;
        let utilization = timeline.utilization_between(start_us, end_us);
        let (h2d, d2h) = memcpy_bytes_between(timeline, start_us, end_us);
        Self {
            start_us,
            end_us,
            gr3d_percent: utilization * 100.0,
            gpu_power_mw: gpu_power_mw(timeline.device(), utilization),
            stream_busy_percent: (0..timeline.stream_count())
                .map(|s| stream_busy_between(timeline, s, start_us, end_us) * 100.0)
                .collect(),
            h2d_bytes_per_second: h2d / seconds,
            d2h_bytes_per_second: d2h / seconds,
        }
    }
}

/// tegrastats' interval loop on the simulated clock: each reading covers
/// the window since the previous one, so a run read at any cadence is
/// partitioned into consecutive windows starting at 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sampler {
    last_us: f64,
}

impl Sampler {
    /// Reads `timeline` over `[previous reading, now_us)`; `None` when no
    /// simulated time has passed since the previous reading.
    pub fn sample(&mut self, timeline: &GpuTimeline, now_us: f64) -> Option<TegraSample> {
        if now_us <= self.last_us {
            return None;
        }
        let reading = TegraSample::window(timeline, self.last_us, now_us);
        self.last_us = now_us;
        Some(reading)
    }
}

/// Fraction of the window `[t0, t1)` during which `stream` had a kernel or
/// copy resident. Unlike [`GpuTimeline::utilization_between`] this is *not*
/// occupancy-weighted: it answers "was this stream doing device work",
/// the per-stream column a live concurrency dashboard wants. Returns 0 for
/// an empty or inverted window.
pub fn stream_busy_between(timeline: &GpuTimeline, stream: StreamId, t0: f64, t1: f64) -> f64 {
    if t1 <= t0 {
        return 0.0;
    }
    let mut busy = 0.0;
    for k in timeline.kernels().iter().filter(|k| k.stream == stream) {
        busy += overlap_us(k.start_us, k.duration_us, t0, t1);
    }
    for c in timeline.memcpys().iter().filter(|c| c.stream == stream) {
        busy += overlap_us(c.start_us, c.duration_us, t0, t1);
    }
    (busy / (t1 - t0)).min(1.0)
}

/// Bytes moved over PCIe/NVLink within `[t0, t1)`, split `(h2d, d2h)`.
/// Copies partially inside the window contribute pro-rata by overlap, so
/// windowed rates sum to the true total.
pub fn memcpy_bytes_between(timeline: &GpuTimeline, t0: f64, t1: f64) -> (f64, f64) {
    let (mut h2d, mut d2h) = (0.0, 0.0);
    if t1 <= t0 {
        return (h2d, d2h);
    }
    for c in timeline.memcpys() {
        // Instantaneous copies land fully in whichever window holds their
        // start; finite ones contribute by overlap fraction.
        let frac = if c.duration_us > 0.0 {
            overlap_us(c.start_us, c.duration_us, t0, t1) / c.duration_us
        } else if (t0..t1).contains(&c.start_us) {
            1.0
        } else {
            0.0
        };
        let bytes = c.bytes as f64 * frac;
        match c.kind {
            CopyKind::HostToDevice => h2d += bytes,
            CopyKind::DeviceToHost => d2h += bytes,
        }
    }
    (h2d, d2h)
}

fn overlap_us(start: f64, duration: f64, t0: f64, t1: f64) -> f64 {
    let s = start.max(t0);
    let e = (start + duration).min(t1);
    (e - s).max(0.0)
}

/// Mean GR3D utilization over the busy part of a run, percent.
pub fn mean_gr3d_percent(timeline: &GpuTimeline) -> f64 {
    let total = timeline.elapsed_us();
    if total == 0.0 {
        return 0.0;
    }
    timeline.utilization_between(0.0, total) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::kernel::{KernelDesc, Precision};

    fn busy_timeline() -> GpuTimeline {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        for _ in 0..5 {
            tl.enqueue_kernel(
                s,
                &KernelDesc::new("k")
                    .grid(48, 128)
                    .flops(200_000_000)
                    .precision(Precision::Fp16, true),
            );
        }
        tl
    }

    #[test]
    fn sampler_readings_partition_the_clock() {
        let mut tl = busy_timeline();
        let s = tl.create_stream();
        tl.enqueue_h2d(s, 1 << 20);
        let total = tl.elapsed_us();
        let mut sampler = Sampler::default();
        let first = sampler.sample(&tl, total / 3.0).expect("time passed");
        assert_eq!(sampler.sample(&tl, total / 3.0), None, "no time passed");
        let second = sampler.sample(&tl, total).expect("time passed");
        assert_eq!((first.start_us, first.end_us), (0.0, total / 3.0));
        assert_eq!((second.start_us, second.end_us), (total / 3.0, total));
        assert_eq!(second, TegraSample::window(&tl, total / 3.0, total));
        assert_eq!(first.stream_busy_percent.len(), 2);
        // The two windows' copy traffic adds up to the whole run's.
        let bytes = |r: &TegraSample| r.h2d_bytes_per_second * (r.end_us - r.start_us) / 1e6;
        assert!((bytes(&first) + bytes(&second) - (1u64 << 20) as f64).abs() < 1.0);
        assert!(first.gr3d_percent > 50.0, "the kernels run first");
    }

    #[test]
    fn busy_run_shows_high_utilization() {
        let tl = busy_timeline();
        assert!(mean_gr3d_percent(&tl) > 50.0);
    }

    #[test]
    fn power_scales_with_utilization_and_clock() {
        let nx = DeviceSpec::xavier_nx();
        assert!(gpu_power_mw(&nx, 0.8) > gpu_power_mw(&nx, 0.2));
        let pinned = DeviceSpec::pinned_clock(Platform::Nx);
        assert!(gpu_power_mw(&pinned, 0.8) < gpu_power_mw(&nx, 0.8));
        // Idle floor.
        assert!(gpu_power_mw(&nx, 0.0) > 0.0);
        let agx = DeviceSpec::xavier_agx();
        assert!(gpu_power_mw(&agx, 1.0) > gpu_power_mw(&nx, 1.0));
    }

    #[test]
    fn empty_timeline_has_zero_utilization() {
        let tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        assert_eq!(mean_gr3d_percent(&tl), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        TegraSample::window(&busy_timeline(), 5.0, 5.0);
    }

    #[test]
    fn stream_busy_is_per_stream() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let a = tl.create_stream();
        let b = tl.create_stream();
        tl.enqueue_kernel(
            a,
            &KernelDesc::new("k")
                .grid(48, 128)
                .flops(200_000_000)
                .precision(Precision::Fp16, true),
        );
        let total = tl.elapsed_us();
        let busy_a = stream_busy_between(&tl, a, 0.0, total);
        let busy_b = stream_busy_between(&tl, b, 0.0, total);
        assert!(busy_a > 0.5, "stream with the kernel is busy: {busy_a}");
        assert_eq!(busy_b, 0.0, "idle stream reports zero");
        assert_eq!(stream_busy_between(&tl, a, total, 0.0), 0.0);
    }

    #[test]
    fn windowed_memcpy_bytes_sum_to_total() {
        let mut tl = GpuTimeline::new(DeviceSpec::xavier_nx());
        let s = tl.create_stream();
        tl.enqueue_h2d(s, 1 << 20);
        tl.enqueue_d2h(s, 1 << 10);
        let total = tl.elapsed_us();
        let (h2d_all, d2h_all) = memcpy_bytes_between(&tl, 0.0, total);
        assert!((h2d_all - (1u64 << 20) as f64).abs() < 1.0);
        assert!((d2h_all - (1u64 << 10) as f64).abs() < 1.0);
        // Two half-windows sum to the whole.
        let mid = total / 2.0;
        let (h1, d1) = memcpy_bytes_between(&tl, 0.0, mid);
        let (h2, d2) = memcpy_bytes_between(&tl, mid, total);
        assert!((h1 + h2 - h2d_all).abs() < 1.0);
        assert!((d1 + d2 - d2h_all).abs() < 1.0);
    }
}
