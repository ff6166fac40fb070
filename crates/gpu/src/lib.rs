//! Analytic simulator of Volta-class embedded GPUs (Jetson Xavier NX / AGX).
//!
//! The paper's performance findings are first-order functions of a handful of
//! architectural quantities — SM count, CUDA/tensor core throughput, clocks,
//! LPDDR4x bandwidth, cache sizes, kernel-launch overhead, and host-to-device
//! copy behaviour. This crate models exactly those quantities:
//!
//! * [`device`] — the two evaluation platforms of the paper's Table I, plus a
//!   builder for hypothetical configurations.
//! * [`kernel`] — descriptors of simulated CUDA kernel launches (grid/block
//!   geometry, FLOPs, DRAM traffic, precision).
//! * [`timing`] — the roofline-with-wave-quantization execution-time model.
//!   Wave quantization is what lets a 6-SM NX beat an 8-SM AGX on kernels
//!   whose grids divide 6 but not 8 — one of the paper's latency anomalies.
//! * [`memcpy`] — `cudaMemcpyHostToDevice` cost (per-transfer latency plus
//!   bandwidth term); the AGX's higher transfer setup latency reproduces the
//!   paper's Table X memcpy anomaly.
//! * [`timeline`] — event-ordered execution of kernel sequences on streams,
//!   producing the traces that the nvprof-like profiler consumes.
//! * [`contention`] — steady-state multi-stream concurrency model (Figures
//!   3/4): per-thread FPS, GPU utilization, and the Eq. 1 thread bound.
//! * [`tegrastats`] — tegrastats-like readings of a timeline over windows
//!   of the simulated clock.
//!
//! Simulated time is measured in microseconds (`f64`).
//!
//! # Examples
//!
//! ```
//! use trtsim_gpu::device::DeviceSpec;
//! use trtsim_gpu::kernel::{KernelDesc, Precision};
//! use trtsim_gpu::timing::kernel_time_us;
//!
//! let nx = DeviceSpec::xavier_nx();
//! let k = KernelDesc::new("demo_kernel")
//!     .grid(12, 256)
//!     .flops(40_000_000)
//!     .dram_bytes(1 << 20)
//!     .precision(Precision::Fp16, true);
//! let t = kernel_time_us(&k, &nx);
//! assert!(t > 0.0);
//! ```

#![warn(missing_docs)]

pub mod contention;
pub mod device;
pub mod kernel;
pub mod memcpy;
pub mod tegrastats;
pub mod timeline;
pub mod timing;

pub use device::{DeviceSpec, Platform};
pub use kernel::{KernelDesc, Precision};
pub use timeline::{GpuTimeline, KernelRecord, MemcpyRecord, StreamId};
