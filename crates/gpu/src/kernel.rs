//! Simulated CUDA kernel launch descriptors.
//!
//! A [`KernelDesc`] carries everything the timing model and the BSP
//! performance model need to know about one launch: geometry, arithmetic
//! work, memory traffic by level, and precision. The tactic catalog in
//! `trtsim-kernels` constructs these from layer shapes.
//!
//! Each descriptor also carries an *inline content fingerprint*
//! ([`KernelDesc::content_fingerprint`]): a 128-bit FNV-style fold over
//! every field the timing model reads, computed lazily on first use and
//! cached in the struct. The timing cache keys on it, so a warm-cache query
//! costs one cached load plus a map probe instead of re-folding the name
//! string every time.

use std::sync::{Arc, OnceLock};

/// Numeric precision a kernel computes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit floating point on CUDA cores.
    Fp32,
    /// 16-bit floating point (tensor cores when the kernel supports them).
    Fp16,
    /// 8-bit integer dot products (DP4A).
    Int8,
}

impl Precision {
    /// Bytes per element in this precision.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Fp32 => 4,
            Precision::Fp16 => 2,
            Precision::Int8 => 1,
        }
    }

    /// Short label used in kernel names ("fp32"/"h884"/"i8816").
    pub fn label(self) -> &'static str {
        match self {
            Precision::Fp32 => "fp32",
            Precision::Fp16 => "h884",
            Precision::Int8 => "i8816",
        }
    }
}

/// One simulated kernel launch.
///
/// Construct with the builder-style methods; all quantities default to a
/// trivial empty kernel.
///
/// # Examples
///
/// ```
/// use trtsim_gpu::kernel::{KernelDesc, Precision};
/// let k = KernelDesc::new("trt_volta_h884cudnn_256x64")
///     .grid(24, 256)
///     .flops(1_000_000)
///     .dram_bytes(65_536)
///     .precision(Precision::Fp16, true)
///     .efficiency(0.55);
/// assert_eq!(k.total_threads(), 24 * 256);
/// ```
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Kernel symbol name (TensorRT-style, produced by the tactic catalog).
    /// Shared: clones, batch-scaled copies and every timeline record of this
    /// kernel point at one allocation.
    pub name: Arc<str>,
    /// Thread blocks in the grid.
    pub grid_blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Concurrent blocks one SM can host for this kernel (occupancy).
    pub blocks_per_sm: u32,
    /// Total floating-point (or int) operations performed.
    pub flops: u64,
    /// Bytes moved to/from DRAM after cache filtering.
    pub dram_bytes: u64,
    /// Bytes served from L2.
    pub l2_bytes: u64,
    /// Bytes served from shared memory (per-block staging traffic).
    pub shared_bytes: u64,
    /// Per-resident-block L2 working set in bytes. Both Xavier boards have
    /// 512 KiB of L2, but the AGX's 8 SMs each get a smaller share than the
    /// NX's 6; tactics whose working set straddles the two shares spill to
    /// DRAM on AGX only — the microarchitectural root of the paper's
    /// "same kernel slower on the bigger board" anomaly (Table XI).
    pub l2_working_set_bytes: u64,
    /// Compute precision.
    pub precision: Precision,
    /// Whether the kernel uses tensor cores (HMMA path).
    pub uses_tensor_cores: bool,
    /// Fraction of peak arithmetic throughput this kernel sustains
    /// (tactic-specific; tuned kernels reach 0.5–0.8, generic ones 0.1–0.3).
    pub compute_efficiency: f64,
    /// Lazily computed [`KernelDesc::content_fingerprint`]; every builder
    /// method resets it. Excluded from equality.
    fingerprint: OnceLock<u128>,
}

impl PartialEq for KernelDesc {
    fn eq(&self, other: &Self) -> bool {
        // The cached fingerprint is derived state — two descriptors are the
        // same kernel whether or not either has been fingerprinted yet.
        self.name == other.name
            && self.grid_blocks == other.grid_blocks
            && self.threads_per_block == other.threads_per_block
            && self.blocks_per_sm == other.blocks_per_sm
            && self.flops == other.flops
            && self.dram_bytes == other.dram_bytes
            && self.l2_bytes == other.l2_bytes
            && self.shared_bytes == other.shared_bytes
            && self.l2_working_set_bytes == other.l2_working_set_bytes
            && self.precision == other.precision
            && self.uses_tensor_cores == other.uses_tensor_cores
            && self.compute_efficiency == other.compute_efficiency
    }
}

/// A pair of independent FNV-1a-style 64-bit accumulators folded in one pass
/// over the fingerprint material; together they form a 128-bit fingerprint.
#[derive(Clone, Copy)]
struct Fold2 {
    a: u64,
    b: u64,
}

impl Fold2 {
    fn new() -> Self {
        // FNV-1a offset basis and a second arbitrary odd basis so the two
        // lanes decorrelate.
        Self {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9e37_79b9_7f4a_7c15,
        }
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        self.a = (self.a ^ v).wrapping_mul(0x1000_0000_01b3).rotate_left(29);
        self.b = (self.b ^ v)
            .wrapping_mul(0xff51_afd7_ed55_8ccd)
            .rotate_left(31);
    }

    /// Folds a byte string eight bytes at a time (length is folded too, so
    /// `"ab" + "c"` and `"a" + "bc"` cannot alias).
    #[inline]
    fn bytes(&mut self, s: &[u8]) {
        self.u64(s.len() as u64);
        let mut chunks = s.chunks_exact(8);
        for c in &mut chunks {
            self.u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.u64(u64::from_le_bytes(tail));
        }
    }

    fn finish(self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

impl KernelDesc {
    /// Creates an empty kernel with the given name.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        Self {
            name: name.into(),
            grid_blocks: 1,
            threads_per_block: 128,
            blocks_per_sm: 2,
            flops: 0,
            dram_bytes: 0,
            l2_bytes: 0,
            shared_bytes: 0,
            l2_working_set_bytes: 0,
            precision: Precision::Fp32,
            uses_tensor_cores: false,
            compute_efficiency: 0.5,
            fingerprint: OnceLock::new(),
        }
    }

    /// Stable 128-bit fingerprint over every field the timing model reads,
    /// computed once and cached inline — the timing cache's key material.
    ///
    /// The builder methods reset the cached value; code that assigns to the
    /// public fields directly after a fingerprint has been taken must call
    /// [`KernelDesc::reset_fingerprint`] or cache lookups will serve stale
    /// times.
    pub fn content_fingerprint(&self) -> u128 {
        *self.fingerprint.get_or_init(|| {
            let mut f = Fold2::new();
            f.bytes(self.name.as_bytes());
            f.u64(self.grid_blocks);
            f.u64(u64::from(self.threads_per_block));
            f.u64(u64::from(self.blocks_per_sm));
            f.u64(self.flops);
            f.u64(self.dram_bytes);
            f.u64(self.l2_bytes);
            f.u64(self.shared_bytes);
            f.u64(self.l2_working_set_bytes);
            f.u64(self.precision as u64);
            f.u64(u64::from(self.uses_tensor_cores));
            f.u64(self.compute_efficiency.to_bits());
            f.finish()
        })
    }

    /// Drops the cached [`KernelDesc::content_fingerprint`] after direct
    /// field mutation (the builder methods do this automatically).
    pub fn reset_fingerprint(&mut self) {
        self.fingerprint = OnceLock::new();
    }

    /// Sets grid geometry.
    pub fn grid(mut self, blocks: u64, threads_per_block: u32) -> Self {
        self.grid_blocks = blocks.max(1);
        self.threads_per_block = threads_per_block.max(1);
        self.reset_fingerprint();
        self
    }

    /// Sets occupancy (concurrent blocks per SM).
    pub fn occupancy(mut self, blocks_per_sm: u32) -> Self {
        self.blocks_per_sm = blocks_per_sm.max(1);
        self.reset_fingerprint();
        self
    }

    /// Sets total arithmetic work.
    pub fn flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self.reset_fingerprint();
        self
    }

    /// Sets DRAM traffic.
    pub fn dram_bytes(mut self, bytes: u64) -> Self {
        self.dram_bytes = bytes;
        self.reset_fingerprint();
        self
    }

    /// Sets L2 traffic.
    pub fn l2_bytes(mut self, bytes: u64) -> Self {
        self.l2_bytes = bytes;
        self.reset_fingerprint();
        self
    }

    /// Sets shared-memory traffic.
    pub fn shared_bytes(mut self, bytes: u64) -> Self {
        self.shared_bytes = bytes;
        self.reset_fingerprint();
        self
    }

    /// Sets the per-resident-block L2 working set.
    pub fn l2_working_set(mut self, bytes: u64) -> Self {
        self.l2_working_set_bytes = bytes;
        self.reset_fingerprint();
        self
    }

    /// Sets precision and tensor-core usage.
    pub fn precision(mut self, precision: Precision, tensor_cores: bool) -> Self {
        self.precision = precision;
        self.uses_tensor_cores = tensor_cores && precision == Precision::Fp16;
        self.reset_fingerprint();
        self
    }

    /// Sets sustained fraction of peak throughput.
    ///
    /// # Panics
    ///
    /// Panics if `eff` is outside `(0, 1]`.
    pub fn efficiency(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0, "efficiency must be in (0, 1]");
        self.compute_efficiency = eff;
        self.reset_fingerprint();
        self
    }

    /// Scales this launch to process `batch` inputs in one grid: a batched
    /// kernel does `batch`× the arithmetic and moves `batch`× the traffic
    /// across a `batch`× grid, but still costs a *single* launch — the
    /// amortization dynamic batching exploits (Triton-style serving on
    /// TensorRT engines). The per-resident-block L2 working set is
    /// unchanged: batching adds blocks, not per-block state.
    pub fn with_batch(mut self, batch: u64) -> Self {
        let b = batch.max(1);
        self.grid_blocks = self.grid_blocks.saturating_mul(b);
        self.flops = self.flops.saturating_mul(b);
        self.dram_bytes = self.dram_bytes.saturating_mul(b);
        self.l2_bytes = self.l2_bytes.saturating_mul(b);
        self.shared_bytes = self.shared_bytes.saturating_mul(b);
        self.reset_fingerprint();
        self
    }

    /// Total threads across the grid.
    pub fn total_threads(&self) -> u64 {
        self.grid_blocks * u64::from(self.threads_per_block)
    }

    /// Arithmetic instructions per thread (for the BSP model's `Comp` term);
    /// FLOPs divided evenly across threads.
    pub fn ops_per_thread(&self) -> f64 {
        self.flops as f64 / self.total_threads() as f64
    }

    /// Global loads+stores per thread in 4-byte words (BSP `ldg+stg`).
    pub fn global_words_per_thread(&self) -> f64 {
        (self.dram_bytes + self.l2_bytes) as f64 / 4.0 / self.total_threads() as f64
    }

    /// Shared loads+stores per thread in 4-byte words (BSP `lds+sts`).
    pub fn shared_words_per_thread(&self) -> f64 {
        self.shared_bytes as f64 / 4.0 / self.total_threads() as f64
    }

    /// Fraction of global accesses served by L2 (BSP cache-hit terms).
    pub fn l2_hit_fraction(&self) -> f64 {
        let total = (self.dram_bytes + self.l2_bytes) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.l2_bytes as f64 / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_batch_scales_work_not_working_set() {
        let k = KernelDesc::new("k")
            .grid(10, 64)
            .flops(100)
            .dram_bytes(32)
            .l2_bytes(16)
            .shared_bytes(8)
            .l2_working_set(4096);
        let b = k.clone().with_batch(4);
        assert_eq!(b.grid_blocks, 40);
        assert_eq!(b.flops, 400);
        assert_eq!(b.dram_bytes, 128);
        assert_eq!(b.l2_bytes, 64);
        assert_eq!(b.shared_bytes, 32);
        assert_eq!(b.l2_working_set_bytes, 4096);
        assert_eq!(b.threads_per_block, k.threads_per_block);
        assert_eq!(k.clone().with_batch(1), k);
    }

    #[test]
    fn builder_sets_fields() {
        let k = KernelDesc::new("k")
            .grid(10, 64)
            .flops(100)
            .dram_bytes(32)
            .l2_bytes(32)
            .shared_bytes(128)
            .precision(Precision::Fp16, true)
            .efficiency(0.7)
            .occupancy(4);
        assert_eq!(k.grid_blocks, 10);
        assert_eq!(k.total_threads(), 640);
        assert!(k.uses_tensor_cores);
        assert_eq!(k.l2_hit_fraction(), 0.5);
        assert_eq!(k.blocks_per_sm, 4);
    }

    #[test]
    fn tensor_cores_require_fp16() {
        let k = KernelDesc::new("k").precision(Precision::Int8, true);
        assert!(!k.uses_tensor_cores);
        let k = KernelDesc::new("k").precision(Precision::Fp32, true);
        assert!(!k.uses_tensor_cores);
    }

    #[test]
    fn per_thread_quantities() {
        let k = KernelDesc::new("k").grid(2, 50).flops(1000).dram_bytes(400);
        assert_eq!(k.ops_per_thread(), 10.0);
        assert_eq!(k.global_words_per_thread(), 1.0);
    }

    #[test]
    fn precision_sizes() {
        assert_eq!(Precision::Fp32.bytes(), 4);
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Int8.bytes(), 1);
    }

    #[test]
    fn zero_guards() {
        let k = KernelDesc::new("k").grid(0, 0);
        assert_eq!(k.grid_blocks, 1);
        assert_eq!(k.threads_per_block, 1);
        assert_eq!(KernelDesc::new("k").l2_hit_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn efficiency_bounds_enforced() {
        KernelDesc::new("k").efficiency(1.5);
    }
}
