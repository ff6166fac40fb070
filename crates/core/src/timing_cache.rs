//! A memoization cache for autotuning timing queries — the simulator's
//! analog of TensorRT's `ITimingCache`.
//!
//! Real TensorRT spends most of its build time measuring candidate tactics on
//! the device, and ships a timing cache so later builds can reuse those
//! measurements. The simulator's equivalent of the *expensive, repeatable*
//! part of a measurement is the deterministic roofline query
//! [`trtsim_gpu::timing::kernel_time_us`]; the *per-measurement* part — the
//! multiplicative DVFS/thermal noise each build draws fresh — is exactly what
//! the paper shows is **not** cacheable (Tables XII/XIII: rebuilds pick
//! different kernels). The cache therefore memoizes only the deterministic
//! component, keyed by kernel descriptor and device timing fingerprint, and
//! the autotuner keeps drawing noise from its per-node RNG streams on every
//! build. Build-to-build non-determinism is preserved by construction: a
//! warm cache returns bit-identical times to a cold one, so it can never
//! change which tactic wins.
//!
//! # Hit-path cost
//!
//! A cache hit must be strictly cheaper than re-running the analytic timing
//! model, or a warm cache slows builds down (`BENCH_build.json` caught
//! exactly that regression twice: first when the key was a field-by-field
//! struct hashed twice through SipHash with a fresh `String` clone per
//! query, then again when `-C target-cpu=native` made the roofline model
//! cheap enough that even an uncontended `Mutex<HashMap>` probe lost to
//! recomputation). The hot path is now lock-free and allocation-free: each
//! kernel carries its 128-bit content fingerprint inline
//! ([`KernelDesc::content_fingerprint`], computed once and cached in the
//! descriptor), a query mixes it with the device's [`timing_fingerprint`]
//! in a handful of multiplies, and probes a fixed-capacity open-addressing
//! table of atomic slots — a hit is three plain loads (claim word, publish
//! word, value) on one cache line, with no atomic read-modify-write
//! anywhere on the read path. Callers timing many kernels against one
//! device should hold a [`CacheSession`], which computes the device
//! fingerprint once. Keying by fingerprint instead of the full descriptor
//! trades a ~2⁻¹²⁸ collision probability (vanishing against the few
//! thousand distinct kernels a zoo build times) for a hit that is reliably
//! cheaper than the roofline recomputation; `bench_build` asserts the
//! speedup stays above 1.1.
//!
//! The table never grows or evicts: each of the [`TimingCache::SHARDS`]
//! shards holds a power-of-two slot array sized ~7x above a full zoo
//! build's distinct-kernel count. If a probe run exhausts its window the
//! entry simply stays uncached — every value is deterministic, so a
//! "dropped" entry costs a recomputation, never a wrong answer. The same
//! argument makes every concurrency race here benign: a slot is claimed
//! with one CAS on the key's high word, the value is published before the
//! key's low word (release/acquire paired), and a reader that catches a
//! half-published slot just recomputes the identical value.
//!
//! [`timing_fingerprint`]: trtsim_gpu::device::DeviceSpec::timing_fingerprint
//!
//! The cache is `Arc`-shareable across builders and threads (atomic
//! interior mutability), and reports hit/miss counters as
//! [`trtsim_metrics::CacheStats`].

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use trtsim_gpu::device::DeviceSpec;
use trtsim_gpu::kernel::KernelDesc;
use trtsim_gpu::timing::kernel_time_us;
use trtsim_metrics::CacheStats;

/// Shard count; a small power of two. With the lock-free table the shards no
/// longer arbitrate locks — they segment the slot array and give the
/// `bench_build` report its hit-spread counters.
const SHARDS: usize = 16;

/// Slots per shard (power of two). 16 shards x 2048 slots = 32,768 slots
/// against the ~4,600 distinct kernels a full zoo build times (~14% load),
/// so linear probe runs stay short and [`PROBE_LIMIT`] is effectively never
/// hit.
const SHARD_SLOTS: usize = 2048;

/// Longest linear probe run before a query gives up and stays uncached.
const PROBE_LIMIT: usize = 32;

/// Inline fingerprint of one timing query: the kernel's cached content
/// fingerprint (every field [`kernel_time_us`] reads) mixed with the device
/// fingerprint — two multiply-rotate rounds, no re-fold of the descriptor.
#[inline]
fn query_fingerprint(kernel: &KernelDesc, device_fp: u64) -> u128 {
    let k = kernel.content_fingerprint();
    let lo = ((k as u64) ^ device_fp)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(29);
    let hi = (((k >> 64) as u64).wrapping_add(device_fp)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    (u128::from(hi) << 64) | u128::from(lo ^ (k >> 64) as u64)
}

/// Splits a query fingerprint into the slot protocol's two key words. Zero is
/// reserved in both: in the high word it means "slot empty", in the low word
/// "value not yet published", so a genuinely zero word is nudged to 1. That
/// folds a 2⁻⁶⁴ sliver of the key space onto a neighbor — on top of the
/// already-accepted 2⁻¹²⁸ fingerprint collision odds, not a new risk class.
#[inline]
fn key_words(fp: u128) -> (u64, u64) {
    let hi = ((fp >> 64) as u64).max(1);
    let lo = (fp as u64).max(1);
    (hi, lo)
}

/// One open-addressing entry. 24 bytes, so a probe touches a single cache
/// line and the whole three-load hit sequence stays cheaper than re-running
/// the analytic model.
#[derive(Debug)]
struct Slot {
    /// Claim word: 0 = empty; a writer takes the slot with one CAS here.
    key_hi: AtomicU64,
    /// Publish word: 0 = claimed but value not yet visible. Written with
    /// `Release` *after* `time_bits`, so a reader that observes the key's
    /// low word here (via `Acquire`) is guaranteed to see the value.
    key_lo: AtomicU64,
    /// The memoized [`kernel_time_us`] result, as `f64::to_bits`.
    time_bits: AtomicU64,
}

/// One shard: a fixed slot array probed lock-free. Misses publish with a
/// single CAS; hits perform no atomic read-modify-write at all.
#[derive(Debug)]
struct Shard {
    slots: Box<[Slot]>,
}

impl Shard {
    fn new() -> Self {
        Self {
            slots: (0..SHARD_SLOTS)
                .map(|_| Slot {
                    key_hi: AtomicU64::new(0),
                    key_lo: AtomicU64::new(0),
                    time_bits: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Slot index within the shard. The shard itself is picked from the
    /// fingerprint's low 4 bits, so the probe base uses the bits above them.
    #[inline]
    fn base(fp: u128) -> usize {
        ((fp as u64 >> 4) as usize) & (SHARD_SLOTS - 1)
    }

    /// Lock-free lookup: three plain loads per probed slot.
    #[inline]
    fn get(&self, fp: u128) -> Option<f64> {
        let (hi, lo) = key_words(fp);
        let base = Self::base(fp);
        for i in 0..PROBE_LIMIT {
            let slot = &self.slots[(base + i) & (SHARD_SLOTS - 1)];
            let h = slot.key_hi.load(Ordering::Relaxed);
            if h == 0 {
                return None; // empty slot ends the probe run
            }
            if h == hi && slot.key_lo.load(Ordering::Acquire) == lo {
                return Some(f64::from_bits(slot.time_bits.load(Ordering::Relaxed)));
            }
        }
        None
    }

    /// Publishes `us` under `fp`. Returns `false` when a racing duplicate
    /// already published the key — the caller lost the race and its lookup
    /// counts as a hit — and `true` when this call inserted the entry or
    /// gave up because the probe window was full (harmless: the value is
    /// deterministic and a future miss just recomputes it).
    fn publish(&self, fp: u128, us: f64) -> bool {
        let (hi, lo) = key_words(fp);
        let base = Self::base(fp);
        for i in 0..PROBE_LIMIT {
            let slot = &self.slots[(base + i) & (SHARD_SLOTS - 1)];
            let mut h = slot.key_hi.load(Ordering::Relaxed);
            if h == 0 {
                match slot
                    .key_hi
                    .compare_exchange(0, hi, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => {
                        slot.time_bits.store(us.to_bits(), Ordering::Relaxed);
                        slot.key_lo.store(lo, Ordering::Release);
                        return true;
                    }
                    Err(taken) => h = taken, // lost the claim; re-examine
                }
            }
            if h == hi {
                // Same high word: either our key (a racing duplicate) or a
                // high-word collision. Wait out the claimer's two stores so
                // the keys can actually be compared; the window is two plain
                // stores wide, so this resolves in a handful of spins.
                let mut l = slot.key_lo.load(Ordering::Acquire);
                while l == 0 {
                    std::hint::spin_loop();
                    l = slot.key_lo.load(Ordering::Acquire);
                }
                if l == lo {
                    return false; // duplicate already published
                }
            }
        }
        true // probe window exhausted: entry stays uncached
    }

    /// Forgets every entry. Safe concurrently with queries: a reader racing
    /// the wipe either sees the old (still-correct) mapping or a miss.
    fn wipe(&self) {
        for slot in self.slots.iter() {
            slot.key_lo.store(0, Ordering::Relaxed);
            slot.key_hi.store(0, Ordering::Relaxed);
        }
    }

    fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                s.key_hi.load(Ordering::Relaxed) != 0 && s.key_lo.load(Ordering::Acquire) != 0
            })
            .count()
    }
}

/// Memoizes the deterministic component of tactic timing measurements across
/// builds (TensorRT `ITimingCache` analog). See the module docs for what is
/// cached versus re-drawn, and for the hit-path cost budget.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use trtsim_core::TimingCache;
/// use trtsim_gpu::device::DeviceSpec;
/// use trtsim_gpu::kernel::KernelDesc;
///
/// let cache = Arc::new(TimingCache::new());
/// let k = KernelDesc::new("k").grid(24, 256).flops(1_000_000);
/// let nx = DeviceSpec::xavier_nx();
/// let cold = cache.time_us(&k, &nx);
/// let warm = cache.time_us(&k, &nx);
/// assert_eq!(cold, warm); // bit-identical, not just close
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
#[derive(Debug)]
pub struct TimingCache {
    shards: [Shard; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Fast-path hits served per shard: how evenly the fingerprint low bits
    /// spread the hot probes across the shard slot arrays.
    shard_hits: [AtomicU64; SHARDS],
}

impl Default for TimingCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingCache {
    /// Number of slot-array shards backing the cache (and the length of
    /// [`TimingCache::shard_hits`]).
    pub const SHARDS: usize = SHARDS;

    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Shard::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            shard_hits: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The deterministic execution time of `kernel` on `device` in µs —
    /// served from the cache when present, computed (and remembered)
    /// otherwise. Always bit-identical to
    /// [`trtsim_gpu::timing::kernel_time_us`].
    ///
    /// Callers querying many kernels against one device should prefer
    /// [`TimingCache::session`], which computes the device fingerprint once.
    pub fn time_us(&self, kernel: &KernelDesc, device: &DeviceSpec) -> f64 {
        self.session(device).time_us(kernel)
    }

    /// Starts a shard-local fast-path session against one device: the
    /// device's timing fingerprint is folded once up front and hit/miss
    /// counters batch locally (flushed when the session drops), so each
    /// [`CacheSession::time_us`] costs one cached kernel fingerprint, a
    /// two-round mix, and one lock-free slot probe.
    pub fn session<'c>(&'c self, device: &'c DeviceSpec) -> CacheSession<'c> {
        CacheSession {
            cache: self,
            device,
            device_fp: device.timing_fingerprint(),
            misses: Cell::new(0),
            shard_hits: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    /// Hit/miss counters since construction (or the last [`clear`]).
    ///
    /// [`clear`]: TimingCache::clear
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Per-shard counts of warm fast-path hits since construction (or the
    /// last [`clear`]). Their sum equals [`stats`]`.hits`; the spread shows
    /// how evenly the query fingerprints balance the shard slot arrays — the
    /// `bench_build` report records this next to the warm/cold speedup.
    ///
    /// [`clear`]: TimingCache::clear
    /// [`stats`]: TimingCache::stats
    pub fn shard_hits(&self) -> [u64; SHARDS] {
        std::array::from_fn(|i| self.shard_hits[i].load(Ordering::Relaxed))
    }

    /// Number of distinct `(kernel, device)` entries held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.wipe();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        for shard in &self.shard_hits {
            shard.store(0, Ordering::Relaxed);
        }
    }
}

/// A [`TimingCache`] handle bound to one device (see
/// [`TimingCache::session`]); the autotuner holds one per measured node.
///
/// Hit/miss counts accumulate in plain cells and flush to the cache's
/// atomic counters when the session drops —
/// the total hit count is the sum of the per-shard cells, so a hit costs
/// exactly one cell bump — and the per-query hot path performs no atomic
/// read-modify-writes at all.
pub struct CacheSession<'c> {
    cache: &'c TimingCache,
    device: &'c DeviceSpec,
    device_fp: u64,
    misses: Cell<u64>,
    shard_hits: [Cell<u64>; SHARDS],
}

impl CacheSession<'_> {
    /// The deterministic execution time of `kernel` on the session's device,
    /// µs — the cache's hot path.
    pub fn time_us(&self, kernel: &KernelDesc) -> f64 {
        let fp = query_fingerprint(kernel, self.device_fp);
        let index = (fp as u64 as usize) % SHARDS;
        let shard = &self.cache.shards[index];
        let per_shard = &self.shard_hits[index];
        if let Some(us) = shard.get(fp) {
            per_shard.set(per_shard.get() + 1);
            return us;
        }
        // A racing duplicate computation publishes the same deterministic
        // value, so whichever write wins the slot is correct; only the
        // winner counts the miss, so a cold key costs exactly one miss
        // however many threads look it up at once.
        let us = kernel_time_us(kernel, self.device);
        if shard.publish(fp, us) {
            self.misses.set(self.misses.get() + 1);
        } else {
            per_shard.set(per_shard.get() + 1);
        }
        us
    }
}

impl Drop for CacheSession<'_> {
    fn drop(&mut self) {
        let hits: u64 = self.shard_hits.iter().map(Cell::get).sum();
        let misses = self.misses.get();
        if hits == 0 && misses == 0 {
            return;
        }
        self.cache.hits.fetch_add(hits, Ordering::Relaxed);
        self.cache.misses.fetch_add(misses, Ordering::Relaxed);
        for (cell, total) in self.shard_hits.iter().zip(&self.cache.shard_hits) {
            let n = cell.get();
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_gpu::device::Platform;
    use trtsim_gpu::kernel::Precision;

    fn kernel(i: u64) -> KernelDesc {
        // Compute-bound so clock pinning visibly changes its time.
        KernelDesc::new(format!("k{i}"))
            .grid(6 + i, 256)
            .flops(1_000_000_000 + i)
            .dram_bytes(1 << 10)
            .precision(Precision::Fp16, true)
            .efficiency(0.6)
    }

    #[test]
    fn cached_time_is_bit_identical_to_model() {
        let cache = TimingCache::new();
        let nx = DeviceSpec::xavier_nx();
        for i in 0..8 {
            let k = kernel(i);
            let direct = kernel_time_us(&k, &nx);
            assert_eq!(cache.time_us(&k, &nx), direct);
            assert_eq!(cache.time_us(&k, &nx), direct); // warm hit
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.hits, 8);
        assert_eq!(cache.len(), 8);
        let shard_hits = cache.shard_hits();
        assert_eq!(shard_hits.iter().sum::<u64>(), stats.hits);
        assert!(
            shard_hits.iter().filter(|&&h| h > 0).count() > 1,
            "8 distinct fingerprints should spread over shards: {shard_hits:?}"
        );
        cache.clear();
        assert_eq!(cache.shard_hits().iter().sum::<u64>(), 0);
    }

    #[test]
    fn session_matches_ad_hoc_queries() {
        let cache = TimingCache::new();
        let nx = DeviceSpec::xavier_nx();
        let session = cache.session(&nx);
        for i in 0..8 {
            assert_eq!(session.time_us(&kernel(i)), kernel_time_us(&kernel(i), &nx));
        }
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn device_changes_split_entries() {
        let cache = TimingCache::new();
        let k = kernel(0);
        let nx = DeviceSpec::xavier_nx();
        let pinned = DeviceSpec::pinned_clock(Platform::Nx);
        let fast = cache.time_us(&k, &nx);
        let slow = cache.time_us(&k, &pinned);
        assert!(slow > fast, "pinned clock must time slower");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn name_material_cannot_alias_across_boundaries() {
        // The byte fold includes the length, so these must key differently
        // even though their concatenated field material is similar.
        let cache = TimingCache::new();
        let nx = DeviceSpec::xavier_nx();
        let a = KernelDesc::new("ab").grid(6, 256).flops(1_000);
        let b = KernelDesc::new("a").grid(6, 256).flops(1_000);
        cache.time_us(&a, &nx);
        cache.time_us(&b, &nx);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = std::sync::Arc::new(TimingCache::new());
        let nx = DeviceSpec::xavier_nx();
        let times =
            trtsim_util::pool::map_indexed(8, 64, |i| cache.time_us(&kernel(i as u64 % 4), &nx));
        for i in 0..64 {
            assert_eq!(times[i], times[i % 4]);
        }
        // Duplicate in-flight computations are deduplicated, and only the
        // one that published counts a miss.
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn racing_lookups_count_one_miss_per_key() {
        let nx = DeviceSpec::xavier_nx();
        let kernels: Vec<KernelDesc> = (0..64).map(kernel).collect();
        for round in 0..20 {
            let cache = TimingCache::new();
            // Release all eight at once so their first lookups collide.
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        start.wait();
                        let session = cache.session(&nx);
                        for k in &kernels {
                            session.time_us(k);
                        }
                    });
                }
            });
            let stats = cache.stats();
            assert_eq!(stats.misses, 64, "round {round}: {stats:?}");
            assert_eq!(stats.hits, 8 * 64 - 64, "round {round}: {stats:?}");
        }
    }

    #[test]
    fn clear_resets_everything() {
        let cache = TimingCache::new();
        let nx = DeviceSpec::xavier_nx();
        cache.time_us(&kernel(0), &nx);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }
}
