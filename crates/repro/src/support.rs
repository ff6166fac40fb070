//! Shared harness plumbing: engine construction (direct and farmed),
//! measurement conditions, and plain-text table rendering.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use trtsim_core::runtime::TimingOptions;
use trtsim_core::{
    publish_build, publish_timing_cache, Builder, BuilderConfig, Engine, EngineError, TimingCache,
};
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_gpu::timeline::ProfilingOverhead;
use trtsim_metrics::{CacheStats, Counter, Registry};
use trtsim_models::ModelId;
use trtsim_util::{derive_seed, pool};

/// Root seed of the whole experiment campaign; every stochastic input
/// derives from it, so the entire reproduction is replayable.
pub const CAMPAIGN_SEED: u64 = 0x1155_u64 << 32 | 2021; // IISWC 2021

/// The pinned build seed of engine `build_index` of `model` on `platform` —
/// the one derivation every harness shares, so a farmed engine and a
/// directly-built one are bit-identical.
pub fn zoo_seed(model: ModelId, platform: Platform, build_index: u64) -> u64 {
    derive_seed(
        CAMPAIGN_SEED,
        model.info().name,
        (platform as u64) << 32 | build_index,
    )
}

/// Builds engine number `build_index` of `model` on `platform` at the pinned
/// experiment clock (the paper builds several engines per platform to study
/// build-to-build variation), bypassing the [`EngineFarm`]. Harnesses should
/// prefer [`EngineFarm::zoo`], which memoizes; this direct path is for
/// reproducibility tests and for callers that need an owned [`Engine`].
///
/// # Errors
///
/// Propagates [`EngineError`] from the builder.
pub fn build_engine(
    model: ModelId,
    platform: Platform,
    build_index: u64,
) -> Result<Engine, EngineError> {
    let device = DeviceSpec::pinned_clock(platform);
    let seed = zoo_seed(model, platform, build_index);
    Builder::new(device, BuilderConfig::default().with_build_seed(seed)).build(&model.descriptor())
}

/// Identifies one engine request in the [`EngineFarm`].
///
/// `domain` separates request families that build different networks or
/// configurations from the same `(model, platform, index)` triple (the zoo
/// engines versus the numeric accuracy engines), and `variant` carries any
/// further configuration salt a domain needs (e.g. the accuracy harness'
/// class count, which changes the synthesized network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FarmKey {
    /// Request family (e.g. `"zoo"`, `"accuracy"`).
    pub domain: &'static str,
    /// Which zoo model the request concerns.
    pub model: ModelId,
    /// Build platform.
    pub platform: Platform,
    /// Build index within the family (the paper builds several engines per
    /// platform).
    pub index: u64,
    /// Domain-specific configuration salt.
    pub variant: u64,
}

/// Counters describing what the farm has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FarmStats {
    /// Engine requests served (including deduplicated ones).
    pub requests: u64,
    /// Engines actually built (`requests - builds` were served from memory).
    pub builds: u64,
    /// Timing-cache counters of the farm's shared [`TimingCache`].
    pub timing: CacheStats,
}

/// A concurrent, deduplicating engine build farm.
///
/// The paper's methodology rebuilds the 13-model zoo for nearly every table —
/// often per platform and per build index. The farm gives every harness the
/// same three amortizations real build infrastructure would:
///
/// 1. **Memoization** — identical `(domain, model, platform, index, variant)`
///    requests are built once and handed out as [`Arc<Engine>`] clones, even
///    when requested concurrently (in-flight dedup, not just after-the-fact).
/// 2. **A shared [`TimingCache`]** — every farmed build reuses the
///    deterministic timing component across models and seeds, exactly like
///    TensorRT's `ITimingCache` (noise is still drawn fresh per build).
/// 3. **Parallel prefetch** — [`EngineFarm::prefetch_zoo`] builds a request
///    list on the scoped worker pool.
///
/// The farm owns a registry, which [`EngineFarm::publish`] folds into a
/// binary's snapshot: its lookups count in
/// `trtsim_farm_events_total{event}` (`requests` for every lookup, `builds`
/// when a build ran, `memoized` for dedup hand-outs), and it times each
/// build it runs into `trtsim_build_*`.
///
/// Farmed engines are bit-identical to [`build_engine`]'s output: the cache
/// and the worker pool are output-invariant by construction.
///
/// # Examples
///
/// ```
/// use trtsim_repro::support::EngineFarm;
/// use trtsim_gpu::device::Platform;
/// use trtsim_models::ModelId;
///
/// let farm = EngineFarm::new();
/// let a = farm.zoo(ModelId::Mtcnn, Platform::Nx, 0);
/// let b = farm.zoo(ModelId::Mtcnn, Platform::Nx, 0);
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(farm.stats().builds, 1);
/// ```
#[derive(Debug, Default)]
pub struct EngineFarm {
    cache: Arc<TimingCache>,
    slots: Mutex<HashMap<FarmKey, Arc<OnceLock<Arc<Engine>>>>>,
    registry: Registry,
}

impl EngineFarm {
    /// Creates an empty farm with a fresh timing cache and registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The farm's `trtsim_farm_events_total{event}` counter — the only
    /// count of its lookups (farm lookups are rare; a registry lookup per
    /// event costs nothing measurable).
    fn events(&self, event: &str) -> Counter {
        self.registry.counter(
            "trtsim_farm_events_total",
            "Engine-farm lookups by outcome: requests, builds, memoized hand-outs",
            &[("event", event)],
        )
    }

    /// The process-wide farm shared by every experiment harness, so that
    /// `all_experiments` (and the test suite) builds each engine once.
    pub fn global() -> &'static EngineFarm {
        static FARM: OnceLock<EngineFarm> = OnceLock::new();
        FARM.get_or_init(EngineFarm::new)
    }

    /// The farm's shared timing cache (attach it to out-of-farm builders to
    /// share the memoized timings).
    pub fn timing_cache(&self) -> &Arc<TimingCache> {
        &self.cache
    }

    /// Folds the farm's registry and its timing cache's lookup counts into
    /// `registry` — what a binary does once, before writing its snapshot.
    pub fn publish(&self, registry: &Registry) {
        registry.absorb(&self.registry);
        publish_timing_cache(registry, &self.cache.stats());
    }

    /// The standard zoo engine `(model, platform, build_index)` — built on
    /// first request, shared afterwards. Bit-identical to [`build_engine`].
    ///
    /// # Panics
    ///
    /// Panics if the build fails; zoo models build by construction.
    pub fn zoo(&self, model: ModelId, platform: Platform, build_index: u64) -> Arc<Engine> {
        let key = FarmKey {
            domain: "zoo",
            model,
            platform,
            index: build_index,
            variant: 0,
        };
        self.get_or_build(key, |cache| {
            Builder::new(
                DeviceSpec::pinned_clock(platform),
                BuilderConfig::default()
                    .with_build_seed(zoo_seed(model, platform, build_index))
                    .with_timing_cache(cache.clone()),
            )
            .build(&model.descriptor())
        })
    }

    /// Builds (or returns the memoized) engine for `key`, running `build` at
    /// most once per key even under concurrent requests. The closure receives
    /// the farm's shared timing cache to attach to its builder.
    ///
    /// # Panics
    ///
    /// Panics if `build` returns an error — harness engines build by
    /// construction, and a failed build must not poison the slot silently.
    pub fn get_or_build(
        &self,
        key: FarmKey,
        build: impl FnOnce(&Arc<TimingCache>) -> Result<Engine, EngineError>,
    ) -> Arc<Engine> {
        self.events("requests").inc();
        let slot = {
            let mut slots = self.slots.lock().expect("farm slots poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        // Initialization runs outside the map lock, so concurrent requests
        // for *different* engines build in parallel while duplicates of the
        // same key block here until the first build lands.
        let mut built_here = false;
        let engine = Arc::clone(slot.get_or_init(|| {
            self.events("builds").inc();
            built_here = true;
            let started = Instant::now();
            let engine = build(&self.cache).expect("farm engine build failed");
            publish_build(
                &self.registry,
                engine.name(),
                engine.report(),
                started.elapsed().as_secs_f64(),
            );
            Arc::new(engine)
        }));
        if !built_here {
            // Request served from a memoized (or concurrently deduplicated)
            // engine: the build was avoided entirely.
            self.events("memoized").inc();
        }
        engine
    }

    /// Builds every requested zoo engine concurrently on the scoped worker
    /// pool, deduplicating repeated triples. Later [`zoo`](Self::zoo) calls
    /// for these triples are then instant hand-outs.
    pub fn prefetch_zoo(&self, requests: &[(ModelId, Platform, u64)]) {
        pool::map_indexed(pool::auto_threads(), requests.len(), |i| {
            let (model, platform, index) = requests[i];
            self.zoo(model, platform, index);
        });
    }

    /// Number of distinct engines currently held.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("farm slots poisoned").len()
    }

    /// Whether the farm holds no engines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Request/build/timing counters so far.
    pub fn stats(&self) -> FarmStats {
        FarmStats {
            requests: self.events("requests").get(),
            builds: self.events("builds").get(),
            timing: self.cache.stats(),
        }
    }
}

/// Timing conditions of the paper's Table VIII (nvprof attached, engine
/// upload included, pinned clocks).
pub fn table8_options(model: ModelId) -> TimingOptions {
    let info = model.info();
    TimingOptions::default()
        .with_profiling(ProfilingOverhead::nvprof())
        .with_host_glue_us(info.host_glue_us + info.table8_harness_us)
}

/// Timing conditions of Table IX (same, without nvprof).
pub fn table9_options(model: ModelId) -> TimingOptions {
    let info = model.info();
    TimingOptions::default().with_host_glue_us(info.host_glue_us + info.table8_harness_us)
}

/// Number of timed runs per cell ("each TensorRT engine obtained is executed
/// for 10 runs", §II-F).
pub const RUNS: usize = 10;

/// A plain-text table builder with aligned columns.
///
/// # Examples
///
/// ```
/// use trtsim_repro::support::TextTable;
/// let mut t = TextTable::new(vec!["model".into(), "fps".into()]);
/// t.row(vec!["Alexnet".into(), "190.4".into()]);
/// let s = t.render();
/// assert!(s.contains("Alexnet"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |row: &[String], widths: &mut Vec<usize>| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&self.header, &mut widths);
        for row in &self.rows {
            measure(row, &mut widths);
        }
        let render_row = |row: &[String]| {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<width$}"));
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        let mut out = render_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a mean in ms from µs samples (two decimals, paper style).
pub fn ms(us: f64) -> String {
    format!("{:.2}", us / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_build_for_both_platforms() {
        for platform in Platform::all() {
            let e = build_engine(ModelId::TinyYolov3, platform, 0).unwrap();
            assert_eq!(e.build_platform(), platform);
            assert!(e.launch_count() > 10);
        }
    }

    #[test]
    fn build_indices_give_different_engines() {
        let a = build_engine(ModelId::Mtcnn, Platform::Nx, 0).unwrap();
        let b = build_engine(ModelId::Mtcnn, Platform::Nx, 1).unwrap();
        assert_ne!(a.build_seed(), b.build_seed());
    }

    #[test]
    fn same_index_is_reproducible() {
        let a = build_engine(ModelId::Mtcnn, Platform::Nx, 0).unwrap();
        let b = build_engine(ModelId::Mtcnn, Platform::Nx, 0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn farmed_engine_is_bit_identical_to_direct_build() {
        // The farm's shared timing cache and worker pool must be
        // output-invariant: a zoo engine equals build_engine's output.
        let farm = EngineFarm::new();
        let farmed = farm.zoo(ModelId::Mtcnn, Platform::Agx, 1);
        let direct = build_engine(ModelId::Mtcnn, Platform::Agx, 1).unwrap();
        assert_eq!(*farmed, direct);
    }

    #[test]
    fn farm_dedupes_concurrent_requests() {
        let farm = EngineFarm::new();
        let engines = pool::map_indexed(8, 16, |i| {
            farm.zoo(ModelId::Mtcnn, Platform::Nx, (i % 2) as u64)
        });
        for (i, e) in engines.iter().enumerate() {
            assert!(Arc::ptr_eq(e, &engines[i % 2]));
        }
        let stats = farm.stats();
        assert_eq!(farm.len(), 2);
        assert_eq!(stats.builds, 2, "in-flight duplicates must not rebuild");
        assert_eq!(stats.requests, 16);
    }

    #[test]
    fn prefetch_then_zoo_hands_out_without_building() {
        let farm = EngineFarm::new();
        farm.prefetch_zoo(&[
            (ModelId::Mtcnn, Platform::Nx, 0),
            (ModelId::Mtcnn, Platform::Agx, 0),
            (ModelId::Mtcnn, Platform::Nx, 0), // duplicate in the request list
        ]);
        assert_eq!(farm.stats().builds, 2);
        farm.zoo(ModelId::Mtcnn, Platform::Nx, 0);
        assert_eq!(
            farm.stats().builds,
            2,
            "post-prefetch zoo must be a hand-out"
        );
    }

    #[test]
    fn farm_timing_cache_fills_and_hits() {
        let farm = EngineFarm::new();
        farm.zoo(ModelId::Mtcnn, Platform::Nx, 0);
        let cold = farm.stats().timing;
        assert!(cold.misses > 0, "first build must populate the cache");
        farm.zoo(ModelId::Mtcnn, Platform::Nx, 1);
        let warm = farm.stats().timing;
        assert!(
            warm.hits > cold.hits,
            "second build of the same model must reuse timings"
        );
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a".into(), "bbbb".into()]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        t.row(vec!["y".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[2].starts_with("xxxxxx"));
    }

    #[test]
    fn table8_options_attach_profiler() {
        let o = table8_options(ModelId::Alexnet);
        assert!(o.profiling.per_launch_us > 0.0);
        let o9 = table9_options(ModelId::Alexnet);
        assert_eq!(o9.profiling.per_launch_us, 0.0);
    }
}
