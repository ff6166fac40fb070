//! Times whole-zoo engine builds under the build-performance subsystem:
//! cold sequential, warm-timing-cache sequential, cold parallel farm, and
//! warm (memoized) farm, writing the results to `BENCH_build.json` in the
//! shared [`trtsim_bench::report`] schema (plus a telemetry snapshot next
//! to it).
//!
//! ```text
//! cargo run --release -p trtsim-bench --bin bench_build            # full zoo
//! cargo run --release -p trtsim-bench --bin bench_build -- --smoke # 1 model
//! ```
//!
//! Flags: `--smoke` shrinks the zoo to one model (CI), `--out PATH` moves the
//! report, `--git-rev SHA` stamps the report (`TRTSIM_GIT_REV` works too).
//! The process exits non-zero if the warm timing cache re-measures as many
//! kernels as the cold pass, or if any rebuilt engine is not bit-identical
//! to the cold sequential reference.

use std::sync::Arc;
use std::time::Instant;

use trtsim_bench::report::{git_rev, BenchReport, PhaseReport};
use trtsim_core::autotune::candidate_kernels;
use trtsim_core::{
    publish_build, publish_timing_cache, Builder, BuilderConfig, Engine, TimingCache,
};
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_gpu::kernel::KernelDesc;
use trtsim_gpu::timing::kernel_time_us;
use trtsim_kernels::catalog::PrecisionPolicy;
use trtsim_metrics::{CacheStats, Registry};
use trtsim_models::ModelId;
use trtsim_repro::support::EngineFarm;

/// Builds every request in order, publishing each build into `registry`.
fn build_all(
    requests: &[(ModelId, Platform)],
    cache: &Arc<TimingCache>,
    threads: usize,
    registry: &Registry,
) -> Vec<Engine> {
    requests
        .iter()
        .map(|&(model, platform)| {
            let started = Instant::now();
            let engine = Builder::new(
                DeviceSpec::pinned_clock(platform),
                BuilderConfig::default()
                    .with_build_seed(trtsim_repro::support::zoo_seed(model, platform, 0))
                    .with_build_threads(threads)
                    .with_timing_cache(cache.clone()),
            )
            .build(&model.descriptor())
            .expect("zoo models build");
            let seconds = started.elapsed().as_secs_f64();
            publish_build(registry, engine.name(), engine.report(), seconds);
            engine
        })
        .collect()
}

/// Builds one phase entry: engines-per-second throughput, cache counters.
fn phase(name: &str, wall_ms: f64, engines: usize, cache: CacheStats) -> PhaseReport {
    PhaseReport::new(name, wall_ms)
        .with_throughput(engines as f64 / (wall_ms / 1e3))
        .with_counter("timed_measurements", cache.misses)
        .with_counter("cache_hits", cache.hits)
        .with_counter("cache_misses", cache.misses)
}

/// Every autotune candidate kernel the builds above timed, grouped by the
/// pinned-clock device it was timed on — the query workload for the
/// cache-vs-retime micro-phases.
fn query_workload(requests: &[(ModelId, Platform)]) -> Vec<(DeviceSpec, Vec<KernelDesc>)> {
    Platform::all()
        .into_iter()
        .map(|platform| {
            let kernels = requests
                .iter()
                .filter(|&&(_, p)| p == platform)
                .flat_map(|&(model, _)| {
                    candidate_kernels(&model.descriptor(), PrecisionPolicy::fp16())
                        .expect("zoo models enumerate candidate kernels")
                })
                .collect();
            (DeviceSpec::pinned_clock(platform), kernels)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_build.json".to_string());

    let models: Vec<ModelId> = if smoke {
        vec![ModelId::Mtcnn]
    } else {
        ModelId::all().to_vec()
    };
    let requests: Vec<(ModelId, Platform)> = models
        .iter()
        .flat_map(|&m| Platform::all().map(|p| (m, p)))
        .collect();
    let threads = trtsim_util::pool::auto_threads();
    let mut phases: Vec<PhaseReport> = Vec::new();
    let registry = Registry::new();

    // Phase 1: cold sequential — fresh timing cache, one build at a time.
    let seq_cache = Arc::new(TimingCache::new());
    let t = Instant::now();
    let reference = build_all(&requests, &seq_cache, 1, &registry);
    let cold_stats = seq_cache.stats();
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    phases.push(phase(
        "cold_sequential",
        cold_ms,
        requests.len(),
        cold_stats,
    ));

    // Phase 2: warm-cache sequential rebuild — same cache, every timing query
    // should now hit.
    let t = Instant::now();
    let warm_engines = build_all(&requests, &seq_cache, 1, &registry);
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let warm_stats = seq_cache.stats().since(cold_stats);
    phases.push(phase(
        "warm_sequential",
        warm_ms,
        requests.len(),
        warm_stats,
    ));

    // Phase 3: cold parallel farm — concurrent prefetch of the whole zoo
    // into a fresh farm (fresh timing cache inside).
    let farm = EngineFarm::new();
    let farm_requests: Vec<(ModelId, Platform, u64)> =
        requests.iter().map(|&(m, p)| (m, p, 0)).collect();
    let t = Instant::now();
    farm.prefetch_zoo(&farm_requests);
    let farm_cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let farm_cold_stats = farm.stats().timing;
    phases.push(phase(
        "cold_parallel_farm",
        farm_cold_ms,
        requests.len(),
        farm_cold_stats,
    ));

    // Phase 4: warm farm — re-request the whole zoo; identical requests are
    // deduplicated into Arc hand-outs, which is what the experiment
    // harnesses see after the first build.
    let t = Instant::now();
    let farmed: Vec<Arc<Engine>> = farm_requests
        .iter()
        .map(|&(m, p, i)| farm.zoo(m, p, i))
        .collect();
    let farm_warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let farm_warm_stats = farm.stats().timing.since(farm_cold_stats);
    phases.push(phase(
        "warm_farm",
        farm_warm_ms,
        requests.len(),
        farm_warm_stats,
    ));

    // Phases 5/6: query-level cache microbenchmark. `retime_queries` prices
    // what a cache miss costs (the analytic kernel-timing model, straight);
    // `warm_cache_queries` serves the identical query stream from the warm
    // sequential cache through the shard-local session fast path. The
    // `speedup_warm_cache_sequential` summary is the ratio of the two —
    // a timing-cache hit must be strictly cheaper than re-timing. (Earlier
    // revisions derived this ratio from whole-build wall times, where timing
    // queries are a rounding error next to graph passes and the measured
    // "speedup" was allocator noise — hence the historic 0.943.)
    // Each side is timed as the best of `PASSES` back-to-back sweeps: the
    // loops run for single-digit milliseconds, where one scheduler
    // preemption would otherwise swing the ratio by more than the margin
    // the floor assert checks.
    const PASSES: usize = 3;
    let workload = query_workload(&requests);
    let distinct: usize = workload.iter().map(|(_, ks)| ks.len()).sum();
    let reps = (1_000_000 / distinct.max(1)).max(1);
    let queries = (distinct * reps) as u64;

    let mut retime_ms = f64::INFINITY;
    let mut retime_sum = 0.0f64;
    for _ in 0..PASSES {
        let t = Instant::now();
        retime_sum = 0.0;
        for _ in 0..reps {
            for (device, kernels) in &workload {
                for kernel in kernels {
                    retime_sum += kernel_time_us(std::hint::black_box(kernel), device);
                }
            }
        }
        std::hint::black_box(retime_sum);
        retime_ms = retime_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    phases.push(
        PhaseReport::new("retime_queries", retime_ms)
            .with_throughput(queries as f64 / (retime_ms / 1e3))
            .with_counter("timed_measurements", queries)
            .with_counter("cache_hits", 0)
            .with_counter("cache_misses", queries)
            .with_counter("passes", PASSES as u64),
    );

    let before_queries = seq_cache.stats();
    let shard_hits_before: u64 = seq_cache.shard_hits().iter().sum();
    let mut cached_ms = f64::INFINITY;
    let mut cached_sum = 0.0f64;
    for _ in 0..PASSES {
        let t = Instant::now();
        cached_sum = 0.0;
        for _ in 0..reps {
            for (device, kernels) in &workload {
                let session = seq_cache.session(device);
                for kernel in kernels {
                    cached_sum += session.time_us(std::hint::black_box(kernel));
                }
            }
        }
        std::hint::black_box(cached_sum);
        cached_ms = cached_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let query_stats = seq_cache.stats().since(before_queries);
    let shard_hits = seq_cache.shard_hits();
    let shard_hit_total: u64 = shard_hits.iter().sum::<u64>() - shard_hits_before;
    let shards_touched = shard_hits.iter().filter(|&&h| h > 0).count() as u64;
    phases.push(
        PhaseReport::new("warm_cache_queries", cached_ms)
            .with_throughput(queries as f64 / (cached_ms / 1e3))
            .with_counter("timed_measurements", query_stats.misses)
            .with_counter("cache_hits", query_stats.hits)
            .with_counter("cache_misses", query_stats.misses)
            .with_counter("shard_fast_path_hits", shard_hit_total)
            .with_counter("shards_touched", shards_touched)
            .with_counter("passes", PASSES as u64),
    );
    assert_eq!(
        query_stats.misses, 0,
        "warm cache missed {} of {} candidate-kernel queries",
        query_stats.misses, queries
    );
    assert_eq!(
        retime_sum, cached_sum,
        "cached kernel times diverge from the analytic model"
    );

    // Invariants: the cache and the farm must be output-invariant.
    for (i, engine) in reference.iter().enumerate() {
        assert_eq!(
            engine, &warm_engines[i],
            "warm-cache rebuild of {:?} is not bit-identical",
            requests[i]
        );
        assert_eq!(
            engine,
            farmed[i].as_ref(),
            "farmed build of {:?} is not bit-identical",
            requests[i]
        );
    }
    assert!(
        warm_stats.misses < cold_stats.misses,
        "warm cache re-measured {} kernels, cold measured {}",
        warm_stats.misses,
        cold_stats.misses
    );

    let speedup_warm_cache = retime_ms / cached_ms;
    assert!(
        speedup_warm_cache >= 1.1,
        "timing-cache hits must clearly beat re-timing: {retime_ms:.2} ms retime vs {cached_ms:.2} ms cached ({speedup_warm_cache:.3}x)"
    );
    let speedup_warm_build = cold_ms / warm_ms;
    let speedup_warm_farm = cold_ms / farm_warm_ms;
    let report = BenchReport {
        benchmark: "bench_build".into(),
        mode: if smoke { "smoke" } else { "full" }.into(),
        git_rev: git_rev(&args),
        threads,
        throughput_unit: "engines_per_sec".into(),
        context: vec![(
            "models".into(),
            models
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
        )],
        phases,
        summary: vec![
            ("speedup_warm_cache_sequential".into(), speedup_warm_cache),
            (
                "speedup_warm_build_vs_cold_build".into(),
                speedup_warm_build,
            ),
            (
                "speedup_warm_farm_vs_cold_sequential".into(),
                speedup_warm_farm,
            ),
        ],
        bit_identical: true,
    };
    publish_timing_cache(&registry, &seq_cache.stats());
    farm.publish(&registry);
    report.write(&out_path, &registry);

    for p in &report.phases {
        println!(
            "{:<20} {:>10.2} ms  {:>8} timed measurements",
            p.name, p.wall_ms, p.counters[0].1
        );
    }
    println!(
        "speedup: warm-cache queries {speedup_warm_cache:.2}x, warm farm {speedup_warm_farm:.2}x -> {out_path}"
    );
}
