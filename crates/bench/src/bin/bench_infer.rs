//! Times numeric inference through the three execution paths — the naive
//! per-call interpreter, the precompiled [`trtsim_core::InferencePlan`], and
//! the plan fanned out over worker threads — on a mid-size numeric zoo
//! model, writing the results to `BENCH_infer.json` in the shared
//! [`trtsim_metrics::report`] schema (plus a telemetry snapshot next to it).
//!
//! ```text
//! cargo run --release -p trtsim-bench --bin bench_infer            # full set
//! cargo run --release -p trtsim-bench --bin bench_infer -- --smoke # CI
//! ```
//!
//! Flags: `--smoke` shrinks the image set (CI), `--out PATH` moves the
//! report, `--git-rev SHA` stamps the report (`TRTSIM_GIT_REV` works too).
//! The process exits non-zero if any planned output tensor is not
//! bit-identical to the interpreter's, if any label diverges, or if the
//! planned path fails to beat the naive one (`--smoke` demands 6x on its
//! small image set; the full run demands the 10x the lane kernels are sold
//! on), or if the size-classed arena slots sit below 40% utilization.

use std::time::Instant;

use trtsim_core::publish_plan;
use trtsim_core::runtime::ExecutionContext;
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_ir::Tensor;
use trtsim_metrics::report::{git_rev, BenchReport, PhaseReport};
use trtsim_metrics::Registry;
use trtsim_models::ModelId;
use trtsim_repro::exp_accuracy::{AccuracyConfig, AccuracySetup};
use trtsim_repro::support::EngineFarm;
use trtsim_util::pool::auto_threads;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

fn phase(name: &str, wall_ms: f64, images: usize, layout_converts: u64) -> PhaseReport {
    PhaseReport::new(name, wall_ms)
        .with_throughput(images as f64 / (wall_ms / 1e3))
        .with_counter("images", images as u64)
        .with_counter("layout_converts", layout_converts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_infer.json".to_string());

    let model = ModelId::Resnet18;
    let config = if smoke {
        AccuracyConfig::quick()
    } else {
        AccuracyConfig::default()
    };
    let farm = EngineFarm::new();
    let setup = AccuracySetup::new(model, &config);
    let engine = setup.engine(&farm, Platform::Nx, 0);
    let images = setup.benign(&config);
    let inputs: Vec<&Tensor> = images.iter().map(|img| &img.image).collect();
    let threads = auto_threads();

    // Phase 1: the naive interpreter, one image at a time. A fresh context,
    // though the interpreter caches nothing on it anyway.
    let naive_ctx = ExecutionContext::new(&engine, DeviceSpec::pinned_clock(Platform::Nx));
    let (naive_outs, naive_ms) = timed(|| {
        inputs
            .iter()
            .map(|t| naive_ctx.infer_unplanned(t).expect("runs"))
            .collect::<Vec<_>>()
    });
    let naive_labels: Vec<usize> = naive_outs
        .iter()
        .map(|o| o[0].argmax().unwrap_or(0))
        .collect();

    // Phase 2: the precompiled plan, sequential. Plan compilation happens
    // inside the timed region (a fresh context compiles on first use) so the
    // speedup is honest about the one-time cost.
    let planned_ctx = ExecutionContext::new(&engine, DeviceSpec::pinned_clock(Platform::Nx));
    let (planned_outs, planned_ms) = timed(|| planned_ctx.infer_batch(&inputs, 1).expect("runs"));
    let planned_converts = planned_ctx.plan_stats().layout_converts;

    // Phase 3: the plan fanned out across worker threads.
    let parallel_ctx = ExecutionContext::new(&engine, DeviceSpec::pinned_clock(Platform::Nx));
    let (parallel_labels, parallel_ms) =
        timed(|| parallel_ctx.classify_batch(&inputs, threads).expect("runs"));
    let parallel_converts = parallel_ctx.plan_stats().layout_converts;

    // Invariant: the fast path is bit-identical to the interpreter — every
    // output tensor (exact f32 equality), and every label on every path.
    for (i, (naive, planned)) in naive_outs.iter().zip(&planned_outs).enumerate() {
        assert_eq!(
            naive, planned,
            "planned output of image {i} is not bit-identical"
        );
    }
    let planned_labels: Vec<usize> = planned_outs
        .iter()
        .map(|o| o[0].argmax().unwrap_or(0))
        .collect();
    assert_eq!(naive_labels, planned_labels, "planned labels diverge");
    assert_eq!(naive_labels, parallel_labels, "parallel labels diverge");

    let speedup_planned = naive_ms / planned_ms;
    let speedup_parallel = naive_ms / parallel_ms;
    if smoke {
        assert!(
            speedup_parallel >= 6.0,
            "planned+parallel speedup {speedup_parallel:.2}x is below the 6x smoke bar"
        );
    } else {
        assert!(
            speedup_parallel >= 10.0,
            "planned+parallel speedup {speedup_parallel:.2}x is below the 10x bar"
        );
    }

    let plan = planned_ctx.plan().expect("compiled during phase 2");
    let stats = plan.arena_stats();
    assert!(
        stats.utilization() >= 0.4,
        "size-classed slots should sit near the liveness peak: {:.3}",
        stats.utilization()
    );
    let report = BenchReport {
        benchmark: "bench_infer".into(),
        mode: if smoke { "smoke" } else { "full" }.into(),
        git_rev: git_rev(&args),
        threads,
        throughput_unit: "images_per_sec".into(),
        context: vec![
            ("model".into(), model.to_string()),
            ("images".into(), inputs.len().to_string()),
            ("plan_steps".into(), plan.step_count().to_string()),
        ],
        phases: vec![
            // The interpreter is CHW-only: it never converts a layout.
            phase("naive_sequential", naive_ms, inputs.len(), 0),
            phase(
                "planned_sequential",
                planned_ms,
                inputs.len(),
                planned_converts,
            ),
            phase(
                "planned_parallel",
                parallel_ms,
                inputs.len(),
                parallel_converts,
            ),
        ],
        summary: vec![
            ("speedup_planned_vs_naive".into(), speedup_planned),
            ("speedup_planned_parallel_vs_naive".into(), speedup_parallel),
            ("arena_peak_live_bytes".into(), stats.peak_live_bytes as f64),
            (
                "arena_total_activation_bytes".into(),
                stats.total_activation_bytes as f64,
            ),
            (
                "arena_slot_capacity_bytes".into(),
                stats.slot_capacity_bytes as f64,
            ),
            ("arena_slots".into(), stats.slot_count as f64),
            ("arena_utilization".into(), stats.utilization()),
            ("arena_footprint_ratio".into(), stats.footprint_ratio()),
            (
                "layout_converts_per_image".into(),
                plan.layout_converts_per_execution() as f64,
            ),
        ],
        bit_identical: true,
    };
    let registry = Registry::new();
    for ctx in [&planned_ctx, &parallel_ctx] {
        publish_plan(&registry, ctx.plan().expect("compiled"), &ctx.plan_stats());
    }
    farm.publish(&registry);
    report.write(&out_path, &registry);

    for p in &report.phases {
        println!(
            "{:<20} {:>10.2} ms  {:>10.1} images/s",
            p.name,
            p.wall_ms,
            p.throughput.unwrap_or(0.0)
        );
    }
    println!(
        "speedup: planned {speedup_planned:.2}x, planned+parallel {speedup_parallel:.2}x ({} threads) -> {out_path}",
        threads
    );
}
