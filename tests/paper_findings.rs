//! One integration test per paper finding, at reduced scale: the repository's
//! headline claims, checked end to end through the public facade.

use trtsim::engine::runtime::{ExecutionContext, TimingOptions};
use trtsim::engine::{Builder, BuilderConfig};
use trtsim::gpu::contention;
use trtsim::gpu::device::{DeviceSpec, Platform};
use trtsim::models::ModelId;
use trtsim::repro::support::EngineFarm;
use trtsim::Registry;

/// Finding 3: TensorRT throughput gain is an order of magnitude or more.
#[test]
fn finding3_throughput_gain() {
    let src = r#"
scenario "gain" {
  device nx { platform = nx  power = max }
  model m { uses = [nx] network = resnet-18 }
  traffic t { uses = [m] kind = latency runs = 1 jitter_sd = 0 compare_unoptimized = true }
}
"#;
    let plan = trtsim::compile_src(src, trtsim::CompileOptions::default()).unwrap();
    let report =
        trtsim::scenario::driver::run(&plan, &EngineFarm::new(), &Registry::new()).unwrap();
    let gain = report.units[0].metric("gain").unwrap();
    assert!(
        (8.0..80.0).contains(&gain),
        "speedup {gain:.1}x outside the paper's 23-27x order of magnitude"
    );
}

/// Finding 3 (concurrency): a light detector packs tens of streams.
#[test]
fn finding3_concurrency_packing() {
    let engine = Builder::new(
        DeviceSpec::max_clock(Platform::Agx),
        BuilderConfig::default().with_build_seed(1),
    )
    .build(&ModelId::TinyYolov3.descriptor())
    .unwrap();
    let device = DeviceSpec::max_clock(Platform::Agx);
    let ctx = ExecutionContext::new(&engine, device.clone());
    let profile = ctx.profile(ModelId::TinyYolov3.info().host_glue_us);
    let (n, _) = contention::max_threads(&profile, &device);
    // Paper: up to 36 concurrent threads on AGX.
    assert!((24..=48).contains(&n), "AGX packs {n} threads");
}

/// Finding 4: a same-platform engine can run slower on the bigger board.
#[test]
fn finding4_bigger_board_can_be_slower() {
    // Scan several builds of the L2-sensitive detectors; at least one
    // (engine, model) pair must run slower on AGX than on NX.
    let mut found = false;
    'outer: for model in [ModelId::Pednet, ModelId::Facenet, ModelId::Mobilenetv1] {
        for seed in 0..4u64 {
            let engine = Builder::new(
                DeviceSpec::pinned_clock(Platform::Nx),
                BuilderConfig::default().with_build_seed(1000 + seed),
            )
            .build(&model.descriptor())
            .unwrap();
            let opts = TimingOptions::default()
                .with_host_glue_us(model.info().host_glue_us)
                .with_run_jitter_sd(0.0);
            let time_on = |platform: Platform| {
                ExecutionContext::new(&engine, DeviceSpec::pinned_clock(platform))
                    .measure_latency(&opts, 1, 0)[0]
            };
            if time_on(Platform::Agx) > time_on(Platform::Nx) {
                found = true;
                break 'outer;
            }
        }
    }
    assert!(
        found,
        "no NX-built engine ran slower on AGX — anomaly mechanisms dead"
    );
}

/// Finding 5: the engine-upload memcpy costs more on AGX.
#[test]
fn finding5_memcpy_slower_on_agx() {
    use trtsim::gpu::memcpy::h2d_time_us;
    let nx = DeviceSpec::pinned_clock(Platform::Nx);
    let agx = DeviceSpec::pinned_clock(Platform::Agx);
    for bytes in [1u64 << 20, 12 << 20, 22 << 20, 48 << 20] {
        assert!(
            h2d_time_us(bytes, &agx) > h2d_time_us(bytes, &nx),
            "{bytes} bytes"
        );
    }
}

/// §VI-B: BSP prediction error differs across builds of the same model.
#[test]
fn bsp_error_varies_across_builds() {
    use trtsim::perfmodel::PredictionOutcome;
    let nx = DeviceSpec::pinned_clock(Platform::Nx);
    let agx = DeviceSpec::pinned_clock(Platform::Agx);
    let errors: Vec<f64> = (0..3u64)
        .map(|i| {
            let engine = Builder::new(
                nx.clone(),
                BuilderConfig::default().with_build_seed(0xB5B + i),
            )
            .build(&ModelId::Mobilenetv1.descriptor())
            .unwrap();
            PredictionOutcome::evaluate(&engine, &nx, &agx, i).error_percent()
        })
        .collect();
    let min = errors.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = errors.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max - min > 0.05,
        "errors identical across builds: {errors:?}"
    );
}
