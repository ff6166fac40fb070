//! Runs every table/figure harness in order, printing all results.
//! `cargo run --release -p trtsim-repro --bin all_experiments`
use trtsim_gpu::device::Platform;
use trtsim_models::ModelId;
use trtsim_repro::*;

fn main() {
    let t0 = std::time::Instant::now();

    // Warm the engine farm up front: every zoo engine the harnesses below
    // request, built concurrently with a shared timing cache. Individual
    // harnesses then get instant hand-outs instead of serial rebuilds.
    let farm = support::EngineFarm::global();
    let mut wanted: Vec<(ModelId, Platform, u64)> = Vec::new();
    for model in ModelId::all() {
        for platform in Platform::all() {
            wanted.push((model, platform, 0));
        }
    }
    for i in 1..exp_variability::ENGINES_PER_PLATFORM {
        wanted.push((ModelId::InceptionV4, Platform::Agx, i));
        wanted.push((ModelId::Resnet18, Platform::Agx, i));
    }
    farm.prefetch_zoo(&wanted);
    eprintln!(
        "engine farm warmed in {:.1}s ({} engines, timing cache: {})",
        t0.elapsed().as_secs_f32(),
        farm.len(),
        farm.stats().timing,
    );

    println!("{}", exp_platforms::run());
    println!("{}", exp_sizes::run().render());

    let acc_config = exp_accuracy::AccuracyConfig::default();
    println!(
        "{}",
        exp_accuracy::render_table3(&exp_accuracy::run_table3(&acc_config))
    );
    println!(
        "{}",
        exp_accuracy::render_table4(&exp_accuracy::run_table4(&acc_config))
    );

    let studies: Vec<_> = exp_consistency::consistency_models()
        .into_iter()
        .map(|m| exp_consistency::run(m, &acc_config))
        .collect();
    println!("{}", exp_consistency::render_table5(&studies));
    println!("{}", exp_consistency::render_table6(&studies));

    println!("{}", exp_fps::run().render());

    for platform in Platform::all() {
        println!(
            "{}",
            exp_concurrency::render(&exp_concurrency::run(ModelId::TinyYolov3, platform))
        );
    }
    for platform in Platform::all() {
        println!(
            "{}",
            exp_concurrency::render(&exp_concurrency::run(ModelId::Googlenet, platform))
        );
    }

    println!(
        "Table VIII: inference latency with nvprof (pinned clocks)\n{}",
        exp_latency::run().render()
    );
    println!(
        "Table IX: inference latency without nvprof\n{}",
        exp_latency::run_table9().render()
    );
    println!("{}", exp_memcpy::render_table10(&exp_memcpy::run_table10()));
    println!(
        "{}",
        exp_memcpy::render_table11(&exp_memcpy::run_table11(&[
            ModelId::Pednet,
            ModelId::Facenet,
            ModelId::Mobilenetv1,
        ]))
    );
    println!(
        "{}",
        exp_variability::render_table12(&exp_variability::run_table12(&ModelId::all()))
    );
    println!(
        "{}",
        exp_variability::render_table13(&exp_variability::run_table13(ModelId::InceptionV4))
    );
    println!("{}", exp_summary::render(&exp_summary::run()));
    println!(
        "{}",
        exp_bsp::render(&exp_bsp::run(ModelId::InceptionV4, 3))
    );
    println!(
        "{}",
        exp_bsp::render(&exp_bsp::run(ModelId::Mobilenetv1, 3))
    );
    for platform in Platform::all() {
        println!(
            "{}",
            exp_serving::render(&exp_serving::run(
                ModelId::TinyYolov3,
                platform,
                &trtsim_metrics::Registry::new()
            ))
        );
    }
    let stats = farm.stats();
    eprintln!(
        "all experiments completed in {:.1}s — farm: {} engines from {} requests ({} builds), timing cache: {}",
        t0.elapsed().as_secs_f32(),
        farm.len(),
        stats.requests,
        stats.builds,
        stats.timing,
    );
}
