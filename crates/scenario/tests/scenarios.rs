//! Integration: the checked-in `.scn` files drive the generic driver to
//! numbers *equal* to the legacy harnesses' — not approximately, exactly.
//! That is the migration contract: a scenario file is a faithful
//! re-expression of the hand-coded bin it replaces.

use std::path::PathBuf;

use trtsim_core::runtime::{ExecutionContext, TimingOptions};
use trtsim_core::{Builder, BuilderConfig};
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_metrics::Registry;
use trtsim_models::ModelId;
use trtsim_repro::{exp_fps, exp_serving};
use trtsim_scenario::{check_src, compile_src, driver, emit, CompileOptions};

fn scn(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn run_scn(name: &str) -> driver::ScenarioReport {
    let src = scn(name);
    let plan = compile_src(&src, CompileOptions::default())
        .unwrap_or_else(|e| panic!("{name}: {}", e.render(name, &src)));
    driver::run(&plan, &Registry::new()).expect("driver runs")
}

#[test]
fn table7_scn_matches_legacy_harness() {
    let report = run_scn("table7_fps.scn");
    let legacy = exp_fps::run();
    assert_eq!(report.units.len(), legacy.rows.len() * 2);
    for row in &legacy.rows {
        for (i, platform) in Platform::all().into_iter().enumerate() {
            let unit = report
                .units
                .iter()
                .find(|u| u.network == row.model && u.platform == platform)
                .unwrap_or_else(|| panic!("no unit for {} on {platform}", row.model));
            assert_eq!(unit.metric("fps"), Some(row.tensorrt[i]), "{}", unit.label);
            assert_eq!(
                unit.metric("unoptimized_fps"),
                Some(row.unoptimized[i]),
                "{}",
                unit.label
            );
            assert_eq!(unit.metric("gain"), Some(row.gain()[i]), "{}", unit.label);
        }
    }
    assert!(report.passed(), "{:?}", report.asserts);
}

#[test]
fn serving_scn_matches_legacy_sweep() {
    let report = run_scn("serving_batch_sweep.scn");
    let legacy = exp_serving::run(ModelId::TinyYolov3, Platform::Nx, &Registry::new());
    assert_eq!(report.units.len(), legacy.points.len());
    for point in &legacy.points {
        let unit = report
            .units
            .iter()
            .find(|u| u.batch as usize == point.max_batch_size)
            .unwrap_or_else(|| panic!("no unit for batch {}", point.max_batch_size));
        assert_eq!(unit.metric("batches"), Some(point.batches as f64));
        assert_eq!(unit.metric("fps"), Some(point.fps), "{}", unit.label);
        assert_eq!(unit.metric("gr3d_percent"), Some(point.gr3d_percent));
        assert_eq!(unit.metric("mean_us"), Some(point.latency.mean_us));
        assert_eq!(unit.metric("p50_us"), Some(point.latency.p50_us));
        assert_eq!(unit.metric("p90_us"), Some(point.latency.p90_us));
        assert_eq!(unit.metric("p99_us"), Some(point.latency.p99_us));
        assert_eq!(unit.metric("max_us"), Some(point.latency.max_us));
        assert_eq!(unit.metric("completed"), Some(legacy.frames as f64));
    }
    assert!(report.passed(), "{:?}", report.asserts);
}

#[test]
fn adas_scn_matches_example_inline() {
    // The adas_pipeline example, recomputed inline: 12 fresh AGX builds
    // seeded 0xADA5 + build, 30 timed runs each with the default 2% jitter.
    // The scenario's engines are built through the farm with the shared
    // timing cache attached; this equality is also the proof that cache
    // attachment is output-invariant.
    let report = run_scn("adas_wcet.scn");
    assert_eq!(report.units.len(), 1);
    let unit = &report.units[0];
    assert_eq!(unit.builds.len(), 12);

    let device = DeviceSpec::xavier_agx();
    let network = ModelId::Pednet.descriptor();
    let opts = TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(ModelId::Pednet.info().host_glue_us);
    let mut all = Vec::new();
    for build in 0..12u64 {
        let engine = Builder::new(
            device.clone(),
            BuilderConfig::default().with_build_seed(0xADA5 + build),
        )
        .build(&network)
        .expect("pednet builds");
        let ctx = ExecutionContext::new(&engine, device.clone());
        let runs = ctx.measure_latency(&opts, 30, build);
        assert_eq!(
            unit.builds[build as usize].samples, runs,
            "build {build} diverged from the example"
        );
        all.extend(runs);
    }
    let fleet = trtsim_util::stats::Summary::from_samples(&all);
    assert_eq!(unit.metric("p95_us"), Some(fleet.p95));
    assert_eq!(unit.metric("mean_us"), Some(fleet.mean));
    assert!(report.passed(), "{:?}", report.asserts);
}

#[test]
fn smoke_mode_caps_the_plan() {
    let src = scn("adas_wcet.scn");
    let full = compile_src(&src, CompileOptions::default()).unwrap();
    let smoke = compile_src(&src, CompileOptions { smoke: true }).unwrap();
    assert_eq!(full.units[0].builds, 12);
    assert_eq!(smoke.units[0].builds, 2);
    match (&full.units[0].kind, &smoke.units[0].kind) {
        (
            trtsim_scenario::TrafficKind::Latency { runs: f, .. },
            trtsim_scenario::TrafficKind::Latency { runs: s, .. },
        ) => {
            assert_eq!(*f, 30);
            assert_eq!(*s, 5);
        }
        other => panic!("wrong kinds: {other:?}"),
    }
}

#[test]
fn every_checked_in_scenario_validates() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "scn") {
            let src = std::fs::read_to_string(&path).expect("readable scenario");
            check_src(&src)
                .unwrap_or_else(|e| panic!("{}", e.render(&path.display().to_string(), &src)));
            seen += 1;
        }
    }
    assert!(seen >= 4, "only {seen} scenario files found in {dir:?}");
}

#[test]
fn emitted_reports_carry_the_schema_and_assertions() {
    let report = run_scn("poisson_openloop.scn");
    assert!(report.passed(), "{:?}", report.asserts);

    let bench = emit::to_bench_report(&report, "full", "testrev");
    let json = bench.to_json();
    for needle in [
        "\"tool\": \"trtsim-bench\"",
        "\"benchmark\": \"scenario\"",
        "\"scenario\": \"poisson open loop\"",
        "asserts_passed",
        "\"bit_identical\": true",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }

    let md = emit::to_markdown(&report);
    assert!(md.contains("# Scenario `poisson open loop`"), "{md}");
    assert!(md.contains("## assertions"), "{md}");
    assert!(md.contains("result: **PASS**"), "{md}");
}

#[test]
fn invalid_scenario_accumulates_spanned_diagnostics() {
    // End-to-end: a file with one syntax recovery point and several
    // semantic problems produces a full diagnostic set, each with a span
    // that renders to the right line.
    let src = "scenario \"broken\" {\n  device d { platform = tpu }\n  device d { platform = nx }\n  model m { uses = [ghost] network = warpnet }\n}\n";
    let err = check_src(src).expect_err("broken scenario");
    let diags = err.diagnostics();
    assert!(
        diags.len() >= 4,
        "only {} diagnostics: {diags:?}",
        diags.len()
    );
    // Spans are real byte ranges into the source, sorted by position.
    for pair in diags.windows(2) {
        assert!(pair[0].span.lo <= pair[1].span.lo);
    }
    let rendered = err.render("broken.scn", src);
    assert!(rendered.contains("broken.scn:2:"), "{rendered}");
    assert!(rendered.contains("unknown platform `tpu`"), "{rendered}");
    assert!(rendered.contains("duplicate node name `d`"), "{rendered}");
    assert!(rendered.contains("unknown node `ghost`"), "{rendered}");
    assert!(rendered.contains("unknown model `warpnet`"), "{rendered}");
}

#[test]
fn concurrency_scn_matches_legacy_harness() {
    // Migration contract for the 36-stream ceiling harness: the DSL's
    // `kind = concurrency` path must reproduce `exp_concurrency::run`
    // exactly — same zoo engine, same profile, same sweep.
    let report = run_scn("fig3_fig4_concurrency.scn");
    assert_eq!(report.units.len(), 4);
    for unit in &report.units {
        let legacy = trtsim_repro::exp_concurrency::run(unit.network, unit.platform);
        assert_eq!(
            unit.metric("max_threads"),
            Some(f64::from(legacy.max_threads())),
            "{}",
            unit.label
        );
        assert_eq!(
            unit.metric("fps"),
            legacy.points.last().map(|p| p.fps),
            "{}",
            unit.label
        );
        assert_eq!(
            unit.metric("gr3d_percent"),
            Some(legacy.saturation_utilization_percent()),
            "{}",
            unit.label
        );
    }
    assert!(report.passed(), "{:?}", report.asserts);
}

#[test]
fn fleet_scn_spans_devices_and_conserves_requests() {
    let src = scn("fleet_diurnal.scn");
    let plan = compile_src(&src, CompileOptions { smoke: true }).unwrap();
    // One unit spanning all four devices — no per-device cross product.
    assert_eq!(plan.units.len(), 1);
    assert_eq!(plan.units[0].fleet_devices.len(), 4);
    assert_eq!(
        plan.units[0].label(),
        "diurnal/classifier/Googlenet@fleet4 b1"
    );
    match &plan.units[0].kind {
        trtsim_scenario::TrafficKind::Fleet { frames, queue, .. } => {
            assert_eq!(*frames, 32, "smoke caps frames");
            assert_eq!(*queue, 32, "smoke caps queue");
        }
        other => panic!("wrong kind: {other:?}"),
    }
    let registry = Registry::new();
    let report = driver::run(&plan, &registry).expect("driver runs");
    assert!(report.passed(), "{:?}", report.asserts);
    let unit = &report.units[0];
    assert_eq!(unit.kind, "fleet");
    // The fleet's final series and the driver's own activity land in the
    // caller's registry.
    let units = registry.counter("trtsim_scenario_units_total", "", &[("kind", "fleet")]);
    assert_eq!(units.get(), 1);
    let submitted = registry.counter(
        "trtsim_fleet_submitted_total",
        "",
        &[("model", "Googlenet"), ("tenant", "default")],
    );
    assert_eq!(submitted.get(), 32);
    // Conservation: offered = accepted + rejected, accepted = completed +
    // dropped — the router never loses a request.
    let m = |k| unit.metric(k).unwrap_or_else(|| panic!("missing {k}"));
    assert_eq!(m("accepted") + m("rejected"), 32.0);
    assert_eq!(m("completed") + m("dropped"), m("accepted"));
    assert_eq!(m("devices"), 4.0);
    assert!(m("max_device_share") <= 1.0);
    assert!(m("min_device_share") >= 0.0);

    let bench = emit::to_bench_report(&report, "smoke", "testrev");
    let json = bench.to_json();
    for needle in ["\"accepted\"", "\"devices\"", "@fleet4"] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}
