//! Self-test: a tiny run of every workload, untraced and traced.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use trtsim_perfbench::{run, Config, Report, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    let config = Config {
        workload,
        seed,
        seconds: 0.0,
        min_ops: 3,
        setup_reps: 1,
        trace,
        trace_out: None,
    };
    run(&config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn every_workload_prints_every_metric_and_fails_no_op() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = tiny(workload, 1, trace);
            let name = workload.name();
            assert!(report.correct, "{name}: {:?}", report.problems);
            assert_eq!(report.failed, 0, "{name}: {:?}", report.problems);
            assert!(report.attempted >= 3, "{name}: {} ops", report.attempted);
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, expected, "{name}");
            let line = report.to_json();
            for (metric, unit) in expected {
                let entry = format!("\"{metric}\": {{\"value\": ");
                assert!(
                    line.contains(&entry),
                    "{name}: {metric} missing from {line}"
                );
                assert!(
                    line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name}: {unit}"
                );
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            if !trace {
                assert!(
                    report.metrics.iter().all(|m| m.value > 0.0),
                    "{name}: {line}"
                );
            }
        }
    }
}

#[test]
fn traced_run_covers_ops_with_named_layer_spans() {
    for workload in Workload::ALL {
        let report = tiny(workload, 1, true);
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect("metric present")
        };
        assert!(
            value("trace.span_coverage") >= 0.9,
            "{}: coverage {}",
            workload.name(),
            value("trace.span_coverage")
        );
        let exercised = match workload {
            Workload::AccuracyEval => ["ir.exec.share", "core.fastpath.share"],
            Workload::ConsistencyEval => ["core.fastpath.share", "core.fastpath.compile_ms"],
            Workload::FleetReplay => ["core.fleet.start_ms", "core.reqtrace.recorded"],
        };
        for name in exercised {
            assert!(value(name) > 0.0, "{}: {name} is 0", workload.name());
        }
    }
}

#[test]
fn seeds_choose_inputs_and_every_seed_passes_the_gate() {
    for workload in Workload::ALL {
        let name = workload.name();
        let a = tiny(workload, 1, false);
        let again = tiny(workload, 1, false);
        let b = tiny(workload, 2, false);
        for report in [&a, &again, &b] {
            assert!(
                report.correct && report.failed == 0,
                "{name}: {:?}",
                report.problems
            );
        }
        assert_eq!(a.input_digest, again.input_digest, "{name}: same seed");
        assert_ne!(a.input_digest, b.input_digest, "{name}: different seeds");
    }
}
