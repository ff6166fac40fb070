//! Validation tests: each semantic check fires with the right span, and
//! errors accumulate across a broken file instead of aborting at the first.

use trtsim_gpu::device::Platform;
use trtsim_repro::scenario::ast::NodeKind;
use trtsim_repro::scenario::parse::parse;
use trtsim_repro::scenario::validate::{
    validate, EngineSource, PowerMode, SemanticError, TrafficKind,
};

fn errors(src: &str) -> Vec<SemanticError> {
    validate(&parse(src).expect("syntactically valid"))
        .expect_err("source is intentionally semantically broken")
}

#[test]
fn duplicate_node_points_at_both_declarations() {
    let src = "scenario \"s\" {\n  device a { platform = nx }\n  device a { platform = agx }\n}";
    let first = src.find("a {").unwrap();
    let second = src.rfind("a {").unwrap();
    let errs = errors(src);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            SemanticError::DuplicateNode { name, span, first: f }
                if name == "a" && span.lo == second && f.lo == first
        )),
        "{errs:?}"
    );
}

#[test]
fn dangling_edge_points_at_the_reference() {
    let src = "scenario \"s\" {\n  device d { platform = nx }\n  model m { uses = [d, ghost] network = alexnet }\n}";
    let at = src.find("ghost").unwrap();
    let errs = errors(src);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(
        matches!(
            &errs[0],
            SemanticError::DanglingEdge { name, span } if name == "ghost" && span.lo == at
        ),
        "{errs:?}"
    );
}

#[test]
fn cycle_is_reported_with_the_closing_edge() {
    // a -> b -> a. The same edges are also kind-invalid (traffic must use
    // models), and both problems are reported — accumulation, not
    // either/or.
    let src = "scenario \"s\" {\n  traffic a { uses = [b] kind = latency }\n  traffic b { uses = [a] kind = latency }\n}";
    let closing = src.rfind("[a]").unwrap() + 1;
    let errs = errors(src);
    let cycle = errs
        .iter()
        .find_map(|e| match e {
            SemanticError::Cycle { path, span } => Some((path.clone(), *span)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no cycle error in {errs:?}"));
    assert_eq!(cycle.0, vec!["a", "b", "a"]);
    assert_eq!(cycle.1.lo, closing);
    let bad_kind = errs
        .iter()
        .filter(|e| matches!(e, SemanticError::BadEdgeKind { .. }))
        .count();
    assert_eq!(bad_kind, 2, "{errs:?}");
}

#[test]
fn bad_edge_kind_names_the_kinds() {
    let src = "scenario \"s\" {\n  device d { platform = nx }\n  model m { uses = [d] network = alexnet }\n  assert a { uses = [m] metric = fps min = 1 }\n}";
    let at = src.find("[m]").unwrap() + 1;
    let errs = errors(src);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            SemanticError::BadEdgeKind { from: NodeKind::Assert, to: NodeKind::Model, expected: NodeKind::Traffic, span }
                if span.lo == at
        )),
        "{errs:?}"
    );
}

#[test]
fn unsatisfied_requires_points_at_capability_and_device() {
    let src = "scenario \"s\" {\n  device d { platform = nx provides = [fp16] }\n  model m { uses = [d] network = alexnet requires = [dla] }\n}";
    let at = src.find("dla").unwrap();
    let device_at = src.find("d {").unwrap();
    let errs = errors(src);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(
        matches!(
            &errs[0],
            SemanticError::UnsatisfiedRequires { capability, device, span, device_span }
                if capability == "dla" && device == "d" && span.lo == at && device_span.lo == device_at
        ),
        "{errs:?}"
    );
}

#[test]
fn satisfied_requires_is_silent() {
    let src = "scenario \"s\" {\n  device d { platform = nx provides = [dla, fp16] }\n  model m { uses = [d] network = alexnet requires = [dla] }\n}";
    assert!(validate(&parse(src).unwrap()).is_ok());
}

#[test]
fn unknown_model_points_at_the_name() {
    let src = "scenario \"s\" {\n  device d { platform = nx }\n  model m { uses = [d] network = warpnet }\n}";
    let at = src.find("warpnet").unwrap();
    let errs = errors(src);
    assert!(
        matches!(
            &errs[0],
            SemanticError::UnknownModel { name, span } if name == "warpnet" && span.lo == at
        ),
        "{errs:?}"
    );
}

#[test]
fn unknown_platform_points_at_the_name() {
    let src = "scenario \"s\" {\n  device d { platform = tpu }\n}";
    let at = src.find("tpu").unwrap();
    let errs = errors(src);
    assert!(
        matches!(
            &errs[0],
            SemanticError::UnknownPlatform { name, span } if name == "tpu" && span.lo == at
        ),
        "{errs:?}"
    );
}

#[test]
fn unknown_attr_points_at_the_attr_name() {
    let src = "scenario \"s\" {\n  device d { platform = nx colour = red }\n}";
    let at = src.find("colour").unwrap();
    let errs = errors(src);
    assert!(
        matches!(
            &errs[0],
            SemanticError::UnknownAttr { kind: NodeKind::Device, name, span }
                if name == "colour" && span.lo == at
        ),
        "{errs:?}"
    );
}

#[test]
fn missing_attr_points_at_the_node_name() {
    let src = "scenario \"s\" {\n  device bare { }\n}";
    let at = src.find("bare").unwrap();
    let errs = errors(src);
    assert!(
        matches!(
            &errs[0],
            SemanticError::MissingAttr { kind: NodeKind::Device, name: "platform", span }
                if span.lo == at
        ),
        "{errs:?}"
    );
}

#[test]
fn type_mismatch_points_at_the_value() {
    let src = "scenario \"s\" {\n  device d { platform = nx }\n  model m { uses = [d] network = alexnet }\n  traffic t { uses = [m] kind = latency runs = [1] }\n}";
    let at = src.find("[1]").unwrap();
    let errs = errors(src);
    assert!(
        matches!(
            &errs[0],
            SemanticError::TypeMismatch { attr, expected: "number", found: "list", span }
                if attr == "runs" && span.lo == at
        ),
        "{errs:?}"
    );
}

#[test]
fn bad_value_points_at_the_value() {
    let src = "scenario \"s\" {\n  device d { platform = nx }\n  model m { uses = [d] network = alexnet batch = 0 }\n}";
    let at = src.find('0').unwrap();
    let errs = errors(src);
    assert!(
        matches!(
            &errs[0],
            SemanticError::BadValue { attr, span, .. } if attr == "batch" && span.lo == at
        ),
        "{errs:?}"
    );
}

#[test]
fn unknown_metric_is_rejected() {
    let src = "scenario \"s\" {\n  device d { platform = nx }\n  model m { uses = [d] network = alexnet }\n  traffic t { uses = [m] kind = latency }\n  assert a { uses = [t] metric = flops min = 1 }\n}";
    let at = src.find("flops").unwrap();
    let errs = errors(src);
    assert!(
        matches!(
            &errs[0],
            SemanticError::BadValue { attr, span, .. } if attr == "metric" && span.lo == at
        ),
        "{errs:?}"
    );
}

#[test]
fn non_positive_deadline_is_rejected() {
    let src = "scenario \"s\" {\n  device d { platform = nx }\n  model m { uses = [d] network = alexnet }\n  traffic t { uses = [m] kind = poisson period_us = 1000 deadline_us = -5 }\n}";
    let at = src.find("-5").unwrap();
    let errs = errors(src);
    assert!(
        matches!(
            &errs[0],
            SemanticError::BadValue { attr, span, .. } if attr == "deadline_us" && span.lo == at
        ),
        "{errs:?}"
    );
}

#[test]
fn errors_accumulate_across_checks() {
    // Five distinct semantic problems in one file; one validate reports all.
    let src = "scenario \"s\" {\n  device d { platform = tpu }\n  device d { platform = nx }\n  model m { uses = [ghost] network = warpnet }\n  assert a { uses = [m] metric = fps min = 1 }\n}";
    let errs = errors(src);
    assert!(errs.len() >= 5, "only {} errors: {errs:?}", errs.len());
    let has = |f: fn(&SemanticError) -> bool| errs.iter().any(f);
    assert!(has(|e| matches!(e, SemanticError::UnknownPlatform { .. })));
    assert!(has(|e| matches!(e, SemanticError::DuplicateNode { .. })));
    assert!(has(|e| matches!(e, SemanticError::DanglingEdge { .. })));
    assert!(has(|e| matches!(e, SemanticError::UnknownModel { .. })));
    assert!(has(|e| matches!(e, SemanticError::BadEdgeKind { .. })));
}

#[test]
fn valid_scenario_produces_the_typed_graph() {
    let src = "scenario \"good\" {\n  device nx { platform = nx power = pinned }\n  model m { uses = [nx] networks = [alexnet, googlenet] batches = [1, 4] source = fresh seed = 9 builds = 3 }\n  traffic t { uses = [m] kind = poisson period_us = 500 seed = 2 }\n  assert a { uses = [t] metric = fps min = 1 max = 100000 }\n}";
    let graph = validate(&parse(src).unwrap()).expect("valid");
    assert_eq!(graph.name, "good");
    assert_eq!(graph.devices.len(), 1);
    assert_eq!(graph.devices[0].platform, Platform::Nx);
    assert_eq!(graph.devices[0].power, PowerMode::Pinned);
    let m = &graph.models[0];
    assert_eq!(m.networks.len(), 2);
    assert_eq!(m.batches, vec![1, 4]);
    assert_eq!(m.source, EngineSource::Fresh { seed: 9 });
    assert_eq!(m.builds, 3);
    assert_eq!(m.devices, vec![0]);
    match &graph.traffic[0].kind {
        TrafficKind::Poisson {
            period_us, seed, ..
        } => {
            assert_eq!(*period_us, 500.0);
            assert_eq!(*seed, 2);
        }
        other => panic!("wrong kind: {other:?}"),
    }
    assert_eq!(graph.traffic[0].models, vec![0]);
    assert_eq!(graph.asserts[0].traffic, vec![0]);
    assert_eq!(graph.asserts[0].min, Some(1.0));
}
