//! Declarative experiment scenarios for the trtsim stack.
//!
//! A scenario is a `.scn` text file describing an experiment *graph* of
//! devices, models, traffic, and assertions —
//!
//! ```text
//! scenario "serving sweep" {
//!   device nx       { platform = nx  power = max }
//!   model  detector { uses = [nx]  network = tiny-yolov3  batches = [1, 2, 4, 8] }
//!   traffic sweep   { uses = [detector]  kind = closed  frames = 256 }
//!   assert  speedup { uses = [sweep]  metric = fps  min = 100 }
//! }
//! ```
//!
//! — and the pipeline is
//!
//! 1. [`parse`](parse::parse): hand-rolled span-tracking parser (std only),
//!    recovering at statement boundaries so one pass reports every syntax
//!    error;
//! 2. [`validate`](validate::validate): error-accumulating semantic checks
//!    (duplicate names, dangling edges, cycles, wrong-kind edges, unknown
//!    model/platform identifiers, unsatisfied `requires`) producing a typed
//!    [`ScenarioGraph`];
//! 3. [`compile`](compile::compile): lowering to a flat [`ExecutionPlan`]
//!    of fully resolved units;
//! 4. [`driver::run`]: the one generic driver, built on the caller's
//!    [`EngineFarm`](crate::support::EngineFarm),
//!    [`InferenceServer`](trtsim_core::serving::InferenceServer), and
//!    telemetry [`Registry`](trtsim_metrics::Registry);
//! 5. [`emit`]: markdown + JSON reports in the shared
//!    [`BenchReport`](trtsim_metrics::report::BenchReport) schema.
//!
//! Checked-in scenarios live under `scenarios/` at the repository root.
//! The `campaign` binary runs them (`campaign --scn FILE|DIR`) or only
//! validates them (`--check`), and its `table7`, `fig3`, `fig4`, `serving`
//! and `table14_16` sections render their tables from them.

pub mod ast;
pub mod compile;
pub mod driver;
pub mod emit;
pub mod parse;
pub mod span;
pub mod validate;

pub use ast::{Attr, Node, NodeKind, ScenarioAst, Value};
pub use compile::{compile, CompileOptions, ExecutionPlan, PlanAssert, PlanUnit};
pub use driver::{AssertOutcome, ScenarioReport, UnitResult};
pub use emit::{to_bench_report, to_markdown};
pub use parse::{parse, ParseError};
pub use span::{Diagnostic, Span, Spanned};
pub use validate::{
    validate, AssertDecl, DeviceDecl, EngineSource, FleetTrace, HostGlue, ModelDecl, PowerMode,
    ScenarioGraph, SemanticError, TrafficDecl, TrafficKind, METRICS,
};

/// A failed front-end stage: every accumulated diagnostic, not just the
/// first.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// Syntax errors from [`parse::parse`].
    Parse(Vec<ParseError>),
    /// Semantic errors from [`validate::validate`].
    Validate(Vec<SemanticError>),
}

impl ScenarioError {
    /// All diagnostics, in source order.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = match self {
            ScenarioError::Parse(errors) => errors.iter().map(ParseError::diagnostic).collect(),
            ScenarioError::Validate(errors) => errors
                .iter()
                .map(SemanticError::diagnostic)
                .collect::<Vec<_>>(),
        };
        out.sort_by_key(|d| (d.span.lo, d.span.hi));
        out
    }

    /// Renders every diagnostic compiler-style against the source.
    pub fn render(&self, path: &str, src: &str) -> String {
        self.diagnostics()
            .iter()
            .map(|d| d.render(path, src))
            .collect()
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n, stage) = match self {
            ScenarioError::Parse(e) => (e.len(), "syntax"),
            ScenarioError::Validate(e) => (e.len(), "validation"),
        };
        write!(f, "{n} {stage} error{}", if n == 1 { "" } else { "s" })
    }
}

impl std::error::Error for ScenarioError {}

/// Parses and validates a scenario source.
///
/// # Errors
///
/// Returns a [`ScenarioError`] carrying every accumulated diagnostic.
pub fn check_src(src: &str) -> Result<ScenarioGraph, ScenarioError> {
    let ast = parse::parse(src).map_err(ScenarioError::Parse)?;
    validate::validate(&ast).map_err(ScenarioError::Validate)
}

/// Parses, validates, and lowers a scenario source to an execution plan.
///
/// # Errors
///
/// Returns a [`ScenarioError`] carrying every accumulated diagnostic.
pub fn compile_src(src: &str, opts: CompileOptions) -> Result<ExecutionPlan, ScenarioError> {
    Ok(compile::compile(&check_src(src)?, opts))
}
