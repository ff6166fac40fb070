//! Semantic validation: AST → typed [`ScenarioGraph`], accumulating errors.
//!
//! Modeled on tast's span-carrying semantic checks and Sunscreen's
//! `validate_ir`: the pass never stops at the first problem. Every check —
//! duplicate node names, dangling `uses` references, cycles, wrong-kind
//! edges, unknown model/platform identifiers, unknown or mistyped
//! attributes, unsatisfied `requires` — appends to one error list, and a
//! file with ten mistakes produces ten spans. Only if the list ends empty
//! does the caller get the typed graph.
//!
//! The typed graph is deliberately index-linked (`Vec` positions, not
//! names) so the compiler in [`mod@super::compile`] never resolves a name
//! again.

use std::collections::HashMap;

use super::ast::{Node, NodeKind, ScenarioAst, Value};
use super::span::{Diagnostic, Span, Spanned};
use trtsim_gpu::device::Platform;
use trtsim_models::ModelId;

/// A semantic error with the byte span it is anchored at.
#[derive(Debug, Clone, PartialEq)]
pub enum SemanticError {
    /// Two nodes share a name.
    DuplicateNode {
        /// The repeated name.
        name: String,
        /// The second declaration.
        span: Span,
        /// The first declaration.
        first: Span,
    },
    /// A `uses` / `requires` reference to a node that does not exist.
    DanglingEdge {
        /// The missing name.
        name: String,
        /// The reference.
        span: Span,
    },
    /// The `uses` edges form a cycle.
    Cycle {
        /// Node names along the cycle, starting and ending at the same node.
        path: Vec<String>,
        /// The edge reference that closes the cycle.
        span: Span,
    },
    /// A `uses` edge points at the wrong node kind.
    BadEdgeKind {
        /// Kind of the node holding the edge.
        from: NodeKind,
        /// Kind of the referenced node.
        to: NodeKind,
        /// Kind the edge must point at.
        expected: NodeKind,
        /// The reference.
        span: Span,
    },
    /// A `requires` capability no used device `provides`.
    UnsatisfiedRequires {
        /// The missing capability.
        capability: String,
        /// Name of the device lacking it.
        device: String,
        /// The requirement.
        span: Span,
        /// The device declaration.
        device_span: Span,
    },
    /// A network name no [`ModelId`] matches.
    UnknownModel {
        /// The name as written.
        name: String,
        /// Where it was written.
        span: Span,
    },
    /// A platform name that is neither `nx` nor `agx`.
    UnknownPlatform {
        /// The name as written.
        name: String,
        /// Where it was written.
        span: Span,
    },
    /// An attribute this node kind does not define.
    UnknownAttr {
        /// The node kind.
        kind: NodeKind,
        /// The attribute name.
        name: String,
        /// The attribute name's span.
        span: Span,
    },
    /// A required attribute is absent.
    MissingAttr {
        /// The node kind.
        kind: NodeKind,
        /// The missing attribute.
        name: &'static str,
        /// The node header.
        span: Span,
    },
    /// An attribute holds the wrong value type.
    TypeMismatch {
        /// The attribute name.
        attr: String,
        /// The type the schema wants.
        expected: &'static str,
        /// The type that was written.
        found: &'static str,
        /// The value's span.
        span: Span,
    },
    /// An attribute's value is the right type but out of range / not one of
    /// the allowed words.
    BadValue {
        /// The attribute name.
        attr: String,
        /// What is wrong with it.
        message: String,
        /// The value's span.
        span: Span,
    },
}

impl SemanticError {
    /// The span the error is anchored at.
    pub fn span(&self) -> Span {
        match self {
            SemanticError::DuplicateNode { span, .. }
            | SemanticError::DanglingEdge { span, .. }
            | SemanticError::Cycle { span, .. }
            | SemanticError::BadEdgeKind { span, .. }
            | SemanticError::UnsatisfiedRequires { span, .. }
            | SemanticError::UnknownModel { span, .. }
            | SemanticError::UnknownPlatform { span, .. }
            | SemanticError::UnknownAttr { span, .. }
            | SemanticError::MissingAttr { span, .. }
            | SemanticError::TypeMismatch { span, .. }
            | SemanticError::BadValue { span, .. } => *span,
        }
    }

    /// Renders as a [`Diagnostic`], with secondary notes where a second
    /// location clarifies the problem.
    pub fn diagnostic(&self) -> Diagnostic {
        match self {
            SemanticError::DuplicateNode { name, span, first } => {
                Diagnostic::new(format!("duplicate node name `{name}`"), *span)
                    .with_note("first defined here", Some(*first))
            }
            SemanticError::DanglingEdge { name, span } => {
                Diagnostic::new(format!("reference to unknown node `{name}`"), *span)
            }
            SemanticError::Cycle { path, span } => Diagnostic::new(
                format!("`uses` edges form a cycle: {}", path.join(" -> ")),
                *span,
            ),
            SemanticError::BadEdgeKind {
                from,
                to,
                expected,
                span,
            } => Diagnostic::new(
                format!("a `{from}` node must use `{expected}` nodes, but this is a `{to}`"),
                *span,
            ),
            SemanticError::UnsatisfiedRequires {
                capability,
                device,
                span,
                device_span,
            } => Diagnostic::new(
                format!("required capability `{capability}` is not provided by device `{device}`"),
                *span,
            )
            .with_note(
                format!("device `{device}` declared here"),
                Some(*device_span),
            ),
            SemanticError::UnknownModel { name, span } => {
                Diagnostic::new(format!("unknown model `{name}`"), *span).with_note(
                    format!(
                        "known models: {}",
                        ModelId::all()
                            .iter()
                            .map(|m| m.info().name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    None,
                )
            }
            SemanticError::UnknownPlatform { name, span } => Diagnostic::new(
                format!("unknown platform `{name}` (expected `nx` or `agx`)"),
                *span,
            ),
            SemanticError::UnknownAttr { kind, name, span } => {
                Diagnostic::new(format!("`{kind}` nodes have no attribute `{name}`"), *span)
            }
            SemanticError::MissingAttr { kind, name, span } => Diagnostic::new(
                format!("`{kind}` node is missing required attribute `{name}`"),
                *span,
            ),
            SemanticError::TypeMismatch {
                attr,
                expected,
                found,
                span,
            } => Diagnostic::new(
                format!("attribute `{attr}` expects a {expected}, found a {found}"),
                *span,
            ),
            SemanticError::BadValue {
                attr,
                message,
                span,
            } => Diagnostic::new(format!("bad value for `{attr}`: {message}"), *span),
        }
    }
}

impl std::fmt::Display for SemanticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.diagnostic().message)
    }
}

impl std::error::Error for SemanticError {}

/// How a device's clocks are configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerMode {
    /// MAXN — clocks at their ceiling ([`trtsim_gpu::device::DeviceSpec::max_clock`]).
    Max,
    /// Clocks pinned near 600 MHz, the paper's latency-measurement setup
    /// ([`trtsim_gpu::device::DeviceSpec::pinned_clock`]).
    Pinned,
}

/// Where a model node's engines come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSource {
    /// The [`crate::support::EngineFarm`] zoo (pinned-clock builds,
    /// campaign seeds) — what the paper campaign uses.
    Zoo,
    /// Fresh builds with an explicit base seed, one per build index.
    Fresh {
        /// Base build seed; build `i` uses `seed + i`.
        seed: u64,
    },
}

/// Host-side glue latency applied around each inference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HostGlue {
    /// Use the model's calibrated `host_glue_us`.
    Model,
    /// Use a fixed value in microseconds.
    Fixed(f64),
}

/// A validated `device` node.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDecl {
    /// Node name.
    pub name: String,
    /// Which board.
    pub platform: Platform,
    /// Clock configuration.
    pub power: PowerMode,
    /// Declared capabilities, matched against `requires`.
    pub provides: Vec<String>,
    /// The declaration's span (for downstream diagnostics).
    pub span: Span,
}

/// A validated `model` node.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDecl {
    /// Node name.
    pub name: String,
    /// Indices into [`ScenarioGraph::devices`].
    pub devices: Vec<usize>,
    /// The networks to build.
    pub networks: Vec<ModelId>,
    /// Max batch sizes to build engines for.
    pub batches: Vec<u32>,
    /// Engine provenance.
    pub source: EngineSource,
    /// Engine builds per (network, batch, device) combination.
    pub builds: u32,
    /// Host glue applied by latency traffic.
    pub host_glue: HostGlue,
}

/// What a `traffic` node drives.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficKind {
    /// Closed-loop single-stream latency measurement
    /// ([`trtsim_core::ExecutionContext::measure_latency`]).
    Latency {
        /// Timed runs per engine.
        runs: u32,
        /// Per-run jitter SD passed to `TimingOptions`.
        jitter_sd: f64,
        /// Also compute the framework (unoptimized) latency per network.
        compare_unoptimized: bool,
    },
    /// Closed-loop serving: submit `frames` requests, then drain
    /// ([`trtsim_core::serving::InferenceServer`]).
    Closed {
        /// Requests submitted.
        frames: u32,
        /// Worker contexts.
        workers: u32,
        /// Queue capacity.
        queue: u32,
        /// Batch window; `f64::INFINITY` = fill batches completely.
        timeout_us: f64,
    },
    /// Open-loop serving with Poisson arrivals
    /// ([`trtsim_core::serving::ServerConfig::with_poisson_arrivals`]).
    Poisson {
        /// Requests submitted.
        frames: u32,
        /// Worker contexts.
        workers: u32,
        /// Queue capacity.
        queue: u32,
        /// Mean inter-arrival gap in microseconds.
        period_us: f64,
        /// Arrival-process seed.
        seed: u64,
        /// Per-request latency deadline, µs. When set the server runs
        /// predictively: SLO-aware batching plus deadline-miss accounting
        /// ([`trtsim_core::serving::ServerConfig::with_deadline_us`]).
        deadline_us: Option<f64>,
    },
    /// Open-loop fleet serving: every device the traffic's models use
    /// becomes one board of a [`trtsim_core::fleet::Fleet`], and a shared
    /// `trtsim_data::traffic::ArrivalTrace` is replayed through the router.
    Fleet {
        /// Arrival-trace shape.
        trace: FleetTrace,
        /// Requests in the trace.
        frames: u32,
        /// Worker contexts per replica.
        workers: u32,
        /// Queue capacity per replica.
        queue: u32,
        /// Trace seed.
        seed: u64,
        /// Tenant name attributed to the trace, if any.
        tenant: Option<String>,
        /// Per-request latency deadline, µs. When set the fleet routes with
        /// its shared learned model and every replica runs deadline-based
        /// admission ([`trtsim_core::fleet::FleetConfig::with_predictive`]).
        deadline_us: Option<f64>,
    },
    /// Closed-form multi-stream saturation sweep — the paper's Figures 3/4
    /// ceiling experiment ([`trtsim_gpu::contention::sweep`]).
    Concurrency,
}

impl TrafficKind {
    /// The `kind = ...` keyword that declares this traffic.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficKind::Latency { .. } => "latency",
            TrafficKind::Closed { .. } => "closed",
            TrafficKind::Poisson { .. } => "poisson",
            TrafficKind::Fleet { .. } => "fleet",
            TrafficKind::Concurrency => "concurrency",
        }
    }
}

/// The arrival-trace shape a fleet traffic node replays.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetTrace {
    /// Constant-rate Poisson process (`period_us` mean gap).
    Poisson {
        /// Mean inter-arrival gap, µs.
        period_us: f64,
    },
    /// Sinusoidal day/night rate swing between `period_us` (trough) and
    /// `peak_period_us` (crest) over `cycle_us`.
    Diurnal {
        /// Mean gap at the quietest point, µs.
        period_us: f64,
        /// Mean gap at the busiest point, µs.
        peak_period_us: f64,
        /// Full cycle length, µs.
        cycle_us: f64,
    },
    /// Square-wave bursts: `peak_period_us` gaps inside the burst window,
    /// `period_us` gaps outside.
    Burst {
        /// Mean gap outside bursts, µs.
        period_us: f64,
        /// Mean gap inside bursts, µs.
        peak_period_us: f64,
        /// Full cycle length, µs.
        cycle_us: f64,
        /// Fraction of each cycle spent bursting, in `(0, 1]`.
        burst_fraction: f64,
    },
}

/// A validated `traffic` node.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficDecl {
    /// Node name.
    pub name: String,
    /// Indices into [`ScenarioGraph::models`].
    pub models: Vec<usize>,
    /// What the source does.
    pub kind: TrafficKind,
}

/// A validated `assert` node: a bound over a traffic node's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertDecl {
    /// Node name.
    pub name: String,
    /// Indices into [`ScenarioGraph::traffic`].
    pub traffic: Vec<usize>,
    /// Which metric to bound (e.g. `fps`, `p99_us`).
    pub metric: String,
    /// Inclusive lower bound.
    pub min: Option<f64>,
    /// Inclusive upper bound.
    pub max: Option<f64>,
}

/// The validated, index-linked scenario graph.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGraph {
    /// Scenario name from the header.
    pub name: String,
    /// Device nodes.
    pub devices: Vec<DeviceDecl>,
    /// Model nodes.
    pub models: Vec<ModelDecl>,
    /// Traffic nodes.
    pub traffic: Vec<TrafficDecl>,
    /// Assertion nodes.
    pub asserts: Vec<AssertDecl>,
}

/// Metric names an `assert` node may bound; the driver produces exactly
/// these keys per experiment unit.
pub const METRICS: &[&str] = &[
    "fps",
    "mean_us",
    "p50_us",
    "p90_us",
    "p95_us",
    "p99_us",
    "max_us",
    "gr3d_percent",
    "batches",
    "unoptimized_fps",
    "gain",
    "completed",
    "rejected",
    "accepted",
    "dropped",
    "devices",
    "min_device_share",
    "max_device_share",
    "max_threads",
    "deadline_missed",
    "deadline_miss_rate",
];

/// Normalizes a model/platform word for matching: lowercase, alphanumerics
/// only, so `ResNet-18`, `resnet18`, and `resnet_18` all agree.
fn normalize(word: &str) -> String {
    word.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

fn resolve_model(word: &str) -> Option<ModelId> {
    let want = normalize(word);
    ModelId::all()
        .into_iter()
        .find(|m| normalize(m.info().name) == want)
}

fn resolve_platform(word: &str) -> Option<Platform> {
    match normalize(word).as_str() {
        "nx" => Some(Platform::Nx),
        "agx" => Some(Platform::Agx),
        _ => None,
    }
}

/// The attribute names each node kind accepts.
fn known_attrs(kind: NodeKind) -> &'static [&'static str] {
    match kind {
        NodeKind::Device => &["platform", "power", "provides"],
        NodeKind::Model => &[
            "uses",
            "network",
            "networks",
            "batch",
            "batches",
            "source",
            "seed",
            "builds",
            "host_glue",
            "requires",
        ],
        NodeKind::Traffic => &[
            "uses",
            "kind",
            "runs",
            "jitter_sd",
            "compare_unoptimized",
            "frames",
            "workers",
            "queue",
            "timeout_us",
            "period_us",
            "seed",
            "trace",
            "peak_period_us",
            "cycle_us",
            "burst_fraction",
            "tenant",
            "deadline_us",
            "requires",
        ],
        NodeKind::Assert => &["uses", "metric", "min", "max"],
    }
}

/// What a word-valued attribute expects.
const WORD: &str = "word (identifier or string)";

fn as_num(value: &Value) -> Option<f64> {
    match value {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

fn as_word(value: &Value) -> Option<String> {
    match value {
        Value::Ident(w) | Value::Str(w) => Some(w.clone()),
        _ => None,
    }
}

struct Checker<'a> {
    ast: &'a ScenarioAst,
    errors: Vec<SemanticError>,
    /// name → node index, first declaration wins.
    by_name: HashMap<&'a str, usize>,
}

impl<'a> Checker<'a> {
    /// `value` as `expected` by `get`, or an accumulated
    /// [`SemanticError::TypeMismatch`] on `attr`.
    fn typed<T>(
        &mut self,
        attr: &str,
        value: &Spanned<Value>,
        expected: &'static str,
        get: impl Fn(&Value) -> Option<T>,
    ) -> Option<Spanned<T>> {
        let typed = get(&value.value).map(|v| Spanned::new(v, value.span));
        if typed.is_none() {
            self.errors.push(SemanticError::TypeMismatch {
                attr: attr.to_string(),
                expected,
                found: value.value.type_name(),
                span: value.span,
            });
        }
        typed
    }

    /// A word-valued attribute (bare identifier or string).
    fn word(&mut self, node: &Node, attr: &str) -> Option<Spanned<String>> {
        self.typed(attr, &node.attr(attr)?.value, WORD, as_word)
    }

    fn num(&mut self, node: &Node, attr: &str) -> Option<Spanned<f64>> {
        self.typed(attr, &node.attr(attr)?.value, "number", as_num)
    }

    fn boolean(&mut self, node: &Node, attr: &str) -> Option<Spanned<bool>> {
        self.typed(attr, &node.attr(attr)?.value, "bool", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// A list-valued attribute; a lone scalar is accepted as a 1-list.
    fn list(&mut self, node: &Node, attr: &str) -> Option<Vec<Spanned<Value>>> {
        let a = node.attr(attr)?;
        match &a.value.value {
            Value::List(items) => Some(items.clone()),
            _ => Some(vec![a.value.clone()]),
        }
    }

    /// A list of words (for `uses`, `requires`, `provides`, `networks`).
    fn word_list(&mut self, node: &Node, attr: &str) -> Vec<Spanned<String>> {
        let items = self.list(node, attr).unwrap_or_default();
        items
            .iter()
            .filter_map(|item| self.typed(attr, item, WORD, as_word))
            .collect()
    }

    /// Reports `attr` as missing from `node` unless it is present.
    fn require(&mut self, node: &Node, attr: &'static str) {
        if node.attr(attr).is_none() {
            self.errors.push(SemanticError::MissingAttr {
                kind: node.kind.value,
                name: attr,
                span: node.name.span,
            });
        }
    }

    /// A word attribute that must be one of `choices` once normalized:
    /// `None` when it is absent, not a word, or (reported) none of them.
    fn keyword(
        &mut self,
        node: &Node,
        attr: &str,
        choices: &[&'static str],
    ) -> Option<&'static str> {
        let w = self.word(node, attr)?;
        let found = choices.iter().copied().find(|&c| normalize(&w.value) == c);
        if found.is_none() {
            let quoted: Vec<String> = choices.iter().map(|c| format!("`{c}`")).collect();
            let expected = match quoted.split_last() {
                Some((last, [only])) => format!("{only} or {last}"),
                Some((last, rest)) => format!("{}, or {last}", rest.join(", ")),
                None => String::new(),
            };
            self.errors.push(SemanticError::BadValue {
                attr: attr.to_string(),
                message: format!("expected {expected}, got `{}`", w.value),
                span: w.span,
            });
        }
        found
    }

    /// The required, positive `period_us` of an open-loop traffic node.
    fn period_us(&mut self, node: &Node) -> Option<f64> {
        let period = self.checked_num(
            node,
            "period_us",
            |v| v > 0.0,
            |v| format!("mean inter-arrival gap must be positive, got {v}"),
        );
        self.require(node, "period_us");
        period
    }

    /// A numeric attribute `ok` accepts; `None` when it is absent, not a
    /// number, or (reported with `message`) rejected.
    fn checked_num(
        &mut self,
        node: &Node,
        attr: &str,
        ok: impl Fn(f64) -> bool,
        message: impl Fn(f64) -> String,
    ) -> Option<f64> {
        let n = self.num(node, attr)?;
        if !ok(n.value) {
            self.errors.push(SemanticError::BadValue {
                attr: attr.to_string(),
                message: message(n.value),
                span: n.span,
            });
        }
        ok(n.value).then_some(n.value)
    }

    /// A positive-integer attribute with a default.
    fn count(&mut self, node: &Node, attr: &str, default: u32) -> u32 {
        let n = self.num(node, attr);
        n.and_then(|n| self.as_count(attr, n)).unwrap_or(default)
    }

    /// The `seed` attribute, `default` when absent.
    fn seed(&mut self, node: &Node, default: u64) -> u64 {
        let n = self.num(node, "seed");
        n.and_then(|n| self.as_seed("seed", n)).unwrap_or(default)
    }

    fn as_count(&mut self, attr: &str, n: Spanned<f64>) -> Option<u32> {
        if n.value >= 1.0 && n.value.fract() == 0.0 && n.value <= u32::MAX as f64 {
            Some(n.value as u32)
        } else {
            self.errors.push(SemanticError::BadValue {
                attr: attr.to_string(),
                message: format!("expected a positive integer, got {}", n.value),
                span: n.span,
            });
            None
        }
    }

    fn as_seed(&mut self, attr: &str, n: Spanned<f64>) -> Option<u64> {
        if n.value >= 0.0 && n.value.fract() == 0.0 && n.value <= u64::MAX as f64 {
            Some(n.value as u64)
        } else {
            self.errors.push(SemanticError::BadValue {
                attr: attr.to_string(),
                message: format!("expected a non-negative integer, got {}", n.value),
                span: n.span,
            });
            None
        }
    }

    /// An optional `deadline_us` attribute: positive and finite, or an
    /// accumulated [`SemanticError::BadValue`].
    fn deadline_us(&mut self, node: &Node) -> Option<f64> {
        self.checked_num(
            node,
            "deadline_us",
            |v| v > 0.0 && v.is_finite(),
            |v| format!("deadline must be a positive finite µs count, got {v}"),
        )
    }

    /// Parses a fleet traffic node's arrival-trace shape: `trace =` word
    /// (default `poisson`) plus the shape's rate attributes, with
    /// `period_us` (already validated by the caller) as the base gap.
    fn fleet_trace(&mut self, node: &Node, period_us: f64) -> Option<FleetTrace> {
        let positive = |checker: &mut Self, attr: &'static str, default: f64| -> f64 {
            let message = |v| format!("expected a positive number, got {v}");
            checker
                .checked_num(node, attr, |v| v > 0.0, message)
                .unwrap_or(default)
        };
        let word = self.word(node, "trace");
        let shape = word
            .as_ref()
            .map_or_else(|| "poisson".to_string(), |w| normalize(&w.value));
        match shape.as_str() {
            "poisson" => Some(FleetTrace::Poisson { period_us }),
            "diurnal" => Some(FleetTrace::Diurnal {
                period_us,
                peak_period_us: positive(self, "peak_period_us", period_us / 10.0),
                cycle_us: positive(self, "cycle_us", 200_000.0),
            }),
            "burst" => {
                let in_unit = |v: f64| v > 0.0 && v <= 1.0;
                let message = |v| format!("expected a fraction in (0, 1], got {v}");
                let burst_fraction = self.checked_num(node, "burst_fraction", in_unit, message);
                let burst_fraction = burst_fraction.unwrap_or(0.25);
                Some(FleetTrace::Burst {
                    period_us,
                    peak_period_us: positive(self, "peak_period_us", period_us / 10.0),
                    cycle_us: positive(self, "cycle_us", 200_000.0),
                    burst_fraction,
                })
            }
            _ => {
                let w = word.expect("non-default shape implies the attr was present");
                self.errors.push(SemanticError::BadValue {
                    attr: "trace".into(),
                    message: format!(
                        "expected `poisson`, `diurnal`, or `burst`, got `{}`",
                        w.value
                    ),
                    span: w.span,
                });
                None
            }
        }
    }

    /// Resolves a node's required `uses` edges to indices, checking
    /// existence and target kind. Dangling or wrong-kind references are
    /// dropped (after reporting) so later passes see only valid indices.
    fn resolve_uses(&mut self, node: &Node) -> Vec<(usize, Span)> {
        let expected = node.kind.value.uses_target();
        let refs = self.word_list(node, "uses");
        let mut out = Vec::new();
        for r in refs {
            let Some(&target) = self.by_name.get(r.value.as_str()) else {
                self.errors.push(SemanticError::DanglingEdge {
                    name: r.value,
                    span: r.span,
                });
                continue;
            };
            let target_kind = self.ast.nodes[target].kind.value;
            match expected {
                Some(expected) if target_kind != expected => {
                    self.errors.push(SemanticError::BadEdgeKind {
                        from: node.kind.value,
                        to: target_kind,
                        expected,
                        span: r.span,
                    });
                }
                _ => out.push((target, r.span)),
            }
        }
        self.require(node, "uses");
        out
    }
}

/// Detects cycles in the raw `uses` edges (over all node kinds, before any
/// kind restriction) with a three-color DFS, reporting each cycle once.
fn check_cycles(ast: &ScenarioAst, by_name: &HashMap<&str, usize>) -> Vec<SemanticError> {
    // edges[i] = (target index, span of the reference)
    let mut edges: Vec<Vec<(usize, Span)>> = vec![Vec::new(); ast.nodes.len()];
    for (i, node) in ast.nodes.iter().enumerate() {
        let Some(attr) = node.attr("uses") else {
            continue;
        };
        let items: Vec<Spanned<Value>> = match &attr.value.value {
            Value::List(items) => items.clone(),
            _ => vec![attr.value.clone()],
        };
        for item in items {
            if let Some(&j) = as_word(&item.value).and_then(|w| by_name.get(w.as_str())) {
                edges[i].push((j, item.span));
            }
        }
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; ast.nodes.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut errors = Vec::new();
    fn dfs(
        i: usize,
        ast: &ScenarioAst,
        edges: &[Vec<(usize, Span)>],
        color: &mut [Color],
        stack: &mut Vec<usize>,
        errors: &mut Vec<SemanticError>,
    ) {
        color[i] = Color::Grey;
        stack.push(i);
        for &(j, span) in &edges[i] {
            match color[j] {
                Color::White => dfs(j, ast, edges, color, stack, errors),
                Color::Grey => {
                    let start = stack
                        .iter()
                        .position(|&n| n == j)
                        .expect("grey is on stack");
                    let mut path: Vec<String> = stack[start..]
                        .iter()
                        .map(|&n| ast.nodes[n].name.value.clone())
                        .collect();
                    path.push(ast.nodes[j].name.value.clone());
                    errors.push(SemanticError::Cycle { path, span });
                }
                Color::Black => {}
            }
        }
        stack.pop();
        color[i] = Color::Black;
    }
    for i in 0..ast.nodes.len() {
        if color[i] == Color::White {
            dfs(i, ast, &edges, &mut color, &mut stack, &mut errors);
        }
    }
    errors
}

/// A kind-local declaration awaiting edge remapping: the decl itself, its
/// `uses` targets as (global node index, edge span), and its raw `requires`
/// capability idents.
type Pending<T> = (T, Vec<(usize, Span)>, Vec<Spanned<String>>);

/// Validates a parsed scenario.
///
/// # Errors
///
/// Returns every accumulated [`SemanticError`] (never empty on `Err`).
pub fn validate(ast: &ScenarioAst) -> Result<ScenarioGraph, Vec<SemanticError>> {
    let mut checker = Checker {
        ast,
        errors: Vec::new(),
        by_name: HashMap::new(),
    };

    // Pass 1: names must be unique; first declaration wins for resolution.
    for (i, node) in ast.nodes.iter().enumerate() {
        if let Some(&first) = checker.by_name.get(node.name.value.as_str()) {
            checker.errors.push(SemanticError::DuplicateNode {
                name: node.name.value.clone(),
                span: node.name.span,
                first: ast.nodes[first].name.span,
            });
        } else {
            checker.by_name.insert(node.name.value.as_str(), i);
        }
    }

    // Pass 2: cycles over the raw edge set.
    let cycle_errors = check_cycles(ast, &checker.by_name);
    checker.errors.extend(cycle_errors);

    // Pass 3: attribute schema — unknown attribute names per kind.
    for node in &ast.nodes {
        for attr in &node.attrs {
            if !known_attrs(node.kind.value).contains(&attr.name.value.as_str()) {
                checker.errors.push(SemanticError::UnknownAttr {
                    kind: node.kind.value,
                    name: attr.name.value.clone(),
                    span: attr.name.span,
                });
            }
        }
    }

    // Pass 4: per-kind typing and reference resolution. Nodes are gathered
    // into kind-local vectors; `uses` indices are remapped from global node
    // index to kind-local index at the end.
    let mut devices: Vec<DeviceDecl> = Vec::new();
    let mut device_of: HashMap<usize, usize> = HashMap::new();
    let mut models: Vec<Pending<ModelDecl>> = Vec::new();
    let mut model_of: HashMap<usize, usize> = HashMap::new();
    let mut traffic: Vec<Pending<TrafficDecl>> = Vec::new();
    let mut traffic_of: HashMap<usize, usize> = HashMap::new();
    let mut asserts: Vec<(AssertDecl, Vec<(usize, Span)>)> = Vec::new();

    for (i, node) in ast.nodes.iter().enumerate() {
        // Skip shadowed duplicates: only the first declaration is compiled.
        if checker.by_name.get(node.name.value.as_str()) != Some(&i) {
            continue;
        }
        match node.kind.value {
            NodeKind::Device => {
                let platform = checker.word(node, "platform");
                checker.require(node, "platform");
                let platform = platform.and_then(|w| {
                    let platform = resolve_platform(&w.value);
                    if platform.is_none() {
                        checker.errors.push(SemanticError::UnknownPlatform {
                            name: w.value,
                            span: w.span,
                        });
                    }
                    platform
                });
                let power = match checker.keyword(node, "power", &["max", "pinned"]) {
                    Some("pinned") => PowerMode::Pinned,
                    _ => PowerMode::Max,
                };
                let provides = checker
                    .word_list(node, "provides")
                    .into_iter()
                    .map(|w| w.value)
                    .collect();
                if let Some(platform) = platform {
                    device_of.insert(i, devices.len());
                    devices.push(DeviceDecl {
                        name: node.name.value.clone(),
                        platform,
                        power,
                        provides,
                        span: node.name.span,
                    });
                }
            }
            NodeKind::Model => {
                let uses = checker.resolve_uses(node);
                let network_attr = if node.attr("networks").is_some() {
                    "networks"
                } else {
                    "network"
                };
                let mut networks = Vec::new();
                if node.attr(network_attr).is_none() {
                    checker.require(node, "network");
                } else {
                    for w in checker.word_list(node, network_attr) {
                        match resolve_model(&w.value) {
                            Some(m) => networks.push(m),
                            None => checker.errors.push(SemanticError::UnknownModel {
                                name: w.value,
                                span: w.span,
                            }),
                        }
                    }
                }
                let batch_attr = if node.attr("batches").is_some() {
                    "batches"
                } else {
                    "batch"
                };
                let mut batches = Vec::new();
                for item in checker.list(node, batch_attr).unwrap_or_default() {
                    let n = checker.typed(batch_attr, &item, "number", as_num);
                    batches.extend(n.and_then(|n| checker.as_count(batch_attr, n)));
                }
                if batches.is_empty() {
                    batches.push(1);
                }
                let source = match checker.keyword(node, "source", &["zoo", "fresh"]) {
                    Some("fresh") => EngineSource::Fresh {
                        seed: checker.seed(node, 0),
                    },
                    _ => EngineSource::Zoo,
                };
                let builds = checker.count(node, "builds", 1);
                let host_glue = match node.attr("host_glue") {
                    None => HostGlue::Model,
                    Some(a) => match &a.value.value {
                        Value::Num(n) if *n >= 0.0 => HostGlue::Fixed(*n),
                        Value::Num(n) => {
                            checker.errors.push(SemanticError::BadValue {
                                attr: "host_glue".into(),
                                message: format!("glue microseconds cannot be negative ({n})"),
                                span: a.value.span,
                            });
                            HostGlue::Model
                        }
                        Value::Ident(w) | Value::Str(w) if normalize(w) == "model" => {
                            HostGlue::Model
                        }
                        other => {
                            checker.errors.push(SemanticError::TypeMismatch {
                                attr: "host_glue".into(),
                                expected: "number of microseconds or `model`",
                                found: other.type_name(),
                                span: a.value.span,
                            });
                            HostGlue::Model
                        }
                    },
                };
                let requires = checker.word_list(node, "requires");
                model_of.insert(i, models.len());
                models.push((
                    ModelDecl {
                        name: node.name.value.clone(),
                        devices: Vec::new(),
                        networks,
                        batches,
                        source,
                        builds,
                        host_glue,
                    },
                    uses,
                    requires,
                ));
            }
            NodeKind::Traffic => {
                let uses = checker.resolve_uses(node);
                let kinds = ["latency", "closed", "poisson", "fleet", "concurrency"];
                let kind_word = checker.keyword(node, "kind", &kinds);
                checker.require(node, "kind");
                let kind = match kind_word {
                    Some("latency") => Some(TrafficKind::Latency {
                        runs: checker.count(node, "runs", 30),
                        jitter_sd: checker
                            .num(node, "jitter_sd")
                            .map(|n| n.value)
                            .unwrap_or(0.0),
                        compare_unoptimized: checker
                            .boolean(node, "compare_unoptimized")
                            .map(|b| b.value)
                            .unwrap_or(false),
                    }),
                    Some("closed") => Some(TrafficKind::Closed {
                        frames: checker.count(node, "frames", 256),
                        workers: checker.count(node, "workers", 4),
                        queue: checker.count(node, "queue", 256),
                        timeout_us: match node.attr("timeout_us") {
                            None => f64::INFINITY,
                            Some(a) => match &a.value.value {
                                Value::Num(n) if *n >= 0.0 => *n,
                                Value::Ident(w) | Value::Str(w) if normalize(w) == "inf" => {
                                    f64::INFINITY
                                }
                                other => {
                                    checker.errors.push(SemanticError::TypeMismatch {
                                        attr: "timeout_us".into(),
                                        expected: "non-negative number or `inf`",
                                        found: other.type_name(),
                                        span: a.value.span,
                                    });
                                    f64::INFINITY
                                }
                            },
                        },
                    }),
                    Some("poisson") => {
                        let period = checker.period_us(node);
                        let deadline_us = checker.deadline_us(node);
                        period.map(|period_us| TrafficKind::Poisson {
                            frames: checker.count(node, "frames", 256),
                            workers: checker.count(node, "workers", 4),
                            queue: checker.count(node, "queue", 256),
                            period_us,
                            seed: checker.seed(node, 1),
                            deadline_us,
                        })
                    }
                    Some("fleet") => {
                        let period = checker.period_us(node);
                        let trace = period.and_then(|p| checker.fleet_trace(node, p));
                        let deadline_us = checker.deadline_us(node);
                        trace.map(|trace| TrafficKind::Fleet {
                            trace,
                            frames: checker.count(node, "frames", 256),
                            workers: checker.count(node, "workers", 2),
                            queue: checker.count(node, "queue", 64),
                            seed: checker.seed(node, 1),
                            tenant: checker.word(node, "tenant").map(|w| w.value),
                            deadline_us,
                        })
                    }
                    Some("concurrency") => Some(TrafficKind::Concurrency),
                    _ => None,
                };
                let requires = checker.word_list(node, "requires");
                if let Some(kind) = kind {
                    traffic_of.insert(i, traffic.len());
                    traffic.push((
                        TrafficDecl {
                            name: node.name.value.clone(),
                            models: Vec::new(),
                            kind,
                        },
                        uses,
                        requires,
                    ));
                }
            }
            NodeKind::Assert => {
                let uses = checker.resolve_uses(node);
                let metric = checker.word(node, "metric");
                checker.require(node, "metric");
                let metric = metric.map_or_else(String::new, |w| {
                    if !METRICS.contains(&w.value.as_str()) {
                        checker.errors.push(SemanticError::BadValue {
                            attr: "metric".into(),
                            message: format!(
                                "unknown metric `{}` (known: {})",
                                w.value,
                                METRICS.join(", ")
                            ),
                            span: w.span,
                        });
                    }
                    w.value
                });
                let min = checker.num(node, "min").map(|n| n.value);
                let max = checker.num(node, "max").map(|n| n.value);
                if node.attr("min").is_none() && node.attr("max").is_none() {
                    checker.errors.push(SemanticError::BadValue {
                        attr: "min".into(),
                        message: "an assert needs at least one of `min`, `max`".into(),
                        span: node.name.span,
                    });
                }
                if let (Some(lo), Some(hi)) = (min, max) {
                    if lo > hi {
                        checker.errors.push(SemanticError::BadValue {
                            attr: "max".into(),
                            message: format!("empty bound: min {lo} > max {hi}"),
                            span: node.attr("max").expect("checked above").value.span,
                        });
                    }
                }
                asserts.push((
                    AssertDecl {
                        name: node.name.value.clone(),
                        traffic: Vec::new(),
                        metric,
                        min,
                        max,
                    },
                    uses,
                ));
            }
        }
    }

    // Pass 5: remap edges to kind-local indices and check `requires`
    // against the `provides` of every device the node (transitively) runs
    // on. Edges whose target failed its own validation are dropped —
    // the target's error already explains why.
    let local = |of: &HashMap<usize, usize>, uses: Vec<(usize, Span)>| -> Vec<usize> {
        uses.iter()
            .filter_map(|(target, _)| of.get(target).copied())
            .collect()
    };
    let mut requires_errors: Vec<SemanticError> = Vec::new();
    let mut unsatisfied = |requires: Vec<Spanned<String>>, on: &[usize]| {
        for req in requires {
            for device in on.iter().map(|&d| &devices[d]) {
                if !device.provides.iter().any(|p| p == &req.value) {
                    requires_errors.push(SemanticError::UnsatisfiedRequires {
                        capability: req.value.clone(),
                        device: device.name.clone(),
                        span: req.span,
                        device_span: device.span,
                    });
                }
            }
        }
    };
    let mut models: Vec<ModelDecl> = models
        .into_iter()
        .map(|(mut decl, uses, requires)| {
            decl.devices = local(&device_of, uses);
            unsatisfied(requires, &decl.devices);
            decl
        })
        .collect();
    let traffic: Vec<TrafficDecl> = traffic
        .into_iter()
        .map(|(mut decl, uses, requires)| {
            decl.models = local(&model_of, uses);
            let on: Vec<usize> = decl
                .models
                .iter()
                .flat_map(|&m| models[m].devices.clone())
                .collect();
            unsatisfied(requires, &on);
            decl
        })
        .collect();
    checker.errors.extend(requires_errors);
    let asserts: Vec<AssertDecl> = asserts
        .into_iter()
        .map(|(mut decl, uses)| {
            decl.traffic = local(&traffic_of, uses);
            decl
        })
        .collect();
    // A model with no surviving device edge can't run; same for traffic.
    for decl in &mut models {
        decl.devices.dedup();
    }

    if checker.errors.is_empty() {
        Ok(ScenarioGraph {
            name: ast.name.value.clone(),
            devices,
            models,
            traffic,
            asserts,
        })
    } else {
        Err(checker.errors)
    }
}
