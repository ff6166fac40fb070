//! Fixed-work benchmark of the trtsim accuracy, consistency and fleet paths.
//!
//! Each workload sets itself up several times (the median is `setup_s`),
//! then runs ops for a fixed wall time from one thread. Every op of a
//! workload does the same bundle of work on seed-chosen inputs, so the op
//! latencies form one distribution. After the timed loop a correctness gate
//! checks the outputs against oracles. With tracing on, the same ops run a
//! second time with a span around each op and each call into a simulator
//! layer; the per-layer metrics come from those spans and from the
//! per-object accessors of the layers.

pub mod trace;

mod fleet;
mod numeric;
mod stats;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use trace::{Tracer, OP};
use trtsim_util::derive_seed;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ResNet-18 image through the un-optimized network and the NX and AGX
    /// engines (Tables III/IV).
    AccuracyEval,
    /// GoogLeNet image through six engine builds (Tables V/VI).
    ConsistencyEval,
    /// A diurnal and a burst episode on a four-board fleet.
    FleetReplay,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AccuracyEval,
        Workload::ConsistencyEval,
        Workload::FleetReplay,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AccuracyEval => "accuracy_eval",
            Workload::ConsistencyEval => "consistency_eval",
            Workload::FleetReplay => "fleet_replay",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does not
/// exercise a layer reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("models.classifier_s", "s"),
    ("data.eval_set_s", "s"),
    ("core.builder.build_ms", "ms"),
    ("core.timing_cache.hits", "count"),
    ("core.timing_cache.misses", "count"),
    ("core.fastpath.compile_ms", "ms"),
    ("ir.exec.run_ms_p50", "ms"),
    ("ir.exec.run_ms_p95", "ms"),
    ("ir.exec.share", "fraction"),
    ("core.fastpath.execute_ms_p50", "ms"),
    ("core.fastpath.execute_ms_p95", "ms"),
    ("core.fastpath.share", "fraction"),
    ("core.fastpath.arena_peak_live_bytes", "bytes"),
    ("core.fastpath.arena_utilization", "fraction"),
    ("core.fastpath.layout_converts_per_exec", "count"),
    ("core.fleet.start_ms", "ms"),
    ("core.fleet.submit_us_p50", "us"),
    ("core.fleet.submit_us_p95", "us"),
    ("core.fleet.drain_ms", "ms"),
    ("core.fleet.rejected_share", "fraction"),
    ("core.fleet.predicted_dispatch_share", "fraction"),
    ("core.fleet.affinity_hits", "count"),
    ("core.serving.mean_batch_size", "frames"),
    ("core.serving.deadline_missed_share", "fraction"),
    ("core.predict.mape_percent", "%"),
    ("core.reqtrace.recorded", "count"),
    ("core.reqtrace.retained", "count"),
    ("core.reqtrace.evicted", "count"),
    ("sim.goodput_fps", "1/s"),
    ("sim.latency_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.span_coverage", "fraction"),
];

/// Ops a timed run makes at least, so that 5% of them — at least ten —
/// lie beyond `op_ms_p95`.
pub const MIN_OPS: u64 = 200;

/// Set-ups an untraced run makes at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// An untraced run keeps setting up until its set-ups took this long in
/// total (seconds), or [`MAX_SETUP_REPS`] ran, so that a millisecond
/// set-up is still measured often enough to have a steady median.
const SETUP_TOTAL_S: f64 = 2.0;

const MAX_SETUP_REPS: usize = 50;

/// Spans of the first `TRACE_FILE_OPS` ops (and every set-up span) go to
/// the trace file; the per-layer metrics use every span.
const TRACE_FILE_OPS: u64 = 16;

/// Timed ops whose outputs the gate re-derives (bit-identity against the
/// unplanned interpreter, tally replay).
const GATE_SAMPLE: usize = 6;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Minimum wall time of the timed loop, seconds (half of it when
    /// tracing).
    pub seconds: f64,
    /// Minimum op count of the timed loop.
    pub min_ops: u64,
    /// Set-ups an untraced run makes at least (a traced run sets up once).
    pub setup_reps: usize,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Where the traced pass writes its spans (chrome://tracing JSON).
    pub trace_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A run's result line.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every op succeeded and every check held.
    pub correct: bool,
    /// Ops run: timed, traced and gate re-runs.
    pub attempted: u64,
    /// Ops that errored, panicked or failed a check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics when tracing.
    pub metrics: Vec<Metric>,
    /// Digest of the inputs the timed ops consumed (differs across seeds).
    pub input_digest: u64,
    /// Why ops failed, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// The result as one JSON line: `correct`, `attempted`, `failed` and
    /// `metrics` (`{"name": {"value": v, "unit": u}}`). Names and units are
    /// the fixed identifiers above, so nothing needs escaping.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Fails when set-up fails (the engines cannot be built) or the trace file
/// cannot be written; op failures are reported in the [`Report`] instead.
pub fn run(config: &Config) -> Result<Report, String> {
    match config.workload {
        Workload::AccuracyEval => numeric::run(config, &numeric::ACCURACY),
        Workload::ConsistencyEval => numeric::run(config, &numeric::CONSISTENCY),
        Workload::FleetReplay => fleet::run(config),
    }
}

/// Per-layer values a workload fills; names absent at the end report 0.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// One workload's op, oracle and per-layer accounting.
pub(crate) trait Ops {
    /// What one op produces.
    type Out;

    /// Runs op `i`, with a span around each call into a layer.
    fn op(&mut self, i: u64, tracer: &mut Tracer) -> Result<Self::Out, String>;

    /// Counts that must come out identical when the same ops run again.
    fn tally(&self, outs: &[&Self::Out]) -> Vec<u64>;

    /// Oracle checks on op `i`'s output, one problem per violation; `deep`
    /// adds the expensive checks, made on a seeded sample of timed ops.
    fn check(&self, i: u64, out: &Self::Out, deep: bool) -> Vec<String>;

    /// Per-layer metrics of the traced pass.
    fn layers(&self, outs: &[Self::Out], tracer: &Tracer, layers: &mut Layers);

    /// Digest of the inputs of ops `0..ops`.
    fn input_digest(&self, ops: u64) -> u64;
}

fn run_op<O: Ops>(ops: &mut O, i: u64, tracer: &mut Tracer) -> Result<O::Out, String> {
    let span = tracer.begin(OP, i);
    let out = catch_unwind(AssertUnwindSafe(|| ops.op(i, tracer)))
        .unwrap_or_else(|_| Err("op panicked".to_string()));
    tracer.end(span);
    out.map_err(|e| format!("op {i}: {e}"))
}

/// Times ops, runs the gate and, when tracing, the traced pass; `setup_s`
/// holds each set-up's seconds, `tracer` the set-up spans and `layers` the
/// set-up layer values.
pub(crate) fn measure<O: Ops>(
    config: &Config,
    ops: &mut O,
    setup_s: &[f64],
    mut tracer: Tracer,
    mut layers: Layers,
) -> Result<Report, String> {
    let mut problems = Vec::new();
    let mut attempted = 0u64;

    // Timed loop, tracing off. A traced run gives it half its time and the
    // traced pass over the same ops the other half, so that traced and
    // untraced runs take about equally long.
    let seconds = if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    };
    let mut untraced = Tracer::new(false);
    let mut op_ms = Vec::new();
    let mut outs: Vec<Option<O::Out>> = Vec::new();
    let started = Instant::now();
    while (op_ms.len() as u64) < config.min_ops || started.elapsed().as_secs_f64() < seconds {
        let i = op_ms.len() as u64;
        let t = Instant::now();
        let out = run_op(ops, i, &mut untraced);
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        outs.push(out.map_err(|e| problems.push(e)).ok());
    }
    let wall_s = started.elapsed().as_secs_f64();
    let n = op_ms.len() as u64;
    attempted += n;
    let ops_per_s = n as f64 / wall_s;

    // Correctness gate, outside set-up and op timing.
    let sample = gate_sample(config.seed, n);
    let mut bad: Vec<u64> = Vec::new();
    for (i, out) in outs.iter().enumerate() {
        let Some(out) = out else { continue };
        let i = i as u64;
        for problem in ops.check(i, out, sample.contains(&i)) {
            bad.push(i);
            problems.push(format!("op {i}: {problem}"));
        }
    }
    let replay: Vec<u64> = if config.trace {
        (0..n).collect()
    } else {
        sample.clone()
    };
    let replay_started = Instant::now();
    let mut replayed = Vec::new();
    for &i in &replay {
        match run_op(ops, i, &mut tracer) {
            Ok(out) => {
                for problem in ops.check(i, &out, false) {
                    bad.push(i);
                    problems.push(format!("op {i} again: {problem}"));
                }
                replayed.push((i, out));
            }
            Err(e) => {
                bad.push(i);
                problems.push(e);
            }
        }
    }
    let replay_s = replay_started.elapsed().as_secs_f64();
    attempted += replay.len() as u64;
    let timed: Vec<&O::Out> = replayed
        .iter()
        .filter_map(|(i, _)| outs[*i as usize].as_ref())
        .collect();
    let again: Vec<&O::Out> = replayed.iter().map(|(_, out)| out).collect();
    if timed.len() == again.len() && ops.tally(&timed) != ops.tally(&again) {
        bad.push(u64::MAX);
        problems.push(format!(
            "tallies differ between the timed run and the {} of the same ops",
            if config.trace { "traced run" } else { "replay" }
        ));
    }
    bad.sort_unstable();
    bad.dedup();
    let failed = outs.iter().filter(|o| o.is_none()).count() as u64 + bad.len() as u64;

    let metrics: Vec<Metric> = if config.trace {
        let traced: Vec<O::Out> = replayed.into_iter().map(|(_, out)| out).collect();
        ops.layers(&traced, &tracer, &mut layers);
        let op_ms: f64 = tracer.durations_ms(OP).iter().sum();
        let self_ms = tracer.self_ns(OP) as f64 / 1e6;
        layers.insert("trace.span_coverage", stats::ratio(op_ms - self_ms, op_ms));
        let traced_ops_per_s = stats::ratio(n as f64, replay_s);
        layers.insert(
            "trace.overhead_pct",
            100.0 * stats::ratio(ops_per_s - traced_ops_per_s, ops_per_s),
        );
        if let Some(path) = &config.trace_out {
            write_trace(path, &tracer, config)?;
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: layers.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    } else {
        let values = [
            stats::median(setup_s),
            ops_per_s,
            stats::median(&op_ms),
            stats::percentile(&op_ms, 0.95),
            stats::peak_rss_mb()?,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };
    let mut correct = failed == 0;
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        correct = false;
        problems.push(format!("metric {} is not finite", m.name));
    }
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        input_digest: ops.input_digest(n),
        problems,
    })
}

/// Whether a run that has set up `done.len()` times should set up again.
pub(crate) fn another_setup(config: &Config, done: &[f64]) -> bool {
    !config.trace
        && done.len() < MAX_SETUP_REPS
        && (done.len() < config.setup_reps || done.iter().sum::<f64>() < SETUP_TOTAL_S)
}

/// Seeded, sorted, distinct op indices for the gate's sampled checks.
fn gate_sample(seed: u64, ops: u64) -> Vec<u64> {
    let mut picks: Vec<u64> = (0..GATE_SAMPLE as u64)
        .map(|k| derive_seed(seed, "gate", k) % ops.max(1))
        .collect();
    picks.sort_unstable();
    picks.dedup();
    picks
}

fn write_trace(path: &PathBuf, tracer: &Tracer, config: &Config) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }
    let name = format!("{} seed {}", config.workload.name(), config.seed);
    std::fs::write(path, tracer.chrome_json(&name, TRACE_FILE_OPS))
        .map_err(|e| format!("cannot write {path:?}: {e}"))
}
