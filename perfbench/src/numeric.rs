//! `accuracy_eval` and `consistency_eval`: numeric classification of one
//! seed-chosen image per op.
//!
//! `accuracy_eval` runs the image through the un-optimized ResNet-18
//! (`ReferenceExecutor::run`) and through its NX and AGX engines
//! (`InferencePlan::execute`), the shape of Tables III/IV.
//! `consistency_eval` runs a GoogLeNet image through six engine builds
//! (three per platform), the shape of Tables V/VI.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use trtsim_core::runtime::ExecutionContext;
use trtsim_core::{Builder, BuilderConfig, Engine, PlanScratch, TimingCache};
use trtsim_data::corruptions::Severity;
use trtsim_data::imagenet::LabeledImage;
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_ir::{ReferenceExecutor, Tensor};
use trtsim_models::ModelId;
use trtsim_repro::exp_accuracy::{AccuracyConfig, AccuracySetup};
use trtsim_util::derive_seed;

use crate::trace::{Tracer, SETUP_OP};
use crate::{stats, Config, Layers, Ops, Report};

/// One numeric workload's shape.
#[derive(Debug)]
pub(crate) struct Spec {
    model: ModelId,
    /// Corruption severities whose sets join the benign set in the pool.
    severities: &'static [u8],
    /// Engine builds per platform.
    builds: u64,
    /// Also classify through the un-optimized network.
    reference: bool,
    /// Domain salting the per-seed engine build seeds.
    domain: &'static str,
}

/// Tables III/IV shape.
pub(crate) const ACCURACY: Spec = Spec {
    model: ModelId::Resnet18,
    severities: &[1, 5],
    builds: 1,
    reference: true,
    domain: "perfbench-accuracy-engine",
};

/// Tables V/VI shape.
pub(crate) const CONSISTENCY: Spec = Spec {
    model: ModelId::Googlenet,
    severities: &[1],
    builds: 3,
    reference: false,
    domain: "perfbench-consistency-engine",
};

/// Dataset scale: 20 classes; 200 benign images and 300 corrupted images
/// per severity.
const DATA: AccuracyConfig = AccuracyConfig {
    classes: 20,
    benign_per_class: 10,
    adversarial_per_class: 1,
    corruption_families: 15,
};

/// Ops that share one `PlanScratch` per engine, like one `infer_batch`
/// chunk. A scratch's arena keeps every buffer released into it, including
/// the outputs of steps that allocate outside the arena, so its footprint
/// grows with each execution; a fresh scratch every `SCRATCH_OPS` ops keeps
/// that growth — and `peak_rss_mb` — independent of the run's length.
const SCRATCH_OPS: u64 = 64;

/// What set-up builds and owns.
struct Owned {
    setup: AccuracySetup,
    pool: Vec<LabeledImage>,
    engines: Vec<Engine>,
    build_seeds: Vec<u64>,
}

impl Owned {
    fn build(
        spec: &Spec,
        seed: u64,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Result<Self, String> {
        let setup = tracer.time("models.classifier", SETUP_OP, || {
            AccuracySetup::new(spec.model, &DATA)
        });
        let pool = tracer.time("data.eval_set", SETUP_OP, || {
            let mut pool = setup.benign(&DATA);
            for &level in spec.severities {
                pool.extend(setup.adversarial(&DATA, Severity::new(level)));
            }
            pool
        });
        let cache = Arc::new(TimingCache::new());
        let mut engines = Vec::new();
        let mut build_seeds = Vec::new();
        for platform in [Platform::Nx, Platform::Agx] {
            for index in 0..spec.builds {
                let build_seed = derive_seed(seed, spec.domain, (platform as u64) << 8 | index);
                let config = BuilderConfig::default()
                    .with_build_seed(build_seed)
                    .with_pruning(true)
                    .with_prune_threshold(0.55)
                    .with_build_threads(1)
                    .with_timing_cache(Arc::clone(&cache));
                let engine = tracer
                    .time("core.builder.build", SETUP_OP, || {
                        Builder::new(DeviceSpec::pinned_clock(platform), config)
                            .build(&setup.network)
                    })
                    .map_err(|e| format!("building {} on {platform:?}: {e}", spec.model))?;
                engines.push(engine);
                build_seeds.push(build_seed);
            }
        }
        let cache_stats = cache.stats();
        layers.insert("core.timing_cache.hits", cache_stats.hits as f64);
        layers.insert("core.timing_cache.misses", cache_stats.misses as f64);
        Ok(Self {
            setup,
            pool,
            engines,
            build_seeds,
        })
    }
}

/// The op state, borrowing what set-up owns.
struct Numeric<'a> {
    owned: &'a Owned,
    seed: u64,
    reference: Option<ReferenceExecutor<'a>>,
    contexts: Vec<ExecutionContext<'a>>,
    scratch: Vec<PlanScratch>,
}

/// One op's result: the image, its true label, one predicted label per
/// path (reference first, if any) and a digest of each engine's raw output
/// bits.
struct Classified {
    image: usize,
    truth: usize,
    labels: Vec<usize>,
    digests: Vec<u64>,
}

impl<'a> Numeric<'a> {
    /// Binds executors and compiles every engine's plan (the first
    /// `ExecutionContext::plan` call).
    fn new(spec: &Spec, owned: &'a Owned, seed: u64, tracer: &mut Tracer) -> Result<Self, String> {
        let reference = if spec.reference {
            Some(
                ReferenceExecutor::new(&owned.setup.network)
                    .map_err(|e| format!("reference network: {e}"))?,
            )
        } else {
            None
        };
        let contexts: Vec<ExecutionContext<'a>> = owned
            .engines
            .iter()
            .map(|e| ExecutionContext::new(e, DeviceSpec::pinned_clock(e.build_platform())))
            .collect();
        for ctx in &contexts {
            tracer
                .time("core.fastpath.compile", SETUP_OP, || ctx.plan().map(|_| ()))
                .map_err(|e| format!("compiling {}: {e}", ctx.engine().name()))?;
        }
        let scratch = contexts.iter().map(|_| PlanScratch::new()).collect();
        Ok(Self {
            owned,
            seed,
            reference,
            contexts,
            scratch,
        })
    }

    fn pick(&self, i: u64) -> usize {
        (derive_seed(self.seed, "perfbench-image", i) % self.owned.pool.len() as u64) as usize
    }

    fn paths(&self) -> usize {
        usize::from(self.reference.is_some()) + self.contexts.len()
    }
}

fn label(outputs: &[Tensor]) -> usize {
    outputs.first().and_then(Tensor::argmax).unwrap_or(0)
}

impl Ops for Numeric<'_> {
    type Out = Classified;

    fn op(&mut self, i: u64, tracer: &mut Tracer) -> Result<Classified, String> {
        if i.is_multiple_of(SCRATCH_OPS) {
            self.scratch
                .iter_mut()
                .for_each(|s| *s = PlanScratch::new());
        }
        let image = self.pick(i);
        let sample = &self.owned.pool[image];
        let mut labels = Vec::with_capacity(self.paths());
        if let Some(exec) = &self.reference {
            let out = tracer
                .time("ir.exec", i, || exec.run(&sample.image))
                .map_err(|e| format!("reference run: {e}"))?;
            labels.push(label(&out));
        }
        let mut digests = Vec::with_capacity(self.contexts.len());
        for (ctx, scratch) in self.contexts.iter().zip(&mut self.scratch) {
            let plan = ctx.plan().map_err(|e| e.to_string())?;
            let out = tracer
                .time("core.fastpath", i, || plan.execute(&sample.image, scratch))
                .map_err(|e| format!("plan of {}: {e}", ctx.engine().name()))?;
            labels.push(label(&out));
            digests.push(digest(&out));
        }
        Ok(Classified {
            image,
            truth: sample.label,
            labels,
            digests,
        })
    }

    /// Top-1 errors per path, then label mismatches per path pair
    /// (same-platform and cross-platform engine pairs, and each engine
    /// against the reference).
    fn tally(&self, outs: &[&Classified]) -> Vec<u64> {
        let paths = self.paths();
        let mut counts = vec![0u64; paths + paths * (paths - 1) / 2];
        for out in outs {
            let mut k = paths;
            for a in 0..paths {
                counts[a] += u64::from(out.labels[a] != out.truth);
                for b in a + 1..paths {
                    counts[k] += u64::from(out.labels[a] != out.labels[b]);
                    k += 1;
                }
            }
        }
        counts
    }

    /// Sampled plan outputs must be bit-identical to the unplanned
    /// interpreter on the same engine and image.
    fn check(&self, _i: u64, out: &Classified, deep: bool) -> Vec<String> {
        if !deep {
            return Vec::new();
        }
        let image = &self.owned.pool[out.image].image;
        let mut bad = Vec::new();
        for (ctx, &planned) in self.contexts.iter().zip(&out.digests) {
            let name = ctx.engine().name();
            match ctx.infer_unplanned(image) {
                Ok(oracle) if digest(&oracle) == planned => {}
                Ok(_) => bad.push(format!("plan of {name} differs from the interpreter")),
                Err(e) => bad.push(format!("interpreter on {name}: {e}")),
            }
        }
        bad
    }

    fn layers(&self, _outs: &[Classified], tracer: &Tracer, layers: &mut Layers) {
        let sum = |name: &str| tracer.durations_ms(name).iter().sum::<f64>();
        layers.insert("models.classifier_s", sum("models.classifier") / 1e3);
        layers.insert("data.eval_set_s", sum("data.eval_set") / 1e3);
        layers.insert("core.builder.build_ms", sum("core.builder.build"));
        layers.insert("core.fastpath.compile_ms", sum("core.fastpath.compile"));
        let op_ns = tracer.durations_ms(crate::trace::OP).iter().sum::<f64>() * 1e6;
        for (span, p50, p95) in [
            ("ir.exec", "ir.exec.run_ms_p50", "ir.exec.run_ms_p95"),
            (
                "core.fastpath",
                "core.fastpath.execute_ms_p50",
                "core.fastpath.execute_ms_p95",
            ),
        ] {
            let ms = tracer.durations_ms(span);
            layers.insert(p50, stats::median(&ms));
            layers.insert(p95, stats::percentile(&ms, 0.95));
        }
        layers.insert(
            "ir.exec.share",
            stats::ratio(tracer.child_ns("ir.exec") as f64, op_ns),
        );
        layers.insert(
            "core.fastpath.share",
            stats::ratio(tracer.child_ns("core.fastpath") as f64, op_ns),
        );
        let mut peak = 0u64;
        let mut capacity = 0u64;
        let mut live = 0u64;
        let mut converts = 0u64;
        for ctx in &self.contexts {
            let Ok(plan) = ctx.plan() else { continue };
            let arena = plan.arena_stats();
            peak = peak.max(arena.peak_live_bytes);
            live += arena.peak_live_bytes;
            capacity += arena.slot_capacity_bytes;
            converts += plan.layout_converts_per_execution();
        }
        layers.insert("core.fastpath.arena_peak_live_bytes", peak as f64);
        layers.insert(
            "core.fastpath.arena_utilization",
            stats::ratio(live as f64, capacity as f64),
        );
        layers.insert(
            "core.fastpath.layout_converts_per_exec",
            stats::ratio(converts as f64, self.contexts.len() as f64),
        );
    }

    fn input_digest(&self, ops: u64) -> u64 {
        let picks = (0..ops).map(|i| self.pick(i) as u64);
        self.owned
            .build_seeds
            .iter()
            .copied()
            .chain(picks)
            .fold(self.owned.pool.len() as u64, |acc, v| {
                derive_seed(acc, "digest", v)
            })
    }
}

/// Hash of the tensors' shapes and raw `f32` bits: outputs whose digests
/// differ are not bit-identical.
fn digest(tensors: &[Tensor]) -> u64 {
    let mut h = DefaultHasher::new();
    for t in tensors {
        t.shape().hash(&mut h);
        for v in t.as_slice() {
            v.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

/// Sets up repeatedly (once when tracing), then measures on the last
/// set-up.
pub(crate) fn run(config: &Config, spec: &Spec) -> Result<Report, String> {
    let mut tracer = Tracer::new(config.trace);
    let mut setup_s = Vec::new();
    loop {
        let started = Instant::now();
        let mut layers = Layers::new();
        let owned = Owned::build(spec, config.seed, &mut tracer, &mut layers)?;
        let mut ops = Numeric::new(spec, &owned, config.seed, &mut tracer)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if !crate::another_setup(config, &setup_s) {
            return crate::measure(config, &mut ops, &setup_s, tracer, layers);
        }
    }
}
