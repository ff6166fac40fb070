//! Online-learned latency prediction for scheduling decisions.
//!
//! The paper's central observation is that TensorRT latency is *structurally*
//! predictable — plan step mix and device parameters explain most of it — but
//! drifts with runtime conditions: batch size, queue depth, stream
//! concurrency, and build-to-build tactic nondeterminism (Table XIII). The
//! analytic BSP model in `trtsim-perfmodel` captures the structure; this
//! module learns the drift, online, from the telemetry the serving path
//! already produces.
//!
//! ```text
//!   EngineFeatures (per engine × device, measured once at server start)
//!        │            QueueSignals (queue depth, stream busy %, per request)
//!        ▼                 │
//!   LatencyModel ◀─────────┴── observe(features, batch, signals, latency)
//!        │
//!        └── predict(features, batch, signals) -> PredictedLatency {p50, p99}
//! ```
//!
//! * **Fixed feature vector** — [`EngineFeatures`] condenses the plan (kernel
//!   busy time, DRAM time, launch count) and the device fingerprint into a
//!   few microsecond-scaled terms; [`QueueSignals`] adds the runtime state.
//!   Every feature is non-negative and non-decreasing in batch size and queue
//!   depth.
//! * **Projected normalized-LMS trainer** — incremental least squares with
//!   the update `w += µ·err·x / (ε + ‖x‖²)`, weights projected onto `w ≥ 0`
//!   after every step. Non-negative weights over monotone features make the
//!   prediction itself monotone in batch and queue depth *by construction*,
//!   so the scheduler can binary-search batch sizes against an SLO.
//! * **Distribution, not a point** — a log-bucket histogram of prequential
//!   residual ratios (`observed / predicted`) turns the point estimate into
//!   calibrated p50/p99 multipliers: [`PredictedLatency::p99_us`] is what the
//!   SLO-aware batcher compares against a deadline.
//! * **Cold-start gate** — [`LatencyModel::predict`] returns `None` until
//!   [`LatencyModel::min_obs`] observations have been absorbed; callers
//!   (the batcher, the fleet router) fall back to their static heuristics.
//! * **Deterministic** — no wall clock, no global RNG: the weights are a pure
//!   function of the seed and the observation stream, so the same seed and
//!   stream reproduce bit-identical weights.

use std::sync::Mutex;

use trtsim_gpu::device::DeviceSpec;
use trtsim_util::Pcg32;

use crate::engine::Engine;
use crate::runtime::ExecutionContext;

/// Number of features in the fixed vector (see [`EngineFeatures::vector`]).
pub const FEATURE_DIM: usize = 10;

/// NLMS step size.
const STEP: f64 = 0.5;
/// Observation count over which the NLMS step decays to half its initial
/// value (harmonic annealing: `STEP / (1 + n / STEP_ANNEAL_OBS)`).
const STEP_ANNEAL_OBS: f64 = 256.0;
/// NLMS normalization floor, keeps the update finite for tiny feature norms.
const NORM_EPS: f64 = 1e-9;
/// Residual-ratio histogram: `RATIO_BUCKETS` log buckets with growth factor
/// `RATIO_GROWTH`, centred on ratio 1.0 at index `RATIO_CENTER`. Covers
/// observed/predicted ratios from ~0.044 to ~22.6 at ~5 % resolution.
const RATIO_BUCKETS: usize = 128;
const RATIO_CENTER: usize = 64;
const RATIO_GROWTH: f64 = 1.05;
/// When the residual histogram's total mass reaches this, every bucket is
/// halved (integer division). The exponential decay keeps the p50/p99
/// calibration multipliers tracking the *current* serving regime — an
/// all-time histogram would let a congested warm-up phase inflate the
/// quantiles long after the weights had adapted.
const RATIO_DECAY_AT: u64 = 256;

/// Static per-(engine, device) feature inputs, measured once from the plan's
/// analytic profile — the "plan step mix" and "device fingerprint" terms of
/// the feature vector. Cheap to construct (no timeline is touched) and
/// immutable, so servers share one per replica.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineFeatures {
    /// Engine (model) name, for labelling.
    pub model: String,
    /// Single-frame GPU busy time (kernel roofline sum), µs.
    pub compute_us: f64,
    /// Single-frame DRAM service time (post-cache traffic over effective
    /// bandwidth), µs.
    pub mem_us: f64,
    /// Per-inference launch overhead: launch count × device launch cost, µs.
    pub launch_us: f64,
    /// Host glue per batched enqueue, µs.
    pub glue_us: f64,
    /// Analytic single-frame service estimate (busy + launches + glue), µs —
    /// the scale factor for the queue-state features.
    pub service_us: f64,
    /// The device's timing fingerprint ([`DeviceSpec::timing_fingerprint`]):
    /// distinct devices get a distinct (constant) identity feature, so one
    /// shared model can tell a pinned NX from a max-clock AGX.
    pub fingerprint: u64,
}

impl EngineFeatures {
    /// Measures the static features of `engine` on `device` with the given
    /// per-batch host glue. Uses the same analytic profile as the fleet
    /// router's service-cost estimate; no simulated time is consumed.
    pub fn measure(engine: &Engine, device: &DeviceSpec, host_glue_us: f64) -> Self {
        let ctx = ExecutionContext::new(engine, device.clone());
        let compute_us = ctx.gpu_busy_us();
        let mem_us = ctx.dram_bytes_per_inference() as f64 / device.effective_dram_bytes_per_us();
        let launch_us = engine.launch_count() as f64 * device.kernel_launch_us;
        let glue_us = host_glue_us.max(0.0);
        Self {
            model: engine.name().to_string(),
            compute_us,
            mem_us,
            launch_us,
            glue_us,
            service_us: compute_us + launch_us + glue_us,
            fingerprint: device.timing_fingerprint(),
        }
    }

    /// The fixed feature vector for a request of size `batch` seen under
    /// queue state `signals`. Every component is non-negative and
    /// non-decreasing in both `batch` and `signals.queue_depth`, which is
    /// what makes non-negative-weight predictions monotone.
    pub fn vector(&self, batch: usize, signals: &QueueSignals) -> [f64; FEATURE_DIM] {
        let b = batch.max(1) as f64;
        let q = signals.queue_depth.max(0.0);
        let busy = signals.busy_frac.max(0.0);
        // A constant per-device identity term in (0, 1], scaled to µs via the
        // service estimate so its weight shares the others' magnitude.
        let identity = (self.fingerprint % 251 + 1) as f64 / 251.0;
        [
            1.0,
            b,
            b * self.compute_us,
            b * self.mem_us,
            self.launch_us + self.glue_us,
            q * self.service_us,
            busy * self.service_us,
            q,
            identity * self.service_us,
            signals.committed_us.max(0.0),
        ]
    }
}

/// Instantaneous queue state at prediction (or observation) time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueueSignals {
    /// Requests waiting in the submission queue ahead of this one, divided
    /// by the server's worker parallelism — i.e. queue depth in units of
    /// drain capacity. The normalization matters because the model is
    /// shared across replicas with different worker counts: four frames
    /// ahead of a lone worker are four service times of wait, while four
    /// frames fanned over four workers are one.
    pub queue_depth: f64,
    /// Fraction of worker streams with a batch in service, in `[0, 1]`.
    pub busy_frac: f64,
    /// Committed-work horizon, µs: how far past this request's arrival the
    /// device's earliest-free stream is already booked. Queue depth is a
    /// *proxy* for waiting time; this is the waiting time a scheduler can
    /// read directly off its own dispatch ledger (TensorRT knows when each
    /// enqueued batch will retire), and it is what turns the model's
    /// deadline calls from ±several-ms guesses into sharp ones.
    pub committed_us: f64,
}

impl QueueSignals {
    /// Signals from a queue depth and a busy fraction, with no committed
    /// backlog.
    pub fn new(queue_depth: f64, busy_frac: f64) -> Self {
        Self {
            queue_depth,
            busy_frac,
            committed_us: 0.0,
        }
    }

    /// Sets the committed-work horizon, µs (clamped non-negative).
    pub fn with_committed_us(mut self, us: f64) -> Self {
        self.committed_us = us.max(0.0);
        self
    }
}

/// A calibrated latency prediction: the point estimate widened by the
/// model's own observed residual quantiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedLatency {
    /// Median predicted end-to-end latency, µs.
    pub p50_us: f64,
    /// 99th-percentile predicted end-to-end latency, µs — what an SLO-aware
    /// scheduler compares against a deadline.
    pub p99_us: f64,
}

#[derive(Debug)]
struct ModelInner {
    weights: [f64; FEATURE_DIM],
    observations: u64,
    /// Log-bucket histogram of prequential `observed / predicted` ratios.
    ratio_counts: [u64; RATIO_BUCKETS],
    /// The histogram's total mass, kept as buckets change.
    ratio_total: u64,
    /// The (p50, p99) calibration multipliers of the histogram as it
    /// stands; `None` after an `observe` changed it, until the next read.
    calibration: Option<(f64, f64)>,
    /// Prequential absolute-percentage-error accumulator, over warm
    /// predictions only (the ones schedulers actually acted on).
    mape_sum: f64,
    mape_n: u64,
}

impl ModelInner {
    fn raw_predict(&self, x: &[f64; FEATURE_DIM]) -> f64 {
        self.weights.iter().zip(x).map(|(w, v)| w * v).sum()
    }

    /// The (p50, p99) calibration multipliers, recomputed only when the
    /// histogram changed since they were last read.
    fn calibration(&mut self) -> (f64, f64) {
        let (counts, total) = (&self.ratio_counts, self.ratio_total);
        *self.calibration.get_or_insert_with(|| {
            (
                ratio_quantile(counts, total, 0.50),
                ratio_quantile(counts, total, 0.99),
            )
        })
    }
}

/// The ratio at quantile `q` of a residual histogram holding `total`
/// observations (bucket midpoint on the log grid), or 1.0 before any
/// residual landed.
fn ratio_quantile(counts: &[u64; RATIO_BUCKETS], total: u64, q: f64) -> f64 {
    if total == 0 {
        return 1.0;
    }
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        seen += n;
        if seen >= target {
            return RATIO_GROWTH.powi(i as i32 - RATIO_CENTER as i32);
        }
    }
    RATIO_GROWTH.powi((RATIO_BUCKETS - 1 - RATIO_CENTER) as i32)
}

/// The online-trained latency model. Interior-mutable and `Sync`: one
/// `Arc<LatencyModel>` is shared by admission, dispatch, completion events
/// and the fleet router. See the [module docs](self) for the algorithm.
///
/// # Examples
///
/// ```
/// use trtsim_core::predict::{LatencyModel, QueueSignals};
/// let model = LatencyModel::new(7).with_min_obs(2);
/// assert!(!model.is_warm());
/// let signals = QueueSignals::new(0.0, 0.0);
/// # let _ = signals;
/// ```
#[derive(Debug)]
pub struct LatencyModel {
    inner: Mutex<ModelInner>,
    min_obs: u64,
}

impl LatencyModel {
    /// A fresh model. `seed` determines the (tiny, positive) initial
    /// weights; the same seed and observation stream reproduce bit-identical
    /// weights.
    pub fn new(seed: u64) -> Self {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut weights = [0.0; FEATURE_DIM];
        for w in &mut weights {
            // Positive and ≤ 1e-3: small enough to be overwritten within a
            // handful of NLMS steps, positive so the monotonicity invariant
            // holds from the first prediction.
            *w = 1e-3 * rng.next_f64().max(f64::MIN_POSITIVE);
        }
        Self {
            inner: Mutex::new(ModelInner {
                weights,
                observations: 0,
                ratio_counts: [0; RATIO_BUCKETS],
                ratio_total: 0,
                calibration: None,
                mape_sum: 0.0,
                mape_n: 0,
            }),
            min_obs: 64,
        }
    }

    /// Sets the cold-start gate: [`LatencyModel::predict`] returns `None`
    /// until this many observations have been absorbed (min 1).
    pub fn with_min_obs(mut self, min_obs: u64) -> Self {
        self.min_obs = min_obs.max(1);
        self
    }

    /// The cold-start observation threshold.
    pub fn min_obs(&self) -> u64 {
        self.min_obs
    }

    /// Observations absorbed so far.
    pub fn observations(&self) -> u64 {
        self.inner.lock().expect("model lock").observations
    }

    /// Whether the model has enough observations to predict.
    pub fn is_warm(&self) -> bool {
        self.observations() >= self.min_obs
    }

    /// The current weight vector (for determinism audits and tests).
    pub fn weights(&self) -> [f64; FEATURE_DIM] {
        self.inner.lock().expect("model lock").weights
    }

    /// Absorbs one completed request: a frame that rode a `batch`-sized
    /// enqueue, was admitted under `signals`, and took `observed_us`
    /// end-to-end. Performs one prequential step: score the prediction the
    /// scheduler would have used, then update the weights.
    pub fn observe(
        &self,
        features: &EngineFeatures,
        batch: usize,
        signals: &QueueSignals,
        observed_us: f64,
    ) {
        if !observed_us.is_finite() || observed_us < 0.0 {
            return;
        }
        let x = features.vector(batch, signals);
        let mut inner = self.inner.lock().expect("model lock");
        let predicted = inner.raw_predict(&x);
        // Prequential scoring before the update, but only once warm — cold
        // predictions were never used for decisions, so scoring them would
        // misstate the accuracy schedulers actually experienced.
        if inner.observations >= self.min_obs && observed_us > 0.0 {
            inner.mape_sum += ((observed_us - predicted) / observed_us).abs() * 100.0;
            inner.mape_n += 1;
        }
        // Residual ratios feed the p50/p99 calibration multipliers, so they
        // get the same warm gate as the MAPE: a cold model's raw predictions
        // sit near zero (weights are ~1e-3), and letting their enormous
        // ratios into the histogram would inflate the quantiles for the rest
        // of the model's life.
        if inner.observations >= self.min_obs && predicted > 0.0 && observed_us > 0.0 {
            let idx =
                ((observed_us / predicted).ln() / RATIO_GROWTH.ln()).round() + RATIO_CENTER as f64;
            let idx = (idx.max(0.0) as usize).min(RATIO_BUCKETS - 1);
            inner.ratio_counts[idx] += 1;
            inner.ratio_total += 1;
            if inner.ratio_total >= RATIO_DECAY_AT {
                for n in &mut inner.ratio_counts {
                    *n /= 2;
                }
                inner.ratio_total = inner.ratio_counts.iter().sum();
            }
            inner.calibration = None;
        }
        // Projected normalized LMS: scale-free step, then clamp to w ≥ 0 so
        // predictions stay monotone in batch and queue depth. The step
        // anneals with observation count: early updates must move fast to
        // escape the zero-weight cold start, but a warm model serving
        // scheduling decisions needs *stable* weights — a fixed large step
        // would keep chasing per-batch noise and make admission thresholds
        // flap from run to run.
        let err = observed_us - predicted;
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>() + NORM_EPS;
        let step = STEP / (1.0 + inner.observations as f64 / STEP_ANNEAL_OBS);
        for (w, v) in inner.weights.iter_mut().zip(&x) {
            *w = (*w + step * err * v / norm).max(0.0);
        }
        inner.observations += 1;
    }

    /// Predicts the end-to-end latency of a request that would ride a
    /// `batch`-sized enqueue under queue state `signals`. Returns `None`
    /// while cold (fewer than [`LatencyModel::min_obs`] observations) —
    /// callers fall back to their static heuristics.
    pub fn predict(
        &self,
        features: &EngineFeatures,
        batch: usize,
        signals: &QueueSignals,
    ) -> Option<PredictedLatency> {
        let x = features.vector(batch, signals);
        let mut inner = self.inner.lock().expect("model lock");
        if inner.observations < self.min_obs {
            return None;
        }
        let point = inner.raw_predict(&x);
        let (q50, q99) = inner.calibration();
        let p50_us = point * q50;
        Some(PredictedLatency {
            p50_us,
            p99_us: (point * q99).max(p50_us),
        })
    }

    /// Prequential mean absolute percentage error of warm predictions, or
    /// `None` before any warm prediction was scored.
    pub fn mape_percent(&self) -> Option<f64> {
        let inner = self.inner.lock().expect("model lock");
        (inner.mape_n > 0).then(|| inner.mape_sum / inner.mape_n as f64)
    }

    /// The current residual-calibration multipliers `(p50, p99)` — the
    /// ratio-histogram quantiles that widen raw point predictions into
    /// [`PredictedLatency`] — or `(1.0, 1.0)` before any warm residual
    /// landed. Exported as `trtsim_predictor_*` gauges so calibration drift
    /// is scrapeable alongside the MAPE.
    pub fn calibration(&self) -> (f64, f64) {
        self.inner.lock().expect("model lock").calibration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::BuilderConfig;
    use trtsim_ir::graph::{Graph, LayerKind};

    fn engine() -> Engine {
        let mut g = Graph::new("predict", [3, 16, 16]);
        let c1 = g.add_layer(
            "c1",
            LayerKind::conv_seeded(16, 3, 3, 1, 1, 0),
            &[Graph::INPUT],
        );
        g.mark_output(c1);
        Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(3),
        )
        .build(&g)
        .unwrap()
    }

    fn features() -> EngineFeatures {
        EngineFeatures::measure(&engine(), &DeviceSpec::xavier_nx(), 200.0)
    }

    /// A synthetic "true" latency generator the model should learn.
    fn true_latency(f: &EngineFeatures, batch: usize, q: &QueueSignals) -> f64 {
        let b = batch as f64;
        b * (f.compute_us.max(f.mem_us))
            + f.launch_us
            + f.glue_us
            + q.queue_depth * f.service_us / 2.0
    }

    fn trained_model(seed: u64, rounds: usize) -> (LatencyModel, EngineFeatures) {
        let f = features();
        let model = LatencyModel::new(seed).with_min_obs(16);
        let mut rng = Pcg32::seed_from_u64(seed ^ 0xfeed);
        for _ in 0..rounds {
            let batch = 1 + (rng.next_u64() % 8) as usize;
            let q = QueueSignals::new((rng.next_u64() % 16) as f64, rng.next_f64());
            model.observe(&f, batch, &q, true_latency(&f, batch, &q));
        }
        (model, f)
    }

    #[test]
    fn cold_model_refuses_to_predict() {
        let f = features();
        let model = LatencyModel::new(1).with_min_obs(4);
        let q = QueueSignals::default();
        assert!(model.predict(&f, 1, &q).is_none());
        for _ in 0..3 {
            model.observe(&f, 1, &q, 1000.0);
            assert!(!model.is_warm());
            assert!(model.predict(&f, 1, &q).is_none());
        }
        model.observe(&f, 1, &q, 1000.0);
        assert!(model.is_warm());
        assert!(model.predict(&f, 1, &q).is_some());
    }

    #[test]
    fn learns_a_linear_world_to_a_few_percent() {
        let (model, f) = trained_model(11, 512);
        let q = QueueSignals::new(4.0, 0.5);
        let pred = model.predict(&f, 4, &q).unwrap();
        let truth = true_latency(&f, 4, &q);
        let err = ((pred.p50_us - truth) / truth).abs();
        assert!(
            err < 0.15,
            "p50 {} vs truth {truth}: err {err}",
            pred.p50_us
        );
        let mape = model.mape_percent().unwrap();
        assert!(mape < 25.0, "prequential MAPE {mape}%");
    }

    #[test]
    fn predictions_are_monotone_in_batch_and_queue() {
        let (model, f) = trained_model(5, 256);
        let q = QueueSignals::new(3.0, 0.25);
        let mut last = 0.0;
        for batch in 1..=16 {
            let p = model.predict(&f, batch, &q).unwrap();
            assert!(p.p99_us >= p.p50_us);
            assert!(p.p50_us >= last, "batch {batch} broke monotonicity");
            last = p.p50_us;
        }
        let mut last = 0.0;
        for depth in 0..16 {
            let p = model
                .predict(&f, 2, &QueueSignals::new(depth as f64, 0.25))
                .unwrap();
            assert!(p.p50_us >= last, "depth {depth} broke monotonicity");
            last = p.p50_us;
        }
    }

    #[test]
    fn same_seed_and_stream_reproduce_bit_identical_weights() {
        let (a, _) = trained_model(9, 128);
        let (b, _) = trained_model(9, 128);
        let (wa, wb) = (a.weights(), b.weights());
        for i in 0..FEATURE_DIM {
            assert_eq!(wa[i].to_bits(), wb[i].to_bits(), "weight {i} diverged");
        }
        let (c, _) = trained_model(10, 128);
        assert_ne!(a.weights(), c.weights(), "different seeds must diverge");
    }

    #[test]
    fn residual_quantiles_widen_p99_above_p50() {
        let f = features();
        let model = LatencyModel::new(2).with_min_obs(8);
        let q = QueueSignals::default();
        let mut rng = Pcg32::seed_from_u64(77);
        // Noisy world: ±40 % multiplicative jitter around the same mean.
        for _ in 0..256 {
            let jitter = 0.6 + 0.8 * rng.next_f64();
            model.observe(&f, 1, &q, 1000.0 * jitter);
        }
        let p = model.predict(&f, 1, &q).unwrap();
        assert!(
            p.p99_us > p.p50_us * 1.1,
            "p99 {} should sit well above p50 {} under jitter",
            p.p99_us,
            p.p50_us
        );
    }

    #[test]
    fn calibration_defaults_to_unity_and_tracks_residuals() {
        let f = features();
        let model = LatencyModel::new(4).with_min_obs(8);
        assert_eq!(model.calibration(), (1.0, 1.0));
        let q = QueueSignals::default();
        for _ in 0..64 {
            model.observe(&f, 1, &q, 1000.0);
        }
        let (q50, q99) = model.calibration();
        assert!(q50 > 0.0 && q99 >= q50, "q50 {q50} q99 {q99}");
        // The multipliers are exactly what predict() applies to the point.
        let p = model.predict(&f, 1, &q).unwrap();
        assert!((p.p99_us / p.p50_us - q99 / q50).abs() < 1e-9);
    }

    #[test]
    fn garbage_observations_are_ignored() {
        let f = features();
        let model = LatencyModel::new(3).with_min_obs(1);
        let q = QueueSignals::default();
        model.observe(&f, 1, &q, f64::NAN);
        model.observe(&f, 1, &q, -5.0);
        model.observe(&f, 1, &q, f64::INFINITY);
        assert_eq!(model.observations(), 0);
        assert!(model.predict(&f, 1, &q).is_none());
    }

    /// A warm prediction recomputed from scratch: the point estimate and
    /// both quantiles of the histogram as it stands, its mass re-summed.
    fn fresh_prediction(
        model: &LatencyModel,
        f: &EngineFeatures,
        batch: usize,
        q: &QueueSignals,
    ) -> Option<(u64, u64)> {
        let inner = model.inner.lock().expect("model lock");
        if inner.observations < model.min_obs {
            return None;
        }
        let total = inner.ratio_counts.iter().sum();
        let point = inner.raw_predict(&f.vector(batch, q));
        let p50 = point * ratio_quantile(&inner.ratio_counts, total, 0.50);
        let p99 = (point * ratio_quantile(&inner.ratio_counts, total, 0.99)).max(p50);
        Some((p50.to_bits(), p99.to_bits()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn cached_calibration_matches_a_fresh_scan_across_halvings(
            seed in 0u64..1_000_000,
            min_obs in 1u64..48,
            noise in 0.0f64..0.8,
        ) {
            let f = features();
            let model = LatencyModel::new(seed).with_min_obs(min_obs);
            let mut rng = Pcg32::seed_from_u64(seed ^ 0xca1);
            let (mut halvings, mut last_total) = (0, 0);
            for _ in 0..900 {
                let batch = 1 + rng.range_usize(8);
                let q = QueueSignals::new(rng.range_usize(16) as f64, rng.next_f64())
                    .with_committed_us(rng.next_f64() * 4_000.0);
                // Some observations are followed by a read and some are not,
                // so the cache is read both right after a change and after
                // several.
                if rng.range_usize(3) > 0 {
                    let got = model
                        .predict(&f, batch, &q)
                        .map(|p| (p.p50_us.to_bits(), p.p99_us.to_bits()));
                    proptest::prop_assert_eq!(got, fresh_prediction(&model, &f, batch, &q));
                }
                let jitter = 1.0 + noise * (2.0 * rng.next_f64() - 1.0);
                model.observe(&f, batch, &q, true_latency(&f, batch, &q) * jitter);
                let inner = model.inner.lock().expect("model lock");
                proptest::prop_assert_eq!(inner.ratio_total, inner.ratio_counts.iter().sum::<u64>());
                if inner.ratio_total < last_total {
                    halvings += 1;
                }
                last_total = inner.ratio_total;
            }
            proptest::prop_assert!(halvings >= 2, "{halvings} halvings");
            let fresh = {
                let inner = model.inner.lock().expect("model lock");
                let total = inner.ratio_counts.iter().sum();
                (
                    ratio_quantile(&inner.ratio_counts, total, 0.50),
                    ratio_quantile(&inner.ratio_counts, total, 0.99),
                )
            };
            proptest::prop_assert_eq!(model.calibration(), fresh);
        }
    }
}
