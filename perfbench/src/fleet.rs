//! `fleet_replay`: one op replays four pairs of 512-frame episodes, each
//! on a fresh four-board fleet — a diurnal trace with queues that hold all
//! of it, then a burst trace with queues smaller than the burst, so router
//! fall-through and fleet-level rejects run. Every op therefore does the
//! same bundle of work. Submission is unpaced: the whole trace is offered as
//! fast as the host can route it.
//!
//! An episode's wall time waits on its slowest replica thread, so a single
//! episode's latency swings with every scheduling hiccup of the host; four
//! pairs per op average those out and keep `op_ms_p95` steady.

use std::sync::Arc;
use std::time::Instant;

use trtsim_core::fleet::{Fleet, FleetBuilder, FleetConfig, FleetStats};
use trtsim_core::reqtrace::FlightRecorder;
use trtsim_core::runtime::TimingOptions;
use trtsim_core::serving::{ServerConfig, ServingError};
use trtsim_core::{Builder, BuilderConfig, Engine, LatencyModel, TimingCache};
use trtsim_data::traffic::ArrivalTrace;
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_models::ModelId;
use trtsim_util::derive_seed;

use crate::trace::{Tracer, SETUP_OP};
use crate::{stats, Config, Layers, Ops, Report};

/// Frames per episode trace.
const FRAMES: usize = 512;
/// Per-request deadline, simulated µs.
const DEADLINE_US: f64 = 25_000.0;
/// Per-replica queue in burst episodes: the four queues together hold a
/// quarter of the trace.
const BURST_QUEUE: usize = FRAMES / 16;
/// Diurnal/burst episode pairs per op.
const PAIRS: u64 = 4;
/// Seeded trace pairs; op `i` replays pairs `i * PAIRS ..` (mod `TRACES`).
const TRACES: u64 = 32;

const MODEL: ModelId = ModelId::Googlenet;

/// The four boards: both platforms at pinned and at max clocks.
fn devices() -> [(&'static str, DeviceSpec); 4] {
    [
        ("nx_pinned", DeviceSpec::pinned_clock(Platform::Nx)),
        ("nx_max", DeviceSpec::max_clock(Platform::Nx)),
        ("agx_pinned", DeviceSpec::pinned_clock(Platform::Agx)),
        ("agx_max", DeviceSpec::max_clock(Platform::Agx)),
    ]
}

/// One replica's server: one worker, batches up to 4, the deadline, and
/// predictive batching and admission.
fn server_config(queue: usize) -> ServerConfig {
    ServerConfig::default()
        .with_workers(1)
        .with_queue_capacity(queue)
        .with_max_batch_size(4)
        .with_deadline_us(DEADLINE_US)
        .with_predictive(true)
        .with_timing(
            TimingOptions::default()
                .without_engine_upload()
                .with_host_glue_us(MODEL.info().host_glue_us)
                .with_run_jitter_sd(0.0),
        )
}

/// One episode's accounting, reduced to counts so that ops keep a fixed,
/// small footprint however many a run makes.
struct Episode {
    submitted: u64,
    accepted: u64,
    rejected: u64,
    completed: u64,
    dropped: u64,
    /// Frames the client saw accepted and refused.
    client_accepted: u64,
    client_refused: u64,
    predicted_dispatches: u64,
    heuristic_dispatches: u64,
    affinity_hits: u64,
    deadline_missed: u64,
    batches: u64,
    batched_frames: u64,
    /// Completions within the deadline.
    on_time: u64,
    latency_p99_us: f64,
    horizon_us: f64,
    recorded: u64,
    retained: u64,
    evicted: u64,
    mape_percent: Option<f64>,
}

impl Episode {
    /// Reduces a drained fleet's statistics, with the client's own
    /// accept/refuse counts, the recorder's counters and the predictor's
    /// error.
    fn new(
        stats: &FleetStats,
        trace: &ArrivalTrace,
        [client_accepted, client_refused]: [u64; 2],
        recorder: &FlightRecorder,
        model: Option<&LatencyModel>,
    ) -> Self {
        let servers = || stats.replicas.iter().map(|r| &r.stats);
        Self {
            submitted: stats.submitted,
            accepted: stats.accepted,
            rejected: stats.rejected,
            completed: stats.completed,
            dropped: stats.dropped,
            client_accepted,
            client_refused,
            predicted_dispatches: stats.predicted_dispatches,
            heuristic_dispatches: stats.heuristic_dispatches,
            affinity_hits: stats.affinity_hits,
            deadline_missed: stats.deadline_missed,
            batches: servers().map(|s| s.batches).sum(),
            batched_frames: servers()
                .flat_map(|s| s.batch_size_counts.iter().enumerate())
                .map(|(size, &count)| (size as u64 + 1) * count)
                .sum(),
            on_time: servers()
                .flat_map(|s| &s.completions)
                .filter(|c| c.done_us - c.arrival_us <= DEADLINE_US)
                .count() as u64,
            latency_p99_us: stats.latency.p99_us,
            horizon_us: trace.duration_us(),
            recorded: recorder.recorded(),
            retained: recorder.retained(),
            evicted: recorder.evicted(),
            mape_percent: model.and_then(LatencyModel::mape_percent),
        }
    }
}

struct FleetOps {
    seed: u64,
    /// GoogLeNet engines built for the NX and for the AGX.
    nx: Engine,
    agx: Engine,
    /// `(diurnal, burst)` trace pairs.
    traces: Vec<(ArrivalTrace, ArrivalTrace)>,
}

impl FleetOps {
    fn setup(seed: u64, tracer: &mut Tracer, layers: &mut Layers) -> Result<Self, String> {
        let cache = Arc::new(TimingCache::new());
        let mut build = |platform: Platform| {
            let config = BuilderConfig::default()
                .with_build_seed(derive_seed(seed, "perfbench-fleet-engine", platform as u64))
                .with_build_threads(1)
                .with_timing_cache(Arc::clone(&cache));
            tracer
                .time("core.builder.build", SETUP_OP, || {
                    Builder::new(DeviceSpec::pinned_clock(platform), config)
                        .build(&MODEL.descriptor())
                })
                .map_err(|e| format!("building {MODEL} on {platform:?}: {e}"))
        };
        let nx = build(Platform::Nx)?;
        let agx = build(Platform::Agx)?;
        let cache_stats = cache.stats();
        layers.insert("core.timing_cache.hits", cache_stats.hits as f64);
        layers.insert("core.timing_cache.misses", cache_stats.misses as f64);
        let traces = tracer.time("data.traffic", SETUP_OP, || {
            (0..TRACES)
                .map(|k| {
                    (
                        ArrivalTrace::diurnal(
                            20_000.0,
                            2_000.0,
                            1_000_000.0,
                            FRAMES,
                            derive_seed(seed, "perfbench-diurnal", k),
                        ),
                        ArrivalTrace::burst(
                            20_000.0,
                            500.0,
                            500_000.0,
                            0.2,
                            FRAMES,
                            derive_seed(seed, "perfbench-burst", k),
                        ),
                    )
                })
                .collect()
        });
        Ok(Self {
            seed,
            nx,
            agx,
            traces,
        })
    }

    fn start(&self, queue: usize, i: u64) -> Result<Fleet, ServingError> {
        let mut builder = FleetBuilder::new();
        for (name, spec) in devices() {
            builder = builder.device(name, spec);
        }
        for (name, spec) in devices() {
            let engine = match spec.platform {
                Platform::Nx => &self.nx,
                Platform::Agx => &self.agx,
            };
            builder = builder.replica(name, engine, server_config(queue))?;
        }
        builder.start(
            FleetConfig::default()
                .with_predictive(true)
                .with_predictor_seed(derive_seed(self.seed, "perfbench-predictor", i)),
        )
    }

    fn episode(
        &self,
        i: u64,
        trace: &ArrivalTrace,
        queue: usize,
        tracer: &mut Tracer,
    ) -> Result<Episode, String> {
        let fleet = tracer
            .time("core.fleet.start", i, || self.start(queue, i))
            .map_err(|e| format!("fleet start: {e}"))?;
        let recorder = fleet.flight_recorder();
        let model = fleet.latency_model();
        let mut client_accepted = 0;
        let mut client_refused = 0;
        for (frame, &t) in trace.arrivals_us.iter().enumerate() {
            // Both engines carry the network's name, which routes to all
            // four replicas.
            match tracer.time("core.fleet.submit", i, || {
                fleet.submit(self.nx.name(), frame as u64, t)
            }) {
                Ok(()) => client_accepted += 1,
                Err(ServingError::QueueFull | ServingError::DeadlineUnmeetable) => {
                    client_refused += 1
                }
                Err(e) => return Err(format!("submit: {e}")),
            }
        }
        let stats = tracer.time("core.fleet.drain", i, || fleet.drain());
        Ok(Episode::new(
            &stats,
            trace,
            [client_accepted, client_refused],
            &recorder,
            model.as_deref(),
        ))
    }
}

impl Ops for FleetOps {
    type Out = Vec<Episode>;

    fn op(&mut self, i: u64, tracer: &mut Tracer) -> Result<Vec<Episode>, String> {
        let mut episodes = Vec::with_capacity(2 * PAIRS as usize);
        for k in 0..PAIRS {
            let (diurnal, burst) = &self.traces[((i * PAIRS + k) % TRACES) as usize];
            episodes.push(self.episode(i, diurnal, FRAMES, tracer)?);
            episodes.push(self.episode(i, burst, BURST_QUEUE, tracer)?);
        }
        Ok(episodes)
    }

    /// Frames submitted per episode — the only fleet count that host
    /// scheduling cannot move.
    fn tally(&self, outs: &[&Vec<Episode>]) -> Vec<u64> {
        outs.iter()
            .flat_map(|eps| eps.iter().map(|e| e.submitted))
            .collect()
    }

    /// Conservation in every episode: the router's and the client's counts
    /// agree, every accepted frame completes or drops, and the flight
    /// recorder saw every submitted request exactly once.
    fn check(&self, _i: u64, out: &Vec<Episode>, _deep: bool) -> Vec<String> {
        let mut bad = Vec::new();
        for e in out {
            if e.submitted != FRAMES as u64 {
                bad.push(format!("submitted {} of {FRAMES} frames", e.submitted));
            }
            if e.submitted != e.accepted + e.rejected {
                bad.push(format!(
                    "submitted {} != accepted {} + rejected {}",
                    e.submitted, e.accepted, e.rejected
                ));
            }
            if e.accepted != e.completed + e.dropped {
                bad.push(format!(
                    "accepted {} != completed {} + dropped {}",
                    e.accepted, e.completed, e.dropped
                ));
            }
            if (e.client_accepted, e.client_refused) != (e.accepted, e.rejected) {
                bad.push(format!(
                    "client saw {} accepted / {} refused, fleet {} / {}",
                    e.client_accepted, e.client_refused, e.accepted, e.rejected
                ));
            }
            if e.recorded != e.submitted {
                bad.push(format!(
                    "recorder saw {} of {} submitted requests",
                    e.recorded, e.submitted
                ));
            }
        }
        bad
    }

    fn layers(&self, outs: &[Vec<Episode>], tracer: &Tracer, layers: &mut Layers) {
        let eps: Vec<&Episode> = outs.iter().flatten().collect();
        let n = eps.len() as f64;
        let total = |f: fn(&Episode) -> u64| eps.iter().map(|e| f(e)).sum::<u64>() as f64;
        let median = |f: fn(&Episode) -> Option<f64>| {
            stats::median(&eps.iter().filter_map(|e| f(e)).collect::<Vec<_>>())
        };
        let spans_ms = |name: &str| tracer.durations_ms(name);
        let submit_us: Vec<f64> = spans_ms("core.fleet.submit")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        layers.insert(
            "core.builder.build_ms",
            spans_ms("core.builder.build").iter().sum(),
        );
        layers.insert(
            "core.fleet.start_ms",
            stats::median(&spans_ms("core.fleet.start")),
        );
        layers.insert("core.fleet.submit_us_p50", stats::median(&submit_us));
        layers.insert(
            "core.fleet.submit_us_p95",
            stats::percentile(&submit_us, 0.95),
        );
        layers.insert(
            "core.fleet.drain_ms",
            stats::median(&spans_ms("core.fleet.drain")),
        );
        layers.insert(
            "core.fleet.rejected_share",
            stats::ratio(total(|e| e.rejected), total(|e| e.submitted)),
        );
        layers.insert(
            "core.fleet.predicted_dispatch_share",
            stats::ratio(
                total(|e| e.predicted_dispatches),
                total(|e| e.predicted_dispatches + e.heuristic_dispatches),
            ),
        );
        layers.insert(
            "core.fleet.affinity_hits",
            stats::ratio(total(|e| e.affinity_hits), n),
        );
        layers.insert(
            "core.serving.mean_batch_size",
            stats::ratio(total(|e| e.batched_frames), total(|e| e.batches)),
        );
        layers.insert(
            "core.serving.deadline_missed_share",
            stats::ratio(total(|e| e.deadline_missed), total(|e| e.completed)),
        );
        layers.insert("core.predict.mape_percent", median(|e| e.mape_percent));
        layers.insert(
            "core.reqtrace.recorded",
            stats::ratio(total(|e| e.recorded), n),
        );
        layers.insert(
            "core.reqtrace.retained",
            stats::ratio(total(|e| e.retained), n),
        );
        layers.insert(
            "core.reqtrace.evicted",
            stats::ratio(total(|e| e.evicted), n),
        );
        layers.insert(
            "sim.goodput_fps",
            median(|e| Some(stats::ratio(e.on_time as f64, e.horizon_us / 1e6))),
        );
        layers.insert("sim.latency_p99_us", median(|e| Some(e.latency_p99_us)));
    }

    fn input_digest(&self, ops: u64) -> u64 {
        (0..(ops * PAIRS).min(TRACES))
            .flat_map(|k| {
                let (d, b) = &self.traces[k as usize];
                d.arrivals_us
                    .iter()
                    .chain(&b.arrivals_us)
                    .map(|t| t.to_bits())
            })
            .fold(0, |acc, v| derive_seed(acc, "digest", v))
    }
}

/// Sets up repeatedly (once when tracing), then measures on the last
/// set-up.
pub(crate) fn run(config: &Config) -> Result<Report, String> {
    let mut tracer = Tracer::new(config.trace);
    let mut setup_s = Vec::new();
    loop {
        let started = Instant::now();
        let mut layers = Layers::new();
        let mut ops = FleetOps::setup(config.seed, &mut tracer, &mut layers)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if !crate::another_setup(config, &setup_s) {
            return crate::measure(config, &mut ops, &setup_s, tracer, layers);
        }
    }
}
