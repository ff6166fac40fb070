//! Golden values of the fleet request path at the shape of perfbench's
//! `fleet_replay`: four boards (NX and AGX, each at its pinned and its max
//! clock), GoogLeNet engines built with pinned seeds, predictive routing and
//! predictive servers, one 256-frame diurnal trace with queues deep enough
//! for all of it and one 256-frame burst trace with 16-deep queues.
//!
//! Every value below is a pure function of the seeds, so a change to the
//! request path that claims to keep outputs bit-identical must leave them
//! as they are. Running the same commit twice cannot catch a deterministic
//! drift; these constants can.

use trtsim::data::traffic::ArrivalTrace;
use trtsim::engine::predict::FEATURE_DIM;
use trtsim::models::ModelId;
use trtsim::util::derive_seed;
use trtsim::{
    Builder, BuilderConfig, DeviceSpec, Engine, FleetBuilder, FleetConfig, Platform, ServerConfig,
    ServingError, TimingOptions,
};

const FRAMES: usize = 256;
const DEADLINE_US: f64 = 25_000.0;
const MODEL: ModelId = ModelId::Googlenet;

/// What one replica reported at drain.
#[derive(Debug, PartialEq)]
struct ReplicaGolden {
    batch_size_counts: [u64; 4],
    /// Completion count and an FNV-1a digest of every completion's frame,
    /// batch sequence and `done_us` bits, in completion order.
    completions: (usize, u64),
    gr3d_percent_bits: u64,
    latency_p99_bits: u64,
}

/// What one episode reported: the replicas in placement order, the flight
/// recorder's counters and the shared latency model's state.
#[derive(Debug, PartialEq)]
struct EpisodeGolden {
    replicas: [ReplicaGolden; 4],
    /// `(recorded, retained, evicted)`.
    recorder: (u64, u64, u64),
    weight_bits: [u64; FEATURE_DIM],
    mape_bits: Option<u64>,
}

fn engine(platform: Platform) -> Engine {
    Builder::new(
        DeviceSpec::pinned_clock(platform),
        BuilderConfig::default()
            .with_build_seed(derive_seed(0x901d, "fleet-golden-engine", platform as u64))
            .with_build_threads(1),
    )
    .build(&MODEL.descriptor())
    .expect("GoogLeNet builds")
}

fn devices() -> [(&'static str, DeviceSpec); 4] {
    [
        ("nx_pinned", DeviceSpec::pinned_clock(Platform::Nx)),
        ("nx_max", DeviceSpec::max_clock(Platform::Nx)),
        ("agx_pinned", DeviceSpec::pinned_clock(Platform::Agx)),
        ("agx_max", DeviceSpec::max_clock(Platform::Agx)),
    ]
}

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

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
        word.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    })
}

/// Replays `trace` on a fresh fleet and reduces what it reports.
fn episode(nx: &Engine, agx: &Engine, trace: &ArrivalTrace, queue: usize) -> EpisodeGolden {
    let mut builder = FleetBuilder::new();
    for (name, spec) in devices() {
        builder = builder.device(name, spec);
    }
    for (name, spec) in devices() {
        let engine = match spec.platform {
            Platform::Nx => nx,
            Platform::Agx => agx,
        };
        builder = builder
            .replica(name, engine, server_config(queue))
            .expect("known device");
    }
    let fleet = builder
        .start(
            FleetConfig::default()
                .with_predictive(true)
                .with_predictor_seed(derive_seed(0x901d, "fleet-golden-predictor", 0)),
        )
        .expect("fleet starts");
    let recorder = fleet.flight_recorder();
    let model = fleet.latency_model().expect("predictive fleet");
    for (frame, &t) in trace.arrivals_us.iter().enumerate() {
        match fleet.submit(nx.name(), frame as u64, t) {
            Ok(()) | Err(ServingError::QueueFull | ServingError::DeadlineUnmeetable) => {}
            Err(e) => panic!("submit: {e}"),
        }
    }
    let stats = fleet.drain();
    let replicas: Vec<ReplicaGolden> = stats
        .replicas
        .iter()
        .map(|r| ReplicaGolden {
            batch_size_counts: r.stats.batch_size_counts[..]
                .try_into()
                .expect("max batch 4"),
            completions: (
                r.stats.completions.len(),
                fnv1a(
                    r.stats
                        .completions
                        .iter()
                        .flat_map(|c| [c.frame, c.batch, c.done_us.to_bits()]),
                ),
            ),
            gr3d_percent_bits: r.stats.gr3d_percent.to_bits(),
            latency_p99_bits: r.stats.latency.p99_us.to_bits(),
        })
        .collect();
    EpisodeGolden {
        replicas: replicas.try_into().expect("four replicas"),
        recorder: (recorder.recorded(), recorder.retained(), recorder.evicted()),
        weight_bits: model.weights().map(f64::to_bits),
        mape_bits: model.mape_percent().map(f64::to_bits),
    }
}

#[test]
fn fleet_replay_shape_matches_its_golden_values() {
    let (nx, agx) = (engine(Platform::Nx), engine(Platform::Agx));
    let diurnal = ArrivalTrace::diurnal(20_000.0, 2_000.0, 1_000_000.0, FRAMES, 0xd1);
    let burst = ArrivalTrace::burst(20_000.0, 500.0, 500_000.0, 0.2, FRAMES, 0xb0);
    let got = [
        episode(&nx, &agx, &diurnal, FRAMES),
        episode(&nx, &agx, &burst, FRAMES / 16),
    ];
    assert_eq!(got, golden());
}

/// Recorded before the predictor cached its calibration multipliers; a
/// change to the request path that keeps outputs bit-identical leaves them
/// as they are.
#[rustfmt::skip]
fn golden() -> [EpisodeGolden; 2] {
    [
        EpisodeGolden {
            replicas: [
                ReplicaGolden {
                    batch_size_counts: [
                        27,
                        0,
                        0,
                        0,
                    ],
                    completions: (
                        27,
                        9787564084927364048,
                    ),
                    gr3d_percent_bits: 4620526289355904995,
                    latency_p99_bits: 4665969871778894319,
                },
                ReplicaGolden {
                    batch_size_counts: [
                        52,
                        0,
                        2,
                        0,
                    ],
                    completions: (
                        58,
                        9989993992389130828,
                    ),
                    gr3d_percent_bits: 4623113987561481459,
                    latency_p99_bits: 4668813962756579976,
                },
                ReplicaGolden {
                    batch_size_counts: [
                        48,
                        3,
                        2,
                        0,
                    ],
                    completions: (
                        60,
                        10505611563072855748,
                    ),
                    gr3d_percent_bits: 4623790099901533294,
                    latency_p99_bits: 4669732480022285739,
                },
                ReplicaGolden {
                    batch_size_counts: [
                        94,
                        5,
                        1,
                        1,
                    ],
                    completions: (
                        111,
                        12126153199078416602,
                    ),
                    gr3d_percent_bits: 4622178331454087113,
                    latency_p99_bits: 4668409085629455034,
                },
            ],
            recorder: (
                256,
                17,
                0,
            ),
            weight_bits: [
                4560482042001480949,
                4556986399919358102,
                4603951160128854737,
                4599355783263206634,
                4607660886495587448,
                4585576790439083822,
                4593248173289252762,
                4558599449757380633,
                4591307369675916934,
                4604586988297173177,
            ],
            mape_bits: Some(
                4619408421316764028,
            ),
        },
        EpisodeGolden {
            replicas: [
                ReplicaGolden {
                    batch_size_counts: [
                        3,
                        3,
                        0,
                        7,
                    ],
                    completions: (
                        37,
                        2311118331250565559,
                    ),
                    gr3d_percent_bits: 4625583836243505846,
                    latency_p99_bits: 4679909867093200470,
                },
                ReplicaGolden {
                    batch_size_counts: [
                        3,
                        1,
                        2,
                        8,
                    ],
                    completions: (
                        43,
                        15383160261038331629,
                    ),
                    gr3d_percent_bits: 4624582104144860972,
                    latency_p99_bits: 4679211574442730809,
                },
                ReplicaGolden {
                    batch_size_counts: [
                        17,
                        0,
                        3,
                        8,
                    ],
                    completions: (
                        58,
                        15584223539412225804,
                    ),
                    gr3d_percent_bits: 4626573898836644081,
                    latency_p99_bits: 4679467592939920413,
                },
                ReplicaGolden {
                    batch_size_counts: [
                        7,
                        1,
                        2,
                        12,
                    ],
                    completions: (
                        63,
                        16999854522838605256,
                    ),
                    gr3d_percent_bits: 4621892239303375065,
                    latency_p99_bits: 4676766913230861215,
                },
            ],
            recorder: (
                256,
                183,
                0,
            ),
            weight_bits: [
                4559783415282427287,
                4556556887410250343,
                4603495655395014902,
                4599831942856772017,
                4604913663636776943,
                4593812549995923644,
                4600729500730609833,
                4558396719182454274,
                4602494113095266088,
                4604693685078523626,
            ],
            mape_bits: Some(
                4622685728078410931,
            ),
        },
    ]
}
