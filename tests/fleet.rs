//! Workspace-level fleet invariants: whatever the device mix and however
//! bursty the traffic, the router must conserve requests — every accepted
//! frame completes (or is dropped) exactly once, and the fleet-wide
//! counters are exactly the sum of the per-device counters — and a fleet
//! is a pure function of its inputs: two identical runs agree exactly.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use proptest::prelude::*;
use trtsim::data::traffic::ArrivalTrace;
use trtsim::ir::graph::{Graph, LayerKind};
use trtsim::util::rng::Pcg32;
use trtsim::{
    Builder, BuilderConfig, DeviceSpec, Engine, FleetBuilder, FleetConfig, FleetStats, Platform,
    RequestTrace, ServerConfig, TimingOptions, TraceOptions,
};

/// One shared tiny engine: conservation is about the router's counters, not
/// the model, and building once keeps 32 proptest cases fast.
fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let mut g = Graph::new("fleet_prop", [3, 16, 16]);
        let conv = g.add_layer(
            "c0",
            LayerKind::conv_seeded(8, 3, 3, 1, 1, 3),
            &[Graph::INPUT],
        );
        g.mark_output(conv);
        Builder::new(DeviceSpec::xavier_nx(), BuilderConfig::default())
            .build(&g)
            .expect("probe builds")
    })
}

fn random_spec(rng: &mut Pcg32) -> DeviceSpec {
    let platform = if rng.range_usize(2) == 0 {
        Platform::Nx
    } else {
        Platform::Agx
    };
    if rng.range_usize(2) == 0 {
        DeviceSpec::max_clock(platform)
    } else {
        DeviceSpec::pinned_clock(platform)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn router_conserves_every_request(
        seed in 0u64..10_000,
        device_count in 1usize..5,
        queue in 1usize..12,
        frames in 1usize..80,
        burst_gap_us in 1.0f64..50.0,
        quiet_gap_us in 100.0f64..2_000.0,
    ) {
        let engine = engine();
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut builder = FleetBuilder::new();
        let mut names = Vec::new();
        for i in 0..device_count {
            let name = format!("d{i}");
            builder = builder.device(&name, random_spec(&mut rng));
            names.push(name);
        }
        for name in &names {
            let config = ServerConfig::default()
                .with_workers(1 + rng.range_usize(4))
                .with_queue_capacity(queue)
                .with_timing(
                    TimingOptions::default()
                        .without_engine_upload()
                        .with_run_jitter_sd(0.0),
                );
            builder = builder.replica(name, engine, config).expect("known device");
        }
        let fleet = builder.start(FleetConfig::default()).expect("fleet starts");
        let trace = ArrivalTrace::burst(quiet_gap_us, burst_gap_us, 10_000.0, 0.3, frames, seed);
        let (accepted, rejected) = fleet.replay(engine.name(), &trace.arrivals_us, 0);
        let stats = fleet.drain();

        // Admission accounting.
        prop_assert_eq!(stats.submitted, frames as u64);
        prop_assert_eq!(stats.accepted, accepted);
        prop_assert_eq!(stats.rejected, rejected);
        prop_assert_eq!(stats.submitted, stats.accepted + stats.rejected);

        // Fleet-wide counters are exactly the per-device sums.
        prop_assert_eq!(
            stats.accepted,
            stats.replicas.iter().map(|r| r.stats.accepted).sum::<u64>()
        );
        prop_assert_eq!(
            stats.accepted,
            stats.replicas.iter().map(|r| r.routed).sum::<u64>()
        );
        prop_assert_eq!(
            stats.completed,
            stats.replicas.iter().map(|r| r.stats.completed).sum::<u64>()
        );
        prop_assert_eq!(
            stats.dropped,
            stats.replicas.iter().map(|r| r.stats.dropped).sum::<u64>()
        );
        prop_assert_eq!(stats.completed + stats.dropped, stats.accepted);

        // Exactly-once: each accepted frame id appears in exactly one
        // replica's completion log, and is a frame we actually offered.
        let mut seen = BTreeSet::new();
        for replica in &stats.replicas {
            for record in &replica.stats.completions {
                prop_assert!(
                    (record.frame as usize) < frames,
                    "completed a frame never offered: {}", record.frame
                );
                prop_assert!(
                    seen.insert(record.frame),
                    "frame {} completed twice", record.frame
                );
            }
        }
        prop_assert_eq!(seen.len() as u64, stats.completed);
    }

    #[test]
    fn identical_runs_give_identical_fleets(
        seed in 0u64..10_000,
        device_count in 1usize..5,
        queue in 1usize..24,
        frames in 1usize..160,
        shape in 0usize..3,
        predictive in 0u8..2,
    ) {
        let predictive = predictive == 1;
        let a = run_fleet(seed, device_count, queue, frames, shape, predictive);
        let b = run_fleet(seed, device_count, queue, frames, shape, predictive);
        // The whole FleetStats: counters, per-replica `routed`, and every
        // RequestRecord, timestamps included.
        prop_assert_eq!(&a.0, &b.0);
        // Traces carry NaN for attributes nobody predicted; compare their
        // JSON, which renders those as null.
        let json = |traces: &[RequestTrace]| {
            traces.iter().map(RequestTrace::to_json).collect::<Vec<_>>()
        };
        prop_assert_eq!(json(&a.1), json(&b.1));
        // Every completed trace's phases are cut from event timestamps:
        // contiguous from the arrival to the completion.
        for t in a.1.iter().filter(|t| t.worker.is_some()) {
            prop_assert_eq!(t.phases[0].start_us, t.arrival_us);
            for pair in t.phases.windows(2) {
                prop_assert_eq!(pair[0].end_us, pair[1].start_us);
            }
            prop_assert_eq!(t.phases[t.phases.len() - 1].end_us, t.done_us);
        }
    }
}

/// One seeded fleet run: random boards and worker counts, batching up to 4
/// with a short window, one of three trace shapes; returns the drained
/// stats and every trace the recorder kept.
fn run_fleet(
    seed: u64,
    device_count: usize,
    queue: usize,
    frames: usize,
    shape: usize,
    predictive: bool,
) -> (FleetStats, Vec<RequestTrace>) {
    let engine = engine();
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut builder = FleetBuilder::new();
    for i in 0..device_count {
        builder = builder.device(format!("d{i}"), random_spec(&mut rng));
    }
    for i in 0..device_count {
        let config = ServerConfig::default()
            .with_workers(1 + rng.range_usize(3))
            .with_queue_capacity(queue)
            .with_max_batch_size(4)
            .with_batch_timeout_us(200.0)
            .with_deadline_us(2_000.0)
            .with_predictive(predictive)
            .with_predictor_min_obs(16)
            .with_timing(
                TimingOptions::default()
                    .without_engine_upload()
                    .with_run_jitter_sd(0.0),
            );
        builder = builder
            .replica(&format!("d{i}"), engine, config)
            .expect("known device");
    }
    let fleet = builder
        .start(
            FleetConfig::default()
                .with_predictive(predictive)
                .with_predictor_min_obs(16)
                .with_trace(
                    TraceOptions::default()
                        .with_capacity(frames)
                        .with_sample_every(1),
                ),
        )
        .expect("fleet starts");
    let trace = match shape {
        0 => ArrivalTrace::poisson(60.0, frames, seed),
        1 => ArrivalTrace::diurnal(200.0, 20.0, 5_000.0, frames, seed),
        _ => ArrivalTrace::burst(400.0, 10.0, 4_000.0, 0.3, frames, seed),
    };
    fleet.replay(engine.name(), &trace.arrivals_us, 0);
    let recorder = fleet.flight_recorder();
    let stats = fleet.drain();
    (stats, recorder.traces())
}
