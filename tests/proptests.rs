//! Workspace-level property-based tests: invariants that must hold for all
//! inputs, not just the unit-test cases.

use proptest::prelude::*;
use trtsim::data::corruptions::{apply_corruption, Corruption, Severity};
use trtsim::data::traffic::{BBox, VehicleClass};
use trtsim::engine::autotune::{self, AutotuneOptions};
use trtsim::engine::calibrate::CalibrationTable;
use trtsim::engine::passes::{dead_layer, horizontal_merge, vertical_fusion};
use trtsim::engine::plan;
use trtsim::engine::{Builder, BuilderConfig, TimingCache};
use trtsim::gpu::device::DeviceSpec;
use trtsim::gpu::kernel::{KernelDesc, Precision};
use trtsim::gpu::timing::{kernel_busy_us, wave_inflation};
use trtsim::ir::graph::{Graph, LayerKind, PoolKind};
use trtsim::ir::{ReferenceExecutor, Tensor};
use trtsim::util::f16::{round_f16, QuantParams, F16};
use trtsim::util::rng::Pcg32;

/// A random small conv/pool/branch network generator.
fn arb_network() -> impl Strategy<Value = Graph> {
    (1u64..1000, 2usize..5, 1usize..3).prop_map(|(seed, depth, branches)| {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut g = Graph::new(format!("prop{seed}"), [3, 16, 16]);
        let mut frontier = vec![(Graph::INPUT, 3usize)];
        for d in 0..depth {
            let (from, in_c) = frontier[rng.range_usize(frontier.len())];
            let out_c = 2 + rng.range_usize(6);
            let conv = g.add_layer(
                format!("c{d}"),
                LayerKind::conv_seeded(out_c, in_c, 3, 1, 1, seed + d as u64),
                &[from],
            );
            frontier.push((conv, out_c));
        }
        // A few sibling 1x1 branches off the last conv (horizontal-merge
        // food). Dense weights: merging seeded branches re-seeds the merged
        // blob by design (descriptor models are perf-only), so bit-exactness
        // is only promised for dense weights.
        let (last, last_c) = *frontier.last().unwrap();
        let mut branch_ids = Vec::new();
        for i in 0..branches {
            let mut kind = LayerKind::conv_seeded(4, last_c, 1, 1, 0, 100 + i as u64);
            if let trtsim::ir::graph::LayerKind::Conv(c) = &mut kind {
                c.weights = trtsim::ir::Weights::Dense(c.weights.iter().collect());
            }
            branch_ids.push(g.add_layer(format!("b{i}"), kind, &[last]));
        }
        let out = if branch_ids.len() > 1 {
            g.add_layer("cat", LayerKind::Concat, &branch_ids)
        } else {
            branch_ids[0]
        };
        let drop = g.add_layer("drop", LayerKind::Dropout { rate: 0.5 }, &[out]);
        let gp = g.add_layer(
            "gp",
            LayerKind::GlobalPool {
                kind: PoolKind::Avg,
            },
            &[drop],
        );
        g.mark_output(gp);
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn f16_round_trip_is_idempotent(x in -65000.0f32..65000.0) {
        let once = round_f16(x);
        let twice = round_f16(once);
        prop_assert_eq!(once, twice);
        // Error bound: half ULP = 2^(exp-11).
        if x.abs() > 1e-3 {
            prop_assert!((once - x).abs() <= x.abs() * 0.001);
        }
    }

    #[test]
    fn f16_bits_round_trip(bits in 0u16..0x7c00) {
        // Every finite positive f16 survives f32 and back exactly.
        let h = F16(bits);
        let back = F16::from_f32(h.to_f32());
        prop_assert_eq!(h, back);
    }

    #[test]
    fn int8_quantization_error_bounded(amax in 0.01f32..100.0, x in -1.0f32..1.0) {
        let q = QuantParams::from_amax(amax);
        let v = x * amax;
        prop_assert!((q.round_trip(v) - v).abs() <= q.scale / 2.0 + 1e-6);
    }

    #[test]
    fn iou_is_symmetric_and_bounded(
        ax in 0.0f32..50.0, ay in 0.0f32..50.0, aw in 1.0f32..20.0, ah in 1.0f32..20.0,
        bx in 0.0f32..50.0, by in 0.0f32..50.0, bw in 1.0f32..20.0, bh in 1.0f32..20.0,
    ) {
        let a = BBox { x: ax, y: ay, w: aw, h: ah, class: VehicleClass::Car };
        let b = BBox { x: bx, y: by, w: bw, h: bh, class: VehicleClass::Car };
        let iou = a.iou(&b);
        prop_assert!((0.0..=1.0 + 1e-4).contains(&iou));
        prop_assert!((iou - b.iou(&a)).abs() < 1e-4);
        // Self-IoU to f32 catastrophic-cancellation tolerance: (x+w)-x ≠ w.
        prop_assert!((a.iou(&a) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn corruptions_preserve_shape_and_finiteness(
        seed in 0u64..500,
        family in 0usize..15,
        level in 1u8..=5,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let image = Tensor::from_fn([3, 12, 12], |_, _, _| rng.normal() as f32);
        let corruption = Corruption::all()[family];
        let out = apply_corruption(&image, corruption, Severity::new(level), seed);
        prop_assert_eq!(out.shape(), image.shape());
        prop_assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn wave_inflation_at_least_one(blocks in 1u64..10_000, bpsm in 1u32..8) {
        let k = KernelDesc::new("k").grid(blocks, 128).occupancy(bpsm);
        for dev in [DeviceSpec::xavier_nx(), DeviceSpec::xavier_agx()] {
            let infl = wave_inflation(&k, &dev);
            prop_assert!(infl >= 1.0 - 1e-12);
            prop_assert!(infl <= dev.sm_count as f64 * bpsm as f64 + 1e-9);
        }
    }

    #[test]
    fn kernel_time_monotone_in_work(flops in 1u64..1_000_000_000, extra in 1u64..1_000_000_000) {
        let dev = DeviceSpec::xavier_nx();
        let base = KernelDesc::new("k").grid(48, 256).flops(flops)
            .precision(Precision::Fp16, true);
        let more = base.clone().flops(flops + extra);
        prop_assert!(kernel_busy_us(&more, &dev) >= kernel_busy_us(&base, &dev));
    }

    #[test]
    fn passes_preserve_outputs_and_validity(g in arb_network()) {
        let (after_dead, _) = dead_layer::run(&g).unwrap();
        let (after_fuse, _) = vertical_fusion::run(&after_dead).unwrap();
        let (after_merge, _) = horizontal_merge::run(&after_fuse).unwrap();
        prop_assert!(after_merge.validate().is_ok());
        prop_assert_eq!(after_merge.outputs().len(), g.outputs().len());

        // Semantics: the final graph computes the same function (exact —
        // these passes only splice, fold affine transforms, or merge).
        let mut rng = Pcg32::seed_from_u64(7);
        let input = Tensor::from_fn([3, 16, 16], |_, _, _| rng.normal() as f32);
        let a = ReferenceExecutor::new(&g).unwrap().run(&input).unwrap();
        let b = ReferenceExecutor::new(&after_merge).unwrap().run(&input).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            for (u, v) in x.as_slice().iter().zip(y.as_slice()) {
                prop_assert!((u - v).abs() <= 1e-4 * u.abs().max(1.0));
            }
        }
    }

    #[test]
    fn parallel_autotune_matches_sequential(
        g in arb_network(),
        seed in 0u64..500,
        threads in 2usize..9,
    ) {
        // Per-node RNG streams make tactic selection order-free: any worker
        // count must reproduce the sequential result bit for bit.
        let cfg = BuilderConfig::default();
        let device = DeviceSpec::xavier_nx();
        let calibration = CalibrationTable::new();
        let base = AutotuneOptions {
            noise_sd: cfg.timing_noise_sd,
            samples: cfg.timing_samples,
            threads: 1,
            cache: None,
        };
        let seq = autotune::select(&g, cfg.policy, &calibration, &device, seed, &base).unwrap();
        let par = autotune::select(
            &g, cfg.policy, &calibration, &device, seed,
            &AutotuneOptions { threads, ..base },
        ).unwrap();
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn warm_timing_cache_is_selection_transparent(g in arb_network(), seed in 0u64..500) {
        // A warm cache returns bit-identical deterministic times, so the
        // chosen tactic set can never differ from a cold or cache-less run.
        let cfg = BuilderConfig::default();
        let device = DeviceSpec::xavier_nx();
        let calibration = CalibrationTable::new();
        let cache = TimingCache::new();
        let cached = AutotuneOptions {
            noise_sd: cfg.timing_noise_sd,
            samples: cfg.timing_samples,
            threads: 1,
            cache: Some(&cache),
        };
        let cold = autotune::select(&g, cfg.policy, &calibration, &device, seed, &cached).unwrap();
        prop_assert!(cache.stats().misses > 0);
        let warm = autotune::select(&g, cfg.policy, &calibration, &device, seed, &cached).unwrap();
        let uncached = autotune::select(
            &g, cfg.policy, &calibration, &device, seed,
            &AutotuneOptions { cache: None, ..cached },
        ).unwrap();
        prop_assert_eq!(&cold, &warm);
        prop_assert_eq!(&cold, &uncached);
    }

    #[test]
    fn plans_round_trip_for_random_networks(g in arb_network(), seed in 0u64..100) {
        let engine = Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(seed),
        )
        .build(&g)
        .unwrap();
        let blob = plan::serialize(&engine);
        let back = plan::deserialize(&blob).unwrap();
        prop_assert_eq!(engine, back);
    }

    #[test]
    fn request_traces_conserve_and_partition_latency(
        seed in 0u64..200,
        workers in 1usize..4,
        frames in 1u64..48,
        batch in 1usize..5,
    ) {
        // Trace conservation: every accepted request produces exactly one
        // completed-or-dropped trace, and each completed trace's phase spans
        // are cut from event timestamps: contiguous from arrival to done,
        // so they partition the end-to-end latency exactly.
        let mut g = Graph::new("trace", [1, 4, 4]);
        let c = g.add_layer("c", LayerKind::conv_seeded(2, 1, 3, 1, 1, 0), &[Graph::INPUT]);
        g.mark_output(c);
        let device = DeviceSpec::xavier_nx();
        let engine = Builder::new(
            device.clone(),
            BuilderConfig::default().with_build_seed(seed),
        )
        .build(&g)
        .unwrap();
        let mut server = trtsim::InferenceServer::start(
            &engine,
            &device,
            trtsim::ServerConfig::default()
                .with_workers(workers)
                .with_queue_capacity(frames as usize)
                .with_max_batch_size(batch)
                .with_batch_timeout_us(f64::INFINITY)
                .with_timing(trtsim::TimingOptions::default().without_engine_upload())
                .with_trace(
                    trtsim::TraceOptions::default()
                        .with_capacity(frames as usize)
                        .with_sample_every(1),
                ),
        )
        .unwrap();
        let recorder = server.flight_recorder();
        for frame in 0..frames {
            server.submit(frame).unwrap();
        }
        let stats = server.drain();
        prop_assert_eq!(stats.completed, frames);
        prop_assert_eq!(recorder.completed_seen() + recorder.dropped_seen(), frames);
        prop_assert_eq!(recorder.rejected_seen(), 0);
        let traces = recorder.traces();
        // sample_every=1 with ample capacity keeps every trace.
        prop_assert_eq!(traces.len() as u64, frames);
        let mut ids = std::collections::HashSet::new();
        for t in &traces {
            prop_assert!(ids.insert(t.id), "duplicate trace id {}", t.id);
            prop_assert_eq!(t.phases[0].start_us, t.arrival_us);
            for pair in t.phases.windows(2) {
                prop_assert_eq!(pair[0].end_us, pair[1].start_us);
            }
            for p in &t.phases {
                prop_assert!(p.end_us >= p.start_us, "negative phase in {}", t.id);
            }
            prop_assert_eq!(t.phases[t.phases.len() - 1].end_us, t.done_us);
            let latency = t.latency_us();
            prop_assert!(
                (t.phase_sum_us() - latency).abs() <= 1e-6 * latency.max(1.0),
                "phases of {} sum to {} but latency is {}",
                t.id, t.phase_sum_us(), latency
            );
        }
    }

    #[test]
    fn plan_deserialize_never_panics_on_mutation(seed in 0u64..200, flips in 1usize..8) {
        let mut g = Graph::new("m", [1, 4, 4]);
        let c = g.add_layer("c", LayerKind::conv_seeded(2, 1, 3, 1, 1, 0), &[Graph::INPUT]);
        g.mark_output(c);
        let engine = Builder::new(
            DeviceSpec::xavier_nx(),
            BuilderConfig::default().with_build_seed(1),
        )
        .build(&g)
        .unwrap();
        let mut blob = plan::serialize(&engine);
        let mut rng = Pcg32::seed_from_u64(seed);
        for _ in 0..flips {
            let i = rng.range_usize(blob.len());
            blob[i] ^= 1 << rng.range_usize(8);
        }
        let _ = plan::deserialize(&blob); // must not panic; errors are fine
    }
}
