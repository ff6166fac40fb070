//! Heap-allocation budget of a warm `InferencePlan::execute`.
//!
//! Every step of a plan takes its buffers from the scratch arena, so once a
//! `PlanScratch` has run an image the steady state should touch the system
//! allocator only for what leaves the call: the returned `Vec<Tensor>` and
//! the output tensor's buffer, which the arena gives away with it. A
//! counting global allocator pins that budget. It counts per thread, so
//! tests running in parallel cannot disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use trtsim::data::SyntheticImageNet;
use trtsim::engine::{Builder, BuilderConfig};
use trtsim::models::numeric::{build_classifier, NUMERIC_INPUT};
use trtsim::models::ModelId;
use trtsim::{DeviceSpec, InferencePlan, PlanScratch};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Builds `model` once per (device, seed) with `config` and checks that
/// every warm `execute` stays within the two-allocation budget.
fn assert_warm_execute_budget(model: ModelId, config: impl Fn(u64) -> BuilderConfig) {
    let dataset = SyntheticImageNet::new(4, NUMERIC_INPUT, 17).with_snr(1.0, 1.0);
    let prototypes: Vec<_> = (0..4).map(|c| dataset.prototype(c)).collect();
    let network = build_classifier(model, &prototypes, 0.1, 3);
    for (device, seed) in [
        (DeviceSpec::xavier_nx(), 5),
        (DeviceSpec::xavier_nx(), 6),
        (DeviceSpec::xavier_agx(), 7),
    ] {
        let engine = Builder::new(device, config(seed))
            .build(&network)
            .expect("builds");
        let plan = InferencePlan::compile(&engine).expect("compiles");
        let mut scratch = PlanScratch::new();
        for image in &prototypes {
            plan.execute(image, &mut scratch).expect("runs");
        }
        for image in &prototypes {
            let (count, outputs) = allocations_in(|| plan.execute(image, &mut scratch));
            let outputs = outputs.expect("runs");
            assert_eq!(outputs.len(), 1);
            assert!(
                count <= 2,
                "{model:?} seed {seed}: warm execute made {count} heap allocations, budget 2"
            );
        }
    }
}

#[test]
fn warm_googlenet_execute_allocates_only_its_outputs() {
    assert_warm_execute_budget(ModelId::Googlenet, |seed| {
        BuilderConfig::default()
            .with_build_seed(seed)
            .with_pruning(true)
    });
}

/// ResNet-18's plan carries a layout-convert step.
#[test]
fn warm_resnet18_execute_allocates_only_its_outputs() {
    assert_warm_execute_budget(ModelId::Resnet18, |seed| {
        BuilderConfig::default().with_build_seed(seed)
    });
}

/// Calibration makes INT8 conv tactics available to the builder.
#[test]
fn warm_int8_googlenet_execute_allocates_only_its_outputs() {
    let dataset = SyntheticImageNet::new(4, NUMERIC_INPUT, 17).with_snr(1.0, 1.0);
    let calibration: Vec<_> = (0..4).map(|c| dataset.prototype(c)).collect();
    assert_warm_execute_budget(ModelId::Googlenet, |seed| {
        BuilderConfig::default()
            .with_build_seed(seed)
            .with_pruning(true)
            .with_calibration(calibration.clone())
    });
}
