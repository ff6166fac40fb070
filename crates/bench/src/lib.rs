//! Benchmark support: shared fixtures for the Criterion benches.
//!
//! The benches live under `benches/`: `builder` (engine-build pipeline and
//! individual passes), `inference` (numeric and timed execution),
//! `experiments` (the paper's table harnesses end to end), and `serving`
//! (the inference server's submission path and batched serve runs).
//!
//! The `bench_build` binary (`cargo run --release -p trtsim-bench --bin
//! bench_build`) times whole-zoo engine builds cold, warm-cache, and
//! parallel, and writes `BENCH_build.json`; `bench_infer` does the same for
//! the numeric fast path and writes `BENCH_infer.json`. Both emit the shared
//! [`trtsim_metrics::report::BenchReport`] schema and dump the process
//! telemetry registry next to the report.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use trtsim_core::{Builder, BuilderConfig, Engine};
use trtsim_gpu::device::DeviceSpec;
use trtsim_models::ModelId;

/// One lazily-built fixture engine, shared by reference.
type FixtureSlot = Arc<OnceLock<Arc<Engine>>>;

/// Builds (once) and hands out the deterministic engine fixture for `model`.
///
/// Benches iterate thousands of times over the same engines; memoizing the
/// builds behind a process-wide map keeps fixture setup out of the measured
/// loops and out of bench startup time.
pub fn engine_fixture(model: ModelId) -> Arc<Engine> {
    static FIXTURES: OnceLock<Mutex<HashMap<ModelId, FixtureSlot>>> = OnceLock::new();
    let slot = {
        let map = FIXTURES.get_or_init(Mutex::default);
        let mut map = map.lock().expect("fixture map poisoned");
        Arc::clone(map.entry(model).or_default())
    };
    // Build outside the map lock so distinct models can build concurrently.
    Arc::clone(slot.get_or_init(|| {
        Arc::new(
            Builder::new(
                DeviceSpec::xavier_nx(),
                BuilderConfig::default().with_build_seed(1),
            )
            .build(&model.descriptor())
            .expect("zoo models build"),
        )
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds() {
        assert!(engine_fixture(ModelId::Mtcnn).launch_count() > 5);
    }

    #[test]
    fn fixture_is_memoized() {
        let a = engine_fixture(ModelId::Mtcnn);
        let b = engine_fixture(ModelId::Mtcnn);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
