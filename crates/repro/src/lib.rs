//! Experiment harnesses: one module per table/figure of the paper.
//!
//! Most modules expose a `run()` returning a structured result and a
//! renderer producing the table text. Table VII, Figures 3/4 and the
//! serving sweep are declared as `.scn` files instead: the [`scenario`]
//! driver runs them, and `exp_fps`, `exp_concurrency` and `exp_serving`
//! only render its reports. Harnesses that build engines take the
//! [`support::EngineFarm`] of their caller. The [`campaign`] registry names
//! each table's section, and the one binary runs it:
//! `cargo run --release -p trtsim-repro --bin campaign [-- --only table7]`
//! regenerates everything, or the named sections (EXPERIMENTS.md records
//! the paper-vs-measured comparison); `-- --scn FILE|DIR` runs scenario
//! files.
//!
//! Experiment conditions follow §II-F: latency tables run at the pinned
//! clocks (599 / 624 MHz) with ten measured runs; throughput/concurrency
//! experiments run at the board-maximum clocks.

#![warn(missing_docs)]

pub mod campaign;
pub mod exp_ablation;
pub mod exp_accuracy;
pub mod exp_bsp;
pub mod exp_concurrency;
pub mod exp_consistency;
pub mod exp_fps;
pub mod exp_latency;
pub mod exp_memcpy;
pub mod exp_platforms;
pub mod exp_serving;
pub mod exp_sizes;
pub mod exp_summary;
pub mod exp_variability;
pub mod scenario;
pub mod support;
