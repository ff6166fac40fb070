//! Times the paper campaign section by section over repeated fresh runs and
//! writes `BENCH_campaign.json` in the shared [`trtsim_metrics::report`]
//! schema.
//!
//! ```text
//! cargo run --release -p trtsim-bench --bin bench_campaign            # full scale, 3 runs
//! cargo run --release -p trtsim-bench --bin bench_campaign -- --smoke # CI: quick scale, 1 run
//! ```
//!
//! Each run is a fresh [`Campaign`] (its own engine farm) that renders every
//! section in registry order. A section's phase reports the median wall
//! time over the runs; the summary carries its min, max and median absolute
//! deviation (MAD), plus the same for the whole campaign and for Tables III
//! and IV together. `bit_identical` says whether every run's stdout equals
//! the checked-in golden: `all_experiments.txt` at full scale,
//! `crates/repro/tests/golden/campaign_quick.txt` under `--smoke`.
//!
//! Flags: `--smoke` (quick accuracy scale, 1 run unless `--runs` says
//! otherwise), `--runs N`, `--out PATH` (default `BENCH_campaign.json`),
//! `--git-rev SHA` (`TRTSIM_GIT_REV` works too). The process exits non-zero
//! if any run's output differs from the golden, after writing the report.

use std::process::ExitCode;
use std::time::Instant;

use trtsim_metrics::report::{git_rev, BenchReport, PhaseReport};
use trtsim_repro::campaign::{Campaign, SECTIONS};
use trtsim_repro::exp_accuracy::AccuracyConfig;
use trtsim_util::pool::auto_threads;
use trtsim_util::stats::percentile_sorted;

const FULL_GOLDEN: &str = include_str!("../../../../all_experiments.txt");
const QUICK_GOLDEN: &str = include_str!("../../../repro/tests/golden/campaign_quick.txt");

/// Median, min, max and median absolute deviation of `samples`.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
    mad: f64,
}

impl Spread {
    fn of(samples: &[f64]) -> Self {
        let median_of = |values: &[f64]| {
            let mut sorted = values.to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile_sorted(&sorted, 50.0).unwrap_or(f64::NAN)
        };
        let median = median_of(samples);
        let deviations: Vec<f64> = samples.iter().map(|x| (x - median).abs()).collect();
        Self {
            median,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mad: median_of(&deviations),
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The first line where `actual` departs from `golden`, 1-based.
fn first_difference(actual: &str, golden: &str) -> usize {
    let mismatch = actual.lines().zip(golden.lines()).position(|(a, g)| a != g);
    1 + mismatch.unwrap_or_else(|| actual.lines().count().min(golden.lines().count()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let runs = match flag_value(&args, "--runs").map(str::parse::<usize>) {
        None if smoke => 1,
        None => 3,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("bench_campaign: --runs takes a positive integer");
            return ExitCode::from(2);
        }
    };
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_campaign.json");
    let (accuracy, golden) = if smoke {
        (AccuracyConfig::quick(), QUICK_GOLDEN)
    } else {
        (AccuracyConfig::default(), FULL_GOLDEN)
    };

    // section_ms[s][r]: section `s`'s wall time in run `r`.
    let mut section_ms = vec![Vec::with_capacity(runs); SECTIONS.len()];
    let mut bit_identical = true;
    for run in 0..runs {
        let campaign = Campaign::new(accuracy);
        let mut stdout = Vec::new();
        for (s, section) in SECTIONS.iter().enumerate() {
            let started = Instant::now();
            campaign
                .write_section(section, &mut stdout)
                .expect("writing to memory cannot fail");
            section_ms[s].push(started.elapsed().as_secs_f64() * 1e3);
        }
        let text = String::from_utf8(stdout).expect("sections render UTF-8");
        let total: f64 = section_ms.iter().map(|ms| ms[run]).sum();
        if text == golden {
            eprintln!(
                "run {}/{runs}: {:.3}s, matches the golden",
                run + 1,
                total / 1e3
            );
        } else {
            bit_identical = false;
            eprintln!(
                "run {}/{runs}: {:.3}s, differs from the golden at line {}",
                run + 1,
                total / 1e3,
                first_difference(&text, golden)
            );
        }
    }

    let totals: Vec<f64> = (0..runs)
        .map(|r| section_ms.iter().map(|ms| ms[r]).sum())
        .collect();
    let accuracy_tables: Vec<f64> = (0..runs)
        .map(|r| {
            SECTIONS
                .iter()
                .zip(&section_ms)
                .filter(|(s, _)| matches!(s.name, "table3" | "table4"))
                .map(|(_, ms)| ms[r])
                .sum()
        })
        .collect();
    let mut phases = Vec::new();
    let mut summary = Vec::new();
    let named = SECTIONS
        .iter()
        .map(|s| s.name)
        .zip(section_ms.iter().map(Vec::as_slice))
        .chain([
            ("table3_table4", accuracy_tables.as_slice()),
            ("campaign", totals.as_slice()),
        ]);
    for (name, samples) in named {
        let spread = Spread::of(samples);
        phases.push(PhaseReport::new(name, spread.median));
        summary.extend([
            (format!("{name}_min_ms"), spread.min),
            (format!("{name}_max_ms"), spread.max),
            (format!("{name}_mad_ms"), spread.mad),
        ]);
    }
    let report = BenchReport {
        benchmark: "bench_campaign".into(),
        mode: if smoke { "smoke" } else { "full" }.into(),
        git_rev: git_rev(&args),
        threads: auto_threads(),
        throughput_unit: "none".into(),
        context: vec![
            ("runs".into(), runs.to_string()),
            ("statistic".into(), "median over runs".into()),
            ("accuracy_classes".into(), accuracy.classes.to_string()),
        ],
        phases,
        summary,
        bit_identical,
    };
    std::fs::write(out_path, report.to_json()).expect("write bench report");

    for p in &report.phases {
        println!("{:<14} {:>12.1} ms", p.name, p.wall_ms);
    }
    println!("runs: {runs}, bit_identical: {bit_identical} -> {out_path}");
    if bit_identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_campaign: campaign output differs from the golden");
        ExitCode::FAILURE
    }
}
