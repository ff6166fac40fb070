//! Report emission: [`ScenarioReport`] → markdown and shared-schema JSON.
//!
//! The JSON side reuses the [`BenchReport`] schema (`tool: trtsim-bench`,
//! `schema_version: 1`) rather than inventing a third shape: one phase per
//! executed unit (wall time, throughput, integer counters), summary keys of
//! the form `<unit label>.<metric>`, and `bit_identical` carrying whether
//! every assertion held — so the same diffing harness that tracks the bench
//! trajectory tracks scenario runs. The markdown side renders one table per
//! traffic node plus an assertions section, suitable for pasting into an
//! experiment log.

use std::path::Path;

use trtsim_core::reqtrace::{chrome_trace_all, traces_json};
use trtsim_metrics::report::{BenchReport, PhaseReport};

use super::driver::ScenarioReport;

/// Lowers a scenario report into the shared bench-report schema.
pub fn to_bench_report(report: &ScenarioReport, mode: &str, git_rev: &str) -> BenchReport {
    let phases = report
        .units
        .iter()
        .map(|u| {
            let mut phase = PhaseReport::new(u.label.clone(), u.wall_ms);
            if let Some(fps) = u.metric("fps") {
                phase = phase.with_throughput(fps);
            }
            for (k, v) in &u.metrics {
                // Integer-valued event counts belong in `counters`; the
                // continuous metrics go to the summary map below.
                if matches!(
                    k.as_str(),
                    "batches" | "completed" | "rejected" | "accepted" | "dropped" | "devices"
                ) {
                    phase = phase.with_counter(k.clone(), *v as u64);
                }
            }
            phase.with_counter("builds", u.builds.len().max(1) as u64)
        })
        .collect();
    let mut summary: Vec<(String, f64)> = Vec::new();
    for u in &report.units {
        for (k, v) in &u.metrics {
            summary.push((format!("{}.{}", u.label, k), *v));
        }
    }
    let passed = report.asserts.iter().filter(|a| a.passed).count();
    summary.push(("asserts_passed".to_string(), passed as f64));
    summary.push((
        "asserts_failed".to_string(),
        (report.asserts.len() - passed) as f64,
    ));
    BenchReport {
        benchmark: "scenario".to_string(),
        mode: mode.to_string(),
        git_rev: git_rev.to_string(),
        threads: trtsim_util::pool::auto_threads(),
        throughput_unit: "frames_per_sec".to_string(),
        context: vec![("scenario".to_string(), report.name.clone())],
        phases,
        summary,
        bit_identical: report.passed(),
    }
}

/// Renders the report as markdown: one table per traffic node, then the
/// assertion outcomes.
pub fn to_markdown(report: &ScenarioReport) -> String {
    let mut out = format!("# Scenario `{}`\n", report.name);
    // Group units by traffic node, preserving plan order.
    let mut traffic_names: Vec<&str> = Vec::new();
    for u in &report.units {
        if !traffic_names.contains(&u.plan.traffic.as_str()) {
            traffic_names.push(&u.plan.traffic);
        }
    }
    for traffic in traffic_names {
        let units: Vec<_> = report
            .units
            .iter()
            .filter(|u| u.plan.traffic == traffic)
            .collect();
        let kind = units.first().map_or("?", |u| u.plan.kind.name());
        out.push_str(&format!("\n## traffic `{traffic}` ({kind})\n\n"));
        // Columns: the union of metric keys, in first-seen order.
        let mut keys: Vec<&str> = Vec::new();
        for u in &units {
            for (k, _) in &u.metrics {
                if !keys.contains(&k.as_str()) {
                    keys.push(k);
                }
            }
        }
        out.push_str(&format!("| unit | {} |\n", keys.join(" | ")));
        out.push_str(&format!("|---|{}\n", "---|".repeat(keys.len())));
        for u in &units {
            let cells: Vec<String> = keys
                .iter()
                .map(|k| match u.metric(k) {
                    Some(v) if v.abs() >= 1000.0 => format!("{v:.0}"),
                    Some(v) => format!("{v:.2}"),
                    None => "—".to_string(),
                })
                .collect();
            out.push_str(&format!("| {} | {} |\n", u.label, cells.join(" | ")));
        }
    }
    out.push_str("\n## assertions\n\n");
    if report.asserts.is_empty() {
        out.push_str("(none)\n");
    } else {
        for a in &report.asserts {
            out.push_str(&format!(
                "- {} {}\n",
                if a.passed { "✅" } else { "❌" },
                a.render()
            ));
        }
    }
    out.push_str(&format!(
        "\nresult: **{}**\n",
        if report.passed() { "PASS" } else { "FAIL" }
    ));
    out
}

/// Dumps each unit's retained flight-recorder traces under `dir`: a JSON
/// array (`<unit>_traces.json`) plus a chrome://tracing document
/// (`<unit>_trace.chrome.json`) per serving/fleet unit that retained any.
/// Creates `dir` only when there is something to write.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_traces(dir: &Path, report: &ScenarioReport) -> std::io::Result<()> {
    for unit in report.units.iter().filter(|u| !u.traces.is_empty()) {
        // Unit labels may contain path-hostile characters; keep [a-z0-9_-].
        let keep = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
        let stem = unit.label.replace(|c| !keep(c), "_").to_ascii_lowercase();
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("{stem}_traces.json")),
            traces_json(&unit.traces),
        )?;
        std::fs::write(
            dir.join(format!("{stem}_trace.chrome.json")),
            chrome_trace_all(&unit.traces),
        )?;
    }
    Ok(())
}
