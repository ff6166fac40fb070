//! The shared machine-diffable report schema for the bench binaries.
//!
//! `bench_build` and `bench_infer` historically wrote two ad-hoc JSON
//! shapes; diffing the bench trajectory across commits meant special-casing
//! each file. Both now emit this one schema:
//!
//! ```json
//! {
//!   "tool": "trtsim-bench",
//!   "schema_version": 1,
//!   "benchmark": "bench_infer",
//!   "mode": "smoke",
//!   "git_rev": "unknown",
//!   "threads": 16,
//!   "wall_unit": "ms",
//!   "throughput_unit": "images_per_sec",
//!   "context": {"model": "resnet18"},
//!   "phases": [
//!     {"name": "naive_sequential", "wall_ms": 10.1,
//!      "throughput": 99.0, "counters": {"cache_hits": 12}}
//!   ],
//!   "summary": {"speedup_planned_vs_naive": 3.1},
//!   "bit_identical": true
//! }
//! ```
//!
//! `git_rev` resolves in provenance order: the harness's `--git-rev SHA`
//! flag, the `TRTSIM_GIT_REV` environment variable, then a `git rev-parse
//! --short HEAD` of the working directory — so checked-in reports carry a
//! real revision even when the harness forgets to pass one. Only outside a
//! git checkout (a tarball build) does it fall back to `"unknown"`. Wall
//! time is always milliseconds; the per-benchmark throughput unit is named
//! once at the top level.

use trtsim_metrics::{json_string, Registry};

/// One timed phase of a benchmark run.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name (snake_case, stable across commits).
    pub name: String,
    /// Wall-clock time, milliseconds.
    pub wall_ms: f64,
    /// Work rate in the report's `throughput_unit`, when meaningful.
    pub throughput: Option<f64>,
    /// Integer event counters attributed to this phase.
    pub counters: Vec<(String, u64)>,
}

impl PhaseReport {
    /// A phase with no throughput and no counters; chain `with_*` to fill.
    pub fn new(name: impl Into<String>, wall_ms: f64) -> Self {
        Self {
            name: name.into(),
            wall_ms,
            throughput: None,
            counters: Vec::new(),
        }
    }

    /// Sets the phase throughput (in the report's `throughput_unit`).
    pub fn with_throughput(mut self, throughput: f64) -> Self {
        self.throughput = Some(throughput);
        self
    }

    /// Appends one event counter.
    pub fn with_counter(mut self, name: impl Into<String>, value: u64) -> Self {
        self.counters.push((name.into(), value));
        self
    }
}

/// A full bench report in the shared schema.
///
/// Keys are owned `String`s so producers other than the two bench bins —
/// notably the scenario driver's emit layer — can generate phase and
/// summary names at runtime.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Which binary produced this (`bench_build`, `bench_infer`,
    /// `scenario`).
    pub benchmark: String,
    /// `smoke` (CI-sized) or `full`.
    pub mode: String,
    /// Git revision the harness passed in; `unknown` when it didn't.
    pub git_rev: String,
    /// Worker threads available to the parallel phases.
    pub threads: usize,
    /// Unit of every phase's `throughput` field.
    pub throughput_unit: String,
    /// Free-form string context (model names, image counts).
    pub context: Vec<(String, String)>,
    /// Timed phases, in execution order.
    pub phases: Vec<PhaseReport>,
    /// Derived numeric results (speedups, footprints).
    pub summary: Vec<(String, f64)>,
    /// Whether every cross-phase output comparison was bit-identical.
    pub bit_identical: bool,
}

impl BenchReport {
    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"tool\": \"trtsim-bench\",\n");
        out.push_str("  \"schema_version\": 1,\n");
        for (key, value) in [
            ("benchmark", &self.benchmark),
            ("mode", &self.mode),
            ("git_rev", &self.git_rev),
        ] {
            out.push_str(&format!("  \"{key}\": {},\n", json_string(value)));
        }
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str("  \"wall_unit\": \"ms\",\n");
        out.push_str(&format!(
            "  \"throughput_unit\": {},\n",
            json_string(&self.throughput_unit)
        ));
        out.push_str("  \"context\": {");
        for (i, (k, v)) in self.context.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_string(k), json_string(v)));
        }
        out.push_str("},\n");
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"wall_ms\": {:.3}, \"throughput\": {}, \"counters\": {{",
                json_string(&p.name),
                p.wall_ms,
                match p.throughput {
                    Some(t) => format!("{t:.3}"),
                    None => "null".to_string(),
                },
            ));
            for (j, (k, v)) in p.counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {v}", json_string(k)));
            }
            out.push_str("}}");
            if i + 1 < self.phases.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str("  \"summary\": {");
        for (i, (k, v)) in self.summary.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {v:.3}", json_string(k)));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "  \"bit_identical\": {}\n}}\n",
            self.bit_identical
        ));
        out
    }

    /// Writes the JSON report to `path`, plus the run's telemetry snapshot
    /// — `registry`, into which the binary published or absorbed what its
    /// servers, fleets, farms and plans counted — next to it (see
    /// [`telemetry_path_for`]).
    ///
    /// # Panics
    ///
    /// Panics if either file cannot be written — a bench run whose report
    /// is lost should fail loudly.
    pub fn write(&self, path: &str, registry: &Registry) {
        std::fs::write(path, self.to_json()).expect("write bench report");
        registry
            .write_json(telemetry_path_for(path))
            .expect("write telemetry snapshot");
    }
}

/// Where a report's telemetry snapshot lands: `X.json` → `X.telemetry.json`
/// (or `X.telemetry.json` appended when the report has no `.json` suffix).
pub fn telemetry_path_for(report_path: &str) -> String {
    match report_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.telemetry.json"),
        None => format!("{report_path}.telemetry.json"),
    }
}

/// Resolves the git revision stamped into reports: `--git-rev SHA` in
/// `args`, else the `TRTSIM_GIT_REV` environment variable, else `git
/// rev-parse --short HEAD`, else `unknown` (tarball builds with no
/// checkout).
pub fn git_rev(args: &[String]) -> String {
    args.iter()
        .position(|a| a == "--git-rev")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var("TRTSIM_GIT_REV").ok())
        .filter(|s| !s.is_empty())
        .or_else(rev_parse_head)
        .unwrap_or_else(|| "unknown".to_string())
}

/// The working directory's `HEAD`, short form, when inside a git checkout.
fn rev_parse_head() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!rev.is_empty()).then_some(rev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_the_shared_fields() {
        let report = BenchReport {
            benchmark: "bench_test".into(),
            mode: "smoke".into(),
            git_rev: "abc123".into(),
            threads: 4,
            throughput_unit: "items_per_sec".into(),
            context: vec![("model".into(), "m".into())],
            phases: vec![PhaseReport::new("p1", 1.5)
                .with_throughput(10.0)
                .with_counter("hits", 3)],
            summary: vec![("speedup".into(), 2.0)],
            bit_identical: true,
        };
        let json = report.to_json();
        for needle in [
            "\"tool\": \"trtsim-bench\"",
            "\"schema_version\": 1",
            "\"git_rev\": \"abc123\"",
            "\"wall_unit\": \"ms\"",
            "\"throughput_unit\": \"items_per_sec\"",
            "\"counters\": {\"hits\": 3}",
            "\"summary\": {\"speedup\": 2.000}",
            "\"bit_identical\": true",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn keys_with_control_characters_stay_valid_json() {
        let nasty = "a\nb\t\u{1}\"";
        let report = BenchReport {
            benchmark: nasty.into(),
            mode: "smoke".into(),
            git_rev: "abc123".into(),
            threads: 1,
            throughput_unit: "items_per_sec".into(),
            context: vec![(nasty.into(), nasty.into())],
            phases: vec![PhaseReport::new(nasty, 1.0).with_counter(nasty, 1)],
            summary: vec![(nasty.into(), 1.0)],
            bit_identical: true,
        };
        let json = report.to_json();
        let escaped = r#""a\nb\t\u0001\"""#;
        assert_eq!(json.matches(escaped).count(), 6, "{json}");
        // RFC 8259: no raw control character may appear inside a string;
        // the only ones left are the pretty-printer's newlines.
        assert!(json.chars().all(|c| c == '\n' || !c.is_control()));
    }

    #[test]
    fn telemetry_path_derivation() {
        assert_eq!(
            telemetry_path_for("BENCH_build.json"),
            "BENCH_build.telemetry.json"
        );
        assert_eq!(telemetry_path_for("out"), "out.telemetry.json");
    }

    #[test]
    fn git_rev_prefers_flag() {
        let args = vec!["--git-rev".to_string(), "deadbeef".to_string()];
        assert_eq!(git_rev(&args), "deadbeef");
    }

    #[test]
    fn git_rev_falls_back_to_the_checkout() {
        // Tests run inside the repo's checkout, so the rev-parse fallback
        // must produce a real short hash — never the `unknown` the
        // checked-in reports used to ship with.
        let rev = git_rev(&[]);
        if std::env::var("TRTSIM_GIT_REV").is_err() {
            assert_ne!(rev, "unknown");
            assert!(
                rev.len() >= 7 && rev.chars().all(|c| c.is_ascii_hexdigit()),
                "not a short hash: {rev}"
            );
        }
    }
}
