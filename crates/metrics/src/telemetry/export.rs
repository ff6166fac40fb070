//! Exposition formats: Prometheus text and a JSON snapshot, plus the
//! workspace's one JSON value and chrome://tracing event writer.

use super::registry::{FamilySnapshot, Registry, SeriesValue};

/// Renders the registry in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers per family, cumulative
/// `_bucket{le=...}` series plus `_sum` / `_count` for histograms, and
/// escaped label values.
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for family in registry.snapshot() {
        render_family_text(&mut out, &family);
    }
    out
}

fn render_family_text(out: &mut String, family: &FamilySnapshot) {
    out.push_str(&format!(
        "# HELP {} {}\n",
        family.name,
        escape_help(&family.help)
    ));
    out.push_str(&format!(
        "# TYPE {} {}\n",
        family.name,
        family.kind.as_str()
    ));
    for series in &family.series {
        match &series.value {
            SeriesValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {v}\n",
                    family.name,
                    label_block(&series.labels, None)
                ));
            }
            SeriesValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    family.name,
                    label_block(&series.labels, None),
                    fmt_f64(*v)
                ));
            }
            SeriesValue::Histogram {
                bounds,
                buckets,
                sum,
                count,
                exemplars,
            } => {
                let mut cum = 0u64;
                for (i, bucket) in buckets.iter().enumerate() {
                    cum += bucket;
                    let le = if i < bounds.len() {
                        fmt_f64(bounds[i])
                    } else {
                        "+Inf".to_string()
                    };
                    // OpenMetrics exemplar suffix, only on buckets that have
                    // one: `... N # {trace_id="<id>"} <value>`.
                    let exemplar = match exemplars.get(i).and_then(|e| e.as_ref()) {
                        Some((trace_id, value)) => format!(
                            " # {{trace_id=\"{}\"}} {}",
                            escape_label_value(trace_id),
                            fmt_f64(*value)
                        ),
                        None => String::new(),
                    };
                    out.push_str(&format!(
                        "{}_bucket{} {cum}{exemplar}\n",
                        family.name,
                        label_block(&series.labels, Some(&le))
                    ));
                }
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    family.name,
                    label_block(&series.labels, None),
                    fmt_f64(*sum)
                ));
                out.push_str(&format!(
                    "{}_count{} {count}\n",
                    family.name,
                    label_block(&series.labels, None)
                ));
            }
        }
    }
}

/// Renders the registry as a JSON object: one key per family, each with
/// `type`, `help`, and a `series` array carrying `labels` and the value
/// (counters/gauges: `value`; histograms: `bounds`, `buckets` (non-
/// cumulative), `sum`, `count`). Non-finite gauge values render as `null`.
pub fn render_json(registry: &Registry) -> String {
    let mut out = String::from("{\n");
    let families = registry.snapshot();
    for (fi, family) in families.iter().enumerate() {
        out.push_str(&format!(
            "  {}: {{\"type\": \"{}\", \"help\": {}, \"series\": [\n",
            json_string(&family.name),
            family.kind.as_str(),
            json_string(&family.help)
        ));
        for (si, series) in family.series.iter().enumerate() {
            out.push_str("    {\"labels\": {");
            for (li, (k, v)) in series.labels.iter().enumerate() {
                if li > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_string(k), json_string(v)));
            }
            out.push_str("}, ");
            match &series.value {
                SeriesValue::Counter(v) => out.push_str(&format!("\"value\": {v}")),
                SeriesValue::Gauge(v) => {
                    out.push_str(&format!("\"value\": {}", json_f64(*v)));
                }
                SeriesValue::Histogram {
                    bounds,
                    buckets,
                    sum,
                    count,
                    exemplars: _,
                } => {
                    out.push_str("\"bounds\": [");
                    for (i, b) in bounds.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&json_f64(*b));
                    }
                    out.push_str("], \"buckets\": [");
                    for (i, b) in buckets.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push_str(&format!(
                        "], \"sum\": {}, \"count\": {count}",
                        json_f64(*sum)
                    ));
                }
            }
            out.push('}');
            if si + 1 < family.series.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]}");
        if fi + 1 < families.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

impl Registry {
    /// Writes the JSON snapshot to `path` — the disk-dump path the repro and
    /// bench bins use alongside their reports.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, render_json(self))
    }
}

/// `{label="value",...}` with Prometheus escaping, plus an optional `le`
/// label appended last (histogram buckets). Empty when there are no labels.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus HELP-text escaping: backslash and newline only.
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Minimal float formatting: integers print without a trailing `.0`
/// (Rust's `{}` already does this: `1f64` renders as `1`).
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

/// JSON-safe float: non-finite values become `null` (RFC 8259 has no Inf/NaN).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON string literal (quotes included) with the mandatory RFC 8259
/// escapes: `"`, `\\`, and every control character below U+0020.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `Some(v)` written as `v` displays (a number, or a literal already
/// rendered such as a [`json_string`]), `None` as JSON `null`.
pub fn json_opt(v: Option<impl std::fmt::Display>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// A Trace Event Format number: three decimals (ns resolution for µs
/// timestamps), non-finite written as `0` so the viewer still loads a
/// document holding a poisoned value.
pub fn chrome_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

/// One `"ph":"X"` complete event of a [`ChromeTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompleteEvent<'a> {
    /// Event name, escaped on output.
    pub name: &'a str,
    /// Category label, written verbatim.
    pub cat: &'a str,
    /// Start on the trace clock, µs.
    pub ts_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Process (track group) id.
    pub pid: usize,
    /// Thread (track) id.
    pub tid: usize,
    /// Pre-rendered JSON object written verbatim as the event's `args`.
    pub args: String,
}

/// A chrome://tracing (Trace Event Format) document under construction:
/// `"M"` name-metadata and `"X"` complete events, in the order written,
/// inside the `{"displayTimeUnit":"ms","traceEvents":[...]}` wrapper.
#[derive(Debug)]
pub struct ChromeTrace {
    out: String,
}

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTrace {
    /// An empty document.
    pub fn new() -> Self {
        Self {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        }
    }

    /// Separates an event from the one before it, if any.
    fn begin_event(&mut self) {
        if !self.out.ends_with('[') {
            self.out.push(',');
        }
    }

    /// A `"M"` metadata event: `kind` is `process_name` (with `tid`
    /// `None`) or `thread_name`, and `name` labels that process or thread.
    pub fn metadata(&mut self, kind: &str, pid: usize, tid: Option<usize>, name: &str) {
        self.begin_event();
        let tid = tid.map(|t| format!("\"tid\":{t},")).unwrap_or_default();
        self.out.push_str(&format!(
            "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},{tid}\"args\":{{\"name\":{}}}}}",
            json_string(name)
        ));
    }

    /// A `"ph":"X"` complete event.
    pub fn complete(&mut self, e: &CompleteEvent<'_>) {
        self.begin_event();
        self.out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{}}}",
            json_string(e.name),
            e.cat,
            chrome_number(e.ts_us),
            chrome_number(e.dur_us),
            e.pid,
            e.tid,
            e.args
        ));
    }

    /// The finished document.
    pub fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::super::log_buckets;
    use super::*;

    #[test]
    fn chrome_numbers_are_fixed_and_finite() {
        assert_eq!(chrome_number(f64::NAN), "0");
        assert_eq!(chrome_number(f64::INFINITY), "0");
        assert_eq!(chrome_number(1.5), "1.500");
        assert_eq!(json_opt(None::<u64>), "null");
        assert_eq!(json_opt(Some(json_string("a\"b"))), "\"a\\\"b\"");
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = Registry::new();
        reg.counter("x_total", "a counter", &[("model", "m\"1\"")])
            .add(3);
        let h = reg.histogram("lat_us", "latency", &[], &log_buckets(1.0, 2.0, 3));
        h.observe(1.5);
        h.observe(5.0);
        let text = render_prometheus(&reg);
        assert!(text.contains("# TYPE x_total counter\n"));
        assert!(text.contains("x_total{model=\"m\\\"1\\\"\"} 3\n"));
        assert!(text.contains("lat_us_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_us_count 2\n"));
        assert!(text.contains("lat_us_sum 6.5\n"));
    }

    #[test]
    fn exemplar_suffix_only_on_its_bucket_and_not_in_json() {
        let reg = Registry::new();
        let h = reg.histogram("lat_us", "latency", &[], &log_buckets(1.0, 2.0, 3));
        h.observe(1.5);
        h.observe_with_exemplar(5.0, "00000000deadbeef");
        let text = render_prometheus(&reg);
        // The 5.0 observation overflows the last finite bound (4) into +Inf.
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2 # {trace_id=\"00000000deadbeef\"} 5\n"));
        assert!(text.contains("lat_us_bucket{le=\"2\"} 1\n"), "{text}");
        // Exemplars are a text-exposition feature; JSON shape is unchanged.
        assert!(!render_json(&reg).contains("deadbeef"));
    }

    #[test]
    fn json_is_braced_and_escaped() {
        let reg = Registry::new();
        reg.gauge("g", "say \"hi\"\n", &[("k", "v\\w")]).set(1.25);
        let json = render_json(&reg);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(json.contains("\"say \\\"hi\\\"\\n\""));
        assert!(json.contains("\"v\\\\w\""));
        assert!(json.contains("\"value\": 1.25"));
    }

    #[test]
    fn nan_gauge_renders_null_in_json() {
        let reg = Registry::new();
        reg.gauge("g", "h", &[]).set(f64::NAN);
        assert!(render_json(&reg).contains("\"value\": null"));
    }
}
