//! The metric registry and its lock-free series handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Metric kind, fixed at first registration of a family name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing `u64` counter handle.
///
/// Cloning is cheap (an `Arc` bump); every clone updates the same series.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable `f64` gauge handle (stored as bit-cast atomics).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (CAS loop; gauges are not hot-path metrics).
    pub fn add(&self, delta: f64) {
        add_f64(&self.0, delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Adds `delta` to an `f64` stored as bits (CAS loop).
fn add_f64(bits: &AtomicU64, delta: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// One optional `(trace_id, value)` exemplar slot per histogram bucket.
pub(crate) type ExemplarSlots = Box<[Option<(String, f64)>]>;

#[derive(Debug)]
pub(crate) struct HistogramCore {
    /// Finite upper bounds, strictly increasing. The implicit final bucket
    /// is `+Inf`.
    pub(crate) bounds: Arc<[f64]>,
    /// One counter per finite bound plus the overflow bucket
    /// (`len == bounds.len() + 1`). Non-cumulative.
    pub(crate) buckets: Box<[AtomicU64]>,
    /// Sum of observed values, as `f64` bits.
    pub(crate) sum_bits: AtomicU64,
    /// Total number of observations.
    pub(crate) count: AtomicU64,
    /// Per-bucket OpenMetrics exemplars (`trace_id`, observed value), one
    /// slot per bucket, latest-wins. Behind a mutex: exemplars are only
    /// attached for retained traces (rare), never on the plain hot path.
    pub(crate) exemplars: Mutex<ExemplarSlots>,
}

/// A bounded log-bucket histogram handle.
///
/// Observations land in the first bucket whose upper bound is `>= value`;
/// quantile estimates report that upper bound, so the estimate is exact to
/// within one bucket's width (one growth factor for [`log_buckets`]).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation. Lock-free: a binary search over the bounds
    /// plus three relaxed atomic updates.
    pub fn observe(&self, value: f64) {
        let core = &self.0;
        let idx = core.bounds.partition_point(|b| *b < value);
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        add_f64(&core.sum_bits, value);
    }

    /// Records one observation and attaches an OpenMetrics exemplar — a
    /// `trace_id` pointing at a retained flight-recorder trace — to the
    /// bucket the value lands in (latest exemplar wins). Costs one short
    /// mutex hold on top of [`observe`]; call it only for the minority of
    /// observations that actually have a retained trace behind them.
    ///
    /// [`observe`]: Histogram::observe
    pub fn observe_with_exemplar(&self, value: f64, trace_id: &str) {
        self.observe(value);
        let core = &self.0;
        let idx = core.bounds.partition_point(|b| *b < value);
        let mut slots = core.exemplars.lock().expect("exemplars poisoned");
        slots[idx] = Some((trace_id.to_string(), value));
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Quantile estimate: the upper bound of the bucket containing the
    /// `q`-quantile observation (`0.0 ..= 1.0`). Returns `NaN` when empty;
    /// observations past the last finite bound report that last bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let core = &self.0;
        let counts: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return if i < core.bounds.len() {
                    core.bounds[i]
                } else {
                    *core.bounds.last().expect("histograms have >= 1 bound")
                };
            }
        }
        unreachable!("rank <= total")
    }
}

/// Builds `count` log-spaced histogram bounds: `start, start*growth, ...`.
///
/// # Panics
///
/// Panics unless `start > 0`, `growth > 1`, and `count >= 1`.
pub fn log_buckets(start: f64, growth: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0, "log_buckets: start must be positive");
    assert!(growth > 1.0, "log_buckets: growth must exceed 1");
    assert!(count >= 1, "log_buckets: need at least one bucket");
    let mut bounds = Vec::with_capacity(count);
    let mut b = start;
    for _ in 0..count {
        bounds.push(b);
        b *= growth;
    }
    bounds
}

#[derive(Debug)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Family {
    kind: Kind,
    help: String,
    /// Histogram families share one bound set across all label series.
    bounds: Option<Arc<[f64]>>,
    series: BTreeMap<Vec<(String, String)>, Series>,
}

/// One owner's collection of metric families (a server's, a fleet's, a
/// benchmark run's).
///
/// Names follow the Prometheus convention `[a-zA-Z_:][a-zA-Z0-9_:]*`; label
/// names `[a-zA-Z_][a-zA-Z0-9_]*`. Registration panics on invalid names or
/// on re-registering a family under a different kind — both are programmer
/// errors, not runtime conditions.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry (for tests or scoped collection).
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds or creates the counter `name{labels}`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let series = self.series(name, help, labels, Kind::Counter, None);
        match series {
            Series::Counter(c) => Counter(c),
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Finds or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let series = self.series(name, help, labels, Kind::Gauge, None);
        match series {
            Series::Gauge(g) => Gauge(g),
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Finds or creates the histogram `name{labels}` with the given finite
    /// bucket bounds (strictly increasing; an `+Inf` bucket is implicit).
    /// All series of one family share the bounds of the first registration.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        assert!(
            !bounds.is_empty() && bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name}: bounds must be non-empty and strictly increasing"
        );
        let series = self.series(name, help, labels, Kind::Histogram, Some(bounds));
        match series {
            Series::Histogram(h) => Histogram(h),
            _ => unreachable!("kind checked in series()"),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        bounds: Option<&[f64]>,
    ) -> Series {
        validate_name(name);
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                validate_label(name, k);
                (k.to_string(), v.to_string())
            })
            .collect();
        key.sort();
        key.dedup_by(|a, b| a.0 == b.0);
        let mut inner = self.inner.lock().expect("registry poisoned");
        let family = inner.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            bounds: bounds.map(Arc::from),
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            kind,
            "metric {name} already registered as a {}",
            family.kind.as_str()
        );
        let family_bounds = family.bounds.clone();
        family
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                Kind::Counter => Series::Counter(Arc::new(AtomicU64::new(0))),
                Kind::Gauge => Series::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
                Kind::Histogram => {
                    let bounds = family_bounds.expect("histogram family carries bounds");
                    let buckets = (0..bounds.len() + 1)
                        .map(|_| AtomicU64::new(0))
                        .collect::<Vec<_>>()
                        .into_boxed_slice();
                    let exemplars = vec![None; bounds.len() + 1].into_boxed_slice();
                    Series::Histogram(Arc::new(HistogramCore {
                        bounds,
                        buckets,
                        sum_bits: AtomicU64::new(0f64.to_bits()),
                        count: AtomicU64::new(0),
                        exemplars: Mutex::new(exemplars),
                    }))
                }
            })
            .clone_handle()
    }

    /// Folds every series of `other` into this registry: counters and
    /// histogram buckets, sums and counts add; gauges take `other`'s value;
    /// `other`'s exemplars replace the ones held here. Families missing here
    /// are registered with `other`'s kind, help and bounds — the way a
    /// binary merges the registries of the servers, fleets and farms it ran
    /// into the one snapshot it writes.
    ///
    /// # Panics
    ///
    /// Panics if a family exists in both registries under a different kind,
    /// or as histograms with different bounds.
    pub fn absorb(&self, other: &Registry) {
        for family in other.snapshot() {
            for series in family.series {
                let labels: Vec<(&str, &str)> = series
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                match series.value {
                    SeriesValue::Counter(v) => {
                        self.counter(&family.name, &family.help, &labels).add(v)
                    }
                    SeriesValue::Gauge(v) => self.gauge(&family.name, &family.help, &labels).set(v),
                    SeriesValue::Histogram {
                        bounds,
                        buckets,
                        sum,
                        count,
                        exemplars,
                    } => {
                        let core = self
                            .histogram(&family.name, &family.help, &labels, &bounds)
                            .0;
                        assert_eq!(
                            core.bounds[..],
                            bounds[..],
                            "histogram {}: absorbed bounds differ",
                            family.name
                        );
                        for (bucket, n) in core.buckets.iter().zip(buckets) {
                            bucket.fetch_add(n, Ordering::Relaxed);
                        }
                        core.count.fetch_add(count, Ordering::Relaxed);
                        add_f64(&core.sum_bits, sum);
                        let mut slots = core.exemplars.lock().expect("exemplars poisoned");
                        for (slot, exemplar) in slots.iter_mut().zip(exemplars) {
                            if exemplar.is_some() {
                                *slot = exemplar;
                            }
                        }
                    }
                }
            }
        }
    }

    /// A point-in-time copy of every family and series, for the exporters.
    pub(crate) fn snapshot(&self) -> Vec<FamilySnapshot> {
        let inner = self.inner.lock().expect("registry poisoned");
        inner
            .iter()
            .map(|(name, family)| FamilySnapshot {
                name: name.clone(),
                kind: family.kind,
                help: family.help.clone(),
                series: family
                    .series
                    .iter()
                    .map(|(labels, series)| SeriesSnapshot {
                        labels: labels.clone(),
                        value: match series {
                            Series::Counter(c) => SeriesValue::Counter(c.load(Ordering::Relaxed)),
                            Series::Gauge(g) => {
                                SeriesValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                            }
                            Series::Histogram(h) => SeriesValue::Histogram {
                                bounds: h.bounds.to_vec(),
                                buckets: h
                                    .buckets
                                    .iter()
                                    .map(|b| b.load(Ordering::Relaxed))
                                    .collect(),
                                sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                                count: h.count.load(Ordering::Relaxed),
                                exemplars: h.exemplars.lock().expect("exemplars poisoned").to_vec(),
                            },
                        },
                    })
                    .collect(),
            })
            .collect()
    }
}

impl Series {
    fn clone_handle(&self) -> Series {
        match self {
            Series::Counter(c) => Series::Counter(Arc::clone(c)),
            Series::Gauge(g) => Series::Gauge(Arc::clone(g)),
            Series::Histogram(h) => Series::Histogram(Arc::clone(h)),
        }
    }
}

#[derive(Debug)]
pub(crate) struct FamilySnapshot {
    pub(crate) name: String,
    pub(crate) kind: Kind,
    pub(crate) help: String,
    pub(crate) series: Vec<SeriesSnapshot>,
}

#[derive(Debug)]
pub(crate) struct SeriesSnapshot {
    pub(crate) labels: Vec<(String, String)>,
    pub(crate) value: SeriesValue,
}

#[derive(Debug)]
pub(crate) enum SeriesValue {
    Counter(u64),
    Gauge(f64),
    Histogram {
        bounds: Vec<f64>,
        buckets: Vec<u64>,
        sum: f64,
        count: u64,
        /// One optional `(trace_id, value)` exemplar per bucket.
        exemplars: Vec<Option<(String, f64)>>,
    },
}

fn validate_name(name: &str) {
    let mut chars = name.chars();
    let ok = matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    assert!(ok, "invalid metric name {name:?}");
}

fn validate_label(metric: &str, label: &str) {
    let mut chars = label.chars();
    let ok = matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
    assert!(
        ok && label != "le",
        "invalid label name {label:?} on {metric}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_clones() {
        let reg = Registry::new();
        let a = reg.counter("t_total", "help", &[]);
        let b = reg.counter("t_total", "help", &[]);
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn labels_create_distinct_series_order_insensitive() {
        let reg = Registry::new();
        let x = reg.counter("t_total", "h", &[("model", "a"), ("dev", "nx")]);
        let y = reg.counter("t_total", "h", &[("dev", "nx"), ("model", "a")]);
        let z = reg.counter("t_total", "h", &[("model", "b"), ("dev", "nx")]);
        x.inc();
        assert_eq!(y.get(), 1, "label order must not split a series");
        assert_eq!(z.get(), 0);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = Registry::new();
        let g = reg.gauge("g", "h", &[]);
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("h_us", "h", &[], &log_buckets(1.0, 2.0, 10));
        for v in [0.5, 3.0, 3.0, 100.0, 1e9] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - (0.5 + 3.0 + 3.0 + 100.0 + 1e9)).abs() < 1.0);
        assert_eq!(h.quantile(0.5), 4.0, "two 3.0s land in the (2,4] bucket");
        // 1e9 overflows the last finite bound (512) and reports it.
        assert_eq!(h.quantile(1.0), 512.0);
        assert!(reg.histogram("h_us", "h", &[], &[1.0]).quantile(0.5) == 4.0);
    }

    #[test]
    fn exemplar_lands_in_the_observed_bucket_latest_wins() {
        let reg = Registry::new();
        let h = reg.histogram("h_us", "h", &[], &log_buckets(1.0, 2.0, 4));
        h.observe_with_exemplar(3.0, "aaaa");
        h.observe_with_exemplar(3.5, "bbbb");
        h.observe(100.0); // plain observe never writes an exemplar
        assert_eq!(h.count(), 3);
        let slots = h.0.exemplars.lock().unwrap();
        // 3.0 and 3.5 land in the (2,4] bucket (index 2); latest wins.
        assert_eq!(slots[2], Some(("bbbb".to_string(), 3.5)));
        assert!(slots.iter().enumerate().all(|(i, s)| i == 2 || s.is_none()));
    }

    #[test]
    fn absorb_adds_counters_and_histograms_and_takes_gauges() {
        let into = Registry::new();
        into.counter("c_total", "h", &[("model", "a")]).add(2);
        into.gauge("g", "h", &[]).set(1.0);
        let h = into.histogram("h_us", "h", &[], &log_buckets(1.0, 2.0, 4));
        h.observe(3.0);

        let from = Registry::new();
        from.counter("c_total", "h", &[("model", "a")]).add(5);
        from.counter("c_total", "h", &[("model", "b")]).add(1);
        from.gauge("g", "h", &[]).set(7.5);
        let fh = from.histogram("h_us", "h", &[], &log_buckets(1.0, 2.0, 4));
        fh.observe(3.5);
        fh.observe_with_exemplar(100.0, "beef");
        from.counter("new_total", "only in from", &[]).add(4);

        into.absorb(&from);
        assert_eq!(into.counter("c_total", "h", &[("model", "a")]).get(), 7);
        assert_eq!(into.counter("c_total", "h", &[("model", "b")]).get(), 1);
        assert_eq!(into.counter("new_total", "h", &[]).get(), 4);
        assert_eq!(into.gauge("g", "h", &[]).get(), 7.5);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 3.0 + 3.5 + 100.0);
        assert_eq!(h.quantile(0.5), 4.0, "3.0 and 3.5 share the (2,4] bucket");
        let slots = h.0.exemplars.lock().unwrap();
        assert_eq!(slots[4], Some(("beef".to_string(), 100.0)));
        // The source is read, never drained.
        assert_eq!(from.counter("c_total", "h", &[("model", "a")]).get(), 5);
    }

    #[test]
    #[should_panic(expected = "absorbed bounds differ")]
    fn absorb_rejects_mismatched_histogram_bounds() {
        let into = Registry::new();
        into.histogram("h_us", "h", &[], &[1.0, 2.0]);
        let from = Registry::new();
        from.histogram("h_us", "h", &[], &[1.0, 4.0]);
        into.absorb(&from);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("m", "h", &[]);
        reg.gauge("m", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        Registry::new().counter("9bad", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn reserved_le_label_panics() {
        Registry::new().counter("m_total", "h", &[("le", "1")]);
    }

    #[test]
    fn log_buckets_shape() {
        assert_eq!(log_buckets(1.0, 2.0, 4), vec![1.0, 2.0, 4.0, 8.0]);
    }
}
