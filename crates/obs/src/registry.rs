//! The metric [`Registry`]: named handles plus deterministic human and
//! JSON export.
//!
//! A registry is a cheap clonable handle (`Arc` inside); every pipeline
//! stage that takes "an optional registry" receives a clone and
//! registers its metrics by name. Names are dotted paths
//! (`stream.shard0.requests`), exported in lexicographic order so two
//! exports of the same state are byte-identical — the property
//! `tests::json_export_is_deterministic_and_tagged` checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::timer::SpanTimer;

/// The kind of a registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count.
    Counter,
    /// Settable level.
    Gauge,
    /// Sample distribution.
    Histogram,
    /// Duration distribution (nanoseconds).
    Span,
}

impl MetricKind {
    /// Lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Span => "span",
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Span(SpanTimer),
}

impl Metric {
    fn value(&self) -> MetricValue {
        match self {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            Metric::Span(s) => MetricValue::Span(s.snapshot()),
        }
    }
}

/// Point-in-time value of one registered metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(u64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
    /// Span-duration summary (nanoseconds).
    Span(HistogramSnapshot),
}

impl MetricValue {
    /// The kind of metric this value came from.
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
            MetricValue::Span(_) => MetricKind::Span,
        }
    }
}

/// One row of a [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: MetricValue,
}

impl MetricSample {
    /// The scalar for counters/gauges, the sample count for
    /// histograms/spans — the number reconciliation gates compare.
    pub fn scalar(&self) -> u64 {
        match self.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
            MetricValue::Histogram(h) | MetricValue::Span(h) => h.count,
        }
    }
}

/// A named-metric registry with deterministic export. See the
/// [module docs](self).
///
/// MERGEABLE: registries merge name-wise under [`merge`] — each metric
/// folds into the same-named metric of the same kind using its own
/// merge law (counters add, gauges take the max, histograms and spans
/// add buckets; an empty registry is the identity) — so per-worker
/// registries combine into one fleet-wide registry in any grouping
/// order.
///
/// [`merge`]: Registry::merge
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T, F, G>(&self, name: &str, make: F, extract: G) -> T
    where
        T: Clone + Default,
        F: FnOnce(T) -> Metric,
        G: Fn(&Metric) -> Option<T>,
    {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = metrics.get(name) {
            if let Some(handle) = extract(existing) {
                return handle;
            }
            // Same name, different kind: hand back a detached metric so
            // the caller stays functional; the registered one keeps its
            // original kind. (Registering the same name twice with
            // different kinds is a caller bug, but never a panic.)
            return T::default();
        }
        let handle = T::default();
        metrics.insert(name.to_owned(), make(handle.clone()));
        handle
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use. If `name` is already registered as a different kind,
    /// a detached (unregistered) counter is returned.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(name, Metric::Counter, |m| match m {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        })
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use (same collision rule as [`counter`](Registry::counter)).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(name, Metric::Gauge, |m| match m {
            Metric::Gauge(g) => Some(g.clone()),
            _ => None,
        })
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use (same collision rule as [`counter`](Registry::counter)).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_insert(name, Metric::Histogram, |m| match m {
            Metric::Histogram(h) => Some(h.clone()),
            _ => None,
        })
    }

    /// Returns the span timer registered under `name`, creating it on
    /// first use (same collision rule as [`counter`](Registry::counter)).
    pub fn span(&self, name: &str) -> SpanTimer {
        self.get_or_insert(name, Metric::Span, |m| match m {
            Metric::Span(s) => Some(s.clone()),
            _ => None,
        })
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time values of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSample> {
        self.metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, metric)| MetricSample {
                name: name.clone(),
                value: metric.value(),
            })
            .collect()
    }

    /// JSON export: one object keyed by metric name, values tagged with
    /// their kind. Deterministic — equal states render byte-identically.
    ///
    /// ```json
    /// {"decode.records":{"type":"counter","value":8192}}
    /// ```
    #[expect(
        clippy::let_underscore_must_use,
        reason = "writing to a String cannot fail"
    )]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, sample) in self.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json_into(&sample.name, &mut out);
            out.push_str("\":");
            match sample.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{v}}}");
                }
                MetricValue::Histogram(h) => render_summary_json(&mut out, "histogram", &h),
                MetricValue::Span(h) => render_summary_json(&mut out, "span", &h),
            }
        }
        out.push('}');
        out
    }

    /// Folds every metric of `other` into this registry by name.
    ///
    /// Metrics absent here are created; present ones combine with
    /// their kind's merge law (counter totals add, gauge levels take
    /// the max, histogram/span buckets add). A name registered here
    /// with a *different* kind keeps its kind and ignores the other
    /// side — the same never-panic collision rule as
    /// [`counter`](Registry::counter). `other` is read, not drained —
    /// merge each partial exactly once; merging a registry with itself
    /// (or a clone sharing the same store) is a no-op rather than a
    /// double-count.
    pub fn merge(&self, other: &Registry) {
        if Arc::ptr_eq(&self.metrics, &other.metrics) {
            return;
        }
        // Clone the handles out first so the two locks are never held
        // at once (a merge in each direction on two threads would
        // otherwise deadlock).
        let theirs: Vec<(String, Metric)> = other
            .metrics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, metric)| (name.clone(), metric.clone()))
            .collect();
        for (name, metric) in theirs {
            match metric {
                Metric::Counter(c) => self.counter(&name).merge(&c),
                Metric::Gauge(g) => self.gauge(&name).merge(&g),
                Metric::Histogram(h) => self.histogram(&name).merge(&h),
                Metric::Span(s) => self.span(&name).merge(&s),
            }
        }
    }

    /// Human-readable export: one aligned line per metric, sorted by
    /// name.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "writing to a String cannot fail"
    )]
    pub fn render(&self) -> String {
        let samples = self.snapshot();
        let width = samples.iter().map(|s| s.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for sample in &samples {
            let _ = write!(
                out,
                "{:width$}  {:9}  ",
                sample.name,
                sample.value.kind().as_str()
            );
            match sample.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{v}");
                }
                MetricValue::Histogram(h) | MetricValue::Span(h) => {
                    let _ = writeln!(
                        out,
                        "count={} sum={} min={} max={} p50={} p99={}",
                        h.count, h.sum, h.min, h.max, h.p50, h.p99
                    );
                }
            }
        }
        out
    }
}

#[expect(
    clippy::let_underscore_must_use,
    reason = "writing to a String cannot fail"
)]
fn render_summary_json(out: &mut String, kind: &str, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "{{\"type\":\"{kind}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
    );
}

/// Escapes `s` as JSON string content (quotes, backslashes, control
/// characters).
#[expect(
    clippy::let_underscore_must_use,
    reason = "writing to a String cannot fail"
)]
fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_state() {
        let r = Registry::new();
        r.counter("a.events").add(3);
        r.counter("a.events").add(4);
        assert_eq!(r.counter("a.events").get(), 7);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn kind_collision_returns_detached_handle() {
        let r = Registry::new();
        r.counter("x").add(5);
        let g = r.gauge("x"); // wrong kind for this name
        g.set(99);
        assert_eq!(r.counter("x").get(), 5, "registered counter untouched");
        assert_eq!(r.len(), 1);
        match &r.snapshot()[0].value {
            MetricValue::Counter(v) => assert_eq!(*v, 5),
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = Registry::new();
        r.gauge("b.level").set(2);
        r.counter("a.events").inc();
        r.span("c.took").record_nanos(10);
        r.histogram("d.sizes").record(4096);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a.events", "b.level", "c.took", "d.sizes"]);
        let scalars: Vec<u64> = snap.iter().map(MetricSample::scalar).collect();
        assert_eq!(scalars, vec![1, 2, 1, 1]);
    }

    #[test]
    fn json_export_is_deterministic_and_tagged() {
        let r = Registry::new();
        r.counter("decode.records").add(8192);
        r.gauge("stream.hwm").set(4);
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b, "equal state must render byte-identically");
        assert!(a.contains("\"decode.records\":{\"type\":\"counter\",\"value\":8192}"));
        assert!(a.contains("\"stream.hwm\":{\"type\":\"gauge\",\"value\":4}"));
        assert!(a.starts_with('{') && a.ends_with('}'));
    }

    #[test]
    fn empty_registry_renders_empty() {
        let r = Registry::new();
        assert!(r.is_empty());
        assert_eq!(r.to_json(), "{}");
        assert_eq!(r.render(), "");
    }

    #[test]
    fn json_escapes_names() {
        let r = Registry::new();
        r.counter("weird\"name\\with\nstuff").inc();
        let json = r.to_json();
        assert!(json.contains("weird\\\"name\\\\with\\nstuff"), "{json}");
    }

    #[test]
    fn render_lists_every_metric() {
        let r = Registry::new();
        r.counter("a").add(1);
        r.span("b").record_nanos(100);
        let text = r.render();
        assert!(text.contains("counter"), "{text}");
        assert!(text.contains("span"), "{text}");
        assert!(text.contains("count=1"), "{text}");
    }

    #[test]
    fn clones_share_the_same_store() {
        let r = Registry::new();
        let clone = r.clone();
        clone.counter("shared").add(2);
        assert_eq!(r.counter("shared").get(), 2);
    }
}
