//! The metrics registry: named, labeled metrics with point-in-time snapshots.
//!
//! Registration (name → shared atomic core) takes a mutex, but it happens
//! once per metric at construction time; the [`Counter`]/[`Gauge`]/
//! [`Histogram`] handles it returns record lock-free ever after. Metric
//! identity is `(name, labels)`: the name comes from the stable taxonomy
//! in [`crate::names`], per-instance dimensions (the owning service or
//! gateway, shard index, tenant) go in labels. [`Registry::instance`]
//! numbers the services and gateways that share one registry, so each
//! owns its own series.
//!
//! [`RegistrySnapshot`] is an ordered point-in-time copy with one
//! rendering: Prometheus-style exposition text
//! ([`RegistrySnapshot::to_prometheus`]).

use crate::hist::HistogramCore;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::HistogramSnapshot;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A metric's identity: taxonomy name plus ordered `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Taxonomy name, e.g. `service.shard.steps`.
    pub name: String,
    /// The ordered label pairs as the exposition text writes them between
    /// the braces, values escaped, e.g. `service="0",shard="2"`: one string
    /// per metric, where a `Vec` of owned pairs took five allocations and
    /// about five times the bytes.
    pub labels: String,
}

impl MetricKey {
    /// Build a key from a name and label pairs.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let labels = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_prometheus_label(v)))
            .collect::<Vec<_>>()
            .join(",");
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{{}}}", self.labels)?;
        }
        Ok(())
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<HistogramCore>),
}

/// The shared metric store. Cheap to clone (`Arc` inside); all clones see
/// the same metrics.
#[derive(Clone)]
pub struct Registry {
    slots: Arc<Mutex<BTreeMap<MetricKey, Slot>>>,
    /// Instances handed out so far, per kind ([`Registry::instance`]).
    instances: Arc<Mutex<BTreeMap<String, u32>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            slots: Arc::new(Mutex::new_named(
                BTreeMap::new(),
                "telemetry.registry.slots",
            )),
            instances: Arc::new(Mutex::new_named(
                BTreeMap::new(),
                "telemetry.registry.instances",
            )),
        }
    }

    /// The label value of the next instance of `kind` (`"service"`,
    /// `"gateway"`) to register here: `"0"` for the first, then `"1"`, …
    /// An owner labels every metric it registers with `(kind, value)`, so
    /// two of them on one registry never share a series.
    pub fn instance(&self, kind: &str) -> String {
        let mut instances = self.instances.lock();
        let next = instances.entry(kind.to_string()).or_insert(0);
        *next += 1;
        (*next - 1).to_string()
    }

    fn slot<T>(
        &self,
        key: MetricKey,
        make: impl FnOnce() -> Slot,
        view: impl FnOnce(&Slot) -> Option<T>,
    ) -> T {
        let mut slots = self.slots.lock();
        let slot = slots.entry(key.clone()).or_insert_with(make);
        view(slot).unwrap_or_else(|| panic!("metric {key} registered with a different kind"))
    }

    /// The counter registered under `(name, labels)`, creating it at zero
    /// on first use. Panics if the key is registered as another kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.slot(
            MetricKey::new(name, labels),
            || Slot::Counter(Counter::new()),
            |s| match s {
                Slot::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// The gauge registered under `(name, labels)`, creating it at zero on
    /// first use. Panics if the key is registered as another kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.slot(
            MetricKey::new(name, labels),
            || Slot::Gauge(Gauge::new()),
            |s| match s {
                Slot::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// The histogram registered under `(name, labels)`, creating it empty
    /// on first use. Panics if the key is registered as another kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.slot(
            MetricKey::new(name, labels),
            || Slot::Histogram(Arc::new(HistogramCore::new())),
            |s| match s {
                Slot::Histogram(core) => Some(Histogram::active(Arc::clone(core))),
                _ => None,
            },
        )
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let slots = self.slots.lock();
        RegistrySnapshot {
            entries: slots
                .iter()
                .map(|(key, slot)| {
                    let value = match slot {
                        Slot::Counter(c) => MetricValue::Counter(c.get()),
                        Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                        Slot::Histogram(core) => MetricValue::Histogram(core.snapshot()),
                    };
                    (key.clone(), value)
                })
                .collect(),
        }
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.slots.lock().len();
        write!(f, "Registry({n} metrics)")
    }
}

/// A snapshot value: one of the three metric kinds.
// Snapshot values live on the cold exposition path and most entries in a
// detailed registry are histograms anyway, so boxing the large variant
// would add an allocation per entry without shrinking real snapshots.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram's buckets.
    Histogram(HistogramSnapshot),
}

/// An ordered point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Metric readings keyed by `(name, labels)`, in key order.
    pub entries: BTreeMap<MetricKey, MetricValue>,
}

impl RegistrySnapshot {
    /// The reading under `(name, labels)`, if present.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.entries.get(&MetricKey::new(name, labels))
    }

    /// The counter reading under `(name, labels)` (0 when absent).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The gauge reading under `(name, labels)` (0 when absent).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        match self.get(name, labels) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram under `(name, labels)` (empty when absent).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
        match self.get(name, labels) {
            Some(MetricValue::Histogram(h)) => *h,
            _ => HistogramSnapshot::default(),
        }
    }

    /// The merged histogram across every labeled instance of `name`
    /// (bucket-wise sum; empty when none exist).
    pub fn histogram_across_labels(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (key, value) in &self.entries {
            if key.name == name {
                if let MetricValue::Histogram(h) = value {
                    merged.merge(h);
                }
            }
        }
        merged
    }

    /// The summed counter across every labeled instance of `name`.
    pub fn counter_across_labels(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(key, _)| key.name == name)
            .map(|(_, value)| match value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Prometheus-style exposition text: dots in names become underscores,
    /// histograms expand to `_count`/`_sum` plus cumulative `_bucket{le=…}`
    /// series on the log2 bucket upper edges. Label values are escaped per
    /// the Prometheus text format (backslash, double quote and newline),
    /// which is *not* JSON escaping.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.entries {
            let name = key.name.replace('.', "_");
            let labels = |extra: Option<(&str, String)>| -> String {
                let mut pairs = key.labels.clone();
                if let Some((k, v)) = extra {
                    if !pairs.is_empty() {
                        pairs.push(',');
                    }
                    pairs.push_str(&format!("{k}=\"{v}\""));
                }
                if pairs.is_empty() {
                    String::new()
                } else {
                    format!("{{{pairs}}}")
                }
            };
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{name}{} {v}\n", labels(None)));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{name}{} {v}\n", labels(None)));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, &n) in h.buckets().iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cumulative += n;
                        let le = if i + 1 < crate::hist::NUM_BUCKETS {
                            crate::hist::bucket_lower_bound(i + 1).to_string()
                        } else {
                            "+Inf".to_string()
                        };
                        out.push_str(&format!(
                            "{name}_bucket{} {cumulative}\n",
                            labels(Some(("le", le)))
                        ));
                    }
                    out.push_str(&format!("{name}_count{} {}\n", labels(None), h.count()));
                    out.push_str(&format!("{name}_sum{} {}\n", labels(None), h.sum()));
                }
            }
        }
        out
    }
}

/// Escape a label value per the Prometheus text exposition format: only
/// backslash, double-quote and line feed are escaped (`\\`, `\"`, `\n`);
/// every other byte — including tabs and other control characters — passes
/// through verbatim. This is deliberately *not* JSON escaping: JSON's
/// `\t`/`\r`/`\uXXXX` sequences are invalid in Prometheus label values and
/// make scrapers reject the whole exposition.
fn escape_prometheus_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_core_different_kind_panics() {
        let reg = Registry::new();
        let a = reg.counter("x.count", &[("shard", "0")]);
        let b = reg.counter("x.count", &[("shard", "0")]);
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        let other = reg.counter("x.count", &[("shard", "1")]);
        assert_eq!(other.get(), 0);
        assert!(std::panic::catch_unwind(|| reg.gauge("x.count", &[("shard", "0")])).is_err());
    }

    #[test]
    fn instances_are_numbered_per_kind_and_per_registry() {
        let reg = Registry::new();
        assert_eq!(reg.instance("service"), "0");
        assert_eq!(reg.instance("gateway"), "0");
        assert_eq!(reg.instance("service"), "1");
        assert_eq!(reg.clone().instance("service"), "2", "clones share");
        assert_eq!(Registry::new().instance("service"), "0");
    }

    #[test]
    fn prometheus_label_escaping_is_text_format_not_json() {
        let reg = Registry::new();
        // Hostile label values: backslash, double-quote, newline, tab.
        reg.counter("evil.count", &[("tenant", "a\\b\"c\nd\te")])
            .add(1);
        let prom = reg.snapshot().to_prometheus();
        // Prometheus text format: \\ , \" , \n escaped; tab passes raw.
        assert!(
            prom.contains("evil_count{tenant=\"a\\\\b\\\"c\\nd\te\"} 1"),
            "bad exposition: {prom:?}"
        );
        // JSON-only sequences must not appear.
        assert!(!prom.contains("\\t"), "JSON tab escape leaked: {prom:?}");
        assert!(!prom.contains("\\u"), "JSON \\u escape leaked: {prom:?}");
        // The escaped newline keeps the sample on one physical line.
        let line = prom
            .lines()
            .find(|l| l.starts_with("evil_count"))
            .expect("sample rendered");
        assert!(line.ends_with(" 1"));
    }

    #[test]
    fn exposition_covers_all_kinds() {
        let reg = Registry::new();
        reg.counter("svc.steps", &[("shard", "0")]).add(10);
        reg.gauge("svc.lag", &[]).set(2);
        reg.histogram("svc.lat_ns", &[]).record(100);
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("svc_steps{shard=\"0\"} 10"));
        assert!(prom.contains("svc_lag 2"));
        assert!(
            prom.contains("svc_lat_ns_bucket{le=\"128\"} 1"),
            "100 sits in [64,128)"
        );
        assert!(prom.contains("svc_lat_ns_count 1"));
        assert!(prom.contains("svc_lat_ns_sum 100"));
    }
}
