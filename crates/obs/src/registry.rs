//! The sharded name → metric registry and the process-global instance.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::metrics::{Counter, Gauge, MetricName};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Shards in the registry. Registration is rare (cold, cached by call
/// sites) but snapshots walk every shard; 16 keeps both cheap.
const SHARDS: usize = 16;

/// FNV-1a over a name — the deterministic shard hash (std's
/// `RandomState` would randomise layout per process, making load
/// investigations unrepeatable).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A get-or-register table of named metrics, sharded by FNV-1a of the
/// full name so concurrent registration from many threads rarely
/// contends. Lookups take a shard read lock; recording through the
/// returned [`Arc`] handles takes no lock at all.
#[derive(Debug, Default)]
pub struct Registry {
    shards: [RwLock<HashMap<String, Metric>>; SHARDS],
    /// Bumped on every registration, so `serial()` cheaply tells a
    /// renderer whether the metric set changed.
    registrations: AtomicU64,
}

impl Registry {
    /// An empty registry (tests; production code uses [`global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Metric>> {
        &self.shards[(fnv1a(name.as_bytes()) as usize) % SHARDS]
    }

    /// Validation happens **before** the shard write lock is taken: a
    /// malformed name must return an error without poisoning the shard
    /// for every later registration and snapshot hashing to it.
    fn try_get_or_insert(
        &self,
        name: &str,
        make: impl FnOnce(MetricName) -> Metric,
    ) -> Result<Metric, String> {
        let shard = self.shard(name);
        if let Some(m) = shard.read().expect("registry shard").get(name) {
            return Ok(m.clone());
        }
        let parsed = MetricName::try_parse(name)?;
        let mut w = shard.write().expect("registry shard");
        Ok(w.entry(name.to_owned())
            .or_insert_with(|| {
                self.registrations.fetch_add(1, Ordering::Relaxed);
                make(parsed)
            })
            .clone())
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type, or is not a valid metric name. Untrusted names go through
    /// [`Registry::try_counter`] instead.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.try_counter(name) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`Registry::counter`], but invalid names and type conflicts
    /// come back as errors — the ingest path feeds this client input.
    ///
    /// # Errors
    ///
    /// `name` is malformed or already registered as another type.
    pub fn try_counter(&self, name: &str) -> Result<Arc<Counter>, String> {
        match self.try_get_or_insert(name, |n| Metric::Counter(Arc::new(Counter::new(n))))? {
            Metric::Counter(c) => Ok(c),
            other => Err(format!(
                "{name:?} is registered as a {}, not a counter",
                other.kind()
            )),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.try_gauge(name) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`Registry::gauge`], but fallible; see [`Registry::try_counter`].
    ///
    /// # Errors
    ///
    /// `name` is malformed or already registered as another type.
    pub fn try_gauge(&self, name: &str) -> Result<Arc<Gauge>, String> {
        match self.try_get_or_insert(name, |n| Metric::Gauge(Arc::new(Gauge::new(n))))? {
            Metric::Gauge(g) => Ok(g),
            other => Err(format!(
                "{name:?} is registered as a {}, not a gauge",
                other.kind()
            )),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.try_histogram(name) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`Registry::histogram`], but fallible; see
    /// [`Registry::try_counter`].
    ///
    /// # Errors
    ///
    /// `name` is malformed or already registered as another type.
    pub fn try_histogram(&self, name: &str) -> Result<Arc<Histogram>, String> {
        match self.try_get_or_insert(name, |n| Metric::Histogram(Arc::new(Histogram::new(n))))? {
            Metric::Histogram(h) => Ok(h),
            other => Err(format!(
                "{name:?} is registered as a {}, not a histogram",
                other.kind()
            )),
        }
    }

    /// Whether `name` is already registered (as any metric type).
    pub fn contains(&self, name: &str) -> bool {
        self.shard(name)
            .read()
            .expect("registry shard")
            .contains_key(name)
    }

    /// Metrics registered so far (monotone; cheap).
    pub fn serial(&self) -> u64 {
        self.registrations.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every registered metric, sorted by full
    /// name. Recording continues concurrently; each value is itself
    /// consistent (see [`Histogram::snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in &self.shards {
            for (name, metric) in shard.read().expect("registry shard").iter() {
                match metric {
                    Metric::Counter(c) => counters.push((name.clone(), c.get())),
                    Metric::Gauge(g) => gauges.push((name.clone(), g.get())),
                    Metric::Histogram(h) => histograms.push((name.clone(), h.snapshot())),
                }
            }
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-global registry every instrumented crate records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// [`Registry::counter`] on the [`global`] registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// [`Registry::gauge`] on the [`global`] registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// [`Registry::histogram`] on the [`global`] registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// A frozen view of a registry: every metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(full name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(full name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(full name, frozen buckets)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The frozen histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Sum of all counters in `family` across label sets (e.g. every
    /// `audit_verdicts_total{outcome=…}` variant).
    pub fn counter_family(&self, family: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| {
                n == family || n.starts_with(family) && n[family.len()..].starts_with('{')
            })
            .map(|&(_, v)| v)
            .sum()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot in the Prometheus text exposition format —
    /// see [`crate::expose`].
    pub fn render_prometheus(&self) -> String {
        crate::expose::render_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_the_same_cell() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(r.serial(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as a counter, not a gauge")]
    fn type_conflicts_panic() {
        let r = Registry::new();
        let _ = r.counter("x_total");
        let _ = r.gauge("x_total");
    }

    #[test]
    fn fallible_registration_reports_conflicts_and_bad_names() {
        let r = Registry::new();
        let _ = r.counter("x_total");
        assert!(r.try_gauge("x_total").is_err(), "type conflict is an Err");
        assert!(r.try_counter("x_total").is_ok());
        assert!(r.try_counter("bad name").is_err());
        assert!(r.contains("x_total"));
        assert!(!r.contains("bad name"));
        // A rejected name must not poison its shard: later
        // registration and snapshotting still work everywhere.
        assert!(r.try_counter("fine_total").is_ok());
        assert_eq!(r.snapshot().counters.len(), 2);
        assert_eq!(r.serial(), 2, "rejected names never register");
    }

    #[test]
    fn snapshot_sorts_and_looks_up() {
        let r = Registry::new();
        let _ = r.counter("b_total");
        let _ = r.counter("a_total");
        let _ = r.gauge("depth");
        let _ = r.histogram("lat_us");
        let s = r.snapshot();
        assert_eq!(
            s.counters
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            ["a_total", "b_total"]
        );
        assert_eq!(s.counter("a_total"), Some(0));
        assert_eq!(s.gauge("depth"), Some(0));
        assert!(s.histogram("lat_us").is_some());
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn counter_family_sums_label_variants() {
        let r = Registry::new();
        // Values stay 0 while disabled — family membership is what's
        // under test here.
        let _ = r.counter("v_total{outcome=\"accept\"}");
        let _ = r.counter("v_total{outcome=\"reject\"}");
        let _ = r.counter("v_total_other");
        let s = r.snapshot();
        assert_eq!(s.counter_family("v_total"), 0);
        assert_eq!(s.counters.len(), 3, "label variants register independently");
    }
}
