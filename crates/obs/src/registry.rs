//! Named metrics registry: counters, gauges, and histograms keyed by
//! `(name, sorted labels)`.
//!
//! The registry itself is lock-striped by metric name, but the stripes
//! are only touched at *registration* time: `counter()` / `gauge()` /
//! `histogram()` hand back `Arc`-shared atomic handles, so hot loops
//! record through a plain `fetch_add` with no shared-lock traffic.
//! Snapshots lock one stripe at a time (never two at once — no new
//! lock nesting) and emit metrics sorted by key, so a snapshot is
//! deterministic for a given set of values.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::hist::{Histogram, HistogramSnapshot};

const SHARDS: usize = 8;

/// Identity of a metric: name plus label pairs sorted by label key.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }
}

/// Monotonic (or snapshot-published) `u64` metric handle. Cloning shares
/// the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Publish an absolute value (used when mirroring an externally
    /// maintained counter such as `IoStats`).
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::SeqCst);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Instantaneous `f64` metric handle (value stored as IEEE-754 bits).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::SeqCst);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::SeqCst))
    }
}

#[derive(Default)]
struct Shard {
    counters: BTreeMap<MetricKey, Counter>,
    gauges: BTreeMap<MetricKey, Gauge>,
    histograms: BTreeMap<MetricKey, Arc<Histogram>>,
}

/// Lock-striped metric registry. See module docs for the locking story.
pub struct MetricsRegistry {
    shards: Vec<Mutex<Shard>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<Shard> {
        // FNV-1a over the name: deterministic, no RandomState.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Get or create the counter for `(name, labels)`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut shard = self.shard(name).lock();
        shard.counters.entry(key).or_default().clone()
    }

    /// Get or create the gauge for `(name, labels)`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut shard = self.shard(name).lock();
        shard.gauges.entry(key).or_default().clone()
    }

    /// Get or create the histogram for `(name, labels)`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        let mut shard = self.shard(name).lock();
        shard
            .histograms
            .entry(key)
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Fold a histogram snapshot into the registry-owned histogram of the
    /// same name/labels.
    pub fn merge_histogram(&self, snap: &HistogramSnapshot) {
        let labels: Vec<(&str, &str)> = snap
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        self.histogram(&snap.name, &labels).merge(snap);
    }

    /// Point-in-time view of every registered metric, sorted by key.
    ///
    /// Stripes are locked one at a time; values written by the calling
    /// thread (e.g. a `publish` immediately before) are always visible.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for stripe in &self.shards {
            let shard = stripe.lock();
            for (key, c) in &shard.counters {
                counters.push(CounterSnapshot {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value: c.get(),
                });
            }
            for (key, g) in &shard.gauges {
                gauges.push(GaugeSnapshot {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value: g.get(),
                });
            }
            for (key, h) in &shard.histograms {
                histograms.push(h.snapshot(key.name.clone(), key.labels.clone()));
            }
        }
        counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        gauges.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        histograms.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter in a snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSnapshot {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: u64,
}

/// One gauge in a snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GaugeSnapshot {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// Point-in-time view of a whole registry, each section sorted by
/// `(name, labels)` — deterministic for a given set of metric values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter matching `name` and all of `labels` (labels in
    /// any order), if present.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && labels_match(&c.labels, labels))
            .map(|c| c.value)
    }

    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && labels_match(&g.labels, labels))
            .map(|g| g.value)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && labels_match(&h.labels, labels))
    }
}

fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && want
            .iter()
            .all(|(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_and_snapshot_sorts() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("z.metric", &[("tier", "topk")]);
        let b = reg.counter("z.metric", &[("tier", "topk")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        reg.counter("a.metric", &[]).set(7);
        reg.gauge("ratio", &[]).set(0.5);
        reg.histogram("lat", &[("tier", "skyline")]).record(42);

        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counters[0].name, "a.metric");
        assert_eq!(snap.counters[1].name, "z.metric");
        assert_eq!(snap.counter_value("z.metric", &[("tier", "topk")]), Some(3));
        assert_eq!(snap.counter_value("a.metric", &[]), Some(7));
        assert_eq!(snap.counter_value("missing", &[]), None);
        assert_eq!(snap.gauge_value("ratio", &[]), Some(0.5));
        let h = snap.histogram("lat", &[("tier", "skyline")]).unwrap();
        assert_eq!(h.count, 1);
    }

    #[test]
    fn labels_are_order_insensitive() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("m", &[("x", "1"), ("y", "2")]);
        let b = reg.counter("m", &[("y", "2"), ("x", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("m", &[("y", "2"), ("x", "1")]), Some(1));
    }

    #[test]
    fn merge_histogram_accumulates_into_registry() {
        let reg = MetricsRegistry::new();
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        let snap = h.snapshot("lat", vec![("tier".into(), "alpha-path".into())]);
        reg.merge_histogram(&snap);
        reg.merge_histogram(&snap);
        let out = reg.snapshot();
        let merged = out.histogram("lat", &[("tier", "alpha-path")]).unwrap();
        assert_eq!(merged.count, 4);
        assert_eq!(merged.sum, 60);
    }
}
