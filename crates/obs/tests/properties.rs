//! Property tests for the observability types: snapshots must carry back
//! exactly what was recorded, sorted by key, and histogram percentiles
//! must be sound bucket upper bounds of the recorded multiset.

use mcn_obs::{bucket_index, bucket_upper, Histogram, MetricsRegistry};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NAMES: [&str; 6] = [
    "storage.logical_reads",
    "storage.buffer_hits",
    "prep.cache.hits",
    "engine.latency_ns",
    "queries",
    "io.physical_reads",
];
const LABEL_KEYS: [&str; 3] = ["tier", "region", "worker"];
const LABEL_VALS: [&str; 4] = ["skyline", "topk", "r0", "w1"];

fn labels_from(picks: &[(u8, u8)]) -> Vec<(String, String)> {
    let mut labels: Vec<(String, String)> = picks
        .iter()
        .map(|&(k, v)| {
            (
                LABEL_KEYS[k as usize % LABEL_KEYS.len()].to_string(),
                LABEL_VALS[v as usize % LABEL_VALS.len()].to_string(),
            )
        })
        .collect();
    labels.sort();
    labels.dedup_by(|a, b| a.0 == b.0);
    labels
}

proptest! {
    /// A histogram snapshot merged into an empty histogram snapshots back
    /// to itself, and the stored percentiles are upper bounds of the true
    /// order statistics.
    #[test]
    fn histogram_snapshot_round_trip_and_percentile_bounds(
        values in proptest::collection::vec(any::<u64>(), 0..200),
        label_picks in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot("lat", labels_from(&label_picks));

        // Round trip: merge(empty, snapshot(h)) snapshots to snapshot(h).
        let back = Histogram::new();
        back.merge(&snap);
        prop_assert_eq!(&back.snapshot("lat", snap.labels.clone()), &snap);

        // Structural invariants.
        prop_assert_eq!(snap.count, values.len() as u64);
        let bucket_total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, snap.count);
        prop_assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);

        if values.is_empty() {
            prop_assert_eq!((snap.p50, snap.p95, snap.p99), (0, 0, 0));
        } else {
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for (q, got) in [(0.50, snap.p50), (0.95, snap.p95), (0.99, snap.p99)] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let actual = sorted[rank - 1];
                // Reported value is the log2 bucket upper bound of the true
                // order statistic, clamped to the observed max.
                let expect = bucket_upper(bucket_index(actual)).min(*sorted.last().unwrap());
                prop_assert_eq!(got, expect);
                prop_assert!(got >= actual);
            }
            prop_assert_eq!(snap.max, *sorted.last().unwrap());
            prop_assert_eq!(snap.min, sorted[0]);
        }
    }

    /// A full registry snapshot (counters + gauges + histograms) reads
    /// back the last value set through every handle, each section sorted
    /// by `(name, labels)`.
    #[test]
    fn metrics_snapshot_round_trip(
        counters in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3), any::<u64>()),
            0..8,
        ),
        gauges in proptest::collection::vec((any::<u8>(), 0.0f64..1e12), 0..4),
        hist_values in proptest::collection::vec(0u64..1_000_000, 0..50),
    ) {
        let reg = MetricsRegistry::new();
        for (pick, label_picks, value) in &counters {
            let labels = labels_from(label_picks);
            let l: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            reg.counter(NAMES[*pick as usize % NAMES.len()], &l).set(*value);
        }
        for (pick, value) in &gauges {
            reg.gauge(NAMES[*pick as usize % NAMES.len()], &[]).set(*value);
        }
        let h = reg.histogram("latency", &[("tier", "skyline")]);
        for &v in &hist_values {
            h.record(v);
        }

        // Expected sections: the last value set per key, in key order.
        let mut want_counters = BTreeMap::new();
        for (pick, label_picks, value) in &counters {
            let name = NAMES[*pick as usize % NAMES.len()].to_string();
            want_counters.insert((name, labels_from(label_picks)), *value);
        }
        let mut want_gauges = BTreeMap::new();
        for (pick, value) in &gauges {
            want_gauges.insert(NAMES[*pick as usize % NAMES.len()].to_string(), *value);
        }

        let snap = reg.snapshot();
        let got_counters: Vec<_> = snap
            .counters
            .iter()
            .map(|c| ((c.name.clone(), c.labels.clone()), c.value))
            .collect();
        prop_assert_eq!(got_counters, want_counters.into_iter().collect::<Vec<_>>());
        let got_gauges: Vec<_> = snap.gauges.iter().map(|g| (g.name.clone(), g.value)).collect();
        prop_assert_eq!(got_gauges, want_gauges.into_iter().collect::<Vec<_>>());
        let lat = snap.histogram("latency", &[("tier", "skyline")]).unwrap();
        prop_assert_eq!(lat.count, hist_values.len() as u64);
    }
}
