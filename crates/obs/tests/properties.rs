//! Property tests for the observability types: snapshots must carry back
//! exactly what was recorded, sorted by key.

use mcn_obs::MetricsRegistry;
use proptest::prelude::*;
use std::collections::BTreeMap;

const NAMES: [&str; 6] = [
    "storage.logical_reads",
    "storage.buffer_hits",
    "prep.cache.hits",
    "engine.batches",
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
    /// A full registry snapshot (counters + gauges) reads back the last
    /// value set through every handle, each section sorted by
    /// `(name, labels)`.
    #[test]
    fn metrics_snapshot_round_trip(
        counters in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3), any::<u64>()),
            0..8,
        ),
        gauges in proptest::collection::vec((any::<u8>(), 0.0f64..1e12), 0..4),
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
    }
}
