//! Running and measuring one experiment data point.

use mcn_core::prelude::*;
use mcn_gen::{generate_workload, WorkloadSpec};
use mcn_storage::{BufferConfig, MCNStore};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which preference query an experiment measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryKind {
    /// MCN skyline queries (paper Section VI-A).
    Skyline,
    /// MCN top-k queries with the given `k` (paper Section VI-B).
    TopK(usize),
}

/// Aggregated measurements of one algorithm at one data point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AlgoMeasurement {
    /// Mean CPU (wall-clock) seconds per query.
    pub cpu_seconds: f64,
    /// Mean physical page reads per query.
    pub physical_reads: f64,
    /// Mean logical page requests per query.
    pub logical_reads: f64,
    /// Mean buffer hit ratio.
    pub hit_ratio: f64,
    /// Mean number of candidate facilities.
    pub candidates: f64,
    /// Mean number of pinned facilities.
    pub pinned: f64,
    /// Mean result size (skyline cardinality or `k`).
    pub result_size: f64,
    /// Mean nodes settled across the `d` expansions.
    pub nodes_settled: f64,
}

impl AlgoMeasurement {
    /// Charged time per query: CPU + physical reads × `latency` seconds.
    pub fn charged_seconds(&self, latency: f64) -> f64 {
        self.cpu_seconds + self.physical_reads * latency
    }

    fn accumulate(&mut self, stats: &QueryStats) {
        self.cpu_seconds += stats.elapsed.as_secs_f64();
        self.physical_reads += stats.io.buffer_misses as f64;
        self.logical_reads += stats.io.logical_reads as f64;
        self.hit_ratio += stats.io.hit_ratio();
        self.candidates += stats.candidates as f64;
        self.pinned += stats.pinned as f64;
        self.result_size += stats.result_size as f64;
        self.nodes_settled += stats.nodes_settled as f64;
    }

    fn finish(&mut self, queries: usize) {
        let n = queries.max(1) as f64;
        self.cpu_seconds /= n;
        self.physical_reads /= n;
        self.logical_reads /= n;
        self.hit_ratio /= n;
        self.candidates /= n;
        self.pinned /= n;
        self.result_size /= n;
        self.nodes_settled /= n;
    }
}

/// Measurements of all algorithms at one data point of a figure.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PointMeasurement {
    /// Label of the x-axis value (e.g. `"|P| = 2000"` or `"d = 3"`).
    pub label: String,
    /// LSA measurements.
    pub lsa: AlgoMeasurement,
    /// CEA measurements.
    pub cea: AlgoMeasurement,
    /// Number of queries averaged over.
    pub queries: usize,
}

impl PointMeasurement {
    /// Largest speedup ever reported: the ratio is capped here so that
    /// degenerate measurements (CEA charged time of zero) stay finite and
    /// JSON-safe instead of propagating `inf` into persisted reports.
    pub const MAX_SPEEDUP: f64 = 1e9;

    /// The LSA / CEA improvement factor on charged time (the paper's headline
    /// comparison, e.g. "CEA is 2.3 times faster").
    ///
    /// Always finite: two zero measurements compare as `1.0` (no advantage
    /// either way), and a zero CEA time against a non-zero LSA time reports
    /// [`PointMeasurement::MAX_SPEEDUP`].
    pub fn speedup(&self, latency: f64) -> f64 {
        let cea = self.cea.charged_seconds(latency);
        let lsa = self.lsa.charged_seconds(latency);
        // `charged_seconds` is exactly 0.0 for an unmeasured point.
        if cea == 0.0 {
            if lsa == 0.0 {
                1.0
            } else {
                Self::MAX_SPEEDUP
            }
        } else {
            (lsa / cea).min(Self::MAX_SPEEDUP)
        }
    }
}

/// Builds the workload described by `spec`, wraps it in a store with the given
/// buffer fraction, runs every query location with both LSA and CEA, and
/// returns the averaged measurements.
///
/// The buffer is cleared before every query so that queries are independent
/// (as in the paper, where each data point averages 100 independent queries).
pub fn measure_point(
    label: impl Into<String>,
    spec: &WorkloadSpec,
    buffer_fraction: f64,
    kind: QueryKind,
) -> PointMeasurement {
    let workload = generate_workload(spec);
    let store = Arc::new(
        MCNStore::build_in_memory(&workload.graph, BufferConfig::Fraction(buffer_fraction))
            .expect("workload store builds"),
    );
    let d = spec.cost_types;
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x00C0_FFEE);

    let mut lsa = AlgoMeasurement::default();
    let mut cea = AlgoMeasurement::default();
    for &q in &workload.queries {
        // Fresh, independent aggregate per query (random coefficients in [0,1]
        // as in the paper).
        let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
        for (algo, acc) in [(Algorithm::Lsa, &mut lsa), (Algorithm::Cea, &mut cea)] {
            store.buffer().clear();
            let stats = match kind {
                QueryKind::Skyline => skyline_query(&store, q, algo).stats,
                QueryKind::TopK(k) => {
                    topk_query(&store, q, WeightedSum::new(weights.clone()), k, algo).stats
                }
            };
            acc.accumulate(&stats);
        }
    }
    lsa.finish(workload.queries.len());
    cea.finish(workload.queries.len());
    PointMeasurement {
        label: label.into(),
        lsa,
        cea,
        queries: workload.queries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_gen::CostDistribution;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            nodes: 400,
            facilities: 120,
            cost_types: 2,
            distribution: CostDistribution::AntiCorrelated,
            clusters: 3,
            queries: 3,
            seed: 4,
        }
    }

    #[test]
    fn measure_point_produces_sane_numbers() {
        let m = measure_point("tiny", &tiny_spec(), 0.01, QueryKind::Skyline);
        assert_eq!(m.queries, 3);
        assert!(m.lsa.physical_reads > 0.0);
        assert!(m.cea.physical_reads > 0.0);
        assert!(m.lsa.result_size >= 1.0);
        // Same query, same answer: result sizes agree between algorithms.
        assert!((m.lsa.result_size - m.cea.result_size).abs() < 1e-9);
        // CEA never reads more than LSA.
        assert!(m.cea.physical_reads <= m.lsa.physical_reads + 1e-9);
        assert!(m.speedup(0.005) >= 1.0);
    }

    #[test]
    fn zero_charged_time_keeps_speedup_finite_and_json_safe() {
        // A degenerate point where CEA was charged nothing must not emit inf
        // (regression test: speedup used to return f64::INFINITY here).
        let mut m = PointMeasurement {
            label: "degenerate".to_string(),
            lsa: AlgoMeasurement {
                physical_reads: 10.0,
                ..Default::default()
            },
            cea: AlgoMeasurement::default(),
            queries: 1,
        };
        assert_eq!(m.speedup(0.005), PointMeasurement::MAX_SPEEDUP);
        assert!(m.speedup(0.005).is_finite());
        // Both sides zero: no advantage either way.
        m.lsa = AlgoMeasurement::default();
        assert_eq!(m.speedup(0.005), 1.0);
    }

    #[test]
    fn topk_measurement_respects_k() {
        let m = measure_point("tiny-topk", &tiny_spec(), 0.01, QueryKind::TopK(4));
        assert!((m.lsa.result_size - 4.0).abs() < 1e-9);
        assert!((m.cea.result_size - 4.0).abs() < 1e-9);
    }
}
