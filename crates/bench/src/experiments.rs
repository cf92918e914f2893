//! The nine experiments of the paper's Section VI, as parameter sweeps.

use crate::measure::{measure_point, PointMeasurement, QueryKind};
use crate::report::ExperimentTable;
use mcn_gen::{CostDistribution, WorkloadSpec};

/// Global configuration of an experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentConfig {
    /// Scale-down divider applied to the paper's network/facility/query sizes
    /// (1 = the paper's full configuration, 50 = quick default).
    pub scale: usize,
    /// Seconds charged per physical page read (random-read latency model).
    pub latency: f64,
    /// Override for the number of query locations per data point
    /// (`None` = the scaled paper default).
    pub queries: Option<usize>,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            scale: 50,
            latency: 0.005,
            queries: None,
            seed: 2010,
        }
    }
}

impl ExperimentConfig {
    /// The workload spec at this configuration's scale with the paper's
    /// default parameters (|P| = 100 K / scale, d = 4, anti-correlated).
    pub fn base_spec(&self) -> WorkloadSpec {
        let mut spec = WorkloadSpec::paper_scaled(self.scale);
        spec.seed = self.seed;
        if let Some(q) = self.queries {
            spec.queries = q;
        }
        spec
    }

    /// The paper's facility-count sweep (25 K … 200 K), scaled.
    pub fn facility_sweep(&self) -> Vec<usize> {
        [25_000usize, 50_000, 100_000, 150_000, 200_000]
            .iter()
            .map(|p| (p / self.scale).max(10))
            .collect()
    }
}

/// One reproducible experiment (figure) of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Experiment {
    /// Fig. 8(a): skyline processing time vs |P|.
    SkylineFacilities,
    /// Fig. 8(b): skyline processing time vs number of cost types d.
    SkylineCostTypes,
    /// Fig. 9(a): skyline processing time vs cost distribution.
    SkylineDistribution,
    /// Fig. 9(b): skyline processing time vs buffer size.
    SkylineBuffer,
    /// Fig. 10(a): top-k processing time vs |P|.
    TopKFacilities,
    /// Fig. 10(b): top-k processing time vs number of cost types d.
    TopKCostTypes,
    /// Fig. 11(a): top-k processing time vs cost distribution.
    TopKDistribution,
    /// Fig. 11(b): top-k processing time vs buffer size.
    TopKBuffer,
    /// Fig. 12: top-k processing time vs k.
    TopKK,
}

impl Experiment {
    /// All experiments in paper order.
    pub fn all() -> [Experiment; 9] {
        [
            Experiment::SkylineFacilities,
            Experiment::SkylineCostTypes,
            Experiment::SkylineDistribution,
            Experiment::SkylineBuffer,
            Experiment::TopKFacilities,
            Experiment::TopKCostTypes,
            Experiment::TopKDistribution,
            Experiment::TopKBuffer,
            Experiment::TopKK,
        ]
    }

    /// Command-line identifier (e.g. `sky-p`, `topk-k`).
    pub fn id(&self) -> &'static str {
        match self {
            Experiment::SkylineFacilities => "sky-p",
            Experiment::SkylineCostTypes => "sky-d",
            Experiment::SkylineDistribution => "sky-dist",
            Experiment::SkylineBuffer => "sky-buf",
            Experiment::TopKFacilities => "topk-p",
            Experiment::TopKCostTypes => "topk-d",
            Experiment::TopKDistribution => "topk-dist",
            Experiment::TopKBuffer => "topk-buf",
            Experiment::TopKK => "topk-k",
        }
    }

    /// Paper figure the experiment reproduces.
    pub fn figure(&self) -> &'static str {
        match self {
            Experiment::SkylineFacilities => "Fig. 8(a) — skyline: effect of |P|",
            Experiment::SkylineCostTypes => "Fig. 8(b) — skyline: effect of d",
            Experiment::SkylineDistribution => "Fig. 9(a) — skyline: effect of cost distribution",
            Experiment::SkylineBuffer => "Fig. 9(b) — skyline: effect of buffer size",
            Experiment::TopKFacilities => "Fig. 10(a) — top-k: effect of |P|",
            Experiment::TopKCostTypes => "Fig. 10(b) — top-k: effect of d",
            Experiment::TopKDistribution => "Fig. 11(a) — top-k: effect of cost distribution",
            Experiment::TopKBuffer => "Fig. 11(b) — top-k: effect of buffer size",
            Experiment::TopKK => "Fig. 12 — top-k: effect of k",
        }
    }

    /// Parses a command-line identifier.
    pub fn from_id(id: &str) -> Option<Experiment> {
        Experiment::all().into_iter().find(|e| e.id() == id)
    }

    /// Runs the experiment sweep and returns its table.
    pub fn run(&self, config: &ExperimentConfig) -> ExperimentTable {
        ExperimentTable::from_points(
            self.id(),
            self.figure(),
            self.x_axis(),
            &self.run_points(config),
            config.latency,
        )
    }

    /// Runs the experiment sweep and returns the raw per-point measurements
    /// (the table's rows keep only the charged-time view; the regression
    /// gate needs the deterministic logical-read means).
    pub fn run_points(&self, config: &ExperimentConfig) -> Vec<PointMeasurement> {
        let base = config.base_spec();
        let default_buffer = 0.01;
        let default_k = 4;
        match self {
            Experiment::SkylineFacilities | Experiment::TopKFacilities => {
                let kind = self.kind(default_k);
                config
                    .facility_sweep()
                    .into_iter()
                    .map(|p| {
                        let spec = WorkloadSpec {
                            facilities: p,
                            ..base.clone()
                        };
                        measure_point(format!("|P| = {p}"), &spec, default_buffer, kind)
                    })
                    .collect()
            }
            Experiment::SkylineCostTypes | Experiment::TopKCostTypes => {
                let kind = self.kind(default_k);
                (2..=5)
                    .map(|d| {
                        let spec = WorkloadSpec {
                            cost_types: d,
                            ..base.clone()
                        };
                        measure_point(format!("d = {d}"), &spec, default_buffer, kind)
                    })
                    .collect()
            }
            Experiment::SkylineDistribution | Experiment::TopKDistribution => {
                let kind = self.kind(default_k);
                [
                    CostDistribution::AntiCorrelated,
                    CostDistribution::Independent,
                    CostDistribution::Correlated,
                ]
                .into_iter()
                .map(|dist| {
                    let spec = WorkloadSpec {
                        distribution: dist,
                        ..base.clone()
                    };
                    measure_point(dist.label(), &spec, default_buffer, kind)
                })
                .collect()
            }
            Experiment::SkylineBuffer | Experiment::TopKBuffer => {
                let kind = self.kind(default_k);
                [0.0, 0.005, 0.01, 0.015, 0.02]
                    .into_iter()
                    .map(|buffer| {
                        measure_point(
                            format!("buffer = {:.1}%", buffer * 100.0),
                            &base,
                            buffer,
                            kind,
                        )
                    })
                    .collect()
            }
            Experiment::TopKK => [1usize, 2, 4, 8, 16]
                .into_iter()
                .map(|k| {
                    measure_point(
                        format!("k = {k}"),
                        &base,
                        default_buffer,
                        QueryKind::TopK(k),
                    )
                })
                .collect(),
        }
    }

    fn kind(&self, default_k: usize) -> QueryKind {
        match self {
            Experiment::SkylineFacilities
            | Experiment::SkylineCostTypes
            | Experiment::SkylineDistribution
            | Experiment::SkylineBuffer => QueryKind::Skyline,
            _ => QueryKind::TopK(default_k),
        }
    }

    fn x_axis(&self) -> &'static str {
        match self {
            Experiment::SkylineFacilities | Experiment::TopKFacilities => "|P|",
            Experiment::SkylineCostTypes | Experiment::TopKCostTypes => "d",
            Experiment::SkylineDistribution | Experiment::TopKDistribution => "distribution",
            Experiment::SkylineBuffer | Experiment::TopKBuffer => "buffer",
            Experiment::TopKK => "k",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        for e in Experiment::all() {
            assert_eq!(Experiment::from_id(e.id()), Some(e));
        }
        assert_eq!(Experiment::from_id("nope"), None);
    }

    #[test]
    fn config_scaling_shrinks_the_sweep() {
        let config = ExperimentConfig {
            scale: 500,
            ..Default::default()
        };
        let sweep = config.facility_sweep();
        assert_eq!(sweep.len(), 5);
        assert!(sweep.iter().all(|&p| (10..=400).contains(&p)));
        assert_eq!(config.base_spec().cost_types, 4);
    }

    #[test]
    fn one_small_experiment_end_to_end() {
        // Heavily scaled down so the test stays fast; exercises the whole
        // sweep machinery for one skyline figure and one top-k figure.
        let config = ExperimentConfig {
            scale: 2000,
            queries: Some(2),
            ..Default::default()
        };
        let table = Experiment::SkylineCostTypes.run(&config);
        assert_eq!(table.rows.len(), 4); // d = 2..5
        assert!(table.rows.iter().all(|r| r.lsa_reads > 0.0));
        let table = Experiment::TopKK.run(&config);
        assert_eq!(table.rows.len(), 5); // k = 1, 2, 4, 8, 16
    }
}
