//! The count regression gates: deterministic per-point costs compared
//! against checked-in baselines.
//!
//! Wall-clock is too noisy for CI, but the work the algorithms do is
//! deterministic — workloads, queries, pairs and preference vectors are all
//! seeded. Each [`Gate`] re-measures one small fixed configuration, flattens
//! it into labelled rows of named costs and fails when any cost grew by more
//! than [`GATE_TOLERANCE`]: [`GateBaseline`] pins the figures' mean logical
//! reads (`logical_reads.json`), [`LabelBaseline`] the path skyline's labels
//! with and without ParetoPrep (`labels.json`), [`AlphaSettledBaseline`] the
//! α tier's settled nodes (`alpha_settled.json`) and [`IndexSettledBaseline`]
//! the route index's settled nodes and size (`index_settled.json`).
//! [`run_gate`] measures one and compares it, or with `--update` rewrites
//! the baseline so the diff documents the cost shift in review.

use crate::alpha::measure_scalarized;
use crate::experiments::{Experiment, ExperimentConfig};
use crate::index::measure_index;
use crate::prep::{measure_labels, point_spec};
use mcn_gen::generate_workload;
use mcn_graph::MultiCostGraph;
use mcn_index::{IndexConfig, RouteIndex};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::path::Path;

/// Allowed relative increase of any gated cost (2 %).
pub const GATE_TOLERANCE: f64 = 0.02;

/// One flattened gate row: its label and its `(cost name, value)` pairs.
pub type GateRow = (String, Vec<(&'static str, f64)>);

/// A checked-in count baseline: a configuration plus the deterministic
/// costs measured at it.
pub trait Gate: Serialize + for<'de> Deserialize<'de> {
    /// The fixed configuration; its `Default` is what CI gates, and it is
    /// stored in the file so numbers are only compared like for like.
    type Config: Default + PartialEq + Debug;

    /// What the gate pins, as named in violation messages.
    const NAME: &'static str;

    /// Re-measures the costs at `config`.
    fn measure(config: &Self::Config) -> Self;

    /// The configuration the costs belong to.
    fn config(&self) -> &Self::Config;

    /// Every gated row, in a stable order.
    fn rows(&self) -> Vec<GateRow>;

    /// Serializes as indented JSON (the checked-in format).
    fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses the checked-in JSON; the error is the parser's message.
    fn from_json(text: &str) -> Result<Self, String> {
        serde::json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Compares a fresh run against a baseline. Returns one message per
/// violation (empty = gate passed): a configuration, row-count or row-label
/// mismatch, or any cost that grew by more than `tolerance`. Improvements
/// never fail the gate — refresh the baseline with `--update` to lock them
/// in.
pub fn compare<G: Gate>(current: &G, baseline: &G, tolerance: f64) -> Vec<String> {
    let name = G::NAME;
    if current.config() != baseline.config() {
        return vec![format!(
            "{name} gate configuration changed: baseline {:?} vs current {:?} \
             (re-create the baseline)",
            baseline.config(),
            current.config()
        )];
    }
    let (current_rows, baseline_rows) = (current.rows(), baseline.rows());
    if current_rows.len() != baseline_rows.len() {
        return vec![format!(
            "{name} gate row count changed: baseline {} vs current {} (re-create the baseline)",
            baseline_rows.len(),
            current_rows.len()
        )];
    }
    let mut violations = Vec::new();
    for ((label, costs), (base_label, base_costs)) in current_rows.iter().zip(&baseline_rows) {
        if label != base_label {
            violations.push(format!(
                "{name} gate row label changed: `{base_label}` vs `{label}`"
            ));
            continue;
        }
        for (&(cost, value), &(_, base)) in costs.iter().zip(base_costs) {
            if value > base * (1.0 + tolerance) {
                violations.push(format!(
                    "{name}: {label} {cost}: {value:.1} vs baseline {base:.1} \
                     (+{:.1}% > {:.0}% allowed)",
                    (value / base - 1.0) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
    }
    violations
}

/// Measures gate `G` at its fixed configuration, then rewrites the baseline
/// at `path` (`update`) or compares against it. Returns the number of rows
/// measured and the violations (always none on `update`).
///
/// # Errors
/// Returns a message when the baseline cannot be read, parsed or written.
pub fn run_gate<G: Gate>(path: &Path, update: bool) -> Result<(usize, Vec<String>), String> {
    let current = G::measure(&G::Config::default());
    let rows = current.rows().len();
    if update {
        std::fs::write(path, current.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        return Ok((rows, Vec::new()));
    }
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read {} (create it with `experiments gate ... --update`): {e}",
            path.display()
        )
    })?;
    let baseline =
        G::from_json(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    Ok((rows, compare(&current, &baseline, GATE_TOLERANCE)))
}

/// The seeded network the per-dimension gates measure on: `nodes` nodes,
/// `d` anti-correlated costs (the prep/alpha/index experiments' shape).
pub fn gate_graph(nodes: usize, d: usize, seed: u64) -> MultiCostGraph {
    generate_workload(&point_spec(nodes, d, seed)).graph
}

/// One point per swept dimension, measured on [`gate_graph`] and labelled
/// `"d = <d>"`.
fn per_dimension<P>(
    nodes: usize,
    dims: &[usize],
    seed: u64,
    point: impl Fn(&MultiCostGraph, String) -> P,
) -> Vec<P> {
    dims.iter()
        .map(|&d| point(&gate_graph(nodes, d, seed), format!("d = {d}")))
        .collect()
}

/// The fixed configuration of the logical-read gate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GateConfig {
    /// Scale-down divider of the paper workload.
    pub scale: usize,
    /// Query locations per data point.
    pub queries: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for GateConfig {
    fn default() -> Self {
        Self {
            scale: 2000,
            queries: 2,
            seed: 2010,
        }
    }
}

impl GateConfig {
    fn experiment_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            scale: self.scale,
            queries: Some(self.queries),
            seed: self.seed,
            ..Default::default()
        }
    }
}

/// One figure point's deterministic I/O cost.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GatePoint {
    /// The point's x-axis label (e.g. `"d = 3"`).
    pub label: String,
    /// Mean logical page reads per LSA query.
    pub lsa_logical_reads: f64,
    /// Mean logical page reads per CEA query.
    pub cea_logical_reads: f64,
}

/// One figure's points.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GateTable {
    /// The experiment id (e.g. `"sky-p"`).
    pub id: String,
    /// One entry per swept x-axis value.
    pub points: Vec<GatePoint>,
}

/// The logical-read baseline: every figure's points at [`GateConfig`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GateBaseline {
    /// The configuration the numbers belong to.
    pub config: GateConfig,
    /// One table per figure experiment, in paper order.
    pub tables: Vec<GateTable>,
}

impl Gate for GateBaseline {
    type Config = GateConfig;
    const NAME: &'static str = "logical reads";

    /// Runs every figure sweep and keeps each point's mean logical reads.
    fn measure(config: &GateConfig) -> Self {
        let experiment_config = config.experiment_config();
        let tables = Experiment::all()
            .iter()
            .map(|experiment| GateTable {
                id: experiment.id().to_string(),
                points: experiment
                    .run_points(&experiment_config)
                    .into_iter()
                    .map(|p| GatePoint {
                        label: p.label,
                        lsa_logical_reads: p.lsa.logical_reads,
                        cea_logical_reads: p.cea.logical_reads,
                    })
                    .collect(),
            })
            .collect();
        GateBaseline {
            config: config.clone(),
            tables,
        }
    }

    fn config(&self) -> &GateConfig {
        &self.config
    }

    fn rows(&self) -> Vec<GateRow> {
        self.tables
            .iter()
            .flat_map(|table| {
                table.points.iter().map(|p| {
                    (
                        format!("{} [{}]", table.id, p.label),
                        vec![("LSA", p.lsa_logical_reads), ("CEA", p.cea_logical_reads)],
                    )
                })
            })
            .collect()
    }
}

/// The fixed configuration of the label gate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LabelGateConfig {
    /// Nodes of the seeded gate network.
    pub nodes: usize,
    /// Cost dimensions measured.
    pub dims: Vec<usize>,
    /// Source/target pairs per dimension.
    pub pairs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for LabelGateConfig {
    fn default() -> Self {
        Self {
            nodes: 150,
            dims: vec![2, 3, 4],
            pairs: 3,
            seed: 2010,
        }
    }
}

/// One dimension's deterministic label cost.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LabelGatePoint {
    /// The point's label (e.g. `"d = 3"`).
    pub label: String,
    /// Mean labels created per pair by the exhaustive baseline.
    pub exhaustive_labels: f64,
    /// Mean labels created per pair by the ParetoPrep-pruned search.
    pub prepped_labels: f64,
}

/// The label baseline: one point per dimension at [`LabelGateConfig`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LabelBaseline {
    /// The configuration the numbers belong to.
    pub config: LabelGateConfig,
    /// One entry per swept dimension.
    pub points: Vec<LabelGatePoint>,
}

impl Gate for LabelBaseline {
    type Config = LabelGateConfig;
    const NAME: &'static str = "labels";

    /// Mean labels created per seeded pair, with and without prep, per
    /// dimension. [`measure_labels`] asserts byte-identical skylines.
    fn measure(config: &LabelGateConfig) -> Self {
        let points = per_dimension(config.nodes, &config.dims, config.seed, |graph, label| {
            let metrics = measure_labels(graph, config.pairs, config.seed);
            LabelGatePoint {
                label,
                exhaustive_labels: metrics.exhaustive_labels,
                prepped_labels: metrics.prepped_labels,
            }
        });
        LabelBaseline {
            config: config.clone(),
            points,
        }
    }

    fn config(&self) -> &LabelGateConfig {
        &self.config
    }

    fn rows(&self) -> Vec<GateRow> {
        self.points
            .iter()
            .map(|p| {
                (
                    p.label.clone(),
                    vec![
                        ("exhaustive", p.exhaustive_labels),
                        ("prepped", p.prepped_labels),
                    ],
                )
            })
            .collect()
    }
}

/// The fixed configuration of the alpha settled-node gate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlphaGateConfig {
    /// Nodes of the seeded gate network.
    pub nodes: usize,
    /// Cost dimensions measured.
    pub dims: Vec<usize>,
    /// Source/target pairs per dimension.
    pub pairs: usize,
    /// Preference vectors per pair.
    pub users: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for AlphaGateConfig {
    fn default() -> Self {
        Self {
            nodes: 150,
            dims: vec![2, 3, 4],
            pairs: 3,
            users: 3,
            seed: 2010,
        }
    }
}

/// One dimension's deterministic scalarized-search cost.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlphaGatePoint {
    /// The point's label (e.g. `"d = 3"`).
    pub label: String,
    /// Mean nodes settled per (pair, α) query by heuristic-free Dijkstra.
    pub dijkstra_settled: f64,
    /// Mean nodes settled per (pair, α) query by prep-backed A*.
    pub astar_settled: f64,
    /// Mean labels created per pair by the prepped path skyline on the
    /// same pairs (pins the serving tier's advantage over the explore
    /// tier).
    pub skyline_labels: f64,
}

/// The alpha baseline: one point per dimension at [`AlphaGateConfig`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlphaSettledBaseline {
    /// The configuration the numbers belong to.
    pub config: AlphaGateConfig,
    /// One entry per swept dimension.
    pub points: Vec<AlphaGatePoint>,
}

impl Gate for AlphaSettledBaseline {
    type Config = AlphaGateConfig;
    const NAME: &'static str = "alpha";

    /// Mean nodes settled per seeded (pair, α) query with and without the
    /// prep heuristic, per dimension. [`measure_scalarized`] asserts
    /// byte-identical A*/Dijkstra routes.
    fn measure(config: &AlphaGateConfig) -> Self {
        let points = per_dimension(config.nodes, &config.dims, config.seed, |graph, label| {
            let metrics = measure_scalarized(graph, config.pairs, config.users, config.seed);
            AlphaGatePoint {
                label,
                dijkstra_settled: metrics.dijkstra_settled,
                astar_settled: metrics.astar_settled,
                skyline_labels: metrics.skyline_labels,
            }
        });
        AlphaSettledBaseline {
            config: config.clone(),
            points,
        }
    }

    fn config(&self) -> &AlphaGateConfig {
        &self.config
    }

    fn rows(&self) -> Vec<GateRow> {
        self.points
            .iter()
            .map(|p| {
                (
                    p.label.clone(),
                    vec![
                        ("dijkstra settled", p.dijkstra_settled),
                        ("astar settled", p.astar_settled),
                        ("skyline labels", p.skyline_labels),
                    ],
                )
            })
            .collect()
    }
}

/// The fixed configuration of the index gate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexGateConfig {
    /// Nodes of the seeded gate network.
    pub nodes: usize,
    /// Cost dimensions measured.
    pub dims: Vec<usize>,
    /// Source/target pairs per dimension.
    pub pairs: usize,
    /// Preference vectors per pair.
    pub users: usize,
    /// Build regions of the gated index build.
    pub regions: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for IndexGateConfig {
    fn default() -> Self {
        Self {
            nodes: 150,
            dims: vec![2, 3, 4],
            pairs: 3,
            users: 3,
            regions: 1,
            seed: 2010,
        }
    }
}

/// One dimension's deterministic index cost.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexGatePoint {
    /// The point's label (e.g. `"d = 3"`).
    pub label: String,
    /// Mean nodes settled per (pair, α) query by the index — the
    /// wall-latency proxy.
    pub index_settled: f64,
    /// Mean labels the index skyline settled per pair.
    pub index_sky_settled: f64,
    /// Upward-arc entries of the built index (its size).
    pub arc_entries: f64,
}

/// The index baseline: one point per dimension at [`IndexGateConfig`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexSettledBaseline {
    /// The configuration the numbers belong to.
    pub config: IndexGateConfig,
    /// One entry per swept dimension.
    pub points: Vec<IndexGatePoint>,
}

impl Gate for IndexSettledBaseline {
    type Config = IndexGateConfig;
    const NAME: &'static str = "index";

    /// The index's settled nodes per seeded query and its size, per
    /// dimension. [`measure_index`] asserts byte-identical answers against
    /// the prep tier.
    fn measure(config: &IndexGateConfig) -> Self {
        let build = IndexConfig {
            regions: config.regions.max(1),
            seed: config.seed,
            ..IndexConfig::default()
        };
        let points = per_dimension(config.nodes, &config.dims, config.seed, |graph, label| {
            let index = RouteIndex::build(graph, &build);
            let metrics = measure_index(graph, &index, config.pairs, config.users, config.seed);
            IndexGatePoint {
                label,
                index_settled: metrics.index_settled,
                index_sky_settled: metrics.index_sky_settled,
                arc_entries: index.arc_entries() as f64,
            }
        });
        IndexSettledBaseline {
            config: config.clone(),
            points,
        }
    }

    fn config(&self) -> &IndexGateConfig {
        &self.config
    }

    fn rows(&self) -> Vec<GateRow> {
        self.points
            .iter()
            .map(|p| {
                (
                    p.label.clone(),
                    vec![
                        ("index settled", p.index_settled),
                        ("index sky settled", p.index_sky_settled),
                        ("arc entries", p.arc_entries),
                    ],
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests;
