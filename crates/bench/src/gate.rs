//! The bench regression gate: mean logical page reads per figure point,
//! compared against a checked-in baseline.
//!
//! Wall-clock benchmarks are too noisy for CI, but **logical page reads are
//! deterministic**: the workload generator, the query locations and the
//! algorithms are all seeded, so every figure point requests exactly the
//! same pages run after run and machine after machine. The gate exploits
//! that: it re-runs the (small, fixed) gate configuration of every figure
//! sweep, extracts each point's mean logical reads for LSA and CEA, and
//! fails when any point regressed by more than [`GATE_TOLERANCE`] against
//! the baseline JSON checked into the repository.
//!
//! `experiments gate --baseline FILE` runs the comparison;
//! `--update` rewrites the baseline after an intentional change (the diff
//! then documents the cost shift in review).
//!
//! The same idea guards the ParetoPrep path-skyline subsystem: **labels
//! created are deterministic** just like logical reads, so a sibling
//! baseline (`labels.json`, see [`LabelBaseline`]) stores the mean label
//! counts of the prep experiment's seeded pairs — exhaustive and prepped —
//! and `experiments gate --labels FILE` fails when either regresses by
//! more than the tolerance (a prepped regression means the pruning got
//! weaker, an exhaustive one that the baseline search got more wasteful).
//!
//! The scalarized serving tier gets the same treatment: **nodes settled
//! are deterministic** for the seeded (pair, α) queries, so a third
//! baseline (`alpha_settled.json`, see [`AlphaSettledBaseline`]) stores
//! the mean settled counts of plain Dijkstra and prep-backed A* plus the
//! skyline's labels on the same pairs, and `experiments gate --alpha FILE`
//! fails when any of them regresses (an A* regression means the α·L(v)
//! heuristic got weaker).
//!
//! The route index rides the same rails: **its settled counts and its size
//! are deterministic** (the build and both query kinds are pure functions
//! of the seeded inputs), so a fourth baseline (`index_settled.json`, see
//! [`IndexSettledBaseline`]) stores the index's per-query settled nodes —
//! the wall-latency proxy — and its arc-entry count per dimension, and
//! `experiments gate --index FILE` fails when either regresses (a settled
//! regression means queries got slower, an arc-entry one that contraction
//! got more wasteful).

use crate::alpha::{measure_scalarized, ScalarMetrics};
use crate::experiments::{Experiment, ExperimentConfig};
use crate::index::{measure_index, IndexMetrics};
use crate::prep::{measure_labels, LabelMetrics};
use mcn_gen::{generate_workload, CostDistribution, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Allowed relative increase of any point's logical reads (2 %).
pub const GATE_TOLERANCE: f64 = 0.02;

/// The fixed, fast configuration the gate always runs (the baseline is only
/// comparable at the exact same configuration, so it is stored in the file
/// and cross-checked).
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

/// The whole baseline: the configuration it was measured at plus every
/// figure's points.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GateBaseline {
    /// The configuration the numbers belong to.
    pub config: GateConfig,
    /// One table per figure experiment, in paper order.
    pub tables: Vec<GateTable>,
}

impl GateBaseline {
    /// Serializes the baseline as indented JSON (the checked-in format).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses a baseline from its JSON representation.
    ///
    /// # Errors
    /// Returns the underlying JSON error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde::json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Runs every figure sweep at the gate configuration and collects the mean
/// logical reads per point.
pub fn run_gate(config: &GateConfig) -> GateBaseline {
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

/// Compares a fresh run against the checked-in baseline. Returns one message
/// per violation (empty = gate passed): configuration or shape mismatches,
/// and any point whose logical reads grew by more than `tolerance`.
/// Improvements never fail the gate — refresh the baseline with `--update`
/// to lock them in.
pub fn compare_gate(
    current: &GateBaseline,
    baseline: &GateBaseline,
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    if current.config != baseline.config {
        violations.push(format!(
            "gate configuration changed: baseline {:?} vs current {:?} (re-create the baseline)",
            baseline.config, current.config
        ));
        return violations;
    }
    if current.tables.len() != baseline.tables.len() {
        violations.push(format!(
            "figure count changed: baseline {} vs current {} (re-create the baseline)",
            baseline.tables.len(),
            current.tables.len()
        ));
        return violations;
    }
    for (cur, base) in current.tables.iter().zip(&baseline.tables) {
        if cur.id != base.id || cur.points.len() != base.points.len() {
            violations.push(format!(
                "table shape changed: baseline {} ({} points) vs current {} ({} points)",
                base.id,
                base.points.len(),
                cur.id,
                cur.points.len()
            ));
            continue;
        }
        for (cp, bp) in cur.points.iter().zip(&base.points) {
            if cp.label != bp.label {
                violations.push(format!(
                    "{}: point label changed: `{}` vs `{}`",
                    cur.id, bp.label, cp.label
                ));
                continue;
            }
            for (algo, current_reads, baseline_reads) in [
                ("LSA", cp.lsa_logical_reads, bp.lsa_logical_reads),
                ("CEA", cp.cea_logical_reads, bp.cea_logical_reads),
            ] {
                if current_reads > baseline_reads * (1.0 + tolerance) {
                    violations.push(format!(
                        "{} [{}] {algo}: {current_reads:.1} logical reads vs baseline \
                         {baseline_reads:.1} (+{:.1}% > {:.0}% allowed)",
                        cur.id,
                        cp.label,
                        (current_reads / baseline_reads - 1.0) * 100.0,
                        tolerance * 100.0
                    ));
                }
            }
        }
    }
    violations
}

/// The fixed configuration of the label gate (like [`GateConfig`], stored
/// in the baseline file and cross-checked before comparing numbers).
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

/// The checked-in label baseline: configuration plus one point per
/// dimension.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LabelBaseline {
    /// The configuration the numbers belong to.
    pub config: LabelGateConfig,
    /// One entry per swept dimension.
    pub points: Vec<LabelGatePoint>,
}

impl LabelBaseline {
    /// Serializes the baseline as indented JSON (the checked-in format).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses a baseline from its JSON representation.
    ///
    /// # Errors
    /// Returns the underlying JSON error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde::json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Re-measures the label gate: mean labels created per seeded pair, with
/// and without prep, per cost dimension. Byte-identical skylines are
/// asserted inside [`measure_labels`] on every run.
pub fn run_label_gate(config: &LabelGateConfig) -> LabelBaseline {
    let points = config
        .dims
        .iter()
        .map(|&d| {
            let workload = generate_workload(&WorkloadSpec {
                nodes: config.nodes,
                facilities: (config.nodes / 5).max(10),
                cost_types: d,
                distribution: CostDistribution::AntiCorrelated,
                clusters: 4,
                queries: 4,
                seed: config.seed,
            });
            let metrics: LabelMetrics = measure_labels(&workload.graph, config.pairs, config.seed);
            LabelGatePoint {
                label: format!("d = {d}"),
                exhaustive_labels: metrics.exhaustive_labels,
                prepped_labels: metrics.prepped_labels,
            }
        })
        .collect();
    LabelBaseline {
        config: config.clone(),
        points,
    }
}

/// Compares a fresh label-gate run against the checked-in baseline.
/// Returns one message per violation (empty = gate passed); improvements
/// never fail (refresh with `--update` to lock them in).
pub fn compare_label_gate(
    current: &LabelBaseline,
    baseline: &LabelBaseline,
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    if current.config != baseline.config {
        violations.push(format!(
            "label gate configuration changed: baseline {:?} vs current {:?} \
             (re-create the baseline)",
            baseline.config, current.config
        ));
        return violations;
    }
    if current.points.len() != baseline.points.len() {
        violations.push(format!(
            "label gate point count changed: baseline {} vs current {} \
             (re-create the baseline)",
            baseline.points.len(),
            current.points.len()
        ));
        return violations;
    }
    for (cp, bp) in current.points.iter().zip(&baseline.points) {
        if cp.label != bp.label {
            violations.push(format!(
                "label gate point label changed: `{}` vs `{}`",
                bp.label, cp.label
            ));
            continue;
        }
        for (kind, current_labels, baseline_labels) in [
            ("exhaustive", cp.exhaustive_labels, bp.exhaustive_labels),
            ("prepped", cp.prepped_labels, bp.prepped_labels),
        ] {
            if current_labels > baseline_labels * (1.0 + tolerance) {
                violations.push(format!(
                    "labels [{}] {kind}: {current_labels:.1} labels vs baseline \
                     {baseline_labels:.1} (+{:.1}% > {:.0}% allowed)",
                    cp.label,
                    (current_labels / baseline_labels - 1.0) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
    }
    violations
}

/// The fixed configuration of the alpha settled-node gate (stored in the
/// baseline file and cross-checked before comparing numbers).
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

/// The checked-in alpha baseline: configuration plus one point per
/// dimension.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlphaSettledBaseline {
    /// The configuration the numbers belong to.
    pub config: AlphaGateConfig,
    /// One entry per swept dimension.
    pub points: Vec<AlphaGatePoint>,
}

impl AlphaSettledBaseline {
    /// Serializes the baseline as indented JSON (the checked-in format).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses a baseline from its JSON representation.
    ///
    /// # Errors
    /// Returns the underlying JSON error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde::json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Re-measures the alpha gate: mean nodes settled per seeded (pair, α)
/// query with and without the prep heuristic, per cost dimension.
/// Byte-identical A*/Dijkstra routes are asserted inside
/// [`measure_scalarized`] on every run.
pub fn run_alpha_gate(config: &AlphaGateConfig) -> AlphaSettledBaseline {
    let points = config
        .dims
        .iter()
        .map(|&d| {
            let workload = generate_workload(&WorkloadSpec {
                nodes: config.nodes,
                facilities: (config.nodes / 5).max(10),
                cost_types: d,
                distribution: CostDistribution::AntiCorrelated,
                clusters: 4,
                queries: 4,
                seed: config.seed,
            });
            let metrics: ScalarMetrics =
                measure_scalarized(&workload.graph, config.pairs, config.users, config.seed);
            AlphaGatePoint {
                label: format!("d = {d}"),
                dijkstra_settled: metrics.dijkstra_settled,
                astar_settled: metrics.astar_settled,
                skyline_labels: metrics.skyline_labels,
            }
        })
        .collect();
    AlphaSettledBaseline {
        config: config.clone(),
        points,
    }
}

/// Compares a fresh alpha-gate run against the checked-in baseline.
/// Returns one message per violation (empty = gate passed); improvements
/// never fail (refresh with `--update` to lock them in).
pub fn compare_alpha_gate(
    current: &AlphaSettledBaseline,
    baseline: &AlphaSettledBaseline,
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    if current.config != baseline.config {
        violations.push(format!(
            "alpha gate configuration changed: baseline {:?} vs current {:?} \
             (re-create the baseline)",
            baseline.config, current.config
        ));
        return violations;
    }
    if current.points.len() != baseline.points.len() {
        violations.push(format!(
            "alpha gate point count changed: baseline {} vs current {} \
             (re-create the baseline)",
            baseline.points.len(),
            current.points.len()
        ));
        return violations;
    }
    for (cp, bp) in current.points.iter().zip(&baseline.points) {
        if cp.label != bp.label {
            violations.push(format!(
                "alpha gate point label changed: `{}` vs `{}`",
                bp.label, cp.label
            ));
            continue;
        }
        for (kind, current_cost, baseline_cost) in [
            ("dijkstra settled", cp.dijkstra_settled, bp.dijkstra_settled),
            ("astar settled", cp.astar_settled, bp.astar_settled),
            ("skyline labels", cp.skyline_labels, bp.skyline_labels),
        ] {
            if current_cost > baseline_cost * (1.0 + tolerance) {
                violations.push(format!(
                    "alpha [{}] {kind}: {current_cost:.1} vs baseline \
                     {baseline_cost:.1} (+{:.1}% > {:.0}% allowed)",
                    cp.label,
                    (current_cost / baseline_cost - 1.0) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
    }
    violations
}

/// The fixed configuration of the index gate (stored in the baseline file
/// and cross-checked before comparing numbers).
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

/// The checked-in index baseline: configuration plus one point per
/// dimension.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexSettledBaseline {
    /// The configuration the numbers belong to.
    pub config: IndexGateConfig,
    /// One entry per swept dimension.
    pub points: Vec<IndexGatePoint>,
}

impl IndexSettledBaseline {
    /// Serializes the baseline as indented JSON (the checked-in format).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses a baseline from its JSON representation.
    ///
    /// # Errors
    /// Returns the underlying JSON error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde::json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Re-measures the index gate: the index's settled nodes per seeded query
/// and its size, per cost dimension. Byte-identical answers against the
/// prep tier are asserted inside [`measure_index`] on every run.
pub fn run_index_gate(config: &IndexGateConfig) -> IndexSettledBaseline {
    let points = config
        .dims
        .iter()
        .map(|&d| {
            let workload = generate_workload(&WorkloadSpec {
                nodes: config.nodes,
                facilities: (config.nodes / 5).max(10),
                cost_types: d,
                distribution: CostDistribution::AntiCorrelated,
                clusters: 4,
                queries: 4,
                seed: config.seed,
            });
            let index = mcn_index::RouteIndex::build(
                &workload.graph,
                &mcn_index::IndexConfig {
                    regions: config.regions.max(1),
                    seed: config.seed,
                    ..mcn_index::IndexConfig::default()
                },
            );
            let metrics: IndexMetrics = measure_index(
                &workload.graph,
                &index,
                config.pairs,
                config.users,
                config.seed,
            );
            IndexGatePoint {
                label: format!("d = {d}"),
                index_settled: metrics.index_settled,
                index_sky_settled: metrics.index_sky_settled,
                arc_entries: index.arc_entries() as f64,
            }
        })
        .collect();
    IndexSettledBaseline {
        config: config.clone(),
        points,
    }
}

/// Compares a fresh index-gate run against the checked-in baseline.
/// Returns one message per violation (empty = gate passed); improvements
/// never fail (refresh with `--update` to lock them in).
pub fn compare_index_gate(
    current: &IndexSettledBaseline,
    baseline: &IndexSettledBaseline,
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    if current.config != baseline.config {
        violations.push(format!(
            "index gate configuration changed: baseline {:?} vs current {:?} \
             (re-create the baseline)",
            baseline.config, current.config
        ));
        return violations;
    }
    if current.points.len() != baseline.points.len() {
        violations.push(format!(
            "index gate point count changed: baseline {} vs current {} \
             (re-create the baseline)",
            baseline.points.len(),
            current.points.len()
        ));
        return violations;
    }
    for (cp, bp) in current.points.iter().zip(&baseline.points) {
        if cp.label != bp.label {
            violations.push(format!(
                "index gate point label changed: `{}` vs `{}`",
                bp.label, cp.label
            ));
            continue;
        }
        for (kind, current_cost, baseline_cost) in [
            ("index settled", cp.index_settled, bp.index_settled),
            (
                "index sky settled",
                cp.index_sky_settled,
                bp.index_sky_settled,
            ),
            ("arc entries", cp.arc_entries, bp.arc_entries),
        ] {
            if current_cost > baseline_cost * (1.0 + tolerance) {
                violations.push(format!(
                    "index [{}] {kind}: {current_cost:.1} vs baseline \
                     {baseline_cost:.1} (+{:.1}% > {:.0}% allowed)",
                    cp.label,
                    (current_cost / baseline_cost - 1.0) * 100.0,
                    tolerance * 100.0
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-figure baseline for fast tests (run_gate over all nine
    /// figures is exercised by the binary in CI).
    fn small_baseline() -> GateBaseline {
        let config = GateConfig::default();
        let table = GateTable {
            id: "sky-d".into(),
            points: vec![
                GatePoint {
                    label: "d = 2".into(),
                    lsa_logical_reads: 100.0,
                    cea_logical_reads: 80.0,
                },
                GatePoint {
                    label: "d = 3".into(),
                    lsa_logical_reads: 150.0,
                    cea_logical_reads: 110.0,
                },
            ],
        };
        GateBaseline {
            config,
            tables: vec![table],
        }
    }

    #[test]
    fn identical_runs_pass() {
        let b = small_baseline();
        assert!(compare_gate(&b, &b, GATE_TOLERANCE).is_empty());
    }

    #[test]
    fn small_improvements_and_jitter_pass_regressions_fail() {
        let base = small_baseline();
        let mut current = base.clone();
        current.tables[0].points[0].lsa_logical_reads = 101.9; // +1.9 %
        current.tables[0].points[1].cea_logical_reads = 90.0; // improvement
        assert!(compare_gate(&current, &base, GATE_TOLERANCE).is_empty());
        current.tables[0].points[0].lsa_logical_reads = 103.0; // +3 %
        let violations = compare_gate(&current, &base, GATE_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("sky-d"));
        assert!(violations[0].contains("LSA"));
    }

    #[test]
    fn shape_and_config_changes_are_reported() {
        let base = small_baseline();
        let mut current = base.clone();
        current.config.scale = 50;
        assert!(compare_gate(&current, &base, GATE_TOLERANCE)[0].contains("configuration"));
        let mut current = base.clone();
        current.tables[0].points.pop();
        assert!(compare_gate(&current, &base, GATE_TOLERANCE)[0].contains("shape"));
        let mut current = base.clone();
        current.tables[0].points[1].label = "d = 9".into();
        assert!(compare_gate(&current, &base, GATE_TOLERANCE)[0].contains("label"));
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = small_baseline();
        let json = b.to_json();
        let parsed = GateBaseline::from_json(&json).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.to_json(), json);
    }

    /// A two-point label baseline for the comparison tests.
    fn small_label_baseline() -> LabelBaseline {
        LabelBaseline {
            config: LabelGateConfig::default(),
            points: vec![
                LabelGatePoint {
                    label: "d = 2".into(),
                    exhaustive_labels: 500.0,
                    prepped_labels: 120.0,
                },
                LabelGatePoint {
                    label: "d = 3".into(),
                    exhaustive_labels: 900.0,
                    prepped_labels: 300.0,
                },
            ],
        }
    }

    #[test]
    fn label_gate_passes_jitter_fails_regressions() {
        let base = small_label_baseline();
        assert!(compare_label_gate(&base, &base, GATE_TOLERANCE).is_empty());
        let mut current = base.clone();
        current.points[0].prepped_labels = 121.9; // +1.6 %
        current.points[1].exhaustive_labels = 850.0; // improvement
        assert!(compare_label_gate(&current, &base, GATE_TOLERANCE).is_empty());
        current.points[1].prepped_labels = 320.0; // +6.7 %
        let violations = compare_label_gate(&current, &base, GATE_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("d = 3"));
        assert!(violations[0].contains("prepped"));
    }

    #[test]
    fn label_gate_reports_config_and_shape_changes() {
        let base = small_label_baseline();
        let mut current = base.clone();
        current.config.nodes = 99;
        assert!(compare_label_gate(&current, &base, GATE_TOLERANCE)[0].contains("configuration"));
        let mut current = base.clone();
        current.points.pop();
        assert!(compare_label_gate(&current, &base, GATE_TOLERANCE)[0].contains("point count"));
        let mut current = base.clone();
        current.points[0].label = "d = 9".into();
        assert!(compare_label_gate(&current, &base, GATE_TOLERANCE)[0].contains("label changed"));
    }

    #[test]
    fn label_baseline_round_trips_through_json() {
        let b = small_label_baseline();
        let json = b.to_json();
        let parsed = LabelBaseline::from_json(&json).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn run_label_gate_is_deterministic() {
        let config = LabelGateConfig {
            nodes: 80,
            dims: vec![2],
            pairs: 2,
            seed: 2010,
        };
        let a = run_label_gate(&config);
        let b = run_label_gate(&config);
        assert_eq!(a, b);
        assert!(a.points[0].prepped_labels <= a.points[0].exhaustive_labels);
        assert!(a.points[0].prepped_labels > 0.0);
    }

    /// A two-point alpha baseline for the comparison tests.
    fn small_alpha_baseline() -> AlphaSettledBaseline {
        AlphaSettledBaseline {
            config: AlphaGateConfig::default(),
            points: vec![
                AlphaGatePoint {
                    label: "d = 2".into(),
                    dijkstra_settled: 100.0,
                    astar_settled: 30.0,
                    skyline_labels: 600.0,
                },
                AlphaGatePoint {
                    label: "d = 3".into(),
                    dijkstra_settled: 110.0,
                    astar_settled: 40.0,
                    skyline_labels: 1400.0,
                },
            ],
        }
    }

    #[test]
    fn alpha_gate_passes_jitter_fails_regressions() {
        let base = small_alpha_baseline();
        assert!(compare_alpha_gate(&base, &base, GATE_TOLERANCE).is_empty());
        let mut current = base.clone();
        current.points[0].astar_settled = 30.5; // +1.7 %
        current.points[1].dijkstra_settled = 100.0; // improvement
        assert!(compare_alpha_gate(&current, &base, GATE_TOLERANCE).is_empty());
        current.points[1].astar_settled = 44.0; // +10 %
        let violations = compare_alpha_gate(&current, &base, GATE_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("d = 3"));
        assert!(violations[0].contains("astar settled"));
    }

    #[test]
    fn alpha_gate_reports_config_and_shape_changes() {
        let base = small_alpha_baseline();
        let mut current = base.clone();
        current.config.users = 9;
        assert!(compare_alpha_gate(&current, &base, GATE_TOLERANCE)[0].contains("configuration"));
        let mut current = base.clone();
        current.points.pop();
        assert!(compare_alpha_gate(&current, &base, GATE_TOLERANCE)[0].contains("point count"));
        let mut current = base.clone();
        current.points[0].label = "d = 9".into();
        assert!(compare_alpha_gate(&current, &base, GATE_TOLERANCE)[0].contains("label changed"));
    }

    #[test]
    fn alpha_baseline_round_trips_through_json() {
        let b = small_alpha_baseline();
        let json = b.to_json();
        let parsed = AlphaSettledBaseline::from_json(&json).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn run_alpha_gate_is_deterministic() {
        let config = AlphaGateConfig {
            nodes: 80,
            dims: vec![2],
            pairs: 2,
            users: 2,
            seed: 2010,
        };
        let a = run_alpha_gate(&config);
        let b = run_alpha_gate(&config);
        assert_eq!(a, b);
        assert!(a.points[0].astar_settled <= a.points[0].dijkstra_settled);
        assert!(a.points[0].astar_settled > 0.0);
        assert!(a.points[0].skyline_labels > 0.0);
    }

    /// A two-point index baseline for the comparison tests.
    fn small_index_baseline() -> IndexSettledBaseline {
        IndexSettledBaseline {
            config: IndexGateConfig::default(),
            points: vec![
                IndexGatePoint {
                    label: "d = 2".into(),
                    index_settled: 20.0,
                    index_sky_settled: 60.0,
                    arc_entries: 2000.0,
                },
                IndexGatePoint {
                    label: "d = 3".into(),
                    index_settled: 25.0,
                    index_sky_settled: 150.0,
                    arc_entries: 3500.0,
                },
            ],
        }
    }

    #[test]
    fn index_gate_passes_jitter_fails_regressions() {
        let base = small_index_baseline();
        assert!(compare_index_gate(&base, &base, GATE_TOLERANCE).is_empty());
        let mut current = base.clone();
        current.points[0].index_settled = 20.3; // +1.5 %
        current.points[1].arc_entries = 3300.0; // improvement
        assert!(compare_index_gate(&current, &base, GATE_TOLERANCE).is_empty());
        current.points[1].index_settled = 27.0; // +8 %
        let violations = compare_index_gate(&current, &base, GATE_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("d = 3"));
        assert!(violations[0].contains("index settled"));
    }

    #[test]
    fn index_gate_reports_config_and_shape_changes() {
        let base = small_index_baseline();
        let mut current = base.clone();
        current.config.regions = 9;
        assert!(compare_index_gate(&current, &base, GATE_TOLERANCE)[0].contains("configuration"));
        let mut current = base.clone();
        current.points.pop();
        assert!(compare_index_gate(&current, &base, GATE_TOLERANCE)[0].contains("point count"));
        let mut current = base.clone();
        current.points[0].label = "d = 9".into();
        assert!(compare_index_gate(&current, &base, GATE_TOLERANCE)[0].contains("label changed"));
    }

    #[test]
    fn index_baseline_round_trips_through_json() {
        let b = small_index_baseline();
        let json = b.to_json();
        let parsed = IndexSettledBaseline::from_json(&json).unwrap();
        assert_eq!(parsed, b);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn run_index_gate_is_deterministic() {
        let config = IndexGateConfig {
            nodes: 80,
            dims: vec![2],
            pairs: 2,
            users: 2,
            regions: 2,
            seed: 2010,
        };
        let a = run_index_gate(&config);
        let b = run_index_gate(&config);
        assert_eq!(a, b);
        assert!(a.points[0].index_settled > 0.0);
        assert!(a.points[0].arc_entries > 0.0);
    }

    #[test]
    fn run_gate_is_deterministic_for_one_figure() {
        // The property the whole gate rests on: identical config ⇒ identical
        // logical reads. Checked here for one figure (cheap); CI checks all
        // nine through the binary.
        let config = GateConfig::default().experiment_config();
        let a = Experiment::SkylineCostTypes.run_points(&config);
        let b = Experiment::SkylineCostTypes.run_points(&config);
        let reads = |points: &[crate::measure::PointMeasurement]| {
            points
                .iter()
                .map(|p| (p.lsa.logical_reads, p.cea.logical_reads))
                .collect::<Vec<_>>()
        };
        assert_eq!(reads(&a), reads(&b));
        assert!(a.iter().all(|p| p.lsa.logical_reads > 0.0));
    }
}
