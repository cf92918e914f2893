//! The count regression gates: deterministic per-point costs compared
//! against checked-in baselines.
//!
//! Wall-clock is too noisy for CI, but the work the algorithms do is
//! deterministic — workloads, queries, pairs and preference vectors are all
//! seeded. Each of the four [`GATES`] re-measures one small fixed
//! configuration into a [`Baseline`]: labelled points of named costs, in
//! one group per figure for the figures' mean logical reads
//! (`logical_reads.json`) and in one unnamed group for the path tiers —
//! the path skyline's labels with and without ParetoPrep (`labels.json`),
//! the α tier's settled nodes (`alpha_settled.json`) and the route index's
//! settled nodes and size (`index_settled.json`). [`run_gate`] measures one
//! and fails when any cost grew by more than [`GATE_TOLERANCE`], or with
//! `--update` rewrites the baseline so the diff documents the cost shift
//! in review.
//!
//! Each gate also asserts its acceptance bar at its fixed configuration,
//! so a regression below it fails even under `--update`: CEA reads no more
//! pages than LSA at every figure point (the paper's I/O claim), prep's
//! [`MIN_LABEL_REDUCTION`] at d = 3, the α tier's
//! [`MIN_SETTLED_REDUCTION`] and [`MIN_SKYLINE_ADVANTAGE`] at every d, and
//! an exact (untruncated) route index.

use crate::alpha::{measure_scalarized, MIN_SETTLED_REDUCTION, MIN_SKYLINE_ADVANTAGE};
use crate::experiments::{Experiment, ExperimentConfig};
use crate::index::measure_index;
use crate::prep::{measure_labels, MIN_LABEL_REDUCTION};
use json::{object, Value};
use mcn_gen::{generate_workload, CostDistribution, WorkloadSpec};
use mcn_graph::MultiCostGraph;
use mcn_index::{IndexConfig, RouteIndex};
use std::path::Path;

/// Allowed relative increase of any gated cost (2 %).
pub const GATE_TOLERANCE: f64 = 0.02;

/// One gated point: its x-axis label (e.g. `"d = 3"`) and its costs, each
/// named by its JSON key.
#[derive(Clone, Debug, PartialEq)]
struct Point {
    label: String,
    /// `(JSON key, value)` per cost, in file order.
    costs: Vec<(String, f64)>,
}

/// A checked-in count baseline: a configuration plus the deterministic
/// costs measured at it.
#[derive(Clone, Debug, PartialEq)]
pub struct Baseline {
    /// The configuration the costs belong to, compared like for like.
    config: Value,
    /// Point groups: one per figure, named by its id, or one unnamed group.
    tables: Vec<(Option<String>, Vec<Point>)>,
}

/// One count gate: the `experiments gate` flag naming its file, its name
/// in messages, and its measurement at the fixed configuration.
pub struct Gate {
    /// The command-line flag taking the baseline path.
    pub flag: &'static str,
    /// What the gate pins, as named in violation messages.
    pub name: &'static str,
    /// Re-measures the costs; panics when the acceptance bar is missed.
    pub measure: fn() -> Baseline,
}

/// Every gate, in the order `experiments gate` runs them.
pub const GATES: [Gate; 4] = [
    Gate {
        flag: "--baseline",
        name: "logical reads",
        measure: logical_reads,
    },
    Gate {
        flag: "--labels",
        name: "labels",
        measure: || LABELS.measure(),
    },
    Gate {
        flag: "--alpha",
        name: "alpha",
        measure: || ALPHA.measure(),
    },
    Gate {
        flag: "--index",
        name: "index",
        measure: || INDEX.measure(),
    },
];

impl Point {
    fn new(label: String, costs: impl IntoIterator<Item = (&'static str, f64)>) -> Self {
        let costs = costs.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        Point { label, costs }
    }
}

impl Baseline {
    /// Every point with its row label — `"<id> [<label>]"` in a named
    /// group — in file order.
    fn rows(&self) -> Vec<(String, &Point)> {
        self.tables
            .iter()
            .flat_map(|(id, points)| {
                points.iter().map(move |p| match id {
                    Some(id) => (format!("{id} [{}]", p.label), p),
                    None => (p.label.clone(), p),
                })
            })
            .collect()
    }

    /// Serializes as indented JSON (the checked-in format).
    pub fn to_json(&self) -> String {
        let points = |points: &[Point]| -> Value {
            points
                .iter()
                .map(|p| {
                    let costs = p.costs.iter().map(|(k, v)| (k.as_str(), (*v).into()));
                    object(
                        [("label", p.label.as_str().into())]
                            .into_iter()
                            .chain(costs),
                    )
                })
                .collect()
        };
        let group = match self.tables.as_slice() {
            [(None, only)] => ("points", points(only)),
            tables => {
                let tables = tables.iter().map(|(id, ps)| {
                    let id = id.as_deref().unwrap_or_default();
                    object([("id", id.into()), ("points", points(ps))])
                });
                ("tables", tables.collect())
            }
        };
        object([("config", self.config.clone()), group]).pretty()
    }

    /// Parses the checked-in JSON; the error names the byte or field at
    /// fault.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let point = |p: &Value| -> Result<Point, String> {
            let costs = p.fields_except(&["label"])?.into_iter().map(|(key, v)| {
                let value = v.f64().map_err(|e| format!("field `{key}`: {e}"))?;
                Ok((key.to_string(), value))
            });
            Ok(Point {
                label: p.field("label", Value::string)?,
                costs: costs.collect::<Result<_, String>>()?,
            })
        };
        let config = root.field("config", |c| Ok(c.clone()))?;
        let tables = match root.fields_except(&["config"])?.as_slice() {
            [("points", _)] => vec![(None, root.list("points", point)?)],
            [("tables", _)] => root.list("tables", |table| {
                Ok((
                    Some(table.field("id", Value::string)?),
                    table.list("points", point)?,
                ))
            })?,
            _ => return Err("expected `config` and one of `points` or `tables`".into()),
        };
        Ok(Baseline { config, tables })
    }
}

/// Compares a fresh run of gate `name` against its baseline. Returns one
/// message per violation (empty = gate passed): a configuration, row-count,
/// row-label or cost-key mismatch, or any cost that grew by more than
/// `tolerance`. Improvements never fail the gate — refresh the baseline
/// with `--update` to lock them in.
pub fn compare(name: &str, current: &Baseline, baseline: &Baseline, tolerance: f64) -> Vec<String> {
    if current.config != baseline.config {
        let one_line = |v: &Value| v.pretty().lines().map(str::trim).collect::<String>();
        return vec![format!(
            "{name} gate configuration changed: baseline {} vs current {} \
             (re-create the baseline)",
            one_line(&baseline.config),
            one_line(&current.config)
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
    let keys = |p: &Point| p.costs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    let mut violations = Vec::new();
    for ((label, point), (base_label, base_point)) in current_rows.iter().zip(&baseline_rows) {
        if label != base_label {
            violations.push(format!(
                "{name} gate row label changed: `{base_label}` vs `{label}`"
            ));
        } else if keys(point) != keys(base_point) {
            violations.push(format!(
                "{name} gate costs of `{label}` changed: {:?} vs {:?}",
                keys(base_point),
                keys(point)
            ));
        } else {
            for ((cost, value), (_, base)) in point.costs.iter().zip(&base_point.costs) {
                if *value > base * (1.0 + tolerance) {
                    violations.push(format!(
                        "{name}: {label} {cost}: {value:.1} vs baseline {base:.1} \
                         (+{:.1}% > {:.0}% allowed)",
                        (value / base - 1.0) * 100.0,
                        tolerance * 100.0
                    ));
                }
            }
        }
    }
    violations
}

/// Measures `gate` at its fixed configuration, then rewrites the baseline
/// at `path` (`update`) or compares against it. Returns the number of
/// points measured and the violations (always none on `update`).
///
/// # Errors
/// Returns a message when the baseline cannot be read, parsed or written.
pub fn run_gate(gate: &Gate, path: &Path, update: bool) -> Result<(usize, Vec<String>), String> {
    let current = (gate.measure)();
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
        Baseline::from_json(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    Ok((
        rows,
        compare(gate.name, &current, &baseline, GATE_TOLERANCE),
    ))
}

/// The seeded network the per-dimension gates measure on: `nodes` nodes
/// with `d` anti-correlated costs (facility and query counts do not touch
/// the path tiers, so they stay small).
pub fn gate_graph(nodes: usize, d: usize, seed: u64) -> MultiCostGraph {
    generate_workload(&WorkloadSpec {
        nodes,
        facilities: (nodes / 5).max(10),
        cost_types: d,
        distribution: CostDistribution::AntiCorrelated,
        clusters: 4,
        queries: 4,
        seed,
    })
    .graph
}

/// The logical-read gate's configuration: scale 1/2000, two queries per
/// figure point, seed 2010.
fn logical_reads_config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 2000,
        queries: Some(2),
        seed: 2010,
        ..Default::default()
    }
}

/// Runs every figure sweep and keeps each point's mean logical reads.
///
/// # Panics
/// Panics if CEA reads more pages than LSA at any point — the paper's
/// headline I/O claim.
fn logical_reads() -> Baseline {
    let c = logical_reads_config();
    let tables = Experiment::all().into_iter().map(|experiment| {
        let points = experiment.run_points(&c).into_iter().map(|p| {
            let (lsa, cea) = (p.lsa.logical_reads, p.cea.logical_reads);
            assert!(
                cea <= lsa,
                "CEA read more pages than LSA at {} [{}]: {cea} > {lsa}",
                experiment.id(),
                p.label
            );
            Point::new(
                p.label,
                [("lsa_logical_reads", lsa), ("cea_logical_reads", cea)],
            )
        });
        (Some(experiment.id().to_string()), points.collect())
    });
    let config = object([
        ("scale", c.scale.into()),
        ("queries", c.queries.unwrap_or_default().into()),
        ("seed", c.seed.into()),
    ]);
    Baseline {
        config,
        tables: tables.collect(),
    }
}

/// The fixed configuration of a path-tier gate: one point per swept
/// dimension, measured on [`gate_graph`] by `point`.
struct PathGate {
    /// Nodes of the seeded gate network.
    nodes: usize,
    /// Cost dimensions measured.
    dims: &'static [usize],
    /// Source/target pairs per dimension.
    pairs: usize,
    /// Preference vectors per pair (the α and index gates).
    users: Option<usize>,
    /// Master seed.
    seed: u64,
    /// Measures one dimension's named costs on its network, asserting the
    /// tier's acceptance bar at the point labelled by the third argument.
    point: fn(&PathGate, &MultiCostGraph, &str) -> Vec<(&'static str, f64)>,
}

/// Mean labels created per seeded pair, with and without prep, per
/// dimension. [`measure_labels`] asserts byte-identical skylines.
///
/// # Panics
/// Panics if prep shrinks the d = 3 labels by less than
/// [`MIN_LABEL_REDUCTION`].
const LABELS: PathGate = PathGate {
    nodes: 150,
    dims: &[2, 3, 4],
    pairs: 3,
    users: None,
    seed: 2010,
    point: |gate, graph, label| {
        let m = measure_labels(graph, gate.pairs, gate.seed);
        let reduction = m.exhaustive_labels / m.prepped_labels.max(1.0);
        assert!(
            graph.num_cost_types() != 3 || reduction >= MIN_LABEL_REDUCTION,
            "prep reduced {label} labels only {reduction:.2}× (< {MIN_LABEL_REDUCTION}×)"
        );
        vec![
            ("exhaustive_labels", m.exhaustive_labels),
            ("prepped_labels", m.prepped_labels),
        ]
    },
};

/// Mean nodes settled per seeded (pair, α) query with and without the
/// prep heuristic, and the prepped skyline's labels on the same pairs, per
/// dimension. [`measure_scalarized`] asserts byte-identical A*/Dijkstra
/// routes.
///
/// # Panics
/// Panics if A* settles less than [`MIN_SETTLED_REDUCTION`]× fewer nodes
/// than Dijkstra, or the skyline creates less than
/// [`MIN_SKYLINE_ADVANTAGE`]× more labels than A* settles nodes.
const ALPHA: PathGate = PathGate {
    users: Some(3),
    point: |gate, graph, label| {
        let m = measure_scalarized(graph, gate.pairs, gate.users(), gate.seed);
        let astar = m.astar_settled.max(1.0);
        let reduction = m.dijkstra_settled / astar;
        assert!(
            reduction >= MIN_SETTLED_REDUCTION,
            "A* settled only {reduction:.2}× fewer nodes than Dijkstra at {label} \
             (< {MIN_SETTLED_REDUCTION}×)"
        );
        let advantage = m.skyline_labels / astar;
        assert!(
            advantage >= MIN_SKYLINE_ADVANTAGE,
            "the skyline created only {advantage:.2}× more labels than A* settled nodes \
             at {label} (< {MIN_SKYLINE_ADVANTAGE}×)"
        );
        vec![
            ("dijkstra_settled", m.dijkstra_settled),
            ("astar_settled", m.astar_settled),
            ("skyline_labels", m.skyline_labels),
        ]
    },
    ..LABELS
};

/// The route index's mean settled nodes per seeded α query and skyline
/// pair, and its size, per dimension. [`measure_index`] asserts
/// byte-identical answers against the prep tier.
///
/// # Panics
/// Panics if a build truncates a shortcut bundle (the index would not
/// serve).
const INDEX: PathGate = PathGate {
    users: Some(3),
    point: |gate, graph, label| {
        let index = RouteIndex::build(graph, &IndexConfig::default());
        assert!(
            index.exact(),
            "the index build went inexact at {label}: raise max_bundle or the witness budget"
        );
        let m = measure_index(graph, &index, gate.pairs, gate.users(), gate.seed);
        vec![
            ("index_settled", m.index_settled),
            ("index_sky_settled", m.index_sky_settled),
            ("arc_entries", index.arc_entries() as f64),
        ]
    },
    ..LABELS
};

impl PathGate {
    /// The preference vectors per pair of a gate that sets them.
    fn users(&self) -> usize {
        self.users.expect("the gate measures preference vectors")
    }

    /// Measures one point per dimension, labelled `"d = <d>"`.
    fn measure(&self) -> Baseline {
        let points = self.dims.iter().map(|&d| {
            let label = format!("d = {d}");
            let costs = (self.point)(self, &gate_graph(self.nodes, d, self.seed), &label);
            Point::new(label, costs)
        });
        let dims: Value = self.dims.iter().map(|&d| d.into()).collect();
        let users = self.users.map(|users| ("users", users.into()));
        let config = [("nodes", self.nodes.into()), ("dims", dims)]
            .into_iter()
            .chain([("pairs", self.pairs.into())])
            .chain(users)
            .chain([("seed", self.seed.into())]);
        Baseline {
            config: object(config),
            tables: vec![(None, points.collect())],
        }
    }
}

mod json;
#[cfg(test)]
mod tests;
