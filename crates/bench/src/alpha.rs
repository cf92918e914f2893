//! The `alpha` experiment: the scalarized preference *serving* tier.
//!
//! For every swept point — cost dimensions d = 2..4 × network sizes — the
//! experiment draws seeded source/target pairs and a pool of per-user
//! preference vectors α (via `mcn_gen::generate_preferences`), then
//! measures the same α-optimal route two ways:
//!
//! * **dijkstra** — `scalarized_path`, the heuristic-free binary-heap
//!   Dijkstra over α-collapsed edge costs;
//! * **astar** — `scalarized_path_astar`, driven by h(v) = α·L(v) from a
//!   [`PrepTable`] backward scan (built once per target and amortized
//!   across the user pool — the serving-tier regime).
//!
//! How the engine serves these requests through the prep cache (which
//! targets get a table, at what throughput and latency) is measured by the
//! repo benchmark's `alpha_serve` workload, not here.
//!
//! The full `pareto_paths_prepped` skyline also runs on every pair, putting
//! the two tiers side by side: the skyline *explores* every Pareto-optimal
//! route, the scalarized query *serves* the single best route for one
//! user's α at a fraction of the labels.
//!
//! Asserted on every run (not just reported):
//!
//! * every (pair, α) query's A* route is **byte-identical** to plain
//!   Dijkstra's (edge list and the raw bits of the scalarized total);
//! * with `assert_improvements` (the default): A* settles at least
//!   [`MIN_SETTLED_REDUCTION`]× fewer nodes than Dijkstra and the skyline
//!   creates at least [`MIN_SKYLINE_ADVANTAGE`]× more labels than A*
//!   settles nodes on the same pairs.

use crate::prep::point_spec;
use crate::report::json_safe;
use mcn_alpha::{scalarized_path, scalarized_path_astar, Preference, PreferenceEstimator};
use mcn_gen::{generate_preferences, generate_workload, PreferenceSpec, WorkloadSpec};
use mcn_graph::{MultiCostGraph, NodeId};
use mcn_mcpp::pareto_paths_prepped;
use mcn_obs::default_clock;
use mcn_prep::PrepTable;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Identifier of the alpha experiment in the `experiments` binary and its
/// report file name (`<id>.json`).
pub const ALPHA_ID: &str = "alpha";

/// Minimum factor by which the prep-backed A* must shrink the mean settled
/// nodes against heuristic-free Dijkstra (the acceptance bar of the
/// serving tier's heuristic).
pub const MIN_SETTLED_REDUCTION: f64 = 2.0;

/// Minimum factor between the skyline tier's labels created and the
/// scalarized tier's nodes settled on the same (source, target) pairs —
/// the "orders of magnitude cheaper" claim, enforced at 10×.
pub const MIN_SKYLINE_ADVANTAGE: f64 = 10.0;

/// Configuration of an alpha run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlphaConfig {
    /// Network sizes (node counts) swept; ignored when the topology comes
    /// from a file.
    pub nodes: Vec<usize>,
    /// Cost dimensions swept.
    pub dims: Vec<usize>,
    /// Source/target pairs measured per point.
    pub pairs: usize,
    /// Per-user preference vectors in the pool; every pair is queried once
    /// per user.
    pub users: usize,
    /// Observed routes fed to the [`PreferenceEstimator`] per point (each
    /// generated under a hidden α from the pool).
    pub estimator_routes: usize,
    /// Master seed for the workload, pair, α-pool and batch draws.
    pub seed: u64,
    /// Assert the settled-node reduction and the skyline advantage
    /// (disable for toy-sized unit-test networks; equality assertions
    /// always run).
    pub assert_improvements: bool,
    /// Where the network came from: `"synthetic"` or a loaded file path.
    pub source: String,
}

impl Default for AlphaConfig {
    fn default() -> Self {
        Self {
            nodes: vec![250, 500],
            dims: vec![2, 3, 4],
            pairs: 6,
            users: 6,
            estimator_routes: 4,
            seed: 2010,
            assert_improvements: true,
            source: "synthetic".to_string(),
        }
    }
}

/// One row of the alpha table: one cost dimension × one network size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlphaRow {
    /// Cost dimensions of this row.
    pub dims: usize,
    /// Nodes of the swept network.
    pub nodes: usize,
    /// Source/target pairs behind the means.
    pub pairs: usize,
    /// Preference vectors per pair.
    pub users: usize,
    /// Mean nodes settled per query by heuristic-free Dijkstra.
    pub dijkstra_settled: f64,
    /// Mean nodes settled per query by prep-backed A*.
    pub astar_settled: f64,
    /// `dijkstra_settled / astar_settled`.
    pub settled_reduction: f64,
    /// Mean labels created per pair by the `pareto_paths_prepped` skyline
    /// on the same pairs (the explore tier's cost).
    pub skyline_labels: f64,
    /// `skyline_labels / astar_settled` — how much cheaper serving one
    /// user's best route is than exploring every Pareto-optimal one.
    pub skyline_advantage: f64,
    /// Single-query throughput of plain Dijkstra (queries / wall).
    pub dijkstra_qps: f64,
    /// Single-query throughput of A*, backward scans amortized over the
    /// user pool (queries / wall, scan time included once per target).
    pub astar_qps: f64,
    /// Fraction of observed routes whose hidden α the estimator recovered
    /// (a preference under which the route is optimal).
    pub estimator_recovered: f64,
    /// Mean feasibility rounds per recovered route.
    pub estimator_rounds: f64,
}

/// The persisted alpha report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlphaReport {
    /// Always [`ALPHA_ID`].
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The configuration that produced the rows.
    pub config: AlphaConfig,
    /// One row per (dims × network size) point.
    pub rows: Vec<AlphaRow>,
}

impl AlphaReport {
    /// Serializes the report as indented JSON (the `--out` report format).
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses a report from its JSON representation.
    ///
    /// # Errors
    /// Returns the underlying JSON error message.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde::json::from_str(text).map_err(|e| e.to_string())
    }
}

/// The deterministic half of one point: mean settled nodes with and without
/// the heuristic and the skyline's labels on the same pairs, asserted
/// byte-identical routes throughout. Shared by the experiment rows and the
/// settled-node regression gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalarMetrics {
    /// Mean nodes settled per query, heuristic-free Dijkstra.
    pub dijkstra_settled: f64,
    /// Mean nodes settled per query, prep-backed A*.
    pub astar_settled: f64,
    /// Mean labels created per pair by the path-skyline search.
    pub skyline_labels: f64,
    /// Wall-clock seconds of the Dijkstra queries.
    pub dijkstra_secs: f64,
    /// Wall-clock seconds of the A* queries (scan included once per pair).
    pub astar_secs: f64,
}

/// Draws `pairs` deterministic source/target pairs over the graph's nodes
/// (a different stream than the prep experiment's, so the two sweeps do not
/// accidentally share routes).
fn seeded_pairs(graph: &MultiCostGraph, pairs: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA1FA_97B1);
    let n = graph.num_nodes();
    (0..pairs)
        .map(|_| {
            let s = NodeId::from(rng.gen_range(0..n));
            let mut t = NodeId::from(rng.gen_range(0..n));
            if t == s {
                t = NodeId::from((t.raw() as usize + 1) % n);
            }
            (s, t)
        })
        .collect()
}

/// The seeded per-user α pool of one point.
fn user_pool(d: usize, users: usize, seed: u64) -> Vec<Preference> {
    generate_preferences(&PreferenceSpec::uniform(users.max(1), d, seed))
        .iter()
        .map(|w| Preference::new(w).expect("generated weights are valid"))
        .collect()
}

/// Runs every (pair, α) query with and without the heuristic plus the
/// skyline search per pair, and returns the metrics.
///
/// # Panics
/// Panics if any A* route differs from plain Dijkstra's — the heuristic
/// must never change a result, only the work done finding it.
pub fn measure_scalarized(
    graph: &MultiCostGraph,
    pairs: usize,
    users: usize,
    seed: u64,
) -> ScalarMetrics {
    let pair_list = seeded_pairs(graph, pairs, seed);
    let pool = user_pool(graph.num_cost_types(), users, seed);
    let mut dijkstra_settled = 0u64;
    let mut astar_settled = 0u64;
    let mut skyline_labels = 0u64;
    let mut dijkstra_secs = 0.0f64;
    let mut astar_secs = 0.0f64;
    let clock = default_clock();
    for &(s, t) in &pair_list {
        let started = clock.now_ns();
        let prep = PrepTable::build(graph, t);
        for alpha in &pool {
            let run = scalarized_path_astar(graph, s, t, alpha, &prep);
            astar_settled += run.stats.settled;
        }
        astar_secs += clock.elapsed(started).as_secs_f64();

        let started = clock.now_ns();
        for alpha in &pool {
            let run = scalarized_path(graph, s, t, alpha);
            dijkstra_settled += run.stats.settled;
        }
        dijkstra_secs += clock.elapsed(started).as_secs_f64();

        // Routes must be identical query by query — re-run one pass outside
        // the timed loops so the timing numbers stay honest.
        for alpha in &pool {
            let plain = scalarized_path(graph, s, t, alpha);
            let astar = scalarized_path_astar(graph, s, t, alpha, &prep);
            match (plain.path, astar.path) {
                (Some(p), Some(a)) => {
                    assert_eq!(
                        p.edges,
                        a.edges,
                        "A* changed the {s} → {t} route for α = {:?}",
                        alpha.weights()
                    );
                    assert_eq!(
                        p.total.to_bits(),
                        a.total.to_bits(),
                        "A* changed the {s} → {t} scalarized total"
                    );
                }
                (None, None) => {}
                other => panic!("A* and Dijkstra disagree on reachability: {other:?}"),
            }
        }

        let skyline = pareto_paths_prepped(graph, s, t, &prep);
        skyline_labels += skyline.stats.labels_created;
    }
    let queries = (pair_list.len() * pool.len()).max(1) as f64;
    let n = pair_list.len().max(1) as f64;
    ScalarMetrics {
        dijkstra_settled: dijkstra_settled as f64 / queries,
        astar_settled: astar_settled as f64 / queries,
        skyline_labels: skyline_labels as f64 / n,
        dijkstra_secs,
        astar_secs,
    }
}

/// Feeds the estimator `routes` observed routes, each generated under a
/// hidden α from a dedicated seeded pool, and returns (recovered fraction,
/// mean rounds over recovered routes).
fn measure_estimator(graph: &MultiCostGraph, routes: usize, seed: u64) -> (f64, f64) {
    if routes == 0 {
        return (0.0, 0.0);
    }
    let pair_list = seeded_pairs(graph, routes, seed ^ 0x0E57);
    let hidden = user_pool(graph.num_cost_types(), routes, seed ^ 0x41D0);
    let estimator = PreferenceEstimator::new(graph);
    let mut recovered = 0usize;
    let mut rounds = 0u64;
    for (i, &(s, t)) in pair_list.iter().enumerate() {
        let Some(route) = scalarized_path(graph, s, t, &hidden[i]).path else {
            continue;
        };
        if let Some(outcome) = estimator.estimate(s, t, &route.edges) {
            recovered += 1;
            rounds += u64::from(outcome.rounds);
        }
    }
    (
        recovered as f64 / routes as f64,
        rounds as f64 / recovered.max(1) as f64,
    )
}

/// Runs one point over an explicit graph and returns its row.
fn measure_point(graph: &MultiCostGraph, config: &AlphaConfig) -> AlphaRow {
    let d = graph.num_cost_types();
    let metrics = measure_scalarized(graph, config.pairs, config.users, config.seed);
    let (estimator_recovered, estimator_rounds) =
        measure_estimator(graph, config.estimator_routes, config.seed);
    let queries = (config.pairs * config.users) as f64;
    let row = AlphaRow {
        dims: d,
        nodes: graph.num_nodes(),
        pairs: config.pairs,
        users: config.users,
        dijkstra_settled: json_safe(metrics.dijkstra_settled),
        astar_settled: json_safe(metrics.astar_settled),
        settled_reduction: json_safe(metrics.dijkstra_settled / metrics.astar_settled.max(1.0)),
        skyline_labels: json_safe(metrics.skyline_labels),
        skyline_advantage: json_safe(metrics.skyline_labels / metrics.astar_settled.max(1.0)),
        dijkstra_qps: json_safe(queries / metrics.dijkstra_secs.max(1e-12)),
        astar_qps: json_safe(queries / metrics.astar_secs.max(1e-12)),
        estimator_recovered: json_safe(estimator_recovered),
        estimator_rounds: json_safe(estimator_rounds),
    };
    if config.assert_improvements {
        assert!(
            row.settled_reduction >= MIN_SETTLED_REDUCTION,
            "A* settled only {:.2}× fewer nodes than Dijkstra \
             (< {MIN_SETTLED_REDUCTION}×) at {} nodes / d = {d}",
            row.settled_reduction,
            row.nodes
        );
        assert!(
            row.skyline_advantage >= MIN_SKYLINE_ADVANTAGE,
            "the skyline created only {:.2}× more labels than A* settled \
             nodes (< {MIN_SKYLINE_ADVANTAGE}×) at {} nodes / d = {d}",
            row.skyline_advantage,
            row.nodes
        );
    }
    row
}

/// Runs the alpha sweep on seeded synthetic workloads.
pub fn run_alpha(config: &AlphaConfig) -> AlphaReport {
    assert!(!config.dims.is_empty(), "no cost dimensions to sweep");
    assert!(!config.nodes.is_empty(), "no network sizes to sweep");
    let mut rows = Vec::with_capacity(config.dims.len() * config.nodes.len());
    for &d in &config.dims {
        for &nodes in &config.nodes {
            let workload = generate_workload(&point_spec(nodes, d, config.seed));
            rows.push(measure_point(&workload.graph, config));
        }
    }
    report(config, rows)
}

/// Runs the alpha sweep over an explicit network topology (e.g. a DIMACS
/// road network loaded through [`crate::prep::dimacs_graph`]): each swept
/// dimension
/// re-draws costs via [`mcn_gen::workload_on_graph`]; the `nodes` sweep is
/// ignored (the file defines the topology).
pub fn run_alpha_on_graph(config: &AlphaConfig, graph: &MultiCostGraph) -> AlphaReport {
    assert!(!config.dims.is_empty(), "no cost dimensions to sweep");
    let mut rows = Vec::with_capacity(config.dims.len());
    for &d in &config.dims {
        let spec = WorkloadSpec {
            cost_types: d,
            facilities: (graph.num_nodes() / 5).clamp(10, 100_000),
            queries: 4,
            seed: config.seed,
            ..WorkloadSpec::paper_default()
        };
        let workload = mcn_gen::workload_on_graph(graph, &spec);
        rows.push(measure_point(&workload.graph, config));
    }
    report(config, rows)
}

fn report(config: &AlphaConfig, rows: Vec<AlphaRow>) -> AlphaReport {
    AlphaReport {
        id: ALPHA_ID.to_string(),
        title: format!(
            "Scalarized preference serving tier — prep-backed A* vs Dijkstra vs \
             the skyline explore tier, over {}",
            config.source
        ),
        config: config.clone(),
        rows,
    }
}

/// Renders an alpha report in the fixed-width style of the other reports.
pub fn render_alpha_table(table: &AlphaReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {} [{}]\n", table.title, table.id));
    out.push_str(&format!(
        "({} pairs × {} users per point)\n",
        table.config.pairs, table.config.users
    ));
    out.push_str(&format!(
        "{:<4} {:>7} {:>12} {:>11} {:>8} {:>13} {:>9} {:>10} {:>10} {:>6}\n",
        "d",
        "nodes",
        "dij settled",
        "A* settled",
        "reduce",
        "skyline lbls",
        "advantage",
        "dij QPS",
        "A* QPS",
        "est%"
    ));
    for r in &table.rows {
        out.push_str(&format!(
            "{:<4} {:>7} {:>12.1} {:>11.1} {:>7.2}x {:>13.1} {:>8.1}x {:>10.1} \
             {:>10.1} {:>5.0}%\n",
            r.dims,
            r.nodes,
            r.dijkstra_settled,
            r.astar_settled,
            r.settled_reduction,
            r.skyline_labels,
            r.skyline_advantage,
            r.dijkstra_qps,
            r.astar_qps,
            r.estimator_recovered * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> AlphaConfig {
        AlphaConfig {
            nodes: vec![120],
            dims: vec![2, 3],
            pairs: 3,
            users: 3,
            estimator_routes: 2,
            // The ratio bars are set for the experiment's network sizes,
            // not for this toy one.
            assert_improvements: false,
            ..Default::default()
        }
    }

    #[test]
    fn alpha_sweep_reports_reductions_and_identical_routes() {
        let table = run_alpha(&tiny_config());
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            // The in-run assertions already proved byte-identical routes;
            // the heuristic must show up even at toy scale.
            assert!(row.astar_settled <= row.dijkstra_settled);
            assert!(row.settled_reduction >= 1.0);
            assert!(row.skyline_labels > 0.0);
            assert!(row.dijkstra_qps > 0.0 && row.astar_qps > 0.0);
        }
    }

    #[test]
    fn scalar_metrics_are_deterministic() {
        let config = tiny_config();
        let workload = generate_workload(&point_spec(120, 3, config.seed));
        let a = measure_scalarized(&workload.graph, config.pairs, config.users, config.seed);
        let b = measure_scalarized(&workload.graph, config.pairs, config.users, config.seed);
        assert_eq!(a.dijkstra_settled, b.dijkstra_settled);
        assert_eq!(a.astar_settled, b.astar_settled);
        assert_eq!(a.skyline_labels, b.skyline_labels);
        assert!(a.astar_settled < a.dijkstra_settled);
    }

    #[test]
    fn estimator_recovers_pool_routes() {
        let config = tiny_config();
        let workload = generate_workload(&point_spec(120, 3, config.seed));
        let (recovered, rounds) = measure_estimator(&workload.graph, 3, config.seed);
        assert!(recovered > 0.0);
        assert!(rounds >= 1.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let table = run_alpha(&AlphaConfig {
            dims: vec![2],
            ..tiny_config()
        });
        let json = table.to_json();
        let parsed = AlphaReport::from_json(&json).unwrap();
        assert_eq!(parsed, table);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn rendered_table_mentions_the_columns() {
        let table = run_alpha(&AlphaConfig {
            dims: vec![2],
            ..tiny_config()
        });
        let text = render_alpha_table(&table);
        assert!(text.contains("dij settled"));
        assert!(text.contains("A* settled"));
        assert!(text.contains("advantage"));
    }

    #[test]
    fn alpha_runs_on_an_explicit_graph() {
        let workload = generate_workload(&point_spec(100, 2, 7));
        let config = AlphaConfig {
            dims: vec![2, 3],
            source: "explicit".into(),
            ..tiny_config()
        };
        let table = run_alpha_on_graph(&config, &workload.graph);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0].nodes, workload.graph.num_nodes());
        assert_eq!(table.rows[0].dims, 2);
        assert_eq!(table.rows[1].dims, 3);
        assert!(table.title.contains("explicit"));
    }
}
