//! The `index` experiment: the hierarchical partial-path route index
//! (`mcn-index`) against the prep-backed serving tier.
//!
//! For every swept point — cost dimensions × network sizes — the experiment
//! builds a [`RouteIndex`] over the seeded workload graph (build time and
//! size are part of the row), then answers the same seeded (pair, α)
//! queries two ways:
//!
//! * **prep tier** — a [`PrepTable`] backward scan per target followed by
//!   `scalarized_path_astar` per user (the existing serving tier; the scan
//!   is the tier's per-target cold cost);
//! * **index tier** — [`RouteIndex::alpha_path`], a bidirectional upward
//!   search over the hierarchy, no per-target precomputation at all.
//!
//! The full path skyline runs the same comparison:
//! `pareto_paths_prepped` vs [`RouteIndex::skyline_paths`].
//!
//! Asserted on every run (not just reported):
//!
//! * every (pair, α) index route is **byte-identical** to the prep-backed
//!   A* route (edge list and the raw bits of the scalarized total), and
//!   every index skyline equals the prepped skyline label-for-label;
//! * the index is exact (no shortcut bundle was truncated);
//! * with `assert_improvements` (the default): a cold α-query through the
//!   index settles at least [`MIN_INDEX_REDUCTION`]× fewer nodes than the
//!   prep tier's scan + A* for the same fresh target.

use crate::prep::point_spec;
use crate::report::json_safe;
use mcn_alpha::{scalarized_path_astar, Preference};
use mcn_gen::{generate_preferences, generate_workload, PreferenceSpec, WorkloadSpec};
use mcn_graph::{MultiCostGraph, NodeId};
use mcn_index::{IndexConfig, RouteIndex};
use mcn_mcpp::pareto_paths_prepped;
use mcn_obs::default_clock;
use mcn_prep::PrepTable;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Identifier of the index experiment in the `experiments` binary and its
/// report file name (`<id>.json`).
pub const INDEX_ID: &str = "index";

/// Minimum factor between the prep tier's cold per-target cost (backward
/// scan + one A* query) and one index query's settled nodes — the
/// acceptance bar of the route index.
pub const MIN_INDEX_REDUCTION: f64 = 10.0;

/// Configuration of an index experiment run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexExperimentConfig {
    /// Network sizes (node counts) swept; ignored when the topology comes
    /// from a file.
    pub nodes: Vec<usize>,
    /// Cost dimensions swept.
    pub dims: Vec<usize>,
    /// Source/target pairs measured per point.
    pub pairs: usize,
    /// Per-user preference vectors; every pair is queried once per user.
    pub users: usize,
    /// Build regions of the index (1 = sequential contraction).
    pub regions: usize,
    /// Master seed for the workload, pair and α draws.
    pub seed: u64,
    /// Assert the cold settled-node reduction (disable for timing-hostile
    /// unit-test environments; identity assertions always run).
    pub assert_improvements: bool,
    /// Where the network came from: `"synthetic"` or a loaded file path.
    pub source: String,
}

impl Default for IndexExperimentConfig {
    fn default() -> Self {
        Self {
            nodes: vec![200, 250],
            dims: vec![2, 3, 4],
            pairs: 6,
            users: 6,
            regions: 1,
            seed: 2010,
            assert_improvements: true,
            source: "synthetic".to_string(),
        }
    }
}

/// One row of the index table: one cost dimension × one network size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexRow {
    /// Cost dimensions of this row.
    pub dims: usize,
    /// Nodes of the swept network.
    pub nodes: usize,
    /// Source/target pairs behind the means.
    pub pairs: usize,
    /// Preference vectors per pair.
    pub users: usize,
    /// Wall-clock seconds of the index build.
    pub build_secs: f64,
    /// Shortcut entries the contraction inserted.
    pub shortcuts: u64,
    /// Upward-arc entries over both directions (the index's size).
    pub arc_entries: u64,
    /// Fragments in the partial-path arena.
    pub fragments: u64,
    /// Mean nodes settled per (pair, α) query by the index.
    pub index_settled: f64,
    /// Mean nodes settled per (pair, α) query by prep-backed A* (scan
    /// excluded — the warm tier).
    pub astar_settled: f64,
    /// Mean queue pops of one prep backward scan (the tier's per-target
    /// cold cost).
    pub prep_scan_settled: f64,
    /// `(prep_scan_settled + astar_settled) / index_settled` — one cold
    /// query to a fresh target, tier vs index.
    pub cold_reduction: f64,
    /// `astar_settled / index_settled` — the amortized (warm-table)
    /// comparison.
    pub warm_reduction: f64,
    /// Mean labels the prepped path skyline created per pair.
    pub skyline_labels: f64,
    /// Mean labels the index skyline settled per pair.
    pub index_sky_settled: f64,
    /// Index α-query throughput (queries / wall).
    pub index_qps: f64,
    /// Prep-tier α-query throughput with the scan paid once per pair
    /// (queries / wall).
    pub prep_qps: f64,
    /// Median per-query latency of the index α-queries, in milliseconds
    /// (deterministic log2 histogram over a dedicated measurement pass).
    pub p50_ms: f64,
    /// 95th-percentile per-query index latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile per-query index latency (ms).
    pub p99_ms: f64,
}

/// The persisted index report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexReport {
    /// Always [`INDEX_ID`].
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The configuration that produced the rows.
    pub config: IndexExperimentConfig,
    /// One row per (dims × network size) point.
    pub rows: Vec<IndexRow>,
}

impl IndexReport {
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

/// The deterministic half of one point: mean settled nodes of the index vs
/// the prep tier on the same seeded queries, byte-identical answers
/// asserted throughout. Shared by the experiment rows and the index
/// regression gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IndexMetrics {
    /// Mean nodes settled per (pair, α) query by the index.
    pub index_settled: f64,
    /// Mean nodes settled per (pair, α) query by prep-backed A*.
    pub astar_settled: f64,
    /// Mean queue pops of one prep backward scan.
    pub prep_scan_settled: f64,
    /// Mean labels the prepped skyline created per pair.
    pub skyline_labels: f64,
    /// Mean labels the index skyline settled per pair.
    pub index_sky_settled: f64,
    /// Wall-clock seconds of the index α-queries.
    pub index_secs: f64,
    /// Wall-clock seconds of the prep-tier α-queries (scan included once
    /// per pair).
    pub prep_secs: f64,
}

/// Draws `pairs` deterministic source/target pairs (its own stream, so the
/// index sweep does not share routes with the alpha experiment's).
fn seeded_pairs(graph: &MultiCostGraph, pairs: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1DE8_CAFE);
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
    generate_preferences(&PreferenceSpec::uniform(users.max(1), d, seed ^ 0x1DE8))
        .iter()
        .map(|w| Preference::new(w).expect("generated weights are valid"))
        .collect()
}

/// Runs every (pair, α) query through both tiers plus the skyline per pair
/// and returns the metrics.
///
/// # Panics
/// Panics if any index answer differs from the prep-backed tier's — the
/// index must never change a result, only the work done finding it.
pub fn measure_index(
    graph: &MultiCostGraph,
    index: &RouteIndex,
    pairs: usize,
    users: usize,
    seed: u64,
) -> IndexMetrics {
    let pair_list = seeded_pairs(graph, pairs, seed);
    let pool = user_pool(graph.num_cost_types(), users, seed);
    let mut index_settled = 0u64;
    let mut astar_settled = 0u64;
    let mut prep_scan_settled = 0u64;
    let mut skyline_labels = 0u64;
    let mut index_sky_settled = 0u64;
    let mut index_secs = 0.0f64;
    let mut prep_secs = 0.0f64;
    let clock = default_clock();
    for &(s, t) in &pair_list {
        let started = clock.now_ns();
        for alpha in &pool {
            let run = index.alpha_path(graph, s, t, alpha);
            index_settled += run.stats.settled;
        }
        index_secs += clock.elapsed(started).as_secs_f64();

        let started = clock.now_ns();
        let prep = PrepTable::build(graph, t);
        for alpha in &pool {
            let run = scalarized_path_astar(graph, s, t, alpha, &prep);
            astar_settled += run.stats.settled;
        }
        prep_secs += clock.elapsed(started).as_secs_f64();
        prep_scan_settled += prep.settled();

        // Answers must be identical query by query — re-run one pass
        // outside the timed loops so the timing numbers stay honest.
        for alpha in &pool {
            let tier = scalarized_path_astar(graph, s, t, alpha, &prep);
            let via = index.alpha_path(graph, s, t, alpha);
            match (tier.path, via.path) {
                (Some(p), Some(i)) => {
                    assert_eq!(
                        p.edges,
                        i.edges,
                        "the index changed the {s} → {t} route for α = {:?}",
                        alpha.weights()
                    );
                    assert_eq!(
                        p.total.to_bits(),
                        i.total.to_bits(),
                        "the index changed the {s} → {t} scalarized total"
                    );
                }
                (None, None) => {}
                other => panic!("index and prep tier disagree on reachability: {other:?}"),
            }
        }

        let tier_sky = pareto_paths_prepped(graph, s, t, &prep);
        let via_sky = index.skyline_paths(graph, s, t);
        assert_eq!(
            tier_sky.paths, via_sky.paths,
            "the index changed the {s} → {t} path skyline"
        );
        skyline_labels += tier_sky.stats.labels_created;
        index_sky_settled += via_sky.stats.settled;
    }
    let queries = (pair_list.len() * pool.len()).max(1) as f64;
    let n = pair_list.len().max(1) as f64;
    IndexMetrics {
        index_settled: index_settled as f64 / queries,
        astar_settled: astar_settled as f64 / queries,
        prep_scan_settled: prep_scan_settled as f64 / n,
        skyline_labels: skyline_labels as f64 / n,
        index_sky_settled: index_sky_settled as f64 / n,
        index_secs,
        prep_secs,
    }
}

/// The build configuration of one point.
fn build_config(config: &IndexExperimentConfig) -> IndexConfig {
    IndexConfig {
        regions: config.regions.max(1),
        seed: config.seed,
        ..IndexConfig::default()
    }
}

/// Builds the index over one graph and measures its row.
fn measure_point(graph: &MultiCostGraph, config: &IndexExperimentConfig) -> IndexRow {
    let d = graph.num_cost_types();
    let clock = default_clock();
    let started = clock.now_ns();
    let index = RouteIndex::build(graph, &build_config(config));
    let build_secs = clock.elapsed(started).as_secs_f64();
    assert!(
        index.exact(),
        "index build went inexact at {} nodes / d = {d} — raise max_bundle or \
         the witness budget",
        graph.num_nodes()
    );
    let metrics = measure_index(graph, &index, config.pairs, config.users, config.seed);
    // A dedicated per-query latency pass over the same seeded queries (the
    // aggregate loops above time whole pools, which hides tail behaviour).
    let latency = mcn_obs::Histogram::new();
    for &(s, t) in &seeded_pairs(graph, config.pairs, config.seed) {
        for alpha in &user_pool(d, config.users, config.seed) {
            let t0 = clock.now_ns();
            let run = index.alpha_path(graph, s, t, alpha);
            latency.record(clock.now_ns().saturating_sub(t0));
            std::hint::black_box(run.stats.settled);
        }
    }
    let latency = latency.snapshot("index.latency_ns", Vec::new());
    let queries = (config.pairs * config.users) as f64;
    let row = IndexRow {
        dims: d,
        nodes: graph.num_nodes(),
        pairs: config.pairs,
        users: config.users,
        build_secs: json_safe(build_secs),
        shortcuts: index.shortcuts(),
        arc_entries: index.arc_entries(),
        fragments: index.num_fragments() as u64,
        index_settled: json_safe(metrics.index_settled),
        astar_settled: json_safe(metrics.astar_settled),
        prep_scan_settled: json_safe(metrics.prep_scan_settled),
        cold_reduction: json_safe(
            (metrics.prep_scan_settled + metrics.astar_settled) / metrics.index_settled.max(1.0),
        ),
        warm_reduction: json_safe(metrics.astar_settled / metrics.index_settled.max(1.0)),
        skyline_labels: json_safe(metrics.skyline_labels),
        index_sky_settled: json_safe(metrics.index_sky_settled),
        index_qps: json_safe(queries / metrics.index_secs.max(1e-12)),
        prep_qps: json_safe(queries / metrics.prep_secs.max(1e-12)),
        p50_ms: json_safe(latency.p50 as f64 / 1e6),
        p95_ms: json_safe(latency.p95 as f64 / 1e6),
        p99_ms: json_safe(latency.p99 as f64 / 1e6),
    };
    if config.assert_improvements {
        assert!(
            row.cold_reduction >= MIN_INDEX_REDUCTION,
            "a cold index query settled only {:.2}× fewer nodes than the prep \
             tier's scan + A* (< {MIN_INDEX_REDUCTION}×) at {} nodes / d = {d}",
            row.cold_reduction,
            row.nodes
        );
    }
    row
}

/// Runs the index sweep on seeded synthetic workloads.
pub fn run_index(config: &IndexExperimentConfig) -> IndexReport {
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

/// Runs the index sweep over an explicit network topology (e.g. a DIMACS
/// road network loaded through [`crate::prep::dimacs_graph`]): each swept
/// dimension re-draws costs via [`mcn_gen::workload_on_graph`]; the `nodes`
/// sweep is ignored (the file defines the topology).
pub fn run_index_on_graph(config: &IndexExperimentConfig, graph: &MultiCostGraph) -> IndexReport {
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

fn report(config: &IndexExperimentConfig, rows: Vec<IndexRow>) -> IndexReport {
    IndexReport {
        id: INDEX_ID.to_string(),
        title: format!(
            "Hierarchical partial-path route index — contraction shortcuts vs \
             the prep-backed serving tier, over {}",
            config.source
        ),
        config: config.clone(),
        rows,
    }
}

/// Renders an index report in the fixed-width style of the other reports.
pub fn render_index_table(table: &IndexReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {} [{}]\n", table.title, table.id));
    out.push_str(&format!(
        "({} pairs × {} users per point; {} build regions)\n",
        table.config.pairs, table.config.users, table.config.regions
    ));
    out.push_str(&format!(
        "{:<4} {:>7} {:>9} {:>10} {:>11} {:>11} {:>10} {:>9} {:>9} {:>11} {:>11} {:>9} {:>9}\n",
        "d",
        "nodes",
        "build s",
        "entries",
        "idx settle",
        "A* settle",
        "scan pops",
        "cold",
        "warm",
        "idx QPS",
        "prep QPS",
        "p50(ms)",
        "p95(ms)"
    ));
    for r in &table.rows {
        out.push_str(&format!(
            "{:<4} {:>7} {:>9.3} {:>10} {:>11.1} {:>11.1} {:>10.1} {:>8.1}x {:>8.2}x \
             {:>11.1} {:>11.1} {:>9.3} {:>9.3}\n",
            r.dims,
            r.nodes,
            r.build_secs,
            r.arc_entries,
            r.index_settled,
            r.astar_settled,
            r.prep_scan_settled,
            r.cold_reduction,
            r.warm_reduction,
            r.index_qps,
            r.prep_qps,
            r.p50_ms,
            r.p95_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> IndexExperimentConfig {
        IndexExperimentConfig {
            nodes: vec![100],
            dims: vec![2, 3],
            pairs: 3,
            users: 3,
            regions: 2,
            // Unit tests run in debug on loaded machines; the ratio
            // assertions belong to the release-mode experiment runs.
            assert_improvements: false,
            ..Default::default()
        }
    }

    #[test]
    fn index_sweep_reports_identical_answers_and_size() {
        let table = run_index(&tiny_config());
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            // The in-run assertions already proved byte-identical answers.
            assert!(row.build_secs >= 0.0);
            assert!(row.arc_entries > 0);
            assert!(row.fragments > 0);
            assert!(row.index_settled > 0.0);
            assert!(row.cold_reduction >= 1.0);
            assert!(row.index_qps > 0.0 && row.prep_qps > 0.0);
        }
    }

    #[test]
    fn index_metrics_are_deterministic() {
        let config = tiny_config();
        let workload = generate_workload(&point_spec(100, 2, config.seed));
        let index = RouteIndex::build(&workload.graph, &build_config(&config));
        let a = measure_index(
            &workload.graph,
            &index,
            config.pairs,
            config.users,
            config.seed,
        );
        let b = measure_index(
            &workload.graph,
            &index,
            config.pairs,
            config.users,
            config.seed,
        );
        assert_eq!(a.index_settled, b.index_settled);
        assert_eq!(a.astar_settled, b.astar_settled);
        assert_eq!(a.prep_scan_settled, b.prep_scan_settled);
        assert!(a.index_settled > 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let table = run_index(&IndexExperimentConfig {
            dims: vec![2],
            ..tiny_config()
        });
        let json = table.to_json();
        let parsed = IndexReport::from_json(&json).unwrap();
        assert_eq!(parsed, table);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn rendered_table_mentions_the_columns() {
        let table = run_index(&IndexExperimentConfig {
            dims: vec![2],
            ..tiny_config()
        });
        let text = render_index_table(&table);
        assert!(text.contains("idx settle"));
        assert!(text.contains("scan pops"));
        assert!(text.contains("build s"));
    }

    #[test]
    fn index_runs_on_an_explicit_graph() {
        let workload = generate_workload(&point_spec(90, 2, 7));
        let config = IndexExperimentConfig {
            dims: vec![2, 3],
            source: "explicit".into(),
            ..tiny_config()
        };
        let table = run_index_on_graph(&config, &workload.graph);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0].nodes, workload.graph.num_nodes());
        assert_eq!(table.rows[0].dims, 2);
        assert_eq!(table.rows[1].dims, 3);
        assert!(table.title.contains("explicit"));
    }
}
