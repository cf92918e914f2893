//! The `prep` experiment: ParetoPrep precomputation for path-skyline
//! queries.
//!
//! For every swept point — cost dimensions d = 2..4 × network sizes — the
//! experiment draws seeded source/target pairs and runs the multi-criteria
//! path-skyline search three ways:
//!
//! * **exhaustive** — the classic label-correcting baseline
//!   (`pareto_paths_exhaustive`), no pruning beyond node-level dominance;
//! * **prepped** — `pareto_paths_prepped` with a fresh [`PrepTable`]
//!   backward scan per pair (the "with prep, cold" single-query cost,
//!   scan included);
//! * **engine** — a batch of [`QueryRequest::PathSkyline`] requests over a
//!   small pool of repeated targets, served by the [`QueryEngine`] through
//!   a [`PathContext`]'s bounded [`mcn_prep::PrepCache`], once with a cold
//!   cache and once warm.
//!
//! Reported per row: mean labels created with and without prep, the label
//! reduction factor and prune fraction, single-query QPS with/without prep,
//! and engine QPS cold vs warm cache. Three facts are **asserted** on every
//! run, not just reported:
//!
//! * every pair's pruned path skyline is **byte-identical** to the
//!   exhaustive baseline (fingerprint comparison; the workloads draw
//!   continuous costs, so the exact-tie representative caveat on
//!   `mcn_mcpp::pareto_paths` cannot trigger);
//! * cold-cache and warm-cache engine batches are fingerprint-identical;
//! * with `assert_improvements` (the default): every d = 3 row shows at
//!   least a [`MIN_LABEL_REDUCTION`]× reduction in labels created, and
//!   every row's warm batch is served from the cache alone — no scan, one
//!   hit per request (counts, not timings: the QPS columns are reported
//!   only).

use crate::report::json_safe;
use mcn_engine::{PathContext, QueryEngine, QueryOutput, QueryRequest};
use mcn_gen::{generate_workload, CostDistribution, WorkloadSpec};
use mcn_graph::{MultiCostGraph, NodeId};
use mcn_mcpp::{pareto_paths_exhaustive, pareto_paths_prepped};
use mcn_obs::default_clock;
use mcn_prep::{PrepCacheStats, PrepTable};
use mcn_storage::{BufferConfig, MCNStore};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifier of the prep experiment in the `experiments` binary and its
/// report file name (`<id>.json`).
pub const PREP_ID: &str = "prep";

/// Minimum factor by which prep must shrink the mean labels created at
/// d = 3 (the acceptance bar of the precomputation subsystem).
pub const MIN_LABEL_REDUCTION: f64 = 2.0;

/// Configuration of a prep run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PrepConfig {
    /// Network sizes (node counts) swept; ignored when the topology comes
    /// from a file.
    pub nodes: Vec<usize>,
    /// Cost dimensions swept.
    pub dims: Vec<usize>,
    /// Source/target pairs measured per point (the label metrics).
    pub pairs: usize,
    /// Requests in the engine batch.
    pub batch: usize,
    /// Distinct targets the engine batch cycles over (the cache's reuse).
    pub targets: usize,
    /// Worker threads of the engine runs.
    pub workers: usize,
    /// Capacity of the engine's prep-table cache.
    pub cache_capacity: usize,
    /// Master seed for the workload and the pair/batch draws.
    pub seed: u64,
    /// Assert the ≥ [`MIN_LABEL_REDUCTION`]× label reduction at d = 3 and a
    /// warm batch served from the cache alone (disable for toy networks or
    /// a cache smaller than the target pool; equality assertions always
    /// run).
    pub assert_improvements: bool,
    /// Where the network came from: `"synthetic"` or a loaded file path.
    pub source: String,
}

impl Default for PrepConfig {
    fn default() -> Self {
        Self {
            nodes: vec![250, 500],
            dims: vec![2, 3, 4],
            pairs: 6,
            // Triple within-batch reuse per target, and a cache large
            // enough to hold the whole target pool: the cold run pays one
            // backward scan per target, the warm run none — which is the
            // regime the cache exists for. (A capacity below the pool size
            // degrades the warm run towards the cold one; sweep
            // --prep-cache to see the cliff.)
            batch: 72,
            targets: 24,
            workers: 4,
            cache_capacity: 32,
            seed: 2010,
            assert_improvements: true,
            source: "synthetic".to_string(),
        }
    }
}

/// One row of the prep table: one cost dimension × one network size.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PrepRow {
    /// Cost dimensions of this row.
    pub dims: usize,
    /// Nodes of the swept network.
    pub nodes: usize,
    /// Source/target pairs behind the label means.
    pub pairs: usize,
    /// Mean path-skyline size over the pairs.
    pub skyline_size: f64,
    /// Mean labels created per pair by the exhaustive baseline.
    pub exhaustive_labels: f64,
    /// Mean labels created per pair by the prepped search.
    pub prepped_labels: f64,
    /// `exhaustive_labels / prepped_labels`.
    pub label_reduction: f64,
    /// Mean fraction of created candidates removed by bound pruning.
    pub prune_fraction: f64,
    /// Single-query throughput of the exhaustive baseline (pairs / wall).
    pub exhaustive_qps: f64,
    /// Single-query throughput of the prepped search, backward scan
    /// included (pairs / wall).
    pub prepped_qps: f64,
    /// Engine batch throughput with a cold prep cache.
    pub cold_qps: f64,
    /// Engine batch throughput re-running the same batch warm.
    pub warm_qps: f64,
    /// `warm_qps / cold_qps`.
    pub warm_speedup: f64,
    /// Cache hits over one cold + warm cycle (`clear_cache` resets the
    /// counters before each measured repeat; the last repeat is reported).
    pub cache_hits: u64,
    /// Cache misses — backward scans actually executed — over the same
    /// cold + warm cycle as [`PrepRow::cache_hits`].
    pub cache_misses: u64,
    /// `hits / (hits + misses)` of the same cold + warm cycle.
    pub cache_hit_ratio: f64,
}

/// The persisted prep report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PrepReport {
    /// Always [`PREP_ID`].
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The configuration that produced the rows.
    pub config: PrepConfig,
    /// One row per (dims × network size) point.
    pub rows: Vec<PrepRow>,
}

impl PrepReport {
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

/// The deterministic half of one point: mean labels with/without prep over
/// seeded pairs, asserted byte-identical. Shared by the experiment rows and
/// the label regression gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LabelMetrics {
    /// Mean labels created per pair, exhaustive.
    pub exhaustive_labels: f64,
    /// Mean labels created per pair, prepped.
    pub prepped_labels: f64,
    /// Mean bound-prune fraction.
    pub prune_fraction: f64,
    /// Mean skyline size.
    pub skyline_size: f64,
    /// Wall-clock seconds of the exhaustive runs.
    pub exhaustive_secs: f64,
    /// Wall-clock seconds of the prepped runs (scan included).
    pub prepped_secs: f64,
}

/// Draws `pairs` deterministic source/target pairs over the graph's nodes.
fn seeded_pairs(graph: &MultiCostGraph, pairs: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E37_79B9);
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

/// Runs the exhaustive and prepped searches over seeded pairs and returns
/// the label metrics.
///
/// # Panics
/// Panics if any pair's pruned skyline differs from the exhaustive one —
/// prep pruning must never change a result.
pub fn measure_labels(graph: &MultiCostGraph, pairs: usize, seed: u64) -> LabelMetrics {
    let pair_list = seeded_pairs(graph, pairs, seed);
    let mut exhaustive_labels = 0u64;
    let mut prepped_labels = 0u64;
    let mut prune_fraction = 0.0f64;
    let mut skyline_size = 0usize;
    let mut exhaustive_secs = 0.0f64;
    let mut prepped_secs = 0.0f64;
    let clock = default_clock();
    for &(s, t) in &pair_list {
        let started = clock.now_ns();
        let exhaustive = pareto_paths_exhaustive(graph, s, t);
        exhaustive_secs += clock.elapsed(started).as_secs_f64();

        let started = clock.now_ns();
        let prep = PrepTable::build(graph, t);
        let prepped = pareto_paths_prepped(graph, s, t, &prep);
        prepped_secs += clock.elapsed(started).as_secs_f64();

        assert_eq!(
            QueryOutput::Paths(exhaustive.paths.clone()).fingerprint(),
            QueryOutput::Paths(prepped.paths.clone()).fingerprint(),
            "prep pruning changed the {s} → {t} path skyline"
        );
        exhaustive_labels += exhaustive.stats.labels_created;
        prepped_labels += prepped.stats.labels_created;
        prune_fraction += prepped.stats.prune_fraction();
        skyline_size += prepped.paths.len();
    }
    let n = pair_list.len().max(1) as f64;
    LabelMetrics {
        exhaustive_labels: exhaustive_labels as f64 / n,
        prepped_labels: prepped_labels as f64 / n,
        prune_fraction: prune_fraction / n,
        skyline_size: skyline_size as f64 / n,
        exhaustive_secs,
        prepped_secs,
    }
}

/// Builds the engine batch: `batch` path-skyline requests cycling over
/// `targets` distinct seeded targets, each queried from a source a few hops
/// away (repeated queries towards popular destinations — the workload shape
/// a prep cache exists for).
fn build_path_batch(
    graph: &MultiCostGraph,
    batch: usize,
    targets: usize,
    seed: u64,
) -> Vec<QueryRequest> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0B67_57A7);
    let n = graph.num_nodes();
    let pool: Vec<NodeId> = (0..targets.max(1))
        .map(|_| NodeId::from(rng.gen_range(0..n)))
        .collect();
    (0..batch)
        .map(|i| {
            let target = pool[i % pool.len()];
            // A short seeded walk away from the target keeps the forward
            // search local while the backward scan still covers the graph.
            let mut source = target;
            for _ in 0..4 {
                let neighbors: Vec<NodeId> = graph.neighbors(source).map(|nb| nb.node).collect();
                if neighbors.is_empty() {
                    break;
                }
                source = neighbors[rng.gen_range(0..neighbors.len())];
            }
            QueryRequest::PathSkyline { source, target }
        })
        .collect()
}

/// One engine measurement: the batch with a cold prep cache (every target
/// scanned) vs warm (every table served from the cache), fingerprints
/// asserted identical. One throwaway warm-up batch pages the engine in
/// first, then each mode is measured [`ENGINE_REPEATS`] times and the best
/// wall time kept — the standard defence against one-off scheduler noise
/// in a milliseconds-scale measurement (the *results* are deterministic
/// either way and asserted on every repeat).
const ENGINE_REPEATS: usize = 3;

/// What [`measure_engine`] saw.
struct EngineRun {
    /// Best cold-cache batch QPS.
    cold_qps: f64,
    /// Best warm-cache batch QPS.
    warm_qps: f64,
    /// Cache counters over the last cold + warm cycle.
    cycle: PrepCacheStats,
    /// Cache counters of the last warm batch alone.
    warm: PrepCacheStats,
}

fn measure_engine(graph: &Arc<MultiCostGraph>, config: &PrepConfig, seed: u64) -> EngineRun {
    let store =
        Arc::new(MCNStore::build_in_memory(graph, BufferConfig::Pages(32)).expect("store builds"));
    let ctx = Arc::new(PathContext::new(graph.clone(), config.cache_capacity));
    let engine = QueryEngine::new(store, config.workers).with_path_context(ctx.clone());
    let requests = build_path_batch(graph, config.batch, config.targets, seed);
    let prints = |r: &mcn_engine::BatchResult| {
        r.outcomes
            .iter()
            .map(|o| o.output.fingerprint())
            .collect::<Vec<_>>()
    };

    // Warm-up: first-touch page faults and allocator growth hit this run.
    let reference = prints(&engine.run_batch(&requests));

    let mut run = EngineRun {
        cold_qps: 0.0,
        warm_qps: 0.0,
        cycle: PrepCacheStats::default(),
        warm: PrepCacheStats::default(),
    };
    for _ in 0..ENGINE_REPEATS {
        ctx.clear_cache();
        let cold = engine.run_batch(&requests);
        let warm = engine.run_batch(&requests);
        assert_eq!(
            reference,
            prints(&cold),
            "cold-cache engine run changed path-skyline results"
        );
        assert_eq!(
            reference,
            prints(&warm),
            "warm-cache engine run changed path-skyline results"
        );
        run.cold_qps = run.cold_qps.max(cold.stats.qps);
        run.warm_qps = run.warm_qps.max(warm.stats.qps);
        // `clear_cache` zeroed the counters at the top of this repeat, so
        // this snapshot covers exactly one cold + warm cycle.
        run.cycle = ctx.cache_stats();
        run.warm = warm.stats.prep_cache;
    }
    run
}

/// The workload spec of one synthetic point of the prep, alpha and index
/// sweeps and of the count gates: `nodes` network nodes with `d`
/// anti-correlated costs (facility/query counts only matter to the store
/// build, so they stay small). One shape, so rows compare across reports.
pub(crate) fn point_spec(nodes: usize, d: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        nodes,
        facilities: (nodes / 5).max(10),
        cost_types: d,
        distribution: CostDistribution::AntiCorrelated,
        clusters: 4,
        queries: 4,
        seed,
    }
}

/// Runs one point over an explicit graph and returns its row.
fn measure_point(graph: Arc<MultiCostGraph>, config: &PrepConfig) -> PrepRow {
    let d = graph.num_cost_types();
    let labels = measure_labels(&graph, config.pairs, config.seed);
    let engine = measure_engine(&graph, config, config.seed);
    let (cold_qps, warm_qps) = (engine.cold_qps, engine.warm_qps);
    let row = PrepRow {
        dims: d,
        nodes: graph.num_nodes(),
        pairs: config.pairs,
        skyline_size: json_safe(labels.skyline_size),
        exhaustive_labels: json_safe(labels.exhaustive_labels),
        prepped_labels: json_safe(labels.prepped_labels),
        label_reduction: json_safe(labels.exhaustive_labels / labels.prepped_labels.max(1.0)),
        prune_fraction: json_safe(labels.prune_fraction),
        exhaustive_qps: json_safe(config.pairs as f64 / labels.exhaustive_secs.max(1e-12)),
        prepped_qps: json_safe(config.pairs as f64 / labels.prepped_secs.max(1e-12)),
        cold_qps: json_safe(cold_qps),
        warm_qps: json_safe(warm_qps),
        warm_speedup: json_safe(if cold_qps > 0.0 {
            warm_qps / cold_qps
        } else {
            1.0
        }),
        cache_hits: engine.cycle.hits,
        cache_misses: engine.cycle.misses,
        cache_hit_ratio: json_safe(engine.cycle.hit_ratio()),
    };
    if config.assert_improvements {
        if d == 3 {
            assert!(
                row.label_reduction >= MIN_LABEL_REDUCTION,
                "prep reduced d = 3 labels only {:.2}× (< {MIN_LABEL_REDUCTION}×) \
                 at {} nodes",
                row.label_reduction,
                row.nodes
            );
        }
        assert!(
            engine.warm.misses == 0 && engine.warm.hits == config.batch as u64,
            "warm prep cache at {} nodes / d = {d} scanned {} targets and hit {} of \
             {} path requests (is --prep-cache below --prep-targets?)",
            row.nodes,
            engine.warm.misses,
            engine.warm.hits,
            config.batch
        );
    }
    row
}

/// Runs the prep sweep on seeded synthetic workloads.
pub fn run_prep(config: &PrepConfig) -> PrepReport {
    assert!(!config.dims.is_empty(), "no cost dimensions to sweep");
    assert!(!config.nodes.is_empty(), "no network sizes to sweep");
    let mut rows = Vec::with_capacity(config.dims.len() * config.nodes.len());
    for &d in &config.dims {
        for &nodes in &config.nodes {
            let workload = generate_workload(&point_spec(nodes, d, config.seed));
            rows.push(measure_point(Arc::new(workload.graph), config));
        }
    }
    report(config, rows)
}

/// Runs the prep sweep over an explicit network topology (e.g. a DIMACS
/// road network loaded through `mcn-io`): each swept dimension re-draws
/// costs around the graph's first cost type via
/// [`mcn_gen::workload_on_graph`]; the `nodes` sweep is ignored (the file
/// defines the topology).
pub fn run_prep_on_graph(config: &PrepConfig, graph: &MultiCostGraph) -> PrepReport {
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
        rows.push(measure_point(Arc::new(workload.graph), config));
    }
    report(config, rows)
}

/// Loads a DIMACS `.gr` network for [`run_prep_on_graph`] (the same format
/// the partition experiment's `--dimacs` flag reads).
///
/// # Errors
/// Returns a message when the file cannot be read or parsed, or has no
/// arcs.
pub fn dimacs_graph(path: &str) -> Result<MultiCostGraph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let graph = mcn_io::load_dimacs_gr(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot parse {path}: {e}"))?;
    if graph.num_edges() == 0 {
        return Err(format!("{path}: network has no arcs"));
    }
    Ok(graph)
}

fn report(config: &PrepConfig, rows: Vec<PrepRow>) -> PrepReport {
    PrepReport {
        id: PREP_ID.to_string(),
        title: format!(
            "ParetoPrep path-skyline precomputation — labels with/without prep, \
             engine cold vs warm cache, over {}",
            config.source
        ),
        config: config.clone(),
        rows,
    }
}

/// Renders a prep report in the fixed-width style of the other reports.
pub fn render_prep_table(table: &PrepReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {} [{}]\n", table.title, table.id));
    out.push_str(&format!(
        "({} pairs per point; engine batch of {} over {} targets, {} workers, \
         cache capacity {})\n",
        table.config.pairs,
        table.config.batch,
        table.config.targets,
        table.config.workers,
        table.config.cache_capacity
    ));
    out.push_str(&format!(
        "{:<4} {:>7} {:>9} {:>14} {:>12} {:>8} {:>7} {:>10} {:>10} {:>9}\n",
        "d",
        "nodes",
        "skyline",
        "labels (exh.)",
        "labels (prep)",
        "reduce",
        "pruned",
        "cold QPS",
        "warm QPS",
        "speedup"
    ));
    for r in &table.rows {
        out.push_str(&format!(
            "{:<4} {:>7} {:>9.1} {:>14.1} {:>12.1} {:>7.2}x {:>6.1}% {:>10.1} {:>10.1} {:>8.2}x\n",
            r.dims,
            r.nodes,
            r.skyline_size,
            r.exhaustive_labels,
            r.prepped_labels,
            r.label_reduction,
            r.prune_fraction * 100.0,
            r.cold_qps,
            r.warm_qps,
            r.warm_speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PrepConfig {
        PrepConfig {
            nodes: vec![120],
            dims: vec![2, 3],
            pairs: 3,
            batch: 8,
            targets: 4,
            workers: 2,
            cache_capacity: 4,
            // Unit tests run in debug on loaded machines; the timing
            // assertion belongs to the release-mode experiment runs.
            assert_improvements: false,
            ..Default::default()
        }
    }

    #[test]
    fn prep_sweep_reports_reductions_and_identical_results() {
        let table = run_prep(&tiny_config());
        assert_eq!(table.rows.len(), 2);
        for row in &table.rows {
            // The in-run assertions already proved byte-identical skylines;
            // pruning must show up even at toy scale.
            assert!(row.prepped_labels <= row.exhaustive_labels);
            assert!(row.prune_fraction > 0.0);
            assert!(row.label_reduction >= 1.0);
            assert!(row.cold_qps > 0.0 && row.warm_qps > 0.0);
            assert!(row.cache_hits > 0);
        }
    }

    #[test]
    fn label_metrics_are_deterministic() {
        let config = tiny_config();
        let workload = generate_workload(&point_spec(120, 3, config.seed));
        let a = measure_labels(&workload.graph, config.pairs, config.seed);
        let b = measure_labels(&workload.graph, config.pairs, config.seed);
        assert_eq!(a.exhaustive_labels, b.exhaustive_labels);
        assert_eq!(a.prepped_labels, b.prepped_labels);
        assert_eq!(a.prune_fraction, b.prune_fraction);
        assert!(a.prepped_labels < a.exhaustive_labels);
    }

    #[test]
    fn report_round_trips_through_json() {
        let table = run_prep(&PrepConfig {
            dims: vec![2],
            ..tiny_config()
        });
        let json = table.to_json();
        let parsed = PrepReport::from_json(&json).unwrap();
        assert_eq!(parsed, table);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn rendered_table_mentions_the_columns() {
        let table = run_prep(&PrepConfig {
            dims: vec![2],
            ..tiny_config()
        });
        let text = render_prep_table(&table);
        assert!(text.contains("labels (exh.)"));
        assert!(text.contains("warm QPS"));
        assert!(text.contains("reduce"));
    }

    #[test]
    fn prep_runs_on_an_explicit_graph() {
        let workload = generate_workload(&point_spec(100, 2, 7));
        let config = PrepConfig {
            dims: vec![2, 3],
            source: "explicit".into(),
            ..tiny_config()
        };
        let table = run_prep_on_graph(&config, &workload.graph);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0].nodes, workload.graph.num_nodes());
        assert_eq!(table.rows[0].dims, 2);
        assert_eq!(table.rows[1].dims, 3);
        assert!(table.title.contains("explicit"));
    }
}
