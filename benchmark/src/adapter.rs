//! The only file of the benchmark that names `mcn`: every call into the
//! program under test happens here, so this file *is* the load-bearing API
//! surface — a later API-simplifying PR edits this file and nothing else.
//!
//! Surface used: `gen::{generate_workload, generate_preferences}`,
//! `graph::{partition_graph, MultiCostGraph}`, `storage::{MCNStore::build_on,
//! PartitionedStore::build_on, FileDisk, BufferConfig}` and
//! the traits `DiskManager` / `StoreView` (decorated below),
//! `index::RouteIndex::build`, `engine::{PathContext::{new,
//! with_route_index}, QueryEngine::{new, with_path_context, with_obs,
//! run_batch, run_batch_with_regions}, QueryRequest, QueryOutcome::{output,
//! stats, wall}, QueryOutput::fingerprint}`, `obs::{Obs, Clock}`; for the
//! direct layer probes `expansion::{Expansion, DirectAccess,
//! seeds_for_location}`, `prep::PrepTable::build`,
//! `alpha::scalarized_path`,
//! `mcpp::pareto_paths_prepped`, `RouteIndex::{alpha_path, skyline_paths}`;
//! for the oracle `expansion::oracle::facility_cost_vectors`,
//! `alpha::scalarized_path` and `mcpp::pareto_paths`.
//!
//! Everything that crosses this boundary outwards is plain data.

use crate::stats::Fnv;
use crate::trace::{Call, Recorder, Span};
use crate::workloads::{Buffer, Req, StackSpec};
use mcn::alpha::{scalarized_path, Preference};
use mcn::core::Algorithm;
use mcn::engine::{BatchResult, PathContext, QueryEngine, QueryOutput, QueryRequest};
use mcn::expansion::oracle::facility_cost_vectors;
use mcn::expansion::{seeds_for_location, DirectAccess, Expansion, FacilityMode};
use mcn::gen::{
    generate_preferences, generate_workload, CostDistribution, PreferenceSpec, WorkloadSpec,
};
use mcn::graph::{
    partition_graph, EdgeId, FacilityId, MultiCostGraph, NetworkLocation, NodeId, PartitionMap,
    PartitionSpec, RegionId,
};
use mcn::index::{IndexConfig, RouteIndex};
use mcn::mcpp::{pareto_paths, pareto_paths_prepped, ParetoLabel};
use mcn::obs::{Clock, Obs};
use mcn::prep::PrepTable;
use mcn::storage::{
    AdjacencyList, BufferConfig, DiskManager, EdgeEndpoints, FacilityInfo, FacilityRun, FileDisk,
    IoStats, MCNStore, Page, PageId, PartitionedStore, StoreView,
};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A generated multi-cost network (opaque outside this file).
#[derive(Clone)]
pub struct Network {
    graph: Arc<MultiCostGraph>,
}

impl Network {
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    pub fn num_facilities(&self) -> usize {
        self.graph.num_facilities()
    }

    pub fn cost_types(&self) -> usize {
        self.graph.num_cost_types()
    }

    /// Every node id, ordered along a Z-order (Morton) curve through the
    /// node coordinates: any contiguous run of the order is a compact patch
    /// of the map, so positions spread evenly over `[0, 1)` pick nodes
    /// spread evenly over the plane.
    pub fn spatial_order(&self) -> Vec<u32> {
        let g = &self.graph;
        let (mut lo, mut hi) = ((f64::MAX, f64::MAX), (f64::MIN, f64::MIN));
        for n in g.nodes() {
            lo = (lo.0.min(n.x), lo.1.min(n.y));
            hi = (hi.0.max(n.x), hi.1.max(n.y));
        }
        let cell = |v: f64, lo: f64, hi: f64| -> u64 {
            (((v - lo) / (hi - lo).max(f64::MIN_POSITIVE)) * 65535.0) as u64
        };
        let spread_bits = |mut v: u64| -> u64 {
            // 16 bits → every other bit of 32.
            v = (v | v << 8) & 0x00FF_00FF;
            v = (v | v << 4) & 0x0F0F_0F0F;
            v = (v | v << 2) & 0x3333_3333;
            (v | v << 1) & 0x5555_5555
        };
        let mut keyed: Vec<(u64, u32)> = g
            .nodes()
            .enumerate()
            .map(|(id, n)| {
                let key =
                    spread_bits(cell(n.x, lo.0, hi.0)) | spread_bits(cell(n.y, lo.1, hi.1)) << 1;
                (key, id as u32)
            })
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, id)| id).collect()
    }

    /// Feeds the graph's shape and every cost bit into an input digest.
    pub fn digest(&self, h: &mut Fnv) {
        let g = &self.graph;
        h.u64(g.num_nodes() as u64);
        h.u64(g.num_edges() as u64);
        h.u64(g.num_facilities() as u64);
        h.u64(g.num_cost_types() as u64);
        for e in g.edges() {
            h.u64(u64::from(e.source.raw()) << 32 | u64::from(e.target.raw()));
            h.u64(u64::from(e.directed));
            e.costs.iter().for_each(|c| h.f64(c));
        }
        for f in g.facilities() {
            h.u64(u64::from(f.edge.raw()));
            h.f64(f.position);
        }
    }
}

/// The facility graph `F`: the paper's default workload (d = 4,
/// anti-correlated costs, 10 facility clusters) divided by `scale`.
pub fn facility_network(scale: usize, seed: u64) -> Network {
    let spec = WorkloadSpec {
        seed,
        queries: 1,
        ..WorkloadSpec::paper_scaled(scale)
    };
    Network {
        graph: Arc::new(generate_workload(&spec).graph),
    }
}

/// A road-like network for the path tiers (anti-correlated costs; the few
/// facilities are never queried).
pub fn path_network(nodes: usize, cost_types: usize, seed: u64) -> Network {
    let spec = WorkloadSpec {
        nodes,
        facilities: 10,
        cost_types,
        distribution: CostDistribution::AntiCorrelated,
        clusters: 1,
        queries: 1,
        seed,
    };
    Network {
        graph: Arc::new(generate_workload(&spec).graph),
    }
}

/// `users` preference vectors over `cost_types` costs, uniform on the simplex.
pub fn preference_pool(users: usize, cost_types: usize, seed: u64) -> Vec<Vec<f64>> {
    generate_preferences(&PreferenceSpec::uniform(users, cost_types, seed))
}

fn algorithm(cea: bool) -> Algorithm {
    if cea {
        Algorithm::Cea
    } else {
        Algorithm::Lsa
    }
}

fn preference(weights: &[f64]) -> Preference {
    Preference::new(weights).expect("generated preference weights are valid")
}

fn to_request(req: &Req) -> QueryRequest {
    let at = |node: u32| NetworkLocation::Node(NodeId::new(node));
    match req {
        Req::Skyline { node, cea } => QueryRequest::Skyline {
            location: at(*node),
            algorithm: algorithm(*cea),
        },
        Req::TopK {
            node,
            weights,
            k,
            cea,
        } => QueryRequest::TopK {
            location: at(*node),
            weights: weights.clone(),
            k: *k,
            algorithm: algorithm(*cea),
        },
        Req::TopKIncremental {
            node,
            weights,
            take,
            cea,
        } => QueryRequest::TopKIncremental {
            location: at(*node),
            weights: weights.clone(),
            take: *take,
            algorithm: algorithm(*cea),
        },
        Req::PathSkyline { source, target } => QueryRequest::PathSkyline {
            source: NodeId::new(*source),
            target: NodeId::new(*target),
        },
        Req::AlphaPath {
            source,
            target,
            weights,
        } => QueryRequest::AlphaPath {
            source: NodeId::new(*source),
            target: NodeId::new(*target),
            alpha: preference(weights),
        },
    }
}

// ---------------------------------------------------------------------------
// Decorators: the traced pass's view into the disk and storage layers
// ---------------------------------------------------------------------------

/// Times `DiskManager::read_page`; everything else passes through.
pub struct TimedDisk<D> {
    inner: D,
    recorder: Arc<Recorder>,
}

impl<D: DiskManager> TimedDisk<D> {
    pub fn new(inner: D, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }
}

impl<D: DiskManager> DiskManager for TimedDisk<D> {
    fn read_page(&self, id: PageId, out: &mut Page) {
        let started = self.recorder.start();
        self.inner.read_page(id, out);
        self.recorder.finish(Call::DiskRead, started);
    }

    fn write_page(&self, id: PageId, page: &Page) {
        self.inner.write_page(id, page);
    }

    fn allocate_page(&self) -> PageId {
        self.inner.allocate_page()
    }

    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    fn physical_reads(&self) -> u64 {
        self.inner.physical_reads()
    }

    fn physical_writes(&self) -> u64 {
        self.inner.physical_writes()
    }
}

/// Times the four record-returning `StoreView` calls; results, counters and
/// buffer management pass through untouched.
pub struct TimedStore<S> {
    inner: S,
    recorder: Arc<Recorder>,
}

impl<S: StoreView> TimedStore<S> {
    pub fn new(inner: S, recorder: Arc<Recorder>) -> Self {
        Self { inner, recorder }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: StoreView> StoreView for TimedStore<S> {
    fn num_cost_types(&self) -> usize {
        self.inner.num_cost_types()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn num_facilities(&self) -> usize {
        self.inner.num_facilities()
    }

    fn data_pages(&self) -> usize {
        self.inner.data_pages()
    }

    fn adjacency(&self, node: NodeId) -> AdjacencyList {
        let started = self.recorder.start();
        let list = self.inner.adjacency(node);
        self.recorder.finish(Call::Adjacency, started);
        list
    }

    fn facilities_in_run(&self, run: &FacilityRun) -> Vec<(FacilityId, f64)> {
        let started = self.recorder.start();
        let facilities = self.inner.facilities_in_run(run);
        self.recorder.finish(Call::FacilityRun, started);
        facilities
    }

    fn facility_info(&self, facility: FacilityId) -> Option<FacilityInfo> {
        let started = self.recorder.start();
        let info = self.inner.facility_info(facility);
        self.recorder.finish(Call::FacilityInfo, started);
        info
    }

    fn edge_endpoints(&self, edge: EdgeId) -> Option<EdgeEndpoints> {
        let started = self.recorder.start();
        let endpoints = self.inner.edge_endpoints(edge);
        self.recorder.finish(Call::EdgeEndpoints, started);
        endpoints
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn publish_metrics(&self, registry: &mcn::obs::MetricsRegistry) {
        self.inner.publish_metrics(registry);
    }

    fn clear_buffers(&self) {
        self.inner.clear_buffers();
    }

    fn set_buffer(&self, buffer: BufferConfig) {
        self.inner.set_buffer(buffer);
    }
}

/// Clocks the engine's tracer from the recorder, so engine spans and
/// decorator spans share one time base and containment is exact.
struct RecorderClock(Arc<Recorder>);

impl Clock for RecorderClock {
    fn now_ns(&self) -> u64 {
        self.0.now_ns()
    }
}

// ---------------------------------------------------------------------------
// The serving stack
// ---------------------------------------------------------------------------

/// Seconds spent in the parts of one set-up (they sum to less than the
/// total: engine and context construction are not itemised).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub store_build_s: f64,
    pub partition_s: f64,
    pub index_build_s: f64,
}

enum Engine {
    Mono(QueryEngine<MCNStore>),
    Part(QueryEngine<PartitionedStore>),
    TimedMono(QueryEngine<TimedStore<MCNStore>>),
    TimedPart(QueryEngine<TimedStore<PartitionedStore>>),
}

/// Runs `$body` with `$e` bound to whichever engine the stack holds.
macro_rules! with_engine {
    ($engine:expr, $e:ident => $body:expr) => {
        match $engine {
            Engine::Mono($e) => $body,
            Engine::Part($e) => $body,
            Engine::TimedMono($e) => $body,
            Engine::TimedPart($e) => $body,
        }
    };
}

/// Size facts of a built stack, for the README's workload table.
#[derive(Clone, Copy, Debug, Default)]
pub struct StackShape {
    pub data_pages: usize,
    pub buffer_pages: usize,
    pub index_arc_entries: u64,
}

/// Everything set-up builds: the store on its disk(s), the path context
/// with its optional route index, and the engine.
pub struct Stack {
    engine: Engine,
    network: Network,
    partition: Option<PartitionMap>,
    recorder: Option<Arc<Recorder>>,
    files: Vec<PathBuf>,
    pub times: SetupTimes,
    pub shape: StackShape,
}

impl Drop for Stack {
    fn drop(&mut self) {
        for file in &self.files {
            // Best effort: a leftover file sits in the git-ignored out/.
            let _ = std::fs::remove_file(file);
        }
    }
}

/// Requests converted to the engine's type, with their region tags when the
/// stack is partitioned.
pub struct Prepared {
    requests: Vec<QueryRequest>,
    tags: Option<Vec<RegionId>>,
}

impl Prepared {
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// The engine's serving-tier label of request `i`.
    pub fn kind(&self, i: usize) -> &'static str {
        self.requests[i].kind()
    }
}

/// Per-request facts of a served pass.
#[derive(Clone, Debug, Default)]
pub struct Served {
    /// Claim → completion (`QueryOutcome::wall`).
    pub wall_ns: u64,
    /// The algorithm tag the engine reports (`CEA`, `alpha-astar`, …).
    pub algorithm: String,
    pub nodes_settled: u64,
    pub heap_pops: u64,
    pub dominance_checks: u64,
    pub candidates: u64,
    pub pinned: u64,
    pub result_size: u64,
}

/// An opaque query answer; see [`fingerprint`] and [`plain`].
pub struct Output(QueryOutput);

/// One pass (or chunk of a pass) through the engine.
#[derive(Default)]
pub struct Pass {
    /// Wall seconds, taken outside `run_batch`.
    pub wall_s: f64,
    /// The batch panicked: `served`/`outputs` are empty.
    pub panicked: bool,
    pub served: Vec<Served>,
    pub outputs: Vec<Output>,
    pub logical_reads: u64,
    pub buffer_hits: u64,
    pub physical_reads: u64,
    pub prep_hits: u64,
    pub prep_misses: u64,
    pub prep_evictions: u64,
    pub affine_hits: u64,
}

impl Pass {
    /// Appends a later chunk of the same pass.
    pub fn absorb(&mut self, other: Pass) {
        self.wall_s += other.wall_s;
        self.panicked |= other.panicked;
        self.served.extend(other.served);
        self.outputs.extend(other.outputs);
        self.logical_reads += other.logical_reads;
        self.buffer_hits += other.buffer_hits;
        self.physical_reads += other.physical_reads;
        self.prep_hits += other.prep_hits;
        self.prep_misses += other.prep_misses;
        self.prep_evictions += other.prep_evictions;
        self.affine_hits += other.affine_hits;
    }
}

fn pass_from(result: BatchResult, wall_s: f64) -> Pass {
    let stats = result.stats;
    let mut pass = Pass {
        wall_s,
        logical_reads: stats.io.logical_reads,
        buffer_hits: stats.io.buffer_hits,
        physical_reads: stats.io.physical_reads,
        prep_hits: stats.prep_cache.hits,
        prep_misses: stats.prep_cache.misses,
        prep_evictions: stats.prep_cache.evictions,
        affine_hits: stats.affine_hits,
        ..Pass::default()
    };
    for outcome in result.outcomes {
        pass.served.push(Served {
            wall_ns: outcome.wall.as_nanos() as u64,
            algorithm: outcome.stats.algorithm,
            nodes_settled: outcome.stats.nodes_settled as u64,
            heap_pops: outcome.stats.heap_pops as u64,
            dominance_checks: outcome.stats.dominance_checks as u64,
            candidates: outcome.stats.candidates as u64,
            pinned: outcome.stats.pinned as u64,
            result_size: outcome.stats.result_size as u64,
        });
        pass.outputs.push(Output(outcome.output));
    }
    pass
}

fn run_on<S: StoreView>(engine: &QueryEngine<S>, prepared: &Prepared, range: Range<usize>) -> Pass {
    let requests = &prepared.requests[range.clone()];
    let started = Instant::now();
    // A panicking query takes its batch down (the engine joins its workers
    // in a scope); every request of that batch then counts as failed.
    let result = catch_unwind(AssertUnwindSafe(|| match &prepared.tags {
        Some(tags) => engine.run_batch_with_regions(requests, &tags[range], true),
        None => engine.run_batch(requests),
    }));
    let wall_s = started.elapsed().as_secs_f64();
    // The engine's scope returns when its workers' closures finish, not when
    // their threads have exited. A worker spawned before the previous one
    // released its malloc arena gets a fresh arena, so back-to-back batches
    // make peak RSS depend on that race (36 vs 59 MiB on alpha_serve). A
    // closed-loop client pauses between batches anyway; this pause is
    // outside every timed region.
    std::thread::sleep(std::time::Duration::from_millis(2));
    match result {
        Ok(result) => pass_from(result, wall_s),
        Err(_) => Pass {
            wall_s,
            panicked: true,
            ..Pass::default()
        },
    }
}

fn new_disk(
    path: PathBuf,
    recorder: Option<&Arc<Recorder>>,
    files: &mut Vec<PathBuf>,
) -> Arc<dyn DiskManager> {
    let disk =
        FileDisk::create(&path).unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    files.push(path);
    match recorder {
        None => Arc::new(disk),
        Some(r) => Arc::new(TimedDisk::new(disk, r.clone())),
    }
}

/// Reads every record once so a [`Buffer::Hot`] pool holds every page.
fn prewarm<S: StoreView>(store: &S, graph: &MultiCostGraph) {
    for node in 0..graph.num_nodes() {
        for entry in &store.adjacency(NodeId::from(node)).entries {
            if let Some(run) = &entry.facilities {
                std::hint::black_box(store.facilities_in_run(run));
            }
        }
    }
    for facility in 0..graph.num_facilities() {
        std::hint::black_box(store.facility_info(FacilityId::from(facility)));
    }
    for edge in 0..graph.num_edges() {
        std::hint::black_box(store.edge_endpoints(EdgeId::from(edge)));
    }
}

/// Applies the stack's buffer policy to a freshly built store.
fn size_buffer<S: StoreView>(store: &S, buffer: Buffer, graph: &MultiCostGraph) -> usize {
    match buffer {
        Buffer::Fraction(f) => BufferConfig::Fraction(f).resolve(store.data_pages()),
        Buffer::Hot => {
            // Index pages are not data pages and the pool is sharded by
            // page id, so "100 %" still evicts; twice the data pages holds
            // everything with room in every shard.
            let pages = 2 * store.data_pages() + 64;
            store.set_buffer(BufferConfig::Pages(pages));
            prewarm(store, graph);
            pages
        }
    }
}

/// Sizes the buffer of a freshly built store and puts an engine over it —
/// over a [`TimedStore`] around it when the run is traced.
fn engine_over<S: StoreView>(
    store: S,
    spec: &StackSpec,
    graph: &MultiCostGraph,
    recorder: Option<&Arc<Recorder>>,
    shape: &mut StackShape,
) -> Engine
where
    Engine: From<QueryEngine<S>> + From<QueryEngine<TimedStore<S>>>,
{
    shape.data_pages = store.data_pages();
    shape.buffer_pages = size_buffer(&store, spec.buffer, graph);
    match recorder {
        None => QueryEngine::new(Arc::new(store), spec.workers).into(),
        Some(r) => {
            QueryEngine::new(Arc::new(TimedStore::new(store, r.clone())), spec.workers).into()
        }
    }
}

/// Attaches the optional path context and tracer to an engine.
fn attach<S: StoreView>(
    engine: QueryEngine<S>,
    paths: Option<&Arc<PathContext>>,
    obs: Option<&Arc<Obs>>,
) -> QueryEngine<S> {
    let engine = match paths {
        Some(p) => engine.with_path_context(p.clone()),
        None => engine,
    };
    match obs {
        Some(o) => engine.with_obs(o.clone()),
        None => engine,
    }
}

impl Stack {
    /// Set-up: graph in memory → engine ready to serve. Store files go to
    /// `dir` as `<tag>-r<region>.db` and are removed when the stack drops.
    /// With a `recorder` the disk and the store are decorated and the
    /// engine's tracer is attached (both idle until a traced pass).
    pub fn build(
        network: &Network,
        spec: &StackSpec,
        dir: &Path,
        tag: &str,
        recorder: Option<Arc<Recorder>>,
    ) -> Stack {
        let started = Instant::now();
        let graph = &network.graph;
        let mut times = SetupTimes::default();
        let mut shape = StackShape::default();
        let mut files = Vec::new();
        let initial = match spec.buffer {
            Buffer::Fraction(f) => BufferConfig::Fraction(f),
            Buffer::Hot => BufferConfig::Fraction(1.0),
        };

        let paths = spec.paths.map(|p| {
            let mut ctx = PathContext::new(graph.clone(), p.cache_capacity);
            if p.route_index {
                let t = Instant::now();
                let index = RouteIndex::build(graph, &IndexConfig::default());
                times.index_build_s = t.elapsed().as_secs_f64();
                shape.index_arc_entries = index.arc_entries();
                ctx = ctx.with_route_index(Arc::new(index));
            }
            Arc::new(ctx)
        });
        let obs = recorder
            .as_ref()
            .map(|r| Arc::new(Obs::with_clock(Arc::new(RecorderClock(r.clone())))));

        let mut partition = None;
        let engine = if spec.regions > 1 {
            let t = Instant::now();
            let map = partition_graph(graph, &PartitionSpec::new(spec.regions));
            times.partition_s = t.elapsed().as_secs_f64();
            let disks = (0..map.num_regions())
                .map(|r| {
                    let path = dir.join(format!("{tag}-r{r}.db"));
                    new_disk(path, recorder.as_ref(), &mut files)
                })
                .collect();
            let t = Instant::now();
            let store = PartitionedStore::build_on(graph, map.clone(), disks, initial)
                .expect("partitioned store builds");
            times.store_build_s = t.elapsed().as_secs_f64();
            partition = Some(map);
            engine_over(store, spec, graph, recorder.as_ref(), &mut shape)
        } else {
            let path = dir.join(format!("{tag}-r0.db"));
            let disk = new_disk(path, recorder.as_ref(), &mut files);
            let t = Instant::now();
            let store = MCNStore::build_on(graph, disk, initial).expect("store builds");
            times.store_build_s = t.elapsed().as_secs_f64();
            engine_over(store, spec, graph, recorder.as_ref(), &mut shape)
        };
        let engine = with_engine!(engine, e => {
            Engine::from(attach(e, paths.as_ref(), obs.as_ref()))
        });

        times.total_s = started.elapsed().as_secs_f64();
        Stack {
            engine,
            network: network.clone(),
            partition,
            recorder,
            files,
            times,
            shape,
        }
    }

    /// The same store, path context and tracer behind a pool of `workers`.
    pub fn with_workers(&self, workers: usize) -> Stack {
        let engine = with_engine!(&self.engine, e => {
            let clone = QueryEngine::new(e.store().clone(), workers);
            Engine::from(attach(clone, e.path_context(), e.obs()))
        });
        Stack {
            engine,
            network: self.network.clone(),
            partition: self.partition.clone(),
            recorder: self.recorder.clone(),
            files: Vec::new(),
            times: self.times,
            shape: self.shape,
        }
    }

    pub fn workers(&self) -> usize {
        with_engine!(&self.engine, e => e.workers())
    }

    /// Converts requests once, tagging each with its seed region when the
    /// store is partitioned.
    pub fn prepare(&self, requests: &[Req]) -> Prepared {
        let requests: Vec<QueryRequest> = requests.iter().map(to_request).collect();
        let tags = self.partition.as_ref().map(|map| {
            requests
                .iter()
                .map(|r| map.region_of_location(&self.network.graph, r.location()))
                .collect()
        });
        Prepared { requests, tags }
    }

    /// Serves `prepared[range]` as one closed-loop batch, untraced.
    pub fn run(&self, prepared: &Prepared, range: Range<usize>) -> Pass {
        with_engine!(&self.engine, e => run_on(e, prepared, range))
    }

    /// Serves `prepared[range]` with the decorators recording and the
    /// engine's tracer on; returns the engine's lifecycle spans with request
    /// ids rebased to the whole pass. `capture` additionally keeps every
    /// store/disk call as a full span (fetch with `Recorder::take_spans`).
    ///
    /// # Panics
    /// Panics if the stack was built without a recorder, or if the engine's
    /// span rings overflowed (the caller chunks passes to prevent that).
    pub fn run_traced(
        &self,
        prepared: &Prepared,
        range: Range<usize>,
        capture: bool,
    ) -> (Pass, Vec<Span>) {
        let recorder = self.recorder.as_ref().expect("traced stack");
        let obs = with_engine!(&self.engine, e => e.obs().cloned()).expect("traced stack");
        let base = range.start as u64;
        recorder.set_capture(capture);
        recorder.set_enabled(true);
        obs.set_tracing(true);
        let pass = self.run(prepared, range);
        obs.set_tracing(false);
        recorder.set_enabled(false);
        recorder.set_capture(false);
        let events = obs.tracer().drain();
        assert_eq!(obs.tracer().dropped(), 0, "engine span ring overflowed");
        let index_serves = self.index_serves();
        let spans = events
            .into_iter()
            .map(|e| {
                let layer = match (e.name.as_str(), e.tier.as_str()) {
                    ("prep-lookup" | "prep-build", _) => "prep",
                    ("search", "alpha-path" | "path-skyline") if index_serves => "index",
                    ("search", "alpha-path") => "alpha",
                    ("search", "path-skyline") => "mcpp",
                    ("search", _) => "core",
                    _ => "engine",
                };
                Span::new(
                    &e.name,
                    layer,
                    Some(base + e.query),
                    e.worker,
                    e.start_ns,
                    e.start_ns + e.dur_ns,
                )
            })
            .collect();
        (pass, spans)
    }

    fn index_serves(&self) -> bool {
        with_engine!(&self.engine, e => {
            e.path_context().is_some_and(|p| p.serving_index().is_some())
        })
    }

    /// Share of classified reads that left the querying thread's seed
    /// region since the last reset (0 on a monolithic store).
    pub fn cross_region_frac(&self, reset: bool) -> f64 {
        let store = match &self.engine {
            Engine::Part(e) => e.store().as_ref(),
            Engine::TimedPart(e) => e.store().inner(),
            _ => return 0.0,
        };
        let frac = store.region_traffic().cross_fraction();
        if reset {
            store.reset_region_traffic();
        }
        frac
    }

    /// Direct probe of the expansion layer: drives one `Expansion` (cost
    /// type 0, every facility en-heaped) for `take` nearest facilities from
    /// each of `nodes`. Returns (ns per nearest-facility step, nodes settled
    /// per step).
    pub fn probe_expansion(&self, nodes: &[u32], take: usize) -> (f64, f64) {
        fn probe<S: StoreView>(store: &Arc<S>, nodes: &[u32], take: usize) -> (f64, f64) {
            let (mut found, mut settled) = (0u64, 0u64);
            let started = Instant::now();
            for &node in nodes {
                let access = Arc::new(DirectAccess::new(store.clone()));
                let seeds = seeds_for_location(&*access, NetworkLocation::Node(NodeId::new(node)));
                let mut expansion = Expansion::new(access, 0, &seeds, FacilityMode::All);
                for _ in 0..take {
                    if std::hint::black_box(expansion.next_nearest()).is_none() {
                        break;
                    }
                    found += 1;
                }
                settled += expansion.stats().nodes_settled as u64;
            }
            let ns = started.elapsed().as_nanos() as f64;
            (
                crate::stats::ratio(ns, found as f64),
                crate::stats::ratio(settled as f64, found as f64),
            )
        }
        with_engine!(&self.engine, e => probe(e.store(), nodes, take))
    }

    /// Logical page reads per `adjacency` call (index descent + data page),
    /// counted by the pool over one call per node of `nodes`.
    pub fn probe_adjacency_pages(&self, nodes: &[u32]) -> f64 {
        with_engine!(&self.engine, e => {
            let store = e.store();
            let before = store.io_stats().logical_reads;
            for &node in nodes {
                std::hint::black_box(store.adjacency(NodeId::new(node)));
            }
            let reads = store.io_stats().logical_reads - before;
            crate::stats::ratio(reads as f64, nodes.len() as f64)
        })
    }

    /// Direct probe of the route index: mean µs of `RouteIndex::alpha_path`
    /// and of `RouteIndex::skyline_paths` over the matching `requests`
    /// (zeros without a serving index).
    pub fn probe_index(&self, requests: &[Req]) -> (f64, f64) {
        with_engine!(&self.engine, e => {
            let Some(ctx) = e.path_context() else { return (0.0, 0.0) };
            let Some(index) = ctx.serving_index() else { return (0.0, 0.0) };
            let graph = ctx.graph();
            let (mut alpha_us, mut skyline_us) = (Vec::new(), Vec::new());
            for req in requests {
                let started = Instant::now();
                match req {
                    Req::AlphaPath { source, target, weights } => {
                        let pref = preference(weights);
                        std::hint::black_box(index.alpha_path(
                            graph, NodeId::new(*source), NodeId::new(*target), &pref,
                        ));
                        alpha_us.push(started.elapsed().as_secs_f64() * 1e6);
                    }
                    Req::PathSkyline { source, target } => {
                        std::hint::black_box(index.skyline_paths(
                            graph, NodeId::new(*source), NodeId::new(*target),
                        ));
                        skyline_us.push(started.elapsed().as_secs_f64() * 1e6);
                    }
                    _ => {}
                }
            }
            (crate::stats::mean(alpha_us), crate::stats::mean(skyline_us))
        })
    }
}

impl From<QueryEngine<MCNStore>> for Engine {
    fn from(e: QueryEngine<MCNStore>) -> Self {
        Engine::Mono(e)
    }
}

impl From<QueryEngine<PartitionedStore>> for Engine {
    fn from(e: QueryEngine<PartitionedStore>) -> Self {
        Engine::Part(e)
    }
}

impl From<QueryEngine<TimedStore<MCNStore>>> for Engine {
    fn from(e: QueryEngine<TimedStore<MCNStore>>) -> Self {
        Engine::TimedMono(e)
    }
}

impl From<QueryEngine<TimedStore<PartitionedStore>>> for Engine {
    fn from(e: QueryEngine<TimedStore<PartitionedStore>>) -> Self {
        Engine::TimedPart(e)
    }
}

// ---------------------------------------------------------------------------
// Direct probes of the store-free layers
// ---------------------------------------------------------------------------

/// Mean milliseconds of one backward `PrepTable::build` scan over `targets`.
pub fn probe_prep_build(network: &Network, targets: &[u32]) -> f64 {
    crate::stats::mean(targets.iter().map(|&t| {
        let started = Instant::now();
        std::hint::black_box(PrepTable::build(&network.graph, NodeId::new(t)));
        started.elapsed().as_secs_f64() * 1e3
    }))
}

/// Mean microseconds of plain scalarized Dijkstra (`scalarized_path`) over
/// the alpha-path requests of `requests` — what the prep-backed A* saves.
pub fn probe_alpha_dijkstra(network: &Network, requests: &[Req]) -> f64 {
    crate::stats::mean(requests.iter().filter_map(|req| {
        let Req::AlphaPath {
            source,
            target,
            weights,
        } = req
        else {
            return None;
        };
        let pref = preference(weights);
        let started = Instant::now();
        std::hint::black_box(scalarized_path(
            &network.graph,
            NodeId::new(*source),
            NodeId::new(*target),
            &pref,
        ));
        Some(started.elapsed().as_secs_f64() * 1e6)
    }))
}

/// Direct probe of the label-correcting search: `pareto_paths_prepped` over
/// the path-skyline requests of `requests`, tables built outside the timed
/// region. Returns (ns per label created, share of labels cut by bounds).
pub fn probe_mcpp(network: &Network, requests: &[Req]) -> (f64, f64) {
    let (mut ns, mut created, mut pruned) = (0u128, 0u64, 0u64);
    for req in requests {
        let Req::PathSkyline { source, target } = req else {
            continue;
        };
        let (source, target) = (NodeId::new(*source), NodeId::new(*target));
        let prep = PrepTable::build(&network.graph, target);
        let started = Instant::now();
        let run = std::hint::black_box(pareto_paths_prepped(&network.graph, source, target, &prep));
        ns += started.elapsed().as_nanos();
        created += run.stats.labels_created;
        pruned += run.stats.labels_pruned;
    }
    (
        crate::stats::ratio(ns as f64, created as f64),
        crate::stats::ratio(pruned as f64, created as f64),
    )
}

// ---------------------------------------------------------------------------
// Answers as plain data, and the independent re-derivations they are
// checked against
// ---------------------------------------------------------------------------

/// The engine's canonical bit-exact text form of an answer.
pub fn fingerprint(output: &Output) -> String {
    output.0.fingerprint()
}

/// An answer as plain data: ids as integers, costs as floats.
#[derive(Clone, Debug, PartialEq)]
pub enum Plain {
    /// `(facility, cost vector)` per skyline member.
    Skyline(Vec<(u32, Vec<f64>)>),
    /// `(facility, score, cost vector)` in ascending score order.
    TopK(Vec<(u32, f64, Vec<f64>)>),
    /// `(cost vector, edge ids)` per Pareto path, lexicographic by cost.
    Paths(Vec<(Vec<f64>, Vec<u32>)>),
    /// `(scalarized total, cost vector, edge ids)`; `None` = unreachable.
    AlphaPath(Option<(f64, Vec<f64>, Vec<u32>)>),
}

fn plain_paths(labels: &[ParetoLabel]) -> Plain {
    Plain::Paths(
        labels
            .iter()
            .map(|l| {
                (
                    l.costs.iter().collect(),
                    l.edges.iter().map(|e| e.raw()).collect(),
                )
            })
            .collect(),
    )
}

fn plain_alpha(path: Option<&mcn::alpha::ScalarPath>) -> Plain {
    Plain::AlphaPath(path.map(|p| {
        (
            p.total,
            p.costs.iter().collect(),
            p.edges.iter().map(|e| e.raw()).collect(),
        )
    }))
}

/// Converts an answer to plain data.
pub fn plain(output: &Output) -> Plain {
    match &output.0 {
        QueryOutput::Skyline(v) => Plain::Skyline(
            v.iter()
                .map(|f| (f.facility.raw(), f.costs.iter().collect()))
                .collect(),
        ),
        QueryOutput::TopK(v) => Plain::TopK(
            v.iter()
                .map(|e| (e.facility.raw(), e.score, e.costs.iter().collect()))
                .collect(),
        ),
        QueryOutput::Paths(v) => plain_paths(v),
        QueryOutput::AlphaPath(p) => plain_alpha(p.as_ref()),
    }
}

/// Oracle: the exact cost vector of every facility from `node`, by `d`
/// plain in-memory Dijkstra runs (no store, no LSA/CEA).
pub fn oracle_facility_costs(network: &Network, node: u32) -> Vec<Vec<f64>> {
    facility_cost_vectors(&network.graph, NetworkLocation::Node(NodeId::new(node)))
        .iter()
        .map(|c| c.iter().collect())
        .collect()
}

/// Oracle: the α-optimal route by plain Dijkstra (no prep table, no index).
pub fn oracle_alpha(network: &Network, source: u32, target: u32, weights: &[f64]) -> Plain {
    let run = scalarized_path(
        &network.graph,
        NodeId::new(source),
        NodeId::new(target),
        &preference(weights),
    );
    plain_alpha(run.path.as_ref())
}

/// Oracle: the path skyline by the un-prepped label-correcting search.
pub fn oracle_paths(network: &Network, source: u32, target: u32) -> Plain {
    plain_paths(&pareto_paths(
        &network.graph,
        NodeId::new(source),
        NodeId::new(target),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::assemble;
    use crate::workloads::{generate, Sizes};

    fn out_dir() -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fingerprints(pass: &Pass) -> Vec<String> {
        pass.outputs.iter().map(fingerprint).collect()
    }

    /// Serves the same requests through an undecorated and a decorated
    /// stack (one worker each, so the buffer pool sees the same sequence)
    /// and returns both passes plus the decorated stack's recorder.
    fn both_ways(workload: &str, tag: &str) -> (Pass, Pass, Vec<Span>, Arc<Recorder>) {
        let inputs = generate(workload, 11, &Sizes::quick());
        let n = inputs.requests.len();
        let dir = out_dir();
        let spec = StackSpec {
            workers: 1,
            ..inputs.stack
        };
        let plain = Stack::build(&inputs.network, &spec, &dir, &format!("{tag}-plain"), None);
        let recorder = Arc::new(Recorder::new());
        let timed = Stack::build(
            &inputs.network,
            &spec,
            &dir,
            &format!("{tag}-timed"),
            Some(recorder.clone()),
        );
        assert_eq!(
            recorder.totals(Call::DiskRead).count,
            0,
            "the recorder is idle outside traced passes"
        );
        let expected = plain.run(&plain.prepare(&inputs.requests), 0..n);
        let (observed, spans) = timed.run_traced(&timed.prepare(&inputs.requests), 0..n, true);
        (expected, observed, spans, recorder)
    }

    #[test]
    fn decorators_change_neither_answers_nor_io_accounting() {
        let (expected, observed, engine_spans, recorder) = both_ways("facility_cold", "fidelity");
        assert!(!expected.panicked && !observed.panicked);
        assert_eq!(fingerprints(&expected), fingerprints(&observed));
        assert_eq!(expected.logical_reads, observed.logical_reads);
        assert_eq!(expected.buffer_hits, observed.buffer_hits);
        assert_eq!(expected.physical_reads, observed.physical_reads);
        // The disk decorator sees exactly the reads the pool accounts for.
        assert!(observed.physical_reads > 0);
        assert_eq!(
            recorder.totals(Call::DiskRead).count,
            observed.physical_reads
        );

        // Captured spans nest as the layers do: disk inside storage inside
        // the engine's search span, and nested self times add up.
        let spans = assemble(engine_spans, recorder.take_spans());
        let mut disk_spans = 0;
        for s in &spans {
            match s.layer.as_str() {
                "disk" => {
                    disk_spans += 1;
                    assert_eq!(
                        spans[s.parent.expect("disk reads have a parent")].layer,
                        "storage"
                    );
                }
                "storage" => {
                    let parent = &spans[s.parent.expect("store calls have a parent")];
                    assert_eq!(parent.name, "search");
                    assert!(s.request.is_some());
                }
                _ => {}
            }
        }
        assert_eq!(disk_spans, observed.physical_reads);
        let store_self: u64 = spans
            .iter()
            .filter(|s| s.layer == "storage")
            .map(|s| s.self_ns)
            .sum();
        let nested = recorder.store_totals().total_ns - recorder.totals(Call::DiskRead).total_ns;
        assert_eq!(store_self, nested, "containment self time = nested totals");
    }

    #[test]
    fn decorators_are_transparent_on_a_partitioned_store_too() {
        let (expected, observed, _, recorder) = both_ways("mixed_partitioned", "fidelity-part");
        assert_eq!(fingerprints(&expected), fingerprints(&observed));
        assert_eq!(expected.logical_reads, observed.logical_reads);
        assert_eq!(expected.physical_reads, observed.physical_reads);
        assert_eq!(
            recorder.totals(Call::DiskRead).count,
            observed.physical_reads
        );
        assert_eq!(expected.prep_misses, observed.prep_misses);
    }

    #[test]
    fn only_this_file_names_the_program_under_test() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "adapter.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let needle = ["mcn", "::"].concat();
            assert!(
                !text.contains(&needle),
                "{} reaches into the program; route the call through adapter.rs",
                path.display()
            );
        }
    }
}
