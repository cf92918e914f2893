//! The bounded worker pool scheduling a batch of queries.

use crate::context::PathContext;
use crate::request::{QueryOutcome, QueryRequest};
use mcn_expansion::TablePool;
use mcn_graph::RegionId;
use mcn_obs::{
    default_clock, Clock, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, Obs,
};
use mcn_prep::PrepCacheStats;
use mcn_storage::{with_seed_region, IoStats, MCNStore, PartitionedStore, StoreView};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Aggregate statistics of one executed batch.
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Number of queries executed.
    pub queries: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time from submission to the last completion.
    pub wall: Duration,
    /// Queries per second of wall-clock time.
    pub qps: f64,
    /// Store-wide I/O delta over the whole batch, taken from consistent
    /// before/after snapshots of the striped buffer pool (so
    /// `logical_reads == buffer_hits + buffer_misses` holds exactly).
    pub io: IoStats,
    /// Region-affine scheduling only: claims where a worker stayed on its
    /// previous region (zero for FIFO batches).
    pub affine_hits: u64,
    /// Region-affine scheduling only: fallback claims onto a region another
    /// worker was already serving (the no-starvation path; zero for FIFO
    /// batches).
    pub affine_steals: u64,
    /// Prep-table cache activity over this batch (hits/misses/evictions
    /// delta of the attached [`PathContext`]'s cache; all-zero when the
    /// engine has no path context or the batch had no path queries).
    pub prep_cache: PrepCacheStats,
    /// Per-query latency over the whole batch (claim to completion on the
    /// engine's clock) as a deterministic log2 histogram with p50/p95/p99
    /// (`engine.latency_ns`, nanoseconds).
    pub latency: HistogramSnapshot,
    /// The same latency histogram split by serving tier
    /// ([`QueryRequest::kind`]), labelled `tier=<kind>` and sorted by tier
    /// name; one entry per tier present in the batch.
    pub tier_latency: Vec<HistogramSnapshot>,
    /// Batch-local metrics snapshot: the I/O and prep-cache *deltas* above
    /// republished as `storage.*` / `prep.cache.*` counters, plus
    /// `engine.queries`/`engine.workers` and the latency histograms — so a
    /// batch's whole accounting reads as one deterministic snapshot.
    /// Counters here reconcile byte-exactly with
    /// [`BatchStats::io`] and [`BatchStats::prep_cache`].
    pub metrics: MetricsSnapshot,
}

/// A batch of outcomes plus its aggregate statistics. `outcomes[i]` belongs
/// to `requests[i]` regardless of which worker executed it.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-query outcomes, in request order.
    pub outcomes: Vec<QueryOutcome>,
    /// Aggregate statistics.
    pub stats: BatchStats,
}

/// The shared state of a region-affine batch: one FIFO queue of request
/// indices per region, plus how many workers are currently serving each
/// region.
struct AffineState {
    queues: Vec<VecDeque<usize>>,
    active: Vec<usize>,
    remaining: usize,
}

/// How a region-affine claim was made (for the batch statistics).
enum ClaimKind {
    /// The worker stayed on its previous region.
    Sticky,
    /// The worker moved to a region no one was serving.
    Spread,
    /// Every region with pending work was already being served; the worker
    /// took the globally oldest request anyway (prevents starvation).
    Steal,
}

impl AffineState {
    fn new(regions: &[RegionId], num_regions: usize) -> Self {
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); num_regions];
        for (i, region) in regions.iter().enumerate() {
            queues[region.index()].push_back(i);
        }
        Self {
            active: vec![0; num_regions],
            remaining: regions.len(),
            queues,
        }
    }

    /// Claims the next request for a worker whose previous region was
    /// `prefer`: its own region first, then the oldest request of an idle
    /// region, then — FIFO fallback — the oldest request overall.
    fn claim(&mut self, prefer: Option<usize>) -> Option<(usize, usize, ClaimKind)> {
        if self.remaining == 0 {
            return None;
        }
        if let Some(r) = prefer {
            if let Some(i) = self.queues[r].pop_front() {
                self.active[r] += 1;
                self.remaining -= 1;
                return Some((r, i, ClaimKind::Sticky));
            }
        }
        let oldest = |r_active: bool, queues: &[VecDeque<usize>], active: &[usize]| {
            queues
                .iter()
                .enumerate()
                .filter(|(r, q)| !q.is_empty() && (r_active || active[*r] == 0))
                .min_by_key(|(_, q)| *q.front().unwrap())
                .map(|(r, _)| r)
        };
        let (region, kind) = match oldest(false, &self.queues, &self.active) {
            Some(r) => (r, ClaimKind::Spread),
            // Every region with work is being served: take the oldest
            // pending request anyway so no request waits forever.
            None => (
                oldest(true, &self.queues, &self.active)
                    .expect("remaining > 0 implies a non-empty queue"),
                ClaimKind::Steal,
            ),
        };
        let i = self.queues[region].pop_front().unwrap();
        self.active[region] += 1;
        self.remaining -= 1;
        Some((region, i, kind))
    }
}

/// A multi-query scheduler: a fixed-size pool of worker threads draining a
/// batch of [`QueryRequest`]s against one shared store — a monolithic
/// [`MCNStore`] (the default) or any other [`StoreView`], e.g. a
/// region-partitioned store.
///
/// [`QueryEngine::run_batch`] claims requests FIFO through an atomic cursor.
/// [`QueryEngine::run_batch_with_regions`] additionally tags every query
/// with its seed region and can schedule **region-affine**: workers prefer
/// to stay on the region they just served (keeping that region's buffer
/// pool hot and avoiding two workers thrashing one region's pool), spread
/// to idle regions otherwise, and fall back to plain FIFO when every
/// region is taken — so no request ever starves. Scheduling never changes
/// results: each query runs the ordinary single-query algorithm, so
/// per-query outputs are identical to serial execution at any pool size
/// and in both scheduling modes.
pub struct QueryEngine<S: StoreView + ?Sized = MCNStore> {
    workers: usize,
    store: Arc<S>,
    /// Present when the engine serves [`QueryRequest::PathSkyline`]
    /// requests: the graph plus the shared prep-table cache.
    paths: Option<Arc<PathContext>>,
    /// Observability context: supplies the clock every batch is timed
    /// against, receives lifecycle spans when tracing is enabled, and
    /// accumulates cross-batch metrics in its shared registry.
    obs: Option<Arc<Obs>>,
}

const _: () = crate::assert_send_sync::<QueryEngine>();
const _: () = crate::assert_send_sync::<QueryEngine<PartitionedStore>>();
const _: () = crate::assert_send_sync::<QueryEngine<dyn StoreView>>();

impl<S: StoreView + ?Sized> QueryEngine<S> {
    /// Creates an engine over `store` with `workers` threads (clamped to at
    /// least one).
    pub fn new(store: Arc<S>, workers: usize) -> Self {
        Self {
            store,
            workers: workers.max(1),
            paths: None,
            obs: None,
        }
    }

    /// Attaches a [`PathContext`] so the engine can serve
    /// [`QueryRequest::PathSkyline`] requests; batches then share the
    /// context's prep-table cache across workers (and across batches, for a
    /// warm cache). The context can be shared between engines.
    pub fn with_path_context(mut self, paths: Arc<PathContext>) -> Self {
        self.paths = Some(paths);
        self
    }

    /// The attached path context, if any.
    pub fn path_context(&self) -> Option<&Arc<PathContext>> {
        self.paths.as_ref()
    }

    /// Attaches an observability context. Batches are then timed against
    /// its [`Clock`], publish cumulative store/prep/engine metrics into
    /// its registry after every batch, and — when `obs.set_tracing(true)`
    /// — record per-query lifecycle spans
    /// (`schedule → prep-lookup/build → search → unpack → fingerprint`)
    /// into its tracer. Observation never changes query results.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The attached observability context, if any.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.as_ref()
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// Size of the worker pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes one request on the calling thread (no pool involved).
    pub fn run_one(&self, request: &QueryRequest) -> QueryOutcome {
        request.execute(
            &self.store,
            self.paths.as_deref(),
            self.obs.as_deref(),
            0,
            &TablePool::new(),
        )
    }

    /// Executes `requests` across the worker pool and returns the outcomes
    /// in request order together with aggregate throughput statistics.
    ///
    /// Blocks until the whole batch has completed. With `workers == 1` this
    /// is plain serial execution on one spawned thread; larger pools only
    /// change scheduling, never results.
    pub fn run_batch(&self, requests: &[QueryRequest]) -> BatchResult {
        self.run(requests, None, false)
    }

    /// Like [`QueryEngine::run_batch`], with every query tagged by its seed
    /// region (`regions[i]` for `requests[i]`, as produced by
    /// `PartitionMap::region_of_location`). Execution is wrapped in
    /// [`with_seed_region`], so a partitioned store classifies its reads as
    /// home/cross-region in **both** modes; `affine` selects region-affine
    /// claiming over plain FIFO. Results are byte-identical either way.
    ///
    /// # Panics
    /// Panics if the tag slice length differs from the request count.
    pub fn run_batch_with_regions(
        &self,
        requests: &[QueryRequest],
        regions: &[RegionId],
        affine: bool,
    ) -> BatchResult {
        assert_eq!(
            requests.len(),
            regions.len(),
            "one region tag per request required"
        );
        self.run(requests, Some(regions), affine)
    }

    fn run(
        &self,
        requests: &[QueryRequest],
        regions: Option<&[RegionId]>,
        affine: bool,
    ) -> BatchResult {
        let n = requests.len();
        let io_before = self.store.io_stats();
        let prep_before = self
            .paths
            .as_deref()
            .map(|ctx| ctx.cache_stats())
            .unwrap_or_default();
        let obs = self.obs.as_deref();
        let clock: &dyn Clock = match obs {
            Some(o) => o.clock(),
            None => default_clock(),
        };
        // Per-query latency (claim → completion), overall and split by
        // serving tier. `Histogram::record` is wait-free, so workers share
        // the histograms by reference without a lock.
        let latency_hist = Histogram::new();
        let tier_hists: Vec<(&'static str, Histogram)> = {
            let mut tiers: Vec<&'static str> = requests.iter().map(QueryRequest::kind).collect();
            tiers.sort_unstable();
            tiers.dedup();
            tiers.into_iter().map(|t| (t, Histogram::new())).collect()
        };
        let started_ns = clock.now_ns();
        let slots: Vec<Mutex<Option<QueryOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let affine_hits = AtomicU64::new(0);
        let affine_steals = AtomicU64::new(0);

        let paths = self.paths.as_deref();
        let latency_hist = &latency_hist;
        let tier_hists = &tier_hists;
        let execute = |i: usize, pool: &TablePool| {
            let tier = requests[i].kind();
            let t0 = clock.now_ns();
            if let Some(o) = obs {
                // The schedule span covers batch submission → this claim.
                o.tracer()
                    .record("schedule", tier, i as u64, started_ns, t0);
            }
            let run = || requests[i].execute(&self.store, paths, obs, i as u64, pool);
            let outcome = match regions {
                Some(tags) => with_seed_region(tags[i], run),
                None => run(),
            };
            if let Some(o) = obs {
                if o.tracing() {
                    // Fingerprinting re-serializes the output, so only pay
                    // for it when someone is collecting the trace.
                    let _span = o.span("fingerprint", tier, i as u64);
                    let _ = outcome.output.fingerprint();
                }
            }
            let t1 = clock.now_ns();
            let latency = t1.saturating_sub(t0);
            latency_hist.record(latency);
            tier_hists
                .iter()
                .find(|(t, _)| *t == tier)
                .expect("every request kind has a histogram")
                .1
                .record(latency);
            let mut slot = slots[i].lock();
            *slot = Some(outcome);
        };

        // Scheduler state lives outside the scope so worker borrows survive
        // until the final join.
        let cursor = AtomicUsize::new(0);
        let state = affine.then(|| {
            let tags = regions.expect("affine scheduling requires region tags");
            let num_regions = tags.iter().map(|r| r.index() + 1).max().unwrap_or(1);
            Mutex::new(AffineState::new(tags, num_regions))
        });

        std::thread::scope(|scope| {
            let workers = self.workers.min(n.max(1));
            if let Some(state) = &state {
                for _ in 0..workers {
                    let execute = &execute;
                    let affine_hits = &affine_hits;
                    let affine_steals = &affine_steals;
                    scope.spawn(move || {
                        let pool = TablePool::new();
                        let mut last: Option<usize> = None;
                        loop {
                            let claimed = {
                                let mut st = state.lock();
                                st.claim(last)
                            };
                            let Some((region, i, kind)) = claimed else {
                                break;
                            };
                            match kind {
                                ClaimKind::Sticky => {
                                    affine_hits.fetch_add(1, Ordering::Relaxed);
                                }
                                ClaimKind::Spread => {}
                                ClaimKind::Steal => {
                                    affine_steals.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            execute(i, &pool);
                            {
                                let mut st = state.lock();
                                st.active[region] -= 1;
                            }
                            last = Some(region);
                        }
                    });
                }
            } else {
                for _ in 0..workers {
                    let cursor = &cursor;
                    let execute = &execute;
                    scope.spawn(move || {
                        let pool = TablePool::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            execute(i, &pool);
                        }
                    });
                }
            }
        });

        let wall = clock.elapsed(started_ns);
        let io = self.store.io_stats() - io_before;
        let prep_cache = self
            .paths
            .as_deref()
            .map(|ctx| ctx.cache_stats().since(&prep_before))
            .unwrap_or_default();
        let latency = latency_hist.snapshot("engine.latency_ns", Vec::new());
        let tier_latency: Vec<HistogramSnapshot> = tier_hists
            .iter()
            .map(|(tier, hist)| {
                hist.snapshot(
                    "engine.latency_ns",
                    vec![("tier".to_string(), tier.to_string())],
                )
            })
            .collect();

        // Batch-local metrics: the deltas above, republished so one
        // snapshot carries the whole batch accounting. Values reconcile
        // byte-exactly with `io`/`prep_cache` because they are set from
        // the same structs.
        let batch_registry = MetricsRegistry::new();
        io.publish(&batch_registry, &[]);
        prep_cache.publish(&batch_registry, &[]);
        batch_registry.counter("engine.queries", &[]).set(n as u64);
        batch_registry
            .counter("engine.workers", &[])
            .set(self.workers as u64);
        batch_registry.merge_histogram(&latency);
        for snap in &tier_latency {
            batch_registry.merge_histogram(snap);
        }
        let metrics = batch_registry.snapshot();

        // Cross-batch metrics: cumulative store/prep counters plus the
        // batch latency merged into the shared registry. One engine batch
        // runs at a time per store, so the absolute publishes are the
        // single-publisher case `IoStats::publish` documents.
        if let Some(o) = obs {
            let shared = o.registry();
            self.store.publish_metrics(shared);
            if let Some(ctx) = paths {
                ctx.cache_stats().publish(shared, &[]);
            }
            shared.counter("engine.batches", &[]).inc();
            shared.counter("engine.queries", &[]).add(n as u64);
            shared.merge_histogram(&latency);
            for snap in &tier_latency {
                shared.merge_histogram(snap);
            }
        }

        let outcomes: Vec<QueryOutcome> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every request slot is filled before the scope ends")
            })
            .collect();
        let qps = if wall.as_secs_f64() > 0.0 {
            n as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        BatchResult {
            outcomes,
            stats: BatchStats {
                queries: n,
                workers: self.workers,
                wall,
                qps,
                io,
                affine_hits: affine_hits.into_inner(),
                affine_steals: affine_steals.into_inner(),
                prep_cache,
                latency,
                tier_latency,
                metrics,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QueryOutput;
    use mcn_core::Algorithm;
    use mcn_gen::{generate_workload, WorkloadSpec};
    use mcn_graph::{partition_graph, PartitionSpec};
    use mcn_storage::{BufferConfig, PartitionedStore};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn fixture() -> (Arc<MCNStore>, Vec<QueryRequest>) {
        let workload = generate_workload(&WorkloadSpec::tiny(11));
        let d = workload.spec.cost_types;
        let store = Arc::new(
            MCNStore::build_in_memory(&workload.graph, BufferConfig::Fraction(0.01)).unwrap(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let requests: Vec<QueryRequest> = workload
            .queries
            .iter()
            .cycle()
            .take(12)
            .enumerate()
            .map(|(i, &location)| {
                let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
                let algorithm = if i % 2 == 0 {
                    Algorithm::Cea
                } else {
                    Algorithm::Lsa
                };
                match i % 3 {
                    0 => QueryRequest::Skyline {
                        location,
                        algorithm,
                    },
                    1 => QueryRequest::TopK {
                        location,
                        weights,
                        k: 4,
                        algorithm,
                    },
                    _ => QueryRequest::TopKIncremental {
                        location,
                        weights,
                        take: 3,
                        algorithm,
                    },
                }
            })
            .collect();
        (store, requests)
    }

    /// A partitioned fixture: the same workload shape over region shards,
    /// with every request tagged by its seed region.
    fn partitioned_fixture(
        regions: usize,
    ) -> (Arc<PartitionedStore>, Vec<QueryRequest>, Vec<RegionId>) {
        let workload = generate_workload(&WorkloadSpec::tiny(11));
        let d = workload.spec.cost_types;
        let map = partition_graph(&workload.graph, &PartitionSpec::new(regions));
        let tags_of = |location| map.region_of_location(&workload.graph, location);
        let store = Arc::new(
            PartitionedStore::build_in_memory(
                &workload.graph,
                map.clone(),
                BufferConfig::Pages(32),
            )
            .unwrap(),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut requests = Vec::new();
        let mut tags = Vec::new();
        for (i, &location) in workload.queries.iter().cycle().take(16).enumerate() {
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.01..1.0)).collect();
            let algorithm = if i % 2 == 0 {
                Algorithm::Cea
            } else {
                Algorithm::Lsa
            };
            requests.push(match i % 2 {
                0 => QueryRequest::Skyline {
                    location,
                    algorithm,
                },
                _ => QueryRequest::TopK {
                    location,
                    weights,
                    k: 4,
                    algorithm,
                },
            });
            tags.push(tags_of(location));
        }
        (store, requests, tags)
    }

    fn fingerprints(result: &BatchResult) -> Vec<String> {
        result
            .outcomes
            .iter()
            .map(|o| o.output.fingerprint())
            .collect()
    }

    #[test]
    fn four_workers_match_serial_byte_for_byte() {
        let (store, requests) = fixture();
        let serial = QueryEngine::new(store.clone(), 1).run_batch(&requests);
        let concurrent = QueryEngine::new(store.clone(), 4).run_batch(&requests);
        assert_eq!(fingerprints(&serial), fingerprints(&concurrent));
        // Logical reads are a pure function of the queries, independent of
        // scheduling and buffer state.
        assert_eq!(
            serial.stats.io.logical_reads,
            concurrent.stats.io.logical_reads
        );
    }

    /// One worker serves a whole batch on one set of expansion tables, two
    /// workers split it over two sets in a timing-dependent way, a second
    /// batch starts on new ones and `run_one` uses fresh tables per request:
    /// which tables a query ran on, and what ran on them before, must never
    /// show in its result.
    #[test]
    fn table_reuse_never_shows_in_results() {
        fn check<S: StoreView>(
            store: Arc<S>,
            requests: &[QueryRequest],
            run: impl Fn(&QueryEngine<S>) -> BatchResult,
        ) {
            let one = QueryEngine::new(store.clone(), 1);
            let fresh: Vec<String> = requests
                .iter()
                .map(|r| one.run_one(r).output.fingerprint())
                .collect();
            let first = run(&one);
            let again = run(&one);
            let two = run(&QueryEngine::new(store, 2));
            assert_eq!(fingerprints(&first), fresh);
            assert_eq!(fingerprints(&again), fresh);
            assert_eq!(fingerprints(&two), fresh);
            assert_eq!(first.stats.io.logical_reads, again.stats.io.logical_reads);
            assert_eq!(first.stats.io.logical_reads, two.stats.io.logical_reads);
        }

        let (store, requests) = fixture();
        let requests = [requests.clone(), requests.clone(), requests].concat();
        check(store, &requests, |engine| engine.run_batch(&requests));

        let (store, requests, tags) = partitioned_fixture(4);
        let (requests, tags) = ([requests.clone(), requests].concat(), tags.repeat(2));
        check(store, &requests, |engine| {
            engine.run_batch_with_regions(&requests, &tags, true)
        });
    }

    #[test]
    fn batch_stats_are_populated_and_consistent() {
        let (store, requests) = fixture();
        let result = QueryEngine::new(store, 3).run_batch(&requests);
        assert_eq!(result.stats.queries, requests.len());
        assert_eq!(result.stats.workers, 3);
        assert!(result.stats.qps > 0.0);
        assert!(result.stats.io.logical_reads > 0);
        assert_eq!(
            result.stats.io.logical_reads,
            result.stats.io.buffer_hits + result.stats.io.buffer_misses
        );
        assert_eq!(result.stats.affine_hits, 0);
        assert_eq!(result.stats.affine_steals, 0);
        for outcome in &result.outcomes {
            assert!(!outcome.output.is_empty());
            assert!(outcome.stats.nodes_settled > 0);
        }
    }

    #[test]
    fn outcomes_follow_request_order() {
        let (store, requests) = fixture();
        let result = QueryEngine::new(store.clone(), 4).run_batch(&requests);
        for (req, outcome) in requests.iter().zip(&result.outcomes) {
            match (req, &outcome.output) {
                (QueryRequest::Skyline { .. }, QueryOutput::Skyline(_)) => {}
                (QueryRequest::TopK { k, .. }, QueryOutput::TopK(entries)) => {
                    assert!(entries.len() <= *k);
                }
                (QueryRequest::TopKIncremental { take, .. }, QueryOutput::TopK(entries)) => {
                    assert!(entries.len() <= *take);
                }
                other => panic!("request/outcome kind mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_topk_matches_batch_topk_prefix() {
        let (store, _) = fixture();
        let location = mcn_graph::NetworkLocation::Node(mcn_graph::NodeId::new(5));
        let weights = vec![0.5, 0.3, 0.2];
        let engine = QueryEngine::new(store, 2);
        let batch = engine.run_one(&QueryRequest::TopK {
            location,
            weights: weights.clone(),
            k: 5,
            algorithm: Algorithm::Cea,
        });
        let incremental = engine.run_one(&QueryRequest::TopKIncremental {
            location,
            weights,
            take: 5,
            algorithm: Algorithm::Cea,
        });
        assert_eq!(batch.output.fingerprint(), incremental.output.fingerprint());
    }

    #[test]
    fn zero_workers_clamps_to_one_and_empty_batch_is_fine() {
        let (store, _) = fixture();
        let engine = QueryEngine::new(store, 0);
        assert_eq!(engine.workers(), 1);
        let result = engine.run_batch(&[]);
        assert!(result.outcomes.is_empty());
        assert_eq!(result.stats.queries, 0);
    }

    #[test]
    fn engine_runs_over_a_partitioned_store() {
        let (store, requests, tags) = partitioned_fixture(4);
        let engine = QueryEngine::new(store.clone(), 4);
        let fifo = engine.run_batch_with_regions(&requests, &tags, false);
        let affine = engine.run_batch_with_regions(&requests, &tags, true);
        // Scheduling mode changes neither the results …
        assert_eq!(fingerprints(&fifo), fingerprints(&affine));
        // … nor the logical read count (a pure function of the queries).
        assert_eq!(fifo.stats.io.logical_reads, affine.stats.io.logical_reads);
        // Every query executed exactly once (no starvation, no loss).
        assert_eq!(affine.outcomes.len(), requests.len());
        // The seed scope classified reads in both modes.
        let traffic = store.region_traffic();
        assert!(traffic.home_reads + traffic.cross_reads > 0);
    }

    #[test]
    fn affine_matches_plain_fifo_on_a_monolithic_store_too() {
        // Region tags over a monolithic store are legal (single region 0):
        // affinity degenerates to FIFO with extra bookkeeping.
        let (store, requests) = fixture();
        let tags = vec![RegionId::new(0); requests.len()];
        let engine = QueryEngine::new(store.clone(), 3);
        let plain = engine.run_batch(&requests);
        let affine = engine.run_batch_with_regions(&requests, &tags, true);
        assert_eq!(fingerprints(&plain), fingerprints(&affine));
        // One region, three workers: apart from each worker's first claim
        // (spread or steal depending on timing), every claim is sticky or a
        // steal — never more than the batch minus the very first spread.
        let classified = affine.stats.affine_hits + affine.stats.affine_steals;
        assert!(
            (requests.len() as u64 - 3..requests.len() as u64).contains(&classified),
            "unexpected claim mix: {classified} of {}",
            requests.len()
        );
    }

    #[test]
    fn single_worker_affine_drains_regions_without_steals() {
        // With one worker the schedule is fully deterministic: spread to the
        // oldest idle region, drain it with sticky claims, repeat. The steal
        // path (another worker on the region) cannot trigger.
        let (store, requests, tags) = partitioned_fixture(8);
        let engine = QueryEngine::new(store, 1);
        let result = engine.run_batch_with_regions(&requests, &tags, true);
        let distinct: std::collections::BTreeSet<RegionId> = tags.iter().copied().collect();
        assert_eq!(result.stats.affine_steals, 0);
        assert_eq!(
            result.stats.affine_hits,
            (requests.len() - distinct.len()) as u64
        );
    }

    /// A fixture with path-skyline requests mixed into the batch: sources
    /// and targets cycled over a small pool so the prep cache gets reuse.
    /// The network is deliberately smaller than [`WorkloadSpec::tiny`]:
    /// anti-correlated Pareto path sets grow quickly with network diameter
    /// and these tests also run in debug builds.
    fn path_fixture() -> (Arc<MCNStore>, Arc<crate::PathContext>, Vec<QueryRequest>) {
        let workload = generate_workload(&WorkloadSpec {
            nodes: 250,
            facilities: 60,
            queries: 4,
            ..WorkloadSpec::tiny(31)
        });
        let graph = Arc::new(workload.graph);
        let store = Arc::new(
            MCNStore::build_on(
                &graph,
                Arc::new(mcn_storage::InMemoryDisk::new()),
                BufferConfig::Fraction(0.01),
            )
            .unwrap(),
        );
        let ctx = Arc::new(crate::PathContext::new(graph.clone(), 4));
        let mut rng = ChaCha8Rng::seed_from_u64(310);
        let n = graph.num_nodes();
        let targets: Vec<mcn_graph::NodeId> = (0..3)
            .map(|_| mcn_graph::NodeId::from(rng.gen_range(0..n)))
            .collect();
        let requests: Vec<QueryRequest> = (0..12)
            .map(|i| QueryRequest::PathSkyline {
                source: mcn_graph::NodeId::from(rng.gen_range(0..n)),
                target: targets[i % targets.len()],
            })
            .collect();
        (store, ctx, requests)
    }

    #[test]
    fn path_skyline_batches_match_serial_byte_for_byte() {
        let (store, ctx, requests) = path_fixture();
        let serial = QueryEngine::new(store.clone(), 1)
            .with_path_context(ctx.clone())
            .run_batch(&requests);
        ctx.clear_cache();
        let concurrent = QueryEngine::new(store, 4)
            .with_path_context(ctx.clone())
            .run_batch(&requests);
        assert_eq!(fingerprints(&serial), fingerprints(&concurrent));
        for outcome in &serial.outcomes {
            assert!(matches!(outcome.output, QueryOutput::Paths(_)));
            assert!(!outcome.output.is_empty());
        }
        // Three distinct targets, twelve requests: the cache absorbed the
        // repeats (some misses may duplicate under races, never exceed the
        // request count).
        let stats = ctx.cache_stats();
        assert!(stats.hits > 0);
        assert!(stats.misses < requests.len() as u64);
    }

    #[test]
    fn warm_cache_reruns_are_fingerprint_identical() {
        let (store, ctx, requests) = path_fixture();
        let engine = QueryEngine::new(store, 2).with_path_context(ctx.clone());
        let cold = engine.run_batch(&requests);
        let warm = engine.run_batch(&requests);
        assert_eq!(fingerprints(&cold), fingerprints(&warm));
        // The second batch ran entirely from the cache.
        assert!(ctx.cache_stats().hits >= requests.len() as u64);
    }

    #[test]
    #[should_panic(expected = "PathContext")]
    fn path_skyline_without_context_panics() {
        let (store, _) = fixture();
        let engine = QueryEngine::new(store, 1);
        let _ = engine.run_one(&QueryRequest::PathSkyline {
            source: mcn_graph::NodeId::new(0),
            target: mcn_graph::NodeId::new(1),
        });
    }

    /// Mixed serving-tier traffic: alpha-path requests interleaved with
    /// path-skyline and skyline requests in one batch, exercising the
    /// per-user preference route through the shared prep cache.
    fn mixed_alpha_fixture() -> (Arc<MCNStore>, Arc<crate::PathContext>, Vec<QueryRequest>) {
        let (store, ctx, mut requests) = path_fixture();
        let n = ctx.graph().num_nodes();
        let d = ctx.graph().num_cost_types();
        let mut rng = ChaCha8Rng::seed_from_u64(311);
        let targets: Vec<mcn_graph::NodeId> = requests
            .iter()
            .filter_map(|r| match r {
                QueryRequest::PathSkyline { target, .. } => Some(*target),
                _ => None,
            })
            .collect();
        for i in 0..12 {
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.05..1.0)).collect();
            requests.push(QueryRequest::AlphaPath {
                source: mcn_graph::NodeId::from(rng.gen_range(0..n)),
                target: targets[i % targets.len()],
                alpha: mcn_alpha::Preference::new(&weights).unwrap(),
            });
        }
        (store, ctx, requests)
    }

    #[test]
    fn alpha_path_batches_match_serial_and_report_cache_stats() {
        let (store, ctx, requests) = mixed_alpha_fixture();
        let serial = QueryEngine::new(store.clone(), 1)
            .with_path_context(ctx.clone())
            .run_batch(&requests);
        ctx.clear_cache();
        let concurrent = QueryEngine::new(store, 4)
            .with_path_context(ctx.clone())
            .run_batch(&requests);
        assert_eq!(fingerprints(&serial), fingerprints(&concurrent));
        for (request, outcome) in requests.iter().zip(&serial.outcomes) {
            if let QueryRequest::AlphaPath { .. } = request {
                assert_eq!(request.kind(), "alpha-path");
                assert_eq!(outcome.stats.algorithm, "alpha-astar");
                assert!(matches!(outcome.output, QueryOutput::AlphaPath(_)));
                assert_eq!(outcome.stats.result_size, outcome.output.len());
            }
        }
        // The batch-level prep-cache delta reconciles: every path-flavored
        // request was one cache lookup, and the warm repeats were hits.
        // One worker serves in request order: the twelve path skylines built
        // the three tables, so every α request after them was a hit.
        let cache = serial.stats.prep_cache;
        assert_eq!(cache.hits + cache.misses + cache.bypassed, 24);
        assert_eq!((cache.misses, cache.bypassed), (3, 0));
        assert!(cache.hit_ratio() > 0.0);
        // A batch with no path context reports a zeroed delta.
        let (plain_store, plain_requests) = fixture();
        let plain = QueryEngine::new(plain_store, 2).run_batch(&plain_requests);
        assert_eq!(plain.stats.prep_cache, mcn_prep::PrepCacheStats::default());
    }

    /// α requests to distinct targets, so an empty cache bypasses every one
    /// (no target is asked for twice) and a pre-warmed one hits every one.
    fn distinct_target_alpha_fixture() -> (Arc<MCNStore>, Arc<crate::PathContext>, Vec<QueryRequest>)
    {
        let (store, small, _) = path_fixture();
        let graph = small.graph().clone();
        let n = graph.num_nodes();
        let d = graph.num_cost_types();
        let mut rng = ChaCha8Rng::seed_from_u64(312);
        let requests: Vec<QueryRequest> = (0..12)
            .map(|i| {
                let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.05..1.0)).collect();
                QueryRequest::AlphaPath {
                    source: mcn_graph::NodeId::from(rng.gen_range(0..n)),
                    target: mcn_graph::NodeId::from(i * (n / 12)),
                    alpha: mcn_alpha::Preference::new(&weights).unwrap(),
                }
            })
            .collect();
        (
            store,
            Arc::new(crate::PathContext::new(graph, 16)),
            requests,
        )
    }

    #[test]
    fn alpha_answers_do_not_depend_on_the_cache_state_or_the_worker_count() {
        let (store, ctx, requests) = distinct_target_alpha_fixture();
        let n = requests.len() as u64;
        let run = |workers: usize| {
            QueryEngine::new(store.clone(), workers)
                .with_path_context(ctx.clone())
                .run_batch(&requests)
        };
        let tags = |result: &BatchResult| -> Vec<String> {
            result
                .outcomes
                .iter()
                .map(|o| o.stats.algorithm.clone())
                .collect()
        };

        // Empty cache: every request is answered table-free.
        let reference = run(1);
        assert!(tags(&reference).iter().all(|t| t == "alpha-dijkstra"));
        for workers in [1, 2] {
            ctx.clear_cache();
            let cold = run(workers);
            assert_eq!(fingerprints(&reference), fingerprints(&cold));
            assert_eq!(tags(&reference), tags(&cold));
            let expected = mcn_prep::PrepCacheStats {
                bypassed: n,
                ..Default::default()
            };
            assert_eq!(cold.stats.prep_cache, expected);
            assert!(ctx.cache().is_empty());
        }

        // Pre-warmed cache: every request is a hit served by A*.
        for request in &requests {
            if let QueryRequest::AlphaPath { target, .. } = request {
                ctx.table_for(*target);
            }
        }
        for workers in [1, 2] {
            let warm = run(workers);
            assert_eq!(fingerprints(&reference), fingerprints(&warm));
            assert!(tags(&warm).iter().all(|t| t == "alpha-astar"));
            let expected = mcn_prep::PrepCacheStats {
                hits: n,
                ..Default::default()
            };
            assert_eq!(warm.stats.prep_cache, expected);
        }
    }

    /// Bypassed requests rent with landmarks: a cache pre-warmed with the
    /// tables of *other* targets lends them to every bypassed search, which
    /// changes the work done and nothing else — not the answers, not the
    /// counters, not the eviction order, and the credit charged is exactly
    /// the landmark search's settled count.
    #[test]
    fn bypassed_requests_rent_with_landmarks_from_other_targets() {
        let (store, empty, requests) = distinct_target_alpha_fixture();
        let graph = empty.graph().clone();
        let n = requests.len() as u64;
        let step = graph.num_nodes() / 12;
        // Four tables of nodes no request asks for, warmed in this order into
        // a cache that holds exactly four.
        let others: Vec<mcn_graph::NodeId> = (0..4)
            .map(|i| mcn_graph::NodeId::from(i * 3 * step + step / 2))
            .collect();
        let run = |ctx: &Arc<crate::PathContext>, workers: usize| {
            QueryEngine::new(store.clone(), workers)
                .with_path_context(ctx.clone())
                .run_batch(&requests)
        };
        let reference = run(&empty, 1);
        for workers in [1, 2] {
            let ctx = Arc::new(crate::PathContext::new(graph.clone(), others.len()));
            for &other in &others {
                ctx.table_for(other);
            }
            let warmed = ctx.cache_stats();
            let result = run(&ctx, workers);
            assert_eq!(fingerprints(&reference), fingerprints(&result));
            assert!(result
                .outcomes
                .iter()
                .all(|o| o.stats.algorithm == "alpha-landmark"));
            let expected = mcn_prep::PrepCacheStats {
                bypassed: n,
                ..Default::default()
            };
            assert_eq!(result.stats.prep_cache, expected);
            assert_eq!(ctx.cache_stats().since(&warmed), expected);
            for (reference, landmark) in reference.outcomes.iter().zip(&result.outcomes) {
                assert!(landmark.stats.nodes_settled <= reference.stats.nodes_settled);
            }

            // Each target's credit is what its landmark search settled: the
            // price less that, less one, leaves it one node short of a build.
            // (Settled counts first: a build lends one more landmark.)
            let price = (graph.num_nodes() * graph.num_cost_types()) as u64;
            let cache = ctx.cache();
            let charged: Vec<(mcn_graph::NodeId, u64)> = requests
                .iter()
                .zip(&result.outcomes)
                .take(3)
                .map(|(request, outcome)| {
                    let QueryRequest::AlphaPath {
                        source,
                        target,
                        alpha,
                    } = request
                    else {
                        unreachable!("the fixture is all alpha requests")
                    };
                    let lent = cache.landmarks(*target);
                    let tables: Vec<&mcn_prep::PrepTable> = lent.iter().map(Arc::as_ref).collect();
                    let direct = mcn_alpha::scalarized_path_landmarks(
                        &graph, *source, *target, alpha, &tables,
                    );
                    assert_eq!(outcome.stats.nodes_settled as u64, direct.stats.settled);
                    (*target, direct.stats.settled)
                })
                .collect();
            for (target, settled) in charged {
                cache.charge(target, price - settled - 1);
                assert!(cache
                    .get_or_bypass(&graph, target, None, "alpha-path", 0)
                    .is_none());
                cache.charge(target, 1);
                assert!(cache
                    .get_or_bypass(&graph, target, None, "alpha-path", 0)
                    .is_some());
            }
            // Those three builds evicted the three least recently warmed
            // tables, in warm order: lending them as landmarks refreshed
            // nothing. (An absent target's `get` is a pure probe.)
            assert_eq!(cache.stats().evictions, 3);
            for &evicted in &others[..3] {
                assert!(cache.get(evicted).is_none());
            }
            assert!(cache.get(others[3]).is_some());
        }
    }

    #[test]
    fn repeated_alpha_targets_earn_their_tables_deterministically() {
        // One worker, one target, one request repeated: the cache's decision
        // sequence is a pure function of the settled counts charged to it.
        let (store, ctx, requests) = distinct_target_alpha_fixture();
        let request = requests[0].clone();
        let QueryRequest::AlphaPath {
            source,
            target,
            alpha,
        } = &request
        else {
            unreachable!("the fixture is all alpha requests")
        };
        let graph = ctx.graph();
        let settled = mcn_alpha::scalarized_path(graph, *source, *target, alpha)
            .stats
            .settled;
        let price = (graph.num_nodes() * graph.num_cost_types()) as u64;
        let bypasses = price.div_ceil(settled);
        let batch = vec![request; bypasses as usize + 3];
        let engine = QueryEngine::new(store, 1).with_path_context(ctx.clone());
        let result = engine.run_batch(&batch);
        let expected = mcn_prep::PrepCacheStats {
            hits: 2,
            misses: 1,
            evictions: 0,
            bypassed: bypasses,
        };
        assert_eq!(result.stats.prep_cache, expected);
        for (i, outcome) in result.outcomes.iter().enumerate() {
            let tag = if (i as u64) < bypasses {
                "alpha-dijkstra"
            } else {
                "alpha-astar"
            };
            assert_eq!(outcome.stats.algorithm, tag, "request {i}");
            assert_eq!(
                outcome.output.fingerprint(),
                result.outcomes[0].output.fingerprint()
            );
        }
    }

    #[test]
    fn engine_alpha_route_matches_direct_dijkstra() {
        // The engine's prep-backed A* answer must be the same route plain
        // Dijkstra finds without any engine or cache in the loop.
        let (store, ctx, requests) = mixed_alpha_fixture();
        let engine = QueryEngine::new(store, 2).with_path_context(ctx.clone());
        for request in &requests {
            if let QueryRequest::AlphaPath {
                source,
                target,
                alpha,
            } = request
            {
                let outcome = engine.run_one(request);
                let direct = mcn_alpha::scalarized_path(ctx.graph(), *source, *target, alpha);
                match (&outcome.output, direct.path) {
                    (QueryOutput::AlphaPath(Some(via_engine)), Some(plain)) => {
                        assert_eq!(via_engine.edges, plain.edges);
                        assert_eq!(via_engine.total.to_bits(), plain.total.to_bits());
                    }
                    (QueryOutput::AlphaPath(None), None) => {}
                    other => panic!("engine and direct search disagree: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn route_index_serves_path_queries_byte_identically() {
        let (store, ctx, requests) = mixed_alpha_fixture();
        let baseline = QueryEngine::new(store.clone(), 2)
            .with_path_context(ctx.clone())
            .run_batch(&requests);
        let index = Arc::new(mcn_index::RouteIndex::build(
            ctx.graph(),
            &mcn_index::IndexConfig::default(),
        ));
        assert!(index.exact(), "the fixture workload must index exactly");
        let indexed_ctx =
            Arc::new(crate::PathContext::new(ctx.graph().clone(), 4).with_route_index(index));
        let indexed = QueryEngine::new(store, 2)
            .with_path_context(indexed_ctx.clone())
            .run_batch(&requests);
        assert_eq!(fingerprints(&baseline), fingerprints(&indexed));
        for (request, outcome) in requests.iter().zip(&indexed.outcomes) {
            match request {
                QueryRequest::AlphaPath { .. } => {
                    assert_eq!(outcome.stats.algorithm, "alpha-index")
                }
                QueryRequest::PathSkyline { .. } => {
                    assert_eq!(outcome.stats.algorithm, "MCPP-index")
                }
                _ => {}
            }
        }
        // Index-served path queries never consult the prep cache.
        let cache = indexed_ctx.cache_stats();
        assert_eq!(cache.hits + cache.misses, 0);
    }

    #[test]
    fn inexact_route_index_falls_back_to_the_prep_tier() {
        let (store, ctx, requests) = mixed_alpha_fixture();
        // A bundle cap of 1 forces truncation on the anti-correlated
        // workload, so the index is not exact and must never serve.
        let index = Arc::new(mcn_index::RouteIndex::build(
            ctx.graph(),
            &mcn_index::IndexConfig { max_bundle: 1 },
        ));
        assert!(!index.exact());
        let fallback_ctx = Arc::new(
            crate::PathContext::new(ctx.graph().clone(), 4).with_route_index(index.clone()),
        );
        assert!(fallback_ctx.route_index().is_some());
        assert!(fallback_ctx.serving_index().is_none());
        let outcomes = QueryEngine::new(store, 2)
            .with_path_context(fallback_ctx)
            .run_batch(&requests);
        for (request, outcome) in requests.iter().zip(&outcomes.outcomes) {
            match request {
                // Which of the three prep-tier searches ran depends on whether
                // the target's table, or another target's, was resident yet —
                // never the index.
                QueryRequest::AlphaPath { .. } => assert!(
                    matches!(
                        outcome.stats.algorithm.as_str(),
                        "alpha-astar" | "alpha-landmark" | "alpha-dijkstra"
                    ),
                    "{}",
                    outcome.stats.algorithm
                ),
                QueryRequest::PathSkyline { .. } => {
                    assert_eq!(outcome.stats.algorithm, "MCPP-prep")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn manual_clock_makes_batch_timing_deterministic() {
        let (store, requests) = fixture();
        let step = 1_000u64;
        let clock = Arc::new(mcn_obs::ManualClock::with_step(0, step));
        let obs = Arc::new(mcn_obs::Obs::with_clock(clock.clone()));
        let engine = QueryEngine::new(store, 1).with_obs(obs);
        let result = engine.run_batch(&requests);
        let n = requests.len() as u64;
        // One worker, tracing off: one read at batch start, four per query
        // (claim, request start, request wall, completion), one at the end.
        assert_eq!(clock.reads(), 4 * n + 2);
        assert_eq!(
            result.stats.wall,
            Duration::from_nanos((4 * n + 1) * step),
            "batch wall time is exact on a stepping clock"
        );
        for outcome in &result.outcomes {
            assert_eq!(outcome.wall, Duration::from_nanos(step));
        }
        // Every query took exactly claim→completion = 3 steps, so the
        // histogram collapses to a single value and every percentile
        // clamps to the observed max.
        let lat = &result.stats.latency;
        assert_eq!(lat.count, n);
        assert_eq!((lat.min, lat.max), (3 * step, 3 * step));
        assert_eq!((lat.p50, lat.p95, lat.p99), (3 * step, 3 * step, 3 * step));
        assert!(result.stats.qps > 0.0);
    }

    #[test]
    fn frozen_clock_reports_zero_wall_and_zero_qps() {
        let (store, requests) = fixture();
        let obs = Arc::new(mcn_obs::Obs::with_clock(Arc::new(
            mcn_obs::ManualClock::new(7),
        )));
        let result = QueryEngine::new(store, 2)
            .with_obs(obs)
            .run_batch(&requests);
        assert_eq!(result.stats.wall, Duration::ZERO);
        assert_eq!(result.stats.qps, 0.0);
        assert_eq!(result.stats.latency.count, requests.len() as u64);
        assert_eq!(result.stats.latency.max, 0);
    }

    #[test]
    fn batch_metrics_reconcile_with_io_and_prep_stats() {
        let (store, ctx, mut requests) = mixed_alpha_fixture();
        // α requests to targets nothing else asks for: bypassed lookups.
        requests.extend(distinct_target_alpha_fixture().2);
        let obs = Arc::new(mcn_obs::Obs::new());
        let engine = QueryEngine::new(store.clone(), 4)
            .with_path_context(ctx.clone())
            .with_obs(obs.clone());
        let result = engine.run_batch(&requests);
        let n = requests.len() as u64;

        // Batch-local snapshot mirrors the delta structs byte-exactly.
        let m = &result.stats.metrics;
        let io = result.stats.io;
        assert_eq!(
            m.counter_value("storage.logical_reads", &[]),
            Some(io.logical_reads)
        );
        assert_eq!(
            m.counter_value("storage.buffer_hits", &[]),
            Some(io.buffer_hits)
        );
        assert_eq!(
            m.counter_value("storage.buffer_misses", &[]),
            Some(io.buffer_misses)
        );
        assert_eq!(io.logical_reads, io.buffer_hits + io.buffer_misses);
        let cache = result.stats.prep_cache;
        assert_eq!(m.counter_value("prep.cache.hits", &[]), Some(cache.hits));
        assert_eq!(
            m.counter_value("prep.cache.misses", &[]),
            Some(cache.misses)
        );
        assert_eq!(
            m.counter_value("prep.cache.bypassed", &[]),
            Some(cache.bypassed)
        );
        assert!(cache.bypassed > 0);
        // The whole batch is path-flavored: one cache lookup per request.
        assert_eq!(cache.hits + cache.misses + cache.bypassed, n);
        assert_eq!(m.counter_value("engine.queries", &[]), Some(n));
        assert_eq!(m.counter_value("engine.workers", &[]), Some(4));

        // Latency histograms: one overall, one per tier, and the tier
        // splits partition the batch.
        assert_eq!(result.stats.latency.count, n);
        let tier_total: u64 = result.stats.tier_latency.iter().map(|h| h.count).sum();
        assert_eq!(tier_total, n);
        let tiers: Vec<String> = result
            .stats
            .tier_latency
            .iter()
            .map(|h| h.labels[0].1.clone())
            .collect();
        let mut sorted = tiers.clone();
        sorted.sort();
        assert_eq!(tiers, sorted, "tier histograms are sorted by tier name");
        assert!(m.histogram("engine.latency_ns", &[]).is_some());

        // Shared registry: cumulative counters reconcile with the store's
        // own accounting after the batch.
        let shared = obs.registry().snapshot();
        assert_eq!(shared.counter_value("engine.batches", &[]), Some(1));
        assert_eq!(shared.counter_value("engine.queries", &[]), Some(n));
        let total = store.io_stats();
        assert_eq!(
            shared.counter_value("storage.logical_reads", &[]),
            Some(total.logical_reads)
        );
        assert_eq!(
            shared.counter_value("prep.cache.hits", &[]),
            Some(ctx.cache_stats().hits)
        );
        assert_eq!(
            shared.counter_value("prep.cache.bypassed", &[]),
            Some(ctx.cache_stats().bypassed)
        );
    }

    #[test]
    fn tracing_records_the_full_query_lifecycle() {
        let (store, ctx, requests) = mixed_alpha_fixture();
        let obs = Arc::new(mcn_obs::Obs::new());
        obs.set_tracing(true);
        let engine = QueryEngine::new(store.clone(), 2)
            .with_path_context(ctx.clone())
            .with_obs(obs.clone());
        let traced = engine.run_batch(&requests);
        let events = obs.tracer().drain();
        assert_eq!(obs.tracer().dropped(), 0);
        for i in 0..requests.len() as u64 {
            let names: Vec<&str> = events
                .iter()
                .filter(|e| e.query == i)
                .map(|e| e.name.as_str())
                .collect();
            for phase in ["schedule", "search", "unpack", "fingerprint"] {
                assert!(names.contains(&phase), "query {i} is missing {phase:?}");
            }
        }
        // Path-flavored queries also traced their prep-cache traffic.
        assert!(events.iter().any(|e| e.name == "prep-lookup"));
        assert!(events.iter().any(|e| e.name == "prep-build"));
        // Observability never changes results: rerunning with tracing off
        // (warm cache notwithstanding) is fingerprint-identical.
        obs.set_tracing(false);
        ctx.clear_cache();
        let untraced = engine.run_batch(&requests);
        assert_eq!(fingerprints(&traced), fingerprints(&untraced));
        assert!(obs.tracer().is_empty());
    }

    #[test]
    fn path_requests_are_region_taggable() {
        // PathSkyline requests carry their source as the location, so
        // region-affine batches accept them like any other request kind.
        let (store, ctx, requests) = path_fixture();
        let tags = vec![RegionId::new(0); requests.len()];
        let engine = QueryEngine::new(store, 2).with_path_context(ctx.clone());
        let plain = engine.run_batch(&requests);
        ctx.clear_cache();
        let affine = engine.run_batch_with_regions(&requests, &tags, true);
        assert_eq!(fingerprints(&plain), fingerprints(&affine));
        for (request, outcome) in requests.iter().zip(&affine.outcomes) {
            assert_eq!(request.kind(), "path-skyline");
            assert_eq!(outcome.stats.algorithm, "MCPP-prep");
            assert!(outcome.stats.candidates > 0);
            assert_eq!(outcome.stats.result_size, outcome.output.len());
        }
    }
}
