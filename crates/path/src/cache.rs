//! A bounded LRU cache of [`PrepTable`]s keyed by target node.

use crate::table::PrepTable;
use mcn_graph::{MultiCostGraph, NodeId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Counters of one [`PrepCache`]'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that ran the backward scan. Counted where the scan is
    /// decided, not on a bare [`PrepCache::get`] probe; two workers missing
    /// one target at the same moment may both scan, and both count.
    pub misses: u64,
    /// Tables evicted to respect the capacity.
    pub evictions: u64,
    /// Admission lookups ([`PrepCache::get_or_bypass`]) that found no table
    /// and had not yet earned one: the caller answered without a table.
    pub bypassed: u64,
}

impl PrepCacheStats {
    /// Counter deltas accumulated since an earlier `snapshot` of the same
    /// cache (saturating, so a `clear()` in between yields zeros rather
    /// than wrapping).
    pub fn since(&self, snapshot: &PrepCacheStats) -> PrepCacheStats {
        PrepCacheStats {
            hits: self.hits.saturating_sub(snapshot.hits),
            misses: self.misses.saturating_sub(snapshot.misses),
            evictions: self.evictions.saturating_sub(snapshot.evictions),
            bypassed: self.bypassed.saturating_sub(snapshot.bypassed),
        }
    }

    /// Fraction of all lookups — hits, scans and bypasses — served from the
    /// cache (0 when none happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses + self.bypassed;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Publish these counters into a metrics registry under the given
    /// labels (absolute values, so re-publishing is idempotent; keep one
    /// publisher per label set when exact reconciliation matters).
    pub fn publish(&self, registry: &mcn_obs::MetricsRegistry, labels: &[(&str, &str)]) {
        registry.counter("prep.cache.hits", labels).set(self.hits);
        registry
            .counter("prep.cache.misses", labels)
            .set(self.misses);
        registry
            .counter("prep.cache.evictions", labels)
            .set(self.evictions);
        registry
            .counter("prep.cache.bypassed", labels)
            .set(self.bypassed);
        registry
            .gauge("prep.cache.hit_ratio", labels)
            .set(self.hit_ratio());
    }
}

/// Target node → value; probed and updated, never iterated.
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only; `recency` holds the only order that is iterated"
)]
type ByTarget<V> = std::collections::HashMap<u32, V>;

struct CacheInner {
    /// Target node → (table, recency generation). Tables are shared out as
    /// `Arc`s so an eviction never invalidates a query that is still using
    /// the table.
    map: ByTarget<(Arc<PrepTable>, u64)>,
    /// Recency index: generation → target key, least-recently-used first.
    /// A `BTreeMap` keyed by a monotonically increasing generation counter
    /// makes both a touch and an eviction O(log n) — the old `VecDeque`
    /// needed an O(n) scan per hit to relocate the key.
    recency: BTreeMap<u64, u32>,
    /// Next recency generation. Strictly increasing under the lock, so the
    /// eviction order is a pure function of the (serialized) operation
    /// sequence — exactly as deterministic as the queue it replaces.
    generation: u64,
    /// Target node → table-free work ([`PrepCache::charge`]) spent on it
    /// while it had no resident table. Disjoint from `map`'s keys: the entry
    /// is dropped when the target's table is built or inserted.
    credit: ByTarget<u64>,
    stats: PrepCacheStats,
}

/// What one locked probe of the cache decided.
enum Probe {
    Hit(Arc<PrepTable>),
    /// No table, and the caller is to run the scan (counted as a miss).
    Build,
    /// No table, and the target has not earned one yet.
    Bypass,
}

/// Generation of a map entry not yet indexed in `recency` (a fresh insert
/// before its first touch). `generation` increments once per touch, so the
/// sentinel is unreachable as a real generation.
const NO_GEN: u64 = u64::MAX;

impl CacheInner {
    /// Marks `key` most-recently-used, assigning it a fresh generation.
    fn touch(&mut self, key: u32) {
        let gen = self.generation;
        self.generation += 1;
        if let Some((_, slot)) = self.map.get_mut(&key) {
            let prev = std::mem::replace(slot, gen);
            if prev != NO_GEN {
                self.recency.remove(&prev);
            }
        }
        self.recency.insert(gen, key);
    }

    /// The resident table for `key`, counted as a hit and marked
    /// most-recently-used.
    fn hit(&mut self, key: u32) -> Option<Arc<PrepTable>> {
        let table = self.map.get(&key)?.0.clone();
        self.stats.hits += 1;
        self.touch(key);
        Some(table)
    }
}

/// A bounded, thread-safe LRU cache of [`PrepTable`]s keyed by **target
/// node** — the unit of reuse of ParetoPrep precomputation: one backward
/// scan serves every path-skyline query towards the same target, whatever
/// the source.
///
/// Concurrent misses for the *same* target may both run the scan (the lock
/// is not held while scanning); the scan is deterministic, so both arrive
/// at identical tables and the second insert is dropped. This trades a
/// little duplicate work under a cold cache for never serialising query
/// workers behind one scan.
///
/// # Break-even admission
///
/// A scan pops on the order of `num_nodes × d` queue entries, several
/// times what one search towards the target settles, so a table only pays
/// for itself on a target that keeps being asked for. A caller that can
/// answer without a table (the α-path tier: plain Dijkstra returns the
/// same route as A*) looks up through [`PrepCache::get_or_bypass`] and
/// [`PrepCache::charge`]s the nodes its table-free search settled to the
/// target. While the charged work is below the price of one scan the lookup
/// is a bypass; the first lookup at or above it builds and caches the table
/// and forgets the credit, so an evicted target has to earn its table
/// again. This is the rent-or-buy rule: whatever the traffic does, a
/// target costs about twice the better of "always scan" and "never scan"
/// at worst. The decision depends only on the order of lookups and
/// charges, both taken under the cache lock, and the credit map holds at
/// most one counter per distinct target without a table.
///
/// A table holds exact distances to its own target, so the resident tables
/// of *other* targets are landmarks for a rented search
/// ([`PrepCache::landmarks`]): the rent gets an A* heuristic from work
/// already paid for.
pub struct PrepCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

const _: () = crate::assert_send_sync::<PrepCache>();

impl PrepCache {
    /// Creates a cache holding at most `capacity` tables (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                map: ByTarget::new(),
                recency: BTreeMap::new(),
                generation: 0,
                credit: ByTarget::new(),
                stats: PrepCacheStats::default(),
            }),
        }
    }

    /// Number of tables currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True iff no table is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> PrepCacheStats {
        self.inner.lock().stats
    }

    /// Drops every cached table, forgets all admission credit and resets
    /// the counters (the "cold cache" starting condition of the `prep`
    /// experiment).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.map.clear();
        inner.recency.clear();
        inner.credit.clear();
        inner.stats = PrepCacheStats::default();
    }

    /// Returns the cached table for `target`, if any, counting a hit and
    /// refreshing its recency. A pure probe otherwise: an absent table
    /// counts nothing, because no scan follows from here.
    pub fn get(&self, target: NodeId) -> Option<Arc<PrepTable>> {
        let mut inner = self.inner.lock();
        inner.hit(target.raw())
    }

    /// One locked lookup that a scan may follow. Without a table,
    /// `price = None` always decides to scan; `Some(p)` decides to scan iff
    /// the target's credit has reached `p` and is a bypass otherwise.
    fn probe(&self, target: NodeId, price: Option<u64>) -> Probe {
        let key = target.raw();
        let mut inner = self.inner.lock();
        if let Some(table) = inner.hit(key) {
            return Probe::Hit(table);
        }
        let earned = inner.credit.get(&key).copied().unwrap_or(0);
        if price.is_some_and(|p| earned < p) {
            inner.stats.bypassed += 1;
            return Probe::Bypass;
        }
        // The scan runs right after this returns: count it here, under the
        // lock, and spend the credit so a concurrent lookup of the same
        // target answers table-free instead of scanning a second time.
        inner.credit.remove(&key);
        inner.stats.misses += 1;
        Probe::Build
    }

    /// Charges `settled` nodes of table-free search work to `target`, the
    /// other half of [`PrepCache::get_or_bypass`]. Dropped when the target
    /// has a resident table by now (another worker built it meanwhile).
    pub fn charge(&self, target: NodeId, settled: u64) {
        let key = target.raw();
        let mut inner = self.inner.lock();
        if !inner.map.contains_key(&key) {
            let earned = inner.credit.entry(key).or_insert(0);
            *earned = earned.saturating_add(settled);
        }
    }

    /// The resident tables of targets other than `target` whose own target
    /// `target` reaches — the candidate landmarks of a search towards a
    /// target without a table (the search picks among them). One locked
    /// pass over the resident set, least recently used first, that counts
    /// nothing and touches no recency: lending a table as a landmark changes
    /// no hit, miss or eviction.
    pub fn landmarks(&self, target: NodeId) -> Vec<Arc<PrepTable>> {
        let inner = self.inner.lock();
        inner
            .recency
            .values()
            .filter(|&&key| key != target.raw())
            .map(|key| &inner.map[key].0)
            .filter(|table| table.reaches(target))
            .cloned()
            .collect()
    }

    /// Inserts a table under its target key, evicting the least-recently
    /// used entries over capacity. An existing entry for the same target is
    /// kept (scans are deterministic, so both tables are identical).
    pub fn insert(&self, table: Arc<PrepTable>) -> Arc<PrepTable> {
        let key = table.target().raw();
        let mut inner = self.inner.lock();
        if let Some(existing) = inner.map.get(&key).map(|(t, _)| t.clone()) {
            inner.touch(key);
            return existing;
        }
        inner.map.insert(key, (table.clone(), NO_GEN));
        inner.credit.remove(&key);
        inner.touch(key);
        while inner.map.len() > self.capacity {
            let victim = *inner
                .recency
                .keys()
                .next()
                .expect("over-capacity cache has an LRU entry");
            let evicted = inner.recency.remove(&victim).expect("key present");
            inner.map.remove(&evicted);
            inner.stats.evictions += 1;
        }
        table
    }

    /// Returns the table for `target`, running (and caching) the backward
    /// scan on a miss — the entry point of callers that cannot answer
    /// without a table (the path-skyline tier). Under a tracing `obs`, it
    /// records a `prep-lookup` span around the cache probe and, on a miss,
    /// a `prep-build` span around the backward scan, tagged with `tier` and
    /// `query` (the insert stays outside the span so it times the scan, not
    /// lock contention).
    pub fn get_or_build(
        &self,
        graph: &MultiCostGraph,
        target: NodeId,
        obs: Option<&mcn_obs::Obs>,
        tier: &str,
        query: u64,
    ) -> Arc<PrepTable> {
        self.resolve(graph, target, None, obs, tier, query)
            .expect("a lookup without a price never bypasses")
    }

    /// The break-even lookup (see the type docs): the resident table; or,
    /// once the work [`PrepCache::charge`]d to `target` has reached the
    /// price of one scan (`num_nodes × d` queue pops), a freshly built and
    /// cached one; or `None` — answer without a table and charge what that
    /// cost. Records the same `prep-lookup` / `prep-build` spans as
    /// [`PrepCache::get_or_build`].
    pub fn get_or_bypass(
        &self,
        graph: &MultiCostGraph,
        target: NodeId,
        obs: Option<&mcn_obs::Obs>,
        tier: &str,
        query: u64,
    ) -> Option<Arc<PrepTable>> {
        let price = (graph.num_nodes() as u64).saturating_mul(graph.num_cost_types() as u64);
        self.resolve(graph, target, Some(price), obs, tier, query)
    }

    fn resolve(
        &self,
        graph: &MultiCostGraph,
        target: NodeId,
        price: Option<u64>,
        obs: Option<&mcn_obs::Obs>,
        tier: &str,
        query: u64,
    ) -> Option<Arc<PrepTable>> {
        let span = |name: &'static str| obs.map(|o| o.span(name, tier, query));
        let probe = {
            let _span = span("prep-lookup");
            self.probe(target, price)
        };
        match probe {
            Probe::Hit(table) => Some(table),
            Probe::Bypass => None,
            Probe::Build => {
                // Scan outside the lock so other targets proceed concurrently.
                let table = {
                    let _span = span("prep-build");
                    Arc::new(PrepTable::build(graph, target))
                };
                Some(self.insert(table))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_graph::{CostVec, GraphBuilder};
    use std::collections::VecDeque;

    fn line(n: u32) -> MultiCostGraph {
        let mut b = GraphBuilder::new(2);
        let ids: Vec<NodeId> = (0..n).map(|i| b.add_node(i as f64, 0.0)).collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], CostVec::from_slice(&[1.0, 2.0]))
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn get_or_build_caches_per_target() {
        let g = line(6);
        let cache = PrepCache::new(4);
        let a = cache.get_or_build(&g, NodeId::new(3), None, "", 0);
        let b = cache.get_or_build(&g, NodeId::new(3), None, "", 0);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let g = line(8);
        let cache = PrepCache::new(2);
        cache.get_or_build(&g, NodeId::new(0), None, "", 0);
        cache.get_or_build(&g, NodeId::new(1), None, "", 0);
        // Touch 0 so 1 becomes the LRU victim.
        cache.get_or_build(&g, NodeId::new(0), None, "", 0);
        cache.get_or_build(&g, NodeId::new(2), None, "", 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // 0 survived, 1 was evicted.
        assert!(cache.get(NodeId::new(0)).is_some());
        assert!(cache.get(NodeId::new(1)).is_none());
    }

    #[test]
    fn clear_resets_contents_and_counters() {
        let g = line(4);
        let cache = PrepCache::new(2);
        cache.get_or_build(&g, NodeId::new(1), None, "", 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), PrepCacheStats::default());
    }

    #[test]
    fn duplicate_insert_keeps_the_first_table() {
        let g = line(4);
        let cache = PrepCache::new(2);
        let first = cache.insert(Arc::new(PrepTable::build(&g, NodeId::new(2))));
        let second = cache.insert(Arc::new(PrepTable::build(&g, NodeId::new(2))));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    /// Single-threaded hammer: thousands of seeded get/insert operations
    /// checked step-by-step against a trivial `VecDeque` reference model of
    /// LRU recency. The generation-counter index must agree with the model
    /// on every hit, miss, eviction count and final resident set — i.e. the
    /// O(log n) rewrite is observationally identical to the O(n) queue it
    /// replaced.
    #[test]
    fn seeded_churn_matches_reference_lru_model() {
        const TARGETS: u64 = 9;
        const OPS: u64 = 4000;
        let g = line(16);
        let cache = PrepCache::new(3);
        let mut model: VecDeque<u32> = VecDeque::new();
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let mut lcg = 0xDEAD_BEEFu64;
        for _ in 0..OPS {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let raw = ((lcg >> 33) % TARGETS) as u32;
            let table = cache.get_or_build(&g, NodeId::new(raw), None, "", 0);
            assert_eq!(table.target(), NodeId::new(raw));
            // Reference model: hit moves to the back, miss inserts at the
            // back and evicts the front beyond capacity.
            if let Some(pos) = model.iter().position(|&k| k == raw) {
                model.remove(pos);
                model.push_back(raw);
                hits += 1;
            } else {
                model.push_back(raw);
                misses += 1;
                if model.len() > cache.capacity {
                    model.pop_front();
                    evictions += 1;
                }
            }
            // The resident set must match the model exactly at every step
            // (get() on a non-resident key would perturb the counters, so
            // compare through len + membership of the model's keys).
            assert_eq!(cache.len(), model.len());
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, hits);
        assert_eq!(stats.misses, misses);
        assert_eq!(stats.evictions, evictions);
        // Final resident set and recency order agree: inserting one more
        // fresh target must evict exactly the model's LRU front.
        let fresh = NodeId::new(TARGETS as u32);
        cache.get_or_build(&g, fresh, None, "", 0);
        let victim = model.pop_front().unwrap();
        assert!(
            cache.get(NodeId::new(victim)).is_none(),
            "model LRU front {victim} should have been evicted"
        );
        for &kept in model.iter() {
            assert!(cache.get(NodeId::new(kept)).is_some());
        }
    }

    #[test]
    fn hit_ratio_guards_the_zero_sample_case() {
        assert_eq!(PrepCacheStats::default().hit_ratio(), 0.0);
        let misses_only = PrepCacheStats {
            misses: 5,
            ..Default::default()
        };
        assert_eq!(misses_only.hit_ratio(), 0.0);
        // Bypassed lookups are lookups too: they dilute the ratio.
        let mixed = PrepCacheStats {
            hits: 2,
            misses: 1,
            bypassed: 5,
            ..Default::default()
        };
        assert_eq!(mixed.hit_ratio(), 0.25);
    }

    /// The admission lookup as the α tier drives it: a bypass charges
    /// `settled` nodes of table-free work to the target.
    fn admit(cache: &PrepCache, g: &MultiCostGraph, target: u32, settled: u64) -> bool {
        let target = NodeId::new(target);
        match cache.get_or_bypass(g, target, None, "alpha-path", 0) {
            Some(table) => {
                assert_eq!(table.target(), target);
                true
            }
            None => {
                cache.charge(target, settled);
                false
            }
        }
    }

    fn stats(hits: u64, misses: u64, evictions: u64, bypassed: u64) -> PrepCacheStats {
        PrepCacheStats {
            hits,
            misses,
            evictions,
            bypassed,
        }
    }

    #[test]
    fn admission_bypasses_until_the_charged_work_pays_for_one_scan() {
        // 6 nodes × d = 2: a scan is priced at 12 settled nodes.
        let g = line(6);
        let cache = PrepCache::new(4);
        assert!(!admit(&cache, &g, 3, 5));
        assert!(!admit(&cache, &g, 3, 5));
        // 10 < 12: still renting — and nothing was scanned or cached.
        assert!(!admit(&cache, &g, 3, 1));
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), stats(0, 0, 0, 3));
        // 11 < 12 after the third charge; one more settled node reaches it.
        assert!(!admit(&cache, &g, 3, 1));
        assert!(admit(&cache, &g, 3, 99), "12 ≥ 12: build");
        assert!(admit(&cache, &g, 3, 99), "resident: hit");
        assert_eq!(cache.stats(), stats(1, 1, 0, 4));
        assert_eq!(cache.len(), 1);
        // Another target's credit is its own.
        assert!(!admit(&cache, &g, 4, 11));
        assert!(!admit(&cache, &g, 4, 1));
        assert!(admit(&cache, &g, 4, 0));
        assert_eq!(cache.stats(), stats(1, 2, 0, 6));
    }

    #[test]
    fn clear_forgets_admission_credit() {
        let g = line(6);
        let cache = PrepCache::new(4);
        assert!(!admit(&cache, &g, 2, 11));
        cache.clear();
        assert_eq!(cache.stats(), PrepCacheStats::default());
        // Without the clear, 11 + 1 would have bought the table here.
        assert!(!admit(&cache, &g, 2, 1));
        assert!(!admit(&cache, &g, 2, 11));
        assert!(admit(&cache, &g, 2, 0));
    }

    #[test]
    fn an_evicted_target_earns_its_table_again() {
        let g = line(6);
        let cache = PrepCache::new(1);
        assert!(!admit(&cache, &g, 1, 12));
        assert!(admit(&cache, &g, 1, 0));
        // A second admitted target evicts the first (capacity 1) …
        assert!(!admit(&cache, &g, 2, 12));
        assert!(admit(&cache, &g, 2, 0));
        assert_eq!(cache.stats().evictions, 1);
        // … whose credit was spent on admission: it starts from zero.
        assert!(!admit(&cache, &g, 1, 6));
        assert!(!admit(&cache, &g, 1, 6));
        assert!(admit(&cache, &g, 1, 0));
        assert_eq!(cache.stats(), stats(0, 3, 2, 4));
    }

    #[test]
    fn a_table_built_for_a_path_skyline_serves_later_admission_lookups() {
        let g = line(6);
        let cache = PrepCache::new(1);
        assert!(!admit(&cache, &g, 3, 4));
        // The path-skyline tier has no table-free alternative: it builds.
        let built = cache.get_or_build(&g, NodeId::new(3), None, "", 0);
        let served = cache
            .get_or_bypass(&g, NodeId::new(3), None, "alpha-path", 0)
            .expect("resident table is a hit whatever the credit");
        assert!(Arc::ptr_eq(&built, &served));
        assert_eq!(cache.stats(), stats(1, 1, 0, 1));
        // The build dropped the target's partial credit, and a charge that
        // arrives late (a bypass that raced the build) is dropped too: once
        // evicted, the target starts from zero.
        cache.charge(NodeId::new(3), 100);
        cache.get_or_build(&g, NodeId::new(4), None, "", 0);
        assert!(cache.get(NodeId::new(3)).is_none());
        assert!(!admit(&cache, &g, 3, 0));
    }

    #[test]
    fn get_is_a_pure_probe_and_a_miss_is_counted_where_the_scan_runs() {
        let g = line(6);
        let cache = PrepCache::new(2);
        // Peeking at absent targets counts nothing.
        assert!(cache.get(NodeId::new(1)).is_none());
        assert!(cache.get(NodeId::new(2)).is_none());
        assert_eq!(cache.stats(), PrepCacheStats::default());
        // One scan, one miss — by either building entry point.
        cache.get_or_build(&g, NodeId::new(1), None, "", 0);
        assert_eq!(cache.stats(), stats(0, 1, 0, 0));
        cache.get_or_build(&g, NodeId::new(2), None, "path-skyline", 0);
        assert_eq!(cache.stats(), stats(0, 2, 0, 0));
        // A successful peek is a served lookup.
        assert!(cache.get(NodeId::new(1)).is_some());
        assert_eq!(cache.stats(), stats(1, 2, 0, 0));
        // Inserting a table built elsewhere is not a lookup at all.
        cache.insert(Arc::new(PrepTable::build(&g, NodeId::new(3))));
        assert_eq!(cache.stats(), stats(1, 2, 1, 0));
    }

    /// Same-target admission lookups racing from many threads: whoever
    /// crosses the price builds, everyone else rents or hits, and the cache
    /// ends with exactly one resident table, identical to a quiet build.
    #[test]
    fn concurrent_admission_of_one_target_leaves_one_resident_table() {
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 50;
        let g = line(12);
        let cache = PrepCache::new(3);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        admit(&cache, &g, 5, 7);
                        assert!(cache.len() <= 1);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses + stats.bypassed, THREADS * ROUNDS);
        assert!(stats.misses >= 1 && stats.bypassed >= 4, "{stats:?}");
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.len(), 1);
        let resident = cache.get(NodeId::new(5)).expect("the table was admitted");
        assert_eq!(*resident, PrepTable::build(&g, NodeId::new(5)));
    }

    fn targets(tables: &[Arc<PrepTable>]) -> Vec<u32> {
        tables.iter().map(|t| t.target().raw()).collect()
    }

    #[test]
    fn landmarks_are_the_other_resident_tables_least_recent_first() {
        let g = line(8);
        let cache = PrepCache::new(8);
        for raw in [5, 1, 6, 3] {
            cache.get_or_build(&g, NodeId::new(raw), None, "", 0);
        }
        let before = cache.stats();
        // The target's own table (3) is never lent out.
        assert_eq!(targets(&cache.landmarks(NodeId::new(3))), [5, 1, 6]);
        assert_eq!(targets(&cache.landmarks(NodeId::new(4))), [5, 1, 6, 3]);
        // Lending counts nothing.
        assert_eq!(cache.stats(), before);
        let single = PrepCache::new(2);
        single.get_or_build(&g, NodeId::new(2), None, "", 0);
        assert!(single.landmarks(NodeId::new(2)).is_empty());
    }

    #[test]
    fn landmarks_skip_tables_the_target_does_not_reach() {
        // 0 → 1 one-way, 1 — 2: target 0 reaches every table, target 2
        // reaches the tables of 1 and 2 only.
        let mut b = GraphBuilder::new(2);
        let ids: Vec<NodeId> = (0..3).map(|i| b.add_node(i as f64, 0.0)).collect();
        b.add_directed_edge(ids[0], ids[1], CostVec::from_slice(&[1.0, 1.0]))
            .unwrap();
        b.add_edge(ids[1], ids[2], CostVec::from_slice(&[1.0, 1.0]))
            .unwrap();
        let g = b.build().unwrap();
        let cache = PrepCache::new(3);
        for &id in &ids {
            cache.get_or_build(&g, id, None, "", 0);
        }
        assert_eq!(targets(&cache.landmarks(ids[2])), [1]);
        assert_eq!(targets(&cache.landmarks(ids[0])), [1, 2]);
    }

    #[test]
    fn lending_landmarks_leaves_the_eviction_order_alone() {
        let g = line(8);
        let cache = PrepCache::new(3);
        for raw in [0, 1, 2] {
            cache.get_or_build(&g, NodeId::new(raw), None, "", 0);
        }
        // Table 0 is the LRU victim; lending it out as a landmark must not
        // refresh it.
        assert_eq!(targets(&cache.landmarks(NodeId::new(5))), [0, 1, 2]);
        cache.get_or_build(&g, NodeId::new(3), None, "", 0);
        assert!(
            cache.get(NodeId::new(0)).is_none(),
            "0 was still the LRU entry"
        );
        assert_eq!(cache.stats(), stats(0, 4, 1, 0));
    }

    #[test]
    fn publish_mirrors_counters_into_registry() {
        let g = line(6);
        let cache = PrepCache::new(1);
        cache.get_or_build(&g, NodeId::new(1), None, "", 0);
        cache.get_or_build(&g, NodeId::new(1), None, "", 0);
        cache.get_or_build(&g, NodeId::new(2), None, "", 0);
        let registry = mcn_obs::MetricsRegistry::new();
        cache.stats().publish(&registry, &[]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("prep.cache.hits", &[]), Some(1));
        assert_eq!(snap.counter_value("prep.cache.misses", &[]), Some(2));
        assert_eq!(snap.counter_value("prep.cache.evictions", &[]), Some(1));
        assert_eq!(snap.counter_value("prep.cache.bypassed", &[]), Some(0));
        assert!(
            (snap.gauge_value("prep.cache.hit_ratio", &[]).unwrap() - cache.stats().hit_ratio())
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn observed_get_or_build_records_lookup_and_build_spans() {
        let g = line(6);
        let cache = PrepCache::new(2);
        let clock = Arc::new(mcn_obs::ManualClock::with_step(0, 100));
        let obs = mcn_obs::Obs::with_clock(clock);
        obs.set_tracing(true);

        // Miss: lookup + build spans; hit: lookup span only.
        let a = cache.get_or_build(&g, NodeId::new(3), Some(&obs), "path-skyline", 7);
        let b = cache.get_or_build(&g, NodeId::new(3), Some(&obs), "path-skyline", 8);
        assert!(Arc::ptr_eq(&a, &b));
        let events = obs.tracer().drain();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["prep-lookup", "prep-build", "prep-lookup"]);
        assert!(events.iter().all(|e| e.tier == "path-skyline"));
        assert_eq!(events[0].query, 7);
        assert_eq!(events[2].query, 8);
        // The stepping clock gives every span an exact 100 ns duration.
        assert!(events.iter().all(|e| e.dur_ns == 100));

        // Without a context nothing is traced; the table is the same.
        let c = cache.get_or_build(&g, NodeId::new(3), None, "path-skyline", 9);
        assert!(Arc::ptr_eq(&a, &c));
        assert!(obs.tracer().is_empty());

        // The admission lookup: a bypass is a lookup span and nothing else;
        // the lookup that buys the table adds the build span.
        let target = NodeId::new(4);
        assert!(cache
            .get_or_bypass(&g, target, Some(&obs), "alpha-path", 10)
            .is_none());
        cache.charge(target, 12);
        assert!(cache
            .get_or_bypass(&g, target, Some(&obs), "alpha-path", 11)
            .is_some());
        let events = obs.tracer().drain();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["prep-lookup", "prep-lookup", "prep-build"]);
        assert!(events.iter().all(|e| e.tier == "alpha-path"));
    }

    #[test]
    fn stats_since_subtracts_a_snapshot() {
        let g = line(6);
        let cache = PrepCache::new(2);
        cache.get_or_build(&g, NodeId::new(1), None, "", 0);
        let snap = cache.stats();
        cache.get_or_build(&g, NodeId::new(1), None, "", 0);
        cache.get_or_build(&g, NodeId::new(2), None, "", 0);
        cache.get_or_build(&g, NodeId::new(3), None, "", 0);
        let delta = cache.stats().since(&snap);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.misses, 2);
        assert_eq!(delta.evictions, 1);
        // A clear() between snapshots saturates to zero instead of wrapping.
        cache.clear();
        let wrapped = cache.stats().since(&snap);
        assert_eq!(wrapped, PrepCacheStats::default());
    }

    /// Hammers one cache from many threads with overlapping targets so
    /// inserts and evictions race constantly (capacity 3, 8 live targets),
    /// then checks the three invariants that must survive the churn: the
    /// size bound always holds, the counters reconcile with the work done,
    /// and every table handed out or retained is byte-identical to a fresh
    /// single-threaded build (the scan is deterministic, so racing builders
    /// must be indistinguishable).
    #[test]
    fn concurrent_churn_keeps_cache_bounded_and_deterministic() {
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 200;
        const TARGETS: u64 = 8;
        let g = line(12);
        let cache = PrepCache::new(3);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (g, cache) = (&g, &cache);
                s.spawn(move || {
                    // Per-thread LCG: each thread walks the target set in a
                    // different order, keeping hits, misses and evictions
                    // interleaved rather than phased.
                    let mut lcg = t * 2654435761 + 1;
                    for _ in 0..ROUNDS {
                        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let target = NodeId::new(((lcg >> 33) % TARGETS) as u32);
                        let table = cache.get_or_build(g, target, None, "", 0);
                        assert_eq!(table.target(), target);
                        // The size bound must hold at every observable
                        // moment, not just after the dust settles.
                        assert!(cache.len() <= cache.capacity);
                    }
                });
            }
        });

        // Counters reconcile: every lookup was a hit or a miss, and the
        // cache never retained more tables than misses built minus those
        // evicted (duplicate inserts from racing builders are dropped).
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, THREADS * ROUNDS);
        assert!(stats.misses >= TARGETS, "each target missed at least once");
        assert!(cache.len() as u64 + stats.evictions <= stats.misses);
        assert!(cache.len() <= cache.capacity);

        // Whatever survived the churn is exactly what a quiet,
        // single-threaded build produces.
        for raw in 0..TARGETS as u32 {
            if let Some(cached) = cache.get(NodeId::new(raw)) {
                assert_eq!(*cached, PrepTable::build(&g, NodeId::new(raw)));
            }
        }
    }
}
