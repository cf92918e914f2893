//! The traced pass's bookkeeping, free of any `mcn` type: a [`Recorder`] the
//! store/disk decorators report into, the span model with parent resolution
//! by time containment, and the chrome-trace writer.
//!
//! Spans are recorded only from this benchmark's own files. Store and disk
//! calls are far too many to keep individually (a million per pass), so they
//! are aggregated as count + total time + a log-linear histogram; full spans
//! are kept only while [`Recorder::set_capture`] is on (the first requests of
//! a traced pass). Everything stays in memory until the pass ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The calls the decorators time, outermost layer last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    DiskRead,
    Adjacency,
    FacilityRun,
    FacilityInfo,
    EdgeEndpoints,
}

impl Call {
    pub const ALL: [Call; 5] = [
        Call::DiskRead,
        Call::Adjacency,
        Call::FacilityRun,
        Call::FacilityInfo,
        Call::EdgeEndpoints,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::DiskRead => "disk.read_page",
            Call::Adjacency => "storage.adjacency",
            Call::FacilityRun => "storage.facilities_in_run",
            Call::FacilityInfo => "storage.facility_info",
            Call::EdgeEndpoints => "storage.edge_endpoints",
        }
    }

    pub fn layer(self) -> &'static str {
        match self {
            Call::DiskRead => "disk",
            _ => "storage",
        }
    }
}

/// Sub-buckets per power of two of the call-duration histogram: values are
/// binned with at most 1/16 relative error, fine enough to tell a page-cache
/// hit from a slow read, which the engine's log2 buckets are not.
const SUB_BUCKETS: u64 = 16;
const HIST_BUCKETS: usize = 48 * SUB_BUCKETS as usize;

fn hist_bucket(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let exp = 63 - u64::from(ns.leading_zeros());
    let sub = (ns >> (exp - 4)) & (SUB_BUCKETS - 1);
    (((exp - 3) * SUB_BUCKETS + sub) as usize).min(HIST_BUCKETS - 1)
}

/// Lower bound (ns) of the values a histogram bucket holds.
fn hist_bucket_floor(bucket: usize) -> u64 {
    let b = bucket as u64;
    if b < SUB_BUCKETS {
        return b;
    }
    let exp = b / SUB_BUCKETS + 3;
    (SUB_BUCKETS + b % SUB_BUCKETS) << (exp - 4)
}

struct CallAgg {
    count: AtomicU64,
    total_ns: AtomicU64,
    hist: Vec<AtomicU64>,
}

impl CallAgg {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            hist: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Count and total time of one call kind over a recording window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallTotals {
    pub count: u64,
    pub total_ns: u64,
}

impl std::ops::Sub for CallTotals {
    type Output = CallTotals;
    fn sub(self, rhs: CallTotals) -> CallTotals {
        CallTotals {
            count: self.count - rhs.count,
            total_ns: self.total_ns - rhs.total_ns,
        }
    }
}

/// One recorded interval. `thread` is the recording thread for decorator
/// spans and the engine's worker stripe for engine spans until
/// [`assemble`] maps the former onto the latter.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// The crate the time belongs to (`engine`, `storage`, `disk`, …).
    pub layer: String,
    /// Request index within the pass; `None` until resolved from a parent.
    pub request: Option<u64>,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the innermost enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Duration minus the part covered by direct children.
    pub self_ns: u64,
}

impl Span {
    pub fn new(
        name: &str,
        layer: &str,
        request: Option<u64>,
        thread: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        Self {
            name: name.to_string(),
            layer: layer.to_string(),
            request,
            thread,
            start_ns,
            end_ns,
            parent: None,
            self_ns: end_ns.saturating_sub(start_ns),
        }
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Process-wide small integer per thread (the engine spawns fresh workers for
/// every batch, so ids keep growing; they are only compared for equality).
fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// Where the decorators report. Disabled (the default) it costs one relaxed
/// load per call, so one decorated store serves both the untraced and the
/// traced passes of a `--trace 1` run.
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    capture: AtomicBool,
    calls: Vec<CallAgg>,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            capture: AtomicBool::new(false),
            calls: Call::ALL.iter().map(|_| CallAgg::new()).collect(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since this recorder was created — the one time base of a
    /// traced run (the engine's tracer is clocked from it too).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Keep every call as a full span (in addition to the aggregates).
    pub fn set_capture(&self, on: bool) {
        self.capture.store(on, Ordering::SeqCst);
    }

    /// Start of a timed call: `None` when recording is off.
    #[inline]
    pub fn start(&self) -> Option<u64> {
        self.enabled.load(Ordering::Relaxed).then(|| self.now_ns())
    }

    /// End of a call started with [`Recorder::start`].
    #[inline]
    pub fn finish(&self, call: Call, start_ns: Option<u64>) {
        let Some(start_ns) = start_ns else { return };
        let end_ns = self.now_ns();
        let agg = &self.calls[call as usize];
        let dur = end_ns.saturating_sub(start_ns);
        agg.count.fetch_add(1, Ordering::Relaxed);
        agg.total_ns.fetch_add(dur, Ordering::Relaxed);
        agg.hist[hist_bucket(dur)].fetch_add(1, Ordering::Relaxed);
        if self.capture.load(Ordering::Relaxed) {
            let span = Span::new(
                call.name(),
                call.layer(),
                None,
                thread_id(),
                start_ns,
                end_ns,
            );
            self.spans
                .lock()
                .expect("no recorder user panics while holding the span list")
                .push(span);
        }
    }

    /// Cumulative totals of one call kind.
    pub fn totals(&self, call: Call) -> CallTotals {
        let agg = &self.calls[call as usize];
        CallTotals {
            count: agg.count.load(Ordering::Relaxed),
            total_ns: agg.total_ns.load(Ordering::Relaxed),
        }
    }

    /// Cumulative totals of every store-level call (everything but the disk).
    pub fn store_totals(&self) -> CallTotals {
        Call::ALL
            .iter()
            .filter(|c| c.layer() == "storage")
            .map(|&c| self.totals(c))
            .fold(CallTotals::default(), |a, b| CallTotals {
                count: a.count + b.count,
                total_ns: a.total_ns + b.total_ns,
            })
    }

    /// Takes the full spans captured so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no recorder user panics while holding the span list"),
        )
    }

    /// Non-empty histogram buckets of one call kind as `(floor_ns, count)`.
    pub fn histogram(&self, call: Call) -> Vec<(u64, u64)> {
        self.calls[call as usize]
            .hist
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then(|| (hist_bucket_floor(b), c))
            })
            .collect()
    }
}

/// Durations of the engine's lifecycle spans over a pass, keyed by
/// `(span name, serving tier)`.
#[derive(Default)]
pub struct EngineAgg {
    durations: BTreeMap<(String, String), Vec<u64>>,
}

impl EngineAgg {
    pub fn add(&mut self, name: &str, tier: &str, dur_ns: u64) {
        self.durations
            .entry((name.to_string(), tier.to_string()))
            .or_default()
            .push(dur_ns);
    }

    /// Durations of `name` spans, over every tier or only `tier`.
    fn select<'a>(
        &'a self,
        name: &'a str,
        tier: Option<&'a str>,
    ) -> impl Iterator<Item = u64> + 'a {
        self.durations
            .iter()
            .filter(move |((n, t), _)| n == name && tier.is_none_or(|want| t == want))
            .flat_map(|(_, v)| v.iter().copied())
    }

    pub fn total_ns(&self, name: &str, tier: Option<&str>) -> u64 {
        self.select(name, tier).sum()
    }

    pub fn count(&self, name: &str, tier: Option<&str>) -> u64 {
        self.select(name, tier).count() as u64
    }

    pub fn mean_ns(&self, name: &str, tier: Option<&str>) -> f64 {
        crate::stats::ratio(
            self.total_ns(name, tier) as f64,
            self.count(name, tier) as f64,
        )
    }
}

/// Sets `parent` and `self_ns` of every span: the parent is the innermost
/// span on the same thread whose interval contains the child's; self time is
/// the duration minus the direct children's. A child inherits its parent's
/// request id when it has none of its own.
pub fn resolve_parents(spans: &mut [Span]) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Outer spans first: by thread, then start ascending, end descending.
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.thread, s.start_ns, std::cmp::Reverse(s.end_ns))
    });
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            let contains = spans[top].thread == spans[i].thread
                && spans[top].start_ns <= spans[i].start_ns
                && spans[i].end_ns <= spans[top].end_ns;
            if contains {
                break;
            }
            stack.pop();
        }
        spans[i].parent = stack.last().copied();
        spans[i].self_ns = spans[i].dur_ns();
        if let Some(p) = spans[i].parent {
            spans[p].self_ns = spans[p].self_ns.saturating_sub(spans[i].dur_ns());
            if spans[i].request.is_none() {
                spans[i].request = spans[p].request;
            }
        }
        stack.push(i);
    }
}

/// Joins the engine's lifecycle spans of a batch with the decorator spans
/// captured during it into one parent-resolved list.
///
/// Engine spans name the engine's worker stripe, decorator spans the
/// recording thread; a decorator thread is mapped onto the stripe whose
/// `search` spans contain most of its calls (every call of a worker lies in
/// that worker's own search span; it lies in another worker's only by
/// coincidence). The capture window must not span batches. A `request` root is synthesised per request around its
/// lifecycle spans. The `schedule` span (batch start → claim) overlaps
/// earlier requests of the same worker by construction, so it is kept out
/// of the containment tree on a thread row of its own.
pub fn assemble(engine: Vec<Span>, calls: Vec<Span>) -> Vec<Span> {
    const QUEUE_ROW: u32 = 1000;
    let mut spans: Vec<Span> = Vec::new();
    let mut schedule: Vec<Span> = Vec::new();
    let mut bounds: BTreeMap<u64, (u32, u64, u64)> = BTreeMap::new();
    for mut s in engine {
        if s.name == "schedule" {
            s.thread = QUEUE_ROW;
            schedule.push(s);
            continue;
        }
        if let Some(q) = s.request {
            let b = bounds.entry(q).or_insert((s.thread, s.start_ns, s.end_ns));
            b.1 = b.1.min(s.start_ns);
            b.2 = b.2.max(s.end_ns);
        }
        spans.push(s);
    }
    for (q, (thread, start, end)) in bounds {
        spans.push(Span::new("request", "engine", Some(q), thread, start, end));
    }

    let searches: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "search")
        .map(|s| (s.thread, s.start_ns, s.end_ns))
        .collect();
    let mut votes: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for c in &calls {
        for &(stripe, start, end) in &searches {
            if start <= c.start_ns && c.end_ns <= end {
                *votes.entry((c.thread, stripe)).or_default() += 1;
            }
        }
    }
    // One batch, so threads and stripes pair off one to one: hand out the
    // best-supported pairs first.
    let mut ranked: Vec<((u32, u32), u64)> = votes.into_iter().collect();
    ranked.sort_by_key(|&(pair, n)| (std::cmp::Reverse(n), pair));
    let mut stripe_of: BTreeMap<u32, u32> = BTreeMap::new();
    for ((thread, stripe), _) in ranked {
        if !stripe_of.contains_key(&thread) && !stripe_of.values().any(|&s| s == stripe) {
            stripe_of.insert(thread, stripe);
        }
    }
    for mut c in calls {
        // A call outside every search span (none exist today) keeps a row of
        // its own rather than being attached to a wrong parent.
        c.thread = stripe_of
            .get(&c.thread)
            .copied()
            .unwrap_or(QUEUE_ROW + 1 + c.thread);
        spans.push(c);
    }
    resolve_parents(&mut spans);
    spans.extend(schedule);
    spans
}

/// Serialises the spans (plus free-form aggregate data) as a chrome-trace
/// document: load it in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(spans: &[Span], other_data: &[(String, String)]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"request\": {}, \"parent\": {}, \
             \"self_us\": {:.3}}}}}{sep}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.thread + 1,
            i,
            s.request.map_or("null".to_string(), |q| q.to_string()),
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.self_ns as f64 / 1e3,
        );
    }
    out.push_str("], \"otherData\": {\n");
    for (i, (key, value)) in other_data.iter().enumerate() {
        let sep = if i + 1 == other_data.len() { "" } else { "," };
        let _ = writeln!(out, "  \"{key}\": {value}{sep}");
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, thread: u32, start: u64, end: u64) -> Span {
        Span::new(name, "test", None, thread, start, end)
    }

    #[test]
    fn parents_follow_containment_on_the_same_thread() {
        let mut spans = vec![
            span("disk", 0, 20, 30),
            span("search", 0, 0, 100),
            span("store", 0, 10, 40),
            span("store", 0, 50, 60),
            span("other-thread", 1, 15, 25),
        ];
        spans[1].request = Some(7);
        resolve_parents(&mut spans);
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[0].parent, Some(2));
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!(spans[4].parent, None);
        // Self time = duration − direct children.
        assert_eq!(spans[1].self_ns, 100 - 30 - 10);
        assert_eq!(spans[2].self_ns, 30 - 10);
        assert_eq!(spans[0].self_ns, 10);
        // Request ids flow down the tree.
        assert_eq!(spans[0].request, Some(7));
        assert_eq!(spans[4].request, None);
        // Self times of a tree add up to its root's duration.
        let tree: u64 = [0, 1, 2, 3].iter().map(|&i| spans[i].self_ns).sum();
        assert_eq!(tree, 100);
    }

    #[test]
    fn assemble_maps_decorator_threads_onto_engine_stripes() {
        let mut engine = vec![
            span("search", 3, 0, 100),
            span("unpack", 3, 100, 110),
            span("search", 4, 5, 50),
            span("schedule", 4, 0, 5),
        ];
        engine[0].request = Some(0);
        engine[1].request = Some(0);
        engine[2].request = Some(1);
        engine[3].request = Some(1);
        // Thread 17 works for stripe 3 (one call falls outside stripe 4's
        // search), thread 18 for stripe 4.
        let calls = vec![
            span("store", 17, 10, 20),
            span("store", 17, 60, 70),
            span("store", 18, 10, 20),
        ];
        let all = assemble(engine, calls);
        let of = |name: &str, start: u64| {
            all.iter()
                .position(|s| s.name == name && s.start_ns == start)
                .unwrap()
        };
        let late = &all[of("store", 60)];
        assert_eq!(late.thread, 3);
        assert_eq!(late.request, Some(0));
        assert_eq!(all[late.parent.unwrap()].name, "search");
        // Thread 18's only call fits both stripes; stripe 3 is taken.
        let early: Vec<u32> = all
            .iter()
            .filter(|s| s.name == "store" && s.start_ns == 10)
            .map(|s| s.thread)
            .collect();
        assert_eq!(early, vec![3, 4]);
        let roots: Vec<&Span> = all.iter().filter(|s| s.name == "request").collect();
        assert_eq!(roots.len(), 2);
        assert_eq!((roots[0].start_ns, roots[0].end_ns), (0, 110));
        // The schedule span sits outside the containment tree, after it.
        assert_eq!(all.last().unwrap().name, "schedule");
        assert_eq!(all[of("schedule", 0)].parent, None);
        assert!(chrome_trace(&all, &[("k".into(), "1".into())]).contains("\"otherData\""));
    }

    #[test]
    fn recorder_aggregates_only_when_enabled() {
        let rec = Recorder::new();
        rec.finish(Call::Adjacency, rec.start());
        assert_eq!(rec.totals(Call::Adjacency).count, 0);
        rec.set_enabled(true);
        rec.finish(Call::Adjacency, rec.start());
        rec.set_capture(true);
        rec.finish(Call::DiskRead, rec.start());
        assert_eq!(rec.totals(Call::Adjacency).count, 1);
        assert_eq!(rec.store_totals().count, 1);
        assert_eq!(rec.totals(Call::DiskRead).count, 1);
        let spans = rec.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].layer, "disk");
        assert_eq!(rec.histogram(Call::DiskRead).len(), 1);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [0u64, 1, 15, 16, 17, 100, 999, 1_000, 65_536, 10_000_000] {
            let b = hist_bucket(ns);
            assert!(b >= last);
            last = b;
            let floor = hist_bucket_floor(b);
            assert!(floor <= ns, "{floor} > {ns}");
            assert!((ns - floor) as f64 <= ns as f64 / 16.0 + 1.0);
        }
    }
}
