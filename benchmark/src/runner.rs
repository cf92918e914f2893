//! One run of one workload: generate → set up → warm up → measure → verify.
//!
//! **Load model.** Closed loop: a pass submits the workload's fixed, seeded
//! request list as one batch to the engine's worker pool, and a worker
//! claims its next request only when its previous one completes. A pass
//! always serves the whole list, so every count repeats exactly at one
//! worker; an end-to-end run repeats passes until `--seconds` have gone by
//! (at least one pass) and reports what a pass costs without the machine's
//! interference (see [`Steady`]).
//!
//! `--trace 0` measures the end-to-end metrics on an undecorated stack.
//! `--trace 1` serves the same inputs on a stack whose disk and store are
//! decorated and whose engine tracer is on, and adds direct layer probes;
//! it yields the per-layer metrics and the chrome trace.

use crate::adapter::{self, Network, Pass, Prepared, Stack};
use crate::metrics::{RunResult, Values, PER_LAYER};
use crate::oracle;
use crate::stats::{mean, median, peak_rss_mb, percentile_sorted, process_cpu_seconds, ratio, Fnv};
use crate::trace::{assemble, chrome_trace, Call, CallTotals, EngineAgg, Recorder, Span};
use crate::workloads::{self, Inputs, Req, Sizes, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups timed per `--trace 0` run, at least; `setup_s` is their first
/// quartile. Most set-ups here take milliseconds and the machine's slow
/// spells last seconds, so the set-ups are spread over the whole run: a few
/// before serving (the last of them serves), one after every measured pass,
/// and the rest at the end — at least [`SETUPS_AT_LEAST`] in all, and more
/// (up to [`SETUPS_AT_MOST`]) while they add up to less than
/// [`SETUPS_WORTH_S`]: a 40 µs set-up is mostly one file creation, and the
/// quartile of sixteen of those read 23 % apart between runs.
const SETUPS_BEFORE_SERVING: usize = 4;
const SETUPS_AT_LEAST: usize = 16;
const SETUPS_AT_MOST: usize = 256;
const SETUPS_WORTH_S: f64 = 0.05;

/// The first requests of a traced pass run as a batch of their own with
/// every store/disk call kept as a full span (a facility request makes
/// thousands of store calls: sixteen requests are a 9 MB trace file).
const CAPTURED_REQUESTS: usize = 16;
/// Later requests of a traced pass run in batches this large, the engine's
/// span rings (4096 events per worker) being drained after each.
const TRACED_CHUNK: usize = 512;

/// Inputs the direct layer probes sample from the request list.
const EXPANSION_PROBE_LOCATIONS: usize = 64;
const EXPANSION_PROBE_TAKE: usize = 16;
const PREP_PROBE_TARGETS: usize = 16;
const ALPHA_PROBE_REQUESTS: usize = 32;
const MCPP_PROBE_REQUESTS: usize = 16;
const INDEX_PROBE_REQUESTS: usize = 128;

/// The engine's tier labels of the store-served requests.
const FACILITY_TIERS: [&str; 3] = ["skyline", "topk", "topk-inc"];

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Where store files and the trace go (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// Why a run could not produce a result at all.
#[derive(Debug)]
pub struct Abort(pub String);

fn sizes(opts: &Options) -> Sizes {
    if opts.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    }
}

/// Generates the inputs and checks them against the pinned digest: a
/// benchmark whose generator drifted measures something else.
fn generate(opts: &Options, notes: &mut Vec<String>) -> Result<(Inputs, Option<u64>), Abort> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| Abort(format!("cannot create {}: {e}", opts.out_dir.display())))?;
    let inputs = workloads::generate(&opts.workload, opts.seed, &sizes(opts));
    let digest = inputs.digest();
    notes.push(format!(
        "inputs: {} nodes, {} edges, {} facilities, d = {}, {} requests, {} worker(s), input digest {digest:#018x}",
        inputs.network.num_nodes(),
        inputs.network.num_edges(),
        inputs.network.num_facilities(),
        inputs.network.cost_types(),
        inputs.requests.len(),
        inputs.stack.workers,
    ));
    let pinned = (opts.seed == DEFAULT_SEED && !opts.quick)
        .then(|| oracle::pinned(&opts.workload))
        .flatten();
    if let Some((input, _)) = pinned {
        if input != digest {
            return Err(Abort(format!(
                "generator drifted: input digest {digest:#018x} of {} != pinned {input:#018x} \
                 (re-pin benchmark/expected/digests.txt only for an intended change)",
                opts.workload
            )));
        }
    }
    Ok((inputs, pinned.map(|p| p.1)))
}

/// FNV-1a over every answer's fingerprint, in request order.
fn output_digest(pass: &Pass) -> u64 {
    let mut h = Fnv::default();
    for output in &pass.outputs {
        h.bytes(adapter::fingerprint(output).as_bytes());
        h.bytes(b"\n");
    }
    h.finish()
}

/// Requests of `pass` that failed for a reason visible without re-deriving
/// answers: lost to a panic, missing, answered differently than in the
/// reference pass (the first complete pass seen), or served by the wrong
/// tier.
fn pass_failures(
    pass: &Pass,
    requests: &[Req],
    reference_digest: &mut Option<u64>,
    must_use_index: bool,
    notes: &mut Vec<String>,
) -> u64 {
    let n = requests.len() as u64;
    if pass.panicked {
        notes.push("FAILED: a batch panicked".to_string());
        return n;
    }
    if pass.served.len() != requests.len() {
        notes.push(format!(
            "FAILED: {} outcomes for {n} requests",
            pass.served.len()
        ));
        return n;
    }
    let digest = output_digest(pass);
    let reference = *reference_digest.get_or_insert(digest);
    if digest != reference {
        notes.push(format!(
            "FAILED: output digest {digest:#018x} != {reference:#018x}"
        ));
        return n;
    }
    if !must_use_index {
        return 0;
    }
    // The engine falls back to the prep tier silently when the index cannot
    // serve; on the index workload that is a failure, not a slow success.
    let fallbacks = pass
        .served
        .iter()
        .filter(|s| !s.algorithm.ends_with("-index"))
        .count() as u64;
    if fallbacks > 0 {
        notes.push(format!(
            "FAILED: {fallbacks} requests fell back from the route index"
        ));
    }
    fallbacks
}

/// Re-derives [`oracle::SAMPLES`] answers of `pass` independently.
fn oracle_failures(
    network: &Network,
    requests: &[Req],
    pass: &Pass,
    notes: &mut Vec<String>,
) -> u64 {
    if pass.outputs.len() != requests.len() {
        return 0; // already counted by `pass_failures`
    }
    let mut failed = 0;
    for i in oracle::sample_indices(requests.len()) {
        if let Err(why) = oracle::check(network, &requests[i], &pass.outputs[i]) {
            notes.push(format!("FAILED: request {i}: {why}"));
            failed += 1;
        }
    }
    failed
}

/// Whether the measuring window still has room for another pass: `spent_s`
/// seconds went into the `passes` so far, everything between them included.
fn window_open(spent_s: f64, passes: usize, seconds: f64) -> bool {
    spent_s + 0.5 * spent_s / (passes as f64) < seconds
}

fn sorted_ms(walls_ns: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut v: Vec<f64> = walls_ns.map(|ns| ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// What a pass costs when the machine does nothing else.
///
/// The reference box is a few cores of a shared host. Interference comes in
/// bursts of milliseconds whose density changes by the second: whole passes
/// of one input ran 1.0 to 1.5 times their fastest, while the fastest of a
/// few repetitions of a *single request* hardly moved. Every measured pass
/// serves the same list from the same cache state, so request `i` does the
/// same work in each, and the fastest of its repetitions is that work's cost
/// without the bursts. A pass is then the sum of those service times, shared
/// among the workers, plus what a pass spends outside them (claiming
/// requests, starting and joining workers, idling at the end of the list) —
/// about a microsecond per request, taken as the median over passes.
struct Steady {
    workers: f64,
    /// Per request, the fastest `QueryOutcome::wall` over the passes so far.
    best_ns: Vec<u64>,
    /// Per pass, wall time outside `run_batch` minus the workers' busy time.
    outside_s: Vec<f64>,
}

impl Steady {
    fn new(requests: usize, workers: usize) -> Self {
        Self {
            workers: workers as f64,
            best_ns: vec![u64::MAX; requests],
            outside_s: Vec::new(),
        }
    }

    /// Folds in one complete pass; a panicked pass has no samples.
    fn add(&mut self, pass: &Pass) {
        if pass.served.len() != self.best_ns.len() {
            return;
        }
        let mut busy_ns = 0;
        for (best, served) in self.best_ns.iter_mut().zip(&pass.served) {
            *best = (*best).min(served.wall_ns);
            busy_ns += served.wall_ns;
        }
        self.outside_s
            .push((pass.wall_s - busy_ns as f64 / 1e9 / self.workers).max(0.0));
    }

    /// Seconds one pass takes; 0 when no pass completed.
    fn pass_seconds(&self) -> f64 {
        if self.outside_s.is_empty() {
            return 0.0;
        }
        let busy_ns: u64 = self.best_ns.iter().sum();
        busy_ns as f64 / 1e9 / self.workers + median(&self.outside_s)
    }

    /// Per-request service times in ms, ascending; empty when no pass
    /// completed.
    fn latencies_ms(&self) -> Vec<f64> {
        if self.outside_s.is_empty() {
            return Vec::new();
        }
        sorted_ms(self.best_ns.iter().copied())
    }
}

/// Verification shared by both modes: the last pass against the pinned
/// output digest and the oracle.
fn verify_last_pass(
    inputs: &Inputs,
    last: &Pass,
    pinned_output: Option<u64>,
    result: &mut RunResult,
) {
    let digest = output_digest(last);
    result.notes.push(format!("output digest {digest:#018x}"));
    if let Some(pinned) = pinned_output {
        if pinned != digest && !last.panicked {
            result.notes.push(format!(
                "FAILED: output digest {digest:#018x} != pinned {pinned:#018x}"
            ));
            result.failed += inputs.requests.len() as u64;
        }
    }
    result.failed += oracle_failures(&inputs.network, &inputs.requests, last, &mut result.notes);
    result.failed = result.failed.min(result.attempted);
}

/// `--trace 0`: the end-to-end metrics.
pub fn run_end_to_end(opts: &Options) -> Result<RunResult, Abort> {
    let mut result = RunResult::default();
    let (inputs, pinned_output) = generate(opts, &mut result.notes)?;
    let requests = &inputs.requests;
    let n = requests.len();

    // Set-up, several times over; the last stack built here serves.
    let mut setups = Vec::new();
    let set_up = |setups: &mut Vec<f64>| {
        let tag = format!("{}-{}-{}", opts.workload, std::process::id(), setups.len());
        let built = Stack::build(&inputs.network, &inputs.stack, &opts.out_dir, &tag, None);
        setups.push(built.times.total_s);
        built
    };
    let mut stack = set_up(&mut setups);
    for _ in 1..SETUPS_BEFORE_SERVING {
        // Assigning drops the previous stack (and its store file).
        stack = set_up(&mut setups);
    }
    result.notes.push(format!(
        "store: {} data pages, {} buffer pages",
        stack.shape.data_pages, stack.shape.buffer_pages
    ));
    let prepared = stack.prepare(requests);

    // Warm-up: one whole pass fills the caches the workload leaves room for
    // (the pool, the prep cache), faults the code in, and leaves them in the
    // state a pass ends in — so every measured pass starts from the same
    // state and does exactly the same work.
    stack.run(&prepared, 0..n);

    let must_use_index = inputs.stack.serves_from_index();
    let mut walls = Vec::new();
    let mut steady = Steady::new(n, inputs.stack.workers);
    let mut cpu_s = 0.0;
    let mut reference_digest = None;
    let mut last;
    let measuring = Instant::now();
    loop {
        let cpu_before = process_cpu_seconds();
        let pass = stack.run(&prepared, 0..n);
        cpu_s += process_cpu_seconds() - cpu_before;
        walls.push(pass.wall_s);
        steady.add(&pass);
        result.attempted += n as u64;
        result.failed += pass_failures(
            &pass,
            requests,
            &mut reference_digest,
            must_use_index,
            &mut result.notes,
        );
        last = pass;
        if !window_open(measuring.elapsed().as_secs_f64(), walls.len(), opts.seconds) {
            break;
        }
        drop(set_up(&mut setups));
    }
    // Memory is read before the verification: the oracle's working set is
    // the benchmark's memory, not the program's.
    let rss = peak_rss_mb();
    while setups.len() < SETUPS_AT_LEAST
        || (setups.len() < SETUPS_AT_MOST && setups.iter().sum::<f64>() < SETUPS_WORTH_S)
    {
        drop(set_up(&mut setups));
    }
    verify_last_pass(&inputs, &last, pinned_output, &mut result);

    let serving_s: f64 = walls.iter().sum();
    let pass_s = steady.pass_seconds();
    let lat = steady.latencies_ms();
    let v = &mut result.values;
    v.set("qps", ratio(n as f64, pass_s));
    // No latency sample at all means every pass panicked.
    let percentile_or_zero = |p: f64| {
        if lat.is_empty() {
            0.0
        } else {
            percentile_sorted(&lat, p)
        }
    };
    v.set("lat_p50_ms", percentile_or_zero(0.50));
    v.set("lat_p99_ms", percentile_or_zero(0.99));
    // CPU seconds per wall second over every pass measured, times the
    // steady pass time: interference stretches both clocks of a pass alike.
    v.set(
        "cpu_ms_per_query",
        ratio(cpu_s, serving_s) * pass_s * 1e3 / n as f64,
    );
    v.set("peak_rss_mb", rss);
    setups.sort_by(f64::total_cmp);
    v.set("setup_s", percentile_sorted(&setups, 0.25));
    result.notes.push(format!(
        "{} measured passes of {n} requests ({n} latency samples), {serving_s:.3} s serving; {} set-ups",
        walls.len(),
        setups.len()
    ));
    result.notes.push(format!(
        "pass qps as timed from outside: {:?}",
        walls
            .iter()
            .map(|w| (n as f64 / w).round())
            .collect::<Vec<_>>()
    ));
    Ok(result)
}

/// Cumulative decorator totals, for differencing around a traced pass.
#[derive(Clone, Copy)]
struct CallSnapshot {
    calls: [CallTotals; Call::ALL.len()],
    store: CallTotals,
}

impl CallSnapshot {
    fn take(recorder: &Recorder) -> Self {
        Self {
            calls: Call::ALL.map(|c| recorder.totals(c)),
            store: recorder.store_totals(),
        }
    }

    fn since(self, earlier: CallSnapshot) -> Self {
        let mut calls = self.calls;
        for (now, before) in calls.iter_mut().zip(earlier.calls) {
            *now = *now - before;
        }
        Self {
            calls,
            store: self.store - earlier.store,
        }
    }

    fn of(&self, call: Call) -> CallTotals {
        self.calls[call as usize]
    }
}

/// What one traced pass observed.
struct TracedPass {
    pass: Pass,
    calls: CallSnapshot,
    engine: EngineAgg,
    cross_region_frac: f64,
}

/// Serves the whole list traced: the first [`CAPTURED_REQUESTS`] as one
/// batch (full spans kept when `capture`), the rest in [`TRACED_CHUNK`]s.
fn traced_pass(
    stack: &Stack,
    recorder: &Recorder,
    prepared: &Prepared,
    capture: bool,
) -> (TracedPass, Vec<Span>) {
    let n = prepared.len();
    let before = CallSnapshot::take(recorder);
    stack.cross_region_frac(true);
    let mut engine = EngineAgg::default();
    let mut pass = Pass::default();
    let mut captured = Vec::new();
    let mut start = 0;
    while start < n {
        let first = start == 0;
        let end = n.min(
            start
                + if first {
                    CAPTURED_REQUESTS
                } else {
                    TRACED_CHUNK
                },
        );
        let (chunk, spans) = stack.run_traced(prepared, start..end, first && capture);
        for s in &spans {
            let tier = prepared.kind(s.request.expect("engine spans carry a request") as usize);
            engine.add(&s.name, tier, s.dur_ns());
        }
        if first && capture {
            captured = spans;
        }
        pass.absorb(chunk);
        start = end;
    }
    let traced = TracedPass {
        pass,
        calls: CallSnapshot::take(recorder).since(before),
        engine,
        cross_region_frac: stack.cross_region_frac(false),
    };
    (traced, captured)
}

/// Mean of `f` over the served requests selected by `keep`.
fn mean_over(
    pass: &Pass,
    requests: &[Req],
    keep: impl Fn(&Req) -> bool,
    f: impl Fn(&adapter::Served) -> u64,
) -> f64 {
    mean(
        requests
            .iter()
            .zip(&pass.served)
            .filter(|(r, _)| keep(r))
            .map(|(_, s)| f(s) as f64),
    )
}

/// Per-layer values one traced pass yields by itself.
fn traced_values(t: &TracedPass, inputs: &Inputs) -> Values {
    let requests = &inputs.requests;
    let n = requests.len() as f64;
    let index = inputs.stack.serves_from_index();
    let mut v = Values::default();
    let secs = |ns: u64| ns as f64 / 1e9;

    let disk = t.calls.of(Call::DiskRead);
    v.set("disk.reads", disk.count as f64);
    v.set("disk.reads_per_query", disk.count as f64 / n);
    v.set("disk.read_s", secs(disk.total_ns));
    v.set(
        "disk.read_us_mean",
        ratio(disk.total_ns as f64 / 1e3, disk.count as f64),
    );

    // Disk reads happen only inside store calls, store calls only inside
    // the search spans of store-served requests: self time is the
    // difference of the nested totals.
    v.set(
        "storage.self_s",
        secs(t.calls.store.total_ns.saturating_sub(disk.total_ns)),
    );
    v.set(
        "storage.adjacency_calls",
        t.calls.of(Call::Adjacency).count as f64,
    );
    v.set(
        "storage.facility_run_calls",
        t.calls.of(Call::FacilityRun).count as f64,
    );
    v.set(
        "storage.lookup_calls",
        (t.calls.of(Call::FacilityInfo).count + t.calls.of(Call::EdgeEndpoints).count) as f64,
    );
    v.set("storage.logical_reads", t.pass.logical_reads as f64);
    v.set(
        "storage.hit_ratio",
        ratio(t.pass.buffer_hits as f64, t.pass.logical_reads as f64),
    );
    v.set("storage.cross_region_frac", t.cross_region_frac);

    let facility_search: u64 = FACILITY_TIERS
        .iter()
        .map(|tier| t.engine.total_ns("search", Some(tier)))
        .sum();
    v.set(
        "core.self_s",
        secs(facility_search.saturating_sub(t.calls.store.total_ns)),
    );
    let core = |f: fn(&adapter::Served) -> u64| mean_over(&t.pass, requests, Req::is_facility, f);
    v.set("core.nodes_settled_per_query", core(|s| s.nodes_settled));
    v.set("core.heap_pops_per_query", core(|s| s.heap_pops));
    v.set(
        "core.dominance_checks_per_query",
        core(|s| s.dominance_checks),
    );
    v.set("core.candidates_per_query", core(|s| s.candidates));
    v.set("core.pinned_per_query", core(|s| s.pinned));

    v.set("prep.build_s", secs(t.engine.total_ns("prep-build", None)));
    v.set(
        "prep.lookup_us",
        t.engine.mean_ns("prep-lookup", None) / 1e3,
    );
    v.set(
        "prep.cache_hit_ratio",
        ratio(
            t.pass.prep_hits as f64,
            (t.pass.prep_hits + t.pass.prep_misses) as f64,
        ),
    );
    v.set("prep.builds", t.pass.prep_misses as f64);
    v.set("prep.evictions", t.pass.prep_evictions as f64);

    let alpha_search_us = t.engine.mean_ns("search", Some("alpha-path")) / 1e3;
    let skyline_search_us = t.engine.mean_ns("search", Some("path-skyline")) / 1e3;
    if index {
        v.set(
            "index.settled_per_query",
            mean_over(&t.pass, requests, |r| !r.is_facility(), |s| s.nodes_settled),
        );
        let unpack: u64 = ["alpha-path", "path-skyline"]
            .iter()
            .map(|tier| t.engine.total_ns("unpack", Some(tier)))
            .sum();
        let path_requests = requests.iter().filter(|r| !r.is_facility()).count();
        v.set(
            "index.unpack_us",
            ratio(unpack as f64 / 1e3, path_requests as f64),
        );
        let served = t
            .pass
            .served
            .iter()
            .filter(|s| s.algorithm.ends_with("-index"))
            .count();
        v.set(
            "index.served_frac",
            ratio(served as f64, path_requests as f64),
        );
    } else {
        v.set("alpha.search_us", alpha_search_us);
        v.set(
            "alpha.settled_per_query",
            mean_over(&t.pass, requests, Req::is_alpha_path, |s| s.nodes_settled),
        );
        v.set("mcpp.search_ms", skyline_search_us / 1e3);
        v.set(
            "mcpp.labels_created_per_query",
            mean_over(&t.pass, requests, Req::is_path_skyline, |s| s.candidates),
        );
        v.set(
            "mcpp.skyline_size",
            mean_over(&t.pass, requests, Req::is_path_skyline, |s| s.result_size),
        );
    }
    v
}

/// Engine-layer values of the untraced baseline pass: latencies and
/// scheduling shares are read where tracing does not perturb them.
fn baseline_values(
    pass: &Pass,
    inputs: &Inputs,
    prepared: &Prepared,
    workers: usize,
    v: &mut Values,
) {
    let requests = &inputs.requests;
    let n = requests.len();
    let busy_ns: u64 = pass.served.iter().map(|s| s.wall_ns).sum();
    let capacity_ns = workers as f64 * pass.wall_s * 1e9;
    v.set("engine.busy_frac", ratio(busy_ns as f64, capacity_ns));
    v.set(
        "engine.sched_overhead_us",
        (capacity_ns - busy_ns as f64) / 1e3 / n as f64,
    );
    v.set("engine.affine_hit_frac", pass.affine_hits as f64 / n as f64);
    let p50_of = |keep: &dyn Fn(usize) -> bool| -> Option<(f64, f64)> {
        let lat = sorted_ms(
            pass.served
                .iter()
                .enumerate()
                .filter(|(i, _)| keep(*i))
                .map(|(_, s)| s.wall_ns),
        );
        (!lat.is_empty()).then(|| (percentile_sorted(&lat, 0.50), percentile_sorted(&lat, 0.99)))
    };
    for tier in FACILITY_TIERS.iter().chain(&["path-skyline", "alpha-path"]) {
        if let Some((p50, p99)) = p50_of(&|i| prepared.kind(i) == *tier) {
            v.set(&format!("engine.tier.{tier}.p50_ms"), p50);
            v.set(&format!("engine.tier.{tier}.p99_ms"), p99);
        }
    }
    let by_algorithm = |cea: bool| {
        p50_of(&|i| match &requests[i] {
            Req::Skyline { cea: c, .. }
            | Req::TopK { cea: c, .. }
            | Req::TopKIncremental { cea: c, .. } => *c == cea,
            _ => false,
        })
    };
    if let Some((p50, _)) = by_algorithm(false) {
        v.set("core.lsa_p50_ms", p50);
    }
    if let Some((p50, _)) = by_algorithm(true) {
        v.set("core.cea_p50_ms", p50);
    }
}

/// Evenly spaced sample of the requests matching `keep`.
fn sample(requests: &[Req], keep: impl Fn(&Req) -> bool, count: usize) -> Vec<Req> {
    let matching: Vec<&Req> = requests.iter().filter(|r| keep(r)).collect();
    let count = count.min(matching.len());
    (0..count)
        .map(|i| matching[i * matching.len() / count].clone())
        .collect()
}

/// Direct probes: each layer's public API driven from here, outside the
/// engine, on inputs sampled from the request list.
fn probe_values(stack: &Stack, inputs: &Inputs, v: &mut Values) {
    let requests = &inputs.requests;
    let facility_nodes: Vec<u32> = sample(requests, Req::is_facility, EXPANSION_PROBE_LOCATIONS)
        .iter()
        .map(|r| match r {
            Req::Skyline { node, .. }
            | Req::TopK { node, .. }
            | Req::TopKIncremental { node, .. } => *node,
            _ => unreachable!("sampled facility requests only"),
        })
        .collect();
    if !facility_nodes.is_empty() {
        let (nn_ns, settled) = stack.probe_expansion(&facility_nodes, EXPANSION_PROBE_TAKE);
        v.set("expansion.nn_us", nn_ns / 1e3);
        v.set("expansion.settled_per_nn", settled);
        v.set(
            "storage.pages_per_adjacency",
            stack.probe_adjacency_pages(&facility_nodes),
        );
    }
    if inputs.stack.serves_from_index() {
        let mut sampled = sample(requests, Req::is_alpha_path, INDEX_PROBE_REQUESTS);
        sampled.extend(sample(requests, Req::is_path_skyline, INDEX_PROBE_REQUESTS));
        let (alpha_us, skyline_us) = stack.probe_index(&sampled);
        v.set("index.alpha_query_us", alpha_us);
        v.set("index.skyline_query_us", skyline_us);
        return;
    }
    let mut targets: Vec<u32> = requests
        .iter()
        .filter_map(|r| match r {
            Req::AlphaPath { target, .. } | Req::PathSkyline { target, .. } => Some(*target),
            _ => None,
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    if !targets.is_empty() {
        let step = targets.len().div_ceil(PREP_PROBE_TARGETS);
        let sampled: Vec<u32> = targets.iter().step_by(step).copied().collect();
        v.set(
            "prep.build_ms",
            adapter::probe_prep_build(&inputs.network, &sampled),
        );
    }
    let alpha = sample(requests, Req::is_alpha_path, ALPHA_PROBE_REQUESTS);
    if !alpha.is_empty() {
        v.set(
            "alpha.dijkstra_us",
            adapter::probe_alpha_dijkstra(&inputs.network, &alpha),
        );
    }
    let skyline = sample(requests, Req::is_path_skyline, MCPP_PROBE_REQUESTS);
    if !skyline.is_empty() {
        let (ns_per_label, pruned_frac) = adapter::probe_mcpp(&inputs.network, &skyline);
        v.set("mcpp.ns_per_label", ns_per_label);
        v.set("mcpp.labels_pruned_frac", pruned_frac);
    }
}

/// Writes the chrome trace of the captured requests plus the whole-pass
/// aggregates of every decorated call.
fn write_trace(path: &Path, recorder: &Recorder, engine_spans: Vec<Span>, notes: &mut Vec<String>) {
    let spans = assemble(engine_spans, recorder.take_spans());
    let other: Vec<(String, String)> = Call::ALL
        .iter()
        .map(|&c| {
            let totals = recorder.totals(c);
            let hist: Vec<String> = recorder
                .histogram(c)
                .iter()
                .map(|(floor_ns, count)| format!("[{floor_ns}, {count}]"))
                .collect();
            (
                c.name().to_string(),
                format!(
                    "{{\"calls\": {}, \"total_ns\": {}, \"histogram_ns_floor_count\": [{}]}}",
                    totals.count,
                    totals.total_ns,
                    hist.join(", ")
                ),
            )
        })
        .collect();
    match std::fs::write(path, chrome_trace(&spans, &other)) {
        Ok(()) => notes.push(format!(
            "trace: {} spans in {}",
            spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("trace not written to {}: {e}", path.display())),
    }
}

/// `--trace 1`: the per-layer metrics.
pub fn run_traced(opts: &Options) -> Result<RunResult, Abort> {
    let mut result = RunResult::default();
    let (inputs, pinned_output) = generate(opts, &mut result.notes)?;
    let requests = &inputs.requests;
    let n = requests.len();
    let must_use_index = inputs.stack.serves_from_index();

    let recorder = Arc::new(Recorder::new());
    let tag = format!("{}-{}-traced", opts.workload, std::process::id());
    let stack = Stack::build(
        &inputs.network,
        &inputs.stack,
        &opts.out_dir,
        &tag,
        Some(recorder.clone()),
    );
    let prepared = stack.prepare(requests);

    // Warm-up pass; its answers are the reference every later pass must
    // reproduce.
    let mut reference_digest = Some(output_digest(&stack.run(&prepared, 0..n)));

    // The measuring window: one untraced baseline pass, then traced passes.
    let baseline = stack.run(&prepared, 0..n);
    result.attempted += n as u64;
    result.failed += pass_failures(
        &baseline,
        requests,
        &mut reference_digest,
        must_use_index,
        &mut result.notes,
    );
    let mut walls = vec![baseline.wall_s];
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut captured = Vec::new();
    loop {
        let (pass, spans) = traced_pass(&stack, &recorder, &prepared, traced.is_empty());
        if traced.is_empty() {
            captured = spans;
        }
        walls.push(pass.pass.wall_s);
        result.attempted += n as u64;
        result.failed += pass_failures(
            &pass.pass,
            requests,
            &mut reference_digest,
            must_use_index,
            &mut result.notes,
        );
        traced.push(pass);
        if !window_open(walls.iter().sum(), walls.len(), opts.seconds) {
            break;
        }
    }
    let last = traced.last().expect("at least one traced pass ran");
    if stack.workers() == 1 {
        // The decorator must see exactly the reads the pool accounts for.
        let seen = last.calls.of(Call::DiskRead).count;
        if seen != last.pass.physical_reads {
            result.notes.push(format!(
                "FAILED: decorator saw {seen} disk reads, the pool counted {}",
                last.pass.physical_reads
            ));
            result.failed += 1;
        }
    }
    verify_last_pass(&inputs, &last.pass, pinned_output, &mut result);

    // Times are medians over the traced passes. Counts and ratios are the
    // first traced pass's: it always exists and always starts from the same
    // cache state, so they repeat exactly however many passes fit the window.
    let per_pass: Vec<Values> = traced.iter().map(|t| traced_values(t, &inputs)).collect();
    let mut v = Values::default();
    for d in &PER_LAYER {
        let samples: Vec<f64> = per_pass.iter().map(|p| p.get(d.name)).collect();
        let is_time = matches!(d.unit, "s" | "ms" | "us" | "ns");
        v.set(
            d.name,
            if is_time {
                median(&samples)
            } else {
                samples[0]
            },
        );
    }
    baseline_values(&baseline, &inputs, &prepared, stack.workers(), &mut v);
    probe_values(&stack, &inputs, &mut v);
    v.set("storage.build_s", stack.times.store_build_s);
    v.set("index.build_s", stack.times.index_build_s);
    v.set("index.arc_entries", stack.shape.index_arc_entries as f64);
    v.set("graph.partition_s", stack.times.partition_s);
    v.set("gen.workload_s", inputs.gen_s);
    let baseline_qps = n as f64 / baseline.wall_s;
    let traced_qps: Vec<f64> = traced.iter().map(|t| n as f64 / t.pass.wall_s).collect();
    v.set(
        "obs.trace_overhead_frac",
        1.0 - median(&traced_qps) / baseline_qps,
    );
    // One more untraced pass on two workers (never more than the machine
    // has): what a second closed-loop client buys on this stack.
    let pool = std::thread::available_parallelism().map_or(1, |p| p.get().min(2));
    if pool > stack.workers() {
        let pair = stack.with_workers(pool).run(&prepared, 0..n);
        result.attempted += n as u64;
        result.failed += pass_failures(
            &pair,
            requests,
            &mut reference_digest,
            must_use_index,
            &mut result.notes,
        );
        v.set("engine.scaling", (n as f64 / pair.wall_s) / baseline_qps);
    }
    result.failed = result.failed.min(result.attempted);
    result.values = v;

    result.notes.push(format!(
        "1 warm-up, 1 untraced baseline, {} traced and 1 two-worker pass of {n} requests",
        traced.len()
    ));
    let trace_path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
    write_trace(&trace_path, &recorder, captured, &mut result.notes);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;
    use crate::workloads::WORKLOADS;

    /// `--quick`: every workload, both modes, well under ten seconds in all.
    /// Keeps the harness itself from rotting.
    #[test]
    fn quick_mode_runs_every_workload_in_both_modes() {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        for def in &WORKLOADS {
            let opts = Options {
                workload: def.name.to_string(),
                seed: 5,
                seconds: 0.2,
                quick: true,
                out_dir: out_dir.clone(),
            };
            let untraced = run_end_to_end(&opts).expect("inputs generate");
            assert!(untraced.correct(), "{}: {:?}", def.name, untraced.notes);
            for d in &END_TO_END {
                assert!(untraced.values.get(d.name) > 0.0, "{} {}", def.name, d.name);
            }

            let traced = run_traced(&opts).expect("inputs generate");
            assert!(traced.correct(), "{}: {:?}", def.name, traced.notes);
            let line = traced.to_json(&PER_LAYER);
            assert!(PER_LAYER
                .iter()
                .all(|d| line.contains(&format!("\"{}\": ", d.name))));
            let v = |name: &str| traced.values.get(name);
            assert!(v("engine.busy_frac") > 0.0 && v("engine.busy_frac") <= 1.0);
            assert!(
                v("engine.scaling") > 0.0
                    || std::thread::available_parallelism().unwrap().get() < 2
            );
            match def.name {
                "facility_cold" => {
                    assert!(v("disk.reads") > 0.0 && v("disk.read_s") > 0.0);
                    assert!(v("storage.self_s") > 0.0 && v("core.self_s") > 0.0);
                    assert!(v("expansion.nn_us") > 0.0 && v("storage.pages_per_adjacency") >= 1.0);
                    assert!(v("core.lsa_p50_ms") > 0.0 && v("core.cea_p50_ms") > 0.0);
                }
                "facility_hot" => {
                    assert_eq!(v("disk.reads"), 0.0);
                    assert_eq!(v("storage.hit_ratio"), 1.0);
                }
                "alpha_serve" => {
                    assert!(v("prep.builds") > 0.0 && v("prep.build_s") > 0.0);
                    assert!(v("alpha.search_us") > 0.0 && v("alpha.dijkstra_us") > 0.0);
                }
                "path_explore" => {
                    assert_eq!(v("prep.cache_hit_ratio"), 1.0);
                    assert!(v("mcpp.search_ms") > 0.0 && v("mcpp.ns_per_label") > 0.0);
                }
                "index_serve" => {
                    assert_eq!(v("index.served_frac"), 1.0);
                    assert!(v("index.build_s") > 0.0 && v("index.arc_entries") > 0.0);
                    assert!(v("index.alpha_query_us") > 0.0 && v("index.skyline_query_us") > 0.0);
                    assert_eq!(v("prep.builds"), 0.0);
                }
                "mixed_partitioned" => {
                    assert!(v("engine.scaling") > 0.0 && v("graph.partition_s") > 0.0);
                    assert!(v("storage.cross_region_frac") > 0.0);
                }
                other => panic!("no expectations for workload {other}"),
            }
            let trace = std::fs::read_to_string(out_dir.join(format!("trace-{}.json", def.name)))
                .expect("the traced run wrote its chrome trace");
            assert!(trace.starts_with("{\"traceEvents\": [") && trace.contains("\"request\""));
        }
    }

    #[test]
    fn steady_keeps_the_fastest_repetition_of_each_request() {
        let pass = |walls_ns: &[u64], wall_s: f64| Pass {
            wall_s,
            served: walls_ns
                .iter()
                .map(|&wall_ns| adapter::Served {
                    wall_ns,
                    ..adapter::Served::default()
                })
                .collect(),
            ..Pass::default()
        };
        let mut steady = Steady::new(3, 1);
        assert_eq!(steady.pass_seconds(), 0.0);
        assert!(steady.latencies_ms().is_empty());
        // A burst hits the second request of the first pass and the third of
        // the second; a pass spends 1 ms (then 3 ms, then 2 ms) outside.
        steady.add(&pass(&[1_000_000, 9_000_000, 3_000_000], 0.014));
        steady.add(&pass(&[1_100_000, 2_000_000, 8_000_000], 0.0141));
        steady.add(&pass(&[1_200_000, 2_100_000, 3_100_000], 0.0084));
        steady.add(&pass(&[1], 1.0)); // an incomplete pass is ignored
        assert_eq!(steady.latencies_ms(), vec![1.0, 2.0, 3.0]);
        assert!((steady.pass_seconds() - (0.006 + 0.002)).abs() < 1e-12);
    }

    #[test]
    fn the_window_closes_once_the_time_is_measured() {
        assert!(window_open(1.0, 1, 10.0));
        assert!(window_open(6.0, 2, 10.0)); // 6 + 1.5 < 10
        assert!(!window_open(9.0, 3, 10.0)); // 9 + 1.5 ≥ 10
        assert!(!window_open(12.0, 1, 10.0)); // always at least one pass, never a second
    }
}
