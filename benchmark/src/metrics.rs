//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound. The
//! `BENCHMARK.json` at the repo root mirrors these tables (a unit test
//! keeps the two in step).

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("qps", "1/s", Higher, 0.20),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("lat_p99_ms", "ms", Lower, 0.25),
    e2e("cpu_ms_per_query", "ms", Lower, 0.20),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer numbers from the traced pass and the direct probes. Layers
/// are this repo's crates; a metric a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 61] = [
    layer("disk.reads", "count", Lower),
    layer("disk.reads_per_query", "count", Lower),
    layer("disk.read_s", "s", Lower),
    layer("disk.read_us_mean", "us", Lower),
    layer("storage.build_s", "s", Lower),
    layer("storage.self_s", "s", Lower),
    layer("storage.adjacency_calls", "count", Lower),
    layer("storage.facility_run_calls", "count", Lower),
    layer("storage.lookup_calls", "count", Lower),
    layer("storage.logical_reads", "count", Lower),
    layer("storage.hit_ratio", "ratio", Higher),
    layer("storage.pages_per_adjacency", "count", Lower),
    layer("storage.cross_region_frac", "ratio", Lower),
    layer("expansion.nn_us", "us", Lower),
    layer("expansion.settled_per_nn", "count", Lower),
    layer("core.self_s", "s", Lower),
    layer("core.nodes_settled_per_query", "count", Lower),
    layer("core.heap_pops_per_query", "count", Lower),
    layer("core.dominance_checks_per_query", "count", Lower),
    layer("core.candidates_per_query", "count", Lower),
    layer("core.pinned_per_query", "count", Lower),
    layer("core.lsa_p50_ms", "ms", Lower),
    layer("core.cea_p50_ms", "ms", Lower),
    layer("prep.build_ms", "ms", Lower),
    layer("prep.build_s", "s", Lower),
    layer("prep.lookup_us", "us", Lower),
    layer("prep.cache_hit_ratio", "ratio", Higher),
    layer("prep.builds", "count", Lower),
    layer("prep.evictions", "count", Lower),
    layer("alpha.search_us", "us", Lower),
    layer("alpha.settled_per_query", "count", Lower),
    layer("alpha.dijkstra_us", "us", Lower),
    layer("mcpp.search_ms", "ms", Lower),
    layer("mcpp.labels_created_per_query", "count", Lower),
    layer("mcpp.labels_pruned_frac", "ratio", Higher),
    layer("mcpp.skyline_size", "count", Lower),
    layer("mcpp.ns_per_label", "ns", Lower),
    layer("index.build_s", "s", Lower),
    layer("index.arc_entries", "count", Lower),
    layer("index.alpha_query_us", "us", Lower),
    layer("index.skyline_query_us", "us", Lower),
    layer("index.settled_per_query", "count", Lower),
    layer("index.unpack_us", "us", Lower),
    layer("index.served_frac", "ratio", Higher),
    layer("engine.busy_frac", "ratio", Higher),
    layer("engine.sched_overhead_us", "us", Lower),
    layer("engine.tier.skyline.p50_ms", "ms", Lower),
    layer("engine.tier.skyline.p99_ms", "ms", Lower),
    layer("engine.tier.topk.p50_ms", "ms", Lower),
    layer("engine.tier.topk.p99_ms", "ms", Lower),
    layer("engine.tier.topk-inc.p50_ms", "ms", Lower),
    layer("engine.tier.topk-inc.p99_ms", "ms", Lower),
    layer("engine.tier.path-skyline.p50_ms", "ms", Lower),
    layer("engine.tier.path-skyline.p99_ms", "ms", Lower),
    layer("engine.tier.alpha-path.p50_ms", "ms", Lower),
    layer("engine.tier.alpha-path.p99_ms", "ms", Lower),
    layer("engine.affine_hit_frac", "ratio", Higher),
    layer("engine.scaling", "ratio", Higher),
    layer("obs.trace_overhead_frac", "ratio", Lower),
    layer("gen.workload_s", "s", Lower),
    layer("graph.partition_s", "s", Lower),
];

/// Metric values of one run, keyed by catalogue name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "{name} is not in the metric catalogue"
        );
        self.0.insert(name.to_string(), value);
    }

    /// The value of `name`; 0 for a layer the workload does not exercise.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The outcome of one benchmark run of one workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    /// Requests served over the measured passes.
    pub attempted: u64,
    /// Requests whose answer was missing, wrong, or lost to a panic.
    pub failed: u64,
    pub values: Values,
    /// Human-readable facts (sizes, digests, failure reasons) for stderr.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line the driver reads: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, the latter holding every metric
    /// of `catalogue` with all the digits that were measured.
    pub fn to_json(&self, catalogue: &[MetricDef]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(self.values.get(d.name)),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a line written by [`RunResult::to_json`] (the suite reads its
    /// child processes' results back with this).
    pub fn from_json(line: &str) -> Option<RunResult> {
        let field = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())])
        };
        let mut result = RunResult {
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            ..RunResult::default()
        };
        let metrics = &line[line.find("\"metrics\": {")? + 12..];
        for entry in metrics.split("}, ") {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            result
                .values
                .0
                .insert(name.to_string(), value.parse().ok()?);
        }
        Some(result)
    }
}

/// A finite float in JSON syntax with every measured digit (Rust prints the
/// shortest text that round-trips).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    let text = format!("{v}");
    if text.contains(['.', 'e']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} is listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        // setup_s carries the largest bound; none exceeds the contract's cap.
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        for d in &END_TO_END {
            let bound = d.bound.unwrap();
            assert!(bound <= 0.25 && bound <= setup.bound.unwrap());
        }
    }

    #[test]
    fn result_line_round_trips() {
        let mut result = RunResult {
            attempted: 2048,
            failed: 0,
            ..RunResult::default()
        };
        result.values.set("qps", 1234.5678);
        result.values.set("setup_s", 3.0);
        let line = result.to_json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2048, \"failed\": 0, "));
        assert!(line.contains("\"qps\": {\"value\": 1234.5678, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}"));
        let back = RunResult::from_json(&line).unwrap();
        assert_eq!((back.attempted, back.failed), (2048, 0));
        assert_eq!(back.values.get("qps"), 1234.5678);
        assert_eq!(back.values.get("setup_s"), 3.0);
        assert!(RunResult::from_json("not a result").is_none());
    }

    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json sits at the repo root")
            .split_whitespace()
            .collect();
        for d in &END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound.unwrap()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in &PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &crate::workloads::WORKLOADS {
            let entry = format!("{{\"name\":\"{}\",\"why\":\"", w.name);
            assert!(
                text.contains(&entry),
                "BENCHMARK.json lacks workload {}",
                w.name
            );
            let why: String = w.why.split_whitespace().collect();
            assert!(
                text.contains(&why),
                "BENCHMARK.json why of {} differs",
                w.name
            );
        }
        let seconds = format!("\"run_seconds\":{}", crate::RUN_SECONDS);
        assert!(text.contains(&seconds), "BENCHMARK.json lacks {seconds}");
    }
}
