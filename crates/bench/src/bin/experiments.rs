//! Command-line experiment runner.
//!
//! Reproduces the paper's Section VI figures as text tables:
//!
//! ```text
//! experiments all                    # every figure at the default 1/50 scale
//! experiments sky-p topk-k           # selected figures
//! experiments all --scale 10         # closer to the paper's full size
//! experiments all --queries 50       # more query locations per data point
//! experiments all --latency-ms 10    # charge 10 ms per physical page read
//! experiments all --out results/     # persist each table as JSON
//! experiments all --check results/   # re-parse persisted tables, no re-run
//! ```
//!
//! `--out DIR` writes one `<id>.json` per selected experiment and verifies
//! the write by reading the file back and comparing the parsed table with
//! the in-memory one. `--check DIR` loads previously written tables without
//! re-running anything, verifies that re-serializing the parsed value
//! reproduces the file byte-for-byte (the serializer is deterministic, so
//! this proves a lossless round-trip across the process restart), and
//! renders them. Both exit non-zero on any write, parse or mismatch
//! failure.

use mcn_bench::{
    dimacs_graph, dimacs_workload, render_alpha_table, render_index_table, render_partition_table,
    render_prep_table, render_table, run_alpha, run_alpha_on_graph, run_gate, run_index,
    run_index_on_graph, run_partition, run_partition_on, run_prep, run_prep_on_graph, AlphaConfig,
    AlphaReport, AlphaSettledBaseline, Experiment, ExperimentConfig, ExperimentTable, Gate,
    GateBaseline, IndexExperimentConfig, IndexReport, IndexSettledBaseline, LabelBaseline,
    PartitionConfig, PartitionTable, PrepConfig, PrepReport, ALPHA_ID, GATE_TOLERANCE, INDEX_ID,
    PARTITION_ID, PREP_ID,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print_usage();
        return ExitCode::SUCCESS;
    }
    let result = if args[0] == "gate" {
        run_gate_command(&args[1..])
    } else {
        run_experiments(&args)
    };
    result.err().unwrap_or(ExitCode::SUCCESS)
}

/// The report modes beyond the figure tables, as selected on the command
/// line (`all` selects every one).
#[derive(Default)]
struct Modes {
    partition: bool,
    prep: bool,
    alpha: bool,
    index: bool,
}

fn run_experiments(args: &[String]) -> Result<(), ExitCode> {
    let mut config = ExperimentConfig::default();
    let mut partition_config = PartitionConfig::default();
    let mut prep_config = PrepConfig::default();
    let mut alpha_config = AlphaConfig::default();
    let mut index_config = IndexExperimentConfig::default();
    let mut selected: Vec<Experiment> = Vec::new();
    let mut modes = Modes::default();
    let mut dimacs: Option<String> = None;
    let mut run_all = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut check_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "all" => run_all = true,
            id if id == PARTITION_ID => modes.partition = true,
            id if id == PREP_ID => modes.prep = true,
            id if id == ALPHA_ID => modes.alpha = true,
            id if id == INDEX_ID => modes.index = true,
            "--index-nodes" => index_config.nodes = expect_list(args, &mut i, "150,250"),
            "--index-dims" => index_config.dims = expect_list(args, &mut i, "2,3,4"),
            "--index-pairs" => index_config.pairs = expect_value(args, &mut i),
            "--index-users" => index_config.users = expect_value(args, &mut i),
            "--index-regions" => index_config.regions = expect_value(args, &mut i),
            "--no-index-asserts" => index_config.assert_improvements = false,
            "--alpha-nodes" => alpha_config.nodes = expect_list(args, &mut i, "250,500"),
            "--alpha-dims" => alpha_config.dims = expect_list(args, &mut i, "2,3,4"),
            "--alpha-pairs" => alpha_config.pairs = expect_value(args, &mut i),
            "--alpha-users" => alpha_config.users = expect_value(args, &mut i),
            "--no-alpha-asserts" => alpha_config.assert_improvements = false,
            "--prep-nodes" => prep_config.nodes = expect_list(args, &mut i, "250,500"),
            "--prep-dims" => prep_config.dims = expect_list(args, &mut i, "2,3,4"),
            "--prep-pairs" => prep_config.pairs = expect_value(args, &mut i),
            "--prep-targets" => prep_config.targets = expect_value(args, &mut i),
            "--prep-cache" => prep_config.cache_capacity = expect_value(args, &mut i),
            "--prep-batch" => prep_config.batch = expect_value(args, &mut i),
            "--no-prep-asserts" => prep_config.assert_improvements = false,
            "--regions" => partition_config.regions = expect_list(args, &mut i, "1,2,4"),
            "--partition-workers" => partition_config.workers = expect_value(args, &mut i),
            "--dimacs" => dimacs = Some(expect_value(args, &mut i)),
            "--buffer" => partition_config.buffer = expect_value(args, &mut i),
            "--scale" => {
                config.scale = expect_value(args, &mut i);
                partition_config.scale = config.scale;
            }
            "--queries" => config.queries = Some(expect_value(args, &mut i)),
            "--latency-ms" => config.latency = expect_value::<f64>(args, &mut i) / 1000.0,
            "--seed" => config.seed = expect_value(args, &mut i),
            "--batch" => partition_config.batch = expect_value(args, &mut i),
            "--read-latency-us" => partition_config.read_latency_us = expect_value(args, &mut i),
            "--out" => out_dir = Some(expect_value(args, &mut i)),
            "--check" => check_dir = Some(expect_value(args, &mut i)),
            other => match Experiment::from_id(other) {
                Some(e) => selected.push(e),
                None => {
                    eprintln!("unknown experiment or flag: {other}");
                    print_usage();
                    return Err(ExitCode::from(2));
                }
            },
        }
        i += 1;
    }
    if run_all {
        selected = Experiment::all().to_vec();
        modes = Modes {
            partition: true,
            prep: true,
            alpha: true,
            index: true,
        };
    }
    if selected.is_empty() && !(modes.partition || modes.prep || modes.alpha || modes.index) {
        eprintln!("nothing to run");
        print_usage();
        return Err(ExitCode::from(2));
    }
    // The partition experiment keeps its own (smaller) default scale — see
    // `PartitionConfig::default` — unless --scale is given explicitly.
    partition_config.seed = config.seed;
    prep_config.seed = config.seed;
    prep_config.workers = partition_config.workers;
    alpha_config.seed = config.seed;
    index_config.seed = config.seed;
    if let Some(path) = &dimacs {
        partition_config.source = path.clone();
        prep_config.source = path.clone();
        alpha_config.source = path.clone();
        index_config.source = path.clone();
    }

    if out_dir.is_some() && check_dir.is_some() {
        eprintln!("--out and --check are mutually exclusive (write first, then check)");
        return Err(ExitCode::from(2));
    }
    if let Some(dir) = check_dir {
        return check_tables(&dir, &selected, &modes);
    }

    let out_dir = out_dir.as_deref();
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| {
            eprintln!("cannot create {}: {e}", dir.display());
            ExitCode::FAILURE
        })?;
    }

    println!(
        "# MCN preference-query experiments (scale 1/{}, {} ms per physical read, seed {})",
        config.scale,
        config.latency * 1000.0,
        config.seed
    );
    println!(
        "# Paper defaults scaled: {} nodes, {} facilities, d = {}, anti-correlated, {} queries/point\n",
        config.base_spec().nodes,
        config.base_spec().facilities,
        config.base_spec().cost_types,
        config.base_spec().queries
    );
    for experiment in selected {
        emit(&experiment.run(&config), out_dir)?;
    }
    if modes.partition {
        let table = match &dimacs {
            Some(path) => run_partition_on(
                &partition_config,
                &dimacs_workload(path, &partition_config).map_err(fail)?,
            ),
            None => run_partition(&partition_config),
        };
        emit(&table, out_dir)?;
    }
    // The prep, alpha and index sweeps re-draw costs on one loaded topology.
    let graph = match &dimacs {
        Some(path) if modes.prep || modes.alpha || modes.index => {
            Some(dimacs_graph(path).map_err(fail)?)
        }
        _ => None,
    };
    if modes.prep {
        let table = match &graph {
            Some(graph) => run_prep_on_graph(&prep_config, graph),
            None => run_prep(&prep_config),
        };
        emit(&table, out_dir)?;
    }
    if modes.alpha {
        let table = match &graph {
            Some(graph) => run_alpha_on_graph(&alpha_config, graph),
            None => run_alpha(&alpha_config),
        };
        emit(&table, out_dir)?;
    }
    if modes.index {
        let table = match &graph {
            Some(graph) => run_index_on_graph(&index_config, graph),
            None => run_index(&index_config),
        };
        emit(&table, out_dir)?;
    }
    Ok(())
}

/// Prints an error message and maps it to the failure exit code.
fn fail(e: String) -> ExitCode {
    eprintln!("{e}");
    ExitCode::FAILURE
}

/// The gate runner behind one `gate` flag: measures its baseline type at
/// the fixed configuration, then compares or rewrites the file.
type GateRunner = fn(&Path, bool) -> Result<(usize, Vec<String>), String>;

/// Every `gate` flag with the name and runner of the baseline it names.
const GATES: [(&str, &str, GateRunner); 4] = [
    ("--baseline", GateBaseline::NAME, run_gate::<GateBaseline>),
    ("--labels", LabelBaseline::NAME, run_gate::<LabelBaseline>),
    (
        "--alpha",
        AlphaSettledBaseline::NAME,
        run_gate::<AlphaSettledBaseline>,
    ),
    (
        "--index",
        IndexSettledBaseline::NAME,
        run_gate::<IndexSettledBaseline>,
    ),
];

/// `experiments gate --baseline FILE [--labels FILE] [--alpha FILE]
/// [--index FILE] [--update]`: re-measure the deterministic mean logical
/// reads of every figure point (and, with `--labels`, the prep experiment's
/// mean label counts; with `--alpha`, the scalarized tier's mean settled
/// nodes; with `--index`, the route index's settled-node and arc-entry
/// counters) and fail on a > 2 % regression against the checked-in
/// baselines (`--update` rewrites them instead).
fn run_gate_command(args: &[String]) -> Result<(), ExitCode> {
    let mut paths: [Option<PathBuf>; GATES.len()] = Default::default();
    let mut update = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--update" {
            update = true;
        } else if let Some(g) = GATES.iter().position(|(f, _, _)| *f == flag) {
            paths[g] = Some(expect_value(args, &mut i));
        } else {
            eprintln!("unknown gate flag: {flag}");
            return Err(ExitCode::from(2));
        }
        i += 1;
    }
    if paths.iter().all(Option::is_none) {
        eprintln!("gate requires --baseline FILE, --labels FILE, --alpha FILE and/or --index FILE");
        return Err(ExitCode::from(2));
    }

    let mut violations: Vec<String> = Vec::new();
    let mut points = 0usize;
    for ((_, name, runner), path) in GATES.iter().zip(&paths) {
        let Some(path) = path else { continue };
        let (rows, found) = runner(path, update).map_err(fail)?;
        if update {
            eprintln!("wrote {name} baseline {}", path.display());
        }
        points += rows;
        violations.extend(found);
    }
    if update {
        return Ok(());
    }
    if violations.is_empty() {
        println!(
            "gate passed: {points} points within {:.0}% of the baselines",
            GATE_TOLERANCE * 100.0
        );
        Ok(())
    } else {
        for violation in &violations {
            eprintln!("gate: {violation}");
        }
        eprintln!("{} gate violation(s)", violations.len());
        Err(ExitCode::FAILURE)
    }
}

/// A report the `--out`/`--check` round-trip persists as `<id>.json`.
trait Report: PartialEq + Serialize + for<'de> Deserialize<'de> {
    /// The report's experiment id (its file name).
    fn id(&self) -> &str;
    /// The fixed-width text rendering.
    fn render(&self) -> String;
}

impl Report for ExperimentTable {
    fn id(&self) -> &str {
        &self.id
    }
    fn render(&self) -> String {
        render_table(self)
    }
}

impl Report for PartitionTable {
    fn id(&self) -> &str {
        &self.id
    }
    fn render(&self) -> String {
        render_partition_table(self)
    }
}

impl Report for PrepReport {
    fn id(&self) -> &str {
        &self.id
    }
    fn render(&self) -> String {
        render_prep_table(self)
    }
}

impl Report for AlphaReport {
    fn id(&self) -> &str {
        &self.id
    }
    fn render(&self) -> String {
        render_alpha_table(self)
    }
}

impl Report for IndexReport {
    fn id(&self) -> &str {
        &self.id
    }
    fn render(&self) -> String {
        render_index_table(self)
    }
}

/// Prints `report` and, with `--out DIR`, persists it (see [`persist`]).
fn emit<R: Report>(report: &R, out_dir: Option<&Path>) -> Result<(), ExitCode> {
    println!("{}", report.render());
    if let Some(dir) = out_dir {
        persist(dir, report).map_err(|e| {
            eprintln!("failed to persist table {}: {e}", report.id());
            ExitCode::FAILURE
        })?;
    }
    Ok(())
}

/// Writes a report to `DIR/<id>.json` and proves the write lossless by
/// reading the file back and comparing the re-parsed value.
fn persist<R: Report>(dir: &Path, report: &R) -> Result<(), String> {
    let path = dir.join(format!("{}.json", report.id()));
    std::fs::write(&path, serde::json::to_string_pretty(report))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read back {}: {e}", path.display()))?;
    let reparsed: R =
        serde::json::from_str(&text).map_err(|e| format!("re-parse {}: {e}", path.display()))?;
    if &reparsed != report {
        return Err(format!(
            "round-trip mismatch: {} differs from the in-memory table",
            path.display()
        ));
    }
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Loads `DIR/<id>.json`, verifying that the stored id matches and that
/// re-serializing the parsed value reproduces the file byte-for-byte (the
/// serializer is deterministic, so byte equality across processes proves a
/// lossless round-trip).
fn load<R: Report>(dir: &Path, expected_id: &str) -> Result<R, String> {
    let path = dir.join(format!("{expected_id}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let report: R = serde::json::from_str(&text)
        .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    if report.id() != expected_id {
        return Err(format!(
            "{} holds table `{}`, expected `{expected_id}`",
            path.display(),
            report.id()
        ));
    }
    if serde::json::to_string_pretty(&report) != text {
        return Err(format!(
            "{}: re-serializing the parsed table does not reproduce the file",
            path.display()
        ));
    }
    Ok(report)
}

/// Loads and renders one stored report; false (after printing why) when it
/// fails the check.
fn check<R: Report>(dir: &Path, id: &str) -> bool {
    match load::<R>(dir, id) {
        Ok(report) => {
            println!("{}", report.render());
            true
        }
        Err(e) => {
            eprintln!("{e}");
            false
        }
    }
}

/// Loads each selected table from `DIR/<id>.json`, verifies the lossless
/// round-trip and renders it.
fn check_tables(dir: &Path, selected: &[Experiment], modes: &Modes) -> Result<(), ExitCode> {
    let mut passed: Vec<bool> = selected
        .iter()
        .map(|e| check::<ExperimentTable>(dir, e.id()))
        .collect();
    if modes.partition {
        passed.push(check::<PartitionTable>(dir, PARTITION_ID));
    }
    if modes.prep {
        passed.push(check::<PrepReport>(dir, PREP_ID));
    }
    if modes.alpha {
        passed.push(check::<AlphaReport>(dir, ALPHA_ID));
    }
    if modes.index {
        passed.push(check::<IndexReport>(dir, INDEX_ID));
    }
    let failures = passed.iter().filter(|ok| !**ok).count();
    if failures > 0 {
        eprintln!("{failures} table(s) failed the check");
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

/// Parses the value after the flag at `args[*i]`, advancing `i`; exits 2
/// with a message when it is missing or malformed.
fn expect_value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
}

/// Parses a comma-separated list of positive integers after the flag at
/// `args[*i]` (e.g. `1,2,4`), advancing `i`; exits 2 naming `example` when
/// it is malformed.
fn expect_list(args: &[String], i: &mut usize, example: &str) -> Vec<usize> {
    let flag = args[*i].clone();
    let list: String = expect_value(args, i);
    let parsed: Option<Vec<usize>> = list
        .split(',')
        .map(|part| part.trim().parse::<usize>().ok().filter(|&n| n >= 1))
        .collect();
    parsed.filter(|l| !l.is_empty()).unwrap_or_else(|| {
        eprintln!("{flag} expects a comma-separated list, e.g. {example}");
        std::process::exit(2);
    })
}

fn print_usage() {
    eprintln!(
        "usage: experiments [all | <ids>...] [--scale N] [--queries N] [--latency-ms MS] [--seed S]\n\
         \x20                [--out DIR] [--check DIR] [--batch N] [--buffer F]\n\
         \x20                [--read-latency-us N] [--regions LIST] [--partition-workers N]\n\
         \x20                [--dimacs PATH]\n\
         \x20                [--prep-nodes LIST] [--prep-dims LIST] [--prep-pairs N]\n\
         \x20                [--no-prep-asserts] [--alpha-nodes LIST] [--alpha-dims LIST]\n\
         \x20                [--alpha-pairs N] [--alpha-users N] [--no-alpha-asserts]\n\
         \x20                [--index-nodes LIST] [--index-dims LIST] [--index-pairs N]\n\
         \x20                [--index-users N] [--index-regions N] [--no-index-asserts]\n\
         \x20      experiments gate --baseline FILE [--labels FILE] [--alpha FILE]\n\
         \x20                [--index FILE] [--update]\n\
         experiment ids: {}, {PARTITION_ID}, {PREP_ID}, {ALPHA_ID}, {INDEX_ID}\n\
         --out DIR      run the experiments, persist each table to DIR/<id>.json and\n\
         \x20              verify the written file re-parses to the in-memory table\n\
         --check DIR    skip running; load DIR/<id>.json for each selected experiment,\n\
         \x20              verify a lossless round-trip and render the stored tables\n\
         --batch N      number of queries in the {PARTITION_ID} batch (default 64)\n\
         --read-latency-us N  blocking latency per physical read in the {PARTITION_ID}\n\
         \x20              experiment (default 100; 0 = RAM-speed reads)\n\
         --buffer F     buffer fraction of each {PARTITION_ID} region shard, as a share\n\
         \x20              of its data pages (default 0.2)\n\
         --regions LIST region counts swept by {PARTITION_ID}, e.g. 1,2,4 (default 1,2,4,8)\n\
         --partition-workers N  worker threads of the {PARTITION_ID} and {PREP_ID} engines\n\
         \x20              (default 4)\n\
         --dimacs PATH  run {PARTITION_ID}/{PREP_ID}/{ALPHA_ID}/{INDEX_ID} on a DIMACS .gr road\n\
         \x20              network instead of the synthetic topology (costs drawn around\n\
         \x20              the arc weights, clustered facilities placed on it)\n\
         --prep-nodes LIST  network sizes swept by {PREP_ID}, e.g. 250,500 (default)\n\
         --prep-dims LIST   cost dimensions swept by {PREP_ID}, e.g. 2,3,4 (default)\n\
         --prep-pairs N     source/target pairs measured per {PREP_ID} point (default 6)\n\
         --prep-batch N     requests in the {PREP_ID} engine batch (default 72)\n\
         --prep-targets N   distinct targets the {PREP_ID} batch cycles over (default 24)\n\
         --prep-cache N     {PREP_ID} prep-table cache capacity (default 32; keep it at\n\
         \x20              least the target count or the warm run degrades to cold)\n\
         --no-prep-asserts  skip {PREP_ID}'s ≥2x-label-reduction and warm-batch\n\
         \x20              all-hits assertions (0 cache misses, one hit per request;\n\
         \x20              result-equality assertions always run)\n\
         --alpha-nodes LIST  network sizes swept by {ALPHA_ID}, e.g. 250,500 (default)\n\
         --alpha-dims LIST   cost dimensions swept by {ALPHA_ID}, e.g. 2,3,4 (default)\n\
         --alpha-pairs N     source/target pairs measured per {ALPHA_ID} point (default 6)\n\
         --alpha-users N     preference vectors per {ALPHA_ID} pair (default 6)\n\
         --no-alpha-asserts  skip {ALPHA_ID}'s ≥2x-settled-reduction and ≥10x skyline\n\
         \x20              advantage assertions (A* = Dijkstra byte-identical\n\
         \x20              routes are always asserted)\n\
         --index-nodes LIST  network sizes swept by {INDEX_ID}, e.g. 150,250 (default)\n\
         --index-dims LIST   cost dimensions swept by {INDEX_ID}, e.g. 2,3,4 (default)\n\
         --index-pairs N     source/target pairs measured per {INDEX_ID} point (default 6)\n\
         --index-users N     preference vectors per {INDEX_ID} pair (default 6)\n\
         --index-regions N   parallel build regions of the {INDEX_ID} hierarchy\n\
         \x20              (default 1 = sequential; partitioned builds need a larger\n\
         \x20              bundle cap to stay exact at d = 4)\n\
         --no-index-asserts  skip {INDEX_ID}'s exact-build and >=10x cold settled-node\n\
         \x20              reduction assertions (byte-identical routes vs the prep\n\
         \x20              tier are always asserted)\n\
         gate           re-measure mean logical page reads of every figure point\n\
         \x20              (--baseline), the {PREP_ID} experiment's mean label counts\n\
         \x20              (--labels), the {ALPHA_ID} tier's mean settled nodes\n\
         \x20              (--alpha) and/or the {INDEX_ID} settled-node and arc-entry\n\
         \x20              counters (--index) and fail on >{:.0}% regression vs the\n\
         \x20              checked-in JSON",
        Experiment::all()
            .iter()
            .map(|e| e.id())
            .collect::<Vec<_>>()
            .join(", "),
        GATE_TOLERANCE * 100.0
    );
}
