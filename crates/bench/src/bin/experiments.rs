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
    compare_alpha_gate, compare_gate, compare_index_gate, compare_label_gate, dimacs_graph,
    dimacs_workload, render_alpha_table, render_index_table, render_obs_table,
    render_partition_table, render_prep_table, render_table, render_throughput_table, run_alpha,
    run_alpha_gate, run_alpha_on_graph, run_gate, run_index, run_index_gate, run_index_on_graph,
    run_label_gate, run_obs, run_partition, run_partition_on, run_prep, run_prep_on_graph,
    run_throughput, AlphaConfig, AlphaGateConfig, AlphaReport, AlphaSettledBaseline, Experiment,
    ExperimentConfig, ExperimentTable, GateBaseline, GateConfig, IndexExperimentConfig,
    IndexGateConfig, IndexReport, IndexSettledBaseline, LabelBaseline, LabelGateConfig,
    ObsExperimentConfig, ObsReport, PartitionConfig, PartitionTable, PrepConfig, PrepReport,
    ThroughputConfig, ThroughputTable, ALPHA_ID, GATE_TOLERANCE, INDEX_ID, OBS_ID, PARTITION_ID,
    PREP_ID, THROUGHPUT_ID,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print_usage();
        return ExitCode::SUCCESS;
    }
    if args[0] == "gate" {
        return run_gate_command(&args[1..]);
    }

    let mut config = ExperimentConfig::default();
    let mut throughput_config = ThroughputConfig::default();
    let mut partition_config = PartitionConfig::default();
    let mut prep_config = PrepConfig::default();
    let mut alpha_config = AlphaConfig::default();
    let mut index_config = IndexExperimentConfig::default();
    let mut obs_config = ObsExperimentConfig::default();
    let mut selected: Vec<Experiment> = Vec::new();
    let mut with_throughput = false;
    let mut with_partition = false;
    let mut with_prep = false;
    let mut with_alpha = false;
    let mut with_index = false;
    let mut with_obs = false;
    let mut dimacs: Option<String> = None;
    let mut run_all = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut check_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "all" => run_all = true,
            id if id == THROUGHPUT_ID => with_throughput = true,
            id if id == PARTITION_ID => with_partition = true,
            id if id == PREP_ID => with_prep = true,
            id if id == ALPHA_ID => with_alpha = true,
            id if id == INDEX_ID => with_index = true,
            id if id == OBS_ID => with_obs = true,
            "--obs-batch" => {
                obs_config.batch = expect_value(&args, &mut i, "--obs-batch");
            }
            "--obs-workers" => {
                obs_config.workers = expect_value(&args, &mut i, "--obs-workers");
            }
            "--obs-repeats" => {
                obs_config.repeats = expect_value(&args, &mut i, "--obs-repeats");
            }
            "--no-obs-asserts" => {
                obs_config.assert_overhead = false;
            }
            "--index-nodes" => {
                let list: String = expect_value(&args, &mut i, "--index-nodes");
                match parse_worker_list(&list) {
                    Some(nodes) => index_config.nodes = nodes,
                    None => {
                        eprintln!("--index-nodes expects a comma-separated list, e.g. 150,250");
                        return ExitCode::from(2);
                    }
                }
            }
            "--index-dims" => {
                let list: String = expect_value(&args, &mut i, "--index-dims");
                match parse_worker_list(&list) {
                    Some(dims) => index_config.dims = dims,
                    None => {
                        eprintln!("--index-dims expects a comma-separated list, e.g. 2,3,4");
                        return ExitCode::from(2);
                    }
                }
            }
            "--index-pairs" => {
                index_config.pairs = expect_value(&args, &mut i, "--index-pairs");
            }
            "--index-users" => {
                index_config.users = expect_value(&args, &mut i, "--index-users");
            }
            "--index-regions" => {
                index_config.regions = expect_value(&args, &mut i, "--index-regions");
            }
            "--no-index-asserts" => {
                index_config.assert_improvements = false;
            }
            "--alpha-nodes" => {
                let list: String = expect_value(&args, &mut i, "--alpha-nodes");
                match parse_worker_list(&list) {
                    Some(nodes) => alpha_config.nodes = nodes,
                    None => {
                        eprintln!("--alpha-nodes expects a comma-separated list, e.g. 250,500");
                        return ExitCode::from(2);
                    }
                }
            }
            "--alpha-dims" => {
                let list: String = expect_value(&args, &mut i, "--alpha-dims");
                match parse_worker_list(&list) {
                    Some(dims) => alpha_config.dims = dims,
                    None => {
                        eprintln!("--alpha-dims expects a comma-separated list, e.g. 2,3,4");
                        return ExitCode::from(2);
                    }
                }
            }
            "--alpha-pairs" => {
                alpha_config.pairs = expect_value(&args, &mut i, "--alpha-pairs");
            }
            "--alpha-users" => {
                alpha_config.users = expect_value(&args, &mut i, "--alpha-users");
            }
            "--no-alpha-asserts" => {
                alpha_config.assert_improvements = false;
            }
            "--prep-nodes" => {
                let list: String = expect_value(&args, &mut i, "--prep-nodes");
                match parse_worker_list(&list) {
                    Some(nodes) => prep_config.nodes = nodes,
                    None => {
                        eprintln!("--prep-nodes expects a comma-separated list, e.g. 250,500");
                        return ExitCode::from(2);
                    }
                }
            }
            "--prep-dims" => {
                let list: String = expect_value(&args, &mut i, "--prep-dims");
                match parse_worker_list(&list) {
                    Some(dims) => prep_config.dims = dims,
                    None => {
                        eprintln!("--prep-dims expects a comma-separated list, e.g. 2,3,4");
                        return ExitCode::from(2);
                    }
                }
            }
            "--prep-pairs" => {
                prep_config.pairs = expect_value(&args, &mut i, "--prep-pairs");
            }
            "--prep-targets" => {
                prep_config.targets = expect_value(&args, &mut i, "--prep-targets");
            }
            "--prep-cache" => {
                prep_config.cache_capacity = expect_value(&args, &mut i, "--prep-cache");
            }
            "--prep-batch" => {
                prep_config.batch = expect_value(&args, &mut i, "--prep-batch");
            }
            "--no-prep-asserts" => {
                prep_config.assert_improvements = false;
            }
            "--regions" => {
                let list: String = expect_value(&args, &mut i, "--regions");
                match parse_worker_list(&list) {
                    Some(regions) => partition_config.regions = regions,
                    None => {
                        eprintln!("--regions expects a comma-separated list, e.g. 1,2,4");
                        return ExitCode::from(2);
                    }
                }
            }
            "--partition-workers" => {
                partition_config.workers = expect_value(&args, &mut i, "--partition-workers");
            }
            "--dimacs" => {
                dimacs = Some(expect_value(&args, &mut i, "--dimacs"));
            }
            "--buffer" => {
                let fraction: f64 = expect_value(&args, &mut i, "--buffer");
                throughput_config.buffer = fraction;
                partition_config.buffer = fraction;
            }
            "--scale" => {
                config.scale = expect_value(&args, &mut i, "--scale");
                partition_config.scale = config.scale;
            }
            "--queries" => {
                config.queries = Some(expect_value(&args, &mut i, "--queries"));
            }
            "--latency-ms" => {
                let ms: f64 = expect_value(&args, &mut i, "--latency-ms");
                config.latency = ms / 1000.0;
            }
            "--seed" => {
                config.seed = expect_value(&args, &mut i, "--seed");
            }
            "--batch" => {
                throughput_config.batch = expect_value(&args, &mut i, "--batch");
                partition_config.batch = throughput_config.batch;
            }
            "--workers" => {
                let list: String = expect_value(&args, &mut i, "--workers");
                match parse_worker_list(&list) {
                    Some(workers) => throughput_config.workers = workers,
                    None => {
                        eprintln!("--workers expects a comma-separated list, e.g. 1,2,4");
                        return ExitCode::from(2);
                    }
                }
            }
            "--read-latency-us" => {
                throughput_config.read_latency_us =
                    expect_value(&args, &mut i, "--read-latency-us");
                partition_config.read_latency_us = throughput_config.read_latency_us;
            }
            "--out" => {
                out_dir = Some(expect_value(&args, &mut i, "--out"));
            }
            "--check" => {
                check_dir = Some(expect_value(&args, &mut i, "--check"));
            }
            other => match Experiment::from_id(other) {
                Some(e) => selected.push(e),
                None => {
                    eprintln!("unknown experiment or flag: {other}");
                    print_usage();
                    return ExitCode::from(2);
                }
            },
        }
        i += 1;
    }
    if run_all {
        selected = Experiment::all().to_vec();
        with_throughput = true;
        with_partition = true;
        with_prep = true;
        with_alpha = true;
        with_index = true;
        with_obs = true;
    }
    if selected.is_empty()
        && !with_throughput
        && !with_partition
        && !with_prep
        && !with_alpha
        && !with_index
        && !with_obs
    {
        eprintln!("nothing to run");
        print_usage();
        return ExitCode::from(2);
    }
    throughput_config.scale = config.scale;
    throughput_config.seed = config.seed;
    // The partition experiment keeps its own (smaller) default scale — see
    // `PartitionConfig::default` — unless --scale is given explicitly.
    partition_config.seed = config.seed;
    prep_config.seed = config.seed;
    prep_config.workers = partition_config.workers;
    alpha_config.seed = config.seed;
    index_config.seed = config.seed;
    obs_config.scale = config.scale;
    obs_config.seed = config.seed;
    if let Some(path) = &dimacs {
        partition_config.source = path.clone();
        prep_config.source = path.clone();
        alpha_config.source = path.clone();
        index_config.source = path.clone();
    }

    if out_dir.is_some() && check_dir.is_some() {
        eprintln!("--out and --check are mutually exclusive (write first, then check)");
        return ExitCode::from(2);
    }
    if let Some(dir) = check_dir {
        return check_tables(
            &dir,
            &selected,
            with_throughput,
            with_partition,
            with_prep,
            with_alpha,
            with_index,
            with_obs,
        );
    }

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
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
        let table = experiment.run(&config);
        println!("{}", render_table(&table));
        if let Some(dir) = &out_dir {
            if let Err(e) = persist_table(dir, &table) {
                eprintln!("failed to persist table {}: {e}", table.id);
                return ExitCode::FAILURE;
            }
        }
    }
    if with_throughput {
        let table = run_throughput(&throughput_config);
        println!("{}", render_throughput_table(&table));
        if let Some(dir) = &out_dir {
            if let Err(e) = persist_throughput_table(dir, &table) {
                eprintln!("failed to persist table {THROUGHPUT_ID}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if with_partition {
        let table = match &dimacs {
            Some(path) => match dimacs_workload(path, &partition_config) {
                Ok(workload) => run_partition_on(&partition_config, &workload),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
            None => run_partition(&partition_config),
        };
        println!("{}", render_partition_table(&table));
        if let Some(dir) = &out_dir {
            if let Err(e) = persist_partition_table(dir, &table) {
                eprintln!("failed to persist table {PARTITION_ID}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if with_prep {
        let table = match &dimacs {
            Some(path) => match dimacs_graph(path) {
                Ok(graph) => run_prep_on_graph(&prep_config, &graph),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
            None => run_prep(&prep_config),
        };
        println!("{}", render_prep_table(&table));
        if let Some(dir) = &out_dir {
            if let Err(e) = persist_prep_table(dir, &table) {
                eprintln!("failed to persist table {PREP_ID}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if with_alpha {
        let table = match &dimacs {
            Some(path) => match dimacs_graph(path) {
                Ok(graph) => run_alpha_on_graph(&alpha_config, &graph),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
            None => run_alpha(&alpha_config),
        };
        println!("{}", render_alpha_table(&table));
        if let Some(dir) = &out_dir {
            if let Err(e) = persist_alpha_table(dir, &table) {
                eprintln!("failed to persist table {ALPHA_ID}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if with_index {
        let table = match &dimacs {
            Some(path) => match dimacs_graph(path) {
                Ok(graph) => run_index_on_graph(&index_config, &graph),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            },
            None => run_index(&index_config),
        };
        println!("{}", render_index_table(&table));
        if let Some(dir) = &out_dir {
            if let Err(e) = persist_index_table(dir, &table) {
                eprintln!("failed to persist table {INDEX_ID}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if with_obs {
        let table = run_obs(&obs_config);
        println!("{}", render_obs_table(&table));
        if let Some(dir) = &out_dir {
            if let Err(e) = persist_obs_table(dir, &table) {
                eprintln!("failed to persist table {OBS_ID}: {e}");
                return ExitCode::FAILURE;
            }
            // The embedded chrome trace, as its own loadable artifact.
            let trace_path = dir.join("obs-trace.json");
            if let Err(e) = std::fs::write(&trace_path, &table.trace_json) {
                eprintln!("cannot write {}: {e}", trace_path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", trace_path.display());
        }
    }
    ExitCode::SUCCESS
}

/// `experiments gate --baseline FILE [--labels FILE] [--alpha FILE]
/// [--index FILE] [--update]`: re-measure the deterministic mean logical
/// reads of every figure point (and, with `--labels`, the prep experiment's
/// mean label counts; with `--alpha`, the scalarized tier's mean settled
/// nodes; with `--index`, the route index's settled-node and arc-entry
/// counters) and fail on a > 2 % regression against the checked-in
/// baselines (`--update` rewrites them instead).
fn run_gate_command(args: &[String]) -> ExitCode {
    let mut baseline_path: Option<PathBuf> = None;
    let mut labels_path: Option<PathBuf> = None;
    let mut alpha_path: Option<PathBuf> = None;
    let mut index_path: Option<PathBuf> = None;
    let mut update = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--baseline" => baseline_path = Some(expect_value(args, &mut i, "--baseline")),
            "--labels" => labels_path = Some(expect_value(args, &mut i, "--labels")),
            "--alpha" => alpha_path = Some(expect_value(args, &mut i, "--alpha")),
            "--index" => index_path = Some(expect_value(args, &mut i, "--index")),
            "--update" => update = true,
            other => {
                eprintln!("unknown gate flag: {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if baseline_path.is_none()
        && labels_path.is_none()
        && alpha_path.is_none()
        && index_path.is_none()
    {
        eprintln!("gate requires --baseline FILE, --labels FILE, --alpha FILE and/or --index FILE");
        return ExitCode::from(2);
    }

    let mut violations: Vec<String> = Vec::new();
    let mut points = 0usize;
    if let Some(path) = &baseline_path {
        let current = run_gate(&GateConfig::default());
        if update {
            if let Err(e) = std::fs::write(path, current.to_json()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote gate baseline {}", path.display());
        } else {
            let baseline: GateBaseline = match load_baseline(path, GateBaseline::from_json) {
                Ok(baseline) => baseline,
                Err(code) => return code,
            };
            points += current.tables.iter().map(|t| t.points.len()).sum::<usize>();
            violations.extend(compare_gate(&current, &baseline, GATE_TOLERANCE));
        }
    }
    if let Some(path) = &labels_path {
        let current = run_label_gate(&LabelGateConfig::default());
        if update {
            if let Err(e) = std::fs::write(path, current.to_json()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote label baseline {}", path.display());
        } else {
            let baseline: LabelBaseline = match load_baseline(path, LabelBaseline::from_json) {
                Ok(baseline) => baseline,
                Err(code) => return code,
            };
            points += current.points.len();
            violations.extend(compare_label_gate(&current, &baseline, GATE_TOLERANCE));
        }
    }
    if let Some(path) = &alpha_path {
        let current = run_alpha_gate(&AlphaGateConfig::default());
        if update {
            if let Err(e) = std::fs::write(path, current.to_json()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote alpha baseline {}", path.display());
        } else {
            let baseline: AlphaSettledBaseline =
                match load_baseline(path, AlphaSettledBaseline::from_json) {
                    Ok(baseline) => baseline,
                    Err(code) => return code,
                };
            points += current.points.len();
            violations.extend(compare_alpha_gate(&current, &baseline, GATE_TOLERANCE));
        }
    }
    if let Some(path) = &index_path {
        let current = run_index_gate(&IndexGateConfig::default());
        if update {
            if let Err(e) = std::fs::write(path, current.to_json()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote index baseline {}", path.display());
        } else {
            let baseline: IndexSettledBaseline =
                match load_baseline(path, IndexSettledBaseline::from_json) {
                    Ok(baseline) => baseline,
                    Err(code) => return code,
                };
            points += current.points.len();
            violations.extend(compare_index_gate(&current, &baseline, GATE_TOLERANCE));
        }
    }
    if update {
        return ExitCode::SUCCESS;
    }
    if violations.is_empty() {
        println!(
            "gate passed: {points} points within {:.0}% of the baselines",
            GATE_TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("gate: {violation}");
        }
        eprintln!("{} gate violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Reads and parses a gate baseline file, mapping failures to the exit
/// code the gate command returns.
fn load_baseline<T>(
    path: &Path,
    from_json: impl Fn(&str) -> Result<T, String>,
) -> Result<T, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!(
            "cannot read {} (create it with `experiments gate ... --update`): {e}",
            path.display()
        );
        ExitCode::FAILURE
    })?;
    from_json(&text).map_err(|e| {
        eprintln!("cannot parse {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

/// Parses a `--workers` list like `1,2,4` (every entry ≥ 1).
fn parse_worker_list(list: &str) -> Option<Vec<usize>> {
    let workers: Option<Vec<usize>> = list
        .split(',')
        .map(|part| part.trim().parse::<usize>().ok().filter(|&w| w >= 1))
        .collect();
    workers.filter(|w| !w.is_empty())
}

/// Writes a report to `DIR/<id>.json` and proves the write lossless by
/// reading the file back and comparing the re-parsed value. Shared by the
/// figure tables and the throughput table, which only differ in their
/// (de)serializers.
fn persist_report<T: PartialEq>(
    dir: &Path,
    id: &str,
    table: &T,
    to_json: impl Fn(&T) -> String,
    from_json: impl Fn(&str) -> Result<T, String>,
) -> Result<(), String> {
    let path = dir.join(format!("{id}.json"));
    std::fs::write(&path, to_json(table)).map_err(|e| format!("write {}: {e}", path.display()))?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read back {}: {e}", path.display()))?;
    let reparsed = from_json(&text).map_err(|e| format!("re-parse {}: {e}", path.display()))?;
    if &reparsed != table {
        return Err(format!(
            "round-trip mismatch: {} differs from the in-memory table",
            path.display()
        ));
    }
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Writes `table` to `DIR/<id>.json` with read-back verification.
fn persist_table(dir: &Path, table: &ExperimentTable) -> Result<(), String> {
    persist_report(
        dir,
        &table.id,
        table,
        ExperimentTable::to_json,
        ExperimentTable::from_json,
    )
}

/// Writes the throughput `table` to `DIR/throughput.json` with the same
/// read-back verification as the figure tables.
fn persist_throughput_table(dir: &Path, table: &ThroughputTable) -> Result<(), String> {
    persist_report(
        dir,
        THROUGHPUT_ID,
        table,
        ThroughputTable::to_json,
        ThroughputTable::from_json,
    )
}

/// Writes the partition `table` to `DIR/partition.json` with the same
/// read-back verification as the figure tables.
fn persist_partition_table(dir: &Path, table: &PartitionTable) -> Result<(), String> {
    persist_report(
        dir,
        PARTITION_ID,
        table,
        PartitionTable::to_json,
        PartitionTable::from_json,
    )
}

/// Writes the prep `table` to `DIR/prep.json` with the same read-back
/// verification as the figure tables.
fn persist_prep_table(dir: &Path, table: &PrepReport) -> Result<(), String> {
    persist_report(
        dir,
        PREP_ID,
        table,
        PrepReport::to_json,
        PrepReport::from_json,
    )
}

/// Writes the alpha `table` to `DIR/alpha.json` with the same read-back
/// verification as the figure tables.
fn persist_alpha_table(dir: &Path, table: &AlphaReport) -> Result<(), String> {
    persist_report(
        dir,
        ALPHA_ID,
        table,
        AlphaReport::to_json,
        AlphaReport::from_json,
    )
}

/// Writes the index `table` to `DIR/index.json` with the same read-back
/// verification as the figure tables.
fn persist_index_table(dir: &Path, table: &IndexReport) -> Result<(), String> {
    persist_report(
        dir,
        INDEX_ID,
        table,
        IndexReport::to_json,
        IndexReport::from_json,
    )
}

/// Writes the observability `table` to `DIR/obs.json` with the same
/// read-back verification as the figure tables.
fn persist_obs_table(dir: &Path, table: &ObsReport) -> Result<(), String> {
    persist_report(dir, OBS_ID, table, ObsReport::to_json, ObsReport::from_json)
}

/// Loads `DIR/<id>.json`, verifying that the stored id matches and that
/// re-serializing the parsed value reproduces the file byte-for-byte (the
/// serializer is deterministic, so byte equality across processes proves a
/// lossless round-trip).
fn load_report<T>(
    dir: &Path,
    expected_id: &str,
    to_json: impl Fn(&T) -> String,
    from_json: impl Fn(&str) -> Result<T, String>,
    id_of: impl Fn(&T) -> &str,
) -> Result<T, String> {
    let path = dir.join(format!("{expected_id}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let table = from_json(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    if id_of(&table) != expected_id {
        return Err(format!(
            "{} holds table `{}`, expected `{expected_id}`",
            path.display(),
            id_of(&table)
        ));
    }
    if to_json(&table) != text {
        return Err(format!(
            "{}: re-serializing the parsed table does not reproduce the file",
            path.display()
        ));
    }
    Ok(table)
}

/// Loads each selected table from `DIR/<id>.json`, verifies the lossless
/// round-trip and renders it.
#[allow(clippy::too_many_arguments)]
fn check_tables(
    dir: &Path,
    selected: &[Experiment],
    with_throughput: bool,
    with_partition: bool,
    with_prep: bool,
    with_alpha: bool,
    with_index: bool,
    with_obs: bool,
) -> ExitCode {
    let mut failures = 0u32;
    for experiment in selected {
        match load_report(
            dir,
            experiment.id(),
            ExperimentTable::to_json,
            ExperimentTable::from_json,
            |t| &t.id,
        ) {
            Ok(table) => println!("{}", render_table(&table)),
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if with_throughput {
        match load_report(
            dir,
            THROUGHPUT_ID,
            ThroughputTable::to_json,
            ThroughputTable::from_json,
            |t| &t.id,
        ) {
            Ok(table) => println!("{}", render_throughput_table(&table)),
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if with_partition {
        match load_report(
            dir,
            PARTITION_ID,
            PartitionTable::to_json,
            PartitionTable::from_json,
            |t| &t.id,
        ) {
            Ok(table) => println!("{}", render_partition_table(&table)),
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if with_prep {
        match load_report(
            dir,
            PREP_ID,
            PrepReport::to_json,
            PrepReport::from_json,
            |t| &t.id,
        ) {
            Ok(table) => println!("{}", render_prep_table(&table)),
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if with_alpha {
        match load_report(
            dir,
            ALPHA_ID,
            AlphaReport::to_json,
            AlphaReport::from_json,
            |t| &t.id,
        ) {
            Ok(table) => println!("{}", render_alpha_table(&table)),
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if with_index {
        match load_report(
            dir,
            INDEX_ID,
            IndexReport::to_json,
            IndexReport::from_json,
            |t| &t.id,
        ) {
            Ok(table) => println!("{}", render_index_table(&table)),
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if with_obs {
        match load_report(dir, OBS_ID, ObsReport::to_json, ObsReport::from_json, |t| {
            &t.id
        }) {
            Ok(table) => println!("{}", render_obs_table(&table)),
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} table(s) failed the check");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn expect_value<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
    *i += 1;
    args.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        })
}

fn print_usage() {
    eprintln!(
        "usage: experiments [all | <ids>...] [--scale N] [--queries N] [--latency-ms MS] [--seed S]\n\
         \x20                [--batch N] [--workers LIST] [--out DIR] [--check DIR]\n\
         \x20                [--regions LIST] [--partition-workers N] [--dimacs PATH]\n\
         \x20                [--prep-nodes LIST] [--prep-dims LIST] [--prep-pairs N]\n\
         \x20                [--no-prep-asserts] [--alpha-nodes LIST] [--alpha-dims LIST]\n\
         \x20                [--alpha-pairs N] [--alpha-users N] [--no-alpha-asserts]\n\
         \x20                [--index-nodes LIST] [--index-dims LIST] [--index-pairs N]\n\
         \x20                [--index-users N] [--index-regions N] [--no-index-asserts]\n\
         \x20                [--obs-batch N] [--obs-workers N] [--obs-repeats N]\n\
         \x20                [--no-obs-asserts]\n\
         \x20      experiments gate --baseline FILE [--labels FILE] [--alpha FILE]\n\
         \x20                [--index FILE] [--update]\n\
         experiment ids: {}, {THROUGHPUT_ID}, {PARTITION_ID}, {PREP_ID}, {ALPHA_ID}, {INDEX_ID}, {OBS_ID}\n\
         --out DIR      run the experiments, persist each table to DIR/<id>.json and\n\
         \x20              verify the written file re-parses to the in-memory table\n\
         --check DIR    skip running; load DIR/<id>.json for each selected experiment,\n\
         \x20              verify a lossless round-trip and render the stored tables\n\
         --batch N      number of queries in the {THROUGHPUT_ID}/{PARTITION_ID} batches\n\
         --workers LIST worker counts swept by {THROUGHPUT_ID}, e.g. 1,2,4 (default)\n\
         --read-latency-us N  blocking latency per physical read in the {THROUGHPUT_ID}/\n\
         \x20              {PARTITION_ID} experiments (default 50; 0 = RAM-speed reads)\n\
         --buffer F     buffer fraction of the {THROUGHPUT_ID}/{PARTITION_ID} stores, as a\n\
         \x20              share of the data pages ({THROUGHPUT_ID} defaults to 0.01;\n\
         \x20              {PARTITION_ID} defaults to 0.2 per region shard)\n\
         --regions LIST region counts swept by {PARTITION_ID}, e.g. 1,2,4 (default)\n\
         --partition-workers N  worker threads of the {PARTITION_ID} engine (default 4)\n\
         --dimacs PATH  run {PARTITION_ID}/{PREP_ID} on a DIMACS .gr road network instead\n\
         \x20              of the synthetic topology (costs drawn around the arc weights,\n\
         \x20              clustered facilities placed on it)\n\
         --prep-nodes LIST  network sizes swept by {PREP_ID}, e.g. 250,500 (default)\n\
         --prep-dims LIST   cost dimensions swept by {PREP_ID}, e.g. 2,3,4 (default)\n\
         --prep-pairs N     source/target pairs measured per {PREP_ID} point (default 6)\n\
         --prep-batch N     requests in the {PREP_ID} engine batch (default 72)\n\
         --prep-targets N   distinct targets the {PREP_ID} batch cycles over (default 24)\n\
         --prep-cache N     {PREP_ID} prep-table cache capacity (default 32; keep it at\n\
         \x20              least the target count or the warm run degrades to cold)\n\
         --no-prep-asserts  skip {PREP_ID}'s ≥2x-label-reduction and warm>cold QPS\n\
         \x20              assertions (result-equality assertions always run)\n\
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
         --obs-batch N      queries in the {OBS_ID} experiment's batch (default 32)\n\
         --obs-workers N    engine workers of the {OBS_ID} experiment (default 4)\n\
         --obs-repeats N    interleaved best-of rounds per {OBS_ID} mode (default 3)\n\
         --no-obs-asserts   skip {OBS_ID}'s <=2% disabled-overhead assertion\n\
         \x20              (identical-fingerprint and trace round-trip assertions\n\
         \x20              always run); with --out, {OBS_ID} also writes the enabled\n\
         \x20              run's chrome://tracing document to DIR/obs-trace.json\n\
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
