//! Command-line experiment runner.
//!
//! Reproduces the paper's Section VI figures as text tables, and runs the
//! count regression gates:
//!
//! ```text
//! experiments all                    # every figure at the default 1/50 scale
//! experiments sky-p topk-k           # selected figures
//! experiments all --scale 10         # closer to the paper's full size
//! experiments all --queries 50       # more query locations per data point
//! experiments all --latency-ms 10    # charge 10 ms per physical page read
//! experiments gate --baseline FILE   # re-measure and compare the counts
//! ```

use mcn_bench::{render_table, run_gate, Experiment, ExperimentConfig, GATES, GATE_TOLERANCE};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

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

fn run_experiments(args: &[String]) -> Result<(), ExitCode> {
    let mut config = ExperimentConfig::default();
    let mut selected: Vec<Experiment> = Vec::new();
    let mut run_all = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "all" => run_all = true,
            "--scale" => {
                config.scale = expect_value(args, &mut i, "an integer >= 1", |&n: &usize| n >= 1)
            }
            "--queries" => {
                config.queries = Some(expect_value(args, &mut i, "an integer >= 1", |&n| n >= 1))
            }
            "--latency-ms" => {
                let ms: f64 = expect_value(args, &mut i, "a finite number >= 0", |ms: &f64| {
                    ms.is_finite() && *ms >= 0.0
                });
                config.latency = ms / 1000.0;
            }
            "--seed" => config.seed = expect_value(args, &mut i, "an integer", |_| true),
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
    }
    if selected.is_empty() {
        eprintln!("nothing to run");
        print_usage();
        return Err(ExitCode::from(2));
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
        println!("{}", render_table(&experiment.run(&config)));
    }
    Ok(())
}

/// `experiments gate --baseline FILE [--labels FILE] [--alpha FILE]
/// [--index FILE] [--update]`: re-measure the deterministic mean logical
/// reads of every figure point (and, with `--labels`, the path skyline's
/// mean label counts with and without prep; with `--alpha`, the scalarized
/// tier's mean settled nodes; with `--index`, the route index's
/// settled-node and arc-entry counters) and fail on a > 2 % regression
/// against the checked-in baselines (`--update` rewrites them instead).
fn run_gate_command(args: &[String]) -> Result<(), ExitCode> {
    let mut paths: [Option<PathBuf>; GATES.len()] = Default::default();
    let mut update = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--update" {
            update = true;
        } else if let Some(g) = GATES.iter().position(|gate| gate.flag == flag) {
            paths[g] = Some(expect_value(args, &mut i, "a file path", |_| true));
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
    for (gate, path) in GATES.iter().zip(&paths) {
        let Some(path) = path else { continue };
        let (rows, found) = run_gate(gate, path, update).map_err(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        })?;
        if update {
            eprintln!("wrote {} baseline {}", gate.name, path.display());
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

/// Parses the value after the flag at `args[*i]`, advancing `i`; exits 2
/// with the usage text when it is missing, malformed or rejected by
/// `valid` (`what` names the accepted values).
fn expect_value<T: FromStr>(
    args: &[String],
    i: &mut usize,
    what: &str,
    valid: impl Fn(&T) -> bool,
) -> T {
    let flag = &args[*i];
    *i += 1;
    match args.get(*i).and_then(|v| v.parse().ok()).filter(valid) {
        Some(value) => value,
        None => {
            eprintln!("{flag} expects {what}");
            print_usage();
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: experiments [all | <ids>...] [--scale N] [--queries N] [--latency-ms MS] [--seed S]\n\
         \x20      experiments gate --baseline FILE [--labels FILE] [--alpha FILE]\n\
         \x20                [--index FILE] [--update]\n\
         experiment ids: {}\n\
         --scale N       divide the paper's network, facility and query sizes by N >= 1\n\
         \x20               (default 50; 1 is the full size)\n\
         --queries N     query locations per data point, N >= 1 (default: the scaled\n\
         \x20               paper value)\n\
         --latency-ms MS charge MS >= 0 milliseconds per physical page read (default 5)\n\
         --seed S        master seed (default 2010)\n\
         gate            re-measure mean logical page reads of every figure point\n\
         \x20               (--baseline), the path skyline's mean labels with and without\n\
         \x20               prep (--labels), the alpha tier's mean settled nodes (--alpha)\n\
         \x20               and/or the route index's settled-node and arc-entry counters\n\
         \x20               (--index); fail on >{:.0}% regression vs the checked-in JSON or\n\
         \x20               on a tier missing its acceptance bar (--update rewrites the\n\
         \x20               files)",
        Experiment::all()
            .iter()
            .map(|e| e.id())
            .collect::<Vec<_>>()
            .join(", "),
        GATE_TOLERANCE * 100.0
    );
}
