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
//! ```

use mcn_bench::{render_table, Experiment, ExperimentConfig};
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print_usage();
        return ExitCode::SUCCESS;
    }
    run_experiments(&args)
}

fn run_experiments(args: &[String]) -> ExitCode {
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
                    return ExitCode::from(2);
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
        return ExitCode::from(2);
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
    ExitCode::SUCCESS
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
         experiment ids: {}\n\
         --scale N       divide the paper's network, facility and query sizes by N >= 1\n\
         \x20               (default 50; 1 is the full size)\n\
         --queries N     query locations per data point, N >= 1 (default: the scaled\n\
         \x20               paper value)\n\
         --latency-ms MS charge MS >= 0 milliseconds per physical page read (default 5)\n\
         --seed S        master seed (default 2010)",
        Experiment::all()
            .iter()
            .map(|e| e.id())
            .collect::<Vec<_>>()
            .join(", ")
    );
}
