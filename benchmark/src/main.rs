//! The repo benchmark: six workloads through `QueryEngine`, end-to-end
//! metrics with tracing off and per-layer metrics from a traced pass.
//! See `README.md` next to this crate's manifest.

mod adapter;
mod metrics;
mod oracle;
mod runner;
mod stats;
mod suite;
mod trace;
mod workloads;

use runner::Options;
use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures unless `--seconds` says otherwise; the
/// `run_seconds` of BENCHMARK.json.
pub const RUN_SECONDS: u64 = 16;

const USAGE: &str = "\
usage: mcn-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--quick] [--selfcheck]

  (no --workload)  run all six workloads, each in a process of its own, once
                   untraced and once traced; print every end-to-end and
                   per-layer metric; exit non-zero on any correctness failure
  --workload NAME  one run of one workload; the last line of stdout is the
                   result as one JSON object (end-to-end metrics with
                   --trace 0, the default; per-layer metrics with --trace 1)
  --seed N         seed of the generated traffic (default 2010)
  --seconds S      serving time one run measures (default 16)
  --quick          tiny inputs: checks the harness, measures nothing useful
  --selfcheck      run the untraced suite twice and fail if any end-to-end
                   metric differs between the two by more than its bound
";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cli.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// `benchmark/out`, wherever the crate was checked out: cargo sets
/// `CARGO_MANIFEST_DIR` for `cargo run`; a binary started by hand falls back
/// to the directory it was built from.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("{why}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = cli.workload else {
        let ok = if cli.selfcheck {
            suite::selfcheck(cli.seed, cli.seconds, cli.quick)
        } else {
            suite::run_all(cli.seed, cli.seconds, cli.quick)
        };
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    let opts = Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        quick: cli.quick,
        out_dir: out_dir(),
    };
    let (run, catalogue): (_, &[metrics::MetricDef]) = if cli.trace {
        (runner::run_traced(&opts), &metrics::PER_LAYER)
    } else {
        (runner::run_end_to_end(&opts), &metrics::END_TO_END)
    };
    match run {
        Ok(result) => {
            for note in &result.notes {
                eprintln!("[{}] {note}", opts.workload);
            }
            println!("{}", result.to_json(catalogue));
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(runner::Abort(why)) => {
            eprintln!("[{}] {why}", opts.workload);
            ExitCode::from(3)
        }
    }
}
