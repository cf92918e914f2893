//! The one command: every workload, each in an OS process of its own (so
//! `peak_rss_mb` is per workload), once untraced and once traced.

use crate::metrics::{MetricDef, RunResult, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use std::process::{Command, Stdio};

/// nproc, CPU model, rustc and commit: what makes two result sets comparable.
fn machine_stamp() -> String {
    let first_line = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "machine: nproc {nproc}, cpu {cpu}, {}, commit {}",
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// Runs one workload in a child process of this same binary and reads its
/// result line back. The child's notes pass through on stderr.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
    trace: bool,
) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    // `output` waits for the child, so no process outlives the suite.
    let output = command
        .output()
        .expect("the benchmark binary can be re-run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout.lines().last().and_then(RunResult::from_json)
}

fn run_set(seed: u64, seconds: f64, quick: bool, trace: bool) -> Vec<Option<RunResult>> {
    WORKLOADS
        .iter()
        .map(|w| run_child(w.name, seed, seconds, quick, trace))
        .collect()
}

/// Prints one metric per row, one workload per column.
fn print_table(title: &str, catalogue: &[MetricDef], set: &[Option<RunResult>]) {
    println!("\n{title}");
    print!("{:<34} {:<6} {:<6}", "metric", "unit", "better");
    for w in &WORKLOADS {
        print!(" {:>16}", w.name);
    }
    println!();
    for d in catalogue {
        let label = match d.bound {
            Some(b) => format!("{} [{:.0}%]", d.name, b * 100.0),
            None => d.name.to_string(),
        };
        print!("{label:<34} {:<6} {:<6}", d.unit, d.better.as_str());
        for result in set {
            match result {
                Some(r) => print!(" {:>16.6}", r.values.get(d.name)),
                None => print!(" {:>16}", "no result"),
            }
        }
        println!();
    }
    for (label, f) in [
        (
            "samples (requests measured)",
            (|r: &RunResult| r.attempted as f64) as fn(&RunResult) -> f64,
        ),
        ("error_rate (failed/attempted)", |r| {
            r.failed as f64 / r.attempted.max(1) as f64
        }),
    ] {
        print!("{label:<34} {:<6} {:<6}", "", "");
        for result in set {
            match result {
                Some(r) => print!(" {:>16.6}", f(r)),
                None => print!(" {:>16}", "no result"),
            }
        }
        println!();
    }
}

fn all_correct(set: &[Option<RunResult>]) -> bool {
    set.iter()
        .all(|r| r.as_ref().is_some_and(RunResult::correct))
}

/// The default command. Returns false on any correctness failure.
pub fn run_all(seed: u64, seconds: f64, quick: bool) -> bool {
    println!("{}", machine_stamp());
    println!(
        "seed {seed}, {seconds} s measured per run, closed loop, 1 worker{}",
        if quick { ", QUICK sizes" } else { "" }
    );
    for w in &WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    let untraced = run_set(seed, seconds, quick, false);
    print_table(
        "end-to-end metrics (tracing off) [regression bound]",
        &END_TO_END,
        &untraced,
    );
    let traced = run_set(seed, seconds, quick, true);
    print_table(
        "per-layer metrics (traced pass and direct probes)",
        &PER_LAYER,
        &traced,
    );
    let ok = all_correct(&untraced) && all_correct(&traced);
    println!(
        "\n{}",
        if ok {
            "all answers correct"
        } else {
            "CORRECTNESS FAILURE (see stderr)"
        }
    );
    ok
}

/// Runs the untraced suite twice back to back and compares the two sets.
pub fn selfcheck(seed: u64, seconds: f64, quick: bool) -> bool {
    println!("{}", machine_stamp());
    let first = run_set(seed, seconds, quick, false);
    let second = run_set(seed, seconds, quick, false);
    let mut ok = all_correct(&first) && all_correct(&second);
    println!(
        "\n{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "spread", "bound"
    );
    for (w, (a, b)) in WORKLOADS.iter().zip(first.iter().zip(&second)) {
        let (Some(a), Some(b)) = (a, b) else {
            println!("{:<18} no result", w.name);
            continue;
        };
        for d in &END_TO_END {
            let (x, y) = (a.values.get(d.name), b.values.get(d.name));
            let spread = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let verdict = if spread > bound {
                ok = false;
                "  EXCEEDED"
            } else {
                ""
            };
            println!(
                "{:<18} {:<18} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.0}%{verdict}",
                w.name,
                d.name,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "\n{}",
        if ok {
            "selfcheck passed"
        } else {
            "SELFCHECK FAILED"
        }
    );
    ok
}
