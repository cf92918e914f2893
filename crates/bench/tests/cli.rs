//! The `experiments` binary end to end: bad values and unknown arguments
//! exit 2 with the usage text, before any experiment runs and without a
//! panic.

use std::process::Command;

/// Runs the binary with `args` and asserts a clean usage exit (code 2,
/// usage text printed, no panic).
fn assert_usage_exit(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.contains("usage:"),
        "{args:?} printed no usage: {stderr}"
    );
}

#[test]
fn out_of_range_values_exit_2_without_panicking() {
    for args in [
        ["sky-p", "--scale", "0"],
        ["sky-p", "--queries", "0"],
        ["sky-p", "--latency-ms", "nan"],
        ["sky-p", "--latency-ms", "inf"],
        ["sky-p", "--latency-ms", "-1"],
        ["sky-p", "--seed", "x"],
    ] {
        assert_usage_exit(&args);
    }
    assert_usage_exit(&["sky-p", "--scale"]);
}

#[test]
fn report_modes_and_their_flags_are_unknown_arguments() {
    for arg in [
        "prep",
        "alpha",
        "index",
        "--out",
        "--check",
        "--dimacs",
        "--prep-nodes",
        "--alpha-users",
        "--index-regions",
        "--no-index-asserts",
    ] {
        assert_usage_exit(&["sky-p", arg, "x"]);
    }
    assert_usage_exit(&["gate"]);
    assert_usage_exit(&["gate", "--labels", "x"]);
}
