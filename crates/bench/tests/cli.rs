//! The `experiments` binary end to end: bad values and unknown arguments
//! exit 2 with the usage text, before any experiment runs and without a
//! panic; and `gate` on the label baseline passes, rewrites it byte for
//! byte under `--update`, and exits 1 naming a regressed cost or a missing
//! file.

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
}

/// The checked-in label baseline, the cheapest of the four gates.
const LABELS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/labels.json");

/// Runs `experiments gate` with `args` and returns (exit code, stdout,
/// stderr), asserting that it did not panic.
fn gate(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("gate")
        .args(args)
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code(), stdout, stderr)
}

/// A fresh scratch path for one test's baseline file.
fn scratch_file(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mcn-gate-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{test}.json"))
}

#[test]
fn gate_passes_on_the_checked_in_labels_baseline() {
    let (code, stdout, stderr) = gate(&["--labels", LABELS]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("gate passed: 3 points"), "{stdout}");
}

#[test]
fn gate_update_reproduces_the_checked_in_labels_baseline() {
    let path = scratch_file("update");
    let (code, _, stderr) = gate(&["--labels", path.to_str().unwrap(), "--update"]);
    assert_eq!(code, Some(0), "{stderr}");
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(
        written == std::fs::read(LABELS).unwrap(),
        "--update changed the bytes"
    );
}

#[test]
fn gate_fails_naming_the_row_and_cost_that_regressed() {
    // Lower the d = 3 prepped cost by 5 %: the fresh run then reads +5.3 %.
    let text = std::fs::read_to_string(LABELS).unwrap();
    let row = text.find("\"label\": \"d = 3\"").expect("a d = 3 row");
    let key = "\"prepped_labels\": ";
    let start = row + text[row..].find(key).expect("a prepped cost") + key.len();
    let end = start + text[start..].find(['\n', ',']).unwrap();
    let lowered = text[start..end].parse::<f64>().unwrap() * 0.95;
    let path = scratch_file("regressed");
    std::fs::write(
        &path,
        format!("{}{lowered:?}{}", &text[..start], &text[end..]),
    )
    .unwrap();
    let (code, _, stderr) = gate(&["--labels", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("labels: d = 3 prepped_labels"), "{stderr}");
    assert!(stderr.contains("1 gate violation"), "{stderr}");
}

#[test]
fn gate_reports_a_missing_baseline_without_panicking() {
    let path = scratch_file("missing");
    let (code, _, stderr) = gate(&["--labels", path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn unknown_gate_flags_exit_2() {
    let (code, _, stderr) = gate(&["--bogus", "x"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown gate flag: --bogus"), "{stderr}");
}
