//! The gate contract, checked by the same helpers for each of the four
//! baselines, plus one determinism test per gate measurement.

use super::*;

/// The checked-in baseline files, in [`GATES`] order.
const FILES: [&str; 4] = [
    include_str!("../../baselines/logical_reads.json"),
    include_str!("../../baselines/labels.json"),
    include_str!("../../baselines/alpha_settled.json"),
    include_str!("../../baselines/index_settled.json"),
];

/// Gate `g`'s name and its checked-in baseline, parsed.
fn sample(g: usize) -> (&'static str, Baseline) {
    (GATES[g].name, Baseline::from_json(FILES[g]).unwrap())
}

/// Point `i` of the baseline's first group.
fn point(baseline: &mut Baseline, i: usize) -> &mut Point {
    &mut baseline.tables[0].1[i]
}

/// A baseline compared with itself has no violations.
fn identical_passes(g: usize) {
    let (name, base) = sample(g);
    let violations = compare(name, &base, &base, GATE_TOLERANCE);
    assert!(violations.is_empty(), "{name}: {violations:?}");
}

/// +1.9 % jitter and improvements pass; +3 % on one cost is exactly one
/// violation naming the gate, the row and the cost.
fn jitter_passes_regression_fails(g: usize) {
    let (name, base) = sample(g);
    let mut current = base.clone();
    point(&mut current, 0).costs[0].1 *= 1.019;
    point(&mut current, 1).costs[1].1 *= 0.9;
    let violations = compare(name, &current, &base, GATE_TOLERANCE);
    assert!(violations.is_empty(), "{violations:?}");
    point(&mut current, 1).costs[0].1 *= 1.03;
    let violations = compare(name, &current, &base, GATE_TOLERANCE);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let (label, p) = &base.rows()[1];
    for part in [name, label.as_str(), p.costs[0].0.as_str()] {
        assert!(
            violations[0].contains(part),
            "{violations:?} lacks `{part}`"
        );
    }
}

/// A changed configuration, row count, row label or cost key is reported.
fn shape_changes_are_reported(g: usize) {
    let (name, base) = sample(g);
    let reported = |change: fn(&mut Baseline), what: &str| {
        let mut current = base.clone();
        change(&mut current);
        let violations = compare(name, &current, &base, GATE_TOLERANCE);
        assert_eq!(violations.len(), 1, "{violations:?}");
        for part in [name, what] {
            assert!(
                violations[0].contains(part),
                "{violations:?} lacks `{part}`"
            );
        }
    };
    reported(
        |b| b.config = object([("seed", 2011u64.into())]),
        "configuration",
    );
    reported(|b| drop(b.tables.last_mut().unwrap().1.pop()), "row count");
    reported(|b| point(b, 1).label = "d = 9".into(), "label changed");
    reported(|b| point(b, 1).costs[0].0 = "renamed".into(), "costs of");
}

/// Re-serializing the parsed checked-in baseline reproduces its bytes.
fn checked_in_round_trips(g: usize) {
    assert_eq!(sample(g).1.to_json(), FILES[g], "{}", GATES[g].name);
}

/// Measures `gate` twice, asserts identical results, and returns its
/// first point's costs by key.
fn measure_twice(gate: &PathGate) -> impl Fn(&str) -> f64 {
    let a = gate.measure();
    assert_eq!(a, gate.measure());
    move |key| {
        a.tables[0].1[0]
            .costs
            .iter()
            .find(|(k, _)| k == key)
            .unwrap()
            .1
    }
}

#[test]
fn identical_runs_pass() {
    (0..GATES.len()).for_each(identical_passes);
}

#[test]
fn small_improvements_and_jitter_pass_regressions_fail() {
    jitter_passes_regression_fails(0);
}

#[test]
fn label_gate_passes_jitter_fails_regressions() {
    jitter_passes_regression_fails(1);
}

#[test]
fn alpha_gate_passes_jitter_fails_regressions() {
    jitter_passes_regression_fails(2);
}

#[test]
fn index_gate_passes_jitter_fails_regressions() {
    jitter_passes_regression_fails(3);
}

#[test]
fn shape_and_config_changes_are_reported() {
    shape_changes_are_reported(0);
}

#[test]
fn label_gate_reports_config_and_shape_changes() {
    shape_changes_are_reported(1);
}

#[test]
fn alpha_gate_reports_config_and_shape_changes() {
    shape_changes_are_reported(2);
}

#[test]
fn index_gate_reports_config_and_shape_changes() {
    shape_changes_are_reported(3);
}

#[test]
fn baseline_round_trips_through_json() {
    checked_in_round_trips(0);
}

#[test]
fn label_baseline_round_trips_through_json() {
    checked_in_round_trips(1);
}

#[test]
fn alpha_baseline_round_trips_through_json() {
    checked_in_round_trips(2);
}

#[test]
fn index_baseline_round_trips_through_json() {
    checked_in_round_trips(3);
}

/// Malformed baselines are errors, never panics, and the message names the
/// byte offset or the field at fault; a malformed configuration parses but
/// fails the comparison.
#[test]
fn malformed_baselines_are_rejected_with_the_place_named() {
    let (name, base) = sample(1);
    let file = FILES[1];
    let replace = |from: &str, to: &str| {
        assert!(file.contains(from), "the sample lacks `{from}`");
        file.replacen(from, to, 1)
    };
    let field = "field `exhaustive_labels`";
    let cost = |v: &str| {
        let from = "\"exhaustive_labels\": 5266.0";
        replace(from, &format!("\"exhaustive_labels\": {v}"))
    };
    let cases = [
        ("truncated", file[..file.len() / 2].to_string(), "at byte"),
        (
            "trailing garbage",
            format!("{file} x"),
            "trailing characters",
        ),
        (
            "missing label",
            replace("\"label\": \"d = 2\",", ""),
            "missing field `label`",
        ),
        (
            "missing config",
            replace("\"config\"", "\"konfig\""),
            "missing field `config`",
        ),
        (
            "no points",
            replace("\"points\"", "\"pts\""),
            "one of `points` or `tables`",
        ),
        ("string cost", cost("\"5266.0\""), field),
        ("\"nan\" cost", cost("\"nan\""), field),
        ("bare NaN cost", cost("NaN"), "at byte"),
        ("infinite cost", cost("1e999"), field),
    ];
    for (what, text, named) in cases {
        match Baseline::from_json(&text) {
            Ok(parsed) => panic!("{what}: parsed as {parsed:?}"),
            Err(e) => assert!(e.contains(named), "{what}: `{e}` lacks `{named}`"),
        }
    }
    for (what, text) in [
        ("missing seed", replace(",\n    \"seed\": 2010", "")),
        (
            "fractional seed",
            replace("\"seed\": 2010", "\"seed\": 2010.5"),
        ),
    ] {
        let parsed = Baseline::from_json(&text).unwrap();
        let violations = compare(name, &base, &parsed, GATE_TOLERANCE);
        assert!(
            violations.len() == 1 && violations[0].contains("configuration changed"),
            "{what}: {violations:?}"
        );
    }
}

/// Integers are kept as text, so a seed above 2^53 survives exactly.
#[test]
fn u64_seed_does_not_pass_through_f64() {
    let seed = u64::MAX - 1;
    let text = FILES[1].replacen("\"seed\": 2010", &format!("\"seed\": {seed}"), 1);
    let back = Baseline::from_json(&text).unwrap();
    assert_eq!(
        back.config.field("seed", |v| Ok(v.clone())),
        Ok(seed.into())
    );
    assert_eq!(back.to_json(), text);
}

#[test]
fn run_label_gate_is_deterministic() {
    let cost = measure_twice(&PathGate {
        nodes: 80,
        dims: &[2],
        pairs: 2,
        ..LABELS
    });
    assert!(cost("prepped_labels") <= cost("exhaustive_labels"));
    assert!(cost("prepped_labels") > 0.0);
}

#[test]
fn run_alpha_gate_is_deterministic() {
    // The gate's own network: the acceptance bars asserted in `measure`
    // are set for it, not for a toy one.
    let cost = measure_twice(&PathGate {
        dims: &[2],
        ..ALPHA
    });
    assert!(cost("astar_settled") <= cost("dijkstra_settled"));
    assert!(cost("astar_settled") > 0.0);
    assert!(cost("skyline_labels") > 0.0);
}

#[test]
fn run_index_gate_is_deterministic() {
    let cost = measure_twice(&PathGate {
        nodes: 80,
        dims: &[2],
        pairs: 2,
        users: Some(2),
        ..INDEX
    });
    assert!(cost("index_settled") > 0.0);
    assert!(cost("arc_entries") > 0.0);
}

#[test]
fn run_gate_is_deterministic_for_one_figure() {
    // The property the whole gate rests on: identical config ⇒ identical
    // logical reads. Checked here for one figure (cheap); CI checks all
    // nine through the binary.
    let config = logical_reads_config();
    let a = Experiment::SkylineCostTypes.run_points(&config);
    let b = Experiment::SkylineCostTypes.run_points(&config);
    let reads = |points: &[crate::measure::PointMeasurement]| {
        points
            .iter()
            .map(|p| (p.lsa.logical_reads, p.cea.logical_reads))
            .collect::<Vec<_>>()
    };
    assert_eq!(reads(&a), reads(&b));
    assert!(a.iter().all(|p| p.lsa.logical_reads > 0.0));
}
