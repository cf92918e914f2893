//! The gate contract, checked by the same generic helpers for each of the
//! four baselines, plus one determinism test per gate measurement.

use super::*;
use std::fmt::Debug;

/// Test-side access to one gate type: its checked-in baseline and the
/// fields the comparison tests perturb.
trait Sample: Gate + Clone + PartialEq + Debug {
    /// The checked-in baseline file's text.
    const FILE: &'static str;
    /// Changes one configuration field.
    fn change_config(&mut self);
    /// Drops the last row.
    fn pop_row(&mut self);
    /// Row `i`'s label and costs, in [`Gate::rows`] order (`i` < 2).
    fn row_mut(&mut self, i: usize) -> (&mut String, Vec<&mut f64>);

    /// The checked-in baseline, parsed.
    fn sample() -> Self {
        Self::from_json(Self::FILE).unwrap()
    }
}

impl Sample for GateBaseline {
    const FILE: &'static str = include_str!("../../baselines/logical_reads.json");
    fn change_config(&mut self) {
        self.config.scale = 50;
    }
    fn pop_row(&mut self) {
        self.tables.last_mut().unwrap().points.pop();
    }
    fn row_mut(&mut self, i: usize) -> (&mut String, Vec<&mut f64>) {
        let p = &mut self.tables[0].points[i];
        let costs = vec![&mut p.lsa_logical_reads, &mut p.cea_logical_reads];
        (&mut p.label, costs)
    }
}

impl Sample for LabelBaseline {
    const FILE: &'static str = include_str!("../../baselines/labels.json");
    fn change_config(&mut self) {
        self.config.nodes = 99;
    }
    fn pop_row(&mut self) {
        self.points.pop();
    }
    fn row_mut(&mut self, i: usize) -> (&mut String, Vec<&mut f64>) {
        let p = &mut self.points[i];
        let costs = vec![&mut p.exhaustive_labels, &mut p.prepped_labels];
        (&mut p.label, costs)
    }
}

impl Sample for AlphaSettledBaseline {
    const FILE: &'static str = include_str!("../../baselines/alpha_settled.json");
    fn change_config(&mut self) {
        self.config.users = 9;
    }
    fn pop_row(&mut self) {
        self.points.pop();
    }
    fn row_mut(&mut self, i: usize) -> (&mut String, Vec<&mut f64>) {
        let p = &mut self.points[i];
        let costs = vec![
            &mut p.dijkstra_settled,
            &mut p.astar_settled,
            &mut p.skyline_labels,
        ];
        (&mut p.label, costs)
    }
}

impl Sample for IndexSettledBaseline {
    const FILE: &'static str = include_str!("../../baselines/index_settled.json");
    fn change_config(&mut self) {
        self.config.pairs = 9;
    }
    fn pop_row(&mut self) {
        self.points.pop();
    }
    fn row_mut(&mut self, i: usize) -> (&mut String, Vec<&mut f64>) {
        let p = &mut self.points[i];
        let costs = vec![
            &mut p.index_settled,
            &mut p.index_sky_settled,
            &mut p.arc_entries,
        ];
        (&mut p.label, costs)
    }
}

/// A baseline compared with itself has no violations.
fn identical_passes<G: Sample>() {
    let base = G::sample();
    let violations = compare(&base, &base, GATE_TOLERANCE);
    assert!(violations.is_empty(), "{}: {violations:?}", G::NAME);
}

/// +1.9 % jitter and improvements pass; +3 % on one cost is exactly one
/// violation naming the gate, the row and the cost.
fn jitter_passes_regression_fails<G: Sample>() {
    let base = G::sample();
    let mut current = base.clone();
    *current.row_mut(0).1.remove(0) *= 1.019;
    *current.row_mut(1).1.remove(1) *= 0.9;
    let violations = compare(&current, &base, GATE_TOLERANCE);
    assert!(violations.is_empty(), "{violations:?}");
    *current.row_mut(1).1.remove(0) *= 1.03;
    let violations = compare(&current, &base, GATE_TOLERANCE);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let (label, costs) = &base.rows()[1];
    for part in [G::NAME, label.as_str(), costs[0].0] {
        assert!(
            violations[0].contains(part),
            "{violations:?} lacks `{part}`"
        );
    }
}

/// A changed configuration, row count or row label is reported.
fn shape_changes_are_reported<G: Sample>() {
    let base = G::sample();
    let reported = |change: fn(&mut G), what: &str| {
        let mut current = base.clone();
        change(&mut current);
        let violations = compare(&current, &base, GATE_TOLERANCE);
        assert_eq!(violations.len(), 1, "{violations:?}");
        for part in [G::NAME, what] {
            assert!(
                violations[0].contains(part),
                "{violations:?} lacks `{part}`"
            );
        }
    };
    reported(G::change_config, "configuration");
    reported(G::pop_row, "row count");
    reported(|g| *g.row_mut(1).0 = "d = 9".into(), "label changed");
}

/// Re-serializing the parsed checked-in baseline reproduces its bytes.
fn checked_in_round_trips<G: Sample>() {
    assert_eq!(G::sample().to_json(), G::FILE, "{}", G::NAME);
}

/// Measures `G` twice at `config` and asserts identical results.
fn measure_twice<G: Sample>(config: &G::Config) -> G {
    let a = G::measure(config);
    assert_eq!(a, G::measure(config));
    a
}

#[test]
fn identical_runs_pass() {
    identical_passes::<GateBaseline>();
    identical_passes::<LabelBaseline>();
    identical_passes::<AlphaSettledBaseline>();
    identical_passes::<IndexSettledBaseline>();
}

#[test]
fn small_improvements_and_jitter_pass_regressions_fail() {
    jitter_passes_regression_fails::<GateBaseline>();
}

#[test]
fn label_gate_passes_jitter_fails_regressions() {
    jitter_passes_regression_fails::<LabelBaseline>();
}

#[test]
fn alpha_gate_passes_jitter_fails_regressions() {
    jitter_passes_regression_fails::<AlphaSettledBaseline>();
}

#[test]
fn index_gate_passes_jitter_fails_regressions() {
    jitter_passes_regression_fails::<IndexSettledBaseline>();
}

#[test]
fn shape_and_config_changes_are_reported() {
    shape_changes_are_reported::<GateBaseline>();
}

#[test]
fn label_gate_reports_config_and_shape_changes() {
    shape_changes_are_reported::<LabelBaseline>();
}

#[test]
fn alpha_gate_reports_config_and_shape_changes() {
    shape_changes_are_reported::<AlphaSettledBaseline>();
}

#[test]
fn index_gate_reports_config_and_shape_changes() {
    shape_changes_are_reported::<IndexSettledBaseline>();
}

#[test]
fn baseline_round_trips_through_json() {
    checked_in_round_trips::<GateBaseline>();
}

#[test]
fn label_baseline_round_trips_through_json() {
    checked_in_round_trips::<LabelBaseline>();
}

#[test]
fn alpha_baseline_round_trips_through_json() {
    checked_in_round_trips::<AlphaSettledBaseline>();
}

#[test]
fn index_baseline_round_trips_through_json() {
    checked_in_round_trips::<IndexSettledBaseline>();
}

/// Malformed baselines are errors, never panics, and the message names the
/// byte offset or the field at fault.
#[test]
fn malformed_baselines_are_rejected_with_the_place_named() {
    let file = LabelBaseline::FILE;
    let replace = |from: &str, to: &str| {
        assert!(file.contains(from), "the sample lacks `{from}`");
        file.replacen(from, to, 1)
    };
    let cost = "\"exhaustive_labels\": 5276.0";
    let cases = [
        ("truncated", file[..file.len() / 2].to_string(), "at byte"),
        (
            "trailing garbage",
            format!("{file} x"),
            "trailing characters",
        ),
        (
            "missing field",
            replace(",\n    \"seed\": 2010", ""),
            "missing field `seed`",
        ),
        (
            "string cost",
            replace(cost, "\"exhaustive_labels\": \"5276.0\""),
            "field `exhaustive_labels`",
        ),
        (
            "fractional seed",
            replace("\"seed\": 2010", "\"seed\": 2010.5"),
            "field `seed`",
        ),
        (
            "\"nan\" cost",
            replace(cost, "\"exhaustive_labels\": \"nan\""),
            "field `exhaustive_labels`",
        ),
        (
            "bare NaN cost",
            replace(cost, "\"exhaustive_labels\": NaN"),
            "at byte",
        ),
        (
            "infinite cost",
            replace(cost, "\"exhaustive_labels\": 1e999"),
            "field `exhaustive_labels`",
        ),
    ];
    for (what, text, named) in cases {
        match LabelBaseline::from_json(&text) {
            Ok(parsed) => panic!("{what}: parsed as {parsed:?}"),
            Err(e) => assert!(e.contains(named), "{what}: `{e}` lacks `{named}`"),
        }
    }
}

/// Integers are kept as text, so a seed above 2^53 survives exactly.
#[test]
fn u64_seed_does_not_pass_through_f64() {
    let mut base = LabelBaseline::sample();
    base.config.seed = u64::MAX - 1;
    let back = LabelBaseline::from_json(&base.to_json()).unwrap();
    assert_eq!(back.config.seed, u64::MAX - 1);
}

#[test]
fn run_label_gate_is_deterministic() {
    let a: LabelBaseline = measure_twice(&LabelGateConfig {
        nodes: 80,
        dims: vec![2],
        pairs: 2,
        seed: 2010,
    });
    assert!(a.points[0].prepped_labels <= a.points[0].exhaustive_labels);
    assert!(a.points[0].prepped_labels > 0.0);
}

#[test]
fn run_alpha_gate_is_deterministic() {
    // The gate's own network: the acceptance bars asserted in `measure`
    // are set for it, not for a toy one.
    let a: AlphaSettledBaseline = measure_twice(&AlphaGateConfig {
        dims: vec![2],
        ..AlphaGateConfig::default()
    });
    assert!(a.points[0].astar_settled <= a.points[0].dijkstra_settled);
    assert!(a.points[0].astar_settled > 0.0);
    assert!(a.points[0].skyline_labels > 0.0);
}

#[test]
fn run_index_gate_is_deterministic() {
    let a: IndexSettledBaseline = measure_twice(&IndexGateConfig {
        nodes: 80,
        dims: vec![2],
        pairs: 2,
        users: 2,
        seed: 2010,
    });
    assert!(a.points[0].index_settled > 0.0);
    assert!(a.points[0].arc_entries > 0.0);
}

#[test]
fn run_gate_is_deterministic_for_one_figure() {
    // The property the whole gate rests on: identical config ⇒ identical
    // logical reads. Checked here for one figure (cheap); CI checks all
    // nine through the binary.
    let config = GateConfig::default().experiment_config();
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
