//! Plain-text rendering of experiment tables.

use crate::measure::PointMeasurement;

/// One rendered row of an experiment table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// The x-axis label of the data point.
    pub label: String,
    /// LSA charged seconds.
    pub lsa_time: f64,
    /// CEA charged seconds.
    pub cea_time: f64,
    /// LSA physical page reads.
    pub lsa_reads: f64,
    /// CEA physical page reads.
    pub cea_reads: f64,
    /// LSA/CEA speedup on charged time.
    pub speedup: f64,
    /// Mean result cardinality.
    pub result_size: f64,
}

/// A complete experiment table: one row per x-axis value.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentTable {
    /// Experiment identifier (e.g. `"fig08a"`).
    pub id: String,
    /// Human-readable title (e.g. `"Fig. 8(a) — skyline, effect of |P|"`).
    pub title: String,
    /// The parameter that varies along the rows.
    pub x_axis: String,
    /// The rows.
    pub rows: Vec<Row>,
    /// Latency (seconds per physical read) used to compute charged time.
    pub latency: f64,
}

impl ExperimentTable {
    /// Builds a table from raw measurements.
    pub(crate) fn from_points(
        id: impl Into<String>,
        title: impl Into<String>,
        x_axis: impl Into<String>,
        points: &[PointMeasurement],
        latency: f64,
    ) -> Self {
        let rows = points
            .iter()
            .map(|p| Row {
                label: p.label.clone(),
                lsa_time: finite(p.lsa.charged_seconds(latency)),
                cea_time: finite(p.cea.charged_seconds(latency)),
                lsa_reads: finite(p.lsa.physical_reads),
                cea_reads: finite(p.cea.physical_reads),
                speedup: finite(p.speedup(latency)),
                result_size: finite(p.lsa.result_size),
            })
            .collect();
        Self {
            id: id.into(),
            title: title.into(),
            x_axis: x_axis.into(),
            rows,
            latency,
        }
    }
}

/// Clamps a measurement into the finite range so a table never shows
/// `inf`/`NaN` (a corrupted measurement maps to 0, an overflowed one to
/// `f64::MAX` with its sign).
fn finite(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(f64::MIN, f64::MAX)
    }
}

/// Renders a table in a fixed-width text layout suitable for EXPERIMENTS.md.
pub fn render_table(table: &ExperimentTable) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {} [{}]\n", table.title, table.id));
    out.push_str(&format!(
        "(charged time = CPU + physical reads x {:.0} ms)\n",
        table.latency * 1000.0
    ));
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>10} {:>10} {:>9} {:>9}\n",
        table.x_axis, "LSA time(s)", "CEA time(s)", "LSA reads", "CEA reads", "speedup", "|result|"
    ));
    for r in &table.rows {
        out.push_str(&format!(
            "{:<18} {:>12.4} {:>12.4} {:>10.1} {:>10.1} {:>8.2}x {:>9.1}\n",
            r.label, r.lsa_time, r.cea_time, r.lsa_reads, r.cea_reads, r.speedup, r.result_size
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::AlgoMeasurement;

    fn point(label: &str, lsa_reads: f64, cea_reads: f64) -> PointMeasurement {
        PointMeasurement {
            label: label.to_string(),
            lsa: AlgoMeasurement {
                cpu_seconds: 0.001,
                physical_reads: lsa_reads,
                result_size: 7.0,
                ..Default::default()
            },
            cea: AlgoMeasurement {
                cpu_seconds: 0.001,
                physical_reads: cea_reads,
                result_size: 7.0,
                ..Default::default()
            },
            queries: 10,
        }
    }

    #[test]
    fn degenerate_points_produce_finite_rows() {
        // Regression test: an all-zero CEA measurement used to put
        // f64::INFINITY into the speedup column. Every row value must come
        // out finite.
        let mut p = point("zero", 300.0, 100.0);
        p.cea = AlgoMeasurement::default();
        p.lsa.cpu_seconds = f64::NAN; // corrupted timer reading
        let table = ExperimentTable::from_points("x", "t", "|P|", &[p], 0.005);
        let row = &table.rows[0];
        for v in [
            row.lsa_time,
            row.cea_time,
            row.lsa_reads,
            row.cea_reads,
            row.speedup,
            row.result_size,
        ] {
            assert!(v.is_finite(), "non-finite value {v} escaped into a row");
        }
    }

    #[test]
    fn table_rows_follow_points() {
        let points = vec![
            point("|P| = 500", 300.0, 100.0),
            point("|P| = 1000", 200.0, 80.0),
        ];
        let table = ExperimentTable::from_points("fig08a", "Fig. 8(a)", "|P|", &points, 0.005);
        assert_eq!(table.rows.len(), 2);
        assert!(table.rows[0].speedup > 2.5 && table.rows[0].speedup < 3.5);
        let text = render_table(&table);
        assert!(text.contains("Fig. 8(a)"));
        assert!(text.contains("|P| = 500"));
        assert!(text.contains('x'));
    }
}
