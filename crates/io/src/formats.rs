//! Parsers and writers for the supported text formats.

use mcn_graph::{
    CostVec, EdgeId, GraphBuilder, GraphError, MultiCostGraph, NodeId, MAX_COST_TYPES,
};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, Write};

/// Errors produced while parsing or writing network files.
#[derive(Debug)]
pub enum IoFormatError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A line could not be parsed; carries the 1-based line number and reason.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The parsed data does not form a valid graph.
    Graph(GraphError),
}

impl fmt::Display for IoFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoFormatError::Io(e) => write!(f, "I/O error: {e}"),
            IoFormatError::Parse { line, reason } => {
                write!(f, "parse error at line {line}: {reason}")
            }
            IoFormatError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for IoFormatError {}

impl From<std::io::Error> for IoFormatError {
    fn from(e: std::io::Error) -> Self {
        IoFormatError::Io(e)
    }
}

impl From<GraphError> for IoFormatError {
    fn from(e: GraphError) -> Self {
        IoFormatError::Graph(e)
    }
}

fn parse_err(line: usize, reason: impl Into<String>) -> IoFormatError {
    IoFormatError::Parse {
        line,
        reason: reason.into(),
    }
}

/// Loads a network from Brinkhoff-style text files: the node file has lines
/// `id x y`, the edge file has lines `id source target length`. External node
/// identifiers may be arbitrary integers; they are remapped to dense ids in
/// file order. The resulting graph has a single cost type (the length).
///
/// Lines that are empty or start with `#` are ignored in both files.
pub fn load_node_edge_files<N: BufRead, E: BufRead>(
    nodes: N,
    edges: E,
) -> Result<MultiCostGraph, IoFormatError> {
    let mut builder = GraphBuilder::new(1);
    let mut remap: BTreeMap<u64, NodeId> = BTreeMap::new();
    for (lineno, line) in nodes.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let id: u64 = parts
            .next()
            .ok_or_else(|| parse_err(lineno + 1, "missing node id"))?
            .parse()
            .map_err(|_| parse_err(lineno + 1, "node id is not an integer"))?;
        let x: f64 = parts
            .next()
            .ok_or_else(|| parse_err(lineno + 1, "missing x coordinate"))?
            .parse()
            .map_err(|_| parse_err(lineno + 1, "x coordinate is not a number"))?;
        let y: f64 = parts
            .next()
            .ok_or_else(|| parse_err(lineno + 1, "missing y coordinate"))?
            .parse()
            .map_err(|_| parse_err(lineno + 1, "y coordinate is not a number"))?;
        let dense = builder.add_node(x, y);
        if remap.insert(id, dense).is_some() {
            return Err(parse_err(lineno + 1, format!("duplicate node id {id}")));
        }
    }
    for (lineno, line) in edges.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let _edge_id = parts
            .next()
            .ok_or_else(|| parse_err(lineno + 1, "missing edge id"))?;
        let source: u64 = parts
            .next()
            .ok_or_else(|| parse_err(lineno + 1, "missing source node"))?
            .parse()
            .map_err(|_| parse_err(lineno + 1, "source is not an integer"))?;
        let target: u64 = parts
            .next()
            .ok_or_else(|| parse_err(lineno + 1, "missing target node"))?
            .parse()
            .map_err(|_| parse_err(lineno + 1, "target is not an integer"))?;
        let length: f64 = parts
            .next()
            .ok_or_else(|| parse_err(lineno + 1, "missing edge length"))?
            .parse()
            .map_err(|_| parse_err(lineno + 1, "length is not a number"))?;
        let s = *remap
            .get(&source)
            .ok_or_else(|| parse_err(lineno + 1, format!("unknown source node {source}")))?;
        let t = *remap
            .get(&target)
            .ok_or_else(|| parse_err(lineno + 1, format!("unknown target node {target}")))?;
        builder.add_edge(s, t, CostVec::from_slice(&[length]))?;
    }
    Ok(builder.build()?)
}

/// Loads a network from a DIMACS shortest-path challenge `.gr` file: a
/// `p sp <n> <m>` problem line followed by `a <u> <v> <w>` arc lines
/// (1-based node identifiers, directed arcs, integer weights). Coordinates are
/// unknown, so nodes carry no position. The graph has a single cost type.
///
/// # Errors
/// [`IoFormatError::Parse`] names the offending line when it is malformed,
/// repeats the problem line, declares more than `u32::MAX` nodes, or has an
/// arc endpoint outside `1..=n`.
pub fn load_dimacs_gr<R: BufRead>(reader: R) -> Result<MultiCostGraph, IoFormatError> {
    // The builder and the problem line's node count.
    let mut problem: Option<(GraphBuilder, usize)> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p sp") {
            if problem.is_some() {
                return Err(parse_err(lineno + 1, "second problem line"));
            }
            let mut parts = rest.split_whitespace();
            let n: usize = parts
                .next()
                .ok_or_else(|| parse_err(lineno + 1, "missing node count"))?
                .parse()
                .map_err(|_| parse_err(lineno + 1, "node count is not an integer"))?;
            if n > u32::MAX as usize {
                return Err(parse_err(
                    lineno + 1,
                    format!("node count {n} exceeds the 32-bit node ids"),
                ));
            }
            let mut b = GraphBuilder::new(1);
            for _ in 0..n {
                b.add_node_without_position();
            }
            problem = Some((b, n));
        } else if let Some(rest) = line.strip_prefix('a') {
            let (b, n) = problem
                .as_mut()
                .ok_or_else(|| parse_err(lineno + 1, "arc line before the problem line"))?;
            let mut parts = rest.split_whitespace();
            let u: usize = parts
                .next()
                .ok_or_else(|| parse_err(lineno + 1, "missing arc tail"))?
                .parse()
                .map_err(|_| parse_err(lineno + 1, "arc tail is not an integer"))?;
            let v: usize = parts
                .next()
                .ok_or_else(|| parse_err(lineno + 1, "missing arc head"))?
                .parse()
                .map_err(|_| parse_err(lineno + 1, "arc head is not an integer"))?;
            let w: f64 = parts
                .next()
                .ok_or_else(|| parse_err(lineno + 1, "missing arc weight"))?
                .parse()
                .map_err(|_| parse_err(lineno + 1, "arc weight is not a number"))?;
            if u == 0 || v == 0 {
                return Err(parse_err(lineno + 1, "DIMACS nodes are 1-based"));
            }
            if u > *n || v > *n {
                return Err(parse_err(
                    lineno + 1,
                    format!("arc {u} -> {v} names a node above the problem line's {n}"),
                ));
            }
            b.add_directed_edge(
                NodeId::from(u - 1),
                NodeId::from(v - 1),
                CostVec::from_slice(&[w]),
            )?;
        }
    }
    problem
        .ok_or_else(|| parse_err(0, "no problem line found"))
        .and_then(|(b, _)| Ok(b.build()?))
}

/// Writes a full multi-cost workload (nodes, edges with their `d` costs, and
/// facilities) as a single CSV stream with three sections, loadable again with
/// [`load_csv`].
pub fn write_csv<W: Write>(graph: &MultiCostGraph, mut out: W) -> Result<(), IoFormatError> {
    writeln!(out, "# mcn-csv v1")?;
    writeln!(out, "[nodes]")?;
    for n in graph.nodes() {
        writeln!(out, "{},{},{}", n.id.raw(), n.x, n.y)?;
    }
    writeln!(out, "[edges]")?;
    for e in graph.edges() {
        let costs: Vec<String> = e.costs.iter().map(|c| c.to_string()).collect();
        writeln!(
            out,
            "{},{},{},{},{}",
            e.id.raw(),
            e.source.raw(),
            e.target.raw(),
            e.directed as u8,
            costs.join(",")
        )?;
    }
    writeln!(out, "[facilities]")?;
    for f in graph.facilities() {
        writeln!(out, "{},{},{}", f.id.raw(), f.edge.raw(), f.position)?;
    }
    Ok(())
}

/// Loads a workload written by [`write_csv`].
pub fn load_csv<R: BufRead>(reader: R) -> Result<MultiCostGraph, IoFormatError> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Nodes,
        Edges,
        Facilities,
    }
    let mut section = Section::None;
    let mut nodes: Vec<(f64, f64)> = Vec::new();
    let mut edges: Vec<(u32, u32, bool, Vec<f64>)> = Vec::new();
    let mut facilities: Vec<(u32, f64)> = Vec::new();

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            "[nodes]" => section = Section::Nodes,
            "[edges]" => section = Section::Edges,
            "[facilities]" => section = Section::Facilities,
            _ => {
                let fields: Vec<&str> = line.split(',').collect();
                match section {
                    Section::None => {
                        return Err(parse_err(lineno + 1, "data before a section header"))
                    }
                    Section::Nodes => {
                        if fields.len() != 3 {
                            return Err(parse_err(lineno + 1, "node rows have 3 fields"));
                        }
                        let x: f64 = fields[1]
                            .parse()
                            .map_err(|_| parse_err(lineno + 1, "bad x"))?;
                        let y: f64 = fields[2]
                            .parse()
                            .map_err(|_| parse_err(lineno + 1, "bad y"))?;
                        nodes.push((x, y));
                    }
                    Section::Edges => {
                        if !(1..=MAX_COST_TYPES).contains(&fields.len().saturating_sub(4)) {
                            return Err(parse_err(
                                lineno + 1,
                                format!("edge rows have 1..={MAX_COST_TYPES} cost fields"),
                            ));
                        }
                        let s: u32 = fields[1]
                            .parse()
                            .map_err(|_| parse_err(lineno + 1, "bad source"))?;
                        let t: u32 = fields[2]
                            .parse()
                            .map_err(|_| parse_err(lineno + 1, "bad target"))?;
                        let directed = fields[3] == "1";
                        let costs: Result<Vec<f64>, _> =
                            fields[4..].iter().map(|f| f.parse()).collect();
                        let costs = costs.map_err(|_| parse_err(lineno + 1, "bad cost value"))?;
                        edges.push((s, t, directed, costs));
                    }
                    Section::Facilities => {
                        if fields.len() != 3 {
                            return Err(parse_err(lineno + 1, "facility rows have 3 fields"));
                        }
                        let e: u32 = fields[1]
                            .parse()
                            .map_err(|_| parse_err(lineno + 1, "bad edge"))?;
                        let pos: f64 = fields[2]
                            .parse()
                            .map_err(|_| parse_err(lineno + 1, "bad position"))?;
                        facilities.push((e, pos));
                    }
                }
            }
        }
    }

    let d = edges.first().map(|e| e.3.len()).unwrap_or(1);
    let mut b = GraphBuilder::with_capacity(d, nodes.len(), edges.len(), facilities.len());
    for (x, y) in nodes {
        b.add_node(x, y);
    }
    for (s, t, directed, costs) in edges {
        let cv = CostVec::from_slice(&costs);
        if directed {
            b.add_directed_edge(NodeId::new(s), NodeId::new(t), cv)?;
        } else {
            b.add_edge(NodeId::new(s), NodeId::new(t), cv)?;
        }
    }
    for (e, pos) in facilities {
        b.add_facility(EdgeId::new(e), pos)?;
    }
    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcn_gen::{generate_workload, WorkloadSpec};
    use std::io::BufReader;

    #[test]
    fn node_edge_files_roundtrip_small_example() {
        let nodes = "# node file\n10 0.0 0.0\n11 1.0 0.0\n12 1.0 1.0\n";
        let edges = "# edge file\n0 10 11 5.0\n1 11 12 2.5\n";
        let g = load_node_edge_files(
            BufReader::new(nodes.as_bytes()),
            BufReader::new(edges.as_bytes()),
        )
        .unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_cost_types(), 1);
        assert_eq!(g.edge(EdgeId::new(0)).costs.as_slice(), &[5.0]);
        assert!(g.is_connected());
    }

    #[test]
    fn node_edge_files_report_parse_errors_with_line_numbers() {
        let nodes = "1 0.0 0.0\nnot-a-number 1.0 2.0\n";
        let err = load_node_edge_files(
            BufReader::new(nodes.as_bytes()),
            BufReader::new("".as_bytes()),
        )
        .unwrap_err();
        match err {
            IoFormatError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        let edges = "0 1 99 5.0\n";
        let err = load_node_edge_files(
            BufReader::new("1 0.0 0.0\n".as_bytes()),
            BufReader::new(edges.as_bytes()),
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown"), "{err}");
    }

    #[test]
    fn dimacs_gr_loads_directed_arcs() {
        let gr = "c comment\np sp 3 4\na 1 2 7\na 2 1 7\na 2 3 4\na 3 2 4\n";
        let g = load_dimacs_gr(BufReader::new(gr.as_bytes())).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert!(g.edges().all(|e| e.directed));
        assert_eq!(g.edge(EdgeId::new(2)).costs.as_slice(), &[4.0]);
    }

    #[test]
    fn dimacs_without_problem_line_fails() {
        let gr = "a 1 2 7\n";
        assert!(load_dimacs_gr(BufReader::new(gr.as_bytes())).is_err());
    }

    #[test]
    fn dimacs_rejects_out_of_range_nodes_and_a_second_problem_line() {
        let parse_line = |gr: &str| match load_dimacs_gr(BufReader::new(gr.as_bytes())) {
            Err(IoFormatError::Parse { line, .. }) => line,
            other => panic!("expected a parse error for {gr:?}, got {other:?}"),
        };
        // 4294967297 - 1 truncated to 32 bits is node 0.
        assert_eq!(parse_line("p sp 3 1\na 4294967297 2 7\n"), 2);
        assert_eq!(parse_line("p sp 3 1\na 1 4 7\n"), 2);
        assert_eq!(parse_line("c big\np sp 4294967296 0\n"), 2);
        // A second problem line would drop every arc read so far.
        assert_eq!(parse_line("p sp 3 1\na 1 2 7\np sp 3 0\n"), 3);
    }

    #[test]
    fn csv_edge_rows_outside_one_to_max_cost_types_are_parse_errors() {
        let parse_line = |csv: &str| match load_csv(BufReader::new(csv.as_bytes())) {
            Err(IoFormatError::Parse { line, .. }) => line,
            other => panic!("expected a parse error for {csv:?}, got {other:?}"),
        };
        let nodes = "[nodes]\n0,0.0,0.0\n1,1.0,0.0\n[edges]\n";
        // Source, target, directed, then nine costs. As the first row it
        // would size the builder, as a later row the cost vector: both
        // panicked before the row was checked.
        let nine_costs = "0,1,0,1,2,3,4,5,6,7,8,9\n";
        assert_eq!(parse_line(&format!("{nodes}0,{nine_costs}")), 5);
        assert_eq!(
            parse_line(&format!("{nodes}0,0,1,0,1,2\n1,{nine_costs}")),
            6
        );
        assert_eq!(parse_line(&format!("{nodes}0,0,1,0\n")), 5);
    }

    #[test]
    fn csv_roundtrip_preserves_a_generated_workload() {
        let w = generate_workload(&WorkloadSpec::tiny(6));
        let mut buf = Vec::new();
        write_csv(&w.graph, &mut buf).unwrap();
        let loaded = load_csv(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(loaded.num_nodes(), w.graph.num_nodes());
        assert_eq!(loaded.num_edges(), w.graph.num_edges());
        assert_eq!(loaded.num_facilities(), w.graph.num_facilities());
        assert_eq!(loaded.num_cost_types(), w.graph.num_cost_types());
        // Spot-check an edge and a facility.
        let e = EdgeId::new(3);
        assert_eq!(
            loaded.edge(e).costs.as_slice(),
            w.graph.edge(e).costs.as_slice()
        );
        let f = mcn_graph::FacilityId::new(5);
        assert_eq!(loaded.facility(f), w.graph.facility(f));
    }
}
