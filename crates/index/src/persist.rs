//! On-disk persistence: the index body plus a manifest whose checksum
//! detects corruption before a bad index ever serves a query.

use crate::structure::RouteIndex;
use mcn_graph::MultiCostGraph;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// File name of the serialized index body inside an index directory.
pub const INDEX_FILE: &str = "index.json";
/// File name of the manifest inside an index directory.
pub const MANIFEST_FILE: &str = "index-manifest.json";

/// The manifest written next to a persisted index: the shape of the graph
/// it was built for plus an FNV-1a checksum of the index JSON bytes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexManifest {
    /// Node count of the indexed graph.
    pub num_nodes: usize,
    /// Edge count of the indexed graph.
    pub num_edges: usize,
    /// Cost dimensionality of the indexed graph.
    pub dims: usize,
    /// Whether the persisted index is exact (serves queries).
    pub exact: bool,
    /// Shortcut entries the build inserted.
    pub shortcuts: u64,
    /// FNV-1a hash of the serialized index body.
    pub checksum: u64,
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

impl RouteIndex {
    /// Persists the index into `dir` as [`INDEX_FILE`] plus
    /// [`MANIFEST_FILE`], creating the directory if needed. Returns the
    /// manifest that was written.
    ///
    /// # Errors
    /// Returns a message naming the file on any I/O failure.
    pub fn save(&self, dir: &Path) -> Result<IndexManifest, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let body = self.to_json();
        let manifest = IndexManifest {
            num_nodes: self.num_nodes,
            num_edges: self.num_edges,
            dims: self.dims,
            exact: self.exact,
            shortcuts: self.shortcuts,
            checksum: fnv1a(body.as_bytes()),
        };
        let body_path = dir.join(INDEX_FILE);
        std::fs::write(&body_path, &body)
            .map_err(|e| format!("write {}: {e}", body_path.display()))?;
        let manifest_path = dir.join(MANIFEST_FILE);
        std::fs::write(&manifest_path, serde::json::to_string_pretty(&manifest))
            .map_err(|e| format!("write {}: {e}", manifest_path.display()))?;
        Ok(manifest)
    }

    /// Loads a persisted index from `dir`, verifying the manifest checksum
    /// against the body bytes, the body's structure (as
    /// [`RouteIndex::from_json`] does) and the recorded shape against both
    /// the parsed index and `graph`.
    ///
    /// # Errors
    /// Returns a message on I/O failure, a checksum mismatch ("corrupted"),
    /// a structurally invalid body, a manifest/body disagreement, or a shape
    /// mismatch with `graph`.
    pub fn load(dir: &Path, graph: &MultiCostGraph) -> Result<Self, String> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest_text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
        let manifest: IndexManifest = serde::json::from_str(&manifest_text)
            .map_err(|e| format!("parse {}: {e}", manifest_path.display()))?;
        let body_path = dir.join(INDEX_FILE);
        let body = std::fs::read_to_string(&body_path)
            .map_err(|e| format!("read {}: {e}", body_path.display()))?;
        if fnv1a(body.as_bytes()) != manifest.checksum {
            return Err(format!(
                "{} is corrupted: checksum does not match the manifest",
                body_path.display()
            ));
        }
        let index =
            Self::from_json(&body).map_err(|e| format!("parse {}: {e}", body_path.display()))?;
        if index.num_nodes != manifest.num_nodes
            || index.num_edges != manifest.num_edges
            || index.dims != manifest.dims
            || index.exact != manifest.exact
            || index.shortcuts != manifest.shortcuts
        {
            return Err(format!(
                "{} does not match its manifest",
                body_path.display()
            ));
        }
        if index.num_nodes != graph.num_nodes()
            || index.num_edges != graph.num_edges()
            || index.dims != graph.num_cost_types()
        {
            return Err(format!(
                "index at {} was built for a different graph ({} nodes, {} edges, d = {})",
                dir.display(),
                index.num_nodes,
                index.num_edges,
                index.dims
            ));
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexConfig;
    use mcn_graph::{CostVec, GraphBuilder};

    fn grid() -> MultiCostGraph {
        let mut b = GraphBuilder::new(2);
        let nodes: Vec<_> = (0..6).map(|i| b.add_node(i as f64, 0.0)).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], CostVec::from_slice(&[1.0, 2.0]))
                .unwrap();
        }
        b.add_edge(nodes[0], nodes[5], CostVec::from_slice(&[9.0, 1.0]))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn save_and_load_round_trip_bit_for_bit() {
        let g = grid();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let dir = std::env::temp_dir().join(format!("mcn-index-rt-{}", std::process::id()));
        let manifest = idx.save(&dir).unwrap();
        assert_eq!(manifest.num_nodes, 6);
        assert!(manifest.exact);
        let loaded = RouteIndex::load(&dir, &g).unwrap();
        assert_eq!(loaded, idx);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_bodies_and_foreign_graphs_are_rejected() {
        let g = grid();
        let idx = RouteIndex::build(&g, &IndexConfig::default());
        let dir = std::env::temp_dir().join(format!("mcn-index-bad-{}", std::process::id()));
        idx.save(&dir).unwrap();

        // Flip one byte of the body: the checksum must catch it.
        let body_path = dir.join(INDEX_FILE);
        let mut body = std::fs::read_to_string(&body_path).unwrap();
        body.push(' ');
        std::fs::write(&body_path, &body).unwrap();
        let err = RouteIndex::load(&dir, &g).unwrap_err();
        assert!(err.contains("corrupted"), "got: {err}");

        // Restore, then load against a graph of a different shape.
        idx.save(&dir).unwrap();
        let mut b = GraphBuilder::new(2);
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(1.0, 0.0);
        b.add_edge(a, c, CostVec::from_slice(&[1.0, 1.0])).unwrap();
        let other = b.build().unwrap();
        let err = RouteIndex::load(&dir, &other).unwrap_err();
        assert!(err.contains("different graph"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
