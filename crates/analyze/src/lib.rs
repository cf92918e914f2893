//! `mcn-analyze`: static enforcement of the invariants this reproduction
//! lives by — byte-identical skylines and strict lock discipline.
//!
//! The regression gates (`logical_reads.json`, `labels.json`) catch
//! determinism bugs *after* they ship; this pass catches the bug classes
//! at their source, mechanically, before review: locks held across
//! physical reads (the PR 3 incident), lock-order cycles, hash-order
//! iteration feeding fingerprints or baselines, and allocation in the
//! query inner loops.
//!
//! The analysis is dependency-free: a hand-rolled lexer (no syn/quote —
//! the build environment is offline), a symbol [`resolver`] and explicit
//! [`callgraph`], plus rules in [`rules`]. The reachability rules
//! (`lock-order`, `hot-path-alloc`, `nondet-iteration`) run over resolved
//! call edges. Any finding fails `check`; the acquisition-order graph
//! diffs against `lock-order.json`. The only way to accept a finding is a
//! reasoned comment at its site:
//!
//! ```text
//! // mcn-lint: allow(lock-across-io, reason = "file handle is the lock")
//! ```
//!
//! Run it with `cargo run -p mcn-analyze -- check`.

pub mod callgraph;
pub mod lexer;
pub mod locks;
pub mod resolver;
pub mod rules;
pub mod source;
pub mod workspace;

use std::fmt;
use std::fs;
use std::path::Path;

use workspace::Workspace;

/// One lint finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// Rule name (see [`rules::ALL_RULES`]).
    pub rule: String,
    /// 1-based line.
    pub line: u32,
    /// Trimmed source line, for the report.
    pub excerpt: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )?;
        write!(f, "    | {}", self.excerpt)
    }
}

/// The outcome of a full `check` run.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// Every finding that survived allow-suppression.
    pub findings: Vec<Finding>,
    /// The current acquisition-order edges (allow-filtered, deduped).
    pub lock_edges: Vec<locks::LockEdge>,
    /// Edges not present in the checked-in `lock-order.json`.
    pub lock_new: Vec<locks::LockEdge>,
    /// Checked-in edges that no longer occur.
    pub lock_stale: Vec<locks::LockEdge>,
    /// Files analyzed, for the report.
    pub files: usize,
}

impl CheckOutcome {
    /// True when there is no finding and the lock-order edges match
    /// `lock-order.json` exactly.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.lock_new.is_empty() && self.lock_stale.is_empty()
    }
}

/// Runs the full pass: load the workspace at `root`, run every rule and
/// diff the acquisition edges against `lock_path` (a missing file has no
/// edges). With `update`, first rewrites `lock_path` to accept exactly the
/// current edges; findings are reported either way.
pub fn check(root: &Path, lock_path: &Path, update: bool) -> Result<CheckOutcome, String> {
    let ws = Workspace::load(root).map_err(|e| format!("loading workspace: {e}"))?;
    let analysis = rules::analyze(&ws);
    let lock_file = if update {
        let lf = locks::LockOrderFile {
            edges: analysis.lock_edges.clone(),
        };
        fs::write(lock_path, lf.to_json() + "\n")
            .map_err(|e| format!("writing {}: {e}", lock_path.display()))?;
        lf
    } else {
        match fs::read_to_string(lock_path) {
            Ok(text) => locks::LockOrderFile::from_json(&text)
                .map_err(|e| format!("parsing {}: {e}", lock_path.display()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => locks::LockOrderFile::default(),
            Err(e) => return Err(format!("reading {}: {e}", lock_path.display())),
        }
    };
    let (lock_new, lock_stale) = lock_file.diff(&analysis.lock_edges);
    Ok(CheckOutcome {
        findings: analysis.findings,
        lock_edges: analysis.lock_edges,
        lock_new,
        lock_stale,
        files: ws.files.len(),
    })
}
