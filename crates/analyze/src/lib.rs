//! `mcn-analyze`: static enforcement of the invariants this reproduction
//! lives by — byte-identical skylines and strict lock discipline.
//!
//! The regression gates (`logical_reads.json`, `labels.json`) catch
//! determinism bugs *after* they ship; this pass catches the bug classes
//! at their source, mechanically, before review: locks held across
//! physical reads, hash-order iteration feeding fingerprints or
//! baselines, and allocation in the query inner loops.
//!
//! The analysis is dependency-free: a hand-rolled lexer (no syn/quote —
//! the build environment is offline), a symbol [`resolver`] and explicit
//! [`callgraph`], plus rules in [`rules`]. The reachability rules
//! (`hot-path-alloc`, `nondet-iteration`) run over resolved call edges.
//! Any finding fails `check`. The only way to accept a finding is a
//! reasoned comment at its site:
//!
//! ```text
//! // mcn-lint: allow(lock-across-io, reason = "file handle is the lock")
//! ```
//!
//! Run it with `cargo run -p mcn-analyze -- check`.

pub mod callgraph;
pub mod lexer;
pub mod resolver;
pub mod rules;
pub mod source;
pub mod workspace;

use std::fmt;
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
    /// Files analyzed, for the report.
    pub files: usize,
}

/// Runs the full pass: loads the workspace at `root` and runs every rule.
pub fn check(root: &Path) -> Result<CheckOutcome, String> {
    let ws = Workspace::load(root).map_err(|e| format!("loading workspace: {e}"))?;
    Ok(CheckOutcome {
        findings: rules::run_all(&ws),
        files: ws.files.len(),
    })
}
