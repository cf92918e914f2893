//! Workspace discovery: finds every non-vendored Rust source file and
//! loads it as a [`SourceFile`]. Vendored crates (`vendor/`) and build
//! output (`target/`) are never analyzed — the rules encode *this*
//! repository's invariants, not the shims'.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::source::SourceFile;

/// The analyzed slice of the workspace: every `.rs` file of the root
/// package and of each `crates/*` member, in deterministic (sorted path)
/// order.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Loaded files, sorted by workspace-relative path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Builds a workspace from pre-lexed files (used by rule fixtures).
    /// A file another file declares as `#[cfg(test)] mod name;` is test
    /// code throughout.
    pub fn from_files(mut files: Vec<SourceFile>) -> Workspace {
        files.sort_by(|a, b| a.path.cmp(&b.path));
        let test_files: Vec<String> = files
            .iter()
            .flat_map(|f| f.test_mods.iter().map(|m| module_file(&f.path, m)))
            .collect();
        for f in &mut files {
            if test_files.contains(&f.path) {
                f.test_ranges = vec![(0, f.tokens.len())];
            }
        }
        Workspace { files }
    }

    /// Loads every analyzable file under `root` (a workspace checkout).
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut paths: Vec<PathBuf> = Vec::new();
        for dir in ["src", "tests", "examples", "benches"] {
            collect_rs(&root.join(dir), &mut paths)?;
        }
        let crates = root.join("crates");
        if crates.is_dir() {
            let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            members.sort();
            for member in members {
                for dir in ["src", "tests", "examples", "benches"] {
                    collect_rs(&member.join(dir), &mut paths)?;
                }
            }
        }
        let mut files = Vec::with_capacity(paths.len());
        for path in paths {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::from_str(&rel, &text));
        }
        // Sorted by the path string, as `from_files` does: a component-wise
        // `PathBuf` sort puts `gate/tests.rs` before `gate.rs`.
        Ok(Workspace::from_files(files))
    }

    /// Finds the workspace root: walks up from `start` to the first
    /// directory holding both a `Cargo.toml` and a `crates/` directory.
    pub fn discover_root(start: &Path) -> Option<PathBuf> {
        let mut dir = Some(start.to_path_buf());
        while let Some(d) = dir {
            if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
                return Some(d);
            }
            dir = d.parent().map(Path::to_path_buf);
        }
        None
    }
}

/// The file of module `name` declared out of line in `parent`:
/// `<dir>/name.rs` beside a `lib.rs`/`main.rs`/`mod.rs`, and
/// `<dir>/<stem>/name.rs` beside any other `<stem>.rs`.
fn module_file(parent: &str, name: &str) -> String {
    let (dir, file) = parent.rsplit_once('/').unwrap_or(("", parent));
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    if matches!(stem, "lib" | "main" | "mod") {
        format!("{dir}/{name}.rs")
    } else {
        format!("{dir}/{stem}/{name}.rs")
    }
}

/// Recursively collects `.rs` files under `dir` (which may not exist).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_this_workspace_without_vendor() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/analyze has a workspace root two levels up");
        let ws = Workspace::load(root).expect("workspace loads");
        assert!(
            ws.files
                .iter()
                .any(|f| f.path == "crates/analyze/src/workspace.rs"),
            "finds its own sources"
        );
        assert!(
            ws.files.iter().all(|f| !f.path.starts_with("vendor/")),
            "vendor/ is excluded"
        );
        // Deterministic order: sorted by path.
        let paths: Vec<&str> = ws.files.iter().map(|f| f.path.as_str()).collect();
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted);
    }
}
