//! Per-rule fixture tests: every rule gets one embedded snippet proving it
//! fires and one proving `// mcn-lint: allow(...)` suppresses it, plus the
//! acceptance scenario — deliberately reintroducing the PR 3
//! lock-across-physical-read pattern and watching rule 1 catch it.

use mcn_analyze::rules::{self, run_all};
use mcn_analyze::source::SourceFile;
use mcn_analyze::workspace::Workspace;
use mcn_analyze::Finding;

/// Runs every rule over a single in-memory file and keeps `rule`'s hits.
fn findings_for(rule: &str, path: &str, text: &str) -> Vec<Finding> {
    let ws = Workspace::from_files(vec![SourceFile::from_str(path, text)]);
    run_all(&ws)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

// ---------------------------------------------------------------- rule 1

/// The PR 3 incident, re-created: a buffer-pool shard guard bound via
/// `.lock()` held across `DiskManager::read_page`. Rule 1 must catch it.
#[test]
fn lock_across_io_catches_the_pr3_pattern() {
    let hits = findings_for(
        rules::RULE_LOCK_ACROSS_IO,
        "crates/scratch/src/lib.rs",
        concat!(
            "impl Pool {\n",
            "    fn with_page(&self, id: u32) -> Page {\n",
            "        let shard = self.shards[id as usize % N].lock();\n",
            "        let mut page = Page::default();\n",
            "        self.disk.read_page(id, &mut page);\n",
            "        page\n",
            "    }\n",
            "}\n",
        ),
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 5);
    assert!(hits[0].message.contains("`shard`"));
    assert!(hits[0].excerpt.contains("read_page"));
}

#[test]
fn lock_across_io_respects_drop_and_block_end() {
    let clean = findings_for(
        rules::RULE_LOCK_ACROSS_IO,
        "crates/scratch/src/lib.rs",
        concat!(
            "impl Pool {\n",
            "    fn ok_drop(&self, id: u32) {\n",
            "        let shard = self.shard.lock();\n",
            "        drop(shard);\n",
            "        self.disk.read_page(id, &mut Page::default());\n",
            "    }\n",
            "    fn ok_scope(&self, id: u32) {\n",
            "        {\n",
            "            let shard = self.shard.lock();\n",
            "            shard.touch();\n",
            "        }\n",
            "        self.disk.read_page(id, &mut Page::default());\n",
            "    }\n",
            "}\n",
        ),
    );
    assert!(clean.is_empty(), "{clean:?}");
}

/// Positional file calls need no cursor, but they are physical I/O all the
/// same: a guard live across one is a finding (`FileDisk`'s grow path holds
/// the one reasoned allow for it).
#[test]
fn lock_across_io_knows_the_positional_calls() {
    for call in ["read_at", "write_at", "read_exact_at", "write_all_at"] {
        let text = format!(
            "impl Disk {{\n    fn grow(&self, bytes: &[u8]) {{\n        let _grow = self.grow.lock();\n        self.file.{call}(bytes, 0);\n    }}\n}}\n"
        );
        let hits = findings_for(
            rules::RULE_LOCK_ACROSS_IO,
            "crates/scratch/src/lib.rs",
            &text,
        );
        assert_eq!(hits.len(), 1, "{call}: {hits:?}");
        assert_eq!(hits[0].line, 4);
    }
}

#[test]
fn lock_across_io_allow_suppresses() {
    let hits = findings_for(
        rules::RULE_LOCK_ACROSS_IO,
        "crates/scratch/src/lib.rs",
        concat!(
            "impl Disk {\n",
            "    fn read(&self, id: u32) {\n",
            "        let mut file = self.file.write();\n",
            "        // mcn-lint: allow(lock-across-io, reason = \"the file handle is the lock\")\n",
            "        file.read_exact(&mut self.buf);\n",
            "    }\n",
            "}\n",
        ),
    );
    assert!(hits.is_empty(), "{hits:?}");
}

// ---------------------------------------------------------------- rule 2

/// A helper that feeds `fingerprint()` iterating a HashMap unsorted.
#[test]
fn nondet_iteration_fires_on_sensitive_path() {
    let hits = findings_for(
        rules::RULE_NONDET_ITERATION,
        "crates/scratch/src/lib.rs",
        concat!(
            "use std::collections::HashMap;\n",
            "fn summarize(counts: &HashMap<u32, u64>) -> String {\n",
            "    let mut out = String::new();\n",
            "    for (k, v) in counts.iter() {\n",
            "        out.push_str(&format!(\"{k}={v}\"));\n",
            "    }\n",
            "    fingerprint(&out)\n",
            "}\n",
            "fn fingerprint(s: &str) -> String { s.to_string() }\n",
        ),
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 4);
    assert!(hits[0].message.contains("summarize"));
}

#[test]
fn nondet_iteration_skips_sorted_and_insensitive() {
    // Sorted in the same statement: fine.
    let sorted = findings_for(
        rules::RULE_NONDET_ITERATION,
        "crates/scratch/src/lib.rs",
        concat!(
            "use std::collections::{BTreeMap, HashMap};\n",
            "fn summarize(counts: &HashMap<u32, u64>) -> String {\n",
            "    let ordered: BTreeMap<_, _> = counts.iter().collect();\n",
            "    fingerprint(&format!(\"{ordered:?}\"))\n",
            "}\n",
            "fn fingerprint(s: &str) -> String { s.to_string() }\n",
        ),
    );
    assert!(sorted.is_empty(), "{sorted:?}");

    // Sorted later in the function: fine.
    let sorted_later = findings_for(
        rules::RULE_NONDET_ITERATION,
        "crates/scratch/src/lib.rs",
        concat!(
            "use std::collections::HashMap;\n",
            "fn summarize(counts: &HashMap<u32, u64>) -> String {\n",
            "    let mut pairs: Vec<_> = counts.iter().collect();\n",
            "    pairs.sort();\n",
            "    fingerprint(&format!(\"{pairs:?}\"))\n",
            "}\n",
            "fn fingerprint(s: &str) -> String { s.to_string() }\n",
        ),
    );
    assert!(sorted_later.is_empty(), "{sorted_later:?}");

    // Same iteration, but nothing downstream reaches a sink: fine.
    let insensitive = findings_for(
        rules::RULE_NONDET_ITERATION,
        "crates/scratch/src/lib.rs",
        concat!(
            "use std::collections::HashMap;\n",
            "fn tally(counts: &HashMap<u32, u64>) -> u64 {\n",
            "    let mut total = 0;\n",
            "    for v in counts.values() {\n",
            "        total += v;\n",
            "    }\n",
            "    total\n",
            "}\n",
        ),
    );
    assert!(insensitive.is_empty(), "{insensitive:?}");
}

#[test]
fn nondet_iteration_allow_suppresses() {
    let hits = findings_for(
        rules::RULE_NONDET_ITERATION,
        "crates/scratch/src/lib.rs",
        concat!(
            "use std::collections::HashMap;\n",
            "fn summarize(counts: &HashMap<u32, u64>) -> u64 {\n",
            "    // mcn-lint: allow(nondet-iteration, reason = \"sum is order-independent\")\n",
            "    let total: u64 = counts.values().sum();\n",
            "    fingerprint(total)\n",
            "}\n",
            "fn fingerprint(t: u64) -> u64 { t }\n",
        ),
    );
    assert!(hits.is_empty(), "{hits:?}");
}

/// A gate's measurement reached only through the generic gate runner's
/// `G::measure()` call is on the sensitive path: its unsorted hash
/// iteration could reorder a checked-in baseline.
#[test]
fn nondet_iteration_fires_behind_the_gate_runner() {
    let hits = findings_for(
        rules::RULE_NONDET_ITERATION,
        "crates/scratch/src/lib.rs",
        concat!(
            "use std::collections::HashMap;\n",
            "trait Gate { fn measure() -> Self; }\n",
            "struct Settled(Vec<u64>);\n",
            "impl Gate for Settled {\n",
            "    fn measure() -> Self { Settled(tally(&HashMap::new())) }\n",
            "}\n",
            "fn tally(counts: &HashMap<u32, u64>) -> Vec<u64> {\n",
            "    counts.values().copied().collect()\n",
            "}\n",
            "pub fn run_gate<G: Gate>() -> G { G::measure() }\n",
        ),
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 8);
    assert!(hits[0].message.contains("tally"));
}

// ------------------------------------------------------------- directives

#[test]
fn malformed_allow_is_a_finding_itself() {
    let ws = Workspace::from_files(vec![SourceFile::from_str(
        "crates/scratch/src/lib.rs",
        concat!(
            "impl Pool {\n",
            "    fn read(&self, id: u32) {\n",
            "        let shard = self.shard.lock();\n",
            "        // mcn-lint: allow(lock-across-io)\n",
            "        self.disk.read_page(id, &mut Page::default());\n",
            "    }\n",
            "}\n",
        ),
    )]);
    let findings = run_all(&ws);
    assert!(
        findings.iter().any(|f| f.rule == "allow-syntax"),
        "{findings:?}"
    );
    // And the malformed directive must NOT suppress the real finding.
    assert!(
        findings
            .iter()
            .any(|f| f.rule == rules::RULE_LOCK_ACROSS_IO),
        "{findings:?}"
    );
}

// ------------------------------------------------------------- test modules

/// A module declared out of line as `#[cfg(test)] pub(crate) mod probe;` is
/// test code throughout its own file, so its hash-order iteration into a
/// fingerprint is no finding; without the `cfg(test)` it is product code
/// and fires. The module file sits beside `lib.rs`, or under `gate/` for a
/// declaration in `gate.rs`.
#[test]
fn out_of_line_test_modules_are_test_code() {
    let probe = concat!(
        "use std::collections::HashMap;\n",
        "fn summarize(counts: &HashMap<u32, u64>) -> String {\n",
        "    let mut out = String::new();\n",
        "    for (k, v) in counts.iter() {\n",
        "        out.push_str(&format!(\"{k}={v}\"));\n",
        "    }\n",
        "    fingerprint(&out)\n",
        "}\n",
        "fn fingerprint(s: &str) -> String { s.to_string() }\n",
    );
    for (parent, child) in [
        ("crates/scratch/src/lib.rs", "crates/scratch/src/probe.rs"),
        (
            "crates/scratch/src/gate.rs",
            "crates/scratch/src/gate/probe.rs",
        ),
    ] {
        let hits = |decl: &str| {
            let ws = Workspace::from_files(vec![
                SourceFile::from_str(parent, decl),
                SourceFile::from_str(child, probe),
            ]);
            run_all(&ws)
                .into_iter()
                .filter(|f| f.rule == rules::RULE_NONDET_ITERATION)
                .collect::<Vec<_>>()
        };
        let as_test = hits("#[cfg(test)]\npub(crate) mod probe;\n");
        assert!(as_test.is_empty(), "{parent}: {as_test:?}");
        let as_product = hits("pub(crate) mod probe;\n");
        assert_eq!(as_product.len(), 1, "{parent}: {as_product:?}");
        assert_eq!(as_product[0].file, child);
    }
}

// ------------------------------------------------------------ hot-path-alloc

/// `search` in the `mcpp` crate is a seeded hot root: allocation inside
/// its loops is flagged, setup allocation before the loop is not.
#[test]
fn hot_path_alloc_flags_root_loop_bodies_only() {
    let hits = findings_for(
        rules::RULE_HOT_PATH_ALLOC,
        "crates/mcpp/src/scratch.rs",
        concat!(
            "pub fn search(n: u32) -> u32 {\n",
            "    let mut acc = Vec::with_capacity(n as usize);\n",
            "    for i in 0..n {\n",
            "        let step = vec![i];\n",
            "        acc.push(step[0]);\n",
            "    }\n",
            "    acc.len() as u32\n",
            "}\n",
        ),
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].line, 4, "only the in-loop `vec!` fires: {hits:?}");
}

/// A callee invoked from a hot root's loop is hot *everywhere*: its
/// allocations are flagged even outside any loop of its own.
#[test]
fn hot_path_alloc_propagates_to_loop_callees() {
    let hits = findings_for(
        rules::RULE_HOT_PATH_ALLOC,
        "crates/mcpp/src/scratch.rs",
        concat!(
            "pub fn search(n: u32) -> u32 {\n",
            "    let mut total = 0;\n",
            "    for i in 0..n {\n",
            "        total += step(i);\n",
            "    }\n",
            "    total\n",
            "}\n",
            "fn step(i: u32) -> u32 {\n",
            "    let owned = i.to_string();\n",
            "    owned.len() as u32\n",
            "}\n",
        ),
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].message.contains("to_string"), "{hits:?}");
    assert!(
        hits[0].message.contains("reachable from a hot inner loop"),
        "{hits:?}"
    );
}

/// A reasoned allow on the allocation site suppresses the finding.
#[test]
fn hot_path_alloc_allow_suppresses() {
    let hits = findings_for(
        rules::RULE_HOT_PATH_ALLOC,
        "crates/mcpp/src/scratch.rs",
        concat!(
            "pub fn search(n: u32) -> u32 {\n",
            "    let mut total = 0;\n",
            "    for i in 0..n {\n",
            "        // mcn-lint: allow(hot-path-alloc, reason = \"bounded scratch list, one per step by design\")\n",
            "        let step = vec![i];\n",
            "        total += step[0];\n",
            "    }\n",
            "    total\n",
            "}\n",
        ),
    );
    assert!(hits.is_empty(), "{hits:?}");
}

/// Functions not reachable from any hot root allocate freely.
#[test]
fn hot_path_alloc_ignores_cold_functions() {
    let hits = findings_for(
        rules::RULE_HOT_PATH_ALLOC,
        "crates/mcpp/src/scratch.rs",
        concat!(
            "pub fn build_report(n: u32) -> String {\n",
            "    let mut out = String::new();\n",
            "    for i in 0..n {\n",
            "        out += &format!(\"{i}\");\n",
            "    }\n",
            "    out\n",
            "}\n",
        ),
    );
    assert!(hits.is_empty(), "{hits:?}");
}

/// A trait call in a hot loop fans out to every implementor, test doubles
/// included — but product code cannot reach a `mod tests`, so what a
/// double calls is not hot. Here the double is the only caller of a
/// product helper that allocates.
#[test]
fn hot_path_alloc_ignores_test_only_callees() {
    let fixture = |double_is_test: bool| {
        let (open, close) = if double_is_test {
            ("#[cfg(test)]\nmod tests {\n    use super::*;\n", "}\n")
        } else {
            ("", "")
        };
        findings_for(
            rules::RULE_HOT_PATH_ALLOC,
            "crates/mcpp/src/scratch.rs",
            &[
                "pub trait Step { fn step(&self, i: u32) -> u32; }\n",
                "pub fn search<S: Step>(s: &S, n: u32) -> u32 {\n",
                "    let mut total = 0;\n",
                "    for i in 0..n {\n",
                "        total += s.step(i);\n",
                "    }\n",
                "    total\n",
                "}\n",
                "fn digits(i: u32) -> u32 { i.to_string().len() as u32 }\n",
                open,
                "pub struct Double;\n",
                "impl Step for Double {\n",
                "    fn step(&self, i: u32) -> u32 { digits(i) }\n",
                "}\n",
                close,
            ]
            .concat(),
        )
    };
    assert_eq!(fixture(false).len(), 1, "{:?}", fixture(false));
    let as_test = fixture(true);
    assert!(as_test.is_empty(), "{as_test:?}");
}
