//! The self-check the CI job relies on: the real workspace must analyze
//! with no finding and with exactly the lock-order edges checked in, and
//! `--update` must accept new lock edges but never a finding.

use std::fs;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root")
}

#[test]
fn workspace_has_no_findings_and_no_lock_edge_drift() {
    let root = workspace_root();
    let lock_order = root.join("crates/analyze/lock-order.json");
    let outcome = mcn_analyze::check(root, &lock_order, false).expect("check runs");
    assert!(outcome.files > 20, "workspace walk looks truncated");
    let findings: Vec<String> = outcome.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        outcome.findings.is_empty(),
        "findings (fix them or add a reasoned allow at the site):\n{}",
        findings.join("\n")
    );
    let lock_new: Vec<String> = outcome
        .lock_new
        .iter()
        .map(|e| format!("{} -> {} ({}:{})", e.from, e.to, e.file, e.line))
        .collect();
    assert!(
        outcome.lock_new.is_empty(),
        "acquisition edges not in lock-order.json:\n{}",
        lock_new.join("\n")
    );
    let lock_stale: Vec<String> = outcome
        .lock_stale
        .iter()
        .map(|e| format!("{} -> {}", e.from, e.to))
        .collect();
    assert!(
        outcome.lock_stale.is_empty(),
        "lock-order.json edges that no longer occur:\n{}",
        lock_stale.join("\n")
    );
}

/// `check --update` rewrites `lock-order.json` and nothing else: a finding
/// fails before the update and still fails after it.
#[test]
fn update_rewrites_lock_order_but_never_accepts_a_finding() {
    let root = std::env::temp_dir().join(format!("mcn-analyze-update-{}", std::process::id()));
    let src = root.join("crates/scratch/src");
    fs::create_dir_all(&src).expect("temp workspace");
    fs::write(
        src.join("lib.rs"),
        concat!(
            "impl Pool {\n",
            "    fn with_page(&self, id: u32) {\n",
            "        let shard = self.shard.lock();\n",
            "        self.disk.read_page(id, &mut Page::default());\n",
            "    }\n",
            "}\n",
        ),
    )
    .expect("fixture written");
    let lock_order = root.join("lock-order.json");

    let before = mcn_analyze::check(&root, &lock_order, false).expect("check runs");
    assert!(
        !before.is_clean(),
        "the lock-across-io site must fail check"
    );
    mcn_analyze::check(&root, &lock_order, true).expect("update runs");
    assert!(lock_order.is_file(), "--update writes lock-order.json");
    let after = mcn_analyze::check(&root, &lock_order, false).expect("check runs");
    let rules: Vec<&str> = after.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, ["lock-across-io"]);
    assert!(!after.is_clean(), "--update must not accept a finding");

    fs::remove_dir_all(&root).expect("temp workspace removed");
}

/// `nondet-iteration` seeds on the sink names: one that nothing defines
/// or calls anymore silently stops guarding what it used to name.
#[test]
fn every_determinism_sink_is_defined_or_called() {
    use mcn_analyze::callgraph::Model;
    use mcn_analyze::rules::DETERMINISM_SINKS;
    use mcn_analyze::workspace::Workspace;
    let ws = Workspace::load(workspace_root()).expect("workspace loads");
    let model = Model::build(&ws);
    let stale: Vec<&str> = DETERMINISM_SINKS
        .into_iter()
        .filter(|&sink| {
            !model.resolver.fns.iter().any(|f| f.name == sink)
                && !model.graph.sites.iter().flatten().any(|s| s.name == sink)
        })
        .collect();
    assert!(
        stale.is_empty(),
        "sink names nothing defines or calls: {stale:?}"
    );
}

#[test]
fn every_allow_in_the_tree_names_a_real_rule() {
    use mcn_analyze::rules::ALL_RULES;
    use mcn_analyze::workspace::Workspace;
    let ws = Workspace::load(workspace_root()).expect("workspace loads");
    for file in &ws.files {
        for allow in &file.allows {
            assert!(
                ALL_RULES.contains(&allow.rule.as_str()),
                "{}:{}: allow() names unknown rule `{}`",
                file.path,
                allow.line,
                allow.rule
            );
        }
    }
}
