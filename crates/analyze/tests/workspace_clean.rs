//! The self-check the CI job relies on: the real workspace must analyze
//! with no finding.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root")
}

#[test]
fn workspace_has_no_findings() {
    let outcome = mcn_analyze::check(workspace_root()).expect("check runs");
    assert!(outcome.files > 20, "workspace walk looks truncated");
    let findings: Vec<String> = outcome.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        outcome.findings.is_empty(),
        "findings (fix them or add a reasoned allow at the site):\n{}",
        findings.join("\n")
    );
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
