//! CLI driver.
//!
//! ```text
//! mcn-analyze check [--root PATH]
//! mcn-analyze list-rules
//! ```
//!
//! Exit codes: `0` clean, `1` any finding (or an I/O error), `2` usage
//! error.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use mcn_analyze::rules::RULE_DOCS;
use mcn_analyze::workspace::Workspace;

fn usage() -> ExitCode {
    eprintln!(
        "usage: mcn-analyze check [--root PATH]\n\
         \x20      mcn-analyze list-rules\n\
         \n\
         `check` runs the workspace invariant lints. Any finding fails; a\n\
         reasoned allow at its site is the only way to accept one.\n\
         \n\
         `list-rules` prints every rule with its summary and whether a\n\
         `// mcn-lint: allow(rule, reason = \"...\")` comment can suppress it."
    );
    ExitCode::from(2)
}

fn list_rules() -> ExitCode {
    let width = RULE_DOCS.iter().map(|d| d.name.len()).max().unwrap_or(0);
    for doc in &RULE_DOCS {
        println!(
            "{:width$}  [{}]  {}",
            doc.name,
            if doc.suppressible {
                "suppressible"
            } else {
                "always-on  "
            },
            doc.summary,
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("check") => {}
        Some("list-rules") => {
            return if args.next().is_none() {
                list_rules()
            } else {
                usage()
            }
        }
        _ => return usage(),
    }
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| Workspace::discover_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("mcn-analyze: no workspace root found (try --root)");
            return ExitCode::from(2);
        }
    };

    let outcome = match mcn_analyze::check(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mcn-analyze: {e}");
            return ExitCode::from(1);
        }
    };

    for f in &outcome.findings {
        println!("{f}");
    }
    let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for f in &outcome.findings {
        *per_rule.entry(f.rule.as_str()).or_default() += 1;
    }
    let summary: Vec<String> = per_rule
        .iter()
        .map(|(rule, n)| format!("{rule}: {n}"))
        .collect();
    println!(
        "mcn-analyze: {} file(s), {} finding(s){}",
        outcome.files,
        outcome.findings.len(),
        if summary.is_empty() {
            String::new()
        } else {
            format!(" [{}]", summary.join(", "))
        }
    );
    if outcome.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
