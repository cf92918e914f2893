//! The explicit, resolved call graph: every call site in every function
//! body, mapped through [`crate::resolver::Resolver`] to candidate callees.
//!
//! Closure queries (forward reachability for the hot-path lint, reverse
//! reachability for determinism sinks) run over candidate edges: a call
//! with several candidates (trait fan-out, name fallback) reaches all of
//! them — the analyses over-approximate rather than miss.
//!
//! Closure bodies are attributed to their *enclosing function* — a closure
//! passed to `with_page` textually belongs to the caller. Nested `fn` items
//! are carved out and get their own node.

use crate::resolver::Resolver;
use crate::workspace::Workspace;

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name as written at the site.
    pub name: String,
    /// Token index of the callee identifier (in the owning file).
    pub tok: usize,
    /// Resolved candidate callees (indices into `resolver.fns`); empty for
    /// external/std calls.
    pub candidates: Vec<usize>,
}

/// The workspace call graph: per-function call sites.
pub struct CallGraph {
    /// `sites[f]` lists the call sites of `resolver.fns[f]`, in token order.
    pub sites: Vec<Vec<CallSite>>,
}

/// Keywords that look like call heads (`if (…)`, `while (…)`) but aren't.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "fn", "loop", "in", "move", "let",
];

impl CallGraph {
    /// Scans every function body and resolves its call sites.
    pub fn build(ws: &Workspace, r: &Resolver) -> CallGraph {
        let mut sites = Vec::with_capacity(r.fns.len());
        for (fn_id, f) in r.fns.iter().enumerate() {
            let file = &ws.files[f.file];
            let span = &file.fns[f.span];
            let toks = &file.tokens;
            let mut out = Vec::new();
            for k in span.body_start..span.end.min(toks.len()) {
                // Skip tokens owned by a nested `fn` item.
                if file.enclosing_fn(k).map(|g| g.start) != Some(span.start) {
                    continue;
                }
                let Some(name) = toks[k].ident() else {
                    continue;
                };
                if NON_CALL_KEYWORDS.contains(&name) {
                    continue;
                }
                // A nested `fn name(…)` header: the name token sits before
                // the nested body, so it still belongs to the enclosing fn
                // — but it's a declaration, not a call.
                if k > 0 && toks[k - 1].is_ident("fn") {
                    continue;
                }
                // A call head is `name (` or `name ::< … > (`.
                let is_call = match toks.get(k + 1) {
                    Some(t) if t.is_op("(") => true,
                    Some(t) if t.is_op("::<") => {
                        let mut angle = 0i32;
                        let mut m = k + 1;
                        loop {
                            match toks.get(m) {
                                Some(t) if t.is_op("<") || t.is_op("::<") => angle += 1,
                                Some(t) if t.is_op(">") => {
                                    angle -= 1;
                                    if angle == 0 {
                                        break;
                                    }
                                }
                                Some(_) => {}
                                None => break,
                            }
                            m += 1;
                        }
                        toks.get(m + 1).is_some_and(|t| t.is_op("("))
                    }
                    _ => false,
                };
                if !is_call {
                    continue;
                }
                let candidates = r.resolve_call(ws, fn_id, k, 0);
                out.push(CallSite {
                    name: name.to_string(),
                    tok: k,
                    candidates,
                });
            }
            sites.push(out);
        }
        CallGraph { sites }
    }

    /// Forward closure: every function reachable from `roots` through
    /// candidate edges (roots included).
    pub fn reachable_from(&self, roots: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.sites.len()];
        let mut stack: Vec<usize> = roots.to_vec();
        for &r in roots {
            seen[r] = true;
        }
        while let Some(f) = stack.pop() {
            for site in &self.sites[f] {
                for &c in &site.candidates {
                    if !seen[c] {
                        seen[c] = true;
                        stack.push(c);
                    }
                }
            }
        }
        seen
    }

    /// Reverse closure: every function that can reach one of `sinks`
    /// through candidate edges (sinks included).
    pub fn reaches(&self, sinks: &[usize]) -> Vec<bool> {
        let mut sensitive = vec![false; self.sites.len()];
        for &s in sinks {
            sensitive[s] = true;
        }
        loop {
            let mut grew = false;
            for f in 0..self.sites.len() {
                if sensitive[f] {
                    continue;
                }
                let hits = self.sites[f]
                    .iter()
                    .any(|site| site.candidates.iter().any(|&c| sensitive[c]));
                if hits {
                    sensitive[f] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        sensitive
    }
}

/// The resolved workspace model rules run against: resolver plus call graph.
pub struct Model<'ws> {
    /// The analyzed workspace.
    pub ws: &'ws Workspace,
    /// Symbol tables and receiver typing.
    pub resolver: Resolver,
    /// Resolved call sites per function.
    pub graph: CallGraph,
}

impl<'ws> Model<'ws> {
    /// Builds resolver and call graph for `ws`.
    pub fn build(ws: &'ws Workspace) -> Model<'ws> {
        let resolver = Resolver::build(ws);
        let graph = CallGraph::build(ws, &resolver);
        Model {
            ws,
            resolver,
            graph,
        }
    }

    /// True when token `k` of `fns[fn_id]`'s file belongs to that function
    /// directly (not to a nested `fn` item).
    pub fn owns_token(&self, fn_id: usize, k: usize) -> bool {
        let f = &self.resolver.fns[fn_id];
        let file = &self.ws.files[f.file];
        let span = &file.fns[f.span];
        span.contains(k) && file.enclosing_fn(k).map(|g| g.start) == Some(span.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn model_of(text: &str) -> (Workspace, Resolver, CallGraph) {
        let ws = Workspace::from_files(vec![SourceFile::from_str("crates/x/src/lib.rs", text)]);
        let r = Resolver::build(&ws);
        let g = CallGraph::build(&ws, &r);
        (ws, r, g)
    }

    #[test]
    fn free_fn_chain_resolves_and_closes() {
        let (_, r, g) = model_of(concat!(
            "fn a() { b(); }\n",
            "fn b() { c(); }\n",
            "fn c() {}\n",
            "fn lonely() {}\n",
        ));
        let idx = |n: &str| r.fns.iter().position(|f| f.name == n).unwrap();
        let reach = g.reachable_from(&[idx("a")]);
        assert!(reach[idx("b")] && reach[idx("c")]);
        assert!(!reach[idx("lonely")]);
        let rev = g.reaches(&[idx("c")]);
        assert!(rev[idx("a")] && rev[idx("b")]);
        assert!(!rev[idx("lonely")]);
    }

    #[test]
    fn turbofish_call_heads_are_sites() {
        let (_, r, g) = model_of(concat!(
            "fn helper() -> u32 { 1 }\n",
            "fn a() { helper::<u32>(); }\n",
        ));
        let a = r.fns.iter().position(|f| f.name == "a").unwrap();
        assert!(g.sites[a].iter().any(|s| s.name == "helper"));
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let (_, r, g) = model_of(concat!(
            "fn target() {}\n",
            "fn outer() {\n",
            "    fn inner() { target(); }\n",
            "    inner();\n",
            "}\n",
        ));
        let idx = |n: &str| r.fns.iter().position(|f| f.name == n).unwrap();
        let outer_calls: Vec<&str> = g.sites[idx("outer")]
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(outer_calls, vec!["inner"]);
        let inner_calls: Vec<&str> = g.sites[idx("inner")]
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(inner_calls, vec!["target"]);
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let (_, r, g) = model_of("fn a() { println!(\"x\"); format!(\"y\"); }\n");
        let a = r.fns.iter().position(|f| f.name == "a").unwrap();
        assert!(g.sites[a].is_empty());
    }
}
