//! Static lock-order analysis: the deadlock-precondition gate.
//!
//! Every `Mutex`/`RwLock` site gets a stable **lock class** id:
//!
//! * struct fields — `crate::Type.field` (`storage::BufferPool.shards`);
//!   a `Vec<Mutex<_>>` field is one class, as every element shares the
//!   acquisition discipline;
//! * lock-typed locals — `crate::fn.var` (`engine::run.slots`).
//!
//! The analysis finds every guard acquisition (`.lock()`, `.read()`,
//! `.write()`, `try_*` — always the no-arg guard form), computes its live
//! range (let-bound guards live to their block's end or an explicit
//! `drop(guard)`; temporary guards to the end of their statement), and
//! records an **acquisition edge** `A → B` whenever class B is acquired —
//! directly, or anywhere inside a callee resolved through the call graph —
//! while a guard of class A is live. Runtime registration strings in
//! `mcn-witness` use the same ids, so observed edges cross-check the static
//! graph verbatim.
//!
//! A cycle in the edge graph is the deadlock precondition; every edge on a
//! cycle becomes a `lock-order` finding at its acquisition site. An edge
//! can be exempted with `// mcn-lint: allow(lock-order, reason = "…")` on
//! its site line — the developer's assertion that the two locks are never
//! contended together — which removes it from the graph. The surviving
//! edges diff against the checked-in `crates/analyze/lock-order.json`:
//! new and stale edges both fail.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::callgraph::Model;
use crate::lexer::Token;
use crate::resolver::is_lock_type;
use crate::rules::{GUARD_METHODS, RULE_LOCK_ORDER};
use crate::Finding;

/// One acquisition-order edge: class `to` acquired while `from` is held.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LockEdge {
    /// Held class.
    pub from: String,
    /// Acquired class.
    pub to: String,
    /// File of the acquiring site (or the call that reaches it).
    pub file: String,
    /// Line of that site.
    pub line: u32,
    /// For edges through the call graph, the callee carrying the
    /// acquisition.
    pub via: Option<String>,
}

/// The checked-in static edge list (`crates/analyze/lock-order.json`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LockOrderFile {
    /// Accepted edges, sorted by (from, to).
    pub edges: Vec<LockEdge>,
}

impl LockOrderFile {
    /// Serializes in the workspace's pretty-JSON baseline style.
    pub fn to_json(&self) -> String {
        serde::json::to_string_pretty(self)
    }

    /// Parses the checked-in file.
    pub fn from_json(text: &str) -> Result<LockOrderFile, String> {
        serde::json::from_str(text).map_err(|e| e.to_string())
    }

    /// Diffs current edges against this file on `(from, to)` pairs —
    /// file/line are informational, so line drift does not churn it.
    pub fn diff(&self, edges: &[LockEdge]) -> (Vec<LockEdge>, Vec<LockEdge>) {
        let accepted: BTreeSet<(&str, &str)> = self
            .edges
            .iter()
            .map(|e| (e.from.as_str(), e.to.as_str()))
            .collect();
        let current: BTreeSet<(&str, &str)> = edges
            .iter()
            .map(|e| (e.from.as_str(), e.to.as_str()))
            .collect();
        let new = edges
            .iter()
            .filter(|e| !accepted.contains(&(e.from.as_str(), e.to.as_str())))
            .cloned()
            .collect();
        let stale = self
            .edges
            .iter()
            .filter(|e| !current.contains(&(e.from.as_str(), e.to.as_str())))
            .cloned()
            .collect();
        (new, stale)
    }
}

/// The result of the lock-order pass.
pub struct LockAnalysis {
    /// Deduplicated acquisition edges (allow-exempted edges removed),
    /// sorted by (from, to).
    pub edges: Vec<LockEdge>,
    /// `lock-order` findings: one per edge participating in a cycle.
    pub findings: Vec<Finding>,
}

/// One live guard acquisition inside a function.
struct Event {
    class: String,
    /// Token index of the guard-method identifier.
    tok: usize,
    line: u32,
    /// Live token range `[start, end)`.
    range: (usize, usize),
}

/// Runs the lock-order analysis over the resolved model.
pub fn run(model: &Model<'_>) -> LockAnalysis {
    let local_classes = local_classes(model);

    // Acquisition events per function (non-test code only: product lock
    // discipline is what's gated; tests build ad-hoc locks freely).
    let mut events: Vec<Vec<Event>> = Vec::with_capacity(model.resolver.fns.len());
    for fn_id in 0..model.resolver.fns.len() {
        if model.resolver.fns[fn_id].is_test {
            events.push(Vec::new());
            continue;
        }
        events.push(collect_events(model, fn_id, &local_classes));
    }

    // Product code never calls test code, so a test-only candidate of a
    // product call site (a trait fan-out reaching a `DiskManager` or
    // `StoreView` double in some `mod tests`) is no callee at all.
    let callable = |caller: usize, candidate: usize| {
        model.resolver.fns[caller].is_test || !model.resolver.fns[candidate].is_test
    };

    // Lock closure per function: every class acquired inside it or any
    // resolved callee. Fixpoint over candidate edges.
    let mut closure: Vec<BTreeSet<String>> = events
        .iter()
        .map(|evs| evs.iter().map(|e| e.class.clone()).collect())
        .collect();
    loop {
        let mut grew = false;
        for fn_id in 0..model.resolver.fns.len() {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for site in &model.graph.sites[fn_id] {
                for &c in &site.candidates {
                    if !callable(fn_id, c) {
                        continue;
                    }
                    for id in &closure[c] {
                        if !closure[fn_id].contains(id) {
                            add.insert(id.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                closure[fn_id].extend(add);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    // Edges: for each live guard, every direct nested acquisition plus
    // every class reachable through a call inside the live range.
    let mut raw_edges: Vec<LockEdge> = Vec::new();
    for fn_id in 0..model.resolver.fns.len() {
        let f = &model.resolver.fns[fn_id];
        let file = &model.ws.files[f.file];
        for a in &events[fn_id] {
            for b in &events[fn_id] {
                if b.tok > a.range.0 && b.tok < a.range.1 {
                    raw_edges.push(LockEdge {
                        from: a.class.clone(),
                        to: b.class.clone(),
                        file: file.path.clone(),
                        line: b.line,
                        via: None,
                    });
                }
            }
            for site in &model.graph.sites[fn_id] {
                if site.tok <= a.range.0 || site.tok >= a.range.1 {
                    continue;
                }
                for &c in &site.candidates {
                    if !callable(fn_id, c) {
                        continue;
                    }
                    for id in &closure[c] {
                        raw_edges.push(LockEdge {
                            from: a.class.clone(),
                            to: id.clone(),
                            file: file.path.clone(),
                            line: site.line,
                            via: Some(model.resolver.fns[c].qualified()),
                        });
                    }
                }
            }
        }
    }

    // Allow-exempted edges leave the graph entirely.
    raw_edges.retain(|e| {
        let allowed = model
            .ws
            .files
            .iter()
            .find(|s| s.path == e.file)
            .is_some_and(|s| s.allowed(RULE_LOCK_ORDER, e.line));
        !allowed
    });

    // Dedup by (from, to), keeping the first site in (file, line) order.
    raw_edges
        .sort_by(|a, b| (&a.from, &a.to, &a.file, a.line).cmp(&(&b.from, &b.to, &b.file, b.line)));
    raw_edges.dedup_by(|a, b| a.from == b.from && a.to == b.to);
    let edges = raw_edges;

    // Cycle detection: an edge whose target can reach its source closes a
    // cycle — the deadlock precondition.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let mut findings = Vec::new();
    for e in &edges {
        if reaches(&adj, &e.to, &e.from) {
            let via = e
                .via
                .as_ref()
                .map(|v| format!(" (via `{v}`)"))
                .unwrap_or_default();
            findings.push(Finding {
                file: e.file.clone(),
                rule: RULE_LOCK_ORDER.to_string(),
                line: e.line,
                excerpt: model
                    .ws
                    .files
                    .iter()
                    .find(|s| s.path == e.file)
                    .map(|s| s.excerpt(e.line))
                    .unwrap_or_default(),
                message: format!(
                    "acquisition edge `{}` → `{}`{via} closes a lock-order \
                     cycle (a deadlock precondition); acquire locks in one \
                     global order or drop the held guard first",
                    e.from, e.to
                ),
            });
        }
    }

    LockAnalysis { edges, findings }
}

/// BFS: can `from` reach `to` in the edge relation?
fn reaches(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// Lock classes of lock-typed locals (`crate::fn.var`), non-test code
/// only, keyed by (fn, var). Field classes need no table: they are derived
/// from the receiver's resolved type at each acquisition.
fn local_classes(model: &Model<'_>) -> BTreeMap<(usize, String), String> {
    let mut classes = BTreeMap::new();
    for (fn_id, f) in model.resolver.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let file = &model.ws.files[f.file];
        let span = &file.fns[f.span];
        let toks = &file.tokens;
        let mut k = span.body_start;
        while k < span.end.min(toks.len()) {
            if !toks[k].is_ident("let") || !model.owns_token(fn_id, k) {
                k += 1;
                continue;
            }
            let mut j = k + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j).and_then(|t| t.ident()).map(str::to_string) else {
                k += 1;
                continue;
            };
            if is_lock_binding(toks, j + 1, span.end) {
                let id = format!("{}::{}.{}", f.crate_name, f.name, name);
                classes.insert((fn_id, name), id);
            }
            k = j + 1;
        }
    }
    classes
}

/// True when the `let` statement starting after the bound name declares or
/// constructs a lock (`: Vec<Mutex<_>>`, `= Mutex::new(…)`, …) — as opposed
/// to merely binding a guard or a lock-holding struct.
fn is_lock_binding(toks: &[Token], from: usize, limit: usize) -> bool {
    // Scan the rest of the statement (type annotation + initializer).
    let mut depth = 0i32;
    let mut k = from;
    let mut has_lock_ctor = false;
    let mut has_lock_ty = false;
    let mut in_ty = false;
    while k < limit.min(toks.len()) {
        let t = &toks[k];
        if t.is_op("(") || t.is_op("[") {
            depth += 1;
        } else if t.is_op(")") || t.is_op("]") {
            depth -= 1;
        } else if depth <= 0 && t.is_op(";") {
            break;
        } else if t.is_op(":") && depth <= 0 {
            in_ty = true;
        } else if t.is_op("=") && depth <= 0 {
            in_ty = false;
        } else if (t.is_ident("Mutex") || t.is_ident("RwLock")) && in_ty {
            has_lock_ty = true;
        } else if (t.is_ident("Mutex") || t.is_ident("RwLock"))
            && toks.get(k + 1).is_some_and(|n| n.is_op("::"))
            && toks
                .get(k + 2)
                .is_some_and(|n| n.is_ident("new") || n.is_ident("const_new"))
        {
            has_lock_ctor = true;
        }
        k += 1;
    }
    has_lock_ty || has_lock_ctor
}

/// Finds every guard acquisition in `fn_id` and computes its live range.
fn collect_events(
    model: &Model<'_>,
    fn_id: usize,
    local_classes: &BTreeMap<(usize, String), String>,
) -> Vec<Event> {
    let f = &model.resolver.fns[fn_id];
    let file = &model.ws.files[f.file];
    let span = &file.fns[f.span];
    let toks = &file.tokens;
    let mut out = Vec::new();
    for k in span.body_start..span.end.min(toks.len()) {
        if !model.owns_token(fn_id, k) {
            continue;
        }
        // The guard form: `. m ( )` with no arguments.
        let is_guard_call = toks[k].ident().is_some_and(|m| GUARD_METHODS.contains(&m))
            && k > 0
            && toks[k - 1].is_op(".")
            && toks.get(k + 1).is_some_and(|t| t.is_op("("))
            && toks.get(k + 2).is_some_and(|t| t.is_op(")"));
        if !is_guard_call {
            continue;
        }
        let Some(class) = classify_receiver(model, fn_id, k - 2, local_classes) else {
            continue;
        };
        let close = k + 2;
        let range = live_range(toks, span, k, close);
        out.push(Event {
            class,
            tok: k,
            line: toks[k].line,
            range,
        });
    }
    out
}

/// Maps the receiver ending at token `end` to a lock class, handling
/// `self.field`, lock-typed locals, indexing (`slots[i]`), field chains and
/// lock-returning workspace calls (`set.shard_of(id).lock()`).
fn classify_receiver(
    model: &Model<'_>,
    fn_id: usize,
    end: usize,
    local_classes: &BTreeMap<(usize, String), String>,
) -> Option<String> {
    let f = &model.resolver.fns[fn_id];
    let toks = &model.ws.files[f.file].tokens;
    let t = toks.get(end)?;

    if t.is_op("]") {
        // Indexing into a lock collection: classify the base.
        let open = matching_open_bracket(toks, end)?;
        return classify_receiver(model, fn_id, open.checked_sub(1)?, local_classes);
    }
    if t.is_op(")") {
        // A call returning a lock reference: find which field the callee
        // hands out.
        let open = matching_open_paren(toks, end)?;
        let callee = open.checked_sub(1)?;
        toks.get(callee)?.ident()?;
        let candidates = model.resolver.resolve_call(model.ws, fn_id, callee, 0);
        for c in candidates {
            if let Some(id) = returned_lock_class(model, c) {
                return Some(id);
            }
        }
        return None;
    }
    let name = t.ident()?;
    match toks.get(end.wrapping_sub(1)) {
        Some(prev) if end > 0 && prev.is_op(".") => {
            // Field access: `self.field` or a chained `base.field`.
            let base_ty = if toks.get(end - 2).is_some_and(|t| t.is_ident("self")) {
                f.self_type.clone().map(|t| vec![t])
            } else {
                model.resolver.postfix_type(model.ws, fn_id, end - 2)
            }?;
            let base_name = model.resolver.primary_type(fn_id, &base_ty)?;
            let s = model.resolver.struct_def(&base_name, &f.crate_name)?;
            let fd = s.fields.iter().find(|fd| fd.name == name)?;
            is_lock_type(&fd.ty).then(|| format!("{}::{}.{}", s.crate_name, s.name, name))
        }
        _ => local_classes.get(&(fn_id, name.to_string())).cloned(),
    }
}

/// For a workspace function returning `&Mutex<_>`/`&RwLock<_>`, the class
/// of the lock field its body hands out.
fn returned_lock_class(model: &Model<'_>, fn_id: usize) -> Option<String> {
    let f = &model.resolver.fns[fn_id];
    if !is_lock_type(&f.ret) {
        return None;
    }
    let self_type = f.self_type.as_deref()?;
    let s = model.resolver.struct_def(self_type, &f.crate_name)?;
    let file = &model.ws.files[f.file];
    let span = &file.fns[f.span];
    let toks = &file.tokens;
    for k in span.body_start..span.end.min(toks.len()) {
        if toks[k].is_ident("self") && toks.get(k + 1).is_some_and(|t| t.is_op(".")) {
            if let Some(field) = toks.get(k + 2).and_then(|t| t.ident()) {
                if let Some(fd) = s.fields.iter().find(|fd| fd.name == field) {
                    if is_lock_type(&fd.ty) {
                        return Some(format!("{}::{}.{}", s.crate_name, s.name, field));
                    }
                }
            }
        }
    }
    None
}

/// The live token range of the guard acquired by the call at `site` (guard
/// method ident) closing at `close`. Let-bound guards (`let g = ….lock();`)
/// live to their block's `}` or an explicit `drop(g)`; temporaries live to
/// the end of their statement.
fn live_range(
    toks: &[Token],
    span: &crate::source::FnSpan,
    site: usize,
    close: usize,
) -> (usize, usize) {
    // Statement start: the token after the previous `;`, `{` or `}`.
    let mut start = site;
    while start > span.body_start
        && !(toks[start - 1].is_op(";") || toks[start - 1].is_op("{") || toks[start - 1].is_op("}"))
    {
        start -= 1;
    }
    let limit = span.end.min(toks.len());
    let let_bound =
        toks[start].is_ident("let") && toks.get(close + 1).is_some_and(|t| t.is_op(";"));
    if let_bound {
        let mut n = start + 1;
        if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        let name = toks.get(n).and_then(|t| t.ident()).unwrap_or_default();
        let mut depth = 0i32;
        let mut m = close + 2;
        while m < limit {
            let t = &toks[m];
            if t.is_op("{") {
                depth += 1;
            } else if t.is_op("}") {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if t.is_ident("drop")
                && toks.get(m + 1).is_some_and(|t| t.is_op("("))
                && toks.get(m + 2).is_some_and(|t| t.is_ident(name))
                && toks.get(m + 3).is_some_and(|t| t.is_op(")"))
            {
                break;
            }
            m += 1;
        }
        (close, m)
    } else {
        // Temporary: live to the statement's `;` (or enclosing `}`).
        let mut depth = 0i32;
        let mut m = close + 1;
        while m < limit {
            let t = &toks[m];
            if t.is_op("(") || t.is_op("[") {
                depth += 1;
            } else if t.is_op(")") || t.is_op("]") {
                depth -= 1;
            } else if depth <= 0 && t.is_op(";") {
                break;
            } else if t.is_op("}") && depth <= 0 {
                break;
            }
            m += 1;
        }
        (close, m)
    }
}

/// The `[` matching the `]` at `close`.
fn matching_open_bracket(toks: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = close;
    loop {
        let t = toks.get(k)?;
        if t.is_op("]") {
            depth += 1;
        } else if t.is_op("[") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// The `(` matching the `)` at `close`.
fn matching_open_paren(toks: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = close;
    loop {
        let t = toks.get(k)?;
        if t.is_op(")") {
            depth += 1;
        } else if t.is_op("(") {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k = k.checked_sub(1)?;
    }
}
