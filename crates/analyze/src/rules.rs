//! The rule engine: three repo-specific lints over the token streams of
//! [`crate::workspace::Workspace`] files.
//!
//! `lock-across-io` works purely on tokens plus the light structure
//! derived in [`crate::source`]. The reachability-based rules
//! (`nondet-iteration`, `hot-path-alloc`) run over the
//! *resolved* call graph of [`crate::callgraph::Model`]: method calls bind
//! to their receiver's declared type, trait-bound receivers fan out to
//! every implementor, and the closures over-approximate rather than miss.
//! False positives are silenced with a reasoned
//! `// mcn-lint: allow(rule, reason = "...")`.

use std::collections::BTreeSet;

use crate::callgraph::Model;
use crate::lexer::Token;
use crate::resolver::CONTAINER_TYPES;
use crate::source::SourceFile;
use crate::workspace::Workspace;
use crate::Finding;

/// Rule names, as used in findings and allow directives.
pub const RULE_LOCK_ACROSS_IO: &str = "lock-across-io";
/// See [`RULE_LOCK_ACROSS_IO`].
pub const RULE_NONDET_ITERATION: &str = "nondet-iteration";
/// Allocation in functions reachable from the query inner loops.
pub const RULE_HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Malformed `mcn-lint:` comments; not suppressible.
pub const RULE_ALLOW_SYNTAX: &str = "allow-syntax";

/// All suppressible rules, for documentation and directive validation.
pub const ALL_RULES: [&str; 3] = [
    RULE_LOCK_ACROSS_IO,
    RULE_NONDET_ITERATION,
    RULE_HOT_PATH_ALLOC,
];

/// One rule's documentation, for the `list-rules` subcommand.
pub struct RuleDoc {
    /// Rule name as used in findings and allow directives.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Whether `mcn-lint: allow(...)` can suppress it.
    pub suppressible: bool,
}

/// Every rule, with its one-line description.
pub const RULE_DOCS: [RuleDoc; 4] = [
    RuleDoc {
        name: RULE_LOCK_ACROSS_IO,
        summary: "a lock guard stays live across a physical-read/DiskManager call",
        suppressible: true,
    },
    RuleDoc {
        name: RULE_NONDET_ITERATION,
        summary: "hash-order iteration in a function that reaches a determinism sink \
                  (resolved call graph)",
        suppressible: true,
    },
    RuleDoc {
        name: RULE_HOT_PATH_ALLOC,
        summary: "allocation (container construction, format!, to_vec, container clone) \
                  in a function reachable from the LSA/CEA/path-search/prep/index inner loops",
        suppressible: true,
    },
    RuleDoc {
        name: RULE_ALLOW_SYNTAX,
        summary: "malformed mcn-lint directive (never suppressible)",
        suppressible: false,
    },
];

/// Guard-producing method names: `self.file.lock()` and friends.
pub const GUARD_METHODS: [&str; 6] = ["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Calls that hit the `DiskManager` / physical-read layer.
const IO_CALLS: [&str; 14] = [
    "read_page",
    "write_page",
    "allocate_page",
    "append_page",
    "with_page",
    "read_exact",
    "write_all",
    "read_at",
    "write_at",
    "read_exact_at",
    "write_all_at",
    "seek",
    "flush",
    "sync_all",
];

/// Functions whose output must be byte-identical run-to-run: fingerprints,
/// JSON reports and the checked-in gate baselines (`run_gate` measures all
/// four through the `Gate` trait). Each name must be defined or called in
/// the workspace: a name nothing matches seeds nothing.
pub const DETERMINISM_SINKS: [&str; 3] = ["fingerprint", "to_json", "run_gate"];

/// Runs every rule over the workspace: builds the resolved model once,
/// runs the lexical rules per file and the call-graph rules on top, and
/// returns the surviving findings, sorted by file, line and rule.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let model = Model::build(ws);
    let mut raw = Vec::new();
    let sensitive = sensitive_spans(&model);
    for (fi, file) in ws.files.iter().enumerate() {
        for bad in &file.bad_directives {
            raw.push(Finding {
                file: file.path.clone(),
                rule: RULE_ALLOW_SYNTAX.to_string(),
                line: bad.line,
                excerpt: file.excerpt(bad.line),
                message: bad.message.clone(),
            });
        }
        lock_across_io(file, &mut raw);
        nondet_iteration(file, fi, &sensitive, &mut raw);
    }
    hot_path_alloc(&model, &mut raw);

    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            f.rule == RULE_ALLOW_SYNTAX || {
                let file = ws.files.iter().find(|s| s.path == f.file);
                !file.is_some_and(|s| s.allowed(&f.rule, f.line))
            }
        })
        .collect();
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    findings
}

fn push(out: &mut Vec<Finding>, file: &SourceFile, rule: &str, line: u32, message: String) {
    out.push(Finding {
        file: file.path.clone(),
        rule: rule.to_string(),
        line,
        excerpt: file.excerpt(line),
        message,
    });
}

// ---------------------------------------------------------------- rule 1

/// **lock-across-io**: a guard bound by `.lock()`/`.read()`/`.write()`
/// stays live across a call into the `DiskManager`/physical-read layer.
/// This is exactly the PR 3 deadlock/latency hazard: physical I/O while a
/// shard or page lock is held serializes every other thread behind disk
/// latency. The guard's liveness ends at `drop(guard)` or the end of its
/// block. Applies to test code too — test deadlocks hang CI just as hard.
fn lock_across_io(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("let")
            || matches!(toks.get(i.wrapping_sub(1)), Some(t) if t.is_ident("if") || t.is_ident("while") || t.is_ident("else"))
        {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j).and_then(|t| t.ident()).map(str::to_string) else {
            i += 1;
            continue;
        };
        // Find the end of the statement; bail on block initializers
        // (match/closures) — guards are bound from plain call chains.
        let Some((eq, stmt_end)) = simple_let_bounds(toks, j + 1) else {
            i += 1;
            continue;
        };
        let binds_guard = (eq..stmt_end).any(|k| {
            toks[k].is_op(".")
                && toks
                    .get(k + 1)
                    .and_then(|t| t.ident())
                    .is_some_and(|id| GUARD_METHODS.contains(&id))
                && toks.get(k + 2).is_some_and(|t| t.is_op("("))
                && toks.get(k + 3).is_some_and(|t| t.is_op(")"))
        });
        if !binds_guard {
            i += 1;
            continue;
        }
        let bound_line = toks[i].line;
        // Walk the guard's live range looking for physical I/O calls.
        let mut depth = 0i32;
        let mut m = stmt_end + 1;
        while m < toks.len() {
            let t = &toks[m];
            if t.is_op("{") {
                depth += 1;
            } else if t.is_op("}") {
                depth -= 1;
                if depth < 0 {
                    break; // the guard's block closed
                }
            } else if t.is_ident("drop")
                && toks.get(m + 1).is_some_and(|t| t.is_op("("))
                && toks.get(m + 2).is_some_and(|t| t.is_ident(&name))
                && toks.get(m + 3).is_some_and(|t| t.is_op(")"))
            {
                break; // explicitly released
            } else if let Some(id) = t.ident() {
                if IO_CALLS.contains(&id) && toks.get(m + 1).is_some_and(|t| t.is_op("(")) {
                    push(
                        out,
                        file,
                        RULE_LOCK_ACROSS_IO,
                        t.line,
                        format!(
                            "`{id}()` called while lock guard `{name}` \
                             (bound on line {bound_line}) is still live; \
                             drop the guard before physical I/O"
                        ),
                    );
                }
            }
            m += 1;
        }
        i += 1;
    }
}

/// For a `let` statement, returns `(index after =, index of terminating ;)`
/// if the initializer is a plain expression (no depth-0 `{`).
fn simple_let_bounds(toks: &[Token], from: usize) -> Option<(usize, usize)> {
    let mut k = from;
    let mut depth = 0i32;
    let mut eq = None;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_op("(") || t.is_op("[") || t.is_op("<") || t.is_op("::<") {
            depth += 1;
        } else if t.is_op(")") || t.is_op("]") || t.is_op(">") {
            depth -= 1;
        } else if depth <= 0 && t.is_op("=") {
            eq = Some(k + 1);
        } else if depth <= 0 && t.is_op("{") {
            return None;
        } else if depth <= 0 && t.is_op(";") {
            return eq.map(|e| (e, k));
        }
        k += 1;
    }
    None
}

// ---------------------------------------------------------------- rule 2

/// Computes the set of "determinism-sensitive" functions over the
/// *resolved* call graph, keyed by `(file index, span start token)`:
/// everything that can reach a sink (fingerprints, JSON reports, gate
/// baselines) as a caller, plus everything a sink itself calls. A call
/// site whose *name* matches a sink still seeds sensitivity even when the
/// callee lives outside the workspace, so the boundary stays
/// conservative; propagation through the graph is resolved, so two
/// unrelated functions sharing a name no longer taint each other.
fn sensitive_spans(model: &Model<'_>) -> BTreeSet<(usize, usize)> {
    let r = &model.resolver;
    let g = &model.graph;
    // Seeds: workspace fns named like a sink, plus fns that call a
    // sink-named target directly (resolved or not).
    let mut seeds: Vec<usize> = Vec::new();
    for (i, f) in r.fns.iter().enumerate() {
        let named_sink = DETERMINISM_SINKS.contains(&f.name.as_str());
        let calls_sink = g.sites[i]
            .iter()
            .any(|s| DETERMINISM_SINKS.contains(&s.name.as_str()));
        if named_sink || calls_sink {
            seeds.push(i);
        }
    }
    let sink_named: Vec<usize> = r
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| DETERMINISM_SINKS.contains(&f.name.as_str()))
        .map(|(i, _)| i)
        .collect();
    // Reverse closure: callers that reach a seed. Forward closure: what
    // the sinks themselves execute.
    let sensitive = g.reaches(&seeds);
    let executed = g.reachable_from(&sink_named);
    let mut out = BTreeSet::new();
    for (i, f) in r.fns.iter().enumerate() {
        if sensitive[i] || executed[i] {
            let span = &model.ws.files[f.file].fns[f.span];
            out.insert((f.file, span.start));
        }
    }
    out
}

/// **nondet-iteration**: iterating a `HashMap`/`HashSet` inside a function
/// that transitively feeds a determinism sink (over the resolved call
/// graph). Hash iteration order is randomized per process, so any such
/// path can flip fingerprint bytes or baseline JSON between runs.
/// Iterations that sort in the same statement (or whose `let` result is
/// `.sort*`-ed later in the function) pass. Non-test code only: the
/// product invariant is what's guarded here.
fn nondet_iteration(
    file: &SourceFile,
    file_idx: usize,
    sensitive: &BTreeSet<(usize, usize)>,
    out: &mut Vec<Finding>,
) {
    let toks = &file.tokens;
    let hash_names = hash_typed_names(toks);
    if hash_names.is_empty() {
        return;
    }
    const ITER_METHODS: [&str; 8] = [
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "into_keys",
        "into_values",
    ];
    for f in &file.fns {
        if !sensitive.contains(&(file_idx, f.start)) || file.in_test_code(f.start) {
            continue;
        }
        // One finding per line: a `for … in map.iter()` matches both the
        // `for` pattern and the method pattern.
        let mut flagged: BTreeSet<u32> = BTreeSet::new();
        for k in f.body_start..f.end.min(toks.len()) {
            let t = &toks[k];
            let mut hit = false;
            // `for x in map { … }` / `for (k, v) in &self.map { … }`
            if t.is_ident("for") {
                let mut e = k + 1;
                while e < toks.len() && !toks[e].is_ident("in") {
                    e += 1;
                }
                let mut b = e;
                while b < toks.len() && !toks[b].is_op("{") {
                    if toks[b].ident().is_some_and(|id| hash_names.contains(id)) {
                        hit = true;
                    }
                    b += 1;
                }
            }
            // `map.iter()` and friends.
            if t.ident().is_some_and(|id| hash_names.contains(id))
                && toks.get(k + 1).is_some_and(|t| t.is_op("."))
                && toks
                    .get(k + 2)
                    .and_then(|t| t.ident())
                    .is_some_and(|id| ITER_METHODS.contains(&id))
                && toks.get(k + 3).is_some_and(|t| t.is_op("("))
            {
                hit = true;
            }
            if hit && flagged.insert(toks[k].line) && !iteration_is_sorted(file, f, k) {
                push(
                    out,
                    file,
                    RULE_NONDET_ITERATION,
                    t.line,
                    format!(
                        "hash-order iteration inside `{}`, which feeds a \
                         determinism sink; collect through a sorted \
                         container or sort the result",
                        f.name
                    ),
                );
            }
        }
    }
}

/// Collects identifiers with a `HashMap`/`HashSet` type or initializer.
fn hash_typed_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for k in 0..toks.len() {
        if !(toks[k].is_ident("HashMap") || toks[k].is_ident("HashSet")) {
            continue;
        }
        // `name: [&mut] [std::collections::]HashMap<…>` — walk back over
        // the path, references and mutability.
        let mut b = k;
        while b >= 2 && toks[b - 1].is_op("::") && toks[b - 2].ident().is_some() {
            b -= 2;
        }
        while b >= 1
            && (toks[b - 1].is_op("&")
                || toks[b - 1].is_ident("mut")
                || matches!(toks[b - 1].kind, crate::lexer::TokenKind::Lifetime))
        {
            b -= 1;
        }
        if b >= 2 && toks[b - 1].is_op(":") {
            if let Some(n) = toks[b - 2].ident() {
                names.insert(n.to_string());
            }
        }
        // `let [mut] name = HashMap::new()` — walk back over `= path`.
        if b >= 2 && toks[b - 1].is_op("=") {
            if let Some(n) = toks[b - 2].ident() {
                if n != "mut" {
                    names.insert(n.to_string());
                } else if b >= 3 {
                    if let Some(n) = toks[b - 3].ident() {
                        names.insert(n.to_string());
                    }
                }
            }
        }
    }
    names
}

/// True when the statement around token `k` sorts (mentions a `sort*`
/// helper or a BTree collect), or when it is a `let` whose binding is
/// `.sort*`-ed later in the enclosing function body.
fn iteration_is_sorted(file: &SourceFile, f: &crate::source::FnSpan, k: usize) -> bool {
    let toks = &file.tokens;
    // Statement bounds: back to `;`/`{`/`}`, forward to `;` or a body `{`
    // (paren depth zero).
    let mut start = k;
    while start > f.body_start
        && !(toks[start - 1].is_op(";") || toks[start - 1].is_op("{") || toks[start - 1].is_op("}"))
    {
        start -= 1;
    }
    let mut end = k;
    let mut paren = 0i32;
    while end < f.end.min(toks.len()) {
        let t = &toks[end];
        if t.is_op("(") {
            paren += 1;
        } else if t.is_op(")") {
            paren -= 1;
        } else if paren <= 0 && (t.is_op(";") || t.is_op("{")) {
            break;
        }
        end += 1;
    }
    let sorts = |t: &Token| {
        t.ident().is_some_and(|id| {
            id.starts_with("sort") || id == "BTreeMap" || id == "BTreeSet" || id == "BinaryHeap"
        })
    };
    if toks[start..end.min(toks.len())].iter().any(sorts) {
        return true;
    }
    // `let bound = map.iter()…;` later followed by `bound.sort…`.
    if toks[start].is_ident("let") {
        let mut n = start + 1;
        if toks.get(n).is_some_and(|t| t.is_ident("mut")) {
            n += 1;
        }
        if let Some(bound) = toks.get(n).and_then(|t| t.ident()) {
            for m in end..f.end.min(toks.len()).saturating_sub(2) {
                if toks[m].is_ident(bound)
                    && toks[m + 1].is_op(".")
                    && toks[m + 2].ident().is_some_and(|id| id.starts_with("sort"))
                {
                    return true;
                }
            }
        }
    }
    false
}

/// Seed roots for **hot-path-alloc**: `(crate, fn name)` pairs naming the
/// inner-loop drivers of LSA/CEA expansion, the path-skyline search, the
/// ParetoPrep scan and the route index's upward label searches. A root's
/// *loop bodies* are hot; every function those loop bodies call is hot
/// throughout its whole body, transitively.
const HOT_PATH_ROOTS: [(&str, &str); 5] = [
    ("expansion", "advance"),
    ("expansion", "next_nearest"),
    ("index", "upward_labels"),
    ("mcpp", "search"),
    ("prep", "scan"),
];

/// Method calls that allocate a fresh owned value.
const ALLOC_METHODS: [&str; 4] = ["to_vec", "to_owned", "to_string", "collect"];

/// Container constructors that allocate (checked as `Container::ctor`).
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];

/// **hot-path-alloc**: per-step allocation inside the algorithmic inner
/// loops. Functions reachable (over the resolved call graph) from a
/// [`HOT_PATH_ROOTS`] loop body are flagged wherever they allocate:
/// `format!`/`vec!` expansion, container constructors, `.to_vec()`-style
/// owned conversions, `.collect()`, and `.clone()` of container-typed (or
/// untypeable) receivers. `Arc`/`Rc` clones are refcount bumps, `.push(…)`
/// is amortized O(1), and `Copy` scalar clones resolve to non-container
/// types — none of those fire. Sites that allocate by design carry
/// `mcn-lint: allow(hot-path-alloc, reason = "…")`.
fn hot_path_alloc(model: &Model<'_>, out: &mut Vec<Finding>) {
    let r = &model.resolver;
    let ws = model.ws;
    let mut roots: Vec<usize> = Vec::new();
    for (i, f) in r.fns.iter().enumerate() {
        let is_root = HOT_PATH_ROOTS
            .iter()
            .any(|&(c, n)| f.crate_name == c && f.name == n);
        let span_start = ws.files[f.file].fns[f.span].start;
        if is_root && !ws.files[f.file].in_test_code(span_start) {
            roots.push(i);
        }
    }
    if roots.is_empty() {
        return;
    }
    // Hot closure: callees invoked from a root's loop body, then everything
    // they reach, never descending into test-only callees (a trait fan-out
    // reaching a double in some `mod tests` is unreachable from product
    // code). The storage layer is not excluded — a buffered page read is
    // the inner loop of every expansion — so its sites that allocate by
    // design (a miss's page buffer, a facility run's result) carry
    // reasoned allows.
    let mut hot = vec![false; r.fns.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &root in &roots {
        let f = &r.fns[root];
        let file = &ws.files[f.file];
        let loops = loop_ranges(file, &file.fns[f.span]);
        for site in &model.graph.sites[root] {
            if !in_any(&loops, site.tok) {
                continue;
            }
            for &c in &site.candidates {
                if !hot[c] && !r.fns[c].is_test {
                    hot[c] = true;
                    stack.push(c);
                }
            }
        }
    }
    while let Some(fi) = stack.pop() {
        for site in &model.graph.sites[fi] {
            for &c in &site.candidates {
                if !hot[c] && !r.fns[c].is_test {
                    hot[c] = true;
                    stack.push(c);
                }
            }
        }
    }
    for (i, f) in r.fns.iter().enumerate() {
        let everywhere = hot[i];
        let is_root = roots.contains(&i);
        if !everywhere && !is_root {
            continue;
        }
        let file = &ws.files[f.file];
        let span = &file.fns[f.span];
        if file.in_test_code(span.start) {
            continue;
        }
        let ranges: Vec<(usize, usize)> = if everywhere {
            vec![(span.body_start, span.end.min(file.tokens.len()))]
        } else {
            loop_ranges(file, span)
        };
        let why = if everywhere {
            format!("`{}` is reachable from a hot inner loop", f.qualified())
        } else {
            format!("inside a hot loop of `{}`", f.qualified())
        };
        scan_alloc_sites(model, i, &ranges, &why, out);
    }
}

/// Flags allocation sites of `fns[fn_id]` within `ranges` (token index
/// half-open intervals), skipping tokens owned by nested `fn` items.
fn scan_alloc_sites(
    model: &Model<'_>,
    fn_id: usize,
    ranges: &[(usize, usize)],
    why: &str,
    out: &mut Vec<Finding>,
) {
    let r = &model.resolver;
    let f = &r.fns[fn_id];
    let file = &model.ws.files[f.file];
    let toks = &file.tokens;
    let span = &file.fns[f.span];
    for k in span.body_start..span.end.min(toks.len()) {
        if !in_any(ranges, k) || !model.owns_token(fn_id, k) {
            continue;
        }
        // `format!` / `vec!` macro expansion.
        if let Some(id) = toks[k].ident() {
            if (id == "format" || id == "vec") && toks.get(k + 1).is_some_and(|t| t.is_op("!")) {
                push(
                    out,
                    file,
                    RULE_HOT_PATH_ALLOC,
                    toks[k].line,
                    format!("`{id}!` allocates {why}; hoist the buffer out of the loop"),
                );
                continue;
            }
            // `Vec::new(…)`, `String::from(…)`, `Box::new(…)`, …
            if CONTAINER_TYPES.contains(&id)
                && toks.get(k + 1).is_some_and(|t| t.is_op("::"))
                && toks
                    .get(k + 2)
                    .and_then(|t| t.ident())
                    .is_some_and(|m| ALLOC_CTORS.contains(&m))
                && toks
                    .get(k + 3)
                    .is_some_and(|t| t.is_op("(") || t.is_op("::<"))
            {
                let m = toks[k + 2].ident().unwrap_or_default();
                push(
                    out,
                    file,
                    RULE_HOT_PATH_ALLOC,
                    toks[k].line,
                    format!("`{id}::{m}` allocates {why}; hoist or reuse a buffer"),
                );
                continue;
            }
        }
        // `.to_vec()` / `.to_owned()` / `.to_string()` / `.collect()` /
        // `.clone()` on a container-typed or untypeable receiver.
        if !toks[k].is_op(".") {
            continue;
        }
        let Some(m) = toks.get(k + 1).and_then(|t| t.ident()) else {
            continue;
        };
        let is_invoked = toks
            .get(k + 2)
            .is_some_and(|t| t.is_op("(") || t.is_op("::<"));
        if !is_invoked {
            continue;
        }
        if ALLOC_METHODS.contains(&m) {
            push(
                out,
                file,
                RULE_HOT_PATH_ALLOC,
                toks[k + 1].line,
                format!("`.{m}()` allocates a fresh owned value {why}; hoist or reuse a buffer"),
            );
            continue;
        }
        if m == "clone" && k > span.body_start {
            match r.postfix_type(model.ws, fn_id, k - 1) {
                Some(ty) if r.is_container_type(&ty) => {
                    push(
                        out,
                        file,
                        RULE_HOT_PATH_ALLOC,
                        toks[k + 1].line,
                        format!(
                            "`.clone()` of a `{}` deep-copies {why}; borrow or reuse instead",
                            ty.first().map(String::as_str).unwrap_or("container")
                        ),
                    );
                }
                Some(_) => {} // Arc/Rc refcount bump, Copy scalar, or plain struct.
                None => {
                    push(
                        out,
                        file,
                        RULE_HOT_PATH_ALLOC,
                        toks[k + 1].line,
                        format!(
                            "`.clone()` of an unresolved receiver {why}; if it deep-copies, \
                             hoist it — otherwise add a reasoned allow"
                        ),
                    );
                }
            }
        }
    }
}

/// True when `k` falls in any half-open `(start, end)` range.
fn in_any(ranges: &[(usize, usize)], k: usize) -> bool {
    ranges.iter().any(|&(a, b)| k >= a && k < b)
}

/// Token ranges of every `for`/`while`/`loop` body in `span` (nested loops
/// yield overlapping ranges). The body brace is the first `{` at zero
/// paren/bracket depth after the keyword — Rust forbids bare struct
/// literals in loop-header position, so that brace opens the body.
fn loop_ranges(file: &SourceFile, span: &crate::source::FnSpan) -> Vec<(usize, usize)> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    let end = span.end.min(toks.len());
    for k in span.body_start..end {
        let is_loop_kw = toks[k]
            .ident()
            .is_some_and(|id| id == "for" || id == "while" || id == "loop");
        if !is_loop_kw {
            continue;
        }
        let mut depth = 0i32;
        let mut m = k + 1;
        while m < end {
            let t = &toks[m];
            if t.is_op("(") || t.is_op("[") {
                depth += 1;
            } else if t.is_op(")") || t.is_op("]") {
                depth -= 1;
            } else if t.is_op("{") && depth == 0 {
                out.push((m + 1, crate::source::matching_close(toks, m)));
                break;
            } else if t.is_op(";") && depth == 0 {
                break;
            }
            m += 1;
        }
    }
    out
}
