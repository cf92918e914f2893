//! Symbol resolution over the lexed workspace: struct fields, impl blocks
//! (inherent and trait, with generic-parameter bounds), trait→impl maps,
//! `use` imports and per-function local/parameter types.
//!
//! The resolver upgrades the rule engine from name-matching to
//! *receiver-typed* method resolution: `self.store.adjacency(node)` resolves
//! through the declared field type `Arc<S>` and the impl bound
//! `S: StoreView` to the `adjacency` methods of every `StoreView`
//! implementor, and nothing else. Resolution is deliberately conservative —
//! an unresolvable receiver falls back to every workspace method of that
//! name (minus a deny list of ubiquitous std names, where the std type is
//! the overwhelmingly likely target) so downstream closures over-approximate
//! rather than miss.
//!
//! Everything works on the token streams of [`crate::workspace::Workspace`]
//! files; there is no type inference beyond declared types, initializer
//! heads (`let x = Foo::new(…)`) and lock-guard propagation
//! (`let g = self.field.read()` gives `g` the lock's inner type).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Token;
use crate::source::{FnSpan, SourceFile};
use crate::workspace::Workspace;

/// Smart-pointer/marker layers skipped when finding a type's primary name:
/// the method receiver behind `Arc<dyn DiskManager>` is `DiskManager`.
const WRAPPERS: [&str; 9] = [
    "Arc", "Rc", "Box", "Option", "RefCell", "Cell", "Pin", "dyn", "impl",
];

/// Std container types: constructing or cloning one allocates.
pub const CONTAINER_TYPES: [&str; 11] = [
    "Vec",
    "VecDeque",
    "String",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Box",
    "PathBuf",
    "OsString",
];

/// Ubiquitous std method names: when a receiver cannot be typed, a call to
/// one of these almost certainly targets a std collection/primitive, so the
/// all-methods-of-that-name fallback is suppressed to avoid wiring, say,
/// every untyped `.get(…)` to `PrepCache::get`.
const COMMON_METHODS: [&str; 45] = [
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clear",
    "extend",
    "drain",
    "take",
    "keys",
    "values",
    "entry",
    "sort",
    "sort_by",
    "sort_unstable",
    "map",
    "and_then",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "to_string",
    "to_vec",
    "to_owned",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "min",
    "max",
    "abs",
    "fmt",
];

/// One struct field: name plus the identifier sequence of its type
/// (`shards: Vec<Mutex<Shard>>` → `["Vec", "Mutex", "Shard"]`).
#[derive(Clone, Debug)]
pub struct FieldDef {
    /// Field name (tuple fields are `"0"`, `"1"`, …).
    pub name: String,
    /// Type identifiers in source order, wrappers and generics flattened.
    pub ty: Vec<String>,
}

/// One struct definition.
#[derive(Clone, Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Crate directory name.
    pub crate_name: String,
    /// Index into `ws.files`.
    pub file: usize,
    /// Token index of the `struct` keyword.
    pub tok: usize,
    /// Line of the `struct` keyword.
    pub line: u32,
    /// Fields in declaration order.
    pub fields: Vec<FieldDef>,
}

/// One `impl` block (or trait body, which acts as the impl of its own
/// default methods: `self_type` is the trait name, `trait_name` is `None`).
#[derive(Clone, Debug)]
pub struct ImplDef {
    /// Index into `ws.files`.
    pub file: usize,
    /// The implementing type's last path segment (`SharedAccess`).
    pub self_type: String,
    /// For `impl Trait for Type`, the trait's name.
    pub trait_name: Option<String>,
    /// Generic-parameter bounds: `S → StoreView` for `impl<S: StoreView>`.
    pub bounds: BTreeMap<String, String>,
    /// Token range `[open brace, one past close)` of the body.
    pub body: (usize, usize),
}

/// One function, globally indexed: the resolver's unit of resolution.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Index into `ws.files`.
    pub file: usize,
    /// Index into that file's `fns`.
    pub span: usize,
    /// Crate directory name.
    pub crate_name: String,
    /// Enclosing impl/trait type, `None` for free functions.
    pub self_type: Option<String>,
    /// Function name.
    pub name: String,
    /// Return-type identifiers (after `->`), empty for `()`.
    pub ret: Vec<String>,
    /// Generic bounds declared on the function itself.
    pub bounds: BTreeMap<String, String>,
    /// True when the function lives in test-only code.
    pub is_test: bool,
}

impl FnDef {
    /// `crate::Type::name` or `crate::name`, for reports and root seeding.
    pub fn qualified(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{}::{}::{}", self.crate_name, t, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// The resolved workspace model.
pub struct Resolver {
    /// Every struct definition.
    pub structs: Vec<StructDef>,
    /// Every impl block and trait body.
    pub impls: Vec<ImplDef>,
    /// Every function, in (file, span) order.
    pub fns: Vec<FnDef>,
    /// Per-function map from local/parameter name to type identifiers.
    pub locals: Vec<BTreeMap<String, Vec<String>>>,
    struct_by_name: BTreeMap<String, Vec<usize>>,
    /// Trait name → implementing type names (the trait itself included, so
    /// default methods resolve).
    trait_impls: BTreeMap<String, Vec<String>>,
    method_index: BTreeMap<(String, String), Vec<usize>>,
    free_index: BTreeMap<(String, String), Vec<usize>>,
    method_by_name: BTreeMap<String, Vec<usize>>,
    container_structs: BTreeSet<String>,
}

impl Resolver {
    /// Builds the full model for a workspace.
    pub fn build(ws: &Workspace) -> Resolver {
        let mut structs = Vec::new();
        let mut impls = Vec::new();
        let mut traits: BTreeSet<String> = BTreeSet::new();
        for (fi, file) in ws.files.iter().enumerate() {
            parse_structs(file, fi, &mut structs);
            parse_impls_and_traits(file, fi, &mut impls, &mut traits);
        }

        let mut trait_impls: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for t in &traits {
            // The trait's own body holds its default methods.
            trait_impls.insert(t.clone(), vec![t.clone()]);
        }
        for im in &impls {
            if let Some(t) = &im.trait_name {
                trait_impls
                    .entry(t.clone())
                    .or_default()
                    .push(im.self_type.clone());
            }
        }
        for v in trait_impls.values_mut() {
            v.sort();
            v.dedup();
        }

        // Functions: attribute each span to its innermost impl/trait body.
        let mut fns = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            for (si, span) in file.fns.iter().enumerate() {
                let self_type = impls
                    .iter()
                    .filter(|im| im.file == fi && im.body.0 < span.start && span.end <= im.body.1)
                    .max_by_key(|im| im.body.0)
                    .map(|im| im.self_type.clone());
                let (ret, bounds) = parse_signature(&file.tokens, span);
                fns.push(FnDef {
                    file: fi,
                    span: si,
                    crate_name: file.crate_name.clone(),
                    self_type,
                    name: span.name.clone(),
                    ret,
                    bounds,
                    is_test: file.in_test_code(span.start),
                });
            }
        }

        let mut struct_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, s) in structs.iter().enumerate() {
            struct_by_name.entry(s.name.clone()).or_default().push(i);
        }
        let mut method_index: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free_index: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut method_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            // A bodyless trait method *declaration* is not a callee — the
            // trait fan-out resolves to implementor bodies (and default
            // methods, which do have bodies).
            let span = &ws.files[f.file].fns[f.span];
            if span.body_start == span.end {
                continue;
            }
            match &f.self_type {
                Some(t) => {
                    method_index
                        .entry((t.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                    method_by_name.entry(f.name.clone()).or_default().push(i);
                }
                None => free_index
                    .entry((f.crate_name.clone(), f.name.clone()))
                    .or_default()
                    .push(i),
            }
        }

        // Container-ness propagates through struct fields: a struct holding
        // a Vec (directly or via another container struct) allocates when
        // cloned. `Copy` aggregates like CostVec never qualify.
        let mut container_structs: BTreeSet<String> = BTreeSet::new();
        loop {
            let mut grew = false;
            for s in &structs {
                if container_structs.contains(&s.name) {
                    continue;
                }
                let is_container = s.fields.iter().any(|f| {
                    f.ty.iter().any(|id| {
                        CONTAINER_TYPES.contains(&id.as_str())
                            || container_structs.contains(id.as_str())
                    })
                });
                if is_container {
                    container_structs.insert(s.name.clone());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }

        let mut r = Resolver {
            structs,
            impls,
            fns,
            locals: Vec::new(),
            struct_by_name,
            trait_impls,
            method_index,
            free_index,
            method_by_name,
            container_structs,
        };
        // Local typing uses receiver resolution (guard locals), so it runs
        // after the indexes exist; within a function the scan is
        // sequential, so earlier locals type later guard bindings.
        r.locals = (0..r.fns.len()).map(|i| r.collect_locals(ws, i)).collect();
        r
    }

    /// The struct definition for `name`, preferring the given crate.
    pub fn struct_def(&self, name: &str, prefer_crate: &str) -> Option<&StructDef> {
        let ids = self.struct_by_name.get(name)?;
        ids.iter()
            .map(|&i| &self.structs[i])
            .find(|s| s.crate_name == prefer_crate)
            .or_else(|| ids.first().map(|&i| &self.structs[i]))
    }

    /// True when `name` names a trait in the workspace.
    pub fn is_trait(&self, name: &str) -> bool {
        self.trait_impls.contains_key(name)
    }

    /// True when the identifier sequence denotes an allocating container:
    /// a std container or a workspace struct transitively holding one.
    /// `Arc`/`Rc` as the outermost layer shields a clone (refcount bump).
    pub fn is_container_type(&self, ty: &[String]) -> bool {
        if matches!(ty.first().map(String::as_str), Some("Arc") | Some("Rc")) {
            return false;
        }
        ty.iter().any(|id| {
            CONTAINER_TYPES.contains(&id.as_str()) || self.container_structs.contains(id.as_str())
        })
    }

    /// Candidate implementations of `name` on `ty` (a struct or trait).
    pub fn methods_of(&self, ty: &str, name: &str) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .method_index
            .get(&(ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default();
        if let Some(impl_types) = self.trait_impls.get(ty) {
            for t in impl_types {
                if let Some(ids) = self.method_index.get(&(t.clone(), name.to_string())) {
                    out.extend_from_slice(ids);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Free functions named `name`, preferring `crate_name`'s.
    pub fn free_fns(&self, crate_name: &str, name: &str) -> Vec<usize> {
        if let Some(ids) = self
            .free_index
            .get(&(crate_name.to_string(), name.to_string()))
        {
            return ids.clone();
        }
        let mut out = Vec::new();
        for ((_, n), ids) in &self.free_index {
            if n == name {
                out.extend_from_slice(ids);
            }
        }
        out
    }

    /// The primary (receiver) type name behind a declared type: wrappers
    /// skipped, generic parameters mapped through fn/impl bounds.
    pub fn primary_type(&self, fn_id: usize, ty: &[String]) -> Option<String> {
        let name = ty
            .iter()
            .find(|id| !WRAPPERS.contains(&id.as_str()))?
            .clone();
        let f = &self.fns[fn_id];
        if let Some(bound) = f.bounds.get(&name) {
            return Some(bound.clone());
        }
        let impl_bounds = self
            .impls
            .iter()
            .filter(|im| {
                im.file == f.file && im.self_type == *f.self_type.as_ref().unwrap_or(&String::new())
            })
            .find_map(|im| im.bounds.get(&name));
        if let Some(bound) = impl_bounds {
            return Some(bound.clone());
        }
        Some(name)
    }

    /// Resolves the type (identifier sequence) of the postfix expression
    /// ending at token `end` of `fn_id`'s file. Handles locals, `self`,
    /// field chains, indexing and calls whose target resolves.
    pub fn postfix_type(&self, ws: &Workspace, fn_id: usize, end: usize) -> Option<Vec<String>> {
        self.postfix_type_inner(ws, fn_id, end, 0)
    }

    fn postfix_type_inner(
        &self,
        ws: &Workspace,
        fn_id: usize,
        end: usize,
        depth: usize,
    ) -> Option<Vec<String>> {
        if depth > 8 {
            return None;
        }
        let f = &self.fns[fn_id];
        let toks = &ws.files[f.file].tokens;
        let t = toks.get(end)?;
        if t.is_op(")") {
            let open = matching_open(toks, end, "(", ")")?;
            match toks.get(open.checked_sub(1)?) {
                Some(prev) if prev.ident().is_some() => {
                    // A call: type is the callee's return type.
                    let callees = self.resolve_call(ws, fn_id, open - 1, depth + 1);
                    return callees
                        .iter()
                        .map(|&c| self.fns[c].ret.clone())
                        .find(|r| !r.is_empty());
                }
                Some(prev) if prev.is_op(">") => {
                    // Turbofish call `name::<T>(…)`: resolve via the name.
                    let fish = matching_open_fish(toks, open - 1)?;
                    if toks.get(fish.checked_sub(1)?)?.ident().is_some() {
                        let callees = self.resolve_call(ws, fn_id, fish - 1, depth + 1);
                        return callees
                            .iter()
                            .map(|&c| self.fns[c].ret.clone())
                            .find(|r| !r.is_empty());
                    }
                    return None;
                }
                _ => {
                    // Parenthesized group: type of the inner expression.
                    return self.postfix_type_inner(ws, fn_id, end - 1, depth + 1);
                }
            }
        }
        if t.is_op("]") {
            let open = matching_open(toks, end, "[", "]")?;
            let base = self.postfix_type_inner(ws, fn_id, open.checked_sub(1)?, depth + 1)?;
            // Indexing strips one sequence layer: Vec<Mutex<T>>[i] → Mutex<T>.
            return match base.first().map(String::as_str) {
                Some("Vec") | Some("VecDeque") => Some(base[1..].to_vec()),
                _ => Some(base),
            };
        }
        let name = t.ident()?;
        if name == "self" {
            return f.self_type.clone().map(|t| vec![t]);
        }
        match toks.get(end.wrapping_sub(1)) {
            Some(prev) if prev.is_op(".") => {
                // Field access: resolve the base, then the field's type.
                let base = self.postfix_type_inner(ws, fn_id, end - 2, depth + 1)?;
                let base_name = self.primary_type(fn_id, &base)?;
                let s = self.struct_def(&base_name, &f.crate_name)?;
                s.fields
                    .iter()
                    .find(|fd| fd.name == name)
                    .map(|fd| fd.ty.clone())
            }
            Some(prev) if prev.is_op("::") => None, // path segment, not a value
            // `locals` is still empty while `collect_locals` itself types
            // guard bindings — fall back to None rather than index.
            _ => self.locals.get(fn_id).and_then(|m| m.get(name)).cloned(),
        }
    }

    /// Resolves the call whose callee identifier sits at token `idx` of
    /// `fn_id`'s file, returning candidate `FnDef` indices (empty =
    /// external). Handles `recv.m(…)`, `Type::m(…)`, `path::f(…)` and bare
    /// `f(…)` forms.
    pub fn resolve_call(
        &self,
        ws: &Workspace,
        fn_id: usize,
        idx: usize,
        depth: usize,
    ) -> Vec<usize> {
        if depth > 8 {
            return Vec::new();
        }
        let f = &self.fns[fn_id];
        let toks = &ws.files[f.file].tokens;
        let Some(name) = toks.get(idx).and_then(|t| t.ident()) else {
            return Vec::new();
        };
        match toks.get(idx.wrapping_sub(1)) {
            Some(prev) if idx > 0 && prev.is_op(".") => {
                // Method call: type the receiver.
                let recv = idx
                    .checked_sub(2)
                    .and_then(|e| self.postfix_type_inner(ws, fn_id, e, depth + 1));
                match recv.and_then(|ty| self.primary_type(fn_id, &ty)) {
                    Some(ty) => self.methods_of(&ty, name),
                    None if COMMON_METHODS.contains(&name)
                        || crate::rules::GUARD_METHODS.contains(&name) =>
                    {
                        Vec::new()
                    }
                    None => self.method_by_name.get(name).cloned().unwrap_or_default(),
                }
            }
            Some(prev) if idx > 0 && prev.is_op("::") => {
                // Qualified call: `Type::m(…)` or `module::f(…)`.
                let qualifier = toks.get(idx.wrapping_sub(2)).and_then(|t| t.ident());
                match qualifier {
                    Some("Self") => f
                        .self_type
                        .as_ref()
                        .map(|t| self.methods_of(t, name))
                        .unwrap_or_default(),
                    Some(q) if self.struct_by_name.contains_key(q) || self.is_trait(q) => {
                        self.methods_of(q, name)
                    }
                    // `G::m(…)` on a bounded generic `G: Trait`: every impl.
                    Some(q) if f.bounds.contains_key(q) => self.methods_of(&f.bounds[q], name),
                    _ => self.free_fns(&f.crate_name, name),
                }
            }
            _ => {
                // Bare call: a free function, unless it's a local (closure
                // parameter or binding) or a macro.
                if toks.get(idx + 1).is_some_and(|t| t.is_op("!")) {
                    return Vec::new();
                }
                if self.locals[fn_id].contains_key(name) {
                    return Vec::new();
                }
                self.free_fns(&f.crate_name, name)
            }
        }
    }

    /// Collects parameter and `let` types for one function.
    fn collect_locals(&self, ws: &Workspace, fn_id: usize) -> BTreeMap<String, Vec<String>> {
        let f = &self.fns[fn_id];
        let file = &ws.files[f.file];
        let span = &file.fns[f.span];
        let toks = &file.tokens;
        let mut locals: BTreeMap<String, Vec<String>> = BTreeMap::new();

        // Parameters: `name: Type` pairs at paren depth 1 of the signature.
        let mut paren = 0i32;
        let mut angle = 0i32;
        let mut k = span.start;
        while k < span.body_start.min(toks.len()) {
            let t = &toks[k];
            if t.is_op("(") {
                paren += 1;
            } else if t.is_op(")") {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            } else if t.is_op("<") || t.is_op("::<") {
                angle += 1;
            } else if t.is_op(">") {
                angle -= 1;
            } else if paren == 1
                && angle == 0
                && t.ident().is_some()
                && toks.get(k + 1).is_some_and(|n| n.is_op(":"))
            {
                let name = t.ident().unwrap_or_default().to_string();
                let (ty, next) = type_idents(toks, k + 2, &[",", ")"]);
                if !ty.is_empty() {
                    locals.insert(name, ty);
                }
                k = next;
                continue;
            }
            k += 1;
        }

        // `let` bindings in the body.
        let mut k = span.body_start;
        while k < span.end.min(toks.len()) {
            if !toks[k].is_ident("let") {
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
            match toks.get(j + 1) {
                Some(t) if t.is_op(":") => {
                    // `let name: Type = …`
                    let (ty, _) = type_idents(toks, j + 2, &["=", ";"]);
                    if !ty.is_empty() {
                        locals.insert(name, ty);
                    }
                }
                Some(t) if t.is_op("=") => {
                    // `let name = Type::ctor(…)` — initializer head names the
                    // type; or `let g = recv.lock()` — guard gets the lock's
                    // inner type.
                    let head = toks.get(j + 2).and_then(|t| t.ident());
                    let is_ctor = toks.get(j + 3).is_some_and(|t| t.is_op("::"))
                        && toks.get(j + 4).and_then(|t| t.ident()).is_some_and(|m| {
                            matches!(m, "new" | "with_capacity" | "from" | "default" | "open")
                        })
                        && head.is_some_and(|h| h.chars().next().is_some_and(char::is_uppercase));
                    if is_ctor {
                        locals.insert(name, vec![head.unwrap_or_default().to_string()]);
                    } else if let Some((ty, _)) = self.guard_binding_type(ws, fn_id, toks, j + 2) {
                        locals.insert(name, ty);
                    }
                }
                _ => {}
            }
            k = j + 1;
        }
        locals
    }

    /// If the initializer starting at `from` is a plain chain ending in a
    /// no-arg guard-method call (`….lock()`, `….read()`, …), returns the
    /// inner type of the lock being acquired plus the call's close-paren
    /// index.
    fn guard_binding_type(
        &self,
        ws: &Workspace,
        fn_id: usize,
        toks: &[Token],
        from: usize,
    ) -> Option<(Vec<String>, usize)> {
        // Find the statement-ending `;` without crossing a depth-0 `{`.
        let mut depth = 0i32;
        let mut end = from;
        while end < toks.len() {
            let t = &toks[end];
            if t.is_op("(") || t.is_op("[") {
                depth += 1;
            } else if t.is_op(")") || t.is_op("]") {
                depth -= 1;
            } else if depth <= 0 && (t.is_op(";") || t.is_op("{")) {
                break;
            }
            end += 1;
        }
        if !toks.get(end).is_some_and(|t| t.is_op(";")) || end < from + 4 {
            return None;
        }
        // The chain must end `… . m ( )` with a guard method.
        let close = end - 1;
        if !(toks[close].is_op(")")
            && toks[close - 1].is_op("(")
            && toks[close - 2]
                .ident()
                .is_some_and(|m| crate::rules::GUARD_METHODS.contains(&m))
            && toks[close - 3].is_op("."))
        {
            return None;
        }
        let recv_ty = self.postfix_type_inner(ws, fn_id, close - 4, 1)?;
        Some((lock_inner_type(&recv_ty)?, close))
    }
}

/// The identifiers following the first `Mutex`/`RwLock` in a type — the
/// guard's target type (`RwLock<ShardSet>` → `[ShardSet]`).
pub fn lock_inner_type(ty: &[String]) -> Option<Vec<String>> {
    let pos = ty.iter().position(|id| id == "Mutex" || id == "RwLock")?;
    let rest: Vec<String> = ty[pos + 1..].to_vec();
    if rest.is_empty() {
        None
    } else {
        Some(rest)
    }
}

/// Collects the identifier sequence of a type starting at `from`, stopping
/// at any of `stops` at bracket depth 0. Braces always stop the scan at
/// depth 0 — a type can't contain one, and running past the close of a
/// struct body or into a block would flatten unrelated code into the type.
/// Returns the identifiers and the index of the stop token.
fn type_idents(toks: &[Token], from: usize, stops: &[&str]) -> (Vec<String>, usize) {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut k = from;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_op("<") || t.is_op("::<") || t.is_op("(") || t.is_op("[") {
            depth += 1;
        } else if t.is_op(">") || t.is_op(")") || t.is_op("]") {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_op("{") || t.is_op("}") || stops.iter().any(|s| t.is_op(s))) {
            break;
        } else if let Some(id) = t.ident() {
            if id != "mut" && id != "const" && id != "where" {
                out.push(id.to_string());
            }
        }
        k += 1;
    }
    (out, k)
}

/// The token index of the `(`/`[` matching the closer at `close`.
fn matching_open(toks: &[Token], close: usize, open: &str, close_op: &str) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = close;
    loop {
        let t = toks.get(k)?;
        if t.is_op(close_op) {
            depth += 1;
        } else if t.is_op(open) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// For a `>` at `close` ending a turbofish, the index of its `::<`.
fn matching_open_fish(toks: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = close;
    loop {
        let t = toks.get(k)?;
        if t.is_op(">") {
            depth += 1;
        } else if t.is_op("<") || t.is_op("::<") {
            depth -= 1;
            if depth == 0 {
                return t.is_op("::<").then_some(k);
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// Parses struct definitions (named and tuple fields) out of one file.
fn parse_structs(file: &SourceFile, fi: usize, out: &mut Vec<StructDef>) {
    let toks = &file.tokens;
    for k in 0..toks.len() {
        if !toks[k].is_ident("struct") {
            continue;
        }
        // `struct` in a function pointer type or similar has no name ident.
        let Some(name) = toks.get(k + 1).and_then(|t| t.ident()).map(str::to_string) else {
            continue;
        };
        let mut j = k + 2;
        // Skip generic parameters.
        if toks.get(j).is_some_and(|t| t.is_op("<")) {
            let mut angle = 0i32;
            while j < toks.len() {
                if toks[j].is_op("<") || toks[j].is_op("::<") {
                    angle += 1;
                } else if toks[j].is_op(">") {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        let mut fields = Vec::new();
        match toks.get(j) {
            Some(t) if t.is_op("{") => {
                let end = crate::source::matching_close(toks, j) - 1;
                let mut m = j + 1;
                while m < end.min(toks.len()) {
                    // A field is `ident :` at depth 0 (visibility skipped).
                    if toks[m].ident().is_some()
                        && !toks[m].is_ident("pub")
                        && toks.get(m + 1).is_some_and(|t| t.is_op(":"))
                    {
                        let fname = toks[m].ident().unwrap_or_default().to_string();
                        let (ty, next) = type_idents(toks, m + 2, &[","]);
                        fields.push(FieldDef { name: fname, ty });
                        m = next + 1;
                        continue;
                    }
                    m += 1;
                }
            }
            Some(t) if t.is_op("(") => {
                let mut m = j + 1;
                let mut index = 0usize;
                loop {
                    let (ty, next) = type_idents(toks, m, &[","]);
                    if !ty.is_empty() {
                        fields.push(FieldDef {
                            name: index.to_string(),
                            ty,
                        });
                        index += 1;
                    }
                    if !toks.get(next).is_some_and(|t| t.is_op(",")) {
                        break;
                    }
                    m = next + 1;
                }
            }
            _ => {}
        }
        out.push(StructDef {
            name,
            crate_name: file.crate_name.clone(),
            file: fi,
            tok: k,
            line: toks[k].line,
            fields,
        });
    }
}

/// Parses impl blocks and trait bodies out of one file.
fn parse_impls_and_traits(
    file: &SourceFile,
    fi: usize,
    impls: &mut Vec<ImplDef>,
    traits: &mut BTreeSet<String>,
) {
    let toks = &file.tokens;
    for k in 0..toks.len() {
        if toks[k].is_ident("trait") {
            if let Some(name) = toks.get(k + 1).and_then(|t| t.ident()) {
                traits.insert(name.to_string());
                // The trait body acts as the "impl" of default methods.
                let mut j = k + 2;
                while j < toks.len() && !toks[j].is_op("{") && !toks[j].is_op(";") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is_op("{")) {
                    impls.push(ImplDef {
                        file: fi,
                        self_type: name.to_string(),
                        trait_name: None,
                        bounds: BTreeMap::new(),
                        body: (j, crate::source::matching_close(toks, j)),
                    });
                }
            }
            continue;
        }
        if !toks[k].is_ident("impl") {
            continue;
        }
        let mut j = k + 1;
        let mut bounds = BTreeMap::new();
        if toks.get(j).is_some_and(|t| t.is_op("<")) {
            j = parse_generic_bounds(toks, j, &mut bounds);
        }
        // Collect path segments until `for`, `where` or `{` at depth 0;
        // the last depth-0 ident of each run is the type/trait name.
        let mut first_run: Option<String> = None;
        let mut current: Option<String> = None;
        let mut saw_for = false;
        let mut angle = 0i32;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_op("<") || t.is_op("::<") {
                angle += 1;
            } else if t.is_op(">") {
                angle -= 1;
            } else if angle <= 0 {
                if t.is_op("{") || t.is_ident("where") {
                    break;
                }
                if t.is_ident("for") {
                    first_run = current.take();
                    saw_for = true;
                } else if let Some(id) = t.ident() {
                    if id != "dyn" && id != "mut" {
                        current = Some(id.to_string());
                    }
                }
            }
            j += 1;
        }
        // Skip a where clause (collecting its bounds too).
        if toks.get(j).is_some_and(|t| t.is_ident("where")) {
            let mut m = j + 1;
            let mut angle = 0i32;
            while m < toks.len() {
                let t = &toks[m];
                if t.is_op("<") || t.is_op("::<") {
                    angle += 1;
                } else if t.is_op(">") {
                    angle -= 1;
                } else if angle <= 0 && t.is_op("{") {
                    break;
                } else if angle <= 0
                    && t.ident().is_some()
                    && toks.get(m + 1).is_some_and(|n| n.is_op(":"))
                {
                    if let Some(b) = first_bound(toks, m + 2) {
                        bounds.insert(t.ident().unwrap_or_default().to_string(), b);
                    }
                }
                m += 1;
            }
            j = m;
        }
        let Some(t) = toks.get(j) else { continue };
        if !t.is_op("{") {
            continue;
        }
        let (trait_name, self_type) = if saw_for {
            (first_run, current)
        } else {
            (None, current)
        };
        let Some(self_type) = self_type else { continue };
        impls.push(ImplDef {
            file: fi,
            self_type,
            trait_name,
            bounds,
            body: (j, crate::source::matching_close(toks, j)),
        });
    }
}

/// Parses `<P: Bound, Q: Other + ?Sized>` into `bounds`; returns the index
/// one past the closing `>`.
fn parse_generic_bounds(
    toks: &[Token],
    open: usize,
    bounds: &mut BTreeMap<String, String>,
) -> usize {
    let mut angle = 0i32;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_op("<") || t.is_op("::<") {
            angle += 1;
        } else if t.is_op(">") {
            angle -= 1;
            if angle == 0 {
                return j + 1;
            }
        } else if angle == 1 && t.ident().is_some() && toks.get(j + 1).is_some_and(|n| n.is_op(":"))
        {
            if let Some(b) = first_bound(toks, j + 2) {
                bounds.insert(t.ident().unwrap_or_default().to_string(), b);
            }
        }
        j += 1;
    }
    j
}

/// The first named (non-`?Sized`, non-lifetime, non-marker) bound at `from`.
fn first_bound(toks: &[Token], from: usize) -> Option<String> {
    let mut k = from;
    let mut depth = 0i32;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_op("<") || t.is_op("::<") || t.is_op("(") {
            depth += 1;
        } else if t.is_op(">") || t.is_op(")") {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_op(",") || t.is_op("{") || t.is_ident("where")) {
            break;
        } else if depth == 0 {
            if let Some(id) = t.ident() {
                if !matches!(id, "Sized" | "Send" | "Sync" | "Copy" | "Clone") {
                    return Some(id.to_string());
                }
            }
        }
        k += 1;
    }
    None
}

/// Parses a function signature's return-type identifiers and generic bounds.
fn parse_signature(toks: &[Token], span: &FnSpan) -> (Vec<String>, BTreeMap<String, String>) {
    let mut bounds = BTreeMap::new();
    let mut ret = Vec::new();
    let mut k = span.start + 2;
    if toks.get(k).is_some_and(|t| t.is_op("<")) {
        k = parse_generic_bounds(toks, k, &mut bounds);
    }
    // Find `->` at paren depth 0 before the body.
    let mut paren = 0i32;
    while k < span.body_start.min(toks.len()) {
        let t = &toks[k];
        if t.is_op("(") || t.is_op("[") {
            paren += 1;
        } else if t.is_op(")") || t.is_op("]") {
            paren -= 1;
        } else if paren <= 0 && t.is_op("->") {
            let (r, _) = type_idents(toks, k + 1, &["{", ";"]);
            ret = r;
            break;
        }
        k += 1;
    }
    (ret, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn model(files: &[(&str, &str)]) -> (Workspace, Resolver) {
        let ws = Workspace::from_files(
            files
                .iter()
                .map(|(p, t)| SourceFile::from_str(p, t))
                .collect(),
        );
        let r = Resolver::build(&ws);
        (ws, r)
    }

    #[test]
    fn struct_fields_and_impl_attribution() {
        let (_, r) = model(&[(
            "crates/x/src/lib.rs",
            concat!(
                "pub struct Pool { shards: Vec<Mutex<Shard>>, disk: Arc<dyn Disk> }\n",
                "impl Pool {\n",
                "    fn with_page(&self) -> u32 { 1 }\n",
                "}\n",
            ),
        )]);
        let pool = r.struct_def("Pool", "x").expect("Pool parsed");
        assert_eq!(pool.fields[0].name, "shards");
        assert_eq!(pool.fields[0].ty, vec!["Vec", "Mutex", "Shard"]);
        assert_eq!(pool.fields[1].ty, vec!["Arc", "dyn", "Disk"]);
        let f = r.fns.iter().find(|f| f.name == "with_page").unwrap();
        assert_eq!(f.self_type.as_deref(), Some("Pool"));
        assert_eq!(f.ret, vec!["u32"]);
    }

    #[test]
    fn trait_bound_receivers_fan_out_to_impls() {
        let (ws, r) = model(&[(
            "crates/x/src/lib.rs",
            concat!(
                "trait View { fn adjacency(&self) -> u32; }\n",
                "pub struct Mono;\n",
                "impl View for Mono { fn adjacency(&self) -> u32 { 1 } }\n",
                "pub struct Part;\n",
                "impl View for Part { fn adjacency(&self) -> u32 { 2 } }\n",
                "pub struct Holder<S: View> { store: Arc<S> }\n",
                "impl<S: View> Holder<S> {\n",
                "    fn go(&self) -> u32 { self.store.adjacency() }\n",
                "}\n",
            ),
        )]);
        let go = r.fns.iter().position(|f| f.name == "go").unwrap();
        let file = &ws.files[0];
        // Find the `adjacency` call token inside `go`.
        let span = &file.fns[r.fns[go].span];
        let call = (span.body_start..span.end)
            .find(|&k| file.tokens[k].is_ident("adjacency"))
            .unwrap();
        let cands = r.resolve_call(&ws, go, call, 0);
        let names: Vec<String> = cands.iter().map(|&c| r.fns[c].qualified()).collect();
        assert_eq!(names, vec!["x::Mono::adjacency", "x::Part::adjacency"]);
    }

    #[test]
    fn guard_locals_get_the_lock_inner_type() {
        let (ws, r) = model(&[(
            "crates/x/src/lib.rs",
            concat!(
                "pub struct Set { inner: Vec<u32> }\n",
                "impl Set { fn shard_of(&self) -> u32 { 0 } }\n",
                "pub struct Pool { shards: RwLock<Set> }\n",
                "impl Pool {\n",
                "    fn go(&self) -> u32 {\n",
                "        let set = self.shards.read();\n",
                "        set.shard_of()\n",
                "    }\n",
                "}\n",
            ),
        )]);
        let go = r.fns.iter().position(|f| f.name == "go").unwrap();
        assert_eq!(r.locals[go].get("set"), Some(&vec!["Set".to_string()]));
        let file = &ws.files[0];
        let span = &file.fns[r.fns[go].span];
        let call = (span.body_start..span.end)
            .find(|&k| file.tokens[k].is_ident("shard_of"))
            .unwrap();
        let cands = r.resolve_call(&ws, go, call, 0);
        assert_eq!(cands.len(), 1);
        assert_eq!(r.fns[cands[0]].qualified(), "x::Set::shard_of");
    }

    #[test]
    fn unresolved_common_method_does_not_fan_out() {
        let (ws, r) = model(&[(
            "crates/x/src/lib.rs",
            concat!(
                "pub struct Cache;\n",
                "impl Cache { fn get(&self) -> u32 { 1 } }\n",
                "impl Cache { fn take(&self) -> u32 { 1 } }\n",
                "fn untyped(m: &SomeMap) -> u32 { m.get() + m.slot.take() }\n",
            ),
        )]);
        let untyped = r.fns.iter().position(|f| f.name == "untyped").unwrap();
        let file = &ws.files[0];
        let span = &file.fns[r.fns[untyped].span];
        // `m` is typed `SomeMap` (unknown struct) — no workspace match, and
        // `get` and `take` (`Option`'s, `Iterator`'s) are too common for the
        // name fallback.
        for method in ["get", "take"] {
            let call = (span.body_start..span.end)
                .find(|&k| file.tokens[k].is_ident(method))
                .unwrap();
            assert!(r.resolve_call(&ws, untyped, call, 0).is_empty(), "{method}");
        }
    }

    #[test]
    fn container_types_propagate_through_structs() {
        let (_, r) = model(&[(
            "crates/x/src/lib.rs",
            concat!(
                "pub struct Label { edges: Vec<u32> }\n",
                "pub struct Wrapper { label: Label }\n",
                "pub struct Flat { a: f64, b: u64 }\n",
            ),
        )]);
        assert!(r.is_container_type(&["Label".to_string()]));
        assert!(r.is_container_type(&["Wrapper".to_string()]));
        assert!(!r.is_container_type(&["Flat".to_string()]));
        // Arc shields a clone.
        assert!(!r.is_container_type(&["Arc".to_string(), "Label".to_string()]));
    }
}
