//! Runtime lock-order witness: the dynamic half of the `lock-order` lint.
//!
//! The static pass in `mcn-analyze` computes the acquisition-order graph
//! from source; this crate records the edges a real run *observes*.
//! Instrumented lock sites register every acquisition under a stable
//! class id — the same `crate::Type.field` / `crate::fn.var` strings the
//! static pass derives — and whenever a thread acquires class `B` while
//! holding class `A`, the edge `A → B` lands in a process-global set.
//! The cross-check test then asserts observed ⊆ static: a runtime edge
//! the static graph missed means the analyzer lost track of a guard.
//!
//! Everything here is gated on `cfg(debug_assertions)`. In release builds
//! [`acquire`] returns a zero-sized token and records nothing, so the
//! instrumented hot paths (buffer pool, disk, engine workers) pay no
//! cost. The CI concurrency job re-enables the witness in release via
//! `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true`.
//!
//! The crate is deliberately dependency-free (`std::sync` only): it is
//! linked from the storage layer upward and must not drag `parking_lot`
//! into a dependency cycle.

/// RAII token for one witnessed acquisition. Dropping it pops the class
/// from the thread's held stack — declare it immediately after the real
/// guard so it drops *before* the guard, keeping the held stack a
/// conservative subset of reality.
///
/// The token is `!Send`: the held stack is thread-local, so moving a
/// token across threads would unwind the wrong stack.
pub struct LockToken {
    #[cfg(debug_assertions)]
    class: &'static str,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for LockToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        imp::release(self.class);
    }
}

/// Records an acquisition of `class`: every class currently held by this
/// thread gains an observed edge to `class`. Returns the RAII token that
/// ends the hold. No-op without debug assertions.
pub fn acquire(class: &'static str) -> LockToken {
    #[cfg(debug_assertions)]
    imp::record(class);
    #[cfg(not(debug_assertions))]
    let _ = class;
    LockToken {
        #[cfg(debug_assertions)]
        class,
        _not_send: std::marker::PhantomData,
    }
}

/// True when the witness actually records (debug assertions on).
pub fn is_active() -> bool {
    cfg!(debug_assertions)
}

/// Every observed `(from, to)` edge so far, sorted. Empty in release.
pub fn observed_edges() -> Vec<(String, String)> {
    #[cfg(debug_assertions)]
    {
        imp::observed()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Clears the observed-edge set. Test isolation only.
pub fn reset() {
    #[cfg(debug_assertions)]
    imp::reset();
}

/// The observed edges as a deterministic JSON array, ready to diff
/// against the static `lock-order.json`:
///
/// ```json
/// [
///   { "from": "expansion::SharedAccess.adjacency", "to": "storage::BufferPool.shards" }
/// ]
/// ```
pub fn dump_json() -> String {
    let edges = observed_edges();
    if edges.is_empty() {
        return "[]".to_string();
    }
    let body: Vec<String> = edges
        .iter()
        .map(|(f, t)| {
            format!(
                "  {{ \"from\": \"{}\", \"to\": \"{}\" }}",
                escape(f),
                escape(t)
            )
        })
        .collect();
    format!("[\n{}\n]", body.join(",\n"))
}

/// Minimal JSON string escaping; class ids are plain identifiers but the
/// dump must stay valid JSON for any input.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(debug_assertions)]
mod imp {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};

    static REGISTRY: OnceLock<Mutex<BTreeSet<(&'static str, &'static str)>>> = OnceLock::new();

    fn registry() -> &'static Mutex<BTreeSet<(&'static str, &'static str)>> {
        REGISTRY.get_or_init(|| Mutex::new(BTreeSet::new()))
    }

    thread_local! {
        /// Classes this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    pub(crate) fn record(class: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if !held.is_empty() {
                // A witness panic must not poison the observed set.
                let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
                for &from in held.iter() {
                    reg.insert((from, class));
                }
            }
            held.push(class);
        });
    }

    pub(crate) fn release(class: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // rposition: with re-entrant same-class holds, the innermost
            // (latest) acquisition releases first.
            if let Some(pos) = held.iter().rposition(|&c| c == class) {
                held.remove(pos);
            }
        });
    }

    pub(crate) fn observed() -> Vec<(String, String)> {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.iter()
            .map(|&(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    pub(crate) fn reset() {
        registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn nested_holds_record_an_edge() {
        let _a = acquire("t1::A.x");
        let _b = acquire("t1::B.y");
        assert!(observed_edges().contains(&("t1::A.x".to_string(), "t1::B.y".to_string())));
    }

    #[test]
    fn sequential_holds_record_nothing() {
        {
            let _a = acquire("t2::A.x");
        }
        let _b = acquire("t2::B.y");
        let edges = observed_edges();
        assert!(!edges
            .iter()
            .any(|(f, t)| f.starts_with("t2::") && t.starts_with("t2::")));
    }

    #[test]
    fn drop_order_unwinds_the_held_stack() {
        let a = acquire("t3::A.x");
        let b = acquire("t3::B.y");
        drop(b);
        drop(a);
        // With the stack unwound, a fresh hold records no t3 edge from
        // the earlier tokens.
        let _c = acquire("t3::C.z");
        let edges = observed_edges();
        assert!(!edges.iter().any(|(_, t)| t == "t3::C.z"));
    }

    #[test]
    fn transitive_holds_record_every_pair() {
        let _a = acquire("t4::A.x");
        let _b = acquire("t4::B.y");
        let _c = acquire("t4::C.z");
        let edges = observed_edges();
        assert!(edges.contains(&("t4::A.x".to_string(), "t4::C.z".to_string())));
        assert!(edges.contains(&("t4::B.y".to_string(), "t4::C.z".to_string())));
    }

    #[test]
    fn dump_json_is_valid_and_sorted() {
        let _a = acquire("t5::A.x");
        let _b = acquire("t5::B.y");
        // The registry is process-global and the crate's tests run in
        // parallel, so another test's edge may land between the two dumps:
        // each dump must be sorted on its own, but only this test's `t5::`
        // entries are comparable across dumps.
        let own = |json: String| -> Vec<String> {
            assert!(json.starts_with("[\n") && json.ends_with("\n]"), "{json}");
            let entries: Vec<&str> = json[2..json.len() - 2]
                .lines()
                .map(|l| l.trim_end_matches(','))
                .collect();
            assert!(entries.windows(2).all(|w| w[0] < w[1]), "unsorted: {json}");
            entries
                .into_iter()
                .filter(|e| e.contains("t5::"))
                .map(str::to_string)
                .collect()
        };
        let first = own(dump_json());
        assert_eq!(first, ["  { \"from\": \"t5::A.x\", \"to\": \"t5::B.y\" }"]);
        assert_eq!(first, own(dump_json()));
    }
}
