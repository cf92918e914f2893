//! The per-expansion search state that is indexed by raw id: dense,
//! generation-stamped tables, kept per thread so one worker reuses them for
//! every query it serves.
//!
//! Node, facility and page ids are dense (`0..n`), so "best distance of node
//! `v`" is an array slot, not a hash probe. An entry is *occupied* iff its
//! stamp equals the table's current generation; emptying the table for the
//! next query is one counter increment, whatever the previous query touched.

use mcn_storage::AdjacencyEntry;
use std::cell::RefCell;

/// `id → (best key, done flag)` over the ids `0..len`, cleared in O(1).
///
/// It replaces a `HashMap<Id, f64>` ("best key seen") together with a
/// `HashSet<Id>` ("settled" / "emitted") and keeps their semantics: a vacant
/// entry accepts any key, an occupied one only a strictly smaller key.
#[derive(Default)]
pub(crate) struct StampedTable {
    /// Never 0 after the first [`StampedTable::reset`]; stamp 0 means "never
    /// written".
    generation: u32,
    stamps: Vec<u32>,
    keys: Vec<f64>,
    done: Vec<bool>,
}

impl StampedTable {
    /// Empties the table and makes the ids `0..len` addressable. The vectors
    /// only ever grow, to exactly the largest `len` asked for (no amortised
    /// doubling: this memory is held for as long as its thread lives).
    pub(crate) fn reset(&mut self, len: usize) {
        fn grow<T: Clone>(v: &mut Vec<T>, len: usize, vacant: T) {
            v.reserve_exact(len - v.len());
            v.resize(len, vacant);
        }
        if self.stamps.len() < len {
            grow(&mut self.stamps, len, 0);
            grow(&mut self.keys, len, 0.0);
            grow(&mut self.done, len, false);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // 2^32 − 1 queries later the counter wraps: a slot last written
            // in generation g would look occupied again in generation g.
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// The entry of `id`, if occupied: its best key and its done flag.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> Option<(f64, bool)> {
        let i = id as usize;
        (self.stamps[i] == self.generation).then(|| (self.keys[i], self.done[i]))
    }

    /// Records `key` for `id` if the entry is vacant or `key` is strictly
    /// smaller than the recorded one. Returns whether it was recorded.
    #[inline]
    pub(crate) fn improve(&mut self, id: u32, key: f64) -> bool {
        let i = id as usize;
        if self.stamps[i] == self.generation {
            if key < self.keys[i] {
                self.keys[i] = key;
                true
            } else {
                false
            }
        } else {
            self.stamps[i] = self.generation;
            self.keys[i] = key;
            self.done[i] = false;
            true
        }
    }

    /// True iff `id` is occupied and flagged done.
    #[inline]
    pub(crate) fn is_done(&self, id: u32) -> bool {
        let i = id as usize;
        self.stamps[i] == self.generation && self.done[i]
    }

    /// Flags the occupied entry of `id` as done (settled / emitted).
    #[inline]
    pub(crate) fn mark_done(&mut self, id: u32) {
        let i = id as usize;
        debug_assert_eq!(self.stamps[i], self.generation, "only reached ids finish");
        self.done[i] = true;
    }
}

/// The reusable state of one expansion: its two tables and the buffer the
/// adjacency record of the node being settled is decoded into.
#[derive(Default)]
pub(crate) struct Tables {
    /// Per node: best known (not necessarily final) distance; done = settled
    /// (the distance is final and the adjacency has been consumed).
    pub(crate) nodes: StampedTable,
    /// Per facility: best en-heaped key; done = already reported (a facility
    /// can be en-heaped from both end-nodes of its edge).
    pub(crate) facilities: StampedTable,
    /// Scratch for one adjacency record at a time; only its capacity (the
    /// largest degree met so far) outlives a settle.
    pub(crate) adjacency: Vec<AdjacencyEntry>,
}

thread_local! {
    /// This thread's idle table sets. An [`crate::Expansion`] takes one when
    /// it is built and hands it back when it is dropped, so a thread serving
    /// many queries — an engine worker, for the length of a batch — pays for
    /// `d` sets once instead of per query. The search cannot tell a reused
    /// set from a new one.
    static IDLE: RefCell<Vec<Tables>> = const { RefCell::new(Vec::new()) };
}

impl Tables {
    /// An emptied set covering `num_nodes` / `num_facilities` ids: one of
    /// this thread's idle sets, or a new one.
    pub(crate) fn take(num_nodes: usize, num_facilities: usize) -> Self {
        let mut tables = IDLE
            .try_with(|idle| idle.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        tables.nodes.reset(num_nodes);
        tables.facilities.reset(num_facilities);
        tables.adjacency.clear();
        tables
    }

    /// Makes the set idle on the calling thread. During thread exit, once
    /// the idle list is gone, the set is freed instead.
    pub(crate) fn give_back(self) {
        let _ = IDLE.try_with(|idle| idle.borrow_mut().push(self));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expansion::tests::line_store;
    use crate::{seeds_for_location, DirectAccess, Expansion, ExpansionStep, FacilityMode};
    use mcn_graph::{NetworkLocation, NodeId};
    use mcn_storage::MCNStore;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// One query's worth of table traffic: (id, key, mark done afterwards).
    type Ops = Vec<(u32, u8, bool)>;

    /// Replays `ops` on the table and on a map + flag model of the
    /// `HashMap` the table replaced, comparing every answer.
    fn replay(table: &mut StampedTable, len: usize, ops: &Ops) {
        table.reset(len);
        let mut model: BTreeMap<u32, (f64, bool)> = BTreeMap::new();
        for id in 0..len as u32 {
            assert_eq!(table.get(id), None, "id {id} survived a reset");
            assert!(!table.is_done(id));
        }
        for &(id, key, finish) in ops {
            let id = id % len as u32;
            let key = f64::from(key);
            let accepted = match model.get_mut(&id) {
                Some((best, _)) if key < *best => {
                    *best = key;
                    true
                }
                Some(_) => false,
                None => {
                    model.insert(id, (key, false));
                    true
                }
            };
            assert_eq!(table.improve(id, key), accepted);
            if finish {
                model.get_mut(&id).expect("just offered").1 = true;
                table.mark_done(id);
            }
            assert_eq!(table.get(id), model.get(&id).copied());
            assert_eq!(table.is_done(id), model[&id].1);
        }
        for id in 0..len as u32 {
            assert_eq!(table.get(id), model.get(&id).copied());
        }
    }

    proptest! {
        #[test]
        fn stamped_table_matches_a_hash_map_across_generations(
            queries in proptest::collection::vec(
                (1usize..40, proptest::collection::vec((0u32..1000, 0u8..8, any::<bool>()), 0..60)),
                1..12,
            ),
            wrap_at in 0usize..12,
        ) {
            let mut table = StampedTable::default();
            for (q, (len, ops)) in queries.iter().enumerate() {
                if q == wrap_at {
                    // Two resets from here the counter wraps past zero.
                    table.generation = u32::MAX - 1;
                }
                // Lengths vary per query: a later one may address more ids
                // than the table was first sized for, or fewer.
                replay(&mut table, *len, ops);
            }
        }
    }

    #[test]
    fn wrap_around_forgets_entries_of_the_colliding_generation() {
        let mut table = StampedTable::default();
        table.reset(4);
        assert_eq!(table.generation, 1);
        assert!(table.improve(2, 5.0));
        table.mark_done(2);
        // Generations 2 ..= u32::MAX pass without touching id 2 …
        table.generation = u32::MAX;
        // … and the next reset wraps: without the refill, generation 1 would
        // come round again and resurrect the stale entry.
        table.reset(4);
        assert_eq!(table.generation, 1);
        assert_eq!(table.get(2), None);
        assert!(!table.is_done(2));
        assert!(table.improve(2, 9.0), "a vacant entry accepts any key");
    }

    /// This thread's number of idle table sets.
    fn idle() -> usize {
        IDLE.with(|idle| idle.borrow().len())
    }

    /// Runs `f` on a new thread, whose idle list starts empty.
    fn on_new_thread(f: impl FnOnce() + Send) {
        std::thread::scope(|s| {
            s.spawn(f);
        });
    }

    #[test]
    fn tables_grow_to_the_largest_request_and_are_sized_exactly() {
        on_new_thread(|| {
            let small = Tables::take(10, 7);
            assert_eq!(small.nodes.stamps.len(), 10);
            assert_eq!(small.nodes.stamps.capacity(), 10);
            assert_eq!(small.facilities.keys.capacity(), 7);
            small.give_back();
            assert_eq!(idle(), 1);
            let mut large = Tables::take(11, 7);
            assert_eq!(idle(), 0);
            assert_eq!(large.nodes.stamps.len(), 11);
            assert_eq!(large.nodes.keys.capacity(), 11);
            assert_eq!(large.nodes.get(10), None);
            assert!(large.nodes.improve(10, 1.0));
            assert_eq!(large.nodes.get(10), Some((1.0, false)));
            // A smaller network afterwards keeps the larger tables.
            large.give_back();
            assert_eq!(Tables::take(5, 5).nodes.stamps.len(), 11);
        });
    }

    #[test]
    fn the_decode_buffer_comes_back_empty_with_its_capacity() {
        on_new_thread(|| {
            let mut tables = Tables::take(4, 4);
            assert_eq!(
                tables.adjacency.capacity(),
                0,
                "nothing until a node settles"
            );
            // An expansion dropped mid-way hands back whatever record it
            // last decoded.
            let entry = AdjacencyEntry {
                neighbor: mcn_graph::NodeId::new(1),
                edge: mcn_graph::EdgeId::new(0),
                traversable: true,
                costs: mcn_graph::CostVec::zeros(2),
                facilities: None,
            };
            tables.adjacency.extend([entry; 5]);
            tables.give_back();
            let tables = Tables::take(4, 4);
            assert!(tables.adjacency.is_empty());
            assert!(tables.adjacency.capacity() >= 5);
        });
    }

    fn expansion(store: &Arc<MCNStore>, cost_type: usize) -> Expansion<DirectAccess> {
        let access = Arc::new(DirectAccess::new(store.clone()));
        let seeds = seeds_for_location(access.as_ref(), NetworkLocation::Node(NodeId::new(0)));
        Expansion::new(access, cost_type, &seeds, FacilityMode::All)
    }

    fn run_out(ex: &mut Expansion<DirectAccess>) -> Vec<ExpansionStep> {
        std::iter::from_fn(|| Some(ex.advance()))
            .take_while(|s| *s != ExpansionStep::Exhausted)
            .collect()
    }

    #[test]
    fn every_expansion_hands_its_tables_back_finished_or_half_run() {
        let store = line_store().0;
        on_new_thread(|| {
            let mut peak = 0;
            // Live expansions per round: the idle list holds at most the
            // most that were ever live at once.
            for live in [3, 1, 2, 4, 2] {
                let mut ex: Vec<_> = (0..live).map(|i| expansion(&store, i % 2)).collect();
                peak = usize::max(peak, live);
                assert_eq!(idle(), peak - live);
                // Even ones run out, odd ones stop after one step.
                for (i, e) in ex.iter_mut().enumerate() {
                    if i % 2 == 0 {
                        run_out(e);
                    } else {
                        e.advance();
                    }
                }
                drop(ex);
                assert_eq!(idle(), peak);
            }
        });
    }

    #[test]
    fn an_expansion_dropped_on_another_thread_changes_no_result() {
        let store = line_store().0;
        let reference = run_out(&mut expansion(&store, 1));
        on_new_thread(|| {
            let mut ex = expansion(&store, 1);
            let mut steps: Vec<_> = (0..3).map(|_| ex.advance()).collect();
            // Finished and dropped elsewhere: the tables go to that
            // thread's idle list, not back to this one.
            std::thread::scope(|s| {
                s.spawn(|| {
                    steps.extend(run_out(&mut ex));
                    drop(ex);
                    assert_eq!(idle(), 1);
                });
            });
            assert_eq!(idle(), 0);
            assert_eq!(steps, reference);
            // This thread's next expansion starts on new tables and still
            // gives the same steps.
            assert_eq!(run_out(&mut expansion(&store, 1)), reference);
            assert_eq!(idle(), 1);
        });
    }
}
