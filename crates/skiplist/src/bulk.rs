//! Single-owner bulk construction: lay out a sorted key sequence as level-0 nodes and
//! towers directly, with no CAS retry loops and no per-key descent.
//!
//! Building a skiplist of `n` keys through `n` concurrent [`SkipList::insert`] calls
//! pays, per key, a full multi-level search, a link CAS (with retry loops), one
//! DCSS-guarded raise per tower level, and a `fixPrev` pass for top-level nodes —
//! machinery that exists solely to survive *other threads*. A cold start (restoring a
//! checkpoint, ingesting a sorted file) has no other threads: the caller holds
//! `&mut self`, so the Rust borrow rules prove exclusivity statically, and every link
//! can be a plain store.
//!
//! [`SkipList::bulk_load_sorted`] exploits this: one pass over a strictly increasing
//! `(key, value)` iterator, appending each key's tower behind a per-level `last`
//! cursor — `O(n)` total work, `O(levels)` auxiliary state. The resulting structure is
//! *indistinguishable* from one built by sequential inserts of the same keys:
//!
//! * tower heights are drawn from the same geometric sampler
//!   ([`crate::height::sample_height`]) the insert path uses;
//! * every node carries the same field discipline (`down`, `root`, `orig_height`,
//!   poisoned-then-initialized pool memory with its incarnation preserved);
//! * top-level nodes join the doubly-linked list with `prev` pointing at their
//!   predecessor and `ready` set, exactly as `fixPrev` would leave them;
//! * the occupancy counter ends at `n`, as if `n` inserts had linearized.
//!
//! Callers that need the x-fast trie populated on top (the SkipTrie) consume the
//! returned [`BulkLoadReport::tops`] — keys and packed words of the nodes that
//! reached the top level, in key order.

use std::sync::atomic::Ordering;

use skiptrie_atomics::tagged;

use crate::height::sample_height;
use crate::node::Node;
use crate::SkipList;

/// What [`SkipList::bulk_load_sorted`] built.
pub struct BulkLoadReport {
    /// Number of keys laid out (every input key: the input is duplicate-free).
    pub keys: usize,
    /// `(key, packed node word)` of the nodes that reached the top level, in
    /// increasing key order (see [`crate::NodeRef::packed`]). The SkipTrie
    /// publishes these in its x-fast trie; reconstruct them with
    /// [`crate::NodeRef::from_packed`] while the structure is alive.
    pub tops: Vec<(u64, u64)>,
}

impl<V> SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Builds the list's entire contents from a strictly increasing `(key, value)`
    /// sequence in `O(n)`, bypassing the concurrent insert protocol (see the
    /// [module docs](self) for why `&mut self` makes that safe and what
    /// "indistinguishable from sequential inserts" means).
    ///
    /// # Panics
    ///
    /// Panics if the list is not empty (and physically quiescent — every level must
    /// run head-to-tail with no remnants), or if the keys are not strictly
    /// increasing.
    ///
    /// # Examples
    ///
    /// ```
    /// use skiptrie_skiplist::{SkipList, SkipListConfig};
    ///
    /// let mut list: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(32));
    /// let report = list.bulk_load_sorted((0..1_000u64).map(|k| (k * 3, k)));
    /// assert_eq!(report.keys, 1_000);
    /// assert_eq!(list.len(), 1_000);
    /// assert_eq!(list.get(999 * 3), Some(999));
    /// assert_eq!(list.predecessor(4), Some((3, 1)));
    /// ```
    pub fn bulk_load_sorted<I>(&mut self, entries: I) -> BulkLoadReport
    where
        I: IntoIterator<Item = (u64, V)>,
    {
        assert!(
            self.is_empty(),
            "bulk_load_sorted requires an empty skiplist"
        );
        let top = self.top_level();
        for level in 0..self.levels() {
            // `&mut self` guarantees quiescence, so "empty" must also mean physically
            // empty: a marked remnant still linked on some level would end up ahead
            // of the bulk-loaded run and violate key order.
            let next = self.head(level).next.load(Ordering::SeqCst);
            assert!(
                std::ptr::eq(
                    tagged::unpack::<Node<V>>(tagged::untagged(next)),
                    self.tail(level)
                ),
                "bulk_load_sorted requires physically empty levels (level {level} has remnants)"
            );
        }

        // The per-level append cursor: the last node linked on each level (initially
        // the head sentinel). New towers are appended behind it with plain stores.
        let mut last: Vec<*const Node<V>> = (0..self.levels())
            .map(|l| self.head(l) as *const _)
            .collect();
        let seed = self.config().seed;
        let mut prev_key: Option<u64> = None;
        let mut count = 0usize;
        let mut tops = Vec::new();

        for (key, value) in entries {
            assert!(
                prev_key.is_none_or(|p| p < key),
                "bulk_load_sorted requires strictly increasing keys (saw {key} after {prev_key:?})"
            );
            prev_key = Some(key);
            // Same geometric height distribution as the insert path, so the loaded
            // structure has the statistics every bound relies on.
            let height = sample_height(seed, top);

            // Level 0 (root) node: value-carrying, root = self.
            let root_ptr = self.pool().acquire();
            let root_word = tagged::pack(root_ptr as *const Node<V>);
            // `Relaxed` initialization: `SkipList::init_node`'s `SeqCst` stores (a
            // full fence each on x86) exist for publication racing concurrent
            // readers; under `&mut self` there are none, and the eventual handoff
            // that shares the structure carries the publishing edge.
            self.init_node_ordered(
                root_ptr,
                key,
                0,
                height,
                tagged::NULL,
                root_word,
                tagged::pack(self.tail(0) as *const Node<V>),
                Some(value),
                Ordering::Relaxed,
            );
            // SAFETY: `last[0]` is the head sentinel or a node this call created;
            // `&mut self` excludes all other access.
            unsafe { (*last[0]).next.store(root_word, Ordering::Relaxed) };
            last[0] = root_ptr;

            // Upper tower nodes, bottom-up, linked by `down` and sharing the root.
            let mut lower_word = root_word;
            for level in 1..=height {
                let ptr = self.pool().acquire();
                let word = tagged::pack(ptr as *const Node<V>);
                self.init_node_ordered(
                    ptr,
                    key,
                    level,
                    height,
                    lower_word,
                    root_word,
                    tagged::pack(self.tail(level) as *const Node<V>),
                    None,
                    Ordering::Relaxed,
                );
                if level == top {
                    // Join the doubly-linked top level exactly as `fixPrev` would:
                    // `prev` = the current top-level predecessor (head or the
                    // previous top key), `ready` set. (A single-level list — top
                    // level 0 — matches the insert path by *not* maintaining guides.)
                    let prev_word = tagged::pack(last[top as usize]);
                    // SAFETY: the node is not yet reachable; exclusive access.
                    unsafe {
                        (*ptr).prev.store(prev_word, Ordering::Relaxed);
                        (*ptr).ready.store(1, Ordering::Relaxed);
                    }
                    tops.push((key, word));
                }
                // SAFETY: as for level 0.
                unsafe { (*last[level as usize]).next.store(word, Ordering::Relaxed) };
                last[level as usize] = ptr;
                lower_word = word;
            }
            count += 1;
            // Counted per key (uncontended `Relaxed` add), not once at the end: if
            // the input iterator panics mid-build, the structure stays consistent —
            // every linked key is counted, so `len()`/`is_empty()` agree with the
            // contents a caller that catches the unwind would observe.
            self.len_counter().fetch_add(1, Ordering::Relaxed);
        }
        BulkLoadReport { keys: count, tops }
    }
}

#[cfg(test)]
mod tests {
    use crate::{SkipList, SkipListConfig};

    fn loaded(n: u64) -> SkipList<u64> {
        let mut list = SkipList::new(SkipListConfig::for_universe_bits(32).with_seed(5));
        list.bulk_load_sorted((0..n).map(|k| (k * 7, k)));
        list
    }

    #[test]
    fn bulk_load_matches_sequential_inserts_observationally() {
        let bulk = loaded(3_000);
        let seq = SkipList::new(SkipListConfig::for_universe_bits(32).with_seed(5));
        for k in 0..3_000u64 {
            assert!(seq.insert(k * 7, k));
        }
        assert_eq!(bulk.len(), seq.len());
        assert_eq!(bulk.to_vec(), seq.to_vec());
        for probe in (0..21_000u64).step_by(97) {
            assert_eq!(bulk.predecessor(probe), seq.predecessor(probe), "{probe}");
            assert_eq!(bulk.successor(probe), seq.successor(probe), "{probe}");
            assert_eq!(bulk.get(probe), seq.get(probe), "{probe}");
        }
        // Node counts may differ from `seq` (independent height draws), so only
        // require the audit to pass and to have visited at least every level-0 key.
        assert!(bulk.check_traversal_integrity() >= bulk.len());
    }

    #[test]
    fn bulk_loaded_list_supports_mutation_afterwards() {
        let list = loaded(1_000);
        // Regular concurrent-protocol operations compose with the bulk-built state.
        assert!(!list.insert(7, 999), "key 7 = 1*7 already present");
        assert!(list.insert(5, 555), "fresh key between loaded keys");
        assert_eq!(list.remove(0), Some(0));
        assert_eq!(list.remove(5), Some(555));
        assert_eq!(list.pop_first(), Some((7, 1)));
        assert_eq!(list.pop_last(), Some((999 * 7, 999)));
        assert_eq!(list.len(), 997);
        list.check_traversal_integrity();
    }

    #[test]
    fn bulk_load_populates_towers_and_guides() {
        let list = loaded(4_000);
        let lengths = list.level_lengths();
        assert_eq!(lengths[0], 4_000);
        for window in lengths.windows(2) {
            assert!(window[1] <= window[0], "denser above: {lengths:?}");
        }
        assert!(
            *lengths.last().unwrap() > 0,
            "4000 keys populate the top level w.h.p."
        );
        let tops = list.top_level_keys();
        assert!(tops.windows(2).all(|w| w[0] < w[1]), "top keys sorted");
    }

    #[test]
    fn bulk_load_report_lists_top_nodes_in_order() {
        let mut list: SkipList<u64> =
            SkipList::new(SkipListConfig::for_universe_bits(32).with_seed(9));
        let report = list.bulk_load_sorted((0..4_000u64).map(|k| (k, k)));
        assert_eq!(report.keys, 4_000);
        let tops = list.top_level_keys();
        assert_eq!(report.tops.len(), tops.len());
        let guard = list.pin();
        let reported: Vec<u64> = report
            .tops
            .iter()
            .map(|&(key, w)| {
                // SAFETY: words of live top-level nodes of `list`, under a pin.
                let node =
                    unsafe { crate::NodeRef::<u64>::from_packed(w, &guard) }.expect("non-null");
                assert_eq!(node.key(), key, "report pairs keys with their nodes");
                key
            })
            .collect();
        assert_eq!(reported, tops);
    }

    #[test]
    fn empty_bulk_load_is_fine() {
        let mut list: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(16));
        let report = list.bulk_load_sorted(std::iter::empty());
        assert_eq!(report.keys, 0);
        assert!(report.tops.is_empty());
        assert!(list.is_empty());
        assert!(list.insert(1, 1));
    }

    #[test]
    fn single_level_list_bulk_load() {
        let mut list: SkipList<u64> = SkipList::new(SkipListConfig {
            levels: 1,
            mode: skiptrie_atomics::dcss::DcssMode::Descriptor,
            seed: 1,
            domain: None,
        });
        let report = list.bulk_load_sorted([(1u64, 10u64), (2, 20), (3, 30)]);
        assert_eq!(report.keys, 3);
        // Top level 0: the insert path never reports/links top nodes there either.
        assert!(report.tops.is_empty());
        assert_eq!(list.keys(), vec![1, 2, 3]);
        assert_eq!(list.pop_first(), Some((1, 10)));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_input_panics() {
        let mut list: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(16));
        let _ = list.bulk_load_sorted([(5u64, 0u64), (4, 0)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_input_panics() {
        let mut list: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(16));
        let _ = list.bulk_load_sorted([(5u64, 0u64), (5, 1)]);
    }

    #[test]
    #[should_panic(expected = "empty skiplist")]
    fn non_empty_list_panics() {
        let mut list: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(16));
        list.insert(1, 1);
        let _ = list.bulk_load_sorted([(2u64, 2u64)]);
    }
}
