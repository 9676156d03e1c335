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
//! * every key gets the tower height the insert path gives it
//!   ([`crate::height::key_height`]), so the towers are the same ones;
//! * every node carries the same field discipline (`down`, `root`, `orig_height`,
//!   poisoned-then-initialized pool memory with its incarnation preserved);
//! * top-level nodes join the doubly-linked list with `prev` pointing at their
//!   predecessor, exactly as `fixPrev` would leave them;
//! * the occupancy counter ends at `n`, as if `n` inserts had linearized.
//!
//! Nodes come from the pool a slab run at a time (`Run` in `pool.rs`): pooled
//! nodes first, then fresh strides of the newest slab, taken under one lock per
//! slab rather than a lock and a counter update per node. Each run knows how many
//! nodes are left to take (the input's `size_hint` for level 0, a lower estimate
//! from the height distribution above), and while at least a 2-MiB arena's worth
//! is left its new slabs are arenas on huge pages. The run gives its unused tail
//! back, so the pool's counts are the ones node-by-node carving would leave, and
//! an overstated hint leaves the rest of its arena to later inserts.
//!
//! Callers that need the x-fast trie populated on top (the SkipTrie) consume the
//! returned [`BulkLoadReport::tops`] — keys and packed words of the nodes that
//! reached the top level, in key order.

use std::sync::atomic::{AtomicUsize, Ordering};

use skiptrie_atomics::tagged;

use crate::height::key_height;
use crate::node::{Leaf, Node, Role, Tower};
use crate::pool::Run;
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
    /// "indistinguishable from sequential inserts" means). Takes no lock per node:
    /// fresh nodes are carved a slab run at a time, after the pooled ones.
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
        // Every key linked is counted into the occupancy counter once, when the
        // load ends, or while a panic in the input unwinds it: either way
        // `len()`/`is_empty()` agree with the contents a caller that catches the
        // unwind would observe, and no key pays an atomic add.
        let mut linked = Linked {
            counter: self.len_counter(),
            keys: 0,
        };
        let mut tops = Vec::new();
        // Fresh nodes come a slab run at a time, pooled ones first. Each run is told
        // how many nodes will follow at least, so a load large enough to fill
        // whole 2-MiB arenas gets them (`pool.rs`).
        let entries = entries.into_iter();
        let keys = entries.size_hint().0;
        let mut leaves = Run::new(self.pool(), Role::Leaf, Leaf::empty, keys);
        let mut towers = Run::new(
            self.pool(),
            Role::Tower,
            Tower::empty,
            towers_at_least(keys, top),
        );

        for (key, value) in entries {
            assert!(
                prev_key.is_none_or(|p| p < key),
                "bulk_load_sorted requires strictly increasing keys (saw {key} after {prev_key:?})"
            );
            prev_key = Some(key);
            // The height the insert path gives this key, so the loaded towers are
            // the ones inserts would have built.
            let height = key_height(key, seed, top);

            // Level 0 (root) node: value-carrying, root = self.
            let root_ptr = leaves.take();
            let root_word = tagged::pack(root_ptr);
            // `Relaxed` initialization: the insert path's `SeqCst` stores (a full
            // fence each on x86) exist for publication racing concurrent readers;
            // under `&mut self` there are none, and the eventual handoff that shares
            // the structure carries the publishing edge.
            // SAFETY: `root_ptr` is fresh from the run and `last[0]` is the head
            // sentinel or a node this call created; `&mut self` excludes all other
            // access.
            unsafe {
                (*root_ptr).init(
                    key,
                    height,
                    tagged::pack(self.tail(0) as *const Node<V>),
                    value,
                    Ordering::Relaxed,
                );
                (*last[0]).next.store(root_word, Ordering::Relaxed);
            }
            last[0] = root_ptr.cast::<Node<V>>();

            // Upper tower nodes, bottom-up, linked by `down` and sharing the root.
            let mut lower_word = root_word;
            for level in 1..=height {
                let ptr = towers.take();
                let word = tagged::pack(ptr);
                // SAFETY: as for level 0.
                unsafe {
                    (*ptr).init(
                        key,
                        level,
                        height,
                        lower_word,
                        root_word,
                        tagged::pack(self.tail(level) as *const Node<V>),
                        Ordering::Relaxed,
                    );
                }
                if level == top {
                    // Join the doubly-linked top level exactly as `fixPrev` would:
                    // `prev` = the current top-level predecessor (head or the
                    // previous top key). (A single-level list — top level 0 — keeps
                    // no guides: a level-0 node has no `prev`.)
                    let prev_word = tagged::pack(last[top as usize]);
                    // SAFETY: the node is not yet reachable; exclusive access.
                    unsafe { (*ptr).prev.store(prev_word, Ordering::Relaxed) };
                    tops.push((key, word));
                }
                // SAFETY: as for level 0.
                unsafe { (*last[level as usize]).next.store(word, Ordering::Relaxed) };
                last[level as usize] = ptr.cast::<Node<V>>();
                lower_word = word;
            }
            linked.keys += 1;
        }
        BulkLoadReport {
            keys: linked.keys,
            tops,
        }
    }
}

/// A lower estimate of the tower nodes `keys` keys build under a top level `top`.
/// A key's tower has `1 - 2^-top` nodes above level 0 on average; 90 % of that
/// stays below the actual count for any load whose towers could fill an arena
/// (at 32 768 keys the count's standard deviation is under 1 % of its mean).
fn towers_at_least(keys: usize, top: u8) -> usize {
    (keys as f64 * 0.9 * (1.0 - 0.5f64.powi(i32::from(top)))) as usize
}

/// Keys a bulk load has linked, added to the list's occupancy counter on drop.
struct Linked<'a> {
    counter: &'a AtomicUsize,
    keys: usize,
}

impl Drop for Linked<'_> {
    fn drop(&mut self) {
        self.counter.fetch_add(self.keys, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;

    use crossbeam_epoch as epoch;

    use crate::node::Role;
    use crate::pool::{ARENA, MAX_SLAB};
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
        assert_eq!(bulk.level_lengths(), seq.level_lengths(), "same towers");
        assert!(bulk.check_traversal_integrity() >= bulk.len());
    }

    #[test]
    fn bulk_load_builds_the_towers_concurrent_shuffled_inserts_build() {
        let keys: Vec<u64> = (0..4_000u64).map(|k| k * 7).collect();
        let mut bulk = SkipList::new(SkipListConfig::for_universe_bits(32).with_seed(5));
        bulk.bulk_load_sorted(keys.iter().map(|&k| (k, k)));

        // The same keys in a scrambled order, dealt to two fresh threads.
        let mut shuffled = keys.clone();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let inserted = SkipList::new(SkipListConfig::for_universe_bits(32).with_seed(5));
        std::thread::scope(|scope| {
            for half in shuffled.chunks(shuffled.len() / 2) {
                let inserted = &inserted;
                scope.spawn(move || {
                    for &k in half {
                        assert!(inserted.insert(k, k));
                    }
                });
            }
        });

        assert_eq!(inserted.level_lengths(), bulk.level_lengths());
        assert_eq!(inserted.top_level_keys(), bulk.top_level_keys());
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

    /// `(key, address)` of every data node linked on any level.
    fn linked_nodes(list: &SkipList<u64>) -> Vec<(u64, usize)> {
        let guard = list.pin();
        let mut nodes = Vec::new();
        for level in 0..list.levels() {
            list.walk_level(level, &guard, |node| {
                nodes.push((node.key.load(Ordering::Relaxed), node as *const _ as usize))
            });
        }
        nodes
    }

    #[test]
    fn a_bulk_load_counts_what_it_links_and_carving_goes_on_where_it_stopped() {
        let config = SkipListConfig::for_universe_bits(32).with_seed(5);
        let sentinels = SkipList::<u64>::new(config).allocation_stats().0;
        let bulk = loaded(3_000);
        let linked = linked_nodes(&bulk);
        assert_eq!(linked.len(), bulk.level_lengths().iter().sum::<usize>());
        assert_eq!(
            bulk.allocation_stats().0,
            sentinels + linked.len(),
            "one count per node linked"
        );
        // The same nodes carved one at a time hold the same slabs.
        let seq = SkipList::new(config);
        for k in 0..3_000u64 {
            assert!(seq.insert(k * 7, k));
        }
        assert_eq!(bulk.allocation_stats(), seq.allocation_stats());
        assert_eq!(bulk.approx_node_bytes(), seq.approx_node_bytes());

        let held: HashSet<usize> = linked.iter().map(|&(_, at)| at).collect();
        for key in [1u64, 2, 3, 4] {
            assert!(bulk.insert(key, key) && seq.insert(key, key));
        }
        let fresh: Vec<usize> = linked_nodes(&bulk)
            .into_iter()
            .filter(|&(key, _)| (1..=4).contains(&key))
            .map(|(_, at)| at)
            .collect();
        assert!(fresh.len() >= 4);
        assert!(
            fresh.iter().all(|at| !held.contains(at)),
            "an insert got a node a loaded key holds"
        );
        bulk.check_traversal_integrity();
        assert_eq!(bulk.allocation_stats(), seq.allocation_stats());
        assert_eq!(bulk.approx_node_bytes(), seq.approx_node_bytes());
    }

    #[test]
    fn a_bulk_load_takes_pooled_nodes_before_it_carves() {
        const DOMAIN: usize = 10;
        let config = SkipListConfig::for_universe_bits(32)
            .with_seed(5)
            .with_domain(DOMAIN);
        let mut list = SkipList::new(config);
        let sentinels = list.allocation_stats().0;
        let n = 2_000u64;
        for k in 0..n {
            assert!(list.insert(k * 7, k));
        }
        for k in 0..n {
            assert_eq!(list.remove(k * 7), Some(k));
        }
        let (carved, ..) = list.allocation_stats();
        for _ in 0..10_000 {
            if list.allocation_stats().2 == carved - sentinels {
                break;
            }
            epoch::pin_domain(DOMAIN).flush();
            std::thread::yield_now();
        }
        assert_eq!(
            list.allocation_stats().2,
            carved - sentinels,
            "every removed node is pooled"
        );
        list.bulk_load_sorted((0..n).map(|k| (k * 7, k)));
        assert_eq!(
            list.allocation_stats().0,
            carved,
            "every node came from the pool"
        );
        assert_eq!(list.allocation_stats().2, 0);
        assert_eq!(list.len(), n as usize);
        list.check_traversal_integrity();
    }

    /// The config of the arena tests' lists: an epoch domain of their own, so their
    /// long pins (walks of 10^5 nodes) hold back no other test's reclamation.
    fn arena_config() -> SkipListConfig {
        SkipListConfig::for_universe_bits(32)
            .with_seed(5)
            .with_domain(11)
    }

    /// `arena_config()` loaded with the keys `0, 7, 14, …` below `7 n`.
    fn arena_loaded(n: u64) -> SkipList<u64> {
        let mut list = SkipList::new(arena_config());
        list.bulk_load_sorted((0..n).map(|k| (k * 7, k)));
        list
    }

    /// Start addresses of `list`'s arenas, both layouts.
    fn arenas(list: &SkipList<u64>) -> Vec<usize> {
        [Role::Leaf, Role::Tower]
            .into_iter()
            .flat_map(|role| list.pool().slabs_of(role))
            .filter(|&(_, bytes)| bytes == ARENA)
            .map(|(start, _)| start)
            .collect()
    }

    #[test]
    fn a_load_of_several_arenas_of_nodes_carves_each_arena_whole() {
        let n = 4 * ARENA / 64;
        let list = arena_loaded(n as u64);
        let held: HashSet<usize> = linked_nodes(&list).into_iter().map(|(_, at)| at).collect();
        let arenas = arenas(&list);
        assert!(arenas.len() > 3, "{} arenas for {n} keys", arenas.len());
        for &start in &arenas {
            assert!(start.is_multiple_of(ARENA), "an arena is 2-MiB-aligned");
            assert!(
                (start..start + ARENA)
                    .step_by(64)
                    .all(|at| held.contains(&at)),
                "every line of an arena holds a linked node"
            );
        }
        let (carved, recycled, pooled) = list.allocation_stats();
        assert_eq!((recycled, pooled), (0, 0));
        assert_eq!(
            carved,
            list.level_lengths().iter().sum::<usize>() + 2 * usize::from(list.levels())
        );
        assert!(
            list.approx_node_bytes() <= carved * 64 + 2 * MAX_SLAB,
            "{} slab bytes for {carved} nodes: more than one slab of slack per layout",
            list.approx_node_bytes()
        );
        // Four arenas hold every key's level-0 node; the rest of the sentinels'
        // slab, skipped for them, goes to the next insert.
        let leaf_slabs = list.pool().slabs_of(Role::Leaf);
        assert_eq!(leaf_slabs.len(), 5);
        let (first, bytes) = *leaf_slabs.iter().find(|&&(_, b)| b != ARENA).unwrap();
        assert!(list.insert(1, 1));
        let leaf = linked_nodes(&list)
            .into_iter()
            .find(|&(key, at)| key == 1 && !held.contains(&at))
            .map(|(_, at)| at);
        assert!(
            leaf.is_some_and(|at| (first..first + bytes).contains(&at)),
            "the insert carves the rest set aside beside the sentinels"
        );
        list.check_traversal_integrity();
    }

    #[test]
    fn a_load_that_does_not_say_how_long_it_is_takes_no_arena() {
        let n = 40_000u64;
        let mut unsized_load = SkipList::new(arena_config());
        unsized_load.bulk_load_sorted((0..n).map(|k| (k * 7, k)).filter(|_| true));
        assert_eq!(unsized_load.len(), n as usize);
        assert_eq!(arenas(&unsized_load), Vec::<usize>::new());
        unsized_load.check_traversal_integrity();
        // The same keys with their count known fill an arena.
        assert!(!arenas(&arena_loaded(n)).is_empty());
    }

    /// An iterator whose `size_hint` claims `hint` items, whatever it yields.
    struct Overstated<I> {
        items: I,
        hint: usize,
    }

    impl<I: Iterator> Iterator for Overstated<I> {
        type Item = I::Item;
        fn next(&mut self) -> Option<I::Item> {
            self.items.next()
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.hint, None)
        }
    }

    #[test]
    fn an_overstated_load_leaves_the_rest_of_its_arenas_to_later_inserts() {
        let mut list = SkipList::new(arena_config());
        let n = 10_000u64;
        list.bulk_load_sorted(Overstated {
            items: (0..n).map(|k| (k * 7, k)),
            hint: 100_000,
        });
        assert_eq!(list.len(), n as usize);
        let arenas = arenas(&list);
        assert_eq!(arenas.len(), 2, "one arena per layout");
        let bytes = list.approx_node_bytes();
        let held: HashSet<usize> = linked_nodes(&list).into_iter().map(|(_, at)| at).collect();
        for key in [1u64, 2, 3, 4] {
            assert!(list.insert(key, key));
        }
        let fresh: Vec<usize> = linked_nodes(&list)
            .into_iter()
            .filter(|&(key, _)| (1..=4).contains(&key))
            .map(|(_, at)| at)
            .collect();
        assert!(fresh.len() >= 4);
        assert!(
            fresh.iter().all(|at| !held.contains(at)),
            "an insert got a node a loaded key holds"
        );
        assert!(
            fresh.iter().all(|&at| arenas
                .iter()
                .any(|&start| (start..start + ARENA).contains(&at))),
            "inserts carve on in the arenas"
        );
        assert_eq!(list.approx_node_bytes(), bytes, "no new slab");
        list.check_traversal_integrity();
    }

    #[test]
    fn a_load_cut_short_by_its_input_counts_what_it_linked() {
        let mut list: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(16));
        let cut = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            list.bulk_load_sorted([(1u64, 1u64), (2, 2), (3, 3), (2, 2)])
        }));
        assert!(cut.is_err(), "out-of-order input panics");
        assert_eq!(list.len(), 3);
        assert_eq!(list.keys(), vec![1, 2, 3]);
        list.check_traversal_integrity();
    }
}
