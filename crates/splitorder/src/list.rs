//! The Harris-style lock-free sorted linked list underlying the split-ordered table.
//!
//! Every node of the list begins with a 16-byte [`Sentinel`] header, `{so_key,
//! next}`. A bucket's sentinel is that header and nothing else; it lives inline in a
//! leaf of the bucket directory ([`crate::dir`]) and is never freed on its own. An
//! entry is a [`ListNode`] in a slot of the map's [`SlabPool`]: the same header, then
//! its key and value. The two are told apart by the split-order key alone: a
//! sentinel's is its bucket index reversed (even), an entry's is its hash reversed
//! with the low bit set (odd). A retired entry's slot goes back to the pool with its
//! key and value dropped and its `next` word [`RECYCLED`].
//!
//! Nodes are totally ordered by `(so_key, key)`; the key only breaks ties between
//! entries, since no entry shares a sentinel's `so_key`. Logical deletion uses the
//! mark bit on the victim's own `next` word; physical unlinking is performed by the
//! deleter or by any later traversal that trips over the marked node (exactly the
//! `listSearch` cleanup discipline the paper relies on). Sentinels are never
//! deleted.
//!
//! # A sentinel's word before it is linked
//!
//! A sentinel's `next` word also says whether the sentinel is in the list yet.
//! [`UNCLAIMED`] is its value in a fresh leaf. One thread claims the bucket by
//! CASing it to [`PENDING`], then links the sentinel with [`link_sentinel`].
//! While the sentinel is off the list its word carries the `PENDING` tag, and it
//! keeps the tag briefly after the link CAS too: the linker, or any traversal that
//! reaches the sentinel through the list (which proves it linked), clears it. A
//! word without the tag therefore names a sentinel that is in the list for good.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch::Guard;
use skiptrie_atomics::slab::SlabPool;
use skiptrie_atomics::tagged;
use skiptrie_metrics::{self as metrics, Counter};

/// Tag on a sentinel's `next` word: the sentinel may not be linked yet. It takes the
/// descriptor bit's position (this list holds no DCSS descriptors), so
/// [`tagged::unpack`] strips it like any tag.
pub(crate) const PENDING: u64 = tagged::DESC_BIT;

/// A fresh sentinel's `next` word: no thread has claimed the bucket. It carries
/// [`PENDING`], and also the mark, which no linked sentinel ever does.
pub(crate) const UNCLAIMED: u64 = PENDING | tagged::MARK_BIT;

/// A pooled entry's `next` word. It is [`UNCLAIMED`]'s value, which no node that a
/// walk can reach carries (a sentinel loses it when it is claimed, before it is
/// linked, and an entry never has it), so [`find`] asserts it never meets one.
pub(crate) const RECYCLED: u64 = UNCLAIMED;

/// A bucket's sentinel, and the header every list node begins with.
#[repr(C)]
pub(crate) struct Sentinel {
    /// Split-order key: the bucket index reversed (even) for a sentinel, the hash
    /// reversed with the low bit set (odd) for an entry. Final before the node is
    /// reachable.
    pub(crate) so_key: u64,
    /// Tagged pointer to the next node (MARK bit = this entry is logically deleted;
    /// [`PENDING`] = this sentinel may not be linked yet).
    pub(crate) next: AtomicU64,
}

impl Sentinel {
    /// The sentinel of `bucket`, unclaimed.
    pub(crate) fn unclaimed(bucket: u64) -> Self {
        Sentinel {
            so_key: dummy_so_key(bucket),
            next: AtomicU64::new(UNCLAIMED),
        }
    }

    /// Whether this header begins an entry (odd split-order key) rather than
    /// being a bucket's sentinel (even).
    pub(crate) fn is_entry(&self) -> bool {
        self.so_key & 1 == 1
    }
}

/// Split-order key of a bucket's sentinel (the paper's *dummy* node): the bucket
/// index reversed.
pub(crate) fn dummy_so_key(bucket: u64) -> u64 {
    bucket.reverse_bits()
}

/// An entry of the split-ordered list: a [`Sentinel`] header with an odd `so_key`,
/// then the key and the value, for as long as the entry lives.
#[repr(C)]
pub(crate) struct ListNode<K, V> {
    link: Sentinel,
    pub(crate) key: K,
    pub(crate) value: V,
}

impl<K, V> ListNode<K, V> {
    /// An unlinked entry, to be written into a slot of the map's pool.
    pub(crate) fn new(so_key: u64, key: K, value: V) -> Self {
        debug_assert_eq!(so_key & 1, 1, "an entry's split-order key is odd");
        metrics::record(Counter::NodeAllocated);
        ListNode {
            link: Sentinel {
                so_key,
                next: AtomicU64::new(tagged::NULL),
            },
            key,
            value,
        }
    }

    /// Drops the entry's key and value in place, marks its `next` word
    /// [`RECYCLED`], and pushes its slot onto `pool`.
    ///
    /// # Safety
    ///
    /// `entry` must be a slot of `pool` holding a live entry that no thread can
    /// reach any more (retired through the epoch, or never published), recycled
    /// once.
    pub(crate) unsafe fn recycle(entry: *mut Self, pool: &SlabPool) {
        std::ptr::drop_in_place(entry);
        (*entry).link.next.store(RECYCLED, Ordering::Relaxed);
        pool.push(entry.cast());
    }

    /// The entry's header, as the list links it.
    pub(crate) fn link(&self) -> &Sentinel {
        &self.link
    }

    /// The entry whose header `node` is.
    ///
    /// # Safety
    ///
    /// `node` must be the header of a live `ListNode<K, V>` (its `so_key` is odd).
    pub(crate) unsafe fn of<'a>(node: *const Sentinel) -> &'a Self {
        debug_assert!((*node).is_entry(), "a sentinel is not an entry");
        &*(node as *const Self)
    }
}

/// Result of a [`find`] call: the link word that precedes the search position, the
/// word that was read from it (always untagged), and whether the node found at the
/// position equals the target.
pub(crate) struct FindResult<'g> {
    /// The link (some node's `next` word) whose successor is `curr_word`.
    pub(crate) prev_link: &'g AtomicU64,
    /// The (untagged) word read from `prev_link`: a pointer to the first node whose
    /// ordering key is `>=` the target, or null at end of list.
    pub(crate) curr_word: u64,
    /// Whether `curr_word` points to a node exactly equal to the target key.
    pub(crate) found: bool,
}

/// Orders `node` against a target: by split-order key, then by key. Equal
/// split-order keys make both entries (odd) or both one sentinel (even), so a
/// sentinel sorts before every entry of its bucket and its key is never read.
///
/// # Safety
///
/// `node` must be a live node of a list whose entries are `ListNode<K, V>`.
unsafe fn node_cmp<K: Ord, V>(
    node: &Sentinel,
    target_so: u64,
    target_key: Option<&K>,
) -> std::cmp::Ordering {
    node.so_key.cmp(&target_so).then_with(|| match target_key {
        None => std::cmp::Ordering::Equal,
        Some(key) => ListNode::<K, V>::of(node).key.cmp(key),
    })
}

/// Walks the list from `start` (a linked sentinel) to the first node whose
/// `(so_key, key)` is `>=` the target, unlinking any marked nodes it encounters and
/// clearing the [`PENDING`] tag of any sentinel it passes. `target_key` is `None`
/// exactly when the target is a sentinel.
///
/// # Safety
///
/// `start` must be a linked sentinel of the list, and `K`/`V` the list's entry
/// types; nodes are only retired after being unlinked, so every pointer followed
/// while pinned remains valid.
pub(crate) unsafe fn find<'g, K: Ord, V>(
    start: &'g Sentinel,
    target_so: u64,
    target_key: Option<&K>,
    _epoch: &'g Guard,
) -> FindResult<'g> {
    'restart: loop {
        let mut prev_link: &AtomicU64 = &start.next;
        let mut curr_word = prev_link.load(Ordering::SeqCst);
        // A walk starts only from a sentinel whose word carries no tag.
        debug_assert_eq!(tagged::tag(curr_word), 0);

        loop {
            metrics::record(Counter::PtrRead);
            if tagged::is_null(curr_word) {
                return FindResult {
                    prev_link,
                    curr_word: tagged::NULL,
                    found: false,
                };
            }
            let curr = &*tagged::unpack::<Sentinel>(curr_word);
            let mut curr_next = curr.next.load(Ordering::SeqCst);
            // A node reached while pinned is retired, if at all, after the pin ends.
            debug_assert_ne!(curr_next, RECYCLED, "a walk reached a recycled entry");
            if curr_next & PENDING != 0 {
                // A sentinel reached through the list is linked: clear its tag. The
                // CAS fails only if another thread cleared it first, since nothing
                // else moves a word that carries the tag.
                let clean = curr_next & !PENDING;
                curr_next = match curr.next.compare_exchange(
                    curr_next,
                    clean,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => clean,
                    Err(now) => now,
                };
                debug_assert_eq!(curr_next & PENDING, 0);
            }
            if tagged::is_marked(curr_next) {
                // Curr is logically deleted: unlink it and keep going. If the unlink
                // CAS fails the list changed under us; restart from the sentinel.
                metrics::record(Counter::MarkedNodeSkipped);
                metrics::record(Counter::CasAttempt);
                let succ = tagged::untagged(curr_next);
                match prev_link.compare_exchange(
                    curr_word,
                    succ,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        // We unlinked it; the thread that *marked* it owns retirement
                        // (see `SplitOrderedMap::remove_in`). Nothing to do here.
                        curr_word = succ;
                        continue;
                    }
                    Err(_) => {
                        metrics::record(Counter::CasFailure);
                        metrics::record(Counter::Restart);
                        continue 'restart;
                    }
                }
            }
            match node_cmp::<K, V>(curr, target_so, target_key) {
                std::cmp::Ordering::Less => {
                    prev_link = &curr.next;
                    curr_word = curr_next;
                }
                std::cmp::Ordering::Equal => {
                    return FindResult {
                        prev_link,
                        curr_word,
                        found: true,
                    };
                }
                std::cmp::Ordering::Greater => {
                    return FindResult {
                        prev_link,
                        curr_word,
                        found: false,
                    };
                }
            }
        }
    }
}

/// Inserts `node` at the position described by a fresh [`find`], retrying as
/// needed. Returns `false`, leaving the node unpublished and still the caller's, if
/// an equal key is already present.
///
/// # Safety
///
/// Same contract as [`find`]; `node` must be an initialized entry no other thread
/// can reach.
pub(crate) unsafe fn insert_at<K: Ord, V>(
    start: &Sentinel,
    node: *mut ListNode<K, V>,
    epoch: &Guard,
) -> bool {
    let entry = &*node;
    let target_so = entry.link.so_key;
    loop {
        let found = find::<K, V>(start, target_so, Some(&entry.key), epoch);
        if found.found {
            return false;
        }
        entry.link.next.store(found.curr_word, Ordering::Relaxed);
        metrics::record(Counter::CasAttempt);
        match found.prev_link.compare_exchange(
            found.curr_word,
            tagged::pack(node),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return true,
            Err(_) => {
                metrics::record(Counter::CasFailure);
                metrics::record(Counter::Restart);
            }
        }
    }
}

/// Links `sentinel`, which the calling thread claimed (its word moved from
/// [`UNCLAIMED`] to [`PENDING`]), into the list after `start`, then clears its tag.
/// Its `next` word is written before the link CAS makes it reachable.
///
/// # Panics
///
/// Panics if the sentinel is in the list already: only its claimer links it.
///
/// # Safety
///
/// Same contract as [`find`]; `start` must precede `sentinel` in split order, and
/// `sentinel` must live as long as the list.
pub(crate) unsafe fn link_sentinel<K: Ord, V>(
    start: &Sentinel,
    sentinel: &Sentinel,
    epoch: &Guard,
) {
    loop {
        let found = find::<K, V>(start, sentinel.so_key, None, epoch);
        assert!(!found.found, "a bucket's sentinel is linked once");
        let pending = found.curr_word | PENDING;
        sentinel.next.store(pending, Ordering::SeqCst);
        metrics::record(Counter::CasAttempt);
        if found
            .prev_link
            .compare_exchange(
                found.curr_word,
                tagged::pack(sentinel),
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            // A failed clear means a traversal cleared the tag first.
            let _ = sentinel.next.compare_exchange(
                pending,
                found.curr_word,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            return;
        }
        metrics::record(Counter::CasFailure);
        metrics::record(Counter::Restart);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_epoch as epoch;

    /// These tests drive the raw list (no owning map), so they pin an explicit
    /// domain the way `SplitOrderedMap::pin` would — the workspace rule is that no
    /// call site outside the vendored crate pins the default domain via
    /// `epoch::pin()` directly.
    const TEST_DOMAIN: usize = 11;

    type Node = ListNode<u64, u64>;

    /// A pool of the tests' entries; it frees their slots when it drops.
    fn pool() -> SlabPool {
        SlabPool::new(std::alloc::Layout::new::<Node>())
    }

    /// An entry `(so, key, value)` in a fresh slot of `pool`.
    fn entry(pool: &SlabPool, so: u64, key: u64, value: u64) -> *mut Node {
        let at = pool.carve().cast::<Node>();
        // SAFETY: a fresh slot of `Node`'s layout.
        unsafe { at.write(Node::new(so, key, value)) };
        at
    }

    /// A linked head sentinel (bucket 0's).
    fn head() -> Sentinel {
        let head = Sentinel::unclaimed(0);
        head.next.store(tagged::NULL, Ordering::SeqCst);
        head
    }

    /// Split-order keys of the list from `head`, in order.
    fn so_keys(head: &Sentinel) -> Vec<u64> {
        let mut seen = Vec::new();
        let mut cur = head.next.load(Ordering::SeqCst);
        while !tagged::is_null(cur) {
            // SAFETY: the test owns every node.
            let n = unsafe { &*tagged::unpack::<Sentinel>(cur) };
            seen.push(n.so_key);
            cur = n.next.load(Ordering::SeqCst);
        }
        seen
    }

    #[test]
    fn ordering_puts_dummies_first() {
        let dummy = Sentinel::unclaimed(1);
        let so = dummy.so_key;
        let entry = Node::new(so | 1, 9, 90);
        unsafe {
            assert_eq!(
                node_cmp::<u64, u64>(&dummy, so | 1, Some(&9)),
                std::cmp::Ordering::Less
            );
            assert_eq!(
                node_cmp::<u64, u64>(entry.link(), so, None),
                std::cmp::Ordering::Greater
            );
            assert_eq!(
                node_cmp::<u64, u64>(entry.link(), so | 1, Some(&9)),
                std::cmp::Ordering::Equal
            );
            assert_eq!(
                node_cmp::<u64, u64>(entry.link(), so + 3, Some(&1)),
                std::cmp::Ordering::Less
            );
        }
    }

    #[test]
    fn insert_and_find_in_order() {
        let head = head();
        let pool = pool();
        let guard = epoch::pin_domain(TEST_DOMAIN);
        unsafe {
            for so in [9u64, 3, 7, 5] {
                assert!(insert_at(&head, entry(&pool, so, so, so * 10), &guard));
            }
            // Duplicate insert fails.
            assert!(!insert_at(&head, entry(&pool, 7, 7, 70), &guard));

            // Walk the list: must be sorted by so_key.
            assert_eq!(so_keys(&head), vec![3, 5, 7, 9]);

            let hit = find::<u64, u64>(&head, 5, Some(&5), &guard);
            assert!(hit.found);
            let miss = find::<u64, u64>(&head, 7, Some(&6), &guard);
            assert!(!miss.found);
        }
    }

    #[test]
    fn find_unlinks_marked_nodes() {
        let head = head();
        let pool = pool();
        let guard = epoch::pin_domain(TEST_DOMAIN);
        unsafe {
            let a = entry(&pool, 3, 3, 30);
            assert!(insert_at(&head, a, &guard));
            assert!(insert_at(&head, entry(&pool, 5, 5, 50), &guard));
            // Mark node a (so_key 3) for deletion by setting the mark bit on its next.
            let a_next = (*a).link.next.load(Ordering::SeqCst);
            (*a).link
                .next
                .compare_exchange(
                    a_next,
                    tagged::with_mark(a_next),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .unwrap();
            // A find for so_key 5 must step over (and unlink) the marked node.
            let res = find::<u64, u64>(&head, 5, Some(&5), &guard);
            assert!(res.found);
            assert_eq!(
                so_keys(&head),
                vec![5],
                "marked node was physically unlinked"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "recycled entry")]
    fn a_walk_that_reaches_a_recycled_entry_panics() {
        let head = head();
        let pool = pool();
        let guard = epoch::pin_domain(TEST_DOMAIN);
        unsafe {
            let early = entry(&pool, 3, 3, 30);
            assert!(insert_at(&head, early, &guard));
            // Recycled while still linked: the fault the assertion is there for.
            Node::recycle(early, &pool);
            let _ = find::<u64, u64>(&head, 5, Some(&5), &guard);
        }
    }

    #[test]
    fn a_sentinel_is_sixteen_bytes_and_heads_every_entry() {
        assert_eq!(std::mem::size_of::<Sentinel>(), 16);
        assert_eq!(std::mem::offset_of!(Node, link), 0);
        assert_eq!(std::mem::offset_of!(Sentinel, so_key), 0);
        assert_eq!(std::mem::offset_of!(Sentinel, next), 8);
    }

    #[test]
    fn a_linked_sentinel_sorts_before_its_entries_and_loses_its_tag_to_a_walk() {
        let head = head();
        let pool = pool();
        let guard = epoch::pin_domain(TEST_DOMAIN);
        let bucket = Sentinel::unclaimed(1); // so_key 1 << 63
        let so = dummy_so_key(1);
        unsafe {
            assert!(insert_at(&head, entry(&pool, so + 1, 1, 10), &guard));
            assert!(insert_at(&head, entry(&pool, so - 1, 2, 20), &guard));
            bucket
                .next
                .compare_exchange(UNCLAIMED, PENDING, Ordering::SeqCst, Ordering::SeqCst)
                .unwrap();
            link_sentinel::<u64, u64>(&head, &bucket, &guard);
            assert_eq!(so_keys(&head), vec![so - 1, so, so + 1]);
            assert_eq!(bucket.next.load(Ordering::SeqCst) & PENDING, 0);
            // A tag left behind (the linker stalled before clearing it) goes with
            // the first walk that passes the sentinel.
            let word = bucket.next.load(Ordering::SeqCst);
            bucket.next.store(word | PENDING, Ordering::SeqCst);
            assert!(find::<u64, u64>(&head, so + 1, Some(&1), &guard).found);
            assert_eq!(bucket.next.load(Ordering::SeqCst), word);
            // From the sentinel itself, the walk sees its entries.
            assert!(find::<u64, u64>(&bucket, so + 1, Some(&1), &guard).found);
        }
    }

    #[test]
    #[should_panic(expected = "linked once")]
    fn a_sentinel_is_linked_once() {
        let head = head();
        let guard = epoch::pin_domain(TEST_DOMAIN);
        let bucket = Sentinel::unclaimed(1);
        bucket.next.store(PENDING, Ordering::SeqCst);
        unsafe {
            link_sentinel::<u64, u64>(&head, &bucket, &guard);
            link_sentinel::<u64, u64>(&head, &bucket, &guard);
        }
    }
}
