//! The Harris-style lock-free sorted linked list underlying the split-ordered table.
//!
//! Nodes are totally ordered by `(so_key, key)` where `so_key` is the split-order key
//! (bit-reversed hash for regular nodes, bit-reversed bucket index for dummy nodes)
//! and dummy nodes carry `key = None`, which sorts before every `Some(_)`. Logical
//! deletion uses the mark bit on the victim's own `next` word; physical unlinking is
//! performed by the deleter or by any later traversal that trips over the marked node
//! (exactly the `listSearch` cleanup discipline the paper relies on).

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch::Guard;
use skiptrie_atomics::tagged;
use skiptrie_metrics::{self as metrics, Counter};

/// A node of the split-ordered list. Dummy (bucket sentinel) nodes have `key == None`
/// and no value: `value` is initialized exactly when `key` is `Some`, so it needs no
/// tag of its own.
pub(crate) struct ListNode<K, V> {
    pub(crate) so_key: u64,
    key: Option<K>,
    value: MaybeUninit<V>,
    /// Tagged pointer to the next node (MARK bit = this node is logically deleted).
    pub(crate) next: AtomicU64,
}

impl<K, V> ListNode<K, V> {
    pub(crate) fn new_regular(so_key: u64, key: K, value: V) -> Box<Self> {
        metrics::record(Counter::NodeAllocated);
        Box::new(ListNode {
            so_key,
            key: Some(key),
            value: MaybeUninit::new(value),
            next: AtomicU64::new(tagged::NULL),
        })
    }

    pub(crate) fn new_dummy(so_key: u64) -> Box<Self> {
        metrics::record(Counter::NodeAllocated);
        Box::new(ListNode {
            so_key,
            key: None,
            value: MaybeUninit::uninit(),
            next: AtomicU64::new(tagged::NULL),
        })
    }

    /// The node's key; `None` for a dummy.
    pub(crate) fn key(&self) -> Option<&K> {
        self.key.as_ref()
    }

    /// The node's value; `None` for a dummy.
    pub(crate) fn value(&self) -> Option<&V> {
        // SAFETY: the value is initialized exactly when `key` is `Some`.
        self.key
            .as_ref()
            .map(|_| unsafe { self.value.assume_init_ref() })
    }
}

impl<K, V> Drop for ListNode<K, V> {
    fn drop(&mut self) {
        if self.key.is_some() {
            // SAFETY: initialized exactly when `key` is `Some`, and dropped only here.
            unsafe { self.value.assume_init_drop() };
        }
    }
}

/// Result of a [`find`] call: the link word that precedes the search position, the
/// word that was read from it (always unmarked), and the node found at the position
/// (if its ordering key is exactly equal to the target).
pub(crate) struct FindResult<'g> {
    /// The link (a `next` word, or conceptually the bucket entry's dummy `next`) whose
    /// successor is `curr_word`.
    pub(crate) prev_link: &'g AtomicU64,
    /// The (untagged) word read from `prev_link`: a pointer to the first node whose
    /// ordering key is `>=` the target, or null at end of list.
    pub(crate) curr_word: u64,
    /// Whether `curr_word` points to a node exactly equal to the target key.
    pub(crate) found: bool,
}

/// Compares `(so_key, key)` of a node against a target. Dummies sort before regular
/// nodes with the same `so_key`.
fn node_cmp<K: Ord>(
    node_so: u64,
    node_key: &Option<K>,
    target_so: u64,
    target_key: Option<&K>,
) -> std::cmp::Ordering {
    node_so
        .cmp(&target_so)
        .then_with(|| match (node_key, target_key) {
            (None, None) => std::cmp::Ordering::Equal,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (Some(a), Some(b)) => a.cmp(b),
        })
}

/// Walks the list starting at `start` (a dummy node) until it reaches the first node
/// whose `(so_key, key)` is `>=` the target, unlinking any marked nodes it encounters.
///
/// # Safety
///
/// `start` must point to a live dummy node of the list reachable during the lifetime
/// of `_epoch`; nodes are only retired after being unlinked, so every pointer followed
/// while pinned remains valid.
pub(crate) unsafe fn find<'g, K: Ord, V>(
    start: *const ListNode<K, V>,
    target_so: u64,
    target_key: Option<&K>,
    _epoch: &'g Guard,
) -> FindResult<'g> {
    'restart: loop {
        let mut prev_link: &AtomicU64 = &(*start).next;
        let mut curr_word = prev_link.load(Ordering::SeqCst);
        // The dummy itself is never marked, but its next word never carries a mark
        // either (marks live on the victim's own word), so curr_word is a plain ptr.
        debug_assert!(!tagged::is_marked(curr_word) || tagged::is_null(curr_word));

        loop {
            metrics::record(Counter::PtrRead);
            if tagged::is_null(curr_word) {
                return FindResult {
                    prev_link,
                    curr_word: tagged::NULL,
                    found: false,
                };
            }
            let curr = &*tagged::unpack::<ListNode<K, V>>(curr_word);
            let curr_next = curr.next.load(Ordering::SeqCst);
            if tagged::is_marked(curr_next) {
                // Curr is logically deleted: unlink it and keep going. If the unlink
                // CAS fails the list changed under us; restart from the dummy.
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
                        // We unlinked it; the thread that *marked* it owns retirement,
                        // except for removals helped by traversals, where the marker
                        // retires (see `SplitOrderedMap::remove_entry`). Nothing to do
                        // here.
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
            match node_cmp(curr.so_key, &curr.key, target_so, target_key) {
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

/// Inserts `node` (already boxed) at the position described by a fresh [`find`],
/// retrying as needed. Returns `Err(node)` if an equal key is already present.
///
/// # Safety
///
/// Same contract as [`find`].
pub(crate) unsafe fn insert_at<K: Ord, V>(
    start: *const ListNode<K, V>,
    mut node: Box<ListNode<K, V>>,
    epoch: &Guard,
) -> Result<*const ListNode<K, V>, Box<ListNode<K, V>>> {
    let target_so = node.so_key;
    loop {
        let found = {
            let target_key = node.key.as_ref();
            find(start, target_so, target_key, epoch)
        };
        if found.found {
            return Err(node);
        }
        node.next = AtomicU64::new(found.curr_word);
        let node_ptr = Box::into_raw(node);
        metrics::record(Counter::CasAttempt);
        match found.prev_link.compare_exchange(
            found.curr_word,
            tagged::pack(node_ptr),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return Ok(node_ptr),
            Err(_) => {
                metrics::record(Counter::CasFailure);
                metrics::record(Counter::Restart);
                node = Box::from_raw(node_ptr);
            }
        }
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

    fn new_dummy_head() -> Box<ListNode<u64, u64>> {
        ListNode::new_dummy(0)
    }

    #[test]
    fn ordering_puts_dummies_first() {
        assert_eq!(
            node_cmp::<u64>(4, &None, 4, Some(&9)),
            std::cmp::Ordering::Less
        );
        assert_eq!(
            node_cmp::<u64>(4, &Some(9), 4, None),
            std::cmp::Ordering::Greater
        );
        assert_eq!(
            node_cmp::<u64>(4, &Some(9), 4, Some(&9)),
            std::cmp::Ordering::Equal
        );
        assert_eq!(
            node_cmp::<u64>(3, &Some(9), 4, Some(&1)),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn insert_and_find_in_order() {
        let head = Box::into_raw(new_dummy_head());
        let guard = epoch::pin_domain(TEST_DOMAIN);
        unsafe {
            for so in [9u64, 3, 7, 5] {
                let node = ListNode::new_regular(so, so, so * 10);
                insert_at(head, node, &guard)
                    .map_err(|_| "duplicate")
                    .unwrap();
            }
            // Duplicate insert fails.
            let dup = ListNode::new_regular(7, 7, 70);
            assert!(insert_at(head, dup, &guard).is_err());

            // Walk the list: must be sorted by so_key.
            let mut cur = (*head).next.load(Ordering::SeqCst);
            let mut seen = Vec::new();
            while !tagged::is_null(cur) {
                let n = &*tagged::unpack::<ListNode<u64, u64>>(cur);
                seen.push(n.so_key);
                cur = n.next.load(Ordering::SeqCst);
            }
            assert_eq!(seen, vec![3, 5, 7, 9]);

            let hit = find(head, 5, Some(&5), &guard);
            assert!(hit.found);
            let miss = find(head, 6, Some(&6), &guard);
            assert!(!miss.found);

            // Clean up.
            let mut cur = (*head).next.load(Ordering::SeqCst);
            while !tagged::is_null(cur) {
                let n = Box::from_raw(
                    tagged::unpack::<ListNode<u64, u64>>(cur) as *mut ListNode<u64, u64>
                );
                cur = n.next.load(Ordering::SeqCst);
            }
            drop(Box::from_raw(head));
        }
    }

    #[test]
    fn find_unlinks_marked_nodes() {
        let head = Box::into_raw(new_dummy_head());
        let guard = epoch::pin_domain(TEST_DOMAIN);
        unsafe {
            let a = insert_at(head, ListNode::new_regular(3, 3u64, 30u64), &guard)
                .map_err(|_| "duplicate")
                .unwrap();
            let _b = insert_at(head, ListNode::new_regular(5, 5u64, 50u64), &guard)
                .map_err(|_| "duplicate")
                .unwrap();
            // Mark node a (so_key 3) for deletion by setting the mark bit on its next.
            let a_next = (*a).next.load(Ordering::SeqCst);
            (*a).next
                .compare_exchange(
                    a_next,
                    tagged::with_mark(a_next),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .unwrap();
            // A find for so_key 5 must step over (and unlink) the marked node.
            let res = find(head, 5, Some(&5), &guard);
            assert!(res.found);
            let first = (*head).next.load(Ordering::SeqCst);
            let first_node = &*tagged::unpack::<ListNode<u64, u64>>(first);
            assert_eq!(first_node.so_key, 5, "marked node was physically unlinked");

            // Clean up (a was unlinked but we still own it here).
            drop(Box::from_raw(a as *mut ListNode<u64, u64>));
            let mut cur = (*head).next.load(Ordering::SeqCst);
            while !tagged::is_null(cur) {
                let n = Box::from_raw(
                    tagged::unpack::<ListNode<u64, u64>>(cur) as *mut ListNode<u64, u64>
                );
                cur = n.next.load(Ordering::SeqCst);
            }
            drop(Box::from_raw(head));
        }
    }
}
