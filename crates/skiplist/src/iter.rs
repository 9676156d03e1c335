//! Ordered cursors and range iteration over the level-0 linked list.
//!
//! A predecessor structure answers *point* queries in `O(log log u)`; the workloads
//! the paper motivates it with (calendar queues, routing tables) are *scan* shaped:
//! drain-the-front, walk-a-window, count-a-range. Scanning `k` keys as `k` independent
//! [`SkipList::successor`] calls costs `O(k · log log u)` because every call re-runs
//! the full descent. The bottom level already stores every key in a sorted lock-free
//! linked list, so a scan only needs *one* descent to the start key and then `k`
//! level-0 hops: `O(log log u + k)`.
//!
//! # Validation protocol (how a lock-free scan stays safe)
//!
//! A [`Cursor`] pins the epoch once for its whole lifetime, so every node it reaches
//! through *live* links is protected from recycling until the cursor is dropped. The
//! only dangerous pointers are the frozen `next` words of logically deleted nodes,
//! which may date from before the pin and lead to recycled (poisoned or re-published)
//! pool memory. The cursor therefore never follows a marked node's pointer. Each hop
//! validates, in order:
//!
//! 1. **Mark check** — `curr.next` carries the deletion mark: `curr` died under the
//!    cursor; its frozen pointer is untrustworthy. *Re-seed.*
//! 2. **Poison check** — the successor word is null: only pooled (poisoned) nodes are
//!    null-terminated mid-level. *Re-seed.*
//! 3. **Kind/level check** — the successor is a head, or carries a level tag other
//!    than 0: stale recycle re-published elsewhere. *Re-seed.* (A level-0 tail is the
//!    legitimate end of the scan.)
//! 4. **Order check** — the successor's key is not strictly greater than `curr`'s:
//!    stale recycle re-published at a smaller key. *Re-seed.*
//! 5. **Incarnation check** — the successor's status sequence number moved between
//!    arrival and yielding its value: the pool recycled memory the cursor was
//!    examining (impossible for nodes reached via live links while pinned; this
//!    convicts a stale path the earlier checks missed). *Re-seed, do not yield.*
//!
//! A *re-seed* is a fresh [`list_search`](SkipList) for the smallest key not yet
//! yielded, started from the cursor's current node (whose `back` pointers route a
//! marked start to a live predecessor) rather than the head sentinel — the same
//! hint-threading discipline the delete path uses. Deleted nodes encountered by a hop
//! are helped off the list exactly as `list_search` does, so a scan through a churned
//! region stays `O(k)` and does not re-seed per corpse.
//!
//! # Consistency guarantee (weak, and why that is the right contract)
//!
//! Iteration is **weakly consistent**: every key present for the *entire* duration of
//! the scan is yielded exactly once, in strictly increasing order, and every yielded
//! key was present (unmarked and reachable) at some moment during the scan. Keys
//! inserted or removed *while* the scan runs may or may not appear. A stronger
//! (snapshot) guarantee would require either locking out writers or multi-versioning
//! every node — both of which give up the lock-freedom the paper is about. The weak
//! contract is exactly what the motivating workloads need: an event-queue drain or a
//! routing-table walk must not miss stable entries, must not duplicate, and is
//! inherently racy against concurrent updates anyway.
//!
//! Yields are justified hop by hop: when the cursor stands on an unmarked node `a`
//! and reads `a.next = b`, no live node with a key in `(a.key, b.key)` existed at the
//! instant of that read — so no key that is present throughout can be skipped.

use std::ops::{Bound, RangeBounds};
use std::sync::atomic::Ordering;

use crossbeam_epoch::Guard;
use skiptrie_atomics::dcss::{cas_resolved, read_resolved};
use skiptrie_atomics::tagged;
use skiptrie_metrics::{self as metrics, Counter};

use crate::node::{Node, STATUS_STOP};
use crate::SkipList;

/// Resolves arbitrary `RangeBounds<u64>` into an inclusive `(lo, hi)` pair, or `None`
/// if the range is statically empty (e.g. an excluded start of `u64::MAX`).
pub fn resolve_bounds(range: &impl RangeBounds<u64>) -> Option<(u64, u64)> {
    let lo = match range.start_bound() {
        Bound::Included(&l) => l,
        Bound::Excluded(&l) => l.checked_add(1)?,
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(&h) => h,
        Bound::Excluded(&0) => return None,
        Bound::Excluded(&h) => h - 1,
        Bound::Unbounded => u64::MAX,
    };
    (lo <= hi).then_some((lo, hi))
}

/// An epoch-pinned ordered cursor over a [`SkipList`]'s level-0 linked list.
///
/// Obtained from [`SkipList::cursor`] (or the range APIs built on it); see the
/// [module docs](self) for the validation protocol and the weakly-consistent
/// iteration guarantee. The cursor holds one epoch pin for its entire lifetime:
/// memory retired while it is alive is not reclaimed until it is dropped, so
/// unbounded scans should be chunked if reclamation latency matters.
///
/// # Examples
///
/// ```
/// use skiptrie_skiplist::{SkipList, SkipListConfig};
///
/// let list: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(32));
/// for k in [3u64, 1, 4, 1, 5] {
///     list.insert(k, k * 100);
/// }
/// let mut cursor = list.cursor(2); // first yield: smallest key >= 2
/// assert_eq!(cursor.next_entry(), Some((3, 300)));
/// assert_eq!(cursor.next_key(), Some(4), "key-only advance clones no value");
/// assert_eq!(cursor.next_entry(), Some((5, 500)));
/// assert_eq!(cursor.next_entry(), None);
/// ```
pub struct Cursor<'a, V> {
    list: &'a SkipList<V>,
    guard: Guard,
    /// Packed word of a top-level node to seed the first descent from (0 = none:
    /// descend from the top-level head). Consumed by [`Cursor::ensure_seeded`].
    top_hint: u64,
    /// False until the initial descent to `next_key` has run; set back to false by
    /// [`Cursor::seed_from_packed`] so a late hint re-positions the cursor.
    seeded: bool,
    /// Packed word of the node the cursor stands on (head(0) or a level-0 data node
    /// that was reached through a live link under `guard`).
    curr: u64,
    /// Key of `curr` if it is a data node (`None` for the head sentinel) — the
    /// order-check baseline.
    curr_key: Option<u64>,
    /// Smallest key the cursor may still yield; strictly increases with every yield,
    /// which is what makes "exactly once, in order" trivial.
    next_key: u64,
    exhausted: bool,
}

impl<V> SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// An epoch-pinned cursor whose first yield is the smallest key `>= seek`.
    ///
    /// The descent to `seek` runs lazily on the first advance, from the top-level
    /// head sentinel — or from a caller-provided top-level hint installed with
    /// [`Cursor::seed_from_packed`] before iterating (the SkipTrie seeds with its
    /// `LowestAncestor` result this way).
    pub fn cursor(&self, seek: u64) -> Cursor<'_, V> {
        Cursor {
            list: self,
            // `self.pin()`, not `epoch::pin()`: the cursor must pin the *list's*
            // epoch domain or a domain-isolated list could recycle under the scan.
            guard: self.pin(),
            top_hint: 0,
            seeded: false,
            curr: tagged::pack(self.head(0) as *const Node<V>),
            curr_key: None,
            next_key: seek,
            exhausted: false,
        }
    }

    /// An iterator over the entries whose keys lie in `range`, in increasing key
    /// order, with the weakly-consistent guarantee described in the [module
    /// docs](self).
    pub fn range(&self, range: impl RangeBounds<u64>) -> RangeIter<'_, V> {
        match resolve_bounds(&range) {
            Some((lo, hi)) => RangeIter {
                cursor: self.cursor(lo),
                hi,
            },
            None => {
                let mut cursor = self.cursor(0);
                cursor.exhausted = true;
                RangeIter { cursor, hi: 0 }
            }
        }
    }
}

impl<V> Cursor<'_, V>
where
    V: Clone + Send + Sync + 'static,
{
    /// The cursor's epoch guard, for computing seed hints under the cursor's pin.
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// Installs a top-level node as the start of the (next) descent: the cursor will
    /// re-position to its current seek key from `hint` instead of the top-level head
    /// on the next advance. This is how the SkipTrie threads its `LowestAncestor`
    /// result into a scan without paying a head-seeded top-level walk.
    ///
    /// # Safety
    ///
    /// `hint` must be [`packed`](crate::NodeRef::packed) of a node of **this**
    /// skiplist, obtained
    /// under **this** cursor's [`guard`](Cursor::guard) (so the node is protected by
    /// the cursor's pin). The descent validates the hint defensively (an unusable
    /// hint degrades to the head sentinel), but the word must be a real node of this
    /// structure for the dereference to be defined.
    pub unsafe fn seed_from_packed(&mut self, hint: u64) {
        self.top_hint = hint;
        self.seeded = false;
    }

    /// Runs the initial (or re-positioning) descent to `next_key` if one is pending.
    fn ensure_seeded(&mut self) {
        if self.seeded {
            return;
        }
        self.seeded = true;
        let start_top: &Node<V> = if tagged::is_null(self.top_hint) {
            self.list.head(self.list.top_level())
        } else {
            // SAFETY: per the `seed_from_packed` contract this is a node of this
            // structure protected by our pin; type-stable pool memory keeps the read
            // defined even if it is stale, and `find_preds`'s start validation
            // retreats to the head if it is unusable.
            unsafe { &*tagged::unpack(self.top_hint) }
        };
        let preds = self.list.find_preds(self.next_key, start_top, &self.guard);
        let l0 = preds[0].0;
        self.curr = tagged::pack(l0 as *const Node<V>);
        self.curr_key = l0.is_data().then(|| l0.key_value());
    }

    /// Advances to the next key `>= next_key` and yields `(key, value)`; `None` once
    /// the end of the list is reached.
    pub fn next_entry(&mut self) -> Option<(u64, V)> {
        self.advance(true)
            .map(|(k, v)| (k, v.expect("value requested")))
    }

    /// Advances like [`Cursor::next_entry`] but skips the value clone — the
    /// counting/draining fast path.
    pub fn next_key(&mut self) -> Option<u64> {
        self.advance(false).map(|(k, _)| k)
    }

    /// Re-seeds the scan with a fresh search for `next_key`, starting from the
    /// cursor's current node (its `back` pointers route a dead start to a live
    /// predecessor; `valid_start` falls back to the head only if the whole chain is
    /// unusable) — never from the head sentinel directly.
    fn reseed(&mut self) {
        metrics::record(Counter::Restart);
        // SAFETY: `curr` always holds a node of this structure (head or a node once
        // reached through live links under our pin); pool memory is type-stable, so
        // the dereference is defined even if it has since been recycled — the search
        // validates it as a start hint and retreats if it is unusable.
        let start: &Node<V> = unsafe { &*tagged::unpack(self.curr) };
        let (left, _right) = self.list.list_search(0, self.next_key, start, &self.guard);
        self.curr = tagged::pack(left as *const Node<V>);
        self.curr_key = left.is_data().then(|| left.key_value());
    }

    /// The shared hop loop (see the module docs for the numbered validation steps).
    fn advance(&mut self, want_value: bool) -> Option<(u64, Option<V>)> {
        if self.exhausted {
            return None;
        }
        self.ensure_seeded();
        loop {
            // SAFETY: `curr` is the head or was reached through a live link under
            // this cursor's pin; type-stable pool memory keeps the read defined.
            let curr: &Node<V> = unsafe { &*tagged::unpack(self.curr) };
            let next = read_resolved(&curr.next, &self.guard);
            if tagged::is_marked(next) {
                // (1) `curr` was deleted under us; its frozen pointer may predate the
                // pin and lead to recycled memory.
                self.reseed();
                continue;
            }
            let w = tagged::untagged(next);
            if tagged::is_null(w) {
                // (2) Poisoned (pooled) memory on the path.
                self.reseed();
                continue;
            }
            metrics::record(Counter::PtrRead);
            // SAFETY: `curr` was unmarked at the read above, so `w` was its live
            // successor — linked, and therefore protected by our pin.
            let node: &Node<V> = unsafe { &*tagged::unpack(w) };
            if node.level() != 0 || node.is_head() {
                // (3) Stale recycle re-published at another level (or a head).
                self.reseed();
                continue;
            }
            if node.is_tail() {
                self.exhausted = true;
                return None;
            }
            let seq_before = node.status.load(Ordering::SeqCst) & !STATUS_STOP;
            let key = node.key_value();
            if self.curr_key.is_some_and(|ck| key <= ck) {
                // (4) Keys must strictly increase along level 0.
                self.reseed();
                continue;
            }
            let node_next = read_resolved(&node.next, &self.guard);
            if tagged::is_marked(node_next) {
                // `node` is logically deleted: do not yield it, and do not trust its
                // frozen pointer. Help unlink it (exactly as `list_search` would) and
                // retry from `curr`; if the help CAS fails because `curr` moved on,
                // the loop re-reads and, at worst, re-seeds.
                let succ = tagged::untagged(node_next);
                if tagged::is_null(succ) {
                    self.reseed();
                    continue;
                }
                metrics::record(Counter::MarkedNodeSkipped);
                let _ = cas_resolved(&curr.next, w, succ, &self.guard);
                continue;
            }
            if key < self.next_key {
                // Below the scan window (a predecessor seed or a re-seed landed us
                // here): step onto it and keep walking.
                self.curr = w;
                self.curr_key = Some(key);
                continue;
            }
            let value = if want_value {
                // SAFETY: a level-0 data node's value is set before publication and
                // dropped only on recycle, which our pin forbids for linked nodes.
                Some(unsafe { (*node.value().get()).clone() })
            } else {
                None
            };
            let seq_after = node.status.load(Ordering::SeqCst) & !STATUS_STOP;
            if seq_after != seq_before || node.key_value() != key {
                // (5) Incarnation moved while we examined the node: stale path.
                self.reseed();
                continue;
            }
            let value = match value {
                Some(None) => {
                    // The value slot was already cleared (recycle racing a stale
                    // path); the incarnation check above should have caught it, but
                    // never yield an empty value.
                    self.reseed();
                    continue;
                }
                Some(Some(v)) => Some(v),
                None => None,
            };
            self.curr = w;
            self.curr_key = Some(key);
            if key == u64::MAX {
                self.exhausted = true;
            } else {
                self.next_key = key + 1;
            }
            return Some((key, value));
        }
    }
}

/// A bounded, weakly-consistent range iterator over a [`SkipList`] (see
/// [`SkipList::range`] and the [module docs](self)).
pub struct RangeIter<'a, V> {
    cursor: Cursor<'a, V>,
    /// Inclusive upper bound.
    hi: u64,
}

impl<V> RangeIter<'_, V>
where
    V: Clone + Send + Sync + 'static,
{
    /// The iterator's epoch guard, for computing seed hints under its pin.
    pub fn guard(&self) -> &Guard {
        self.cursor.guard()
    }

    /// Installs a top-level descent hint on the underlying cursor.
    ///
    /// # Safety
    ///
    /// Same contract as [`Cursor::seed_from_packed`].
    pub unsafe fn seed_from_packed(&mut self, hint: u64) {
        self.cursor.seed_from_packed(hint);
    }

    /// Advances without cloning the value — the counting fast path.
    pub fn next_key(&mut self) -> Option<u64> {
        let key = self.cursor.next_key()?;
        if key > self.hi {
            self.cursor.exhausted = true;
            return None;
        }
        Some(key)
    }

    /// Visits up to `limit` further entries without cloning values, returning how
    /// many were visited — the bounded-scan primitive the workload drivers share.
    pub fn count_up_to(&mut self, limit: usize) -> usize {
        let mut seen = 0usize;
        while seen < limit && self.next_key().is_some() {
            seen += 1;
        }
        seen
    }
}

impl<V> Iterator for RangeIter<'_, V>
where
    V: Clone + Send + Sync + 'static,
{
    type Item = (u64, V);

    fn next(&mut self) -> Option<(u64, V)> {
        let (key, value) = self.cursor.next_entry()?;
        if key > self.hi {
            self.cursor.exhausted = true;
            return None;
        }
        Some((key, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SkipListConfig;

    fn filled(keys: impl IntoIterator<Item = u64>) -> SkipList<u64> {
        let list = SkipList::new(SkipListConfig::for_universe_bits(32).with_seed(5));
        for k in keys {
            list.insert(k, k.wrapping_mul(10));
        }
        list
    }

    #[test]
    fn resolve_bounds_matches_std_semantics() {
        assert_eq!(resolve_bounds(&(..)), Some((0, u64::MAX)));
        assert_eq!(resolve_bounds(&(5..10)), Some((5, 9)));
        assert_eq!(resolve_bounds(&(5..=10)), Some((5, 10)));
        assert_eq!(resolve_bounds(&(5..5)), None);
        assert_eq!(
            resolve_bounds(&(Bound::Included(10), Bound::Included(5))),
            None,
            "reversed bounds are empty"
        );
        assert_eq!(resolve_bounds(&(..0)), None);
        assert_eq!(
            resolve_bounds(&(Bound::Excluded(u64::MAX), Bound::Unbounded)),
            None
        );
        assert_eq!(
            resolve_bounds(&(Bound::Excluded(3), Bound::Included(4))),
            Some((4, 4))
        );
    }

    #[test]
    fn range_yields_in_order_with_bounds() {
        let list = filled([5, 1, 9, 3, 7, 200, 100]);
        let got: Vec<(u64, u64)> = list.range(3..=100).collect();
        assert_eq!(got, vec![(3, 30), (5, 50), (7, 70), (9, 90), (100, 1000)]);
        let all: Vec<u64> = list.range(..).map(|(k, _)| k).collect();
        assert_eq!(all, vec![1, 3, 5, 7, 9, 100, 200]);
        assert_eq!(list.range(10..100).count(), 0);
        assert_eq!(list.range(201..).count(), 0);
    }

    #[test]
    fn empty_and_degenerate_ranges() {
        let list = filled([1, 2, 3]);
        assert_eq!(list.range(2..2).count(), 0);
        let empty: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(16));
        assert_eq!(empty.range(..).count(), 0);
    }

    #[test]
    fn cursor_skips_keys_removed_mid_scan_and_sees_stable_ones() {
        let list = filled(0..100);
        let mut cursor = list.cursor(0);
        let mut seen = Vec::new();
        for _ in 0..10 {
            seen.push(cursor.next_entry().unwrap().0);
        }
        // Remove everything the cursor has not reached yet except the stable tail.
        for k in 10..90 {
            list.remove(k);
        }
        while let Some((k, _)) = cursor.next_entry() {
            seen.push(k);
        }
        let expected: Vec<u64> = (0..10).chain(90..100).collect();
        assert_eq!(
            seen, expected,
            "stable keys all seen, removed window skipped"
        );
    }

    #[test]
    fn cursor_sees_max_key_and_terminates() {
        let list = filled([0, u64::MAX, 17]);
        let mut c = list.cursor(0);
        assert_eq!(c.next_entry(), Some((0, 0)));
        assert_eq!(c.next_key(), Some(17));
        assert_eq!(c.next_entry(), Some((u64::MAX, u64::MAX.wrapping_mul(10))));
        assert_eq!(c.next_entry(), None);
        assert_eq!(c.next_key(), None, "stays exhausted");
    }

    #[test]
    fn range_iter_next_key_respects_bound() {
        let list = filled([1, 2, 3, 4]);
        let mut it = list.range(2..=3);
        assert_eq!(it.next_key(), Some(2));
        assert_eq!(it.next_key(), Some(3));
        assert_eq!(it.next_key(), None);
        assert_eq!(it.next(), None);
    }
}
