//! Insert, delete, predecessor and the top-level doubly-linked-list maintenance
//! (`fixPrev`, `toplevelDelete` repair) — Sections 2–3 and Algorithms 1–2 of the
//! paper.

use crossbeam_epoch::Guard;
use skiptrie_atomics::dcss::{cas_resolved, dcss, read_resolved, DcssError};
use skiptrie_atomics::tagged;
use skiptrie_metrics::{self as metrics, Counter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::backoff::Backoff;
use crate::height::key_height;
use crate::node::{HeaderFirst, Node, NodeRef, STATUS_STOP};
use crate::SkipList;

/// Result of a low-level insertion ([`SkipList::insert_from`]).
pub enum InsertOutcome<'g, V> {
    /// The key was already present; nothing was inserted. Carries the present
    /// entry's value, borrowed for the pin, so that an insert-if-absent is also
    /// the lookup: a caller that loses acts on what it found, with no second
    /// descent.
    AlreadyPresent(&'g V),
    /// The key was inserted (linearized when its level-0 node became reachable).
    Inserted {
        /// The top-level node of the new tower, if the tower reached the top level.
        /// The SkipTrie publishes this node in the x-fast trie.
        top_node: Option<NodeRef<'g, V>>,
    },
}

/// Result of a low-level deletion ([`SkipList::delete_from`]).
pub struct DeleteOutcome<'g, V> {
    /// True if this call performed the (linearized) removal of the key.
    pub removed: bool,
    /// True if the deleted tower had been assigned the top level (its prefixes may be
    /// published in the x-fast trie and must be cleaned up by the caller).
    pub root_was_top: bool,
    /// The removed value (only when `removed`).
    pub value: Option<V>,
    /// A top-level node that this call unlinked and now owns. It is **not yet
    /// retired**: the caller must call [`SkipList::retire_node`] on it after any
    /// external references (x-fast trie pointers) have been cleaned up. `None` if this
    /// call did not unlink a top-level node.
    pub top_to_retire: Option<NodeRef<'g, V>>,
}

impl<V> SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// `None` here means a full head-sentinel-seeded search (`O(m)` worst case on the
    /// top level), which is acceptable *only* at public hint-less entry points — the
    /// standalone `SkipList` API, where the caller holds nothing better. Every
    /// internal call site that already holds a predecessor (delete sweeps, cursor
    /// re-seeds, prefix cleanup in the trie) must thread it instead: head-seeding the
    /// delete path cost 244→2.6 µs/op before PR 2 fixed it.
    fn start_or_head<'g>(&'g self, start: Option<NodeRef<'g, V>>) -> &'g Node<V> {
        match start {
            Some(r) => r.node,
            None => self.head(self.top_level()),
        }
    }

    /// Schedules a node for recycling once no pinned thread can still reach it.
    ///
    /// # Safety
    ///
    /// The node must be physically unlinked from every level and must not be retired
    /// twice. Ownership of retirement belongs to the thread that won the node's mark
    /// CAS (or created it without ever publishing it).
    pub unsafe fn retire_node(&self, node: NodeRef<'_, V>, guard: &Guard) {
        let pool = Arc::clone(self.pool());
        let ptr = node.node as *const Node<V> as *mut Node<V>;
        guard.defer_unchecked(move || pool.recycle(ptr));
    }

    /// Recycles a node that was never published (no other thread can know about it).
    fn recycle_unpublished<N: HeaderFirst<V>>(&self, ptr: *mut N) {
        // SAFETY: the node was acquired from our pool and never became reachable.
        unsafe { self.pool().recycle(ptr) };
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Inserts `key -> value` starting the search from `start` (a top-level hint, e.g.
    /// the result of the x-fast trie's `LowestAncestor`), or from the head sentinel.
    ///
    /// The insertion is linearized when the level-0 node becomes reachable; the tower
    /// is then raised level by level, each raise conditioned (DCSS) on the tower's
    /// status word so that a concurrent delete stops it (paper, Section 2).
    pub fn insert_from<'g>(
        &'g self,
        key: u64,
        value: V,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> InsertOutcome<'g, V> {
        let top = self.top_level();
        let start_node = self.start_or_head(start);
        let orig_height = key_height(key, self.config.seed, top);

        // Phase 1: link the root (level-0) node.
        let mut preds = self.find_preds(key, start_node, guard);
        let root_ptr: *const Node<V>;
        let mut root_backoff = Backoff::new();
        loop {
            let (l0, r0) = preds[0];
            if r0.is_data() && r0.key_value() == key {
                // SAFETY: a level-0 data node reached through live links while
                // pinned; it was given its value before it was linked, and it
                // cannot be recycled before `guard` ends.
                let present = unsafe { (*r0.value().get()).as_ref() };
                return InsertOutcome::AlreadyPresent(
                    present.expect("a level-0 data node carries its value"),
                );
            }
            let ptr = self.pool().acquire();
            let self_word = tagged::pack(ptr);
            // SAFETY: the node is not yet published; we have exclusive access.
            unsafe {
                (*ptr).init(
                    key,
                    orig_height,
                    tagged::pack(r0 as *const Node<V>),
                    value.clone(),
                    Ordering::SeqCst,
                )
            };
            match cas_resolved(
                &l0.next,
                tagged::pack(r0 as *const Node<V>),
                self_word,
                guard,
            ) {
                Ok(()) => {
                    root_ptr = ptr.cast::<Node<V>>();
                    break;
                }
                Err(_) => {
                    self.recycle_unpublished(ptr);
                    metrics::record(Counter::Restart);
                    root_backoff.spin();
                    preds = self.find_preds(key, l0, guard);
                }
            }
        }
        self.len_counter().fetch_add(1, Ordering::SeqCst);
        // SAFETY: we just created and published this node; it stays valid while pinned.
        let root: &Node<V> = unsafe { &*root_ptr };
        let root_status = root.status.load(Ordering::SeqCst);
        let root_word = tagged::pack(root_ptr);

        // Phase 2: raise the tower up to `orig_height` (or until a delete stops us).
        // The paper conditions every raise on the root's STOP flag *remaining unset* —
        // comparing against the captured status alone is not enough: a delete that
        // runs entirely between the root link and the capture above leaves STOP
        // already set *inside* `root_status`, the status never changes again, and the
        // DCSS guards would happily raise a full tower over an already-removed root,
        // stranding unmarked nodes no sweep will ever visit.
        let raise_height = if root_status & STATUS_STOP == 0 {
            orig_height
        } else {
            0
        };
        let mut lower_word = root_word;
        let mut top_node: Option<&Node<V>> = None;
        let mut top_pred: Option<&Node<V>> = None;
        'levels: for level in 1..=raise_height {
            let ptr = self.pool().acquire_tower();
            let node_word = tagged::pack(ptr);
            let mut attempt_start: &Node<V> = preds[level as usize].0;
            let mut raise_backoff = Backoff::new();
            loop {
                let (l, r) = self.list_search(level, key, attempt_start, guard);
                if r.is_data() && r.key_value() == key {
                    // Another node with our key already lives on this level (e.g. a
                    // remnant of an aborted incarnation). Stop raising.
                    self.recycle_unpublished(ptr);
                    break 'levels;
                }
                if root.status.load(Ordering::SeqCst) != root_status {
                    // Deletion of our key has begun; stop raising.
                    self.recycle_unpublished(ptr);
                    break 'levels;
                }
                // SAFETY: the node is not yet published; we have exclusive access.
                unsafe {
                    (*ptr).init(
                        key,
                        level,
                        orig_height,
                        lower_word,
                        root_word,
                        tagged::pack(r as *const Node<V>),
                        Ordering::SeqCst,
                    )
                };
                // The raise is conditioned on the root's status word staying exactly
                // as observed (not stopped, same incarnation) — the paper's "each
                // insertion is conditioned on the stop flag of the root remaining
                // unset".
                // SAFETY: the guard word is the root's status, kept valid by the pool.
                let res = unsafe {
                    dcss(
                        &l.next,
                        tagged::pack(r as *const Node<V>),
                        node_word,
                        &root.status as *const AtomicU64,
                        root_status,
                        self.config.mode,
                        guard,
                    )
                };
                match res {
                    Ok(()) => {
                        // SAFETY: just published; valid while pinned.
                        let node: &Node<V> = unsafe { &*ptr.cast::<Node<V>>() };
                        if root.status.load(Ordering::SeqCst) != root_status {
                            // A delete began concurrently and may already have swept
                            // this level; undo our own raise so no tower node is
                            // stranded above a deleted root.
                            if self.remove_tower_node(level, node, l, guard) {
                                // SAFETY: we won the node's mark and unlinked it; for
                                // a top-level node no trie pointers can exist yet
                                // (our own trie insertion has not run and is guarded
                                // on the node's status).
                                unsafe { self.retire_node(NodeRef::new(node), guard) };
                            }
                            break 'levels;
                        }
                        lower_word = node_word;
                        if level == top {
                            top_node = Some(node);
                            // The predecessor we just linked behind seeds Phase 3's
                            // fix_prev search (instead of the head sentinel).
                            top_pred = Some(l);
                        }
                        continue 'levels;
                    }
                    Err(DcssError::GuardMismatch) => {
                        self.recycle_unpublished(ptr);
                        break 'levels;
                    }
                    Err(DcssError::TargetMismatch(_)) => {
                        metrics::record(Counter::Restart);
                        raise_backoff.spin();
                        attempt_start = l;
                    }
                }
            }
        }

        // Phase 3: a new top-level node joins the doubly-linked list (Section 3,
        // Algorithm 1) — in both directions. Its own `prev` becomes its predecessor,
        // and it becomes its successor's `prev`: that guide still names our
        // predecessor, and left alone it outlives the predecessor's deletion (whose
        // repair stops at the first node behind it — us), to dangle from then on.
        if let Some(node) = top_node {
            self.fix_prev(top_pred, node, guard);
            let succ_word = tagged::untagged(read_resolved(&node.next, guard));
            if !tagged::is_null(succ_word) {
                // SAFETY: read from a link of a node we published under this pin, so
                // the successor was linked during the pin and cannot be recycled
                // before it ends.
                let succ: &Node<V> = unsafe { &*tagged::unpack(succ_word) };
                if succ.is_data() {
                    self.fix_prev(Some(node), succ, guard);
                }
            }
        }
        InsertOutcome::Inserted {
            top_node: top_node.map(NodeRef::new),
        }
    }

    // ------------------------------------------------------------------
    // fixPrev / top-level repair (Algorithms 1 and 2)
    // ------------------------------------------------------------------

    /// The paper's `fixPrev(pred, node)`: locate `node`'s current top-level
    /// predecessor and swing `node.prev` to it, conditioned on the predecessor not
    /// being (in the process of being) deleted. Gives up if `node` itself becomes
    /// marked; does nothing on level 0, which keeps no guides.
    pub(crate) fn fix_prev(&self, pred_hint: Option<&Node<V>>, node: &Node<V>, guard: &Guard) {
        let Some(guide) = node.guide() else {
            return;
        };
        let top = self.top_level();
        let mut hint: &Node<V> = pred_hint.unwrap_or_else(|| self.head(top));
        let mut attempts = 0usize;
        let mut backoff = Backoff::new();
        loop {
            attempts += 1;
            if node.is_marked(guard) {
                return;
            }
            let (left, right) = self.list_search(top, node.key_value(), hint, guard);
            if !std::ptr::eq(right, node) {
                // `node` is no longer (or not yet) the first node at its key — it has
                // been removed or replaced; only keep trying while it is live.
                if node.is_marked(guard) {
                    return;
                }
                if attempts > 64 {
                    metrics::record(Counter::FixPrevGaveUp);
                    return;
                }
                hint = left;
                continue;
            }
            let node_prev = read_resolved(guide, guard);
            let desired = tagged::pack(left as *const Node<V>);
            if node_prev == desired {
                break;
            }
            let left_status = left.status.load(Ordering::SeqCst);
            if left_status & STATUS_STOP != 0 {
                hint = self.head(top);
                continue;
            }
            // SAFETY: the guard word is `left`'s status, kept valid by the pool.
            let res = unsafe {
                dcss(
                    guide,
                    node_prev,
                    desired,
                    &left.status as *const AtomicU64,
                    left_status,
                    self.config.mode,
                    guard,
                )
            };
            match res {
                Ok(()) => break,
                Err(_) => {
                    metrics::record(Counter::Restart);
                    backoff.spin();
                    hint = left;
                }
            }
        }
    }

    /// One-shot best-effort repair making `right.prev` point to `left` (the paper's
    /// `makeDone` before the delete-side trie swing, and a reader's repair of a
    /// dangling guide). Returns `true` if this call swung the guide. Exposed for the
    /// x-fast trie.
    pub fn ensure_prev(&self, left: NodeRef<'_, V>, right: NodeRef<'_, V>, guard: &Guard) -> bool {
        if right.node.is_tail() || right.node.is_head() {
            return false;
        }
        let Some(guide) = right.node.guide() else {
            return false;
        };
        let node_prev = read_resolved(guide, guard);
        let desired = left.packed();
        if node_prev == desired {
            return false;
        }
        let left_status = left.status();
        if left_status & STATUS_STOP != 0 {
            return false;
        }
        // SAFETY: the guard word is `left`'s status, kept valid by the pool.
        unsafe {
            dcss(
                guide,
                node_prev,
                desired,
                left.status_word_ptr(),
                left_status,
                self.config.mode,
                guard,
            )
        }
        .is_ok()
    }

    /// After removing the top-level node `node`, repair the `prev` guide of its
    /// successor so that the backwards direction no longer routes through `node`
    /// (Algorithm 2's repeat-until loop). `hint` seeds the search (any node; the
    /// search validates and falls back to the head on a bad hint).
    fn repair_after_top_delete(&self, node: &Node<V>, hint: &Node<V>, guard: &Guard) {
        let top = self.top_level();
        let mut attempts = 0usize;
        loop {
            attempts += 1;
            let (left, right) = self.list_search(top, node.key_value(), hint, guard);
            if right.is_tail() {
                return;
            }
            self.fix_prev(Some(left), right, guard);
            if !right.is_marked(guard) {
                return;
            }
            if attempts > 64 {
                metrics::record(Counter::TopRepairGaveUp);
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Removes one tower node from its level: flags its status (so no new guides or
    /// trie pointers can be swung to it), wins the mark CAS, physically unlinks it,
    /// and — for top-level nodes — repairs the successor's `prev`. Returns `true` iff
    /// this call won the mark (and therefore owns the node's retirement).
    ///
    /// `hint` seeds every internal search (callers pass the level predecessor they
    /// already hold, e.g. from `find_preds`); searching from the head sentinel here
    /// would make each delete `O(level length)` instead of `O(spacing)`.
    pub(crate) fn remove_tower_node(
        &self,
        level: u8,
        node: &Node<V>,
        hint: &Node<V>,
        guard: &Guard,
    ) -> bool {
        node.set_stop();
        let mut backoff = Backoff::new();
        loop {
            let next = read_resolved(&node.next, guard);
            if tagged::is_marked(next) {
                // Someone else won; make sure it is physically gone and report.
                let _ = self.list_search(level, node.key_value(), hint, guard);
                return false;
            }
            // Record a back hint pointing at the current predecessor before marking,
            // so traversals stranded on this node can retreat (Section 2).
            let (left, _right) = self.list_search(level, node.key_value(), hint, guard);
            node.back
                .store(tagged::pack(left as *const Node<V>), Ordering::SeqCst);
            match cas_resolved(&node.next, next, tagged::with_mark(next), guard) {
                Ok(()) => break,
                Err(_) => {
                    metrics::record(Counter::Restart);
                    backoff.spin();
                }
            }
        }
        // Physically unlink (list_search unlinks marked nodes it encounters).
        let _ = self.list_search(level, node.key_value(), hint, guard);
        if level > 0 && level == self.top_level() {
            self.repair_after_top_delete(node, hint, guard);
        }
        true
    }

    /// Deletes `key`, starting the search from `start` (top-level hint) or the head.
    ///
    /// Tower nodes are removed **top-down** (Section 2), so a traversal can never find
    /// an upper-level node whose lower levels are already gone. See [`DeleteOutcome`]
    /// for the caller's responsibilities regarding the unlinked top-level node.
    pub fn delete_from<'g>(
        &'g self,
        key: u64,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> DeleteOutcome<'g, V> {
        let top = self.top_level();
        let start_node = self.start_or_head(start);
        let preds = self.find_preds(key, start_node, guard);
        let (_l0, r0) = preds[0];
        if !(r0.is_data() && r0.key_value() == key) {
            return DeleteOutcome {
                removed: false,
                root_was_top: false,
                value: None,
                top_to_retire: None,
            };
        }
        let root = r0;
        let root_was_top = root.orig_height() == top;
        // Capture the value before the node can be recycled.
        // SAFETY: `root` is a live level-0 node reached via a verified traversal.
        let value = unsafe { (*root.value().get()).clone() };
        // Stop the tower: racing inserts will not raise it further (Section 2).
        root.set_stop();

        let root_word = tagged::pack(root as *const Node<V>);
        let mut top_to_retire: Option<NodeRef<'g, V>> = None;
        // Tower nodes this call wins are retired together: one deferred closure (and
        // one pool-lock acquisition) per delete instead of one per node.
        let mut retire_batch: Vec<*mut Node<V>> = Vec::new();

        // Remove upper tower nodes, top-down.
        for level in (1..=top).rev() {
            let (l, r) = self.list_search(level, key, preds[level as usize].0, guard);
            if !(r.is_data() && r.key_value() == key) {
                continue;
            }
            if r.root_word() != root_word {
                // A node with the same key but from a different tower (e.g. a remnant
                // of another incarnation); not ours to remove.
                continue;
            }
            if self.remove_tower_node(level, r, l, guard) {
                if level == top {
                    // Retirement deferred to the caller (trie cleanup first).
                    top_to_retire = Some(NodeRef::new(r));
                } else {
                    // We won the mark and unlinked the node; nothing else references
                    // it — batched for retirement below.
                    retire_batch.push(r as *const Node<V> as *mut Node<V>);
                }
            }
        }

        // Remove the root (level 0). Whoever wins this mark performed the delete.
        let won = self.remove_tower_node(0, root, preds[0].0, guard);
        if won {
            self.len_counter().fetch_sub(1, Ordering::SeqCst);
            if top == 0 {
                // Single-level list: the root *is* the top-level node.
                top_to_retire = Some(NodeRef::new(root));
            } else {
                // We won the mark and unlinked the root; upper levels of this tower
                // were removed (or never existed) beforehand.
                retire_batch.push(root as *const Node<V> as *mut Node<V>);
            }
        }
        if !retire_batch.is_empty() {
            let pool = Arc::clone(self.pool());
            // SAFETY: every node in the batch was unlinked by a mark CAS this call
            // won, is recycled exactly once, and the pool is kept alive by the Arc.
            unsafe {
                guard.defer_unchecked(move || pool.recycle_batch(retire_batch));
            }
        }
        DeleteOutcome {
            removed: won,
            root_was_top,
            value: if won { value } else { None },
            top_to_retire,
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The largest key `<= key` (and its value), searching from `start` (top-level
    /// hint from the x-fast trie) or from the head sentinel.
    pub fn predecessor_from<'g>(
        &'g self,
        key: u64,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> Option<(u64, V)> {
        let start_node = self.start_or_head(start);
        let preds = self.find_preds(key, start_node, guard);
        let (l0, r0) = preds[0];
        if r0.is_data() && r0.key_value() == key {
            // SAFETY: level-0 data node reached via verified traversal.
            let v = unsafe { (*r0.value().get()).clone() };
            return v.map(|v| (key, v));
        }
        if !l0.is_data() {
            return None;
        }
        // SAFETY: as above.
        let v = unsafe { (*l0.value().get()).clone() };
        v.map(|v| (l0.key_value(), v))
    }

    /// The smallest key `>= key` (and its value), searching from `start` or the head.
    pub fn successor_from<'g>(
        &'g self,
        key: u64,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> Option<(u64, V)> {
        let start_node = self.start_or_head(start);
        let preds = self.find_preds(key, start_node, guard);
        let (_l0, r0) = preds[0];
        if !r0.is_data() {
            return None;
        }
        // SAFETY: level-0 data node reached via verified traversal.
        let v = unsafe { (*r0.value().get()).clone() };
        v.map(|v| (r0.key_value(), v))
    }

    /// Exact-match descent: the level-0 (root) node of `key`'s tower, or `None`.
    ///
    /// Unlike the predecessor query this exits at the *first* level where the key's
    /// tower appears (saving the rest of the descent — for a tower of height `h` the
    /// search inspects `levels - h` levels instead of all of them) and touches no
    /// value at all on a miss.
    ///
    /// The early exit hops from an upper tower node to its root via the `root`
    /// pointer, which may be stale for a remnant of an aborted incarnation, so the
    /// root is validated before use: it must carry level tag 0, the queried key, and
    /// be unmarked. A node observed *unmarked under this pin* cannot be poisoned
    /// (recycled) until the pin ends — marking precedes unlinking precedes the
    /// retire-defer, and a deferral registered after this pin began cannot execute
    /// until the pin ends — so reading its value afterwards is well-defined.
    fn find_exact<'g>(
        &'g self,
        key: u64,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> Option<&'g Node<V>> {
        let mut start_node = self.start_or_head(start);
        for level in (0..self.levels()).rev() {
            let (l, r) = self.list_search(level, key, start_node, guard);
            if r.is_data() && r.key_value() == key {
                let root_w = r.root_word();
                if !tagged::is_null(root_w) {
                    // SAFETY: root pointers reference pool-kept (type-stable) nodes of
                    // this structure, so the dereference is defined even if stale; the
                    // checks below reject every stale possibility.
                    let root: &Node<V> = unsafe { &*tagged::unpack(root_w) };
                    if root.level() == 0
                        && root.is_data()
                        && root.key_value() == key
                        && !root.is_marked(guard)
                    {
                        return Some(root);
                    }
                }
                // Stale root (aborted-incarnation remnant, or the tower is mid-delete):
                // fall through and keep descending — level 0 is authoritative.
            }
            if level == 0 {
                return None;
            }
            let down = l.down_word();
            start_node = if tagged::is_null(down) {
                self.head(level - 1)
            } else {
                // SAFETY: `down` pointers reference the same tower one level below
                // (same argument as in `find_preds`).
                unsafe { &*tagged::unpack(down) }
            };
        }
        None
    }

    /// The value stored under exactly `key`, borrowed for the pin, searching from
    /// `start` (top-level hint) or the head. Exits early on an upper-level match
    /// and reads no value on a miss (see [`SkipList::get`]). The one exact
    /// lookup: [`SkipList::get_from`] and [`SkipList::contains_from`] are it.
    pub fn get_in<'g>(
        &'g self,
        key: u64,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> Option<&'g V> {
        let root = self.find_exact(key, start, guard)?;
        // SAFETY: `root` was observed unmarked under this pin (see `find_exact`), so
        // its value slot cannot be poisoned or re-initialized before `guard` ends.
        unsafe { (*root.value().get()).as_ref() }
    }

    /// A clone of the value stored under exactly `key` ([`SkipList::get_in`]).
    pub fn get_from<'g>(
        &'g self,
        key: u64,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> Option<V> {
        self.get_in(key, start, guard).cloned()
    }

    /// True if exactly `key` is present; clones nothing ([`SkipList::get_in`]).
    pub fn contains_from<'g>(
        &'g self,
        key: u64,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> bool {
        self.get_in(key, start, guard).is_some()
    }

    /// The smallest live key, found with a single level-0 search from the head (the
    /// head *is* the minimum's predecessor on every level, so no hint can beat it).
    pub fn first_key(&self, guard: &Guard) -> Option<u64> {
        let (_l, r) = self.list_search(0, 0, self.head(0), guard);
        r.is_data().then(|| r.key_value())
    }

    /// The largest live key, searching from `start` (top-level hint) or the head.
    pub fn last_key_from<'g>(
        &'g self,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> Option<u64> {
        let start_node = self.start_or_head(start);
        let preds = self.find_preds(u64::MAX, start_node, guard);
        let (l0, r0) = preds[0];
        if r0.is_data() && r0.key_value() == u64::MAX {
            Some(u64::MAX)
        } else if l0.is_data() {
            Some(l0.key_value())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SkipListConfig;
    use std::collections::BTreeMap;

    fn small_list() -> SkipList<u64> {
        SkipList::new(SkipListConfig::for_universe_bits(32).with_seed(99))
    }

    #[test]
    fn insert_get_remove_sequence_matches_btreemap() {
        let list = small_list();
        let mut model = BTreeMap::new();
        // A deterministic pseudo-random operation sequence.
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..4_000 {
            let op = next() % 3;
            let key = next() % 512;
            match op {
                0 => {
                    let expected = model.insert(key, key * 7).is_none();
                    if !expected {
                        model.insert(key, *model.get(&key).unwrap()); // keep old
                    }
                    assert_eq!(list.insert(key, key * 7), expected, "insert {key}");
                }
                1 => {
                    let expected = model.remove(&key);
                    assert_eq!(list.remove(key), expected, "remove {key}");
                }
                _ => {
                    let expected = model.range(..=key).next_back().map(|(k, v)| (*k, *v));
                    assert_eq!(list.predecessor(key), expected, "predecessor {key}");
                    let expected_succ = model.range(key..).next().map(|(k, v)| (*k, *v));
                    assert_eq!(list.successor(key), expected_succ, "successor {key}");
                }
            }
        }
        let snapshot: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(list.to_vec(), snapshot);
        assert_eq!(list.len(), model.len());
    }

    #[test]
    fn an_insert_that_finds_its_key_hands_over_the_present_value() {
        let list = small_list();
        for key in (0..600u64).step_by(3) {
            assert!(list.insert(key, key * 7));
        }
        let guard = list.pin();
        let nodes = list.pool.allocated();
        for key in 0..600u64 {
            let present = (key % 3 == 0).then_some(key * 7);
            assert_eq!(list.get_in(key, None, &guard).copied(), present);
            if let Some(value) = present {
                match list.insert_from(key, 1, None, &guard) {
                    InsertOutcome::AlreadyPresent(found) => assert_eq!(*found, value),
                    InsertOutcome::Inserted { .. } => panic!("{key} was inserted twice"),
                }
            }
        }
        assert_eq!(
            list.pool.allocated(),
            nodes,
            "a losing insert takes no node"
        );
        drop(guard);
        assert_eq!(list.remove(3), Some(21));
        assert!(list.insert(3, 22));
        assert_eq!(list.get(3), Some(22));
    }

    #[test]
    fn towers_appear_on_upper_levels() {
        let list = small_list();
        for key in 0..2_000u64 {
            list.insert(key, key);
        }
        let lengths = list.level_lengths();
        assert_eq!(lengths[0], 2_000);
        for window in lengths.windows(2) {
            assert!(
                window[1] <= window[0],
                "higher levels cannot be denser: {lengths:?}"
            );
        }
        assert!(
            *lengths.last().unwrap() > 0,
            "with 2000 keys and 5 levels the top level is populated with overwhelming probability"
        );
        // Top-level keys are a subset of all keys and sorted.
        let top_keys = list.top_level_keys();
        assert!(top_keys.windows(2).all(|w| w[0] < w[1]));
        assert!(top_keys.iter().all(|k| *k < 2_000));
    }

    #[test]
    fn delete_removes_all_tower_levels() {
        let list = small_list();
        for key in 0..1_000u64 {
            list.insert(key, key);
        }
        for key in 0..1_000u64 {
            assert_eq!(list.remove(key), Some(key));
        }
        assert!(list.is_empty());
        assert_eq!(list.level_lengths(), vec![0; list.levels() as usize]);
        // Re-insertion works fine after a full drain (exercises node recycling).
        for key in 0..1_000u64 {
            assert!(list.insert(key, key + 1));
        }
        assert_eq!(list.len(), 1_000);
        assert_eq!(list.get(500), Some(501));
    }

    #[test]
    fn predecessor_and_successor_edge_cases() {
        let list = small_list();
        list.insert(10, 1);
        list.insert(u64::MAX, 2);
        list.insert(0, 3);
        assert_eq!(list.predecessor(0), Some((0, 3)));
        assert_eq!(list.predecessor(9), Some((0, 3)));
        assert_eq!(list.predecessor(u64::MAX), Some((u64::MAX, 2)));
        assert_eq!(list.successor(0), Some((0, 3)));
        assert_eq!(list.successor(11), Some((u64::MAX, 2)));
        assert_eq!(list.successor(u64::MAX), Some((u64::MAX, 2)));
        list.remove(0);
        assert_eq!(list.predecessor(5), None);
    }

    #[test]
    fn top_level_nodes_get_prev_guides() {
        // Epoch domain 12, used by no other test in this binary (9, 10 and 11
        // are taken): the recycling bound below needs removed nodes to come
        // back, which a long pin of some other test on a shared domain stalls.
        let list = SkipList::new(
            SkipListConfig::for_universe_bits(32)
                .with_seed(99)
                .with_domain(12),
        );
        for key in 0..4_000u64 {
            list.insert(key, key);
        }
        let (checked, inexact, _) = list.check_prev_guides();
        assert!(checked > 1, "need at least two top nodes for this test");
        assert_eq!(
            inexact, 0,
            "after the build every guide names its predecessor"
        );

        // Turn the key set over several times, single-threaded: every top-level node
        // is deleted and its memory comes back on some other level, new top-level
        // nodes are linked between old ones, and each guide must still name its
        // node's actual predecessor — a guide left on a deleted node would pass a
        // "keys decrease" check by luck and dangle as soon as the node is recycled.
        let mut state = 0x9E37_79B9_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..60_000 {
            let key = next() % 8_000;
            if next().is_multiple_of(2) {
                list.insert(key, key);
            } else {
                list.remove(key);
            }
        }
        let (_, recycled, _) = list.allocation_stats();
        assert!(recycled > 4 * 4_000, "the churn recycled the node set over");
        let (checked, inexact, dangling) = list.check_prev_guides();
        assert!(checked > 1, "the churn left a populated top level");
        assert_eq!(
            (inexact, dangling),
            (0, 0),
            "of {checked} top-level guides after single-threaded churn"
        );
    }

    #[test]
    fn insert_from_reports_top_node() {
        let list = small_list();
        let mut saw_top = false;
        for key in 0..2_000u64 {
            let guard = list.pin();
            if let InsertOutcome::Inserted {
                top_node: Some(top),
            } = list.insert_from(key, key, None, &guard)
            {
                assert_eq!(top.key(), key);
                assert_eq!(top.level(), list.top_level());
                assert!(!top.is_stopped());
                saw_top = true;
            }
        }
        assert!(
            saw_top,
            "roughly 1/16 of 2000 inserts should reach the top level"
        );
    }

    #[test]
    fn delete_outcome_reports_top_responsibility() {
        let list = small_list();
        for key in 0..2_000u64 {
            list.insert(key, key);
        }
        let top_keys = list.top_level_keys();
        let guard = list.pin();
        let victim = top_keys[0];
        let outcome = list.delete_from(victim, None, &guard);
        assert!(outcome.removed);
        assert!(outcome.root_was_top);
        assert_eq!(outcome.value, Some(victim));
        let top = outcome.top_to_retire.expect("we removed a top-level tower");
        assert_eq!(top.key(), victim);
        assert!(top.is_stopped());
        // SAFETY: we own the unlinked node.
        unsafe { list.retire_node(top, &guard) };
        drop(guard);
        assert!(!list.contains(victim));
        assert!(!list.top_level_keys().contains(&victim));
    }
}
