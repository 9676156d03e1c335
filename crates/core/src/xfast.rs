//! The concurrent x-fast trie (paper, Section 4).
//!
//! The trie is a hash table (`prefixes`, a lock-free split-ordered map) from every
//! proper prefix of every top-level key to a [`TrieNode`]. Unlike the sequential
//! x-fast trie, *every* trie node stores two pointers into the top level of the
//! skiplist — `pointers[0]`, the largest key in the prefix's 0-subtree, and
//! `pointers[1]`, the smallest key in its 1-subtree — so that a query always holds a
//! usable pointer even when concurrent deletes empty a subtree (Section 4, "The data
//! structure").
//!
//! * [`SkipTrie::lowest_ancestor`] is Algorithm 3: binary search on prefix length,
//!   remembering the best candidate seen.
//! * [`SkipTrie::xfast_pred`] is Algorithm 4: walk `back`/`prev` guides from the
//!   ancestor to a top-level node with key `<= x`.
//! * [`SkipTrie::insert_prefixes`] is Algorithm 6 lines 5–20.
//! * [`SkipTrie::cleanup_prefixes`] is Algorithm 7 lines 5–22.
//!
//! Pointer swings are DCSS-conditioned on the *target node's* status word, the
//! strengthened form of the paper's "conditioned on x remaining unmarked" (see
//! `skiptrie-atomics` for the exact argument); the paper proves linearizability is
//! preserved even if these guards are dropped entirely.

use std::sync::atomic::AtomicU64;

use crossbeam_epoch::Guard;
use skiptrie_atomics::dcss::{cas_resolved, dcss, read_resolved, DcssError};
use skiptrie_atomics::retire_boxes;
use skiptrie_metrics::{self as metrics, Counter};
use skiptrie_skiplist::NodeRef;

use crate::prefix::{in_subtree, key_bit, Prefix};
use crate::SkipTrie;

/// A node of the x-fast trie's conceptual prefix tree.
///
/// `pointers[d]` holds the packed word of a top-level skiplist node: the largest key
/// in the `prefix·0` subtree (`d == 0`) or the smallest key in the `prefix·1` subtree
/// (`d == 1`); `0` (null) means the subtree is empty (modulo in-flight inserts). A
/// trie node whose two pointers are both null is slated for removal from the hash
/// table, and any operation that observes it in that state helps remove it.
pub(crate) struct TrieNode {
    pub(crate) pointers: [AtomicU64; 2],
}

impl TrieNode {
    pub(crate) fn new() -> Self {
        TrieNode {
            pointers: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

/// A `Copy` handle to a heap-allocated [`TrieNode`], stored as the value type of the
/// `prefixes` hash table.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct TrieNodePtr(pub(crate) u64);

// SAFETY: the pointer is only dereferenced while pinned; trie nodes are retired
// through the epoch collector after being removed from the hash table.
unsafe impl Send for TrieNodePtr {}
unsafe impl Sync for TrieNodePtr {}

impl TrieNodePtr {
    pub(crate) fn from_box(node: Box<TrieNode>) -> Self {
        TrieNodePtr(Box::into_raw(node) as u64)
    }

    /// # Safety
    ///
    /// The caller must be pinned and the node must not have been freed (it is retired
    /// only after removal from the hash table, so holders that found it there while
    /// pinned are protected).
    pub(crate) unsafe fn deref<'g>(&self, _guard: &'g Guard) -> &'g TrieNode {
        &*(self.0 as *const TrieNode)
    }
}

/// Trie nodes unlinked by one operation, retired together when the batch drops — a
/// single deferred closure per operation instead of one per node, on every exit path
/// of the helping loops.
struct TrieRetireBatch<'g> {
    guard: &'g Guard,
    ptrs: Vec<*mut TrieNode>,
}

impl<'g> TrieRetireBatch<'g> {
    fn new(guard: &'g Guard) -> Self {
        TrieRetireBatch {
            guard,
            ptrs: Vec::new(),
        }
    }

    /// Adds a trie node this thread just removed from the hash table (sole owner).
    fn push(&mut self, tnp: TrieNodePtr) {
        self.ptrs.push(tnp.0 as *mut TrieNode);
    }
}

impl Drop for TrieRetireBatch<'_> {
    fn drop(&mut self) {
        let ptrs = std::mem::take(&mut self.ptrs);
        // SAFETY: the batch owns the pointers (removed from the hash table by a
        // `remove_if` this thread won); each pointer is retired once.
        unsafe { retire_boxes(self.guard, ptrs) };
    }
}

impl<V> SkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Algorithm 3: binary search on prefix length for the lowest ancestor of `key`,
    /// returning the best top-level pointer encountered.
    ///
    /// Each probe is one `prefixes.get` — `O(1)` *expected* only while the hash
    /// table's chains stay short, which the growable bucket directory guarantees
    /// at every size (experiment `e1`'s flat `steps/op` counts the chain hops).
    pub(crate) fn lowest_ancestor<'g>(&'g self, key: u64, guard: &'g Guard) -> NodeRef<'g, V> {
        let b = self.universe_bits();
        let head = self.skiplist().head_top();

        // Start from the root (ε) entry, as the paper's line 4.
        let mut ancestor: NodeRef<'g, V> = head;
        if let Some(root_tn) = self.prefixes.get(&Prefix::EMPTY) {
            // SAFETY: pinned; trie nodes retired only after hash-table removal.
            let tn = unsafe { root_tn.deref(guard) };
            let d = key_bit(key, 0, b) as usize;
            let word = read_resolved(&tn.pointers[d], guard);
            // SAFETY: trie pointers reference skiplist nodes kept valid by the pool.
            if let Some(node) = unsafe { NodeRef::from_packed(word, guard) } {
                ancestor = node;
            }
        }

        let mut common_len: u32 = 0;
        let mut size: u32 = b / 2;
        while size > 0 {
            let query_len = common_len + size;
            if query_len >= b {
                size /= 2;
                continue;
            }
            let query = Prefix::of(key, query_len as u8, b);
            metrics::record(Counter::HashOp);
            if let Some(tnp) = self.prefixes.get(&query) {
                // SAFETY: pinned, as above.
                let tn = unsafe { tnp.deref(guard) };
                // Remember the best pointer seen so far (paper: "the query always
                // remembers the 'best' pointer into the linked list it has seen").
                // Both children are inspected: at the lowest ancestor itself the
                // subtree on the key's side is empty, and it is the *sibling* pointer
                // that holds the key's immediate top-level neighbour.
                for direction in 0..2 {
                    let word = read_resolved(&tn.pointers[direction], guard);
                    // SAFETY: as above.
                    if let Some(candidate) = unsafe { NodeRef::from_packed(word, guard) } {
                        if candidate.is_data() && query.is_prefix_of(candidate.key(), b) {
                            let cand_dist = candidate.key().abs_diff(key);
                            let anc_dist = if ancestor.is_data() {
                                ancestor.key().abs_diff(key)
                            } else {
                                u64::MAX
                            };
                            if cand_dist <= anc_dist {
                                ancestor = candidate;
                            }
                        }
                    }
                }
                common_len = query_len;
            }
            size /= 2;
        }
        if ancestor.is_head() {
            // No probed pointer was usable: the descent starts at the head sentinel.
            // Right on an empty top level, an `O(top-level length)` walk otherwise.
            metrics::record(Counter::AncestorIsHead);
        }
        ancestor
    }

    /// Algorithm 4: from the lowest ancestor, walk `back` pointers (marked nodes) and
    /// `prev` guides (unmarked nodes) until reaching a top-level node with key
    /// `<= key`. The result is the start hint for the skiplist descent.
    pub(crate) fn xfast_pred<'g>(&'g self, key: u64, guard: &'g Guard) -> NodeRef<'g, V> {
        let ancestor = self.lowest_ancestor(key, guard);
        self.skiplist().walk_to_le(key, ancestor, guard)
    }

    /// Algorithm 6 lines 5–20: publish the prefixes of a freshly inserted top-level
    /// node, longest prefix first (bottom-up in the conceptual tree).
    pub(crate) fn insert_prefixes(&self, key: u64, node: NodeRef<'_, V>, guard: &Guard) {
        let b = self.universe_bits();
        let mut retired = TrieRetireBatch::new(guard);
        for len in (0..b as u8).rev() {
            let p = Prefix::of(key, len, b);
            let direction = key_bit(key, len, b) as usize;
            loop {
                // The paper's loop guard: stop as soon as our node starts being
                // deleted — the deleter takes over responsibility for the trie.
                if node.is_stopped() || node.is_marked(guard) {
                    return;
                }
                match self.prefixes.get(&p) {
                    None => {
                        // Create a fresh trie node pointing down at our key.
                        let tn = Box::new(TrieNode::new());
                        tn.pointers[direction]
                            .store(node.packed(), std::sync::atomic::Ordering::SeqCst);
                        let tnp = TrieNodePtr::from_box(tn);
                        if self.prefixes.insert(p, tnp) {
                            metrics::record(Counter::TrieLevelCrossed);
                            // Publish-then-recheck: unlike the DCSS below, this
                            // store was not conditioned on the node's status. A
                            // remover that stopped the node after the loop guard
                            // may already have swept past this length (it skips
                            // lengths with no entry), so nobody else would ever
                            // clear what we just published. A stop that lands
                            // after this check is the remover's: its sweep
                            // starts after the stop and finds the entry. (The
                            // status alone decides: a top-level node is stopped
                            // before it is ever marked.)
                            if node.is_stopped() {
                                self.cleanup_prefixes(key, guard);
                                return;
                            }
                            break;
                        }
                        // Lost the race to create this prefix: free ours and retry.
                        // SAFETY: never published.
                        unsafe { drop(Box::from_raw(tnp.0 as *mut TrieNode)) };
                    }
                    Some(tnp) => {
                        // SAFETY: pinned; retired only after hash-table removal.
                        let tn = unsafe { tnp.deref(guard) };
                        let p0 = read_resolved(&tn.pointers[0], guard);
                        let p1 = read_resolved(&tn.pointers[1], guard);
                        if p0 == 0 && p1 == 0 && p.len > 0 {
                            // Slated for deletion: help remove it, then retry.
                            if self.prefixes.remove_if(&p, |v| *v == tnp) {
                                // We removed it; sole retirement owner (batched).
                                retired.push(tnp);
                            }
                            continue;
                        }
                        let curr = read_resolved(&tn.pointers[direction], guard);
                        if curr != 0 {
                            // SAFETY: trie pointers reference pool-backed nodes.
                            if let Some(existing) =
                                unsafe { NodeRef::<V>::from_packed(curr, guard) }
                            {
                                let adequate = existing.is_data()
                                    && if direction == 0 {
                                        existing.key() >= key
                                    } else {
                                        existing.key() <= key
                                    };
                                if adequate {
                                    metrics::record(Counter::TrieLevelCrossed);
                                    break;
                                }
                            }
                        }
                        // Swing the pointer to our node, conditioned on our node not
                        // being deleted (paper: "conditioned on x remaining unmarked").
                        let status = node.status();
                        if status & 1 != 0 {
                            return; // stopped
                        }
                        // SAFETY: the guard word is the node's status (pool-backed).
                        let res = unsafe {
                            dcss(
                                &tn.pointers[direction],
                                curr,
                                node.packed(),
                                node.status_word_ptr(),
                                status,
                                self.mode(),
                                guard,
                            )
                        };
                        match res {
                            Ok(()) => {
                                metrics::record(Counter::TrieLevelCrossed);
                                break;
                            }
                            Err(DcssError::GuardMismatch) => return,
                            Err(DcssError::TargetMismatch(_)) => {
                                metrics::record(Counter::Restart);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Algorithm 7 lines 5–22: after deleting a top-level key, make sure no trie
    /// pointer still references it, shrinking or removing trie nodes whose subtrees
    /// became empty. Runs top-down (shortest prefix first).
    pub(crate) fn cleanup_prefixes(&self, key: u64, guard: &Guard) {
        let b = self.universe_bits();
        let mut retired = TrieRetireBatch::new(guard);
        // Seed the top-level searches with the trie's own lowest-ancestor hint and
        // keep refreshing it with each search result; starting every search at the
        // head sentinel would cost O(top-level length) per prefix level.
        let mut hint = self.lowest_ancestor(key, guard);
        for len in 0..b as u8 {
            let p = Prefix::of(key, len, b);
            let direction = key_bit(key, len, b) as usize;
            let Some(tnp) = self.prefixes.get(&p) else {
                continue;
            };
            // SAFETY: pinned; retired only after hash-table removal.
            let tn = unsafe { tnp.deref(guard) };

            // Swing the pointer away while it still references a deleted node with
            // our key (robust version of the paper's `while curr = node`).
            let mut spins = 0usize;
            loop {
                spins += 1;
                metrics::record(Counter::TrieLevelCrossed);
                let curr = read_resolved(&tn.pointers[direction], guard);
                if curr == 0 {
                    break;
                }
                // SAFETY: pool-backed skiplist node.
                let Some(curr_node) = (unsafe { NodeRef::<V>::from_packed(curr, guard) }) else {
                    break;
                };
                let points_at_victim = curr_node.is_data()
                    && curr_node.key() == key
                    && (curr_node.is_stopped() || curr_node.is_marked(guard));
                if !points_at_victim {
                    break;
                }
                let (left, right) = self.skiplist().top_list_search(key, Some(hint), guard);
                hint = left;
                // pointers[0] must be the largest key in the 0-subtree, so it swings
                // backwards to `left`; pointers[1] the smallest key in the 1-subtree,
                // so it swings forwards to `right` once the successor's prev is
                // repaired (the paper's makeDone). A sentinel neighbour means the
                // subtree has no live node: clear.
                let (neighbour, is_sentinel) = if direction == 0 {
                    (left, left.is_head())
                } else {
                    self.skiplist().ensure_prev(left, right, guard);
                    (right, right.is_tail())
                };
                let status = neighbour.status();
                if neighbour.is_data() && status & 1 == 0 {
                    // SAFETY: guard word is the neighbour's status.
                    let _ = unsafe {
                        dcss(
                            &tn.pointers[direction],
                            curr,
                            neighbour.packed(),
                            neighbour.status_word_ptr(),
                            status,
                            self.mode(),
                            guard,
                        )
                    };
                } else if is_sentinel {
                    let _ = cas_resolved(&tn.pointers[direction], curr, 0, guard);
                } else {
                    // The neighbour is stopped but still linked: its remover sits
                    // between its stop and its mark. Retrying at once burns every
                    // spin inside that remover's preemption and then gives up a
                    // slot whose subtree may still hold live keys. Let it run.
                    std::thread::yield_now();
                }
                if spins > 128 {
                    // Out of retries: the neighbour stayed stalled, or the pointer
                    // keeps being re-pointed at deleted incarnations of this key by
                    // racing operations. Give the slot up rather than leave it on
                    // the victim — a null pointer costs queries a hint (hints are
                    // self-healing and linearizability does not depend on them),
                    // a pointer to a node about to be recycled is an entry no
                    // later cleanup would clear.
                    let _ = cas_resolved(&tn.pointers[direction], curr, 0, guard);
                    break;
                }
            }

            // If the pointer's target is no longer inside the p·direction subtree,
            // the subtree has become empty from the trie's perspective: clear it.
            let curr = read_resolved(&tn.pointers[direction], guard);
            if curr != 0 {
                // SAFETY: pool-backed skiplist node.
                if let Some(curr_node) = unsafe { NodeRef::<V>::from_packed(curr, guard) } {
                    let in_tree =
                        curr_node.is_data() && in_subtree(p, direction as u8, curr_node.key(), b);
                    if !in_tree {
                        let _ = cas_resolved(&tn.pointers[direction], curr, 0, guard);
                    }
                }
            }

            // If both subtrees are now empty, remove the trie node itself (the empty
            // prefix ε is permanent).
            if p.len > 0 {
                let p0 = read_resolved(&tn.pointers[0], guard);
                let p1 = read_resolved(&tn.pointers[1], guard);
                if p0 == 0 && p1 == 0 && self.prefixes.remove_if(&p, |v| *v == tnp) {
                    // We removed the entry; sole retirement owner (batched).
                    retired.push(tnp);
                }
            }
        }
    }

    /// Number of prefixes currently stored in the trie's hash table (statistics for
    /// experiments F1/E5).
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
    }

    /// Single-owner counterpart of [`SkipTrie::insert_prefixes`], used by
    /// [`SkipTrie::bulk_load`]: populate the whole prefix table from the sorted
    /// `(key, packed word)` list of top-level nodes, with **one hash-table insert
    /// per distinct prefix and no lookups at all** (the per-key formulation costs
    /// `universe_bits` lookups per top key; this layered one is what makes bulk
    /// ingest land well clear of the sequential-insert baseline).
    ///
    /// Layer by layer (prefix length 0, 1, …): the keys sharing a prefix form one
    /// contiguous *run* of the sorted list, and within a run the `0`-direction keys
    /// precede the `1`-direction keys, so the trie node's final contents read off
    /// directly — `pointers[0]` = last key of the run's 0-half (the subtree
    /// maximum), `pointers[1]` = first key of its 1-half (the subtree minimum).
    /// Each node is built complete, and the whole batch lands in the hash table
    /// through one [`SplitOrderedMap::bulk_load`](skiptrie_splitorder::SplitOrderedMap::bulk_load)
    /// merge (ε, which is permanent, is stored through in place instead). The
    /// quiescent result is field-for-field what sequential `insert_prefixes` calls
    /// would have produced.
    pub(crate) fn bulk_publish_prefixes(&mut self, tops: &[(u64, u64)], guard: &Guard) {
        use std::sync::atomic::Ordering;
        let b = self.universe_bits();
        let mut batch: Vec<(Prefix, TrieNodePtr)> = Vec::new();
        for len in 0..b as u8 {
            let mut i = 0usize;
            while i < tops.len() {
                let p = Prefix::of(tops[i].0, len, b);
                let mut j = i + 1;
                while j < tops.len() && Prefix::of(tops[j].0, len, b) == p {
                    j += 1;
                }
                let run = &tops[i..j];
                let split = run.partition_point(|&(k, _)| key_bit(k, len, b) == 0);
                let p0 = if split > 0 { run[split - 1].1 } else { 0 };
                let p1 = if split < run.len() { run[split].1 } else { 0 };
                if len == 0 {
                    // ε exists from construction; fill its pointers in place.
                    let tnp = self.prefixes.get(&Prefix::EMPTY).expect("ε is permanent");
                    // SAFETY: pinned; ε is never removed.
                    let tn = unsafe { tnp.deref(guard) };
                    if p0 != 0 {
                        tn.pointers[0].store(p0, Ordering::SeqCst);
                    }
                    if p1 != 0 {
                        tn.pointers[1].store(p1, Ordering::SeqCst);
                    }
                } else {
                    let tn = Box::new(TrieNode::new());
                    tn.pointers[0].store(p0, Ordering::Relaxed);
                    tn.pointers[1].store(p1, Ordering::Relaxed);
                    batch.push((p, TrieNodePtr::from_box(tn)));
                }
                i = j;
            }
        }
        self.prefixes.bulk_load(batch);
    }

    /// Audits the x-fast trie against the skiplist's top level under one pin,
    /// panicking on a violated invariant; returns the number of `(top key, prefix)`
    /// pairs checked. **Quiescent-only** (like [`SkipTrie::to_vec`]): concurrent
    /// updates legitimately leave transient states this audit would reject.
    ///
    /// For every key currently on the top level and every proper prefix `p` of it,
    /// the audit requires:
    ///
    /// * the trie node for `p` exists in the hash table;
    /// * `pointers[d]` (where `d` is the key's direction under `p`) is non-null and
    ///   references a live, unmarked node of the top level;
    /// * the target's key lies inside the `p·d` subtree, and brackets the audited
    ///   key from the correct side (`>= key` for `d = 0` — the subtree maximum —
    ///   and `<= key` for `d = 1`, the subtree minimum).
    ///
    /// Together with [`SkipTrie::check_traversal_integrity`] this is the "bulk load
    /// is indistinguishable from sequential inserts" proof obligation: both passes
    /// run automatically (debug builds) at the end of [`SkipTrie::bulk_load`].
    pub fn check_trie_integrity(&self) -> usize {
        let top = self.skiplist().top_level();
        if top == 0 {
            // Single-level lists never publish prefixes (the insert path reports no
            // top node when the raise loop has no levels to raise through).
            return 0;
        }
        let b = self.universe_bits();
        let guard = self.skiplist().pin();
        let mut checked = 0usize;
        for key in self.skiplist().top_level_keys() {
            for len in 0..b as u8 {
                let p = Prefix::of(key, len, b);
                let direction = key_bit(key, len, b) as usize;
                let tnp = self
                    .prefixes
                    .get(&p)
                    .unwrap_or_else(|| panic!("prefix {p:?} of top key {key} missing"));
                // SAFETY: pinned; retired only after hash-table removal.
                let tn = unsafe { tnp.deref(&guard) };
                let word = read_resolved(&tn.pointers[direction], &guard);
                // SAFETY: trie pointers reference pool-kept skiplist nodes.
                let target =
                    unsafe { NodeRef::<V>::from_packed(word, &guard) }.unwrap_or_else(|| {
                        panic!("prefix {p:?} of top key {key}: pointers[{direction}] is null")
                    });
                assert!(
                    target.is_data() && target.level() == top && !target.is_marked(&guard),
                    "prefix {p:?} of top key {key}: pointer targets a dead or non-top node"
                );
                assert!(
                    in_subtree(p, direction as u8, target.key(), b),
                    "prefix {p:?} of top key {key}: target {} outside the {direction}-subtree",
                    target.key()
                );
                assert!(
                    if direction == 0 {
                        target.key() >= key
                    } else {
                        target.key() <= key
                    },
                    "prefix {p:?} of top key {key}: target {} brackets the wrong side",
                    target.key()
                );
                checked += 1;
            }
        }
        checked
    }
}
