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
//! * [`SkipTrie::lowest_ancestor`] is Algorithm 3, galloping from the table's
//!   expected depth: the search over prefix length starts at `⌊log₂(buckets /
//!   (b/2))⌋` clamped to `1..b` — one short of `log₂` of the top-level key
//!   count, read off the prefix table's bucket count — gallops up on a hit or
//!   down on a miss to the first answer that flips, then bisects the bracket.
//!   A hit also jumps the search to the common prefix of the key and the
//!   top-level key its key-side pointer names, which is present too, or ends
//!   it when that pointer is null; the deepest probed hit's nearer pointer is
//!   kept. At most `2·⌈log₂ b⌉ + 2` table calls (ε included), so the paper's
//!   `O(log log u)` worst case stands; about 2 on uniform keys, about 5 on a
//!   window of consecutive keys at `b = 32`.
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
use skiptrie_metrics::{self as metrics, Counter};
use skiptrie_skiplist::NodeRef;

use crate::prefix::{in_subtree, key_bit, lcp_len, Prefix};
use crate::SkipTrie;

/// A node of the x-fast trie's conceptual prefix tree.
///
/// `pointers[d]` holds the packed word of a top-level skiplist node: the largest key
/// in the `prefix·0` subtree (`d == 0`) or the smallest key in the `prefix·1` subtree
/// (`d == 1`); `0` (null) means the subtree is empty (modulo in-flight inserts). A
/// trie node whose two pointers are both null is slated for removal from the hash
/// table, and any operation that observes it in that state helps remove it.
///
/// The node is the value of its prefix's hash-table entry and lives inside that
/// entry's list node, so its address is the entry's identity: the paper's
/// `compareAndDelete(p, n)` is `remove_if(&p, |v| ptr::eq(v, n))`, and the table
/// retires the node with the entry.
pub(crate) struct TrieNode {
    pub(crate) pointers: [AtomicU64; 2],
}

impl TrieNode {
    pub(crate) fn new([p0, p1]: [u64; 2]) -> Self {
        TrieNode {
            pointers: [AtomicU64::new(p0), AtomicU64::new(p1)],
        }
    }
}

/// The prefix length a lowest-ancestor search probes first, `1..b`: one short
/// of `log₂` of the top-level key count, estimated from the prefix table's
/// bucket count alone. With `n` top-level keys every prefix shorter than
/// `~log₂ n` is present with high probability and few longer ones are. The
/// table holds about `n·b/2` prefixes at the sizes where this matters (`b −
/// log₂ n` per key below the shared top of the tree) and keeps one to
/// two-thirds of a bucket per `LOAD_FACTOR = 3` entries, so `2·buckets / (b/2)`
/// is `n` to within a small factor; the start is `log₂` of half that. Short
/// errs on the cheap side: a hit's key-side pointer jumps the [`Search`] to
/// the key's lowest ancestor or near it, while a start that is too deep pays
/// a miss per length it overshoots. The bucket count is the `size` word every
/// `get` loads anyway and it changes only when the table doubles; it never
/// shrinks, so a trie that shrank starts too deep. The estimate assumes keys
/// spread over the universe, so that the top of the tree is bushy; on keys
/// packed under one long prefix it starts far too shallow, and the first
/// hit's jump covers the difference.
fn start_length(buckets: usize, b: u32) -> u32 {
    debug_assert!(b >= 2, "a one-bit universe has no proper prefix but ε");
    let estimate = buckets / (b / 2) as usize;
    estimate.max(1).ilog2().clamp(1, b - 1)
}

/// What one probe of the lowest-ancestor search learnt about the key's prefixes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Probe {
    /// The prefix is not in the table.
    Absent,
    /// The prefix is in the table, and so is every prefix of the key up to the
    /// length carried (at least the probed one): the trie node's pointer on the
    /// key's side names a top-level key sharing that many leading bits with the
    /// key, and every prefix of a top-level key is in the table.
    Present(u32),
    /// The prefix is in the table and its trie node holds the key's top-level
    /// neighbour: the pointer on the key's side is null, so the prefix is the
    /// lowest ancestor and the sibling pointer is the neighbour, or it names the
    /// key itself.
    Final,
}

/// Where a [`Search`] is in its gallop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    /// Nothing probed yet: the next probe is at `start`.
    First,
    /// Every probe hit; the next lands `step` past what is known.
    Up(u32),
    /// Every probe missed; the next is at `start − step`.
    Down(u32),
    /// Both answers seen: bisect what is left.
    Bisect,
}

/// Exponential search (Bentley & Yao, 1976) over prefix lengths `1..b` for the
/// deepest one present, driven by its caller: [`Search::next`] names the length
/// to probe and [`Search::learn`] takes what the probe found.
///
/// Invariant: `lo` is the deepest length known present (0 = ε, which always
/// is), `hi` the shallowest known absent (`b` = none yet), and `fetched` says
/// whether `lo`'s trie node has been probed — only a probed node's pointers
/// are handed back (ε is the caller's fallback, never probed here). A hit
/// knows more than its own length: its pointer on the key's side is null
/// exactly when the next length is absent, and otherwise names a top-level
/// key whose common prefix with the key is present too. So a hit moves `lo`
/// there at once, usually past lengths never probed, and a `lo` reached that
/// way is probed last (the *fetch*) for its pointers. On keys packed under one
/// long prefix — a window of consecutive keys — the first hit jumps to that
/// prefix's length wherever the search started.
///
/// The first probe is at `start`. A hit gallops up, probing `step − 1` past an
/// unfetched `lo` (the first step fetches it) or `step` past a fetched one,
/// `step = 1, 2, 4, …`, to the first miss; a miss gallops down (`start − 1,
/// − 2, − 4, …`, floored at 1) to the first hit. The bracket left is bisected.
/// Every probe lies in `[lo, hi)`, at `lo` only to fetch it, so each one
/// narrows the bracket or fetches `lo`, and the search ends whatever the
/// answers, concurrent ones included. It makes at most `2·⌈log₂ b⌉ + 1`
/// probes (`xfast::tests::search_probes_within_the_bound` takes the worst
/// over every start and answer sequence for `b` ≤ 64); with the ε fallback
/// that is `2·⌈log₂ b⌉ + 2` table calls.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Search {
    start: u32,
    lo: u32,
    hi: u32,
    fetched: bool,
    phase: Phase,
}

impl Search {
    fn new(start: u32, b: u32) -> Self {
        debug_assert!((1..b).contains(&start));
        Search {
            start,
            lo: 0,
            hi: b,
            fetched: true,
            phase: Phase::First,
        }
    }

    /// The length to probe next, or `None` once the deepest present length is
    /// known and its trie node probed.
    fn next(&self) -> Option<u32> {
        if self.lo + 1 >= self.hi {
            return (!self.fetched).then_some(self.lo);
        }
        // The shallowest length a probe can still tell something about: a
        // probe of an unfetched `lo` answers for `lo + 1`.
        let unknown = self.lo + u32::from(self.fetched);
        Some(match self.phase {
            Phase::First => self.start,
            Phase::Up(step) => (unknown + step - 1).min(self.hi - 1),
            Phase::Down(step) => self.start.saturating_sub(step).max(1),
            Phase::Bisect => self.lo + (self.hi - self.lo) / 2,
        })
    }

    /// Takes the answer of the probe at `len`, the length [`Search::next`] named.
    fn learn(&mut self, len: u32, probe: Probe) {
        match probe {
            // A length a hit vouched for went missing under a concurrent
            // delete: the search ends on what it holds.
            Probe::Absent if len == self.lo => {
                self.hi = len + 1;
                self.fetched = true;
            }
            Probe::Absent => self.hi = len,
            Probe::Present(known) => {
                self.lo = known.clamp(len, self.hi - 1);
                self.fetched = self.lo == len;
            }
            Probe::Final => {
                self.lo = len;
                self.hi = len + 1;
                self.fetched = true;
            }
        }
        self.phase = match (self.phase, probe) {
            (Phase::First, Probe::Absent) => Phase::Down(1),
            (Phase::Down(step), Probe::Absent) => Phase::Down(2 * step),
            (Phase::First, _) => Phase::Up(1),
            (Phase::Up(step), Probe::Present(_)) => Phase::Up(2 * step),
            _ => Phase::Bisect,
        };
    }
}

impl<V> SkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Algorithm 3, galloping from the table's expected depth: the lowest ancestor
    /// of `key` is found by a [`Search`] over prefix length that starts at
    /// [`start_length`] and jumps past every length a hit vouches for, and the
    /// deepest probed hit's nearer top-level pointer is returned
    /// ([`SkipTrie::probe_prefix`]), or the head sentinel when no probe offered
    /// one.
    ///
    /// Each probe is one `prefixes.get_in` — `O(1)` *expected* only while the hash
    /// table's chains stay short, which the growable bucket directory guarantees
    /// at every size (experiment `e1`'s flat `steps/op` counts the chain hops).
    /// A search makes at most `2·⌈log₂ b⌉ + 2` of them, ε included; their
    /// number is returned beside the start.
    pub(crate) fn lowest_ancestor<'g>(
        &'g self,
        key: u64,
        guard: &'g Guard,
    ) -> (NodeRef<'g, V>, u32) {
        let b = self.universe_bits();
        let mut ancestor: NodeRef<'g, V> = self.skiplist().head_top();
        let mut gets = 0;
        if b >= 2 {
            let mut search = Search::new(start_length(self.prefixes.bucket_count(), b), b);
            while let Some(len) = search.next() {
                gets += 1;
                search.learn(len, self.probe_prefix(key, len, &mut ancestor, guard));
            }
        }
        if ancestor.is_head() {
            // No probe hit (or, under concurrent deletes, none left a usable
            // pointer): fall back on the root ε, where the paper's line 4 starts.
            // ε is permanent, so this is one more `get` and never a miss.
            gets += 1;
            self.probe_prefix(key, 0, &mut ancestor, guard);
        }
        if ancestor.is_head() {
            // No probed pointer was usable: the descent starts at the head sentinel.
            // Right on an empty top level, an `O(top-level length)` walk otherwise.
            metrics::record(Counter::AncestorIsHead);
        }
        (ancestor, gets)
    }

    /// One probe of Algorithm 3: looks up the length-`len` prefix of `key` and
    /// says what that tells the [`Search`]. A hit offers both of its pointers;
    /// the closer of those that are usable replaces `ancestor` (paper: "the
    /// query always remembers the 'best' pointer into the linked list it has
    /// seen"). Both children are inspected: at the lowest ancestor itself the
    /// subtree on the key's side is empty, and it is the *sibling* pointer that
    /// holds the key's immediate top-level neighbour.
    ///
    /// "Best" is the deepest probed hit's pointer, not the closest seen over all
    /// hits: the search's probed hits come in increasing length, and in a
    /// quiescent trie the deepest one is the lowest ancestor, whose pointer is
    /// the key's top-level predecessor or successor, while a shallower hit's
    /// pointer on the far side of the key can be nearer in value and still not
    /// adjacent to it. A shallower pointer survives only while no deeper hit
    /// offers a usable one (concurrent deletes can empty a trie node under the
    /// search).
    fn probe_prefix<'g>(
        &'g self,
        key: u64,
        len: u32,
        ancestor: &mut NodeRef<'g, V>,
        guard: &'g Guard,
    ) -> Probe {
        let b = self.universe_bits();
        let query = Prefix::of(key, len as u8, b);
        let Some(tn) = self.prefixes.get_in(&query, guard) else {
            return Probe::Absent;
        };
        let side = usize::from(key_bit(key, len as u8, b));
        let mut best: Option<NodeRef<'g, V>> = None;
        let mut probe = Probe::Present(len);
        for (direction, pointer) in tn.pointers.iter().enumerate() {
            let word = read_resolved(pointer, guard);
            if direction == side && word == 0 {
                probe = Probe::Final;
            }
            // SAFETY: trie pointers reference skiplist nodes kept valid by the pool.
            if let Some(candidate) = unsafe { NodeRef::from_packed(word, guard) } {
                if !candidate.is_data() || !query.is_prefix_of(candidate.key(), b) {
                    continue;
                }
                if direction == side {
                    probe = match lcp_len(key, candidate.key(), b) {
                        shared if shared >= b => Probe::Final,
                        shared => Probe::Present(shared.max(len)),
                    };
                }
                if best.is_none_or(|kept| candidate.key().abs_diff(key) < kept.key().abs_diff(key))
                {
                    best = Some(candidate);
                }
            }
        }
        if let Some(best) = best {
            *ancestor = best;
        }
        probe
    }

    /// Algorithm 4: from the lowest ancestor, walk `back` pointers (marked nodes) and
    /// `prev` guides (unmarked nodes) until reaching a top-level node with key
    /// `<= key`. The result is the start hint for the skiplist descent.
    pub(crate) fn xfast_pred<'g>(&'g self, key: u64, guard: &'g Guard) -> NodeRef<'g, V> {
        let (ancestor, _) = self.lowest_ancestor(key, guard);
        self.skiplist().walk_to_le(key, ancestor, guard)
    }

    /// Algorithm 6 lines 5–20: publish the prefixes of a freshly inserted top-level
    /// node, longest prefix first (bottom-up in the conceptual tree).
    pub(crate) fn insert_prefixes(&self, key: u64, node: NodeRef<'_, V>, guard: &Guard) {
        let b = self.universe_bits();
        for len in (0..b as u8).rev() {
            let p = Prefix::of(key, len, b);
            let direction = key_bit(key, len, b) as usize;
            loop {
                // The paper's loop guard: stop as soon as our node starts being
                // deleted — the deleter takes over responsibility for the trie.
                if node.is_stopped() || node.is_marked(guard) {
                    return;
                }
                match self.prefixes.get_in(&p, guard) {
                    None => {
                        // Create a fresh trie node pointing down at our key.
                        let mut pointers = [0; 2];
                        pointers[direction] = node.packed();
                        if self.prefixes.insert(p, TrieNode::new(pointers)) {
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
                        // Lost the race to create this prefix (the rejected node
                        // is dropped): retry.
                    }
                    Some(tn) => {
                        let p0 = read_resolved(&tn.pointers[0], guard);
                        let p1 = read_resolved(&tn.pointers[1], guard);
                        if p0 == 0 && p1 == 0 && !p.is_empty() {
                            // Slated for deletion: help remove it (the table
                            // retires it), then retry.
                            self.prefixes.remove_if(&p, |v| std::ptr::eq(v, tn));
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
        // Seed the top-level searches with the trie's own lowest-ancestor hint and
        // keep refreshing it with each search result; starting every search at the
        // head sentinel would cost O(top-level length) per prefix level.
        let (mut hint, _) = self.lowest_ancestor(key, guard);
        for len in 0..b as u8 {
            let p = Prefix::of(key, len, b);
            let direction = key_bit(key, len, b) as usize;
            let Some(tn) = self.prefixes.get_in(&p, guard) else {
                continue;
            };

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
            // prefix ε is permanent); the table retires it with its entry.
            if !p.is_empty() {
                let p0 = read_resolved(&tn.pointers[0], guard);
                let p1 = read_resolved(&tn.pointers[1], guard);
                if p0 == 0 && p1 == 0 {
                    self.prefixes.remove_if(&p, |v| std::ptr::eq(v, tn));
                }
            }
        }
    }

    /// The lowest-ancestor search alone (Algorithm 3, without the walk and the
    /// descent after it): the key of the top-level node the search would start
    /// `key`'s descent from, or `None` for the head sentinel. Experiment `e1`
    /// times it.
    pub fn lowest_ancestor_key(&self, key: u64) -> Option<u64> {
        let guard = self.pin();
        let (start, _) = self.lowest_ancestor(key, &guard);
        (!start.is_head()).then(|| start.key())
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
    /// `universe_bits` lookups per top key; this one is what makes bulk ingest
    /// land well clear of the sequential-insert baseline).
    ///
    /// Prefix by prefix, from ε down: the keys sharing a prefix form one
    /// contiguous *run* of the sorted list, and within a run the `0`-direction keys
    /// precede the `1`-direction keys, so the trie node's final contents read off
    /// directly — `pointers[0]` = last key of the run's 0-half (the subtree
    /// maximum), `pointers[1]` = first key of its 1-half (the subtree minimum).
    /// The two halves are the runs of the prefix's two children, so no key is
    /// rescanned per length, and the batch is sized exactly up front from the
    /// neighbouring top keys' common prefixes. Each node is built complete, and
    /// the whole batch (in any order: the merge places entries by hash) lands in
    /// the hash table through one [`SplitOrderedMap::bulk_load`](skiptrie_splitorder::SplitOrderedMap::bulk_load)
    /// merge (ε, which is permanent, is stored through in place instead). The
    /// quiescent result is field-for-field what sequential `insert_prefixes` calls
    /// would have produced.
    pub(crate) fn bulk_publish_prefixes(&mut self, tops: &[(u64, u64)], guard: &Guard) {
        use std::sync::atomic::Ordering;
        let b = self.universe_bits();
        if tops.is_empty() {
            return;
        }
        // One entry per distinct prefix of length 1..b: a length has one more than
        // the neighbouring top keys whose common prefix is shorter than it.
        let entries = tops
            .windows(2)
            .map(|w| (b - 1 - lcp_len(w[0].0, w[1].0, b)) as usize)
            .sum::<usize>()
            + (b - 1) as usize;
        let mut batch: Vec<(Prefix, TrieNode)> = Vec::with_capacity(entries);
        // Runs still to publish, as `(prefix length, range of tops)`. A run's two
        // halves are the runs one bit longer; taking the latest first keeps at
        // most one pending half per length.
        let mut runs = Vec::with_capacity(b as usize + 1);
        runs.push((0u8, 0..tops.len()));
        while let Some((len, run)) = runs.pop() {
            let keys = &tops[run.clone()];
            let split = keys.partition_point(|&(k, _)| key_bit(k, len, b) == 0);
            let p0 = if split > 0 { keys[split - 1].1 } else { 0 };
            let p1 = if split < keys.len() { keys[split].1 } else { 0 };
            if len == 0 {
                // ε exists from construction; fill its pointers in place.
                let tn = self
                    .prefixes
                    .get_in(&Prefix::EMPTY, guard)
                    .expect("ε is permanent");
                if p0 != 0 {
                    tn.pointers[0].store(p0, Ordering::SeqCst);
                }
                if p1 != 0 {
                    tn.pointers[1].store(p1, Ordering::SeqCst);
                }
            } else {
                batch.push((Prefix::of(keys[0].0, len, b), TrieNode::new([p0, p1])));
            }
            if u32::from(len) + 1 < b {
                let mid = run.start + split;
                for half in [run.start..mid, mid..run.end] {
                    if !half.is_empty() {
                        runs.push((len + 1, half));
                    }
                }
            }
        }
        debug_assert_eq!(batch.len(), entries);
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
                let tn = self
                    .prefixes
                    .get_in(&p, &guard)
                    .unwrap_or_else(|| panic!("prefix {p:?} of top key {key} missing"));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SkipTrieConfig;
    use skiptrie_skiplist::OrderedKv;
    use skiptrie_splitorder::SplitOrderedMap;
    use skiptrie_workloads::{harness::scaled, SplitMix64};
    use std::collections::HashMap;

    #[test]
    fn a_prefix_entry_is_forty_bytes_and_a_bucket_sentinel_sixteen() {
        let map: SplitOrderedMap<Prefix, TrieNode> = SplitOrderedMap::new();
        assert!(map.insert(Prefix::EMPTY, TrieNode::new([0, 0])));
        // One entry, and bucket 0's sentinel: the table's only bucket.
        assert_eq!(map.bucket_count(), 1);
        assert_eq!(map.node_bytes(), 40 + 16);
    }

    #[test]
    fn the_lowest_ancestor_key_is_a_top_level_neighbour() {
        let trie: SkipTrie<u64> = SkipTrie::new(SkipTrieConfig::for_universe_bits(32));
        assert_eq!(
            trie.lowest_ancestor_key(5),
            None,
            "an empty trie starts at the head"
        );
        for k in (0..4_000u64).map(|i| i * 1_000) {
            trie.insert(k, k);
        }
        let top = trie.top_level_keys();
        for q in (0..4_000_000u64).step_by(7_919) {
            let start = trie.lowest_ancestor_key(q).expect("a populated trie");
            let i = top.partition_point(|&t| t <= q);
            let neighbours = [i.checked_sub(1).map(|j| top[j]), top.get(i).copied()];
            assert!(
                neighbours.contains(&Some(start)),
                "query {q} started at {start}"
            );
        }
    }

    /// Table calls one lowest-ancestor search may make: the [`Search`]'s
    /// `2·⌈log₂ b⌉ + 1` probes and the ε fallback.
    fn gets_bound(b: u32) -> u32 {
        2 * b.next_power_of_two().ilog2() + 2
    }

    /// The most probes a [`Search`] in state `search` still makes over any
    /// answer sequence, consistent or not, checking on the way that every probe
    /// lies in `[lo, hi)` and at `lo` only to fetch it. `Up` and `Bisect` never
    /// read `start`, so their states share one entry of `memo` whatever it is.
    fn worst_probes(search: Search, memo: &mut HashMap<Search, u32>) -> u32 {
        let Some(len) = search.next() else {
            return 0;
        };
        assert!(
            (search.lo..search.hi).contains(&len) && (len > search.lo || !search.fetched),
            "{search:?} probes {len}"
        );
        let entry = match search.phase {
            Phase::Up(_) | Phase::Bisect => Search { start: 0, ..search },
            Phase::First | Phase::Down(_) => search,
        };
        if let Some(&worst) = memo.get(&entry) {
            return worst;
        }
        let answers = [Probe::Absent, Probe::Final]
            .into_iter()
            .chain((len..=search.hi).map(Probe::Present));
        let worst = 1 + answers
            .map(|answer| {
                let mut after = search;
                after.learn(len, answer);
                worst_probes(after, memo)
            })
            .max()
            .unwrap();
        memo.insert(entry, worst);
        worst
    }

    /// Runs a [`Search`] against a trie where the key's prefixes are present up
    /// to `deepest`, each hit short of it vouching for `known(len)`; returns the
    /// length found, if its trie node was probed.
    fn run(start: u32, b: u32, deepest: u32, known: impl Fn(u32) -> u32) -> Option<u32> {
        let mut search = Search::new(start, b);
        while let Some(len) = search.next() {
            let answer = match len {
                len if len > deepest => Probe::Absent,
                len if len == deepest => Probe::Final,
                len => Probe::Present(known(len).clamp(len + 1, deepest)),
            };
            search.learn(len, answer);
        }
        search.fetched.then_some(search.lo)
    }

    #[test]
    fn search_probes_within_the_bound() {
        for b in [2, 3, 4, 5, 7, 8, 9, 16, 24, 31, 32, 33, 48, 63, 64] {
            let mut memo = HashMap::new();
            let mut worst = 0;
            for start in 1..b {
                // Consistent answers (a prefix of the key is present up to some
                // length and absent past it) find that length exactly and fetch
                // it, whether hits vouch for the next length only, for all of
                // it, or for something between.
                for deepest in 0..b {
                    let knowns: [fn(u32) -> u32; 3] =
                        [|len| len + 1, |_| u32::MAX, |len| len + len / 3];
                    for known in knowns {
                        assert_eq!(
                            run(start, b, deepest, known),
                            Some(deepest),
                            "b = {b}, start = {start}"
                        );
                    }
                }
                let probes = worst_probes(Search::new(start, b), &mut memo);
                // One table call is left for the ε fallback.
                assert!(
                    probes < gets_bound(b),
                    "b = {b}, start = {start}: {probes} probes"
                );
                worst = worst.max(probes);
            }
            println!(
                "b = {b}: at most {worst} probes, bound {}",
                gets_bound(b) - 1
            );
        }
    }

    #[test]
    fn the_start_length_follows_the_bucket_count() {
        assert_eq!(
            start_length(1, 32),
            1,
            "an empty table starts at the shallowest length"
        );
        assert_eq!(start_length(1 << 16, 32), 12);
        assert_eq!(start_length(1 << 16, 64), 11);
        assert_eq!(start_length(usize::MAX / 4, 8), 7, "clamped below b");
        assert_eq!(start_length(1 << 20, 2), 1);
    }

    fn top_neighbours(top: &[u64], key: u64) -> (Option<u64>, Option<u64>) {
        let i = top.partition_point(|&k| k < key);
        let succ = top.get(i).copied();
        let pred = if succ == Some(key) {
            succ
        } else {
            i.checked_sub(1).map(|j| top[j])
        };
        (pred, succ)
    }

    /// Runs every query through the search on a quiescent `t` and checks the
    /// start it returns against the top level by brute force: the head on an
    /// empty top level, otherwise the query's top-level predecessor or
    /// successor. Returns the mean number of table calls a search made.
    fn check_starts(t: &SkipTrie<u64>, queries: &[u64], what: &str) -> f64 {
        let b = t.universe_bits();
        let top = t.top_level_keys();
        let guard = t.pin();
        let mut total = 0u64;
        for &q in queries {
            let (start, gets) = t.lowest_ancestor(q, &guard);
            assert!(
                gets <= gets_bound(b),
                "b = {b}, {what}: {gets} gets for {q}"
            );
            total += u64::from(gets);
            if top.is_empty() {
                assert!(
                    start.is_head(),
                    "b = {b}, {what}: an empty top level starts at the head"
                );
                continue;
            }
            let (pred, succ) = top_neighbours(&top, q);
            assert!(
                start.is_data() && (Some(start.key()) == pred || Some(start.key()) == succ),
                "b = {b}, {what}: query {q} started at {:?}, top-level neighbours {pred:?} / {succ:?}",
                start.is_data().then(|| start.key()),
            );
        }
        total as f64 / queries.len() as f64
    }

    /// Queries spread over the universe, over `span`, and beside every top key.
    fn queries(t: &SkipTrie<u64>, span: (u64, u64), rng: &mut SplitMix64) -> Vec<u64> {
        let max = t.max_key();
        let mut out: Vec<u64> = (0..scaled(1_000)).map(|_| rng.next() & max).collect();
        out.extend(
            (0..scaled(1_000))
                .map(|_| span.0 + rng.next_below((span.1 - span.0).saturating_add(1))),
        );
        for k in t.top_level_keys() {
            out.extend([k.saturating_sub(1), k, k.saturating_add(1).min(max)]);
        }
        out
    }

    fn trie(b: u32) -> SkipTrie<u64> {
        SkipTrie::new(SkipTrieConfig::for_universe_bits(b).with_seed(0x9a11))
    }

    #[test]
    fn the_galloping_search_starts_next_to_the_key() {
        for b in [8u32, 16, 32, 64] {
            let max = crate::prefix::max_key(b);
            let mut rng = SplitMix64::new(0x6a11 ^ u64::from(b));

            let empty = trie(b);
            let q = queries(&empty, (0, max), &mut rng);
            check_starts(&empty, &q, "empty");

            // One key, on the top level (a short tower leaves the level empty).
            let one = trie(b);
            for k in (0..64u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & max) {
                one.insert(k, k);
                if !one.top_level_keys().is_empty() {
                    break;
                }
                one.remove(k);
            }
            let q = queries(&one, (0, max), &mut rng);
            check_starts(&one, &q, "one key");

            let uniform = trie(b);
            for _ in 0..4_096.min(max / 2) {
                let k = rng.next() & max;
                uniform.insert(k, k);
            }
            let q = queries(&uniform, (0, max), &mut rng);
            let uniform_gets = check_starts(&uniform, &q, "uniform");

            // Consecutive keys under one long prefix: below it the tree is a
            // path, so the start length the table suggests is far too shallow.
            let window = 4_096.min(1u64 << (b - 2));
            let base = rng.next() & max & !(window - 1);
            let clustered = trie(b);
            for k in base..base + window {
                clustered.insert(k, k);
            }
            let q = queries(&clustered, (base, base + window - 1), &mut rng);
            let clustered_gets = check_starts(&clustered, &q, "clustered");

            // Built at 2^17 keys (the whole universe where it is smaller), then
            // shrunk to 16 top-level keys: the bucket count never shrinks, so the
            // start length is far too deep.
            let built = (1u64 << 17).min(max.saturating_add(1));
            let stride = (max / built).max(1);
            let mut shrunk = trie(b);
            shrunk.bulk_load((0..built).map(|i| (i * stride, i)));
            let top = shrunk.top_level_keys();
            let keep: Vec<u64> = top
                .iter()
                .copied()
                .step_by((top.len() / 16).max(1))
                .take(16)
                .collect();
            let doomed: Vec<u64> = (0..built)
                .map(|i| i * stride)
                .filter(|k| !keep.contains(k))
                .collect();
            shrunk.remove_batch(&doomed);
            assert_eq!(shrunk.top_level_keys(), keep);
            let q = queries(&shrunk, (0, max), &mut rng);
            let shrunk_gets = check_starts(&shrunk, &q, "shrunk");
            println!(
                "b = {b}: mean gets per search, uniform {uniform_gets:.2}, clustered {clustered_gets:.2}, shrunk {shrunk_gets:.2} (bound {})",
                gets_bound(b)
            );
        }
    }

    #[test]
    fn a_predecessor_counts_one_hash_op_per_table_call() {
        let t = trie(32);
        let mut rng = SplitMix64::new(0x4a54);
        for _ in 0..2_000 {
            let k = rng.next() & 0xffff_ffff;
            t.insert(k, k);
        }
        // The switch is process-wide: hold it on alone. The count is read off
        // this thread's counters, which other tests' threads never touch.
        let _serial = crate::METRICS_SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let was_enabled = metrics::is_enabled();
        metrics::set_enabled(true);
        for _ in 0..64 {
            let q = rng.next() & 0xffff_ffff;
            let gets = t.lowest_ancestor(q, &t.pin()).1;
            assert!(gets <= gets_bound(32), "{gets} gets for {q}");
            let before = metrics::thread_snapshot();
            t.predecessor(q);
            let ops = metrics::thread_snapshot()
                .since(&before)
                .get(Counter::HashOp);
            assert_eq!(ops, u64::from(gets), "hash ops of predecessor({q})");
        }
        metrics::set_enabled(was_enabled);
    }
}
