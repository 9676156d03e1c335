//! Level traversal: the paper's `listSearch` (Section 2), the descent that collects
//! per-level predecessors, and the top-level guide walk used by `xFastTriePred`
//! (Algorithm 4).

use crossbeam_epoch::Guard;
use skiptrie_atomics::dcss::{cas_resolved, read_resolved};
use skiptrie_atomics::tagged;
use skiptrie_metrics::{self as metrics, Counter};
use std::sync::atomic::Ordering;

use crate::node::{Node, NodeRef};
use crate::SkipList;

/// How many `back`/`prev` hops a guide walk follows before giving up and restarting
/// from the head sentinel ([`Counter::WalkHopLimit`]).
///
/// At quiescence every top-level node's `prev` is its exact top-level predecessor.
/// Three parties maintain that: an insert fixes its own `prev` *and its
/// successor's* (Algorithm 1), a delete fixes its successor's (Algorithm 2), and a
/// reader that is handed a dangling guide resolves it with one top-level search
/// and repairs it in place (`follow_guide`). So a walk is a handful of hops, and a
/// restart from the head is not a safe default but an `O(top-level length)` cost
/// that must stay an accident: every path to it has its own counter, and the one
/// that used to recur — a guide left naming a recycled node — is paid once per
/// guide, not once per query.
const WALK_HOP_LIMIT: usize = 256;
/// After this many whole-search restarts, `list_search` starts over from the level's
/// head sentinel instead of the caller's hint.
const SEARCH_RESTART_LIMIT: usize = 3;

/// Most top-level lines [`SkipList::top_bracket`] follows from the node it is
/// handed before it gives up.
pub(crate) const BRACKET_HOPS: usize = 3;

/// Most levels a list has (`SkipList::new` asserts it): the size of a descent's
/// [`Brackets`].
pub(crate) const MAX_LEVELS: usize = 32;

/// The `(left, right)` bracket of one descent on every level, level `i` at index
/// `i`: a fixed array, so a search allocates nothing.
pub(crate) struct Brackets<'g, V> {
    levels: usize,
    at: [(&'g Node<V>, &'g Node<V>); MAX_LEVELS],
}

impl<'g, V> std::ops::Deref for Brackets<'g, V> {
    type Target = [(&'g Node<V>, &'g Node<V>)];

    fn deref(&self) -> &Self::Target {
        &self.at[..self.levels]
    }
}

/// Asks for the line of the node `down` names (the next level's first hop) while
/// this level's walk goes on ([`skiptrie_atomics::prefetch`], a hint only).
#[inline(always)]
fn prefetch_down<V>(node: &Node<V>) {
    let down = node.down_word();
    if !tagged::is_null(down) {
        skiptrie_atomics::prefetch(tagged::unpack::<i8>(down));
    }
}

impl<V> SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// True — and counted by cause — if a guide's `target` cannot be followed on the
    /// top level: it is a tail sentinel, it has left the top level (a recycled node
    /// living on another level), or its key is not smaller than `below`, the key of
    /// the node the guide belongs to (`None` for a trie pointer, which may name any
    /// top-level key).
    fn is_dangling(&self, target: &Node<V>, below: Option<u64>) -> bool {
        if !self.dangles(target, below) {
            return false;
        }
        if target.is_tail() {
            metrics::record(Counter::GuideTail);
        } else if target.level() != self.top_level() {
            metrics::record(Counter::GuideOffLevel);
        } else {
            metrics::record(Counter::GuideNotSmaller);
        }
        true
    }

    /// [`SkipList::is_dangling`]'s test without its count.
    fn dangles(&self, target: &Node<V>, below: Option<u64>) -> bool {
        target.is_tail()
            || target.level() != self.top_level()
            || target.is_data() && below.is_some_and(|bound| target.key_value() >= bound)
    }

    /// Follows one top-level guide out of `from` — its `back` pointer if `from` is
    /// marked, its `prev` otherwise — to a top-level node (or the head sentinel)
    /// whose key is smaller than `from`'s.
    ///
    /// A guide that names nothing, a tail, a node that has left the top level or a
    /// key that is not smaller is *dangling*: its target was deleted and recycled
    /// while the guide still named it. It is counted by cause. A dangling `back`
    /// (on a node already deleted itself) falls back to the head. A dangling `prev`
    /// sits on a live node that later queries will be handed again, so it is
    /// resolved by one search for `from`'s own key and repaired in place with
    /// [`SkipList::ensure_prev`] — the paper's helping idiom, one DCSS — which
    /// makes the search a cost per guide instead of per query.
    fn follow_guide<'g>(
        &'g self,
        from: &'g Node<V>,
        marked: bool,
        guard: &'g Guard,
    ) -> &'g Node<V> {
        let word = if marked {
            metrics::record(Counter::BackPointerFollowed);
            from.back.load(Ordering::SeqCst)
        } else {
            metrics::record(Counter::PrevPointerFollowed);
            from.guide()
                .map_or(tagged::NULL, |prev| read_resolved(prev, guard))
        };
        if tagged::is_null(word) {
            metrics::record(Counter::GuideNull);
        } else {
            // SAFETY: guides reference nodes of this structure; the pool keeps the
            // memory valid, and a recycled target is what the check below rejects.
            let target: &Node<V> = unsafe { &*tagged::unpack(word) };
            if !self.is_dangling(target, Some(from.key_value())) {
                return target;
            }
        }
        let top = self.top_level();
        if marked {
            return self.head(top);
        }
        let (left, right) = self.list_search(top, from.key_value(), self.head(top), guard);
        if std::ptr::eq(right, from)
            && self.ensure_prev(NodeRef::new(left), NodeRef::new(from), guard)
        {
            metrics::record(Counter::GuideHealed);
        }
        left
    }

    /// Turns a start hint into a usable traversal start for `level`: a node on that
    /// level that is (best-effort) unmarked and has key `< x`. Marked hints retreat
    /// along their `back` pointer; live top-level hints whose key is not strictly
    /// below `x` retreat along the `prev` guide — the x-fast walk stops at
    /// `key <= x` (Algorithm 4), so a query for a key that is itself linked on the
    /// top level arrives here pointing at its own node, and discarding that hint
    /// would turn every present-top-level-key query into an O(n) walk from the head
    /// sentinel. Falls back to the head when the hint is not on this level
    /// ([`Counter::StartHintRejected`] on the top level), when a lower level offers
    /// no guide (only the top level keeps `prev`), or at the hop limit.
    fn valid_start<'g>(
        &'g self,
        level: u8,
        x: u64,
        start: &'g Node<V>,
        attempt: usize,
        guard: &'g Guard,
    ) -> &'g Node<V> {
        if attempt > SEARCH_RESTART_LIMIT {
            return self.head(level);
        }
        let on_top = level == self.top_level();
        let mut node = start;
        let mut hops = 0usize;
        loop {
            if node.is_head() && node.level() == level {
                return node;
            }
            // Wrong level or a tail: the hint cannot be used on this level.
            if node.level() != level || node.is_tail() {
                if on_top {
                    metrics::record(Counter::StartHintRejected);
                }
                return self.head(level);
            }
            let marked = node.is_marked(guard);
            if !marked && !node.key_ge(x) {
                return node;
            }
            hops += 1;
            if hops > WALK_HOP_LIMIT {
                metrics::record(Counter::WalkHopLimit);
                return self.head(level);
            }
            if on_top {
                node = self.follow_guide(node, marked, guard);
                continue;
            }
            if !marked {
                return self.head(level);
            }
            // The hint is logically deleted: retreat along its back pointer.
            metrics::record(Counter::BackPointerFollowed);
            let back = node.back.load(Ordering::SeqCst);
            if tagged::is_null(back) {
                return self.head(level);
            }
            // SAFETY: `back` references a node of this structure; the pool keeps the
            // memory valid and poisoned fields route us to the head above.
            node = unsafe { &*tagged::unpack(back) };
        }
    }

    /// The paper's `listSearch(x, start)` on one level: returns `(left, right)` such
    /// that `left.key < x <= right.key`, both were unmarked when observed, and
    /// `left.next == right` held at some point during the call. Marked nodes
    /// encountered along the way are physically unlinked. Above level 0 it
    /// prefetches the `down` target of `left` as `left` advances, and of `right` when
    /// it returns: the next level's walk starts at the one and ends by the other.
    pub(crate) fn list_search<'g>(
        &'g self,
        level: u8,
        x: u64,
        start: &'g Node<V>,
        guard: &'g Guard,
    ) -> (&'g Node<V>, &'g Node<V>) {
        let mut start_node = start;
        let mut attempt = 0usize;
        'restart: loop {
            attempt += 1;
            let left_start = self.valid_start(level, x, start_node, attempt, guard);
            let mut left = left_start;
            let left_next = read_resolved(&left.next, guard);
            if tagged::is_marked(left_next) {
                // The start became marked between validation and the read; retry (the
                // validator will follow its back pointer or reset to the head).
                metrics::record(Counter::Restart);
                start_node = left;
                continue 'restart;
            }
            let mut curr_word = tagged::untagged(left_next);
            loop {
                metrics::record(Counter::PtrRead);
                if tagged::is_null(curr_word) {
                    // Defensive: levels are tail-terminated, so a null successor means
                    // we wandered onto poisoned memory via a stale hint.
                    metrics::record(Counter::Restart);
                    start_node = self.head(level);
                    continue 'restart;
                }
                // SAFETY: node memory is type-stable (pool) and reached while pinned.
                let curr: &Node<V> = unsafe { &*tagged::unpack(curr_word) };
                let curr_next = read_resolved(&curr.next, guard);
                if tagged::is_marked(curr_next) {
                    let succ = tagged::untagged(curr_next);
                    if tagged::is_null(succ) {
                        // Poisoned (pooled) node reached through a stale link; never
                        // splice a null into the list — restart from the head.
                        metrics::record(Counter::Restart);
                        start_node = self.head(level);
                        continue 'restart;
                    }
                    // Physically unlink the logically deleted node.
                    metrics::record(Counter::MarkedNodeSkipped);
                    match cas_resolved(&left.next, curr_word, succ, guard) {
                        Ok(()) => {
                            curr_word = succ;
                            continue;
                        }
                        Err(_) => {
                            metrics::record(Counter::Restart);
                            start_node = left;
                            continue 'restart;
                        }
                    }
                }
                if curr.key_ge(x) {
                    if level > 0 {
                        prefetch_down(curr);
                    }
                    return (left, curr);
                }
                left = curr;
                if level > 0 {
                    prefetch_down(left);
                }
                curr_word = tagged::untagged(curr_next);
            }
        }
    }

    /// Descends from `start_top` (a top-level node with key `< x`, or any usable hint)
    /// collecting the `(left, right)` bracket of `x` on every level, top to bottom.
    pub(crate) fn find_preds<'g>(
        &'g self,
        x: u64,
        start_top: &'g Node<V>,
        guard: &'g Guard,
    ) -> Brackets<'g, V> {
        let levels = self.levels();
        let mut brackets = Brackets {
            levels: levels as usize,
            at: [(start_top, start_top); MAX_LEVELS],
        };
        let mut start = start_top;
        for level in (0..levels).rev() {
            let (left, right) = self.list_search(level, x, start, guard);
            brackets.at[level as usize] = (left, right);
            if level > 0 {
                let down = left.down_word();
                start = if tagged::is_null(down) {
                    self.head(level - 1)
                } else {
                    // SAFETY: `down` pointers reference the same tower one level
                    // below; lower levels are retired only after upper ones, so the
                    // standard epoch argument protects the dereference.
                    unsafe { &*tagged::unpack(down) }
                };
            }
        }
        brackets
    }

    /// The walk of Algorithm 4 (`xFastTriePred`): starting from a (possibly marked,
    /// possibly stale) top-level hint, follow `back` pointers of marked nodes and
    /// `prev` guides of unmarked nodes until reaching a node whose key is `<= key`.
    /// Dangling guides are counted, resolved and healed on the way (see
    /// `follow_guide`); a stale `start` (the trie's pointer is the walk's first
    /// guide, and only the trie can repair it) and the hop limit fall back to the
    /// head sentinel, each under its own counter.
    pub fn walk_to_le<'g>(
        &'g self,
        key: u64,
        start: NodeRef<'g, V>,
        guard: &'g Guard,
    ) -> NodeRef<'g, V> {
        let head = self.head(self.top_level());
        let mut curr: &Node<V> = start.node;
        if self.is_dangling(curr, None) {
            return NodeRef::new(head);
        }
        let mut hops = 0usize;
        loop {
            if curr.is_head() || curr.key_value() <= key {
                return NodeRef::new(curr);
            }
            hops += 1;
            if hops > WALK_HOP_LIMIT {
                metrics::record(Counter::WalkHopLimit);
                return NodeRef::new(head);
            }
            curr = self.follow_guide(curr, curr.is_marked(guard), guard);
        }
    }

    /// A short look along the top level for `key`'s bracket from `start`, a
    /// node the x-fast trie named: it follows at most `BRACKET_HOPS` = 3 lines,
    /// `next` while the node's key is `<= key` and the `prev` guide while it is
    /// `> key`. It returns the bracket's node `<= key` — `key`'s top-level
    /// predecessor, or its own node — or, when a guide names the head, the
    /// first top-level node. The `next` side's tail closes a bracket too.
    ///
    /// It returns `None`, and the caller searches on, when it meets a marked
    /// node (`start` included), a node off the top level, a dangling guide
    /// (`is_dangling`'s test: a tail, a node off the level, a key
    /// not smaller than its owner's) or a `start` that is not a data node, or
    /// when its hops run out. It trusts a `prev` guide as
    /// [`SkipList::walk_to_le`] does. It repairs nothing and counts no guide:
    /// the walk that meets a dangling guide after it counts and heals it. Each
    /// line it follows counts as a [`Counter::PtrRead`].
    pub fn top_bracket<'g>(
        &'g self,
        key: u64,
        start: NodeRef<'g, V>,
        guard: &'g Guard,
    ) -> Option<NodeRef<'g, V>> {
        let top = self.top_level();
        let mut node: &Node<V> = start.node;
        if !node.is_data() || self.dangles(node, None) {
            return None;
        }
        for _ in 0..BRACKET_HOPS {
            metrics::record(Counter::PtrRead);
            if node.key_value() <= key {
                let word = read_resolved(&node.next, guard);
                if tagged::is_marked(word) || tagged::is_null(word) {
                    return None;
                }
                // SAFETY: a `next` word references a node of this structure,
                // kept valid by the pool while pinned.
                let next: &Node<V> = unsafe { &*tagged::unpack(word) };
                if next.level() != top {
                    return None;
                }
                if next.is_tail() || next.key_value() > key {
                    return Some(NodeRef::new(node));
                }
                node = next;
            } else {
                if node.is_marked(guard) {
                    return None;
                }
                let word = node
                    .guide()
                    .map_or(tagged::NULL, |prev| read_resolved(prev, guard));
                if tagged::is_null(word) {
                    return None;
                }
                // SAFETY: as for `follow_guide`: the pool keeps a guide's target
                // valid, and a recycled one is what `dangles` rejects.
                let prev: &Node<V> = unsafe { &*tagged::unpack(word) };
                if self.dangles(prev, Some(node.key_value())) {
                    return None;
                }
                if prev.is_head() {
                    return Some(NodeRef::new(node));
                }
                if prev.key_value() <= key {
                    return (!prev.is_marked(guard)).then(|| NodeRef::new(prev));
                }
                node = prev;
            }
        }
        None
    }

    /// `listSearch` on the top level, exposed for the x-fast trie's delete-side
    /// pointer swings (Algorithm 7 lines 12–17). Returns `(left, right)` bracketing
    /// `key`.
    pub fn top_list_search<'g>(
        &'g self,
        key: u64,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> (NodeRef<'g, V>, NodeRef<'g, V>) {
        let top = self.top_level();
        let start_node = start.map(|r| r.node).unwrap_or_else(|| self.head(top));
        let (l, r) = self.list_search(top, key, start_node, guard);
        (NodeRef::new(l), NodeRef::new(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SkipListConfig;

    /// Breaks one top-level guide each of the four ways a recycled target can break
    /// it and checks what the first reader to follow it does: it still arrives at the
    /// node's actual predecessor, it counts the cause, and it leaves the guide exact —
    /// so the second reader pays nothing.
    #[test]
    fn a_dangling_guide_is_counted_resolved_and_healed_by_its_first_reader() {
        let _serial = crate::metrics_serial();
        let list: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(32).with_seed(5));
        for key in 0..4_000u64 {
            list.insert(key * 2, key);
        }
        let top = list.top_level();
        let top_keys = list.top_level_keys();
        let mid = top_keys.len() / 2;
        assert!(mid >= 1, "need a top-level node with a data predecessor");
        let guard = list.pin();
        let (_, victim) = list.list_search(top, top_keys[mid], list.head(top), &guard);
        assert_eq!(victim.key_value(), top_keys[mid]);
        let n = top_keys.len();
        let broken_guides = [
            (tagged::NULL, Counter::GuideNull),
            (
                tagged::pack(list.head(0) as *const Node<u64>),
                Counter::GuideOffLevel,
            ),
            (
                tagged::pack(list.tail(top) as *const Node<u64>),
                Counter::GuideTail,
            ),
            (
                tagged::pack(victim as *const Node<u64>),
                Counter::GuideNotSmaller,
            ),
        ];
        for (broken, cause) in broken_guides {
            victim.guide().unwrap().store(broken, Ordering::SeqCst);
            assert_eq!(list.check_prev_guides(), (n, 1, 1), "{cause}");
            let (arrived, first) = metrics::measure(|| {
                list.walk_to_le(top_keys[mid] - 1, NodeRef::new(victim), &guard)
                    .key()
            });
            assert_eq!(arrived, top_keys[mid - 1], "{cause}");
            assert!(first.get(cause) >= 1 && first.get(Counter::GuideHealed) >= 1);
            assert_eq!(list.check_prev_guides(), (n, 0, 0), "{cause}: healed");
            let (arrived, second) = metrics::measure(|| {
                list.walk_to_le(top_keys[mid] - 1, NodeRef::new(victim), &guard)
                    .key()
            });
            assert_eq!(arrived, top_keys[mid - 1]);
            assert_eq!(second.get(cause) + second.get(Counter::GuideHealed), 0);
        }
    }

    /// `top_bracket` from every top-level node towards queries on either side:
    /// on a quiescent list it answers the query's exact top-level predecessor
    /// (the first node for a query below every key) whenever that lies within
    /// [`BRACKET_HOPS`] lines, and `None` otherwise. A broken guide on the way,
    /// or a marked start, yields `None`, never a tail, an off-level node or a
    /// node past the query.
    #[test]
    fn a_top_bracket_is_the_exact_top_level_predecessor_or_none() {
        // It records step counters another test measures.
        let _serial = crate::metrics_serial();
        let list: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(32).with_seed(5));
        for key in 0..skiptrie_workloads::harness::scaled(4_000) as u64 {
            list.insert(key * 2 + 10, key);
        }
        let top = list.top_level();
        let keys = list.top_level_keys();
        assert!(keys.len() >= 8, "need a few top-level nodes");
        let guard = list.pin();
        let node_of = |key: u64| {
            let (_, node) = list.list_search(top, key, list.head(top), &guard);
            assert_eq!(node.key_value(), key);
            node
        };
        let bracket = |q: u64, from: &Node<u64>| {
            let found = list.top_bracket(q, NodeRef::new(from), &guard);
            found.map(|n| {
                assert!(n.is_data() && n.level() == top, "{n:?} for {q}");
                n.key()
            })
        };
        for (i, &start) in keys.iter().enumerate() {
            let from = node_of(start);
            let near = keys[i.saturating_sub(5)..(i + 6).min(keys.len())].iter();
            let queries = near.flat_map(|&k| [k - 1, k, k + 1]).chain([0, u64::MAX]);
            for q in queries {
                let pred = keys.partition_point(|&k| k <= q).checked_sub(1);
                let (hops, expected) = match pred {
                    Some(p) if p >= i => (p - i + 1, keys[p]),
                    Some(p) => (i - p, keys[p]),
                    None => (i + 1, keys[0]),
                };
                let want = (hops <= BRACKET_HOPS).then_some(expected);
                assert_eq!(bracket(q, from), want, "query {q} from {start}");
            }
        }

        // A broken guide on the walk's way: the answer is `None`, and the
        // guide is left, uncounted, to the walk that reads it next.
        let mid = keys.len() / 2;
        let victim = node_of(keys[mid]);
        let exact = victim.guide().unwrap().load(Ordering::SeqCst);
        let broken_guides = [
            tagged::NULL,
            tagged::pack(list.head(0) as *const Node<u64>),
            tagged::pack(list.tail(top) as *const Node<u64>),
            tagged::pack(victim as *const Node<u64>),
        ];
        let guide_counters = [
            Counter::GuideNull,
            Counter::GuideOffLevel,
            Counter::GuideTail,
            Counter::GuideNotSmaller,
            Counter::GuideHealed,
        ];
        for broken in broken_guides {
            victim.guide().unwrap().store(broken, Ordering::SeqCst);
            let ((), counted) = metrics::measure(|| {
                for start in &keys[mid..mid + BRACKET_HOPS] {
                    let from = node_of(*start);
                    assert_eq!(bracket(keys[mid] - 1, from), None, "from {start}");
                }
            });
            assert_eq!(guide_counters.map(|c| counted.get(c)), [0; 5]);
            assert_eq!(list.check_prev_guides(), (keys.len(), 1, 1), "left broken");
            victim.guide().unwrap().store(exact, Ordering::SeqCst);
        }
        assert_eq!(list.check_prev_guides(), (keys.len(), 0, 0));

        // A marked start, on either side of the query: `None`.
        assert!(list.remove(keys[mid]).is_some());
        assert!(victim.is_marked(&guard));
        for q in [keys[mid] - 1, keys[mid], keys[mid] + 1] {
            assert_eq!(bracket(q, victim), None, "query {q} from a marked node");
        }
    }
}
