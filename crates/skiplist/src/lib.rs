//! A truncated, lock-free concurrent skiplist with back pointers and a doubly-linked
//! top level — the substrate beneath the SkipTrie (Oshman & Shavit, PODC 2013,
//! Sections 2–3).
//!
//! # What is special about this skiplist
//!
//! * **Truncated height.** The list has only `levels ≈ log log u` levels. Keys whose
//!   geometric height reaches the top level are *top-level keys*; in the SkipTrie they
//!   are additionally linked backwards (`prev` guides) and published in the x-fast
//!   trie. Expected spacing between top-level keys is `2^(levels-1) ≈ log u`, which is
//!   how the SkipTrie replaces the y-fast trie's bucket rebalancing.
//! * **Logical deletion with back pointers.** Deletion marks a node's `next` word
//!   (Harris scheme), records a `back` hint for traversals that get stranded on the
//!   node, and uses a per-tower `stop` flag so that racing inserts stop raising the
//!   tower (Section 2).
//! * **Doubly-linked top level.** Top-level nodes carry `prev` guide pointers
//!   maintained by `fixPrev` (Section 3, Algorithm 1); linearizability relies only on
//!   the forward direction, and transient gaps are tolerated exactly as the paper
//!   describes (Figure 2). At quiescence every `prev` is its node's exact
//!   predecessor ([`SkipList::check_prev_guides`]): an insert fixes its own guide
//!   and its successor's, a delete its successor's, and a reader heals a dangling
//!   guide it is handed.
//! * **DCSS-guarded pointer swings.** Tower raises and `prev` updates are conditioned
//!   on the target tower's packed status word (incarnation + STOP) using the software
//!   DCSS from [`skiptrie_atomics`], or plain CAS in the fallback mode.
//! * **Type-stable node pool.** Nodes are recycled, never freed, while the structure
//!   is alive, which keeps every racy dereference well-defined (see
//!   [`skiptrie_atomics::dcss`] for why this matters). A level-0 node and a tower
//!   node have layouts of their own, each one 64-byte line for `V = u64`, carved
//!   from line-aligned slabs ([`skiptrie_atomics::slab`]), and a node's memory keeps
//!   its layout for the pool's lifetime.
//!
//! The crate doubles as the paper's *baseline*: configured with more levels (e.g. 24)
//! and used standalone it is a conventional `Θ(log m)`-depth lock-free skiplist, which
//! is exactly the class of structure the paper's introduction compares against.
//!
//! # Examples
//!
//! ```
//! use skiptrie_skiplist::{SkipList, SkipListConfig};
//!
//! // A truncated skiplist sized for a 32-bit universe: ceil(log2 32) = 5 levels.
//! let list: SkipList<&'static str> = SkipList::new(SkipListConfig::for_universe_bits(32));
//! assert!(list.insert(20, "twenty"));
//! assert!(list.insert(40, "forty"));
//! assert!(!list.insert(20, "dup"));
//! assert_eq!(list.get(20), Some("twenty"));
//! assert_eq!(list.predecessor(39), Some((20, "twenty")));
//! assert_eq!(list.predecessor(40), Some((40, "forty")));
//! assert_eq!(list.successor(21), Some((40, "forty")));
//! assert_eq!(list.remove(20), Some("twenty"));
//! assert_eq!(list.predecessor(39), None);
//! ```

#![warn(missing_docs)]

mod backoff;
pub mod bulk;
pub mod height;
pub mod iter;
mod kv;
mod node;
mod ops;
mod pool;
mod search;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Guard};
use skiptrie_atomics::dcss::DcssMode;
use skiptrie_atomics::tagged;

pub use bulk::BulkLoadReport;
pub use iter::{resolve_bounds, Cursor, RangeIter};
pub use kv::OrderedKv;
pub use node::NodeRef;
pub use ops::{DeleteOutcome, InsertOutcome};

use node::{pack_meta, Node, NodeKind, Role, STATUS_STOP};
use pool::NodePool;

/// Configuration of a [`SkipList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipListConfig {
    /// Number of levels (`>= 1`). The SkipTrie uses `ceil(log2(universe_bits))`; the
    /// full-height baseline uses a large constant (e.g. 24).
    pub levels: u8,
    /// How guarded pointer swings are performed (DCSS descriptors or plain CAS).
    pub mode: DcssMode,
    /// Seed of the tower heights: a key's height is a hash of the key and this seed
    /// ([`height::key_height`]), so the list's shape is a function of its key set
    /// and its seed, whatever threads inserted the keys in whatever order.
    pub seed: u64,
    /// Epoch domain this list pins and retires in (`None` = the process-wide default
    /// domain). The sharded SkipTrie forest gives every shard its own domain so a
    /// long scan of one shard stalls only that shard's reclamation; see
    /// [`crossbeam_epoch::pin_domain`]. **All** access to a list goes through
    /// [`SkipList::pin`], so the domain is applied uniformly.
    pub domain: Option<usize>,
}

impl Default for SkipListConfig {
    fn default() -> Self {
        SkipListConfig::for_universe_bits(32)
    }
}

impl SkipListConfig {
    /// The paper's sizing rule: a truncated skiplist of `log log u` levels for a key
    /// universe of `universe_bits = log u` bits.
    pub fn for_universe_bits(universe_bits: u32) -> Self {
        SkipListConfig {
            levels: levels_for_universe_bits(universe_bits),
            mode: DcssMode::Descriptor,
            seed: 0x5eed_5eed_5eed_5eed,
            domain: None,
        }
    }

    /// A conventional full-height skiplist configuration (depth `Θ(log m)`), used as
    /// the baseline structure in the experiments (labelled `lockfree-skiplist`):
    /// the class of concurrent predecessor structure (à la Lea/Fomitchev-Ruppert)
    /// the paper's introduction says all prior work provides.
    ///
    /// # Examples
    ///
    /// ```
    /// use skiptrie_skiplist::{SkipList, SkipListConfig};
    ///
    /// let list: SkipList<u32> = SkipList::new(SkipListConfig::full_height());
    /// list.insert(10, 1);
    /// list.insert(30, 3);
    /// assert_eq!(list.predecessor(29), Some((10, 1)));
    /// ```
    pub fn full_height() -> Self {
        SkipListConfig {
            levels: 24,
            mode: DcssMode::Descriptor,
            seed: 0x5eed_5eed_5eed_5eed,
            domain: None,
        }
    }

    /// Overrides the DCSS mode.
    pub fn with_mode(mut self, mode: DcssMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the tower-height seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins this list in epoch domain `domain` instead of the process-wide default
    /// (see [`SkipListConfig::domain`]).
    pub fn with_domain(mut self, domain: usize) -> Self {
        self.domain = Some(domain);
        self
    }
}

/// `max(1, ceil(log2(universe_bits)))` — the number of levels (`log log u`) the paper
/// prescribes for a `universe_bits`-bit key universe.
pub fn levels_for_universe_bits(universe_bits: u32) -> u8 {
    let bits = universe_bits.clamp(1, 64);
    let mut levels = 0u8;
    while (1u32 << levels) < bits {
        levels += 1;
    }
    levels.max(1)
}

/// A lock-free, linearizable ordered map from `u64` keys to values, with predecessor
/// and successor queries, implemented as a truncated skiplist (see the crate docs).
///
/// All operations are safe to call from any number of threads concurrently; the value
/// type must be `Clone` because reads return owned copies.
pub struct SkipList<V> {
    config: SkipListConfig,
    pool: Arc<NodePool<V>>,
    /// Head (`-∞`) sentinel per level, index = level.
    heads: Box<[*const Node<V>]>,
    /// Tail (`+∞`) sentinel per level, index = level.
    tails: Box<[*const Node<V>]>,
    len: AtomicUsize,
}

// SAFETY: shared mutation is confined to atomics inside nodes; sentinels are immutable
// pointers to pool-owned allocations.
unsafe impl<V: Send + Sync> Send for SkipList<V> {}
unsafe impl<V: Send + Sync> Sync for SkipList<V> {}

impl<V> Default for SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        SkipList::new(SkipListConfig::default())
    }
}

impl<V> SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty skiplist with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.levels` is 0 or greater than 32.
    pub fn new(config: SkipListConfig) -> Self {
        assert!(config.levels >= 1, "a skiplist needs at least one level");
        assert!(
            usize::from(config.levels) <= search::MAX_LEVELS,
            "more than 32 levels is never useful for u64 keys"
        );
        let pool = Arc::new(NodePool::new());
        let levels = config.levels as usize;
        let mut heads: Vec<*const Node<V>> = Vec::with_capacity(levels);
        let mut tails: Vec<*const Node<V>> = Vec::with_capacity(levels);
        for level in 0..levels {
            let (head, tail): (*const Node<V>, *const Node<V>) = if level == 0 {
                (pool.acquire().cast(), pool.acquire().cast())
            } else {
                let (head, tail) = (pool.acquire_tower(), pool.acquire_tower());
                // SAFETY: fresh from the pool, not yet shared.
                unsafe {
                    (*head)
                        .down
                        .store(tagged::pack(heads[level - 1]), Ordering::SeqCst);
                    (*tail)
                        .down
                        .store(tagged::pack(tails[level - 1]), Ordering::SeqCst);
                }
                (head.cast(), tail.cast())
            };
            // SAFETY: as above.
            unsafe {
                init_sentinel(&*head, NodeKind::Head, level as u8, config.levels - 1);
                init_sentinel(&*tail, NodeKind::Tail, level as u8, config.levels - 1);
                (*head).next.store(tagged::pack(tail), Ordering::SeqCst);
                (*tail).next.store(tagged::NULL, Ordering::SeqCst);
            }
            heads.push(head);
            tails.push(tail);
        }
        SkipList {
            config,
            pool,
            heads: heads.into_boxed_slice(),
            tails: tails.into_boxed_slice(),
            len: AtomicUsize::new(0),
        }
    }

    /// The configuration this list was built with.
    pub fn config(&self) -> SkipListConfig {
        self.config
    }

    /// Number of levels.
    pub fn levels(&self) -> u8 {
        self.config.levels
    }

    /// The index of the top level (`levels - 1`).
    pub fn top_level(&self) -> u8 {
        self.config.levels - 1
    }

    /// Number of keys currently stored (quiescently accurate).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// True if no keys are stored (quiescently accurate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn head(&self, level: u8) -> &Node<V> {
        // SAFETY: sentinels live as long as the structure.
        unsafe { &*self.heads[level as usize] }
    }

    pub(crate) fn tail(&self, level: u8) -> &Node<V> {
        // SAFETY: sentinels live as long as the structure.
        unsafe { &*self.tails[level as usize] }
    }

    pub(crate) fn pool(&self) -> &Arc<NodePool<V>> {
        &self.pool
    }

    pub(crate) fn len_counter(&self) -> &AtomicUsize {
        &self.len
    }

    /// Pins the current thread in this list's epoch domain, for use with the `*_from`
    /// low-level operations. Every internal operation pins through here, so a list
    /// configured with [`SkipListConfig::with_domain`] is reclaimed entirely within
    /// that domain.
    pub fn pin(&self) -> Guard {
        epoch::pin_domain(self.config.domain.unwrap_or(0))
    }

    /// The `-∞` sentinel of the top level — the default traversal start when no hint
    /// (e.g. from the x-fast trie) is available.
    pub fn head_top(&self) -> NodeRef<'_, V> {
        NodeRef::new(self.head(self.top_level()))
    }

    // ------------------------------------------------------------------
    // High-level (self-pinning) API
    // ------------------------------------------------------------------

    /// Inserts `key -> value`. Returns `true` if the key was absent and is now
    /// present, `false` if it was already present (the existing value is kept).
    pub fn insert(&self, key: u64, value: V) -> bool {
        let guard = self.pin();
        matches!(
            self.insert_from(key, value, None, &guard),
            InsertOutcome::Inserted { .. }
        )
    }

    /// Removes `key`, returning its value if this call performed the removal.
    pub fn remove(&self, key: u64) -> Option<V> {
        let guard = self.pin();
        self.try_remove_exact(key, &guard)
    }

    /// Returns a clone of the value stored under `key`.
    ///
    /// Unlike [`SkipList::predecessor`] this is an *exact-match* search: it exits at
    /// the first level where the key's tower appears and clones nothing on a miss
    /// (the predecessor-based formulation ran the full descent and cloned the
    /// predecessor's value even for absent keys).
    pub fn get(&self, key: u64) -> Option<V> {
        let guard = self.pin();
        self.get_from(key, None, &guard)
    }

    /// True if `key` is present. Clones no value (see [`SkipList::get`]).
    pub fn contains(&self, key: u64) -> bool {
        let guard = self.pin();
        self.contains_from(key, None, &guard)
    }

    /// Removes and returns the entry with the smallest key, or `None` if the list is
    /// empty at the linearization point.
    ///
    /// One level-0 search locates the minimum (the head is the minimum's predecessor
    /// on every level, so the delete's internal searches are `O(1 + marked)` per
    /// level) and the regular CAS-remove protocol deletes it; if another thread wins
    /// the removal the whole step retries on the new minimum.
    pub fn pop_first(&self) -> Option<(u64, V)> {
        let guard = self.pin();
        loop {
            let key = self.first_key(&guard)?;
            if let Some(value) = self.try_remove_exact(key, &guard) {
                return Some((key, value));
            }
        }
    }

    /// Removes and returns the entry with the largest key, or `None` if the list is
    /// empty at the linearization point. Counterpart of [`SkipList::pop_first`].
    pub fn pop_last(&self) -> Option<(u64, V)> {
        let guard = self.pin();
        loop {
            let key = self.last_key_from(None, &guard)?;
            if let Some(value) = self.try_remove_exact(key, &guard) {
                return Some((key, value));
            }
        }
    }

    /// One `delete_from` attempt for `key` under an existing pin, retiring the
    /// unlinked top-level node immediately (standalone use: no trie references it).
    /// Returns the value if this call performed the removal.
    fn try_remove_exact(&self, key: u64, guard: &Guard) -> Option<V> {
        let outcome = self.delete_from(key, None, guard);
        if let Some(top) = outcome.top_to_retire {
            // SAFETY: we won the removal of this node; it is unlinked.
            unsafe { self.retire_node(top, guard) };
        }
        if outcome.removed {
            outcome.value
        } else {
            None
        }
    }

    /// The largest key `<= key` and its value (the paper's predecessor query).
    pub fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        let guard = self.pin();
        self.predecessor_from(key, None, &guard)
    }

    /// The smallest key `>= key` and its value.
    pub fn successor(&self, key: u64) -> Option<(u64, V)> {
        let guard = self.pin();
        self.successor_from(key, None, &guard)
    }

    /// A (non-linearizable) snapshot of the current contents in key order.
    pub fn to_vec(&self) -> Vec<(u64, V)> {
        let guard = self.pin();
        let mut out = Vec::new();
        self.walk_level(0, &guard, |node| {
            // SAFETY: level-0 data nodes carry a value set before publication; the
            // node was reached through live level-0 links while pinned.
            if let Some(v) = unsafe { (*node.value().get()).clone() } {
                out.push((node.key_value(), v));
            }
        });
        out
    }

    /// A (non-linearizable) snapshot of the keys in order.
    pub fn keys(&self) -> Vec<u64> {
        self.to_vec().into_iter().map(|(k, _)| k).collect()
    }

    /// Walks unmarked data nodes of a level in order, applying `f`.
    fn walk_level(&self, level: u8, guard: &Guard, mut f: impl FnMut(&Node<V>)) {
        let mut curr = self.head(level);
        loop {
            let next = skiptrie_atomics::dcss::read_resolved(&curr.next, guard);
            if tagged::is_null(next) {
                break;
            }
            // SAFETY: reached through live links while pinned.
            let node: &Node<V> = unsafe { &*tagged::unpack(tagged::untagged(next)) };
            if node.is_tail() {
                break;
            }
            if node.is_data() && !node.is_marked(guard) {
                f(node);
            }
            curr = node;
        }
    }

    // ------------------------------------------------------------------
    // Structural statistics (experiments F1 / E5)
    // ------------------------------------------------------------------

    /// Number of (unmarked) data nodes per level, bottom to top. Level 0 equals the
    /// number of keys; the top level is the expected `m / 2^(levels-1)` sample.
    pub fn level_lengths(&self) -> Vec<usize> {
        let guard = self.pin();
        (0..self.levels())
            .map(|level| {
                let mut count = 0usize;
                self.walk_level(level, &guard, |_| count += 1);
                count
            })
            .collect()
    }

    /// The keys currently present at the top level, in order (the SkipTrie's x-fast
    /// trie population).
    pub fn top_level_keys(&self) -> Vec<u64> {
        self.level_keys(self.top_level())
    }

    /// The (unmarked, data) keys currently linked on `level`, in order — level 0 is
    /// the full contents; upper levels are the tower samples. Diagnostic twin of
    /// [`SkipList::level_lengths`] used by the stress tests to report *which* node a
    /// violated invariant concerns.
    pub fn level_keys(&self, level: u8) -> Vec<u64> {
        let guard = self.pin();
        let mut out = Vec::new();
        self.walk_level(level, &guard, |node| out.push(node.key_value()));
        out
    }

    /// `(nodes_allocated, nodes_recycled, nodes_pooled)` — allocator traffic of the
    /// type-stable pool, used by the space experiment (E5).
    pub fn allocation_stats(&self) -> (usize, usize, usize) {
        (
            self.pool.allocated(),
            self.pool.recycled(),
            self.pool.free_len(),
        )
    }

    /// Bytes of node memory the structure holds: the slabs its pool has carved nodes
    /// from, live, pooled and not yet carved alike. Used by experiment E5.
    pub fn approx_node_bytes(&self) -> usize {
        self.pool.slab_bytes()
    }

    // ------------------------------------------------------------------
    // Reclamation-safety auditing (tests/reclamation_soundness.rs)
    // ------------------------------------------------------------------

    /// Walks every level under a single pin and panics if a reclamation-safety
    /// invariant is violated; returns the number of nodes examined.
    ///
    /// Epoch reclamation guarantees that a node reached through live links while
    /// pinned is never recycled before the walker unpins. A broken epoch protocol
    /// (premature free, stale recycle) therefore surfaces here as one of:
    ///
    /// * a **poisoned node** on the path — pooled nodes carry the `u64::MAX` key and a
    ///   marked-null `next`, so the walk sees either the poisoned key or a level that
    ///   ends before its tail sentinel;
    /// * an **incarnation bump mid-examination** — node-pool recycling increments
    ///   the status sequence number, which must stay constant while a pinned walker
    ///   examines the node;
    /// * a **stale reuse** — a recycled node re-published at another level or key
    ///   breaks the level tag, the `down`/`root` same-key invariants, or key ordering;
    /// * a **role mix-up** — every node on level 0 (sentinels included) must have been
    ///   carved as a level-0 node and every node above as a tower node, and a tower's
    ///   `root` must name a level-0 node: the pool hands a node out only in the role it
    ///   was carved for, which is what keeps stale reads of tower fields defined.
    ///
    /// Every visited node is additionally recorded as a *witness* and its incarnation
    /// re-verified after the full walk, still under the same pin: epoch reclamation
    /// promises that nothing reached through live links during a pin is recycled
    /// until the pin ends, so any witness whose sequence number moved convicts the
    /// collector of freeing under a live guard.
    pub fn check_traversal_integrity(&self) -> usize {
        /// Cap on recorded witnesses (bounds memory on huge structures).
        const MAX_WITNESSES: usize = 1 << 16;
        let guard = self.pin();
        let mut checked = 0usize;
        let mut witnesses: Vec<(*const Node<V>, u64)> = Vec::new();
        for level in 0..self.levels() {
            let role = if level == 0 { Role::Leaf } else { Role::Tower };
            let carved_as = |node: &Node<V>| {
                assert_eq!(
                    self.pool.role_of(node),
                    Some(role),
                    "a node linked on level {level} was not carved as a {role:?} node"
                );
            };
            let mut curr: &Node<V> = self.head(level);
            carved_as(curr);
            let mut last_key: Option<(u64, bool)> = None;
            loop {
                let next = skiptrie_atomics::dcss::read_resolved(&curr.next, &guard);
                let next_ptr = tagged::untagged(next);
                assert!(
                    !tagged::is_null(next_ptr),
                    "level {level} truncated before its tail sentinel (reached a \
                     poisoned/recycled node while pinned)"
                );
                // SAFETY: node memory is type-stable (pool) and reached while pinned.
                let node: &Node<V> = unsafe { &*tagged::unpack(next_ptr) };
                carved_as(node);
                if node.is_tail() {
                    break;
                }
                if node.is_data() {
                    // The incarnation sequence must not move while we examine the
                    // node: a bump here means the pool recycled memory a pinned
                    // traversal was standing on.
                    let seq_before = node.status.load(Ordering::SeqCst) & !STATUS_STOP;
                    let key = node.key_value();
                    let marked = node.is_marked(&guard);
                    assert_ne!(
                        key,
                        u64::MAX,
                        "poisoned (pooled) node reachable at level {level} while pinned"
                    );
                    assert_eq!(
                        node.level(),
                        level,
                        "node for key {key} reached at level {level} carries the wrong \
                         level tag (stale recycle)"
                    );
                    if let Some((prev_key, prev_marked)) = last_key {
                        assert!(
                            key >= prev_key,
                            "keys out of order at level {level}: {prev_key} then {key}"
                        );
                        assert!(
                            key > prev_key || marked || prev_marked,
                            "two live nodes share key {key} at level {level}"
                        );
                    }
                    if level > 0 {
                        let down = node.down_word();
                        assert!(
                            !tagged::is_null(down),
                            "tower node {key} at level {level} lost its down pointer"
                        );
                        // SAFETY: down pointers reference pool-kept nodes of this
                        // structure; epoch pinning keeps the target's fields intact.
                        let below: &Node<V> = unsafe { &*tagged::unpack(down) };
                        assert_eq!(
                            below.key_value(),
                            key,
                            "down pointer of {key} at level {level} reaches another key \
                             (stale recycle below)"
                        );
                        let root: *const Node<V> = tagged::unpack(node.root_word());
                        assert_eq!(
                            self.pool.role_of(root),
                            Some(Role::Leaf),
                            "the root of tower {key} at level {level} is not a level-0 node"
                        );
                    }
                    let seq_after = node.status.load(Ordering::SeqCst) & !STATUS_STOP;
                    assert_eq!(
                        seq_before, seq_after,
                        "incarnation of key {key} at level {level} changed while a \
                         pinned traversal examined it (premature recycle)"
                    );
                    if witnesses.len() < MAX_WITNESSES {
                        witnesses.push((node as *const Node<V>, seq_before));
                    }
                    last_key = Some((key, marked));
                    checked += 1;
                }
                curr = node;
            }
        }
        // Still pinned: no witness may have been recycled since we visited it.
        for (ptr, seq_at_visit) in witnesses {
            // SAFETY: witnesses were reached through live links under this very pin;
            // pool memory is type-stable, so the read is defined even on a violation.
            let seq_now = unsafe { (*ptr).status.load(Ordering::SeqCst) } & !STATUS_STOP;
            assert_eq!(
                seq_at_visit, seq_now,
                "a node visited under this pin was recycled before the pin ended \
                 (epoch protocol violation)"
            );
        }
        drop(guard);
        checked
    }

    /// Audits the top level's `prev` guides under one pin: `(checked, inexact,
    /// dangling)`. **Quiescent-only** — concurrent updates legitimately leave the
    /// transient gaps of the paper's Figure 2.
    ///
    /// A guide is *exact* when it names the node's actual top-level predecessor (the
    /// head sentinel for the first node): the quiescent invariant inserts and
    /// deletes maintain between them, so `inexact` is 0 after any single-threaded
    /// history. An inexact guide is *dangling* when a walk could not even follow it:
    /// it is null, or names a tail, a node that has left the top level, or a key
    /// that is not smaller. Readers heal those as they meet them, so after
    /// concurrent churn `dangling` is 0 once every top-level key has been queried.
    pub fn check_prev_guides(&self) -> (usize, usize, usize) {
        let guard = self.pin();
        let top = self.top_level();
        let (mut checked, mut inexact, mut dangling) = (0usize, 0usize, 0usize);
        let mut pred_word = tagged::pack(self.head(top) as *const Node<V>);
        self.walk_level(top, &guard, |node| {
            checked += 1;
            let word = node.guide().map_or(tagged::NULL, |prev| {
                skiptrie_atomics::dcss::read_resolved(prev, &guard)
            });
            if word != pred_word {
                inexact += 1;
                // SAFETY: pool memory is type-stable, so a stale guide still
                // references a valid `Node`.
                let followable = !tagged::is_null(word) && {
                    let target: &Node<V> = unsafe { &*tagged::unpack(word) };
                    target.level() == top
                        && !target.is_tail()
                        && (target.is_head() || target.key_value() < node.key_value())
                };
                if !followable {
                    dangling += 1;
                }
            }
            pred_word = tagged::pack(node as *const Node<V>);
        });
        (checked, inexact, dangling)
    }
}

/// Makes a fresh pool node a sentinel. Its other fields keep the pool's poisoned
/// nulls; the tower links of an upper-level sentinel are set by the caller.
fn init_sentinel<V>(node: &Node<V>, kind: NodeKind, level: u8, orig_height: u8) {
    node.key.store(
        match kind {
            NodeKind::Head => 0,
            _ => u64::MAX,
        },
        Ordering::SeqCst,
    );
    node.meta
        .store(pack_meta(kind, level, orig_height), Ordering::SeqCst);
    node.back.store(tagged::NULL, Ordering::SeqCst);
}

impl<V> Drop for SkipList<V> {
    fn drop(&mut self) {
        // Exclusive access. The pool owns every node's memory and frees it with its
        // slabs; what is left to do here is dropping the values of the level-0 nodes
        // still linked (each is linked once). Unlinked nodes are either already
        // recycled, their values dropped, or held by pending epoch callbacks that
        // will recycle them into the (Arc-kept) pool.
        let mut curr = self.heads[0];
        while !curr.is_null() {
            // SAFETY: a node linked on level 0, which only the pool's drop frees.
            let node = unsafe { &*curr };
            // SAFETY: exclusive access; the value is dropped once, here.
            drop(unsafe { (*node.value().get()).take() });
            curr = tagged::unpack(tagged::untagged(node.next.load(Ordering::SeqCst)));
        }
    }
}

/// Serializes the unit tests that read the process-wide step counters:
/// `metrics::measure` restores the recording flag on exit, which would switch a
/// sibling's measurement off half way.
#[cfg(test)]
pub(crate) fn metrics_serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_for_universe_bits_matches_log_log_u() {
        assert_eq!(levels_for_universe_bits(1), 1);
        assert_eq!(levels_for_universe_bits(2), 1);
        assert_eq!(levels_for_universe_bits(4), 2);
        assert_eq!(levels_for_universe_bits(8), 3);
        assert_eq!(levels_for_universe_bits(16), 4);
        assert_eq!(levels_for_universe_bits(32), 5);
        assert_eq!(levels_for_universe_bits(48), 6);
        assert_eq!(levels_for_universe_bits(64), 6);
        assert_eq!(levels_for_universe_bits(0), 1, "clamped");
        assert_eq!(levels_for_universe_bits(100), 6, "clamped to 64 bits");
    }

    #[test]
    fn config_constructors() {
        let c = SkipListConfig::for_universe_bits(32);
        assert_eq!(c.levels, 5);
        assert_eq!(c.mode, DcssMode::Descriptor);
        let full = SkipListConfig::full_height();
        assert_eq!(full.levels, 24);
        let cas = c.with_mode(DcssMode::CasOnly).with_seed(7);
        assert_eq!(cas.mode, DcssMode::CasOnly);
        assert_eq!(cas.seed, 7);
    }

    #[test]
    fn empty_list_queries() {
        let list: SkipList<u32> = SkipList::new(SkipListConfig::for_universe_bits(16));
        assert!(list.is_empty());
        assert_eq!(list.len(), 0);
        assert_eq!(list.get(5), None);
        assert_eq!(list.predecessor(5), None);
        assert_eq!(list.successor(5), None);
        assert!(!list.contains(0));
        assert_eq!(list.to_vec(), vec![]);
        assert_eq!(list.remove(3), None);
        assert_eq!(list.level_lengths(), vec![0; 4]);
    }

    #[test]
    fn single_level_list_works() {
        let list: SkipList<u64> = SkipList::new(SkipListConfig {
            levels: 1,
            mode: DcssMode::Descriptor,
            seed: 1,
            domain: None,
        });
        for k in [5u64, 1, 9, 3] {
            assert!(list.insert(k, k * 100));
        }
        assert_eq!(list.keys(), vec![1, 3, 5, 9]);
        assert_eq!(list.predecessor(4), Some((3, 300)));
        assert_eq!(list.successor(6), Some((9, 900)));
        assert_eq!(list.remove(3), Some(300));
        assert_eq!(list.keys(), vec![1, 5, 9]);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn full_height_custom_level_count() {
        let list: SkipList<u8> = SkipList::new(SkipListConfig {
            levels: 8,
            ..SkipListConfig::full_height()
        });
        for k in 0..100 {
            list.insert(k, 0);
        }
        assert_eq!(list.levels(), 8);
        assert_eq!(list.len(), 100);
    }

    #[test]
    fn full_height_range_and_pops_match_contents() {
        let list: SkipList<u64> = SkipList::new(SkipListConfig::full_height());
        for k in [5u64, 1, 9, 3, 7] {
            list.insert(k, k * 2);
        }
        let window: Vec<u64> = list.range(3..=7).map(|(k, _)| k).collect();
        assert_eq!(window, vec![3, 5, 7]);
        assert_eq!(list.pop_first(), Some((1, 2)));
        assert_eq!(list.pop_last(), Some((9, 18)));
        assert_eq!(list.range(..).count(), 3);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn full_height_concurrent_inserts() {
        let list: SkipList<u64> = SkipList::new(SkipListConfig::full_height());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let list = &list;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        list.insert(t * 2_000 + i, i);
                    }
                });
            }
        });
        assert_eq!(list.len(), 8_000);
        assert_eq!(list.predecessor(8_000), Some((7_999, 1_999)));
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        let _ = SkipList::<u8>::new(SkipListConfig {
            levels: 0,
            mode: DcssMode::Descriptor,
            seed: 1,
            domain: None,
        });
    }

    #[test]
    fn every_value_is_dropped_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        // A domain of its own, so draining it waits on no other test's pins.
        const DOMAIN: usize = 9;
        #[derive(Default)]
        struct Counts {
            made: AtomicUsize,
            dropped: AtomicUsize,
        }
        struct Tracked(Arc<Counts>);
        impl Tracked {
            fn new(counts: &Arc<Counts>) -> Self {
                counts.made.fetch_add(1, Ordering::SeqCst);
                Tracked(Arc::clone(counts))
            }
        }
        impl Clone for Tracked {
            fn clone(&self) -> Self {
                Tracked::new(&self.0)
            }
        }
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.dropped.fetch_add(1, Ordering::SeqCst);
            }
        }
        let counts = Arc::new(Counts::default());
        let value = || Tracked::new(&counts);
        let config = SkipListConfig::for_universe_bits(32)
            .with_seed(3)
            .with_domain(DOMAIN);
        {
            let mut loaded: SkipList<Tracked> = SkipList::new(config);
            loaded.bulk_load_sorted((0..500u64).map(|k| (k * 2, value())));
            let list: SkipList<Tracked> = SkipList::new(config);
            for k in 0..2_000u64 {
                assert!(list.insert(k, value()));
            }
            assert!(!list.insert(1, value()), "a losing insert drops its value");
            for k in (0..2_000u64).step_by(3) {
                assert!(list.remove(k).is_some());
                assert!(loaded.remove(k).is_some() == (k % 2 == 0 && k < 1_000));
            }
            // Recycled nodes carry values again.
            for k in (0..900u64).step_by(3) {
                assert!(list.insert(k, value()));
            }
            let mut cursor = list.cursor(100);
            for _ in 0..50 {
                assert!(cursor.next_entry().is_some());
            }
            assert_eq!(list.range(..).count(), 2_000 - 667 + 300);
            drop(cursor);
            let (_, recycled, _) = list.allocation_stats();
            assert!(recycled > 0, "removed nodes were recycled");
        }
        // The linked values went with the lists; the removed ones once the domain
        // drains.
        for _ in 0..10_000 {
            epoch::pin_domain(DOMAIN).flush();
            if epoch::domain_stats(DOMAIN, epoch::Reclaimer::Ebr).pending == 0 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(
            counts.dropped.load(Ordering::SeqCst),
            counts.made.load(Ordering::SeqCst),
            "values made and dropped"
        );
    }
}
