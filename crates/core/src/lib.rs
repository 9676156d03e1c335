//! # SkipTrie — low-depth concurrent search without rebalancing
//!
//! A from-scratch Rust implementation of the **SkipTrie** of Oshman & Shavit
//! (PODC 2013): a lock-free, linearizable ordered map over an integer key universe
//! `[u]` that supports predecessor queries in expected amortized
//! `O(log log u + c)` shared-memory steps (`c` = contention), insertions and
//! deletions in expected amortized `O(log log u + c)`, and `O(m)` space for `m` keys.
//!
//! ## How it works
//!
//! The SkipTrie is a probabilistically balanced y-fast trie:
//!
//! 1. Every key lives in a **truncated lock-free skiplist** of only `log log u`
//!    levels ([`skiptrie_skiplist`]).
//! 2. A key whose geometric tower height reaches the top level (probability
//!    `≈ 1/log u`) becomes a *top-level key*: top-level nodes are additionally linked
//!    backwards (`prev` guides) into a doubly-linked list, and **all of the key's
//!    prefixes are published in a concurrent x-fast trie** — a lock-free hash table
//!    ([`skiptrie_splitorder`]) mapping prefixes to pairs of pointers into the top
//!    level.
//! 3. A predecessor query binary-searches the prefix table (`O(log log u)` hash
//!    probes) to land on a nearby top-level node, walks guide pointers to a node with
//!    key `<= x`, and then descends the truncated skiplist (`O(log log u)` expected
//!    steps) to the exact predecessor.
//!
//! Because which keys enter the trie is decided by coin flips rather than bucket
//! sizes, no rebalancing (bucket splitting/merging) is ever needed — this is the
//! paper's central idea.
//!
//! ## Example
//!
//! ```
//! use skiptrie::{SkipTrie, SkipTrieConfig};
//!
//! // A SkipTrie over 32-bit keys (u = 2^32, so log log u = 5 skiplist levels).
//! let trie: SkipTrie<&'static str> = SkipTrie::new(SkipTrieConfig::for_universe_bits(32));
//!
//! assert!(trie.insert(1_000, "a"));
//! assert!(trie.insert(2_000, "b"));
//! assert!(trie.insert(u32::MAX as u64, "z"));
//!
//! // Predecessor = largest key <= query (the paper's predecessor query).
//! assert_eq!(trie.predecessor(1_999), Some((1_000, "a")));
//! assert_eq!(trie.predecessor(2_000), Some((2_000, "b")));
//! assert_eq!(trie.successor(2_001), Some((u32::MAX as u64, "z")));
//! assert_eq!(trie.get(1_000), Some("a"));
//!
//! assert_eq!(trie.remove(1_000), Some("a"));
//! assert_eq!(trie.predecessor(1_999), None);
//! ```
//!
//! ## Concurrency
//!
//! Every operation is lock-free and linearizable and may be called from any number of
//! threads; see `DESIGN.md` at the repository root for the proof sketch mapping and
//! the memory-reclamation discipline (epoch-based reclamation plus a type-stable node
//! pool).

#![warn(missing_docs)]

pub mod engine;
pub mod forest;
mod prefix;
pub mod tiered;
pub mod tiered_forest;
mod xfast;

pub use crossbeam_epoch::{GarbageStats, Reclaimer};
pub use engine::{EngineRangeIter, ShardEngine};
pub use forest::{ShardedRangeIter, ShardedSkipTrie, ShardedSkipTrieConfig};
pub use prefix::{key_bit, lcp_len, max_key, Prefix};
pub use skiptrie_atomics::dcss::DcssMode;
pub use skiptrie_atomics::wake::WakeGate;
pub use skiptrie_skiplist::{
    levels_for_universe_bits, resolve_bounds, Cursor, NodeRef, OrderedKv, RangeIter, SkipList,
    SkipListConfig,
};
pub use skiptrie_splitorder::DirectoryConfig;
pub use tiered::{TieredRangeIter, TieredSkipTrie, TieredSkipTrieConfig};
pub use tiered_forest::TieredForest;

use std::ops::RangeBounds;

use skiptrie_splitorder::SplitOrderedMap;
use xfast::{TrieNode, TrieNodePtr};

use crossbeam_epoch::Guard;

/// Held by every test of this crate that calls `metrics::measure`: the
/// counters and their enable switch are process-wide, so two measurements in
/// flight at once would read each other's steps and switch each other off.
#[cfg(test)]
pub(crate) static METRICS_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Configuration of a [`SkipTrie`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipTrieConfig {
    /// Width of the key universe in bits (`1..=64`); keys must be `< 2^universe_bits`.
    pub universe_bits: u32,
    /// How conditional pointer swings are performed (software DCSS descriptors, the
    /// default, or the paper's CAS fallback).
    pub mode: DcssMode,
    /// Seed of the geometric height sampler (fix it for reproducible structure).
    pub seed: u64,
    /// Epoch domain this trie pins and retires in (`None` = the process-wide default
    /// domain). Set by [`ShardedSkipTrie`] so each shard reclaims independently; see
    /// [`SkipTrieConfig::with_domain`].
    pub domain: Option<usize>,
    /// Shape of the prefix table's bucket directory: a growable segment tree, which
    /// keeps every `LowestAncestor` hash probe `O(1)` expected at any size. A
    /// [`TieredSkipTrie`] built from this config has no prefix table (its deltas
    /// are plain skiplists) and ignores it.
    pub hash_dir: DirectoryConfig,
}

impl Default for SkipTrieConfig {
    fn default() -> Self {
        SkipTrieConfig::for_universe_bits(32)
    }
}

impl SkipTrieConfig {
    /// A SkipTrie over `universe_bits`-bit keys with the paper's default parameters.
    ///
    /// # Panics
    ///
    /// Panics if `universe_bits` is not in `1..=64`.
    pub fn for_universe_bits(universe_bits: u32) -> Self {
        assert!(
            (1..=64).contains(&universe_bits),
            "universe_bits must be between 1 and 64"
        );
        SkipTrieConfig {
            universe_bits,
            mode: DcssMode::Descriptor,
            seed: 0x5eed_5eed_5eed_5eed,
            domain: None,
            hash_dir: DirectoryConfig::default(),
        }
    }

    /// Overrides the DCSS mode (the `sweep` experiment's `skiptrie-cas` ablation).
    pub fn with_mode(mut self, mode: DcssMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the height-sampler seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pins this trie in epoch domain `domain` (modulo
    /// [`crossbeam_epoch::NUM_DOMAINS`]) instead of the process-wide default.
    ///
    /// Every operation on the trie — skiplist traversals, x-fast-trie node
    /// retirement, cursors, *and* the split-ordered hash table backing the prefix
    /// map — then pins and retires in that domain, so a long scan of a
    /// domain-isolated trie never stalls reclamation of tries in other domains
    /// (and a reader parked in another domain never stalls this trie's prefix-table
    /// garbage).
    pub fn with_domain(mut self, domain: usize) -> Self {
        self.domain = Some(domain);
        self
    }

    /// Overrides the shape of the prefix table's bucket directory (fanout for
    /// growth-at-test-scale) — see [`DirectoryConfig`].
    pub fn with_hash_directory(mut self, hash_dir: DirectoryConfig) -> Self {
        self.hash_dir = hash_dir;
        self
    }
}

/// A lock-free, linearizable ordered map over `universe_bits`-bit integer keys with
/// `O(log log u + c)` expected amortized predecessor queries — the paper's SkipTrie.
///
/// See the crate-level documentation for the construction and an example, and
/// [`SkipTrieConfig`] for configuration.
pub struct SkipTrie<V> {
    config: SkipTrieConfig,
    skiplist: SkipList<V>,
    /// The x-fast trie's prefix table (the paper's `prefixes`).
    prefixes: SplitOrderedMap<Prefix, TrieNodePtr>,
}

impl<V> Default for SkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        SkipTrie::new(SkipTrieConfig::default())
    }
}

impl<V> SkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty SkipTrie.
    ///
    /// # Panics
    ///
    /// Panics if `config.universe_bits` is not in `1..=64`.
    pub fn new(config: SkipTrieConfig) -> Self {
        assert!(
            (1..=64).contains(&config.universe_bits),
            "universe_bits must be between 1 and 64"
        );
        let mut list_config = SkipListConfig::for_universe_bits(config.universe_bits)
            .with_mode(config.mode)
            .with_seed(config.seed);
        list_config.domain = config.domain;
        let skiplist = SkipList::new(list_config);
        // The prefix table pins and retires in the trie's own domain: routing it
        // through the global domain would let one stalled global-domain reader block
        // every shard's prefix-table reclamation.
        let prefixes = SplitOrderedMap::with_directory_in_domain(
            config.hash_dir,
            config.domain,
            Reclaimer::Ebr,
        );
        // The empty prefix ε is permanent (Algorithm 3 line 4 starts from it).
        prefixes.insert(
            Prefix::EMPTY,
            TrieNodePtr::from_box(Box::new(TrieNode::new())),
        );
        SkipTrie {
            config,
            skiplist,
            prefixes,
        }
    }

    /// The configuration this SkipTrie was built with.
    pub fn config(&self) -> SkipTrieConfig {
        self.config
    }

    /// Width of the key universe in bits (`log u`).
    pub fn universe_bits(&self) -> u32 {
        self.config.universe_bits
    }

    /// The largest key this SkipTrie accepts.
    pub fn max_key(&self) -> u64 {
        prefix::max_key(self.config.universe_bits)
    }

    pub(crate) fn mode(&self) -> DcssMode {
        self.config.mode
    }

    pub(crate) fn skiplist(&self) -> &SkipList<V> {
        &self.skiplist
    }

    /// Number of keys currently stored (quiescently accurate).
    pub fn len(&self) -> usize {
        self.skiplist.len()
    }

    /// True if no keys are stored (quiescently accurate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current height of the prefix table's bucket-directory segment tree —
    /// diagnostics for growth tests and `perfbench`. Grows as the number of
    /// published prefixes crosses each `fanout^height` capacity.
    pub fn prefix_directory_height(&self) -> u32 {
        self.prefixes.directory_height()
    }

    fn check_key(&self, key: u64) {
        assert!(
            key <= self.max_key(),
            "key {key} exceeds the configured universe of {} bits",
            self.config.universe_bits
        );
    }

    /// Inserts `key -> value`. Returns `true` if the key was absent and is now
    /// present, `false` if it was already present (the existing value is kept).
    ///
    /// The insertion is linearized when the key's skiplist node becomes reachable; if
    /// the key's tower reaches the top level, its prefixes are then published in the
    /// x-fast trie (Algorithm 6).
    ///
    /// # Examples
    ///
    /// ```
    /// use skiptrie::{SkipTrie, SkipTrieConfig};
    ///
    /// let trie: SkipTrie<&str> = SkipTrie::new(SkipTrieConfig::for_universe_bits(32));
    /// assert!(trie.insert(7, "seven"));
    /// assert!(!trie.insert(7, "again"), "duplicate keys are rejected");
    /// assert_eq!(trie.get(7), Some("seven"), "the first value is kept");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn insert(&self, key: u64, value: V) -> bool {
        self.check_key(key);
        let guard = self.skiplist.pin();
        let start = self.xfast_pred(key, &guard);
        match self.skiplist.insert_from(key, value, Some(start), &guard) {
            skiptrie_skiplist::InsertOutcome::AlreadyPresent => false,
            skiptrie_skiplist::InsertOutcome::Inserted { top_node } => {
                if let Some(node) = top_node {
                    self.insert_prefixes(key, node, &guard);
                }
                true
            }
        }
    }

    /// Removes `key`, returning its value if this call performed the removal
    /// (Algorithm 7: skiplist deletion, then x-fast-trie cleanup).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.check_key(key);
        let guard = self.skiplist.pin();
        let start = self.xfast_pred(key, &guard);
        self.try_remove_exact(key, Some(start), &guard)
    }

    /// The largest key `<= key` and its value — the paper's predecessor query
    /// (Algorithm 5: `LowestAncestor` search, guide walk, skiplist descent),
    /// in expected amortized `O(log log u + c)` steps.
    ///
    /// # Examples
    ///
    /// ```
    /// use skiptrie::{SkipTrie, SkipTrieConfig};
    ///
    /// let trie: SkipTrie<&str> = SkipTrie::new(SkipTrieConfig::for_universe_bits(32));
    /// trie.insert(10, "ten");
    /// trie.insert(20, "twenty");
    /// assert_eq!(trie.predecessor(15), Some((10, "ten")));
    /// assert_eq!(trie.predecessor(20), Some((20, "twenty")), "inclusive");
    /// assert_eq!(trie.predecessor(9), None);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        self.check_key(key);
        let guard = self.skiplist.pin();
        let start = self.xfast_pred(key, &guard);
        self.skiplist.predecessor_from(key, Some(start), &guard)
    }

    /// The largest key strictly `< key`, if any.
    pub fn strict_predecessor(&self, key: u64) -> Option<(u64, V)> {
        if key == 0 {
            return None;
        }
        self.predecessor(key - 1)
    }

    /// The smallest key `>= key` and its value.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn successor(&self, key: u64) -> Option<(u64, V)> {
        self.check_key(key);
        let guard = self.skiplist.pin();
        let start = self.xfast_pred(key, &guard);
        self.skiplist.successor_from(key, Some(start), &guard)
    }

    /// The smallest key strictly `> key`, if any.
    pub fn strict_successor(&self, key: u64) -> Option<(u64, V)> {
        if key >= self.max_key() {
            return None;
        }
        self.successor(key + 1)
    }

    /// Returns a clone of the value stored under `key`.
    ///
    /// An *exact-match* search: the x-fast hint seeds a descent that exits at the
    /// first skiplist level where the key's tower appears, and nothing is cloned on a
    /// miss (previously this ran the full predecessor query and cloned the
    /// predecessor's value even when `key` was absent).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn get(&self, key: u64) -> Option<V> {
        self.check_key(key);
        let guard = self.skiplist.pin();
        let start = self.xfast_pred(key, &guard);
        self.skiplist.get_from(key, Some(start), &guard)
    }

    /// True if `key` is present. Clones no value (see [`SkipTrie::get`]).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn contains(&self, key: u64) -> bool {
        self.check_key(key);
        let guard = self.skiplist.pin();
        let start = self.xfast_pred(key, &guard);
        self.skiplist.contains_from(key, Some(start), &guard)
    }

    // ------------------------------------------------------------------
    // Range scans and ordered extraction
    // ------------------------------------------------------------------

    /// An ordered, weakly-consistent iterator over the entries whose keys lie in
    /// `range`: one `O(log log u)` x-fast-seeded descent to the start of the range,
    /// then one level-0 hop per entry — `O(log log u + k)` for `k` yielded keys,
    /// versus `O(k · log log u)` for `k` chained [`SkipTrie::successor`] calls.
    ///
    /// Every key present for the whole scan is yielded exactly once, in increasing
    /// order; keys inserted or removed concurrently may or may not appear (see the
    /// `skiptrie_skiplist` cursor docs for the validation protocol). Bounds beyond
    /// the configured universe are allowed and simply match nothing above
    /// [`SkipTrie::max_key`]. The iterator holds an epoch pin for its lifetime, so
    /// chunk unbounded scans if reclamation latency matters.
    ///
    /// # Examples
    ///
    /// ```
    /// use skiptrie::{SkipTrie, SkipTrieConfig};
    ///
    /// let trie: SkipTrie<u64> = SkipTrie::new(SkipTrieConfig::for_universe_bits(32));
    /// for k in [5u64, 15, 25, 35] {
    ///     trie.insert(k, k * 10);
    /// }
    /// let window: Vec<(u64, u64)> = trie.range(10..=30).collect();
    /// assert_eq!(window, vec![(15, 150), (25, 250)]);
    /// assert_eq!(trie.count_range(..), 4);
    /// ```
    pub fn range(&self, range: impl RangeBounds<u64>) -> RangeIter<'_, V> {
        let bounds = resolve_bounds(&range);
        let mut iter = self.skiplist.range(range);
        if let Some((lo, _)) = bounds {
            // The hint is only that — clamp to the universe so the prefix math stays
            // in bounds even for out-of-universe range starts.
            let hint = self
                .xfast_pred(lo.min(self.max_key()), iter.guard())
                .packed();
            // SAFETY: a packed top-level node of this trie's skiplist, obtained under
            // the iterator's own pin.
            unsafe { iter.seed_from_packed(hint) };
        }
        iter
    }

    /// Number of keys in `range` (weakly consistent, counted without cloning any
    /// value): `O(log log u + k)` for `k` counted keys.
    pub fn count_range(&self, range: impl RangeBounds<u64>) -> usize {
        let mut iter = self.range(range);
        let mut count = 0usize;
        while iter.next_key().is_some() {
            count += 1;
        }
        count
    }

    /// Removes and returns the entry with the smallest key, or `None` if the trie is
    /// empty at the linearization point.
    ///
    /// One level-0 search locates the minimum (the head *is* the minimum's
    /// predecessor on every level, so no x-fast hint can beat it) and the regular
    /// CAS-remove protocol deletes it under the same pin — replacing the
    /// `successor`-then-`remove` loop consumers previously hand-rolled, which re-ran
    /// the x-fast search on every attempt and re-searched for the key it had
    /// just found. Lost races retry on the new minimum.
    ///
    /// # Examples
    ///
    /// ```
    /// use skiptrie::{SkipTrie, SkipTrieConfig};
    ///
    /// let queue: SkipTrie<&str> = SkipTrie::new(SkipTrieConfig::for_universe_bits(32));
    /// queue.insert(30, "later");
    /// queue.insert(10, "now");
    /// assert_eq!(queue.pop_first(), Some((10, "now")), "extract-min");
    /// assert_eq!(queue.pop_first(), Some((30, "later")));
    /// assert_eq!(queue.pop_first(), None);
    /// ```
    pub fn pop_first(&self) -> Option<(u64, V)> {
        let guard = self.skiplist.pin();
        loop {
            let key = self.skiplist.first_key(&guard)?;
            if let Some(value) = self.try_remove_exact(key, None, &guard) {
                return Some((key, value));
            }
        }
    }

    /// Removes and returns the entry with the largest key, or `None` if the trie is
    /// empty at the linearization point. The x-fast `LowestAncestor` search for
    /// [`SkipTrie::max_key`] seeds both the locate and the delete of each attempt.
    pub fn pop_last(&self) -> Option<(u64, V)> {
        let guard = self.skiplist.pin();
        loop {
            let start = self.xfast_pred(self.max_key(), &guard);
            let key = self.skiplist.last_key_from(Some(start), &guard)?;
            if let Some(value) = self.try_remove_exact(key, Some(start), &guard) {
                return Some((key, value));
            }
        }
    }

    /// One delete attempt for `key` under an existing pin, including the x-fast-trie
    /// cleanup and top-node retirement duties (same discipline as [`SkipTrie::remove`]).
    /// Returns the value if this call performed the removal.
    fn try_remove_exact<'g>(
        &'g self,
        key: u64,
        start: Option<NodeRef<'g, V>>,
        guard: &'g Guard,
    ) -> Option<V> {
        let outcome = self.skiplist.delete_from(key, start, guard);
        if outcome.root_was_top || outcome.top_to_retire.is_some() {
            // The deleted tower was (or may have been) published in the trie: make
            // sure no prefix pointer still references it.
            self.cleanup_prefixes(key, guard);
        }
        if let Some(top) = outcome.top_to_retire {
            // Only after the trie cleanup can the unlinked top-level node be retired.
            // SAFETY: this call won the node's removal; it is unlinked and no longer
            // referenced by the trie.
            unsafe { self.skiplist.retire_node(top, guard) };
        }
        if outcome.removed {
            outcome.value
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Batched operations (one pin per batch, hints threaded op to op)
    // ------------------------------------------------------------------

    /// Picks the better of the carried hint and a fresh `LowestAncestor` result as
    /// the start of the next search in a key-sorted batch: both are top-level nodes
    /// with keys `<= key`, so the one with the larger key is strictly closer. The
    /// carried hint is typically the previous op's start (or the top node the
    /// previous insert just published, whose key is the previous — smaller — batch
    /// key), so it never outruns `key`.
    fn batch_start<'g>(
        &'g self,
        carried: Option<NodeRef<'g, V>>,
        key: u64,
        guard: &'g Guard,
    ) -> NodeRef<'g, V> {
        let fresh = self.xfast_pred(key, guard);
        match carried {
            Some(h) if !h.is_stopped() && h.key() >= fresh.key() => h,
            _ => fresh,
        }
    }

    /// Inserts every `key -> value` pair of `entries`, returning how many keys were
    /// newly inserted (duplicates of already-present keys — and later duplicates
    /// within the batch — are rejected exactly as by [`SkipTrie::insert`]).
    ///
    /// The batch is sorted by key and executed under **one** epoch pin, threading a
    /// predecessor hint from each insertion to the next (the previous start, or the
    /// top-level node the previous insertion just published), refreshed against a
    /// fresh x-fast `LowestAncestor` probe per key. The outcome equals applying the
    /// entries one at a time in slice order; each insertion still linearizes
    /// individually — the batch as a whole is *not* atomic, and concurrent readers
    /// may observe any prefix of it.
    ///
    /// # Examples
    ///
    /// ```
    /// use skiptrie::{SkipTrie, SkipTrieConfig};
    ///
    /// let trie: SkipTrie<u64> = SkipTrie::new(SkipTrieConfig::for_universe_bits(32));
    /// assert_eq!(trie.insert_batch(&[(3, 30), (1, 10), (3, 99)]), 2);
    /// assert_eq!(trie.get(3), Some(30), "first duplicate wins, as sequentially");
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any key does not fit in the configured universe (checked up front,
    /// before anything is inserted).
    pub fn insert_batch(&self, entries: &[(u64, V)]) -> usize {
        for &(key, _) in entries {
            self.check_key(key);
        }
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| entries[i].0);
        self.insert_batch_picked(entries, &order)
    }

    /// [`SkipTrie::insert_batch`] over a pre-sorted index selection: `order`
    /// indexes into `entries`, sorted by key (stably, so earlier duplicates win);
    /// returns how many of the picked entries this call inserted. Keys must
    /// already be checked. The sharded forest calls this once per shard group.
    pub(crate) fn insert_batch_picked(&self, entries: &[(u64, V)], order: &[usize]) -> usize {
        let guard = self.skiplist.pin();
        let mut hint: Option<NodeRef<'_, V>> = None;
        let mut inserted = 0;
        for &i in order {
            let (key, ref value) = entries[i];
            let start = self.batch_start(hint, key, &guard);
            hint = Some(start);
            if let skiptrie_skiplist::InsertOutcome::Inserted { top_node } = self
                .skiplist
                .insert_from(key, value.clone(), Some(start), &guard)
            {
                inserted += 1;
                if let Some(node) = top_node {
                    self.insert_prefixes(key, node, &guard);
                    hint = Some(node);
                }
            }
        }
        inserted
    }

    /// Removes every key of `keys`, returning how many were present (and are now
    /// removed). Sorted and executed under one pin with threaded hints, exactly like
    /// [`SkipTrie::insert_batch`]; equivalent to — but faster than — calling
    /// [`SkipTrie::remove`] per key, with each removal linearizing individually.
    ///
    /// # Panics
    ///
    /// Panics if any key does not fit in the configured universe (checked up front,
    /// before anything is removed).
    pub fn remove_batch(&self, keys: &[u64]) -> usize {
        for &key in keys {
            self.check_key(key);
        }
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_unstable_by_key(|&i| keys[i]);
        self.remove_batch_picked(keys, &order)
    }

    /// [`SkipTrie::remove_batch`] over a pre-sorted index selection (see
    /// [`SkipTrie::insert_batch_picked`]): returns how many of the picked keys
    /// this call removed.
    pub(crate) fn remove_batch_picked(&self, keys: &[u64], order: &[usize]) -> usize {
        let guard = self.skiplist.pin();
        let mut hint: Option<NodeRef<'_, V>> = None;
        let mut removed = 0;
        for &i in order {
            let key = keys[i];
            let start = self.batch_start(hint, key, &guard);
            removed += usize::from(self.try_remove_exact(key, Some(start), &guard).is_some());
            hint = Some(start);
        }
        removed
    }

    /// Looks up every key of `keys`, returning the values **in input order**
    /// (`None` for absent keys). Internally sorted and executed under one pin with
    /// threaded hints; equivalent to calling [`SkipTrie::get`] per key.
    ///
    /// # Panics
    ///
    /// Panics if any key does not fit in the configured universe.
    pub fn get_batch(&self, keys: &[u64]) -> Vec<Option<V>> {
        for &key in keys {
            self.check_key(key);
        }
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let mut out: Vec<Option<V>> = Vec::new();
        out.resize_with(keys.len(), || None);
        self.get_batch_picked(keys, &order, &mut out);
        out
    }

    /// [`SkipTrie::get_batch`] over a pre-sorted index selection, writing each result
    /// to `out[i]` for input index `i` (see [`SkipTrie::insert_batch_picked`]).
    pub(crate) fn get_batch_picked(&self, keys: &[u64], order: &[usize], out: &mut [Option<V>]) {
        let guard = self.skiplist.pin();
        let mut hint: Option<NodeRef<'_, V>> = None;
        for &i in order {
            let key = keys[i];
            let start = self.batch_start(hint, key, &guard);
            out[i] = self.skiplist.get_from(key, Some(start), &guard);
            hint = Some(start);
        }
    }

    // ------------------------------------------------------------------
    // Bulk load and snapshots (checkpoint / restore)
    // ------------------------------------------------------------------

    /// Builds a SkipTrie directly from a sorted, strictly increasing `(key, value)`
    /// sequence: [`SkipTrie::new`] followed by [`SkipTrie::bulk_load`].
    ///
    /// # Panics
    ///
    /// As [`SkipTrie::new`] and [`SkipTrie::bulk_load`].
    ///
    /// # Examples
    ///
    /// ```
    /// use skiptrie::{SkipTrie, SkipTrieConfig};
    ///
    /// let trie: SkipTrie<u64> = SkipTrie::from_sorted(
    ///     SkipTrieConfig::for_universe_bits(32),
    ///     (0..10_000u64).map(|k| (k * 5, k)),
    /// );
    /// assert_eq!(trie.len(), 10_000);
    /// assert_eq!(trie.predecessor(11), Some((10, 2)));
    /// ```
    pub fn from_sorted<I>(config: SkipTrieConfig, entries: I) -> Self
    where
        I: IntoIterator<Item = (u64, V)>,
    {
        let mut trie = SkipTrie::new(config);
        trie.bulk_load(entries);
        trie
    }

    /// Single-owner `O(n)` construction from a sorted, strictly increasing
    /// `(key, value)` sequence, returning the number of keys loaded.
    ///
    /// A cold start (checkpoint restore, sorted-file ingest) through `n`
    /// [`SkipTrie::insert`] calls pays, per key, an x-fast search, a
    /// multi-level skiplist descent, CAS retry loops, DCSS-guarded tower raises and
    /// prefix swings — machinery that exists solely to survive concurrent threads.
    /// `&mut self` proves there are none: towers are laid out with plain appends
    /// ([`SkipList::bulk_load_sorted`]) and the prefix table is populated bottom-up
    /// with plain stores, one pass over the top-level keys in order. The result is
    /// observationally identical to sequential inserts of the same entries; in
    /// debug builds both integrity audits ([`SkipTrie::check_traversal_integrity`]
    /// and [`SkipTrie::check_trie_integrity`]) verify that claim on every load.
    ///
    /// Typical restore pairing: feed a [`SkipTrie::snapshot`] back in.
    ///
    /// # Panics
    ///
    /// Panics if the trie is not empty, if keys are not strictly increasing, or if a
    /// key does not fit in the configured universe. Keys are validated as the
    /// iterator yields them (the input need not be materialized), so a mid-input
    /// violation panics after earlier entries were already linked — the trie stays
    /// consistent (every linked key is counted and queryable; the x-fast table,
    /// populated last, is a performance hint whose absence queries tolerate), but a
    /// caller that catches the unwind holds a partial load, not an empty trie.
    pub fn bulk_load<I>(&mut self, entries: I) -> usize
    where
        I: IntoIterator<Item = (u64, V)>,
    {
        assert!(self.is_empty(), "bulk_load requires an empty trie");
        let max_key = self.max_key();
        let universe_bits = self.config.universe_bits;
        let checked = entries.into_iter().inspect(move |&(key, _)| {
            assert!(
                key <= max_key,
                "key {key} exceeds the configured universe of {universe_bits} bits"
            );
        });
        let report = self.skiplist.bulk_load_sorted(checked);
        if !report.tops.is_empty() {
            let guard = self.skiplist.pin();
            self.bulk_publish_prefixes(&report.tops, &guard);
        }
        if cfg!(debug_assertions) {
            self.check_traversal_integrity();
            self.check_trie_integrity();
        }
        report.keys
    }

    /// Exports the contents as a sorted, duplicate-free `Vec<(u64, V)>` — the
    /// checkpoint half of the checkpoint/restore pair (restore with
    /// [`SkipTrie::from_sorted`] / [`SkipTrie::bulk_load`]).
    ///
    /// Runs over the range cursor under a single epoch pin, so it inherits the
    /// cursor's weak-consistency contract: every key present for the whole call
    /// appears exactly once, in increasing order; concurrently inserted or removed
    /// keys may or may not appear. (Unlike [`SkipTrie::to_vec`], whose raw level-0
    /// walk is only meaningful quiescently, a snapshot is safe to take under
    /// churn.)
    pub fn snapshot(&self) -> Vec<(u64, V)> {
        self.range(..).collect()
    }

    /// A (non-linearizable) snapshot of the contents in key order.
    pub fn to_vec(&self) -> Vec<(u64, V)> {
        self.skiplist.to_vec()
    }

    /// A (non-linearizable) snapshot of the keys in order.
    pub fn keys(&self) -> Vec<u64> {
        self.skiplist.keys()
    }

    /// Pins the current thread (for repeated low-level calls in benchmarks).
    pub fn pin(&self) -> Guard {
        self.skiplist.pin()
    }

    // ------------------------------------------------------------------
    // Structural statistics (experiments F1 / E5)
    // ------------------------------------------------------------------

    /// Number of (unmarked) data nodes per skiplist level, bottom to top.
    pub fn level_lengths(&self) -> Vec<usize> {
        self.skiplist.level_lengths()
    }

    /// The keys currently published at the skiplist's top level — i.e. the keys whose
    /// prefixes populate the x-fast trie.
    pub fn top_level_keys(&self) -> Vec<u64> {
        self.skiplist.top_level_keys()
    }

    /// `(nodes_allocated, nodes_recycled, nodes_pooled)` of the skiplist node pool.
    pub fn allocation_stats(&self) -> (usize, usize, usize) {
        self.skiplist.allocation_stats()
    }

    /// Approximate resident bytes for skiplist nodes (experiment E5).
    pub fn approx_node_bytes(&self) -> usize {
        self.skiplist.approx_node_bytes()
    }

    /// Audits every skiplist level under one pin, panicking if a reclamation-safety
    /// invariant is violated (poisoned node on a live path, incarnation bump while a
    /// pinned traversal examines a node, stale recycle); returns nodes examined. See
    /// [`SkipList::check_traversal_integrity`](skiptrie_skiplist::SkipList::check_traversal_integrity).
    pub fn check_traversal_integrity(&self) -> usize {
        self.skiplist.check_traversal_integrity()
    }

    /// Quiescent audit of the top level's `prev` guides: `(checked, inexact,
    /// dangling)`. See
    /// [`SkipList::check_prev_guides`](skiptrie_skiplist::SkipList::check_prev_guides).
    pub fn check_prev_guides(&self) -> (usize, usize, usize) {
        self.skiplist.check_prev_guides()
    }
}

impl<V> Drop for SkipTrie<V> {
    fn drop(&mut self) {
        // Free all trie nodes still referenced by the prefix table; the table itself
        // frees its own hash nodes, and the skiplist frees its towers.
        let mut ptrs: Vec<u64> = Vec::new();
        self.prefixes.for_each(|_, tnp| ptrs.push(tnp.0));
        for raw in ptrs {
            // SAFETY: exclusive access at drop time; each trie node is referenced by
            // exactly one live prefix entry.
            unsafe { drop(Box::from_raw(raw as *mut TrieNode)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn trie(bits: u32) -> SkipTrie<u64> {
        SkipTrie::new(SkipTrieConfig::for_universe_bits(bits).with_seed(7))
    }

    #[test]
    fn empty_trie() {
        let t = trie(16);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.predecessor(100), None);
        assert_eq!(t.successor(100), None);
        assert_eq!(t.get(0), None);
        assert_eq!(t.remove(5), None);
        assert_eq!(t.prefix_count(), 1, "only the permanent ε entry");
    }

    #[test]
    fn basic_roundtrip_and_duplicates() {
        let t = trie(32);
        assert!(t.insert(10, 100));
        assert!(!t.insert(10, 999), "duplicate insert is rejected");
        assert_eq!(t.get(10), Some(100), "original value kept");
        assert!(t.insert(20, 200));
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(10), Some(100));
        assert_eq!(t.remove(10), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn predecessor_successor_match_btreemap_model() {
        let t = trie(16);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = 0xfeed_f00d_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..6_000 {
            let key = next() % (1 << 16);
            match next() % 4 {
                0 | 1 => {
                    let fresh = !model.contains_key(&key);
                    if fresh {
                        model.insert(key, key * 3);
                    }
                    assert_eq!(t.insert(key, key * 3), fresh, "insert {key}");
                }
                2 => {
                    assert_eq!(t.remove(key), model.remove(&key), "remove {key}");
                }
                _ => {
                    let pred = model.range(..=key).next_back().map(|(k, v)| (*k, *v));
                    assert_eq!(t.predecessor(key), pred, "predecessor {key}");
                    let succ = model.range(key..).next().map(|(k, v)| (*k, *v));
                    assert_eq!(t.successor(key), succ, "successor {key}");
                }
            }
        }
        assert_eq!(t.len(), model.len());
        let snapshot: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(t.to_vec(), snapshot);
    }

    #[test]
    fn strict_variants() {
        let t = trie(16);
        t.insert(5, 1);
        t.insert(10, 2);
        assert_eq!(t.strict_predecessor(10), Some((5, 1)));
        assert_eq!(t.strict_predecessor(5), None);
        assert_eq!(t.strict_predecessor(0), None);
        assert_eq!(t.strict_successor(5), Some((10, 2)));
        assert_eq!(t.strict_successor(10), None);
        assert_eq!(t.strict_successor(t.max_key()), None);
    }

    #[test]
    fn universe_boundaries() {
        let t = trie(8);
        assert_eq!(t.max_key(), 255);
        assert!(t.insert(0, 0));
        assert!(t.insert(255, 255));
        assert_eq!(t.predecessor(255), Some((255, 255)));
        assert_eq!(t.predecessor(254), Some((0, 0)));
        assert_eq!(t.successor(1), Some((255, 255)));
        assert_eq!(t.successor(0), Some((0, 0)));
    }

    #[test]
    #[should_panic(expected = "exceeds the configured universe")]
    fn oversized_key_panics() {
        let t = trie(8);
        t.insert(256, 0);
    }

    #[test]
    fn trie_population_tracks_top_level_keys() {
        let t = trie(16);
        for key in 0..5_000u64 {
            t.insert(key, key);
        }
        let top_keys = t.top_level_keys();
        // With 4 levels (16-bit universe), about 1/8 of keys reach the top.
        assert!(
            top_keys.len() > 200 && top_keys.len() < 1_600,
            "unexpected top-level population: {}",
            top_keys.len()
        );
        // Each top-level key contributes at most (universe_bits - 1) new prefixes,
        // plus the permanent ε.
        let prefixes = t.prefix_count();
        assert!(prefixes > top_keys.len(), "prefixes: {prefixes}");
        assert!(
            prefixes <= top_keys.len() * 15 + 1,
            "prefixes: {prefixes} for {} top keys",
            top_keys.len()
        );
        // Removing everything shrinks the trie back to (almost) nothing.
        for key in 0..5_000u64 {
            t.remove(key);
        }
        assert!(t.is_empty());
        assert_eq!(t.top_level_keys(), Vec::<u64>::new());
        assert_eq!(t.prefix_count(), 1, "only ε remains after a full drain");
    }

    #[test]
    fn works_on_full_64_bit_universe() {
        let t: SkipTrie<u64> = SkipTrie::new(SkipTrieConfig::for_universe_bits(64).with_seed(3));
        for key in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1] {
            assert!(t.insert(key, key));
        }
        assert_eq!(t.predecessor(u64::MAX), Some((u64::MAX, u64::MAX)));
        assert_eq!(t.predecessor((1 << 63) + 5), Some((1 << 63, 1 << 63)));
        assert_eq!(t.successor(2), Some(((1 << 63) - 1, (1 << 63) - 1)));
        assert_eq!(t.strict_successor(u64::MAX), None);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn reinsertion_after_removal_of_top_keys() {
        let t = trie(16);
        for key in (0..2_000u64).step_by(2) {
            t.insert(key, key);
        }
        // Remove and re-insert everything twice to exercise trie cleanup + recycling.
        for _ in 0..2 {
            for key in (0..2_000u64).step_by(2) {
                assert_eq!(t.remove(key), Some(key));
            }
            assert!(t.is_empty());
            for key in (0..2_000u64).step_by(2) {
                assert!(t.insert(key, key));
            }
        }
        assert_eq!(t.len(), 1_000);
        for key in (0..2_000u64).step_by(2) {
            assert_eq!(t.predecessor(key + 1), Some((key, key)));
        }
    }

    #[test]
    fn range_matches_btreemap_model() {
        let t = trie(16);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = 0xabcd_1234_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..3_000 {
            let key = next() % (1 << 16);
            if next() % 3 == 0 {
                t.remove(key);
                model.remove(&key);
            } else if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                t.insert(key, key * 2);
                e.insert(key * 2);
            }
            if model.len().is_multiple_of(64) {
                let lo = next() % (1 << 16);
                let hi = lo.saturating_add(next() % 4_096).min((1 << 16) - 1);
                let got: Vec<(u64, u64)> = t.range(lo..=hi).collect();
                let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "range {lo}..={hi}");
                assert_eq!(t.count_range(lo..=hi), want.len());
            }
        }
        let got: Vec<(u64, u64)> = t.range(..).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        assert_eq!(t.count_range(..), model.len());
    }

    #[test]
    fn range_bounds_beyond_universe_are_tolerated() {
        let t = trie(8);
        t.insert(10, 1);
        t.insert(200, 2);
        assert_eq!(t.range(0..=u64::MAX).count(), 2);
        assert_eq!(t.range(1_000..).count(), 0);
        assert_eq!(t.count_range(..), 2);
        assert_eq!(t.count_range(11..200), 0);
    }

    #[test]
    fn pop_first_and_last_drain_in_order() {
        let t = trie(16);
        assert_eq!(t.pop_first(), None);
        assert_eq!(t.pop_last(), None);
        let keys: Vec<u64> = (0..2_000u64).map(|i| i * 13 % 60_000).collect();
        let mut model = BTreeMap::new();
        for &k in &keys {
            if model.insert(k, k + 1).is_none() {
                assert!(t.insert(k, k + 1));
            }
        }
        // Alternate popping from both ends; every pop must match the model exactly.
        let mut from_front = true;
        while !model.is_empty() {
            if from_front {
                let (k, v) = *model.iter().next().map(|(k, v)| (*k, *v)).as_ref().unwrap();
                assert_eq!(t.pop_first(), Some((k, v)));
                model.remove(&k);
            } else {
                let (k, v) = *model
                    .iter()
                    .next_back()
                    .map(|(k, v)| (*k, *v))
                    .as_ref()
                    .unwrap();
                assert_eq!(t.pop_last(), Some((k, v)));
                model.remove(&k);
            }
            from_front = !from_front;
        }
        assert!(t.is_empty());
        assert_eq!(t.pop_first(), None);
        assert_eq!(t.prefix_count(), 1, "only ε remains after a pop drain");
    }

    #[test]
    fn exact_match_get_agrees_with_membership() {
        let t = trie(16);
        for k in (0..4_000u64).step_by(3) {
            t.insert(k, k ^ 0x5555);
        }
        for k in 0..4_000u64 {
            let present = k % 3 == 0;
            assert_eq!(t.contains(k), present, "contains {k}");
            assert_eq!(t.get(k), present.then_some(k ^ 0x5555), "get {k}");
        }
        // Exact match still works after deletions force remnant-handling paths.
        for k in (0..4_000u64).step_by(6) {
            t.remove(k);
        }
        for k in (0..4_000u64).step_by(3) {
            assert_eq!(t.contains(k), k % 6 != 0, "contains after remove {k}");
        }
    }

    #[test]
    fn batched_ops_match_sequential_application() {
        let batched = trie(16);
        let sequential = trie(16);
        let mut state = 0x00ba_7c4e_d00d_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..30 {
            let entries: Vec<(u64, u64)> = (0..64)
                .map(|_| {
                    let k = next() % (1 << 16);
                    (k, k.wrapping_mul(3))
                })
                .collect();
            let seq_inserted = entries
                .iter()
                .filter(|&&(k, v)| sequential.insert(k, v))
                .count();
            assert_eq!(
                batched.insert_batch(&entries),
                seq_inserted,
                "round {round}: insert counts diverge"
            );
            let keys: Vec<u64> = (0..48).map(|_| next() % (1 << 16)).collect();
            assert_eq!(
                batched.get_batch(&keys),
                keys.iter().map(|&k| sequential.get(k)).collect::<Vec<_>>(),
                "round {round}: get_batch diverges (input order)"
            );
            let victims: Vec<u64> = (0..32).map(|_| next() % (1 << 16)).collect();
            let seq_removed = victims
                .iter()
                .filter(|&&k| sequential.remove(k).is_some())
                .count();
            assert_eq!(
                batched.remove_batch(&victims),
                seq_removed,
                "round {round}: remove counts diverge"
            );
            assert_eq!(batched.len(), sequential.len(), "round {round}");
        }
        assert_eq!(batched.to_vec(), sequential.to_vec());
    }

    #[test]
    fn empty_and_duplicate_batches() {
        let t = trie(16);
        assert_eq!(t.insert_batch(&[]), 0);
        assert_eq!(t.remove_batch(&[]), 0);
        assert_eq!(t.get_batch(&[]), Vec::<Option<u64>>::new());
        // Within-batch duplicates: the first occurrence wins, as sequentially.
        assert_eq!(t.insert_batch(&[(7, 70), (7, 71), (7, 72)]), 1);
        assert_eq!(t.get(7), Some(70));
        assert_eq!(t.remove_batch(&[7, 7, 7]), 1);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the configured universe")]
    fn batched_oversized_key_panics_before_mutating() {
        let t = trie(8);
        let _ = t.insert_batch(&[(1, 1), (256, 0)]);
    }

    #[test]
    fn bulk_load_matches_sequential_inserts_observationally() {
        let entries: Vec<(u64, u64)> = (0..4_000u64).map(|k| (k * 13, k ^ 0xfff)).collect();
        let mut bulk = trie(16);
        assert_eq!(bulk.bulk_load(entries.iter().copied()), entries.len());
        let seq = trie(16);
        for &(k, v) in &entries {
            assert!(seq.insert(k, v));
        }
        assert_eq!(bulk.len(), seq.len());
        assert_eq!(bulk.to_vec(), seq.to_vec());
        for probe in (0..60_000u64).step_by(61) {
            assert_eq!(bulk.predecessor(probe), seq.predecessor(probe), "{probe}");
            assert_eq!(bulk.successor(probe), seq.successor(probe), "{probe}");
            assert_eq!(bulk.get(probe), seq.get(probe), "{probe}");
            assert_eq!(bulk.contains(probe), seq.contains(probe), "{probe}");
        }
        let window: Vec<(u64, u64)> = bulk.range(1_000..=9_000).collect();
        let seq_window: Vec<(u64, u64)> = seq.range(1_000..=9_000).collect();
        assert_eq!(window, seq_window);
        // Both audits hold on both construction paths.
        assert!(bulk.check_traversal_integrity() >= bulk.len());
        assert!(bulk.check_trie_integrity() > 0);
        assert!(seq.check_trie_integrity() > 0);
        // Mutation after a bulk load uses the regular concurrent protocol.
        assert!(!bulk.insert(0, 1), "0 already present");
        assert_eq!(bulk.pop_first(), Some((0, 0xfff)));
        assert_eq!(bulk.pop_last(), Some((3_999 * 13, 3_999 ^ 0xfff)));
        assert_eq!(bulk.remove(13), Some(1 ^ 0xfff));
        assert_eq!(bulk.len(), seq.len() - 3);
    }

    #[test]
    fn from_sorted_snapshot_round_trip() {
        let entries: Vec<(u64, u64)> = (0..2_500u64).map(|k| (k * 19 + 3, k)).collect();
        let original: SkipTrie<u64> = SkipTrie::from_sorted(
            SkipTrieConfig::for_universe_bits(16).with_seed(7),
            entries.iter().copied(),
        );
        let checkpoint = original.snapshot();
        assert_eq!(checkpoint, entries, "snapshot is sorted and complete");
        let restored: SkipTrie<u64> = SkipTrie::from_sorted(
            SkipTrieConfig::for_universe_bits(16).with_seed(8),
            checkpoint,
        );
        assert_eq!(restored.to_vec(), original.to_vec());
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.predecessor(40_000), original.predecessor(40_000));
    }

    #[test]
    fn bulk_load_small_and_single_level_universes() {
        // universe_bits = 2 → a single skiplist level, no prefixes ever published.
        let mut t = trie(2);
        assert_eq!(t.bulk_load([(0u64, 10u64), (2, 12), (3, 13)]), 3);
        assert_eq!(t.prefix_count(), 1, "only ε, as with sequential inserts");
        assert_eq!(t.predecessor(1), Some((0, 10)));
        assert_eq!(t.pop_last(), Some((3, 13)));
        // Empty load is a no-op.
        let mut empty = trie(16);
        assert_eq!(empty.bulk_load(std::iter::empty()), 0);
        assert!(empty.is_empty());
        assert!(empty.insert(5, 5));
    }

    #[test]
    #[should_panic(expected = "requires an empty trie")]
    fn bulk_load_rejects_non_empty_trie() {
        let mut t = trie(16);
        t.insert(1, 1);
        let _ = t.bulk_load([(2u64, 2u64)]);
    }

    #[test]
    #[should_panic(expected = "exceeds the configured universe")]
    fn bulk_load_rejects_oversized_keys() {
        let mut t = trie(8);
        let _ = t.bulk_load([(0u64, 0u64), (256, 1)]);
    }

    #[test]
    fn small_universe_single_level() {
        // universe_bits = 2 → 1 skiplist level: every key is a top-level key and the
        // trie holds prefixes of length 0..=1.
        let t = trie(2);
        for key in 0..4u64 {
            assert!(t.insert(key, key + 10));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.predecessor(3), Some((3, 13)));
        assert_eq!(t.remove(3), Some(13));
        assert_eq!(t.predecessor(3), Some((2, 12)));
        assert_eq!(t.remove(0), Some(10));
        assert_eq!(t.successor(0), Some((1, 11)));
    }

    #[test]
    fn default_prefix_directory_grows_instead_of_saturating() {
        // Fanout 16 puts root growth within unit-test reach: enough published
        // prefixes push the directory through several heights.
        let config = SkipTrieConfig::for_universe_bits(32)
            .with_seed(7)
            .with_hash_directory(DirectoryConfig::default().with_segment_bits(4));
        let t: SkipTrie<u64> = SkipTrie::new(config);
        assert_eq!(t.prefix_directory_height(), 1);
        for key in 0..6_000u64 {
            t.insert(key * 2_654_435_761 % (1 << 32), key);
        }
        assert!(
            t.prefix_directory_height() >= 3,
            "prefix growth crossed at least two tree capacities, height {}",
            t.prefix_directory_height()
        );
        assert!(t.check_trie_integrity() > 0);
    }

    #[test]
    fn forest_passes_the_hash_directory_knob_to_every_shard() {
        let hash_dir = DirectoryConfig::default().with_segment_bits(4);
        let config = ShardedSkipTrieConfig::for_universe_bits(32)
            .with_shards(4)
            .with_hash_directory(hash_dir);
        let forest: ShardedSkipTrie<u64> = ShardedSkipTrie::new(config);
        for i in 0..forest.shard_count() {
            assert_eq!(forest.shard(i).config().hash_dir, hash_dir);
        }
    }
}
