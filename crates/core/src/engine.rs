//! The per-shard engine abstraction behind [`ShardedSkipTrie`](crate::ShardedSkipTrie).
//!
//! The forest router owns *where* a key lives (top-bits shard routing, cross-shard
//! predecessor/successor stepping, stitched range scans, two-ended pops, batch
//! grouping, parallel bulk load); a [`ShardEngine`] owns *how* one shard stores its
//! slice of the key space. [`SkipTrie`] is the default engine — a forest of plain
//! tries, behavior-identical to the pre-trait router. [`TieredSkipTrie`] is the
//! read-optimized engine — each shard a frozen Eytzinger array plus a live delta,
//! with merges staggered across shards by the
//! [`TieredForest`](crate::TieredForest) coordinator.
//!
//! The trait captures exactly the surface the router uses, nothing more:
//!
//! * **Point ops** — `insert`/`remove`/`get`/`contains`, linearizable per shard.
//! * **Ordered queries** — `predecessor`/`successor` within the shard's slice.
//! * **Level-0 cursor** — [`ShardEngine::range`] returns an ordered cursor over
//!   the shard implementing [`EngineRangeIter`]; the router stitches one cursor
//!   per shard, opened in shard (= key) order, so at most one shard's epoch pin
//!   (or tier reference) is live at a time.
//! * **Two-ended pops** — `pop_first`/`pop_last`, plus the `len`/`is_empty`
//!   occupancy hints the router's pop skip-scan reads.
//! * **Batch groups** — the `*_batch_picked` trio: the router groups a batch by
//!   shard and hands each engine its picked indices, already key-sorted, to
//!   execute under one pin / one tier resolution.
//! * **Bulk load** — single-owner `O(n)` construction of one shard's contiguous
//!   sub-slice; the router calls it from one worker thread per shard.

use skiptrie_skiplist::RangeIter as SkipListRangeIter;

use crate::tiered::{FrozenSearch, TieredSkipTrie, TieredSkipTrieConfig};
use crate::{SkipTrie, SkipTrieConfig, TieredRangeIter};

/// Everything the forest resolves before constructing one shard: the fully
/// derived per-shard [`SkipTrieConfig`] (decorrelated seed, assigned epoch
/// domain, directory shape) plus the tiered-engine policy knobs, which plain
/// engines ignore.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    /// Per-shard trie configuration (seed and epoch domain already assigned).
    pub trie: SkipTrieConfig,
    /// Delta-size merge watermark for tiered engines (`None` = no watermark).
    pub merge_watermark: Option<usize>,
    /// Frozen-tier search algorithm for tiered engines.
    pub frozen_search: FrozenSearch,
}

/// An ordered cursor over one shard's slice of the key space; what
/// [`ShardedRangeIter`](crate::ShardedRangeIter) stitches across shards.
pub trait EngineRangeIter<V>: Iterator<Item = (u64, V)> {
    /// Advances and returns only the next key, skipping the value clone — the
    /// counting fast path of `count_range`/`count_up_to`.
    fn next_key(&mut self) -> Option<u64>;
}

impl<V> EngineRangeIter<V> for SkipListRangeIter<'_, V>
where
    V: Clone + Send + Sync + 'static,
{
    fn next_key(&mut self) -> Option<u64> {
        SkipListRangeIter::next_key(self)
    }
}

impl<V> EngineRangeIter<V> for TieredRangeIter<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn next_key(&mut self) -> Option<u64> {
        TieredRangeIter::next_key(self)
    }
}

/// The storage engine of one forest shard — see the [module docs](self) for
/// the contract each method group carries. All methods take `&self` except
/// [`ShardEngine::bulk_load`] (single-owner construction); implementations must
/// be safe to share across the router's threads (`Send + Sync`).
pub trait ShardEngine<V>: Send + Sync + Sized + 'static
where
    V: Clone + Send + Sync + 'static,
{
    /// The cursor type [`ShardEngine::range`] returns.
    type RangeIter<'a>: EngineRangeIter<V>
    where
        Self: 'a;

    /// Constructs an empty shard from its resolved spec.
    fn build(spec: &ShardSpec) -> Self;

    /// Inserts `key -> value` if absent; `true` if this call inserted.
    fn insert(&self, key: u64, value: V) -> bool;

    /// Removes `key`, returning its value if this call removed it.
    fn remove(&self, key: u64) -> Option<V>;

    /// A clone of the value stored under `key`.
    fn get(&self, key: u64) -> Option<V>;

    /// True if `key` is present.
    fn contains(&self, key: u64) -> bool;

    /// The largest key `<= key` in this shard, with its value.
    fn predecessor(&self, key: u64) -> Option<(u64, V)>;

    /// The smallest key `>= key` in this shard, with its value.
    fn successor(&self, key: u64) -> Option<(u64, V)>;

    /// An ordered cursor over keys in `lo..=hi` (the router passes its global
    /// bounds straight through — a shard only holds keys of its own slice).
    fn range(&self, lo: u64, hi: u64) -> Self::RangeIter<'_>;

    /// Removes and returns the smallest entry.
    fn pop_first(&self) -> Option<(u64, V)>;

    /// Removes and returns the largest entry.
    fn pop_last(&self) -> Option<(u64, V)>;

    /// Number of keys stored — the router's pop occupancy hint; may be a racy
    /// counter (the pop falls back to real probes before trusting a 0).
    fn len(&self) -> usize;

    /// True if no keys are stored (same hint semantics as [`ShardEngine::len`]).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executes one shard's slice of a batched insert: `order` indexes into
    /// `entries`, key-sorted, all routing to this shard. Returns how many keys
    /// this call inserted.
    fn insert_batch_picked(&self, entries: &[(u64, V)], order: &[usize]) -> usize;

    /// Executes one shard's slice of a batched remove (see
    /// [`ShardEngine::insert_batch_picked`]). Returns how many keys were removed.
    fn remove_batch_picked(&self, keys: &[u64], order: &[usize]) -> usize;

    /// Executes one shard's slice of a batched lookup, writing `out[i]` for each
    /// picked `i`.
    fn get_batch_picked(&self, keys: &[u64], order: &[usize], out: &mut [Option<V>]);

    /// [`ShardEngine::insert_batch_picked`] with per-key outcomes: writes
    /// `out[i] = true` for each picked `i` this call inserted. The serving
    /// pipeline coalesces a connection's queued inserts through this so a
    /// batched execution still answers every request individually. Defaults to
    /// a per-op loop; engines with hint-threading batch paths override it.
    fn insert_batch_picked_flags(&self, entries: &[(u64, V)], order: &[usize], out: &mut [bool]) {
        for &i in order {
            let (key, ref value) = entries[i];
            out[i] = self.insert(key, value.clone());
        }
    }

    /// [`ShardEngine::remove_batch_picked`] with per-key outcomes: writes
    /// `out[i]` to the value removed under `keys[i]` (`None` if absent) for
    /// each picked `i`. Defaults to a per-op loop.
    fn remove_batch_picked_values(&self, keys: &[u64], order: &[usize], out: &mut [Option<V>]) {
        for &i in order {
            out[i] = self.remove(keys[i]);
        }
    }

    /// Single-owner `O(n)` construction from this shard's sorted, strictly
    /// increasing sub-slice; the shard must be empty. Returns the entry count.
    fn bulk_load(&mut self, entries: &[(u64, V)]) -> usize;

    /// Snapshot of the shard's contents in key order (weakly consistent).
    fn to_vec(&self) -> Vec<(u64, V)>;

    /// Snapshot of the shard's keys in order (weakly consistent).
    fn keys(&self) -> Vec<u64> {
        self.to_vec().into_iter().map(|(k, _)| k).collect()
    }

    /// `(allocated, recycled, pooled)` node counts of the shard's pool(s).
    fn allocation_stats(&self) -> (usize, usize, usize);

    /// Approximate resident bytes of the shard's storage.
    fn approx_node_bytes(&self) -> usize;

    /// Audits the shard's structural invariants, panicking on violation;
    /// returns how many entries were examined.
    fn check_traversal_integrity(&self) -> usize;
}

impl<V> ShardEngine<V> for SkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    type RangeIter<'a>
        = SkipListRangeIter<'a, V>
    where
        Self: 'a;

    fn build(spec: &ShardSpec) -> Self {
        SkipTrie::new(spec.trie)
    }

    fn insert(&self, key: u64, value: V) -> bool {
        SkipTrie::insert(self, key, value)
    }

    fn remove(&self, key: u64) -> Option<V> {
        SkipTrie::remove(self, key)
    }

    fn get(&self, key: u64) -> Option<V> {
        SkipTrie::get(self, key)
    }

    fn contains(&self, key: u64) -> bool {
        SkipTrie::contains(self, key)
    }

    fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        SkipTrie::predecessor(self, key)
    }

    fn successor(&self, key: u64) -> Option<(u64, V)> {
        SkipTrie::successor(self, key)
    }

    fn range(&self, lo: u64, hi: u64) -> Self::RangeIter<'_> {
        SkipTrie::range(self, lo..=hi)
    }

    fn pop_first(&self) -> Option<(u64, V)> {
        SkipTrie::pop_first(self)
    }

    fn pop_last(&self) -> Option<(u64, V)> {
        SkipTrie::pop_last(self)
    }

    fn len(&self) -> usize {
        SkipTrie::len(self)
    }

    fn is_empty(&self) -> bool {
        SkipTrie::is_empty(self)
    }

    fn insert_batch_picked(&self, entries: &[(u64, V)], order: &[usize]) -> usize {
        SkipTrie::insert_batch_picked(self, entries, order)
    }

    fn remove_batch_picked(&self, keys: &[u64], order: &[usize]) -> usize {
        SkipTrie::remove_batch_picked(self, keys, order)
    }

    fn get_batch_picked(&self, keys: &[u64], order: &[usize], out: &mut [Option<V>]) {
        SkipTrie::get_batch_picked(self, keys, order, out);
    }

    fn insert_batch_picked_flags(&self, entries: &[(u64, V)], order: &[usize], out: &mut [bool]) {
        SkipTrie::insert_batch_picked_flags(self, entries, order, out);
    }

    fn remove_batch_picked_values(&self, keys: &[u64], order: &[usize], out: &mut [Option<V>]) {
        SkipTrie::remove_batch_picked_values(self, keys, order, out);
    }

    fn bulk_load(&mut self, entries: &[(u64, V)]) -> usize {
        SkipTrie::bulk_load(self, entries.iter().cloned())
    }

    fn to_vec(&self) -> Vec<(u64, V)> {
        SkipTrie::to_vec(self)
    }

    fn keys(&self) -> Vec<u64> {
        SkipTrie::keys(self)
    }

    fn allocation_stats(&self) -> (usize, usize, usize) {
        SkipTrie::allocation_stats(self)
    }

    fn approx_node_bytes(&self) -> usize {
        SkipTrie::approx_node_bytes(self)
    }

    fn check_traversal_integrity(&self) -> usize {
        SkipTrie::check_traversal_integrity(self)
    }
}

impl<V> ShardEngine<V> for TieredSkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    type RangeIter<'a>
        = TieredRangeIter<V>
    where
        Self: 'a;

    fn build(spec: &ShardSpec) -> Self {
        TieredSkipTrie::new(TieredSkipTrieConfig {
            trie: spec.trie,
            merge_watermark: spec.merge_watermark,
            frozen_search: spec.frozen_search,
        })
    }

    fn insert(&self, key: u64, value: V) -> bool {
        TieredSkipTrie::insert(self, key, value)
    }

    fn remove(&self, key: u64) -> Option<V> {
        TieredSkipTrie::remove(self, key)
    }

    fn get(&self, key: u64) -> Option<V> {
        TieredSkipTrie::get(self, key)
    }

    fn contains(&self, key: u64) -> bool {
        TieredSkipTrie::contains(self, key)
    }

    fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        TieredSkipTrie::predecessor(self, key)
    }

    fn successor(&self, key: u64) -> Option<(u64, V)> {
        TieredSkipTrie::successor(self, key)
    }

    fn range(&self, lo: u64, hi: u64) -> Self::RangeIter<'_> {
        TieredSkipTrie::range(self, lo..=hi)
    }

    fn pop_first(&self) -> Option<(u64, V)> {
        TieredSkipTrie::pop_first(self)
    }

    fn pop_last(&self) -> Option<(u64, V)> {
        TieredSkipTrie::pop_last(self)
    }

    fn len(&self) -> usize {
        TieredSkipTrie::len(self)
    }

    fn is_empty(&self) -> bool {
        TieredSkipTrie::is_empty(self)
    }

    fn insert_batch_picked(&self, entries: &[(u64, V)], order: &[usize]) -> usize {
        TieredSkipTrie::insert_batch_picked(self, entries, order)
    }

    fn remove_batch_picked(&self, keys: &[u64], order: &[usize]) -> usize {
        TieredSkipTrie::remove_batch_picked(self, keys, order)
    }

    fn get_batch_picked(&self, keys: &[u64], order: &[usize], out: &mut [Option<V>]) {
        TieredSkipTrie::get_batch_picked(self, keys, order, out);
    }

    fn insert_batch_picked_flags(&self, entries: &[(u64, V)], order: &[usize], out: &mut [bool]) {
        TieredSkipTrie::insert_batch_picked_flags(self, entries, order, out);
    }

    fn remove_batch_picked_values(&self, keys: &[u64], order: &[usize], out: &mut [Option<V>]) {
        TieredSkipTrie::remove_batch_picked_values(self, keys, order, out);
    }

    fn bulk_load(&mut self, entries: &[(u64, V)]) -> usize {
        TieredSkipTrie::bulk_load(self, entries)
    }

    fn to_vec(&self) -> Vec<(u64, V)> {
        TieredSkipTrie::snapshot(self)
    }

    fn keys(&self) -> Vec<u64> {
        let mut iter = TieredSkipTrie::range(self, ..);
        let mut keys = Vec::new();
        while let Some(key) = iter.next_key() {
            keys.push(key);
        }
        keys
    }

    fn allocation_stats(&self) -> (usize, usize, usize) {
        TieredSkipTrie::allocation_stats(self)
    }

    fn approx_node_bytes(&self) -> usize {
        TieredSkipTrie::approx_node_bytes(self)
    }

    fn check_traversal_integrity(&self) -> usize {
        TieredSkipTrie::check_traversal_integrity(self)
    }
}
