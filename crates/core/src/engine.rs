//! The per-shard engine abstraction behind [`ShardedSkipTrie`](crate::ShardedSkipTrie).
//!
//! The forest router owns *where* a key lives (top-bits shard routing, cross-shard
//! predecessor/successor stepping, stitched range scans, two-ended pops,
//! parallel bulk load); an engine owns *how* one shard stores its slice
//! of the key space. [`SkipTrie`] is the default engine — a forest of plain
//! tries. [`TieredSkipTrie`] is the read-optimized engine — each shard a frozen
//! sorted array plus a live delta, with merges staggered across shards by the
//! [`TieredForest`](crate::TieredForest) coordinator.
//!
//! The verbs — point operations, ordered queries, pops, `len` — are declared
//! once, by [`OrderedKv`]; an engine is an `OrderedKv` and the router calls them
//! through that bound. [`ShardEngine`] declares only what a *shard* adds:
//!
//! * **Construction** — [`ShardEngine::build`] from the per-shard
//!   [`TieredSkipTrieConfig`] the forest resolved (a plain engine reads only its
//!   `trie` field), and single-owner `O(n)` [`ShardEngine::bulk_load`] of the
//!   shard's contiguous sub-slice (the router calls it from one worker thread
//!   per shard).
//! * **Level-0 cursor** — [`ShardEngine::range`] returns an ordered cursor
//!   implementing [`EngineRangeIter`]; the router stitches one cursor per shard,
//!   opened in shard (= key) order, so at most one shard's epoch pin (or tier
//!   reference) is live at a time.
//! * **Probes** — snapshots, allocation statistics and the integrity audit.

use skiptrie_skiplist::{OrderedKv, RangeIter as SkipListRangeIter};

use crate::tiered::{TieredSkipTrie, TieredSkipTrieConfig};
use crate::{SkipTrie, TieredRangeIter};

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

/// The storage engine of one forest shard: an [`OrderedKv`] (the verbs) plus
/// what the router needs from a shard beyond them — see the [module docs](self).
/// All methods take `&self` except [`ShardEngine::bulk_load`] (single-owner
/// construction).
pub trait ShardEngine<V>: OrderedKv<V> + Sized + 'static
where
    V: Clone + Send + Sync + 'static,
{
    /// The cursor type [`ShardEngine::range`] returns.
    type RangeIter<'a>: EngineRangeIter<V>
    where
        Self: 'a;

    /// Constructs an empty shard from the configuration the forest resolved for
    /// it (seed and epoch domain already assigned; plain engines read `.trie`).
    fn build(config: &TieredSkipTrieConfig) -> Self;

    /// An ordered cursor over keys in `lo..=hi` (the router passes its global
    /// bounds straight through — a shard only holds keys of its own slice).
    fn range(&self, lo: u64, hi: u64) -> Self::RangeIter<'_>;

    /// Single-owner `O(n)` construction from this shard's sorted, strictly
    /// increasing sub-slice; the shard must be empty. Returns the entry count.
    fn bulk_load(&mut self, entries: &[(u64, V)]) -> usize;

    /// Snapshot of the shard's contents in key order (weakly consistent).
    fn to_vec(&self) -> Vec<(u64, V)>;

    /// `(allocated, recycled, pooled)` node counts of the shard's pool(s).
    fn allocation_stats(&self) -> (usize, usize, usize);

    /// Approximate resident bytes of the shard's storage.
    fn approx_node_bytes(&self) -> usize;

    /// Audits the shard's structural invariants, panicking on violation;
    /// returns how many entries were examined.
    fn check_traversal_integrity(&self) -> usize;
}

impl<V> OrderedKv<V> for SkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn get(&self, key: u64) -> Option<V> {
        SkipTrie::get(self, key)
    }
    fn insert(&self, key: u64, value: V) -> bool {
        SkipTrie::insert(self, key, value)
    }
    fn remove(&self, key: u64) -> Option<V> {
        SkipTrie::remove(self, key)
    }
    fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        SkipTrie::predecessor(self, key)
    }
    fn successor(&self, key: u64) -> Option<(u64, V)> {
        SkipTrie::successor(self, key)
    }
    fn scan(&self, from: u64, limit: usize) -> usize {
        SkipTrie::range(self, from..).count_up_to(limit)
    }
    fn pop_first(&self) -> Option<(u64, V)> {
        SkipTrie::pop_first(self)
    }
    fn len(&self) -> usize {
        SkipTrie::len(self)
    }
    fn contains(&self, key: u64) -> bool {
        SkipTrie::contains(self, key)
    }
    fn pop_last(&self) -> Option<(u64, V)> {
        SkipTrie::pop_last(self)
    }
}

impl<V> ShardEngine<V> for SkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    type RangeIter<'a>
        = SkipListRangeIter<'a, V>
    where
        Self: 'a;

    fn build(config: &TieredSkipTrieConfig) -> Self {
        SkipTrie::new(config.trie)
    }

    fn range(&self, lo: u64, hi: u64) -> Self::RangeIter<'_> {
        SkipTrie::range(self, lo..=hi)
    }

    fn bulk_load(&mut self, entries: &[(u64, V)]) -> usize {
        SkipTrie::bulk_load(self, entries.iter().cloned())
    }

    fn to_vec(&self) -> Vec<(u64, V)> {
        SkipTrie::to_vec(self)
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

impl<V> OrderedKv<V> for TieredSkipTrie<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn get(&self, key: u64) -> Option<V> {
        TieredSkipTrie::get(self, key)
    }
    fn insert(&self, key: u64, value: V) -> bool {
        TieredSkipTrie::insert(self, key, value)
    }
    fn remove(&self, key: u64) -> Option<V> {
        TieredSkipTrie::remove(self, key)
    }
    fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        TieredSkipTrie::predecessor(self, key)
    }
    fn successor(&self, key: u64) -> Option<(u64, V)> {
        TieredSkipTrie::successor(self, key)
    }
    fn scan(&self, from: u64, limit: usize) -> usize {
        TieredSkipTrie::range(self, from..).count_up_to(limit)
    }
    fn pop_first(&self) -> Option<(u64, V)> {
        TieredSkipTrie::pop_first(self)
    }
    fn len(&self) -> usize {
        TieredSkipTrie::len(self)
    }
    fn pop_last(&self) -> Option<(u64, V)> {
        TieredSkipTrie::pop_last(self)
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

    fn build(config: &TieredSkipTrieConfig) -> Self {
        TieredSkipTrie::new(*config)
    }

    fn range(&self, lo: u64, hi: u64) -> Self::RangeIter<'_> {
        TieredSkipTrie::range(self, lo..=hi)
    }

    fn bulk_load(&mut self, entries: &[(u64, V)]) -> usize {
        TieredSkipTrie::bulk_load(self, entries)
    }

    fn to_vec(&self) -> Vec<(u64, V)> {
        TieredSkipTrie::snapshot(self)
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
