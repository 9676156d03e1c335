//! A sharded SkipTrie forest: the key universe partitioned across independent
//! SkipTries by the top key bits.
//!
//! The SkipTrie's `O(log log u + c)` bound is per structure; at high thread counts
//! the remaining wall is cross-thread traffic on *one* trie — one prefix table, one
//! node pool, one epoch domain — so every operation, however disjoint its key, dirties
//! the same cache lines. [`ShardedSkipTrie`] removes that wall structurally:
//!
//! * **Routing.** `S = 2^shard_bits` shards; a key lives in the shard named by its
//!   top `shard_bits` bits, so each shard owns one contiguous slice of the key space
//!   and global key order equals (shard index, in-shard order). Point operations
//!   touch exactly one shard.
//! * **Isolation.** Every shard is a complete [`SkipTrie`] with its **own node pool**
//!   and its **own epoch domain**
//!   ([`crossbeam_epoch::pin_domain`]), so shards share no allocator free-list, no
//!   epoch counter, and no garbage queue on the hot path; a long scan of one shard
//!   stalls only that shard's reclamation.
//! * **Ordered queries compose.** [`predecessor`](ShardedSkipTrie::predecessor) /
//!   [`successor`](ShardedSkipTrie::successor) ask the key's home shard first and
//!   route to neighbouring shards only on a miss; [`range`](ShardedSkipTrie::range)
//!   stitches per-shard cursors in shard order; [`pop_first`](ShardedSkipTrie::pop_first)
//!   / [`pop_last`](ShardedSkipTrie::pop_last) walk shards from the respective end.
//! * **Batching.** The forest's batches are [`OrderedKv`]'s:
//!   [`insert_batch`](OrderedKv::insert_batch) /
//!   [`remove_batch`](OrderedKv::remove_batch) /
//!   [`get_batch`](OrderedKv::get_batch) sort the keys and run one point
//!   operation per key, each routed and pinned on its own. Keys route by their
//!   top bits, so the sorted order visits each shard's keys together.
//!
//! # Consistency
//!
//! Each *shard* is linearizable, and every point operation (insert / remove / get /
//! contains) touches exactly one shard, so point operations on the forest are
//! linearizable too. Operations that *combine* shards — cross-shard predecessor and
//! successor routing, stitched range scans, `pop_first` / `pop_last` — are **weakly
//! consistent**: each per-shard step is linearizable, shards are visited in key
//! order, and the composed answer was correct at some moment during the call, but a
//! concurrent update in a shard the operation has already passed may not be observed.
//! Range scans keep the cursor contract of the underlying tries: every key present
//! in the scanned range for the *whole* scan is yielded exactly once, in increasing
//! order (a key is in exactly one shard, and that shard's sub-scan covers the key's
//! whole sub-range). The quiescent behaviour is exact — see the model tests.

use std::ops::RangeBounds;

use skiptrie_metrics::{self as metrics, Counter};
use skiptrie_skiplist::{resolve_bounds, OrderedKv};

use crate::engine::{EngineRangeIter, ShardEngine};
use crate::tiered::TieredSkipTrieConfig;
use crate::{prefix, SkipTrie, SkipTrieConfig};

/// First epoch domain handed to shards: domain 0 is the process-wide default and is
/// deliberately skipped so un-sharded structures never share a domain with a shard.
const SHARD_DOMAIN_BASE: usize = 1;

/// Configuration of a [`ShardedSkipTrie`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedSkipTrieConfig {
    /// Width of the key universe in bits (`1..=64`); keys must be `< 2^universe_bits`.
    pub universe_bits: u32,
    /// The forest has `2^shard_bits` shards, keyed by the top `shard_bits` key bits.
    /// Must not exceed `universe_bits` (or 16 — 65 536 shards is never useful).
    pub shard_bits: u32,
    /// Tower-height seed of every shard (see [`SkipTrieConfig::seed`]). Shards hold
    /// disjoint keys, so one seed serves them all.
    pub seed: u64,
    /// Per-shard delta-size merge watermark, for tiered engines: once a shard's
    /// live delta accumulates this many writes, the writer that crosses the mark
    /// flags the shard and wakes the merge coordinator. Ignored by the plain
    /// [`SkipTrie`] engine. `None` (the default) disables the trigger.
    pub merge_watermark: Option<usize>,
}

impl Default for ShardedSkipTrieConfig {
    fn default() -> Self {
        ShardedSkipTrieConfig::for_universe_bits(32)
    }
}

impl ShardedSkipTrieConfig {
    /// A forest over `universe_bits`-bit keys with the default of 8 shards
    /// (`shard_bits = 3`, clamped to the universe width).
    ///
    /// # Panics
    ///
    /// Panics if `universe_bits` is not in `1..=64`.
    pub fn for_universe_bits(universe_bits: u32) -> Self {
        assert!(
            (1..=64).contains(&universe_bits),
            "universe_bits must be between 1 and 64"
        );
        ShardedSkipTrieConfig {
            universe_bits,
            shard_bits: 3.min(universe_bits),
            seed: 0x5eed_5eed_5eed_5eed,
            merge_watermark: None,
        }
    }

    /// Sets the shard count to `shards` (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        self.shard_bits = shards.trailing_zeros();
        self
    }

    /// Overrides the tower-height seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arms the per-shard delta-size merge watermark (tiered engines only); see
    /// [`ShardedSkipTrieConfig::merge_watermark`].
    ///
    /// # Panics
    ///
    /// Panics if `watermark` is zero.
    pub fn with_merge_watermark(mut self, watermark: usize) -> Self {
        assert!(watermark > 0, "merge watermark must be positive");
        self.merge_watermark = Some(watermark);
        self
    }
}

/// A lock-free ordered map over `universe_bits`-bit integer keys, partitioned across
/// `2^shard_bits` independent shards by the top `shard_bits` key bits.
///
/// Generic over the per-shard storage engine `E` (see
/// [`ShardEngine`]): the default `E = SkipTrie<V>` is a forest of plain tries;
/// `E = TieredSkipTrie<V>` (usually via [`TieredForest`](crate::TieredForest))
/// gives every shard a frozen read tier plus a live delta. The router — key
/// routing, cross-shard queries, stitched scans, pops, parallel bulk load — is
/// engine-agnostic.
///
/// Exposes the full SkipTrie surface (point operations, predecessor/successor, range
/// scans, ordered extraction) plus [`OrderedKv`]'s batches; see the [module docs](self)
/// for the sharding design and the cross-shard consistency contract.
///
/// # Examples
///
/// ```
/// use skiptrie::{ShardedSkipTrie, ShardedSkipTrieConfig};
///
/// let forest: ShardedSkipTrie<&str> =
///     ShardedSkipTrie::new(ShardedSkipTrieConfig::for_universe_bits(32).with_shards(8));
/// forest.insert(1, "low");
/// forest.insert(u32::MAX as u64, "high"); // lives in the last shard
///
/// // Ordered queries route across shard boundaries transparently:
/// assert_eq!(forest.predecessor(1 << 30), Some((1, "low")));
/// assert_eq!(forest.successor(2), Some((u32::MAX as u64, "high")));
/// assert_eq!(forest.range(..).count(), 2);
/// assert_eq!(forest.pop_first(), Some((1, "low")));
/// ```
pub struct ShardedSkipTrie<V, E = SkipTrie<V>> {
    config: ShardedSkipTrieConfig,
    shards: Box<[E]>,
    /// `key >> shard_shift` = shard index (`shard_shift = universe_bits - shard_bits`,
    /// or 64 for the single-shard degenerate case, where the shift is skipped).
    shard_shift: u32,
    /// The router never stores a bare `V`; shards do.
    _marker: std::marker::PhantomData<V>,
}

impl<V, E> Default for ShardedSkipTrie<V, E>
where
    V: Clone + Send + Sync + 'static,
    E: ShardEngine<V>,
{
    fn default() -> Self {
        ShardedSkipTrie::new(ShardedSkipTrieConfig::default())
    }
}

impl<V, E> ShardedSkipTrie<V, E>
where
    V: Clone + Send + Sync + 'static,
    E: ShardEngine<V>,
{
    /// Creates an empty forest.
    ///
    /// # Panics
    ///
    /// Panics if `config.universe_bits` is not in `1..=64`, or if `config.shard_bits`
    /// exceeds `universe_bits` or 16.
    pub fn new(config: ShardedSkipTrieConfig) -> Self {
        assert!(
            (1..=64).contains(&config.universe_bits),
            "universe_bits must be between 1 and 64"
        );
        assert!(
            config.shard_bits <= config.universe_bits,
            "shard_bits ({}) cannot exceed universe_bits ({})",
            config.shard_bits,
            config.universe_bits
        );
        assert!(
            config.shard_bits <= 16,
            "2^{} shards is never useful",
            config.shard_bits
        );
        let shard_count = 1usize << config.shard_bits;
        let shards: Vec<E> = (0..shard_count)
            .map(|i| {
                let shard_config = SkipTrieConfig::for_universe_bits(config.universe_bits)
                    .with_seed(config.seed)
                    // Distinct domains for up to NUM_DOMAINS - 1 shards; beyond that
                    // they wrap (never onto the default domain 0).
                    .with_domain(SHARD_DOMAIN_BASE + i % (crossbeam_epoch::NUM_DOMAINS - 1));
                E::build(&TieredSkipTrieConfig {
                    trie: shard_config,
                    merge_watermark: config.merge_watermark,
                })
            })
            .collect();
        ShardedSkipTrie {
            shards: shards.into_boxed_slice(),
            shard_shift: config.universe_bits - config.shard_bits,
            config,
            _marker: std::marker::PhantomData,
        }
    }

    /// The configuration this forest was built with.
    pub fn config(&self) -> ShardedSkipTrieConfig {
        self.config
    }

    /// Number of shards (`2^shard_bits`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Width of the key universe in bits (`log u`).
    pub fn universe_bits(&self) -> u32 {
        self.config.universe_bits
    }

    /// The largest key this forest accepts.
    pub fn max_key(&self) -> u64 {
        prefix::max_key(self.config.universe_bits)
    }

    /// The shard a key routes to: its top `shard_bits` bits.
    pub fn shard_of(&self, key: u64) -> usize {
        if self.config.shard_bits == 0 {
            0
        } else {
            (key >> self.shard_shift) as usize
        }
    }

    /// Borrows shard `index`'s engine directly (diagnostics, tests, and the
    /// tiered forest's merge coordinator).
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn shard(&self, index: usize) -> &E {
        &self.shards[index]
    }

    /// Number of keys stored across all shards (quiescently accurate).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True if no keys are stored (quiescently accurate).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    fn check_key(&self, key: u64) {
        assert!(
            key <= self.max_key(),
            "key {key} exceeds the configured universe of {} bits",
            self.config.universe_bits
        );
    }

    // ------------------------------------------------------------------
    // Point operations (single shard, linearizable)
    // ------------------------------------------------------------------

    /// Inserts `key -> value` into the key's shard. Returns `true` if the key was
    /// absent and is now present (see [`SkipTrie::insert`]).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn insert(&self, key: u64, value: V) -> bool {
        self.check_key(key);
        self.shards[self.shard_of(key)].insert(key, value)
    }

    /// Removes `key` from its shard, returning its value if this call performed the
    /// removal (see [`SkipTrie::remove`]).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.check_key(key);
        self.shards[self.shard_of(key)].remove(key)
    }

    /// Returns a clone of the value stored under `key` (see [`SkipTrie::get`]).
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn get(&self, key: u64) -> Option<V> {
        self.check_key(key);
        self.shards[self.shard_of(key)].get(key)
    }

    /// True if `key` is present; clones no value.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn contains(&self, key: u64) -> bool {
        self.check_key(key);
        self.shards[self.shard_of(key)].contains(key)
    }

    // ------------------------------------------------------------------
    // Ordered queries (cross-shard routing)
    // ------------------------------------------------------------------

    /// The largest key `<= key` and its value: the key's home shard is queried
    /// first, and on a miss the scan routes through lower-indexed shards in
    /// descending order (every key of a lower shard is `< key`, so the first hit is
    /// the answer). See the [module docs](self) for the cross-shard consistency
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        self.check_key(key);
        let home = self.shard_of(key);
        if let Some(hit) = self.shards[home].predecessor(key) {
            return Some(hit);
        }
        self.shards[..home]
            .iter()
            .rev()
            .find_map(|shard| shard.predecessor(key))
    }

    /// The largest key strictly `< key`, if any.
    pub fn strict_predecessor(&self, key: u64) -> Option<(u64, V)> {
        if key == 0 {
            return None;
        }
        self.predecessor(key - 1)
    }

    /// The smallest key `>= key` and its value; the mirror image of
    /// [`ShardedSkipTrie::predecessor`], routing through higher-indexed shards on a
    /// home-shard miss.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in the configured universe.
    pub fn successor(&self, key: u64) -> Option<(u64, V)> {
        self.check_key(key);
        let home = self.shard_of(key);
        if let Some(hit) = self.shards[home].successor(key) {
            return Some(hit);
        }
        self.shards[home + 1..]
            .iter()
            .find_map(|shard| shard.successor(key))
    }

    /// The smallest key strictly `> key`, if any.
    pub fn strict_successor(&self, key: u64) -> Option<(u64, V)> {
        if key >= self.max_key() {
            return None;
        }
        self.successor(key + 1)
    }

    // ------------------------------------------------------------------
    // Range scans and ordered extraction
    // ------------------------------------------------------------------

    /// An ordered, weakly-consistent iterator over the entries whose keys lie in
    /// `range`, stitched across shard boundaries: per-shard cursors are opened in
    /// shard (= key) order, each holding its own shard's epoch pin only while that
    /// shard is being walked. Every key present in the range for the whole scan is
    /// yielded exactly once, in increasing order (the per-shard cursor contract —
    /// see [`SkipTrie::range`] — composes because each key belongs to exactly one
    /// shard). Bounds beyond the universe are tolerated.
    pub fn range(&self, range: impl RangeBounds<u64>) -> ShardedRangeIter<'_, V, E> {
        match resolve_bounds(&range) {
            Some((lo, hi)) if lo <= self.max_key() => {
                let last_shard = self.shard_of(hi.min(self.max_key()));
                ShardedRangeIter {
                    forest: self,
                    lo,
                    hi,
                    next_shard: self.shard_of(lo),
                    last_shard,
                    cur: None,
                    done: false,
                }
            }
            _ => ShardedRangeIter {
                forest: self,
                lo: 0,
                hi: 0,
                next_shard: 0,
                last_shard: 0,
                cur: None,
                done: true,
            },
        }
    }

    /// Number of keys in `range` (weakly consistent, counted without cloning any
    /// value).
    pub fn count_range(&self, range: impl RangeBounds<u64>) -> usize {
        let mut iter = self.range(range);
        let mut count = 0usize;
        while iter.next_key().is_some() {
            count += 1;
        }
        count
    }

    /// Removes and returns the entry with the smallest key, scanning shards in
    /// ascending order and popping the first shard that yields one. `None` if every
    /// shard was empty when visited. See the [module docs](self) for the cross-shard
    /// consistency contract.
    ///
    /// Shards whose occupancy counter ([`SkipTrie::len`]) reads 0 are **skipped
    /// without a probe** — over a mostly-drained forest the old per-pop re-probe of
    /// every empty shard made each pop `O(S)` searches instead of one. The counter
    /// is a hint, not a guard: an insertion linearizes (its node becomes reachable)
    /// an instant before the counter moves, so a racing 0 read can hide a present
    /// key — the pop therefore falls back to one real probe per shard before
    /// declaring the forest empty. Probes and skips are recorded as
    /// [`Counter::ShardPopProbe`] / [`Counter::ShardPopSkip`] when metrics are on.
    pub fn pop_first(&self) -> Option<(u64, V)> {
        self.pop_over(self.shards.iter(), false)
    }

    /// Removes and returns the entry with the largest key; the mirror image of
    /// [`ShardedSkipTrie::pop_first`], scanning shards in descending order, with the
    /// same empty-shard skip (worth even more here: each probe of an empty shard
    /// runs a full x-fast `LowestAncestor` search before discovering nothing).
    pub fn pop_last(&self) -> Option<(u64, V)> {
        self.pop_over(self.shards.iter().rev(), true)
    }

    /// Shared two-phase pop: an occupancy-hinted pass over `shards` that skips
    /// empty-reading ones, then — only if that pass found nothing — an
    /// unconditional probe pass that makes the `None` answer authoritative despite
    /// counter races. `shards` must visit shards from the end being popped
    /// (ascending for `from_back = false`, descending for `true`).
    fn pop_over<'a>(
        &'a self,
        mut shards: impl Iterator<Item = &'a E> + Clone,
        from_back: bool,
    ) -> Option<(u64, V)> {
        let pop = |shard: &E| {
            if from_back {
                shard.pop_last()
            } else {
                shard.pop_first()
            }
        };
        for shard in shards.clone() {
            if shard.is_empty() {
                metrics::record(Counter::ShardPopSkip);
                continue;
            }
            metrics::record(Counter::ShardPopProbe);
            if let Some(hit) = pop(shard) {
                return Some(hit);
            }
        }
        // Every shard read 0 (or lost its last key to a racing pop): re-scan with
        // real probes so a key whose insert linearized just before its counter
        // bump is still found.
        shards.find_map(|shard| {
            metrics::record(Counter::ShardPopProbe);
            pop(shard)
        })
    }

    // ------------------------------------------------------------------
    // Bulk load and snapshots (checkpoint / restore)
    // ------------------------------------------------------------------

    /// Builds a forest directly from a sorted, strictly increasing slice of
    /// `(key, value)` entries: [`ShardedSkipTrie::new`] followed by
    /// [`ShardedSkipTrie::bulk_load`].
    ///
    /// # Panics
    ///
    /// As [`ShardedSkipTrie::new`] and [`ShardedSkipTrie::bulk_load`].
    pub fn from_sorted(config: ShardedSkipTrieConfig, entries: &[(u64, V)]) -> Self {
        let mut forest = ShardedSkipTrie::new(config);
        forest.bulk_load(entries);
        forest
    }

    /// Single-owner bulk construction of the whole forest from a sorted, strictly
    /// increasing slice, returning the number of keys loaded.
    ///
    /// Shard routing is by top key bits, so a sorted slice decomposes into `S`
    /// contiguous sub-slices — one per shard — found with a single linear split.
    /// Each non-empty shard is then built **in parallel** by its own worker thread
    /// via [`SkipTrie::bulk_load`]: shards share no node pool and no
    /// epoch domain, so the workers proceed with zero cross-shard coordination —
    /// the construction-side payoff of the same isolation that keeps the serving
    /// path contention-free. Restore a checkpoint by feeding
    /// [`ShardedSkipTrie::snapshot`] back in.
    ///
    /// # Panics
    ///
    /// Panics if the forest is not empty, if keys are not strictly increasing, or
    /// if a key does not fit in the configured universe.
    ///
    /// # Examples
    ///
    /// ```
    /// use skiptrie::{ShardedSkipTrie, ShardedSkipTrieConfig};
    ///
    /// let entries: Vec<(u64, u64)> = (0..10_000u64).map(|k| (k * 421, k)).collect();
    /// let forest: ShardedSkipTrie<u64> = ShardedSkipTrie::from_sorted(
    ///     ShardedSkipTrieConfig::for_universe_bits(32).with_shards(8),
    ///     &entries,
    /// );
    /// assert_eq!(forest.len(), 10_000);
    /// assert_eq!(forest.snapshot(), entries);
    /// ```
    pub fn bulk_load(&mut self, entries: &[(u64, V)]) -> usize {
        assert!(self.is_empty(), "bulk_load requires an empty forest");
        let mut prev: Option<u64> = None;
        for &(key, _) in entries {
            self.check_key(key);
            assert!(
                prev.is_none_or(|p| p < key),
                "bulk_load requires strictly increasing keys (saw {key} after {prev:?})"
            );
            prev = Some(key);
        }
        // Split at shard boundaries: shard indices are non-decreasing over a sorted
        // slice, so each shard's share is one contiguous run.
        let mut slices: Vec<&[(u64, V)]> = vec![&[]; self.shards.len()];
        let mut start = 0usize;
        while start < entries.len() {
            let shard = self.shard_of(entries[start].0);
            let mut end = start + 1;
            while end < entries.len() && self.shard_of(entries[end].0) == shard {
                end += 1;
            }
            slices[shard] = &entries[start..end];
            start = end;
        }
        std::thread::scope(|scope| {
            for (shard, slice) in self.shards.iter_mut().zip(slices) {
                if slice.is_empty() {
                    continue;
                }
                scope.spawn(move || ShardEngine::bulk_load(shard, slice));
            }
        });
        entries.len()
    }

    /// Exports the contents as a sorted, duplicate-free `Vec<(u64, V)>` — the
    /// checkpoint half of the checkpoint/restore pair (restore with
    /// [`ShardedSkipTrie::from_sorted`] / [`ShardedSkipTrie::bulk_load`]).
    ///
    /// Stitches the per-shard range cursors in shard (= key) order, holding **one
    /// epoch pin at a time** — the shard currently being walked — so a snapshot of
    /// a large forest never stalls reclamation in the shards it has finished with.
    /// Inherits the cursor contract: every key present in its shard for the whole
    /// per-shard sub-scan appears exactly once, in increasing order; keys updated
    /// concurrently may or may not appear.
    pub fn snapshot(&self) -> Vec<(u64, V)> {
        self.range(..).collect()
    }

    // ------------------------------------------------------------------
    // Snapshots and diagnostics
    // ------------------------------------------------------------------

    /// A (non-linearizable) snapshot of the contents in key order (shard snapshots
    /// concatenated in shard order).
    pub fn to_vec(&self) -> Vec<(u64, V)> {
        self.shards.iter().flat_map(|s| s.to_vec()).collect()
    }

    /// The keys in order, without cloning values (same weak consistency as
    /// [`ShardedSkipTrie::snapshot`]).
    pub fn keys(&self) -> Vec<u64> {
        let mut iter = self.range(..);
        std::iter::from_fn(|| iter.next_key()).collect()
    }

    /// Per-shard key counts, in shard order (load-balance diagnostics).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Summed `(nodes_allocated, nodes_recycled, nodes_pooled)` across every shard's
    /// node pool.
    pub fn allocation_stats(&self) -> (usize, usize, usize) {
        self.shards
            .iter()
            .map(|s| s.allocation_stats())
            .fold((0, 0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2))
    }

    /// Approximate resident bytes for skiplist nodes across all shards.
    pub fn approx_node_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.approx_node_bytes()).sum()
    }

    /// Audits every shard under its own pin (see
    /// [`SkipTrie::check_traversal_integrity`]); returns total nodes examined.
    pub fn check_traversal_integrity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.check_traversal_integrity())
            .sum()
    }
}

impl<V, E> OrderedKv<V> for ShardedSkipTrie<V, E>
where
    V: Clone + Send + Sync + 'static,
    E: ShardEngine<V>,
{
    fn get(&self, key: u64) -> Option<V> {
        ShardedSkipTrie::get(self, key)
    }
    fn insert(&self, key: u64, value: V) -> bool {
        ShardedSkipTrie::insert(self, key, value)
    }
    fn remove(&self, key: u64) -> Option<V> {
        ShardedSkipTrie::remove(self, key)
    }
    fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        ShardedSkipTrie::predecessor(self, key)
    }
    fn successor(&self, key: u64) -> Option<(u64, V)> {
        ShardedSkipTrie::successor(self, key)
    }
    fn scan(&self, from: u64, limit: usize) -> usize {
        ShardedSkipTrie::range(self, from..).count_up_to(limit)
    }
    fn pop_first(&self) -> Option<(u64, V)> {
        ShardedSkipTrie::pop_first(self)
    }
    fn len(&self) -> usize {
        ShardedSkipTrie::len(self)
    }
    fn contains(&self, key: u64) -> bool {
        ShardedSkipTrie::contains(self, key)
    }
    fn is_empty(&self) -> bool {
        ShardedSkipTrie::is_empty(self)
    }
    fn pop_last(&self) -> Option<(u64, V)> {
        ShardedSkipTrie::pop_last(self)
    }
}

/// A bounded, weakly-consistent range iterator over a [`ShardedSkipTrie`], stitching
/// per-shard cursors in shard order (see [`ShardedSkipTrie::range`]). At most one
/// shard's cursor is live at a time — an epoch pin for the plain engine, an owned
/// tiers reference for the tiered one — so a long stitched scan never stalls more
/// than the shard currently being walked.
pub struct ShardedRangeIter<'a, V, E = SkipTrie<V>>
where
    V: Clone + Send + Sync + 'static,
    E: ShardEngine<V>,
{
    forest: &'a ShardedSkipTrie<V, E>,
    /// Resolved inclusive bounds of the whole scan.
    lo: u64,
    hi: u64,
    /// Next shard index to open a cursor on.
    next_shard: usize,
    /// Last shard index intersecting the range.
    last_shard: usize,
    /// Cursor over the shard currently being walked.
    cur: Option<E::RangeIter<'a>>,
    done: bool,
}

impl<'a, V, E> ShardedRangeIter<'a, V, E>
where
    V: Clone + Send + Sync + 'static,
    E: ShardEngine<V>,
{
    /// Opens the next shard's cursor, or marks the scan done. Returns `false` once
    /// exhausted.
    fn open_next_shard(&mut self) -> bool {
        self.cur = None;
        if self.next_shard > self.last_shard {
            self.done = true;
            return false;
        }
        // Global bounds are passed straight through: a shard only contains keys of
        // its own slice, so no per-shard clamping is needed, and the engine's
        // seeded descent positions the cursor at the first in-range key.
        self.cur = Some(self.forest.shards[self.next_shard].range(self.lo, self.hi));
        self.next_shard += 1;
        true
    }

    /// Advances without cloning the value — the counting fast path.
    pub fn next_key(&mut self) -> Option<u64> {
        while !self.done {
            if let Some(cur) = self.cur.as_mut() {
                if let Some(key) = cur.next_key() {
                    return Some(key);
                }
            }
            if !self.open_next_shard() {
                break;
            }
        }
        None
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

impl<'a, V, E> Iterator for ShardedRangeIter<'a, V, E>
where
    V: Clone + Send + Sync + 'static,
    E: ShardEngine<V>,
{
    type Item = (u64, V);

    fn next(&mut self) -> Option<(u64, V)> {
        while !self.done {
            if let Some(cur) = self.cur.as_mut() {
                if let Some(entry) = cur.next() {
                    return Some(entry);
                }
            }
            if !self.open_next_shard() {
                break;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn forest(bits: u32, shards: usize) -> ShardedSkipTrie<u64> {
        ShardedSkipTrie::new(
            ShardedSkipTrieConfig::for_universe_bits(bits)
                .with_shards(shards)
                .with_seed(7),
        )
    }

    #[test]
    fn empty_forest() {
        let f = forest(16, 8);
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(f.shard_count(), 8);
        assert_eq!(f.predecessor(100), None);
        assert_eq!(f.successor(100), None);
        assert_eq!(f.pop_first(), None);
        assert_eq!(f.pop_last(), None);
        assert_eq!(f.range(..).count(), 0);
        assert_eq!(f.shard_lens(), vec![0; 8]);
    }

    #[test]
    fn routing_by_top_bits() {
        let f = forest(16, 8);
        // 16-bit universe, 8 shards: shard = top 3 bits, slices of 2^13 keys.
        assert_eq!(f.shard_of(0), 0);
        assert_eq!(f.shard_of((1 << 13) - 1), 0);
        assert_eq!(f.shard_of(1 << 13), 1);
        assert_eq!(f.shard_of(f.max_key()), 7);
        f.insert(0, 1);
        f.insert(1 << 13, 2);
        f.insert(f.max_key(), 3);
        assert_eq!(f.shard(0).len(), 1);
        assert_eq!(f.shard(1).len(), 1);
        assert_eq!(f.shard(7).len(), 1);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn forest_matches_btreemap_model_across_shard_counts() {
        for shards in [1usize, 2, 8] {
            let f = forest(16, shards);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut state = 0xfee1_f00d_u64 ^ shards as u64;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..4_000 {
                let key = next() % (1 << 16);
                match next() % 5 {
                    0 | 1 => {
                        let fresh = !model.contains_key(&key);
                        if fresh {
                            model.insert(key, key * 3);
                        }
                        assert_eq!(f.insert(key, key * 3), fresh, "insert {key}");
                    }
                    2 => {
                        assert_eq!(f.remove(key), model.remove(&key), "remove {key}");
                    }
                    3 => {
                        let pred = model.range(..=key).next_back().map(|(k, v)| (*k, *v));
                        assert_eq!(f.predecessor(key), pred, "predecessor {key}");
                        let succ = model.range(key..).next().map(|(k, v)| (*k, *v));
                        assert_eq!(f.successor(key), succ, "successor {key}");
                    }
                    _ => {
                        assert_eq!(f.get(key), model.get(&key).copied(), "get {key}");
                        assert_eq!(f.contains(key), model.contains_key(&key));
                    }
                }
            }
            assert_eq!(f.len(), model.len(), "{shards} shards");
            let snapshot: Vec<(u64, u64)> = model.into_iter().collect();
            assert_eq!(f.to_vec(), snapshot, "{shards} shards");
        }
    }

    #[test]
    fn cross_shard_predecessor_and_successor_route_over_empty_shards() {
        let f = forest(16, 16);
        // Only the first and last shards are populated; the 14 in between are empty.
        f.insert(5, 50);
        f.insert(f.max_key() - 5, 990);
        assert_eq!(f.predecessor(f.max_key() - 6), Some((5, 50)));
        assert_eq!(f.predecessor(f.max_key()), Some((f.max_key() - 5, 990)));
        assert_eq!(f.successor(6), Some((f.max_key() - 5, 990)));
        assert_eq!(f.strict_predecessor(5), None);
        assert_eq!(f.strict_successor(f.max_key() - 5), None);
        assert_eq!(f.strict_successor(5), Some((f.max_key() - 5, 990)));
    }

    #[test]
    fn stitched_range_matches_model() {
        let f = forest(16, 8);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = 0xabc_1234_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..3_000 {
            let key = next() % (1 << 16);
            if next() % 3 == 0 {
                f.remove(key);
                model.remove(&key);
            } else if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                f.insert(key, key * 2);
                e.insert(key * 2);
            }
            if model.len().is_multiple_of(64) {
                // Windows sized to straddle multiple 2^13-key shard slices.
                let lo = next() % (1 << 16);
                let hi = lo.saturating_add(next() % (3 << 13)).min((1 << 16) - 1);
                let got: Vec<(u64, u64)> = f.range(lo..=hi).collect();
                let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "range {lo}..={hi}");
                assert_eq!(f.count_range(lo..=hi), want.len());
            }
        }
        let got: Vec<(u64, u64)> = f.range(..).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        assert_eq!(f.count_range(..), model.len());
        assert_eq!(f.keys(), model.keys().copied().collect::<Vec<_>>());
    }

    #[test]
    fn range_bounds_beyond_universe_are_tolerated() {
        let f = forest(8, 4);
        f.insert(10, 1);
        f.insert(200, 2);
        assert_eq!(f.range(0..=u64::MAX).count(), 2);
        assert_eq!(f.range(1_000..).count(), 0);
        assert_eq!(f.count_range(..), 2);
        assert_eq!(f.count_range(11..200), 0);
        assert_eq!(f.range(200..200).count(), 0);
    }

    #[test]
    fn pops_drain_in_global_order_across_shards() {
        let f = forest(16, 8);
        let keys: Vec<u64> = (0..2_000u64).map(|i| i * 31 % 60_000).collect();
        let mut model = BTreeMap::new();
        for &k in &keys {
            if model.insert(k, k + 1).is_none() {
                assert!(f.insert(k, k + 1));
            }
        }
        let mut from_front = true;
        while !model.is_empty() {
            if from_front {
                let (k, v) = model.iter().next().map(|(k, v)| (*k, *v)).unwrap();
                assert_eq!(f.pop_first(), Some((k, v)));
                model.remove(&k);
            } else {
                let (k, v) = model.iter().next_back().map(|(k, v)| (*k, *v)).unwrap();
                assert_eq!(f.pop_last(), Some((k, v)));
                model.remove(&k);
            }
            from_front = !from_front;
        }
        assert!(f.is_empty());
        assert_eq!(f.pop_first(), None);
    }

    #[test]
    fn batched_ops_match_sequential_application() {
        let batched = forest(16, 8);
        let sequential = forest(16, 8);
        let mut state = 0xbeef_5eed_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..20 {
            let entries: Vec<(u64, u64)> = (0..96)
                .map(|_| {
                    let k = next() % (1 << 16);
                    (k, k.wrapping_mul(5))
                })
                .collect();
            let seq = entries
                .iter()
                .filter(|&&(k, v)| sequential.insert(k, v))
                .count();
            assert_eq!(batched.insert_batch(&entries), seq, "round {round}");
            let keys: Vec<u64> = (0..64).map(|_| next() % (1 << 16)).collect();
            assert_eq!(
                batched.get_batch(&keys),
                keys.iter().map(|&k| sequential.get(k)).collect::<Vec<_>>(),
                "round {round}"
            );
            let victims: Vec<u64> = (0..48).map(|_| next() % (1 << 16)).collect();
            let seq = victims
                .iter()
                .filter(|&&k| sequential.remove(k).is_some())
                .count();
            assert_eq!(batched.remove_batch(&victims), seq, "round {round}");
        }
        assert_eq!(batched.to_vec(), sequential.to_vec());
    }

    #[test]
    fn bulk_load_matches_sequential_inserts_observationally() {
        let entries: Vec<(u64, u64)> = (0..5_000u64).map(|k| (k * 13, k + 7)).collect();
        let mut bulk = forest(16, 8);
        assert_eq!(bulk.bulk_load(&entries), entries.len());
        let seq = forest(16, 8);
        for &(k, v) in &entries {
            assert!(seq.insert(k, v));
        }
        assert_eq!(bulk.len(), seq.len());
        assert_eq!(bulk.shard_lens(), seq.shard_lens());
        assert_eq!(bulk.to_vec(), seq.to_vec());
        for probe in (0..65_000u64).step_by(53) {
            assert_eq!(bulk.predecessor(probe), seq.predecessor(probe), "{probe}");
            assert_eq!(bulk.successor(probe), seq.successor(probe), "{probe}");
            assert_eq!(bulk.get(probe), seq.get(probe), "{probe}");
        }
        let got: Vec<(u64, u64)> = bulk.range(10_000..=50_000).collect();
        let want: Vec<(u64, u64)> = seq.range(10_000..=50_000).collect();
        assert_eq!(got, want, "stitched ranges agree");
        bulk.check_traversal_integrity();
        // Pops and mutation still run the concurrent protocol.
        assert_eq!(bulk.pop_first(), Some((0, 7)));
        assert_eq!(bulk.pop_last(), Some((4_999 * 13, 5_006)));
        assert!(bulk.insert(1, 1));
        assert_eq!(bulk.len(), seq.len() - 1);
    }

    #[test]
    fn from_sorted_snapshot_round_trip_across_shards() {
        let entries: Vec<(u64, u64)> = (0..3_000u64).map(|k| (k * 21 + 1, k)).collect();
        let original: ShardedSkipTrie<u64> = ShardedSkipTrie::from_sorted(
            ShardedSkipTrieConfig::for_universe_bits(16)
                .with_shards(16)
                .with_seed(5),
            &entries,
        );
        let checkpoint = original.snapshot();
        assert_eq!(checkpoint, entries, "snapshot is sorted and complete");
        // Restore into a *different* forest geometry: the checkpoint format is
        // geometry-independent (just sorted pairs).
        let restored: ShardedSkipTrie<u64> = ShardedSkipTrie::from_sorted(
            ShardedSkipTrieConfig::for_universe_bits(16)
                .with_shards(4)
                .with_seed(9),
            &checkpoint,
        );
        assert_eq!(restored.to_vec(), original.to_vec());
        assert_eq!(restored.len(), original.len());
    }

    #[test]
    fn bulk_load_handles_sparse_and_empty_shards() {
        // All keys in the last shard: 15 workers idle, one builds.
        let base = 15u64 << 12; // shard 15 of 16 (slices of 2^12 keys)
        let hi: Vec<(u64, u64)> = (base..base + 1_000).map(|k| (k, k)).collect();
        let mut f = forest(16, 16);
        assert_eq!(f.bulk_load(&hi), 1_000);
        assert_eq!(f.shard(15).len(), 1_000);
        assert!((0..15).all(|i| f.shard(i).is_empty()));
        assert_eq!(f.pop_first(), Some((base, base)));
        // Empty load.
        let mut f = forest(16, 4);
        assert_eq!(f.bulk_load(&[]), 0);
        assert!(f.is_empty());
        assert!(f.insert(3, 3));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn bulk_load_rejects_unsorted_input() {
        let mut f = forest(16, 4);
        let _ = f.bulk_load(&[(5, 5), (4, 4)]);
    }

    #[test]
    #[should_panic(expected = "requires an empty forest")]
    fn bulk_load_rejects_non_empty_forest() {
        let mut f = forest(16, 4);
        f.insert(1, 1);
        let _ = f.bulk_load(&[(2, 2)]);
    }

    #[test]
    fn one_hot_forest_pops_drain_correctly() {
        // Occupancy-hinted pops over a one-hot forest (the probe-count regression
        // itself is tests/sharded_forest.rs's
        // `drained_forest_pops_probe_only_occupied_shards`).
        let f = forest(16, 16);
        let base = 8 << 12; // shard 8 of 16 (slices of 2^12 keys)
        for k in 0..200u64 {
            assert!(f.insert(base + k, k));
        }
        for k in 0..100u64 {
            assert_eq!(f.pop_first(), Some((base + k, k)));
        }
        for k in (100..200u64).rev() {
            assert_eq!(f.pop_last(), Some((base + k, k)));
        }
        assert_eq!(f.pop_first(), None);
        assert_eq!(f.pop_last(), None);
        assert!(f.is_empty());
    }

    #[test]
    fn single_shard_forest_degenerates_to_one_trie() {
        let f: ShardedSkipTrie<u64> = ShardedSkipTrie::new(
            ShardedSkipTrieConfig::for_universe_bits(16)
                .with_shards(1)
                .with_seed(3),
        );
        assert_eq!(f.shard_count(), 1);
        for k in 0..500u64 {
            assert!(f.insert(k * 100, k));
        }
        assert_eq!(f.shard(0).len(), 500);
        assert_eq!(f.predecessor(99), Some((0, 0)));
        assert_eq!(f.range(..).count(), 500);
    }

    #[test]
    fn works_on_full_64_bit_universe() {
        let f: ShardedSkipTrie<u64> = ShardedSkipTrie::new(
            ShardedSkipTrieConfig::for_universe_bits(64)
                .with_shards(8)
                .with_seed(3),
        );
        for key in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1] {
            assert!(f.insert(key, key));
        }
        assert_eq!(f.shard_of(u64::MAX), 7);
        assert_eq!(f.shard_of(1 << 63), 4);
        assert_eq!(f.predecessor(u64::MAX), Some((u64::MAX, u64::MAX)));
        assert_eq!(f.predecessor((1 << 63) + 5), Some((1 << 63, 1 << 63)));
        assert_eq!(f.successor(2), Some(((1 << 63) - 1, (1 << 63) - 1)));
        assert_eq!(f.pop_last(), Some((u64::MAX, u64::MAX)));
        assert_eq!(f.pop_first(), Some((0, 0)));
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn shards_use_isolated_epoch_domains_by_default() {
        let f = forest(16, 8);
        for i in 0..8 {
            let domain = f.shard(i).config().domain;
            assert!(domain.is_some_and(|d| d >= SHARD_DOMAIN_BASE), "shard {i}");
        }
        let domains: std::collections::HashSet<_> =
            (0..8).map(|i| f.shard(i).config().domain).collect();
        assert_eq!(domains.len(), 8, "8 shards get 8 distinct domains");
    }

    #[test]
    #[should_panic(expected = "exceeds the configured universe")]
    fn oversized_key_panics() {
        let f = forest(8, 4);
        f.insert(256, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shard_count_panics() {
        let _ = ShardedSkipTrieConfig::for_universe_bits(16).with_shards(6);
    }
}
