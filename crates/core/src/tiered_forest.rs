//! Tiered sharded forest: a [`ShardedSkipTrie`] whose per-shard engine is the
//! frozen-tier [`TieredSkipTrie`], plus a single background coordinator that
//! folds shard deltas one shard at a time (**staggered** merges).
//!
//! # Why a separate wrapper
//!
//! `ShardedSkipTrie<V, TieredSkipTrie<V>>` already works as a passive
//! structure: every shard is a frozen sorted array plus a live skiplist
//! delta, and the router stitches scans and pops across them.
//! What the plain router cannot do is *react* to delta growth — a shard whose
//! delta crosses its `merge_watermark` latches a `merge_due` flag, but a
//! passive shard never folds by itself. [`TieredForest`] is the workspace's
//! one background merge scheduler: a coordinator thread that sleeps on a
//! [`WakeGate`] until *any shard is ready to fold* and then folds each ready
//! shard in turn. The wait is level-triggered — the predicate re-reads every
//! shard's latch before every park — so a watermark crossed while the
//! coordinator is busy folding another shard is seen on the next pass, with
//! no wake token that other code could consume.
//!
//! # Staggering and the exactly-once contract
//!
//! Each shard folds with the same seal→grace→fold→publish protocol as the
//! unsharded [`TieredSkipTrie`], entirely inside its own epoch domain.
//! Readers stitching a `range` across the forest hold at most one shard
//! cursor (and therefore at most one pinned domain) at a time, and the tiered
//! cursor itself resolves its `Arc<Tiers>` snapshot once — so a fold in shard
//! `i` can never block or tear a scan that is currently draining shard `j`.
//! Because every key lives in exactly one shard, the per-shard exactly-once
//! guarantee (a key is observed in the frozen tier xor the delta, never both,
//! never neither) composes directly to the stitched scan. The coordinator
//! folds one shard at a time, which keeps the remaining shards' read paths
//! completely undisturbed: a fold is shard-local, so at most `1 / shard_count`
//! of the key space is mid-fold on its account at any instant (explicit
//! [`TieredSkipTrie::merge`] calls on other shards may overlap it).

use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use skiptrie_atomics::wake::WakeGate;

use crate::forest::{ShardedSkipTrie, ShardedSkipTrieConfig};
use crate::tiered::TieredSkipTrie;

/// A sharded forest of tiered (frozen + delta) engines with one background
/// merge coordinator.
///
/// Dereferences to [`ShardedSkipTrie<V, TieredSkipTrie<V>>`], so the whole
/// router surface (point ops, predecessor/successor, stitched `range`,
/// two-ended pops, and [`OrderedKv`](crate::OrderedKv)'s batches) is available
/// directly:
///
/// ```
/// use skiptrie::{ShardedSkipTrieConfig, TieredForest};
///
/// let config = ShardedSkipTrieConfig::for_universe_bits(16)
///     .with_shards(4)
///     .with_merge_watermark(64);
/// let forest = TieredForest::new(config);
/// forest.insert(7, "seven");
/// assert_eq!(forest.predecessor(100), Some((7, "seven")));
/// ```
///
/// Writers never fold: crossing the watermark only latches a flag and wakes
/// the coordinator, so the writer-path cost is one counter bump.
/// Dropping the forest stops and joins the coordinator.
pub struct TieredForest<V: Clone + Send + Sync + 'static> {
    forest: Arc<ShardedSkipTrie<V, TieredSkipTrie<V>>>,
    /// What the coordinator sleeps on: shards wake it after latching
    /// `merge_due`, `Drop` after raising `stop`.
    gate: Arc<WakeGate>,
    stop: Arc<AtomicBool>,
    coordinator: Option<JoinHandle<()>>,
}

impl<V: Clone + Send + Sync + 'static> TieredForest<V> {
    /// Builds an empty tiered forest and spawns its merge coordinator.
    ///
    /// `config.merge_watermark` governs when shards become due; without it
    /// the coordinator never folds and folding is up to [`Self::merge_all`] /
    /// [`Self::quiesce`] callers.
    pub fn new(config: ShardedSkipTrieConfig) -> Self {
        Self::from_forest(ShardedSkipTrie::new(config))
    }

    /// Builds a tiered forest whose frozen tiers are bulk-loaded from a
    /// strictly increasing sorted slice, then spawns the coordinator.
    ///
    /// This is the preferred way to seed a large read-mostly forest: every
    /// key starts in its shard's frozen array and the deltas start empty.
    pub fn from_sorted(config: ShardedSkipTrieConfig, entries: &[(u64, V)]) -> Self {
        Self::from_forest(ShardedSkipTrie::from_sorted(config, entries))
    }

    /// Wraps a fully built forest: attaches the gate to every shard, then
    /// spawns the coordinator. A watermark crossed before the coordinator
    /// first sleeps is not lost — it checks every latch before it ever parks.
    fn from_forest(forest: ShardedSkipTrie<V, TieredSkipTrie<V>>) -> Self {
        let forest = Arc::new(forest);
        let gate = Arc::new(WakeGate::default());
        let stop = Arc::new(AtomicBool::new(false));
        for i in 0..forest.shard_count() {
            forest.shard(i).attach_coordinator(Arc::clone(&gate));
        }
        let (shards, sleep, stopped) = (Arc::clone(&forest), Arc::clone(&gate), Arc::clone(&stop));
        let handle = std::thread::Builder::new()
            .name("tiered-forest-coordinator".into())
            .spawn(move || loop {
                sleep.sleep_until(|| {
                    stopped.load(Ordering::SeqCst)
                        || (0..shards.shard_count()).any(|i| shards.shard(i).fold_ready())
                });
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                for i in 0..shards.shard_count() {
                    let shard = shards.shard(i);
                    if shard.fold_ready() {
                        shard.merge();
                    }
                }
            })
            .expect("spawn tiered-forest coordinator");
        Self {
            forest,
            gate,
            stop,
            coordinator: Some(handle),
        }
    }

    /// Shared handle to the underlying router, for workloads that need an
    /// owned `Arc` (e.g. spawning reader threads).
    pub fn router(&self) -> Arc<ShardedSkipTrie<V, TieredSkipTrie<V>>> {
        Arc::clone(&self.forest)
    }

    /// Synchronously folds every shard's delta into its frozen tier,
    /// regardless of watermarks. Returns the number of shards that actually
    /// had a delta to fold.
    pub fn merge_all(&self) -> usize {
        (0..self.forest.shard_count())
            .filter(|&i| self.forest.shard(i).merge())
            .count()
    }

    /// Blocks until every shard's delta is empty and no shard is mid-fold,
    /// folding on the caller's thread as needed. After this returns (and
    /// before the next write), every point read is a pure frozen-tier hit.
    pub fn quiesce(&self) {
        for i in 0..self.forest.shard_count() {
            let shard = self.forest.shard(i);
            while shard.delta_len() > 0 || shard.mid_merge() {
                shard.merge();
                std::thread::yield_now();
            }
        }
    }

    /// True when every shard's delta is empty and no fold is in flight —
    /// i.e. the state [`Self::quiesce`] establishes.
    pub fn is_quiesced(&self) -> bool {
        (0..self.forest.shard_count()).all(|i| {
            let shard = self.forest.shard(i);
            shard.delta_len() == 0 && !shard.mid_merge()
        })
    }

    /// Sum of per-shard frozen-tier lengths.
    pub fn frozen_len(&self) -> usize {
        (0..self.forest.shard_count())
            .map(|i| self.forest.shard(i).frozen_len())
            .sum()
    }

    /// Sum of per-shard live-delta lengths (inserts + tombstones).
    pub fn delta_len(&self) -> usize {
        (0..self.forest.shard_count())
            .map(|i| self.forest.shard(i).delta_len())
            .sum()
    }
}

impl<V: Clone + Send + Sync + 'static> Deref for TieredForest<V> {
    type Target = ShardedSkipTrie<V, TieredSkipTrie<V>>;

    fn deref(&self) -> &Self::Target {
        &self.forest
    }
}

impl<V: Clone + Send + Sync + 'static> Drop for TieredForest<V> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.gate.wake();
        if let Some(handle) = self.coordinator.take() {
            let _ = handle.join();
        }
    }
}

impl<V: Clone + Send + Sync + 'static> std::fmt::Debug for TieredForest<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredForest")
            .field("shards", &self.forest.shard_count())
            .field("len", &self.forest.len())
            .field("frozen_len", &self.frozen_len())
            .field("delta_len", &self.delta_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ShardedSkipTrieConfig {
        ShardedSkipTrieConfig::for_universe_bits(16).with_shards(4)
    }

    #[test]
    fn point_ops_round_trip_through_the_tiered_router() {
        let forest: TieredForest<u64> = TieredForest::new(config());
        for k in 0..200u64 {
            assert!(forest.insert(k * 7 % 65_536, k));
        }
        assert_eq!(forest.len(), 200);
        assert_eq!(forest.get(7), Some(1));
        assert_eq!(forest.remove(7), Some(1));
        assert_eq!(forest.get(7), None);
        assert_eq!(forest.len(), 199);
    }

    #[test]
    fn from_sorted_seeds_every_frozen_tier_and_quiesces() {
        let entries: Vec<(u64, u64)> = (0..512u64).map(|k| (k * 13 % 65_536, k)).collect();
        let mut sorted = entries.clone();
        sorted.sort_unstable();
        let forest = TieredForest::from_sorted(config(), &sorted);
        assert!(forest.is_quiesced());
        assert_eq!(forest.frozen_len(), sorted.len());
        assert_eq!(forest.delta_len(), 0);
        for &(k, v) in &sorted {
            assert_eq!(forest.get(k), Some(v));
        }
    }

    #[test]
    fn coordinator_folds_from_the_watermark_with_no_timer() {
        let forest: TieredForest<u64> =
            TieredForest::new(config().with_merge_watermark(16).with_shards(2));
        // Drive one shard past its watermark; the coordinator (no timer
        // configured anywhere) must fold it on its own.
        for k in 0..64u64 {
            forest.insert(k, k);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while forest.delta_len() > 16 {
            assert!(
                std::time::Instant::now() < deadline,
                "coordinator never folded: delta_len={} frozen_len={}",
                forest.delta_len(),
                forest.frozen_len()
            );
            std::thread::yield_now();
        }
        forest.quiesce();
        assert_eq!(forest.frozen_len(), 64);
        for k in 0..64u64 {
            assert_eq!(forest.get(k), Some(k));
        }
    }

    #[test]
    fn merge_all_and_stitched_range_compose() {
        let forest: TieredForest<u64> = TieredForest::new(config());
        for k in 0..300u64 {
            forest.insert(k * 11 % 65_536, k);
        }
        forest.merge_all();
        forest.quiesce();
        let scanned: Vec<u64> = forest.range(..).map(|(k, _)| k).collect();
        assert_eq!(scanned.len(), forest.len());
        assert!(scanned.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn drop_joins_the_coordinator() {
        let forest: TieredForest<u64> = TieredForest::new(config().with_merge_watermark(4));
        for k in 0..32u64 {
            forest.insert(k, k);
        }
        drop(forest); // must not hang or panic
    }
}
