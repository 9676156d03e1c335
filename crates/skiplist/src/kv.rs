//! [`OrderedKv`]: the one place the workspace declares the verbs of a concurrent
//! ordered map over `u64` keys.
//!
//! Every structure the experiments compare implements it — this crate's
//! [`SkipList`], the SkipTrie and its tiered and sharded forms, the baselines —
//! and the sharded router is generic over it (through `ShardEngine`, which adds
//! only what a *shard* needs beyond these verbs). It lives here because this is
//! the lowest crate that owns an implementor.

use crate::SkipList;

/// A concurrent ordered map from `u64` keys to `V`.
///
/// The eight required methods are the kernel; everything else is derived from
/// them, and an implementor overrides a provided method only where it has a
/// native form that is cheaper than (and observably equal to) the derivation.
/// Keys must fit the implementor's universe; implementors panic on keys they
/// cannot represent, exactly as their inherent methods do.
///
/// The trait is object-safe: benches and tests drive `&dyn OrderedKv<u64>`.
pub trait OrderedKv<V: Clone>: Send + Sync {
    /// A clone of the value stored under `key`.
    fn get(&self, key: u64) -> Option<V>;
    /// Inserts `key -> value` if absent; `true` if this call inserted.
    fn insert(&self, key: u64, value: V) -> bool;
    /// Removes `key`, returning its value if this call removed it.
    fn remove(&self, key: u64) -> Option<V>;
    /// The largest key `<= key`, with its value.
    fn predecessor(&self, key: u64) -> Option<(u64, V)>;
    /// The smallest key `>= key`, with its value.
    fn successor(&self, key: u64) -> Option<(u64, V)>;
    /// Visits up to `limit` entries with keys `>= from` in increasing key order
    /// without cloning values, returning how many were visited.
    fn scan(&self, from: u64, limit: usize) -> usize;
    /// Removes and returns the entry with the smallest key.
    fn pop_first(&self) -> Option<(u64, V)>;
    /// Number of keys stored (may be a racy counter under concurrent writers).
    fn len(&self) -> usize;

    /// True if `key` is present.
    fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }
    /// True if no keys are stored (same caveat as [`OrderedKv::len`]).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Removes and returns the entry with the largest key: probe with
    /// [`OrderedKv::predecessor`], remove, retry on a lost race. The probe is
    /// `u64::MAX`, so an implementor over a narrower universe must override this.
    fn pop_last(&self) -> Option<(u64, V)> {
        loop {
            let (key, _) = self.predecessor(u64::MAX)?;
            if let Some(value) = self.remove(key) {
                return Some((key, value));
            }
        }
    }
    /// Inserts every entry, returning how many this call inserted.
    ///
    /// A batch is its keys in order, run as point operations: the entries are
    /// stably sorted by key and each goes through [`OrderedKv::insert`] on its
    /// own, so nothing a call holds (an epoch pin, a loaded tiers triple) spans
    /// the batch, and reclamation keeps pace with it. Sorting is where a batch's gain comes from
    /// (neighbouring keys share cached nodes). The one exception to key order
    /// is the largest key, whose first entry runs first: an unrepresentable key
    /// then panics before anything is written, because the largest key is out
    /// of range whenever any key is. Equal keys keep their slice order, and
    /// operations on different keys commute, so the outcome equals applying
    /// the entries one at a time in slice order. The batch is not atomic: each
    /// operation linearizes on its own, and a concurrent reader may see any
    /// subset of it.
    ///
    /// # Examples
    ///
    /// ```
    /// use skiptrie_skiplist::{OrderedKv, SkipList, SkipListConfig};
    ///
    /// let list: SkipList<u64> = SkipList::new(SkipListConfig::full_height());
    /// assert_eq!(list.insert_batch(&[(3, 30), (1, 10), (3, 99)]), 2);
    /// assert_eq!(list.get(3), Some(30), "the first of equal keys wins");
    /// assert_eq!(list.get_batch(&[3, 2, 1]), [Some(30), None, Some(10)]);
    /// ```
    fn insert_batch(&self, entries: &[(u64, V)]) -> usize {
        batch_order(entries.len(), |i| entries[i].0)
            .filter(|&i| self.insert(entries[i].0, entries[i].1.clone()))
            .count()
    }
    /// Removes every key, returning how many this call removed. Runs as
    /// [`OrderedKv::insert_batch`] does: in key order, one point call per key.
    fn remove_batch(&self, keys: &[u64]) -> usize {
        batch_order(keys.len(), |i| keys[i])
            .filter(|&i| self.remove(keys[i]).is_some())
            .count()
    }
    /// Looks up every key, returning the values in input order (`None` for an
    /// absent key). Runs as [`OrderedKv::insert_batch`] does: in key order,
    /// one point call per key.
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<V>> {
        let mut out = vec![None; keys.len()];
        for i in batch_order(keys.len(), |i| keys[i]) {
            out[i] = self.get(keys[i]);
        }
        out
    }
}

/// The order a batch runs in (see [`OrderedKv::insert_batch`]): the indices
/// `0..n` stably sorted by key, except that the first entry of the largest key
/// runs first.
fn batch_order(n: usize, key: impl Fn(usize) -> u64) -> impl Iterator<Item = usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| key(i));
    if let Some(&last) = order.last() {
        let first_of_largest = order.partition_point(|&i| key(i) < key(last));
        order[..=first_of_largest].rotate_right(1);
    }
    order.into_iter()
}

impl<V> OrderedKv<V> for SkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn get(&self, key: u64) -> Option<V> {
        SkipList::get(self, key)
    }
    fn insert(&self, key: u64, value: V) -> bool {
        SkipList::insert(self, key, value)
    }
    fn remove(&self, key: u64) -> Option<V> {
        SkipList::remove(self, key)
    }
    fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        SkipList::predecessor(self, key)
    }
    fn successor(&self, key: u64) -> Option<(u64, V)> {
        SkipList::successor(self, key)
    }
    fn scan(&self, from: u64, limit: usize) -> usize {
        SkipList::range(self, from..).count_up_to(limit)
    }
    fn pop_first(&self) -> Option<(u64, V)> {
        SkipList::pop_first(self)
    }
    fn len(&self) -> usize {
        SkipList::len(self)
    }
    fn contains(&self, key: u64) -> bool {
        SkipList::contains(self, key)
    }
    fn pop_last(&self) -> Option<(u64, V)> {
        SkipList::pop_last(self)
    }
}
