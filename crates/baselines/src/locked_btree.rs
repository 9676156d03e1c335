//! A coarse-grained locked `BTreeMap` baseline.

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use skiptrie_skiplist::OrderedKv;

/// The conventional "just put a lock around `std::collections::BTreeMap`" ordered map.
///
/// Depth is `Θ(log m)` and every operation serializes on a single reader-writer lock,
/// which is exactly the kind of structure whose scaling the SkipTrie paper sets out to
/// beat. Used as a baseline in experiments `e1` and `sweep`.
///
/// # Examples
///
/// ```
/// use skiptrie_baselines::LockedBTreeMap;
///
/// let map = LockedBTreeMap::new();
/// map.insert(5, "five");
/// assert_eq!(map.predecessor(7), Some((5, "five")));
/// ```
#[derive(Debug, Default)]
pub struct LockedBTreeMap<V> {
    inner: RwLock<BTreeMap<u64, V>>,
}

impl<V: Clone> LockedBTreeMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        LockedBTreeMap {
            inner: RwLock::new(BTreeMap::new()),
        }
    }

    /// Poisoning is ignored: every update leaves the map valid at every step, so
    /// a panicking holder cannot leave it half-written.
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<u64, V>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<u64, V>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Inserts `key -> value`; returns `true` if the key was absent.
    pub fn insert(&self, key: u64, value: V) -> bool {
        let mut map = self.write();
        if let std::collections::btree_map::Entry::Vacant(e) = map.entry(key) {
            e.insert(value);
            true
        } else {
            false
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.write().remove(&key)
    }

    /// Returns a clone of the value stored under `key`.
    pub fn get(&self, key: u64) -> Option<V> {
        self.read().get(&key).cloned()
    }

    /// True if `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.read().contains_key(&key)
    }

    /// The largest key `<= key` and its value.
    pub fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        self.read()
            .range(..=key)
            .next_back()
            .map(|(k, v)| (*k, v.clone()))
    }

    /// The smallest key `>= key` and its value.
    pub fn successor(&self, key: u64) -> Option<(u64, V)> {
        self.read()
            .range(key..)
            .next()
            .map(|(k, v)| (*k, v.clone()))
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries whose keys lie in `range`, cloned under one read-lock hold.
    ///
    /// Unlike the SkipTrie's weakly-consistent scan this is a true snapshot — and
    /// that is exactly its cost: every concurrent writer blocks for the duration of
    /// the clone-out (the `sweep` experiment's scan-heavy rows show the effect).
    pub fn range(&self, range: impl std::ops::RangeBounds<u64>) -> Vec<(u64, V)> {
        self.read()
            .range(range)
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Number of keys in `range`, counted under the read lock.
    pub fn count_range(&self, range: impl std::ops::RangeBounds<u64>) -> usize {
        self.read().range(range).count()
    }

    /// Visits up to `limit` entries with keys `>= from` under the read lock,
    /// returning the number visited (no values are cloned).
    pub fn scan(&self, from: u64, limit: usize) -> usize {
        self.read().range(from..).take(limit).count()
    }

    /// Inserts every `key -> value` pair under **one** write-lock hold, returning
    /// how many keys were newly inserted (the locked structure's natural batching
    /// advantage: one lock acquisition amortized over the whole batch — the fair
    /// baseline for batched-throughput comparisons).
    pub fn insert_batch(&self, entries: &[(u64, V)]) -> usize {
        let mut map = self.write();
        let mut inserted = 0usize;
        for (key, value) in entries {
            if let std::collections::btree_map::Entry::Vacant(e) = map.entry(*key) {
                e.insert(value.clone());
                inserted += 1;
            }
        }
        inserted
    }

    /// Removes every key under one write-lock hold, returning how many were present.
    pub fn remove_batch(&self, keys: &[u64]) -> usize {
        let mut map = self.write();
        keys.iter().filter(|k| map.remove(k).is_some()).count()
    }

    /// Looks up every key under one read-lock hold, returning the values in input
    /// order (`None` for absent keys).
    pub fn get_batch(&self, keys: &[u64]) -> Vec<Option<V>> {
        let map = self.read();
        keys.iter().map(|k| map.get(k).cloned()).collect()
    }

    /// Removes and returns the entry with the smallest key.
    pub fn pop_first(&self) -> Option<(u64, V)> {
        self.write().pop_first()
    }

    /// Removes and returns the entry with the largest key.
    pub fn pop_last(&self) -> Option<(u64, V)> {
        self.write().pop_last()
    }

    /// Snapshot of the contents in key order.
    pub fn to_vec(&self) -> Vec<(u64, V)> {
        self.read().iter().map(|(k, v)| (*k, v.clone())).collect()
    }
}

impl<V: Clone + Send + Sync> OrderedKv<V> for LockedBTreeMap<V> {
    fn get(&self, key: u64) -> Option<V> {
        LockedBTreeMap::get(self, key)
    }
    fn insert(&self, key: u64, value: V) -> bool {
        LockedBTreeMap::insert(self, key, value)
    }
    fn remove(&self, key: u64) -> Option<V> {
        LockedBTreeMap::remove(self, key)
    }
    fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        LockedBTreeMap::predecessor(self, key)
    }
    fn successor(&self, key: u64) -> Option<(u64, V)> {
        LockedBTreeMap::successor(self, key)
    }
    fn scan(&self, from: u64, limit: usize) -> usize {
        LockedBTreeMap::scan(self, from, limit)
    }
    fn pop_first(&self) -> Option<(u64, V)> {
        LockedBTreeMap::pop_first(self)
    }
    fn len(&self) -> usize {
        LockedBTreeMap::len(self)
    }
    fn contains(&self, key: u64) -> bool {
        LockedBTreeMap::contains(self, key)
    }
    fn pop_last(&self) -> Option<(u64, V)> {
        LockedBTreeMap::pop_last(self)
    }
    // One lock hold per batch, not one per key.
    fn insert_batch(&self, entries: &[(u64, V)]) -> usize {
        LockedBTreeMap::insert_batch(self, entries)
    }
    fn remove_batch(&self, keys: &[u64]) -> usize {
        LockedBTreeMap::remove_batch(self, keys)
    }
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<V>> {
        LockedBTreeMap::get_batch(self, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_map_semantics() {
        let map = LockedBTreeMap::new();
        assert!(map.is_empty());
        assert!(map.insert(3, 30));
        assert!(!map.insert(3, 31));
        assert!(map.insert(7, 70));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(3), Some(30));
        assert_eq!(map.predecessor(6), Some((3, 30)));
        assert_eq!(map.predecessor(2), None);
        assert_eq!(map.successor(4), Some((7, 70)));
        assert_eq!(map.remove(3), Some(30));
        assert_eq!(map.remove(3), None);
        assert_eq!(map.to_vec(), vec![(7, 70)]);
    }

    #[test]
    fn range_and_pops_match_contents() {
        let map = LockedBTreeMap::new();
        for k in [5u64, 1, 9, 3, 7] {
            map.insert(k, k * 2);
        }
        assert_eq!(map.range(3..=7), vec![(3, 6), (5, 10), (7, 14)]);
        assert_eq!(map.count_range(..), 5);
        assert_eq!(map.pop_first(), Some((1, 2)));
        assert_eq!(map.pop_last(), Some((9, 18)));
        assert_eq!(map.count_range(..), 3);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let map = Arc::new(LockedBTreeMap::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        map.insert(t * 1_000 + i, i);
                        map.predecessor(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.len(), 4_000);
    }
}
