//! The `Θ(log m)`-depth lock-free skiplist baseline.

use skiptrie_skiplist::{OrderedKv, RangeIter, SkipList, SkipListConfig};

/// A conventional full-height lock-free skiplist (depth `Θ(log m)`).
///
/// This is the same code as the SkipTrie's truncated substrate, configured with 24
/// levels and searched from the head sentinel — i.e. exactly the class of concurrent
/// predecessor structure (à la Lea/Fomitchev-Ruppert) the paper's introduction says
/// all prior work provides. Comparing it against the SkipTrie isolates the benefit of
/// the x-fast-trie front end: `Θ(log m)` versus `O(log log u)` search depth.
///
/// # Examples
///
/// ```
/// use skiptrie_baselines::FullSkipList;
///
/// let list: FullSkipList<u32> = FullSkipList::new();
/// list.insert(10, 1);
/// list.insert(30, 3);
/// assert_eq!(list.predecessor(29), Some((10, 1)));
/// ```
pub struct FullSkipList<V> {
    inner: SkipList<V>,
}

impl<V> Default for FullSkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FullSkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty full-height skiplist.
    pub fn new() -> Self {
        FullSkipList {
            inner: SkipList::new(SkipListConfig::full_height()),
        }
    }

    /// Creates an empty skiplist with a custom number of levels.
    pub fn with_levels(levels: u8) -> Self {
        FullSkipList {
            inner: SkipList::new(SkipListConfig {
                levels,
                ..SkipListConfig::full_height()
            }),
        }
    }

    /// Inserts `key -> value`; returns `true` if the key was absent.
    pub fn insert(&self, key: u64, value: V) -> bool {
        self.inner.insert(key, value)
    }

    /// Removes `key`, returning its value if this call removed it.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.inner.remove(key)
    }

    /// Returns a clone of the value stored under `key`.
    pub fn get(&self, key: u64) -> Option<V> {
        self.inner.get(key)
    }

    /// True if `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.inner.contains(key)
    }

    /// The largest key `<= key` and its value.
    pub fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        self.inner.predecessor(key)
    }

    /// The smallest key `>= key` and its value.
    pub fn successor(&self, key: u64) -> Option<(u64, V)> {
        self.inner.successor(key)
    }

    /// Number of keys stored (quiescently accurate).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// A weakly-consistent ordered iterator over the entries whose keys lie in
    /// `range` (the cursor machinery of the underlying skiplist; see
    /// [`skiptrie_skiplist::SkipList::range`]). The seek costs `Θ(log m)` here —
    /// a full-height descent — versus the SkipTrie's `O(log log u)`.
    pub fn range(&self, range: impl std::ops::RangeBounds<u64>) -> RangeIter<'_, V> {
        self.inner.range(range)
    }

    /// Removes and returns the entry with the smallest key.
    pub fn pop_first(&self) -> Option<(u64, V)> {
        self.inner.pop_first()
    }

    /// Removes and returns the entry with the largest key.
    pub fn pop_last(&self) -> Option<(u64, V)> {
        self.inner.pop_last()
    }

    /// Snapshot of the contents in key order.
    pub fn to_vec(&self) -> Vec<(u64, V)> {
        self.inner.to_vec()
    }

    /// The underlying skiplist (for structural statistics).
    pub fn as_skiplist(&self) -> &SkipList<V> {
        &self.inner
    }
}

impl<V> OrderedKv<V> for FullSkipList<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn get(&self, key: u64) -> Option<V> {
        self.inner.get(key)
    }
    fn insert(&self, key: u64, value: V) -> bool {
        self.inner.insert(key, value)
    }
    fn remove(&self, key: u64) -> Option<V> {
        self.inner.remove(key)
    }
    fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        self.inner.predecessor(key)
    }
    fn successor(&self, key: u64) -> Option<(u64, V)> {
        self.inner.successor(key)
    }
    fn scan(&self, from: u64, limit: usize) -> usize {
        self.inner.range(from..).count_up_to(limit)
    }
    fn pop_first(&self) -> Option<(u64, V)> {
        self.inner.pop_first()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn contains(&self, key: u64) -> bool {
        self.inner.contains(key)
    }
    fn pop_last(&self) -> Option<(u64, V)> {
        self.inner.pop_last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_an_ordered_map() {
        let list: FullSkipList<u64> = FullSkipList::new();
        for k in (0..500u64).rev() {
            assert!(list.insert(k, k * 2));
        }
        assert_eq!(list.len(), 500);
        assert_eq!(list.predecessor(250), Some((250, 500)));
        assert_eq!(list.successor(499), Some((499, 998)));
        assert_eq!(list.remove(250), Some(500));
        assert_eq!(list.predecessor(250), Some((249, 498)));
        assert!(!list.contains(250));
    }

    #[test]
    fn custom_level_count() {
        let list: FullSkipList<u8> = FullSkipList::with_levels(8);
        for k in 0..100 {
            list.insert(k, 0);
        }
        assert_eq!(list.as_skiplist().levels(), 8);
        assert_eq!(list.len(), 100);
    }

    #[test]
    fn range_and_pops_match_contents() {
        let list: FullSkipList<u64> = FullSkipList::new();
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
    fn concurrent_inserts() {
        use std::sync::Arc;
        let list: Arc<FullSkipList<u64>> = Arc::new(FullSkipList::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        list.insert(t * 2_000 + i, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(list.len(), 8_000);
        assert_eq!(list.predecessor(8_000), Some((7_999, 1_999)));
    }
}
