//! A sequential x-fast trie (Willard 1983), as described in the paper's introduction.
//!
//! A hash table stores every prefix of every key together with the minimum and maximum
//! key of that prefix's subtree; the keys themselves form a doubly-linked list.
//! Predecessor queries binary-search the prefix length (`O(log log u)` hash probes);
//! insertions and deletions touch every prefix of the key (`O(log u)`).
//!
//! This is the structure the SkipTrie makes concurrent; it is used here as a
//! single-threaded complexity reference and as a correctness oracle in tests.

use std::collections::HashMap;

/// Min/max key of a prefix's subtree.
#[derive(Debug, Clone, Copy)]
struct Desc {
    min: u64,
    max: u64,
}

#[derive(Debug, Clone)]
struct Leaf<V> {
    value: V,
    prev: Option<u64>,
    next: Option<u64>,
}

/// A sequential x-fast trie over `universe_bits`-bit keys.
///
/// # Examples
///
/// ```
/// use skiptrie_baselines::SeqXFastTrie;
///
/// let mut trie = SeqXFastTrie::new(16);
/// trie.insert(100, "a");
/// trie.insert(200, "b");
/// assert_eq!(trie.predecessor(150), Some((100, "a")));
/// assert_eq!(trie.successor(150), Some((200, "b")));
/// ```
#[derive(Debug, Clone)]
pub struct SeqXFastTrie<V> {
    universe_bits: u32,
    /// Maps `(prefix_len, prefix_bits)` to the min/max key of that subtree. The empty
    /// prefix (len 0) is present whenever the set is non-empty.
    prefixes: HashMap<(u8, u64), Desc>,
    /// The bottom doubly-linked list of keys.
    leaves: HashMap<u64, Leaf<V>>,
}

impl<V: Clone> SeqXFastTrie<V> {
    /// Creates an empty trie over a `universe_bits`-bit universe.
    ///
    /// # Panics
    ///
    /// Panics if `universe_bits` is not in `1..=64`.
    pub fn new(universe_bits: u32) -> Self {
        assert!((1..=64).contains(&universe_bits));
        SeqXFastTrie {
            universe_bits,
            prefixes: HashMap::new(),
            leaves: HashMap::new(),
        }
    }

    /// The largest representable key.
    pub fn max_key(&self) -> u64 {
        if self.universe_bits >= 64 {
            u64::MAX
        } else {
            (1 << self.universe_bits) - 1
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True if the trie is empty.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Total number of prefix-table entries (for the space experiment E5).
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
    }

    fn prefix_bits(&self, key: u64, len: u8) -> u64 {
        if len == 0 {
            0
        } else {
            key >> (self.universe_bits - len as u32)
        }
    }

    fn check_key(&self, key: u64) {
        assert!(
            key <= self.max_key(),
            "key {key} exceeds the configured universe of {} bits",
            self.universe_bits
        );
    }

    /// True if `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.leaves.contains_key(&key)
    }

    /// Returns a clone of the value stored under `key`.
    pub fn get(&self, key: u64) -> Option<V> {
        self.leaves.get(&key).map(|l| l.value.clone())
    }

    /// Inserts `key -> value`; returns `true` if the key was absent.
    ///
    /// # Panics
    ///
    /// Panics if the key does not fit in the universe.
    pub fn insert(&mut self, key: u64, value: V) -> bool {
        self.check_key(key);
        if self.leaves.contains_key(&key) {
            return false;
        }
        // Splice into the doubly-linked leaf list.
        let pred = self.predecessor_key(key);
        let succ = match pred {
            Some(p) => self.leaves.get(&p).and_then(|l| l.next),
            None => self.min_key(),
        };
        self.leaves.insert(
            key,
            Leaf {
                value,
                prev: pred,
                next: succ,
            },
        );
        if let Some(p) = pred {
            self.leaves.get_mut(&p).expect("pred exists").next = Some(key);
        }
        if let Some(s) = succ {
            self.leaves.get_mut(&s).expect("succ exists").prev = Some(key);
        }
        // Update every prefix's min/max (O(log u) work — the cost the y-fast trie and
        // the SkipTrie amortize away).
        for len in 0..self.universe_bits as u8 {
            let bits = self.prefix_bits(key, len);
            self.prefixes
                .entry((len, bits))
                .and_modify(|d| {
                    d.min = d.min.min(key);
                    d.max = d.max.max(key);
                })
                .or_insert(Desc { min: key, max: key });
        }
        true
    }

    /// Removes `key`, returning its value.
    ///
    /// # Panics
    ///
    /// Panics if the key does not fit in the universe.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        self.check_key(key);
        let leaf = self.leaves.remove(&key)?;
        if let Some(p) = leaf.prev {
            self.leaves.get_mut(&p).expect("prev exists").next = leaf.next;
        }
        if let Some(s) = leaf.next {
            self.leaves.get_mut(&s).expect("next exists").prev = leaf.prev;
        }
        for len in 0..self.universe_bits as u8 {
            let bits = self.prefix_bits(key, len);
            let entry = self.prefixes.get_mut(&(len, bits)).expect("prefix present");
            if entry.min == key && entry.max == key {
                self.prefixes.remove(&(len, bits));
                continue;
            }
            if entry.min == key {
                // The subtree's keys are contiguous in the list: the next leaf that
                // still shares this prefix is the new minimum.
                let next = leaf.next.expect("subtree still has larger keys");
                entry.min = next;
            }
            if entry.max == key {
                let prev = leaf.prev.expect("subtree still has smaller keys");
                entry.max = prev;
            }
        }
        Some(leaf.value)
    }

    fn min_key(&self) -> Option<u64> {
        self.prefixes.get(&(0, 0)).map(|d| d.min)
    }

    /// The key of the largest element `<= key`, using the textbook binary search on
    /// prefix lengths.
    fn predecessor_key(&self, key: u64) -> Option<u64> {
        if self.leaves.contains_key(&key) {
            return Some(key);
        }
        let root = self.prefixes.get(&(0, 0))?;
        if key < root.min {
            return None;
        }
        if key > root.max {
            return Some(root.max);
        }
        // Binary search for the longest present prefix of `key`.
        let b = self.universe_bits;
        let (mut lo, mut hi) = (0u32, b - 1); // lengths with presence known / unknown
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let bits = self.prefix_bits(key, mid as u8);
            if self.prefixes.contains_key(&(mid as u8, bits)) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let len = lo;
        let direction = (key >> (b - 1 - len)) & 1;
        let child_len = len + 1;
        let child_bits = |d: u64| (self.prefix_bits(key, len as u8) << 1) | d;
        if direction == 1 {
            // Key descends right but the right subtree is empty below this point: the
            // predecessor is the maximum of the left sibling subtree.
            if child_len == b {
                let leaf_key = child_bits(0);
                if self.leaves.contains_key(&leaf_key) {
                    return Some(leaf_key);
                }
            } else if let Some(d) = self.prefixes.get(&(child_len as u8, child_bits(0))) {
                return Some(d.max);
            }
            // Left sibling empty too: fall back to the subtree's own minimum's prev.
            let subtree = self
                .prefixes
                .get(&(len as u8, self.prefix_bits(key, len as u8)))?;
            self.leaves.get(&subtree.min).and_then(|l| l.prev)
        } else {
            // Key descends left but the left subtree is empty: the successor is the
            // minimum of the right sibling subtree; the predecessor is its `prev`.
            let succ = if child_len == b {
                let leaf_key = child_bits(1);
                self.leaves.contains_key(&leaf_key).then_some(leaf_key)
            } else {
                self.prefixes
                    .get(&(child_len as u8, child_bits(1)))
                    .map(|d| d.min)
            };
            match succ {
                Some(s) => self.leaves.get(&s).and_then(|l| l.prev),
                None => {
                    let subtree = self
                        .prefixes
                        .get(&(len as u8, self.prefix_bits(key, len as u8)))?;
                    self.leaves.get(&subtree.min).and_then(|l| l.prev)
                }
            }
        }
    }

    /// The largest key `<= key` and its value.
    pub fn predecessor(&self, key: u64) -> Option<(u64, V)> {
        self.check_key(key);
        let k = self.predecessor_key(key)?;
        Some((k, self.leaves.get(&k).expect("leaf exists").value.clone()))
    }

    /// The smallest key `>= key` and its value.
    pub fn successor(&self, key: u64) -> Option<(u64, V)> {
        self.check_key(key);
        if let Some(leaf) = self.leaves.get(&key) {
            return Some((key, leaf.value.clone()));
        }
        match self.predecessor_key(key) {
            Some(p) => {
                let next = self.leaves.get(&p).expect("leaf exists").next?;
                Some((
                    next,
                    self.leaves.get(&next).expect("leaf exists").value.clone(),
                ))
            }
            None => {
                let min = self.min_key()?;
                Some((
                    min,
                    self.leaves.get(&min).expect("leaf exists").value.clone(),
                ))
            }
        }
    }

    /// Snapshot of the contents in key order.
    pub fn to_vec(&self) -> Vec<(u64, V)> {
        let mut out = Vec::with_capacity(self.leaves.len());
        let mut cursor = self.min_key();
        while let Some(k) = cursor {
            let leaf = self.leaves.get(&k).expect("linked leaf exists");
            out.push((k, leaf.value.clone()));
            cursor = leaf.next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_trie_queries() {
        let trie: SeqXFastTrie<u64> = SeqXFastTrie::new(16);
        assert!(trie.is_empty());
        assert_eq!(trie.predecessor(100), None);
        assert_eq!(trie.successor(100), None);
        assert_eq!(trie.get(0), None);
        assert_eq!(trie.prefix_count(), 0);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut trie = SeqXFastTrie::new(8);
        assert!(trie.insert(5, 50));
        assert!(!trie.insert(5, 51));
        assert!(trie.insert(200, 2000));
        assert_eq!(trie.len(), 2);
        assert_eq!(trie.get(5), Some(50));
        assert_eq!(trie.predecessor(199), Some((5, 50)));
        assert_eq!(trie.successor(6), Some((200, 2000)));
        assert_eq!(trie.remove(5), Some(50));
        assert_eq!(trie.remove(5), None);
        assert_eq!(trie.predecessor(199), None);
        assert_eq!(trie.to_vec(), vec![(200, 2000)]);
    }

    #[test]
    fn matches_btreemap_model_randomized() {
        let mut trie = SeqXFastTrie::new(12);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = 0xabcdefu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..8_000 {
            let key = next() % (1 << 12);
            match next() % 4 {
                0 | 1 => {
                    let fresh = !model.contains_key(&key);
                    if fresh {
                        model.insert(key, key + 1);
                    }
                    assert_eq!(trie.insert(key, key + 1), fresh);
                }
                2 => {
                    assert_eq!(trie.remove(key), model.remove(&key));
                }
                _ => {
                    let pred = model.range(..=key).next_back().map(|(k, v)| (*k, *v));
                    assert_eq!(trie.predecessor(key), pred, "pred of {key}");
                    let succ = model.range(key..).next().map(|(k, v)| (*k, *v));
                    assert_eq!(trie.successor(key), succ, "succ of {key}");
                }
            }
        }
        let expected: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(trie.to_vec(), expected);
    }

    #[test]
    fn prefix_count_is_bounded_by_keys_times_bits() {
        let mut trie = SeqXFastTrie::new(16);
        for k in 0..1_000u64 {
            trie.insert(k, k);
        }
        assert!(trie.prefix_count() <= 1_000 * 16);
        assert!(trie.prefix_count() >= 16, "at least one chain of prefixes");
    }

    #[test]
    fn boundary_keys() {
        let mut trie = SeqXFastTrie::new(8);
        trie.insert(0, 1);
        trie.insert(255, 2);
        assert_eq!(trie.predecessor(0), Some((0, 1)));
        assert_eq!(trie.predecessor(254), Some((0, 1)));
        assert_eq!(trie.predecessor(255), Some((255, 2)));
        assert_eq!(trie.successor(1), Some((255, 2)));
        assert_eq!(trie.successor(0), Some((0, 1)));
        trie.remove(0);
        assert_eq!(trie.predecessor(254), None);
        assert_eq!(trie.successor(0), Some((255, 2)));
    }
}
