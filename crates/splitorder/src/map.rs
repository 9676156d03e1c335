//! The split-ordered hash map proper: a growable, lazily-initialized bucket
//! directory (the segment tree of [`crate::dir`]) over the single lock-free list of
//! [`crate::list`].

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam_epoch::{self as epoch, Guard, Reclaimer};
use skiptrie_atomics::{retire_box, tagged};
use skiptrie_metrics::{self as metrics, Counter};

use crate::dir::{Directory, DirectoryConfig};
use crate::list::{self, ListNode};

/// The table doubles once the average chain length exceeds this.
const LOAD_FACTOR: usize = 3;

/// A lock-free, linearizable, resizable hash map with *insert-if-absent* semantics.
///
/// This is the `prefixes` table of the concurrent x-fast trie (paper, Section 4), but
/// it is fully generic and reusable on its own. See the crate-level documentation for
/// the split-ordering idea.
///
/// `K` must be `Ord` (used only to totally order same-hash collisions inside the
/// list) in addition to the usual `Hash + Eq`. Values are returned by clone; use
/// `Copy` types (the SkipTrie stores raw trie-node pointers) when reads are hot.
pub struct SplitOrderedMap<K, V> {
    /// Growable segment tree; each leaf slot is a tagged pointer to that bucket's
    /// dummy list node (null = uninitialized bucket). See [`crate::dir`].
    directory: Directory,
    /// Current number of buckets in use (always a power of two).
    size: AtomicUsize,
    /// Number of regular (non-dummy) items.
    count: AtomicUsize,
    /// Epoch domain every operation pins and retires in (`0` = the process-wide
    /// default). Set through [`SplitOrderedMap::with_directory_in_domain`] so a
    /// domain-isolated owner (e.g. one shard of a sharded SkipTrie) keeps its
    /// prefix-table garbage out of the global domain: every pin goes through the
    /// owning structure's domain, never `epoch::pin()` directly.
    domain: usize,
    /// Dummy node of bucket 0 — the head of the entire list.
    head: *const ListNode<K, V>,
}

// SAFETY: all shared mutation goes through atomics; nodes are managed via epoch
// reclamation. `K`/`V` cross threads inside nodes.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SplitOrderedMap<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SplitOrderedMap<K, V> {}

impl<K, V> Default for SplitOrderedMap<K, V>
where
    K: Hash + Eq + Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

/// A fast, non-cryptographic hasher: multiply-rotate mixing per 8-byte word with a
/// splitmix64-style finalizer.
///
/// The split-ordered map consumes hashes in two bit-sensitive ways — the bucket
/// index is the hash's *low* bits, the list position its *reversed* bits — so the
/// finalizer must diffuse every input bit into every output bit, which the
/// splitmix64 finalizer is built for. SipHash (the std default) gives the same
/// property at several times the cost per hash, and this map is on the hot path of
/// every x-fast-trie probe (the `LowestAncestor` search hashes about two
/// prefixes per query, and a bulk load hashes every distinct prefix once). HashDoS
/// resistance is not part of this crate's contract.
struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = (self.state ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: full avalanche, so low bits (bucket index) and high
        // bits (list order after reversal) are equally well mixed.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn hash_key<K: Hash>(key: &K) -> u64 {
    let mut hasher = FastHasher {
        state: 0x5bd1_e995_9e37_79b9,
    };
    key.hash(&mut hasher);
    hasher.finish()
}

/// Split-order key of a regular item: reversed hash with the lowest bit set, so it
/// sorts strictly between its bucket's dummy and the next bucket's dummy.
fn regular_so_key(hash: u64) -> u64 {
    hash.reverse_bits() | 1
}

/// Split-order key of a bucket's dummy node.
fn dummy_so_key(bucket: u64) -> u64 {
    bucket.reverse_bits()
}

/// The "parent" bucket from which a new bucket is split off: the index with its most
/// significant set bit cleared.
fn parent_bucket(bucket: u64) -> u64 {
    debug_assert!(bucket > 0);
    let msb = 63 - bucket.leading_zeros();
    bucket & !(1u64 << msb)
}

impl<K, V> SplitOrderedMap<K, V>
where
    K: Hash + Eq + Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty map with a single bucket. The bucket directory is a
    /// growable segment tree (see [`DirectoryConfig`]): it grows a level whenever the
    /// doubling rule outruns it, so the expected `O(1)` chain length holds at every
    /// size.
    pub fn new() -> Self {
        Self::with_directory(DirectoryConfig::default())
    }

    /// Creates an empty map with an explicitly shaped bucket directory — a smaller
    /// fanout for growth-at-test-scale. See [`DirectoryConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `config.segment_bits` is outside `2..=16`.
    pub fn with_directory(config: DirectoryConfig) -> Self {
        Self::with_directory_in_domain(config, None, Reclaimer::Ebr)
    }

    /// Creates an empty map with an explicitly shaped bucket directory that pins and
    /// retires in epoch domain `domain` (modulo the number of domains; `None` = the
    /// process-wide default domain 0).
    ///
    /// Every operation on the map — bucket initialization, chain walks, node
    /// retirement — then rides that domain's epoch counter, so a stalled reader
    /// pinned in the default domain can never stall this map's reclamation (and
    /// vice versa). The x-fast trie passes its own domain here so a domain-isolated
    /// trie's prefix table reclaims independently too. The [`Reclaimer`] argument
    /// is ignored: it has one variant and stays only because the frozen benchmark
    /// package passes it (ROADMAP item 5 drops it).
    ///
    /// # Panics
    ///
    /// Panics if `config.segment_bits` is outside `2..=16`.
    pub fn with_directory_in_domain(
        config: DirectoryConfig,
        domain: Option<usize>,
        _: Reclaimer,
    ) -> Self {
        let directory = Directory::new(config.segment_bits);
        let head = Box::into_raw(ListNode::<K, V>::new_dummy(dummy_so_key(0)));
        let map = SplitOrderedMap {
            directory,
            size: AtomicUsize::new(1),
            count: AtomicUsize::new(0),
            domain: domain.unwrap_or(0),
            head,
        };
        map.set_bucket_entry(0, head);
        map
    }

    /// Pins the calling thread in this map's epoch domain (see
    /// [`SplitOrderedMap::with_directory_in_domain`]). Every operation acquires its
    /// guard here, so all of the map's pins and retirements stay in one domain.
    pub fn pin(&self) -> Guard {
        epoch::pin_domain(self.domain)
    }

    /// Number of items currently in the map (linearizable only in quiescent states).
    pub fn len(&self) -> usize {
        self.count.load(Ordering::SeqCst)
    }

    /// True if the map holds no items (quiescently accurate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn bucket_entry(&self, bucket: u64) -> &AtomicU64 {
        // The directory grows itself if the doubling rule outran its eager growth;
        // no bucket index below `size` is ever out of range.
        self.directory.entry(bucket as usize)
    }

    fn set_bucket_entry(&self, bucket: u64, dummy: *const ListNode<K, V>) {
        self.bucket_entry(bucket)
            .store(tagged::pack(dummy), Ordering::SeqCst);
    }

    /// Returns the dummy node for `bucket`, initializing it (and, recursively, its
    /// parent buckets) if necessary.
    fn get_bucket(&self, bucket: u64, guard: &Guard) -> *const ListNode<K, V> {
        let entry = self.bucket_entry(bucket);
        let word = entry.load(Ordering::SeqCst);
        if !tagged::is_null(word) {
            return tagged::unpack(word);
        }
        self.initialize_bucket(bucket, guard)
    }

    fn initialize_bucket(&self, bucket: u64, guard: &Guard) -> *const ListNode<K, V> {
        debug_assert!(bucket > 0, "bucket 0 is initialized at construction");
        let parent = parent_bucket(bucket);
        let parent_entry = self.bucket_entry(parent).load(Ordering::SeqCst);
        let parent_dummy: *const ListNode<K, V> = if tagged::is_null(parent_entry) {
            self.initialize_bucket(parent, guard)
        } else {
            tagged::unpack(parent_entry)
        };

        // Insert (or find) the dummy for this bucket, starting from the parent dummy.
        let so = dummy_so_key(bucket);
        let dummy = ListNode::<K, V>::new_dummy(so);
        // SAFETY: parent_dummy is a live dummy node; dummies are never removed.
        let dummy_ptr = match unsafe { list::insert_at(parent_dummy, dummy, guard) } {
            Ok(ptr) => ptr,
            Err(_rejected) => {
                // A dummy with this split-order key already exists; find it.
                // SAFETY: as above.
                let res = unsafe { list::find::<K, V>(parent_dummy, so, None, guard) };
                debug_assert!(res.found);
                tagged::unpack(res.curr_word)
            }
        };
        let entry = self.bucket_entry(bucket);
        let _ = entry.compare_exchange(
            tagged::NULL,
            tagged::pack(dummy_ptr),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        // Whether we won or lost, the entry now points at the unique dummy for `so`.
        tagged::unpack(entry.load(Ordering::SeqCst))
    }

    fn bucket_for_hash(&self, hash: u64) -> u64 {
        hash & (self.size.load(Ordering::SeqCst) as u64 - 1)
    }

    /// Inserts `key -> value` if `key` is absent. Returns `true` if the insertion took
    /// place, `false` if the key was already present (the existing value is kept).
    pub fn insert(&self, key: K, value: V) -> bool {
        metrics::record(Counter::HashOp);
        let guard = self.pin();
        let hash = hash_key(&key);
        let so = regular_so_key(hash);
        let bucket = self.bucket_for_hash(hash);
        let dummy = self.get_bucket(bucket, &guard);
        let node = ListNode::new_regular(so, key, value);
        // SAFETY: `dummy` is a live dummy node of this map's list.
        match unsafe { list::insert_at(dummy, node, &guard) } {
            Ok(_) => {
                let count = self.count.fetch_add(1, Ordering::SeqCst) + 1;
                self.maybe_grow(count);
                true
            }
            Err(_rejected) => false,
        }
    }

    fn maybe_grow(&self, count: usize) {
        let size = self.size.load(Ordering::SeqCst);
        // The structural ceiling (`2^63` buckets at the default fanout) is beyond
        // what a `u64` hash can index; it only binds tiny test fanouts.
        if count > size * LOAD_FACTOR && size < self.directory.max_capacity() {
            // Doubling is a single CAS; items never move thanks to split-ordering.
            if self
                .size
                .compare_exchange(size, size * 2, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // Eagerly give the directory the height the new size needs so the
                // probe path almost never pays the grow CAS itself (entry() still
                // grows on demand if it races ahead of us).
                self.directory.ensure_capacity(size * 2);
            }
        }
    }

    /// Number of buckets currently in use (a power of two).
    pub fn bucket_count(&self) -> usize {
        self.size.load(Ordering::SeqCst)
    }

    /// Current height of the bucket directory's segment tree (`1..=7`); grows by one
    /// whenever the bucket count outgrows `fanout^height`. Diagnostics for tests and
    /// `perfbench` (`splitorder.dir_height`).
    pub fn directory_height(&self) -> u32 {
        self.directory.height()
    }

    /// Number of allocated directory tree nodes (quiescently accurate). Together
    /// with the `dir_node_alloc`/`dir_node_freed` counters this pins the
    /// leak-freedom of drop in the reclamation canary tests.
    pub fn directory_node_count(&self) -> usize {
        self.directory.node_count()
    }

    /// Returns a clone of the value mapped to `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        metrics::record(Counter::HashOp);
        let guard = self.pin();
        let hash = hash_key(key);
        let so = regular_so_key(hash);
        let bucket = self.bucket_for_hash(hash);
        let dummy = self.get_bucket(bucket, &guard);
        // SAFETY: `dummy` is a live dummy node of this map's list.
        let res = unsafe { list::find(dummy, so, Some(key), &guard) };
        if !res.found {
            return None;
        }
        // SAFETY: found nodes are protected by the pin.
        let node = unsafe { &*tagged::unpack::<ListNode<K, V>>(res.curr_word) };
        node.value.clone()
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Removes `key` unconditionally. Returns the removed value, or `None` if absent.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.remove_with(key, |_| true)
    }

    /// The paper's `compareAndDelete`: removes `key` only if `predicate` holds for the
    /// currently mapped value (checked atomically with the removal, since values are
    /// immutable per entry). Returns `true` if this call removed the entry.
    pub fn remove_if(&self, key: &K, predicate: impl Fn(&V) -> bool) -> bool {
        self.remove_with(key, predicate).is_some()
    }

    fn remove_with(&self, key: &K, predicate: impl Fn(&V) -> bool) -> Option<V> {
        metrics::record(Counter::HashOp);
        let guard = self.pin();
        let hash = hash_key(key);
        let so = regular_so_key(hash);
        let bucket = self.bucket_for_hash(hash);
        let dummy = self.get_bucket(bucket, &guard);
        loop {
            // SAFETY: `dummy` is a live dummy node of this map's list.
            let res = unsafe { list::find(dummy, so, Some(key), &guard) };
            if !res.found {
                return None;
            }
            // SAFETY: protected by the pin.
            let node = unsafe { &*tagged::unpack::<ListNode<K, V>>(res.curr_word) };
            let value = node.value.as_ref().expect("regular nodes carry a value");
            if !predicate(value) {
                return None;
            }
            // Logically delete: set the mark on the victim's own next word.
            let next = node.next.load(Ordering::SeqCst);
            if tagged::is_marked(next) {
                // Someone else is deleting it concurrently; as far as this call is
                // concerned the key is (being) removed by them.
                return None;
            }
            metrics::record(Counter::CasAttempt);
            if node
                .next
                .compare_exchange(
                    next,
                    tagged::with_mark(next),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                metrics::record(Counter::CasFailure);
                continue; // next changed (insertion after us, or a racing delete); retry
            }
            let removed = value.clone();
            // Physically unlink: try the quick CAS; on failure a fresh find() is
            // guaranteed to complete the unlink (or observe it already done).
            metrics::record(Counter::CasAttempt);
            if res
                .prev_link
                .compare_exchange(
                    res.curr_word,
                    tagged::untagged(next),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_err()
            {
                metrics::record(Counter::CasFailure);
                // SAFETY: as above.
                let _ = unsafe { list::find(dummy, so, Some(key), &guard) };
            }
            self.count.fetch_sub(1, Ordering::SeqCst);
            // We won the mark, so we own retirement.
            // SAFETY: the node is unlinked and will not be retired by anyone else.
            unsafe {
                let victim = tagged::unpack::<ListNode<K, V>>(res.curr_word) as *mut ListNode<K, V>;
                retire_box(&guard, victim);
            }
            return Some(removed);
        }
    }

    /// Single-owner bulk insertion of `items`, returning how many were inserted
    /// (always `items.len()`): the hash-table face of the workspace's bulk-load
    /// subsystem, used by the SkipTrie to install every prefix of a bulk-loaded key
    /// set in one pass.
    ///
    /// Inserting `n` items one at a time costs `n` bucket localizations, `n` chain
    /// walks and `n` CAS publications, plus the lazy dummy-initialization cascades
    /// of every directory doubling along the way. Under `&mut self` none of that
    /// machinery is needed: the items are sorted by their split-order position once,
    /// the directory is sized to its final power of two up front (replaying the
    /// incremental doubling rule), dummies for every not-yet-initialized bucket are
    /// generated in split order, and one three-way merge relinks the entire list —
    /// existing nodes, new items, new dummies — with plain stores. `O(n log n)` for
    /// the sort, `O(existing + n + buckets)` for the merge, and the result is
    /// exactly the list the `n` individual inserts would have produced.
    ///
    /// # Panics
    ///
    /// Panics if a key equals another item's key or a key already present (the map
    /// must stay duplicate-free), or if the map is not quiescent (a logically
    /// deleted node still linked means a concurrent remove — incompatible with
    /// `&mut self`).
    pub fn bulk_load(&mut self, items: Vec<(K, V)>) -> usize {
        let n = items.len();
        if n == 0 {
            return 0;
        }
        // (1) Sort the new items by their final list position (so_key, key).
        let mut new_nodes: Vec<(u64, K, V)> = items
            .into_iter()
            .map(|(k, v)| (regular_so_key(hash_key(&k)), k, v))
            .collect();
        new_nodes.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        // (2) Final directory size: replay the one-doubling-per-insert growth rule.
        let existing = self.count.load(Ordering::SeqCst);
        let mut size = self.size.load(Ordering::SeqCst);
        for i in 1..=n {
            if existing + i > size * LOAD_FACTOR && size < self.directory.max_capacity() {
                size *= 2;
            }
        }
        // Build the segment tree at its final height directly: one grow loop here
        // instead of a grow CAS discovered lazily on some later probe's path.
        self.directory.ensure_capacity(size);

        // (3) The existing list, in order (under `&mut self` it must be quiescent:
        // no marked node is still linked once its remover has returned).
        let mut old: Vec<*mut ListNode<K, V>> = Vec::with_capacity(existing + 2);
        unsafe {
            let mut cur = self.head as *mut ListNode<K, V>;
            while !cur.is_null() {
                let next = (*cur).next.load(Ordering::SeqCst);
                assert!(
                    !tagged::is_marked(next),
                    "bulk_load requires a quiescent map (marked node still linked)"
                );
                old.push(cur);
                cur = tagged::unpack::<ListNode<K, V>>(next) as *mut _;
            }
        }

        // (4) Buckets of the final directory that still lack a dummy, in split
        // order: bucket `rev(i)` has the i-th smallest dummy so_key, because
        // `dummy_so_key(rev(i) >> (64 - s)) == i << (64 - s)` is monotone in `i`.
        let s = size.trailing_zeros();
        let missing: Vec<u64> = (0..size as u64)
            .map(|i| {
                if s == 0 {
                    0
                } else {
                    i.reverse_bits() >> (64 - s)
                }
            })
            .filter(|&b| tagged::is_null(self.bucket_entry(b).load(Ordering::SeqCst)))
            .collect();

        // Within-batch duplicates surface as adjacent equal positions after the sort.
        for w in new_nodes.windows(2) {
            assert!(
                (w[0].0, &w[0].1) < (w[1].0, &w[1].1),
                "bulk_load requires distinct keys"
            );
        }

        // (5) Three-way merge by (so_key, dummy-before-regular, key), relinking the
        // whole list with plain stores and installing new bucket entries. The
        // descriptor tuple `(so_key, is_regular, key)` carries the total list order:
        // dummies sort before regular nodes at the same so_key, and `Option<&K>`
        // breaks regular-vs-regular hash collisions exactly as `list::find` does.
        let mut merged: Vec<*mut ListNode<K, V>> =
            Vec::with_capacity(old.len() + new_nodes.len() + missing.len());
        let mut oi = 0usize;
        let mut di = 0usize;
        let mut new_iter = new_nodes.into_iter().peekable();
        loop {
            let old_desc = old.get(oi).map(|&p| {
                // SAFETY: a live node of this map's list; exclusive access.
                let node = unsafe { &*p };
                (node.so_key, node.key.is_some(), node.key.as_ref())
            });
            let new_desc = new_iter.peek().map(|(so, k, _)| (*so, true, Some(k)));
            let dummy_desc = missing.get(di).map(|&b| (dummy_so_key(b), false, None));
            let smallest = [old_desc, new_desc, dummy_desc].into_iter().flatten().min();
            let Some(smallest) = smallest else {
                break;
            };
            if old_desc == Some(smallest) {
                assert!(
                    new_desc != Some(smallest),
                    "bulk_load key already present in the map"
                );
                merged.push(old[oi]);
                oi += 1;
            } else if dummy_desc == Some(smallest) {
                merged.push(self.new_bucket_dummy(missing[di]));
                di += 1;
            } else {
                let (so, k, v) = new_iter.next().expect("peeked");
                merged.push(Box::into_raw(ListNode::new_regular(so, k, v)));
            }
        }

        debug_assert_eq!(merged[0], self.head as *mut _, "head dummy stays first");
        for pair in merged.windows(2) {
            // SAFETY: every node is owned by this map; exclusive access.
            unsafe {
                (*pair[0])
                    .next
                    .store(tagged::pack(pair[1]), Ordering::Relaxed)
            };
        }
        // SAFETY: as above.
        unsafe {
            (*merged[merged.len() - 1])
                .next
                .store(tagged::NULL, Ordering::Relaxed)
        };

        self.size.store(size, Ordering::SeqCst);
        self.count.fetch_add(n, Ordering::SeqCst);
        n
    }

    /// Allocates a dummy for `bucket` and installs its directory entry (bulk path).
    fn new_bucket_dummy(&self, bucket: u64) -> *mut ListNode<K, V> {
        let dummy = Box::into_raw(ListNode::<K, V>::new_dummy(dummy_so_key(bucket)));
        self.set_bucket_entry(bucket, dummy);
        dummy
    }

    /// Calls `f` for every `(key, value)` currently reachable. Intended for tests,
    /// debugging and drop-time accounting; it is *not* a linearizable snapshot.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let _guard = self.pin();
        // SAFETY: the head dummy lives as long as the map.
        let mut cur = unsafe { (*self.head).next.load(Ordering::SeqCst) };
        while !tagged::is_null(cur) {
            // SAFETY: protected by the pin; traversal only follows live links.
            let node = unsafe { &*tagged::unpack::<ListNode<K, V>>(cur) };
            let next = node.next.load(Ordering::SeqCst);
            if !tagged::is_marked(next) && !node.is_dummy() {
                if let (Some(k), Some(v)) = (node.key.as_ref(), node.value.as_ref()) {
                    f(k, v);
                }
            }
            cur = tagged::untagged(next);
        }
    }
}

impl<K, V> Drop for SplitOrderedMap<K, V> {
    fn drop(&mut self) {
        // Exclusive access: free every list node (dummies included); the directory
        // frees its own tree, every level, in its own Drop.
        unsafe {
            let mut cur: *mut ListNode<K, V> = self.head as *mut _;
            while !cur.is_null() {
                let node = Box::from_raw(cur);
                let next = node.next.load(Ordering::SeqCst);
                cur = tagged::unpack::<ListNode<K, V>>(next) as *mut _;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    #[test]
    fn so_key_helpers() {
        assert_eq!(dummy_so_key(0), 0);
        assert_eq!(parent_bucket(1), 0);
        assert_eq!(parent_bucket(5), 1);
        assert_eq!(parent_bucket(6), 2);
        assert_eq!(parent_bucket(8), 0);
        // Regular keys are odd after reversal, dummies even.
        assert_eq!(regular_so_key(0) & 1, 1);
        assert_eq!(dummy_so_key(3) & 1, 0);
        // Ordering property: a bucket's dummy sorts before its items.
        let h = 0xdead_beef_u64;
        assert!(dummy_so_key(h & 7) < regular_so_key(h) || (h & 7) != h % 8);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let map: SplitOrderedMap<u64, String> = SplitOrderedMap::new();
        assert!(map.is_empty());
        assert!(map.insert(1, "one".to_string()));
        assert!(map.insert(2, "two".to_string()));
        assert!(!map.insert(1, "uno".to_string()));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(&1).as_deref(), Some("one"));
        assert_eq!(map.get(&3), None);
        assert_eq!(map.remove(&1).as_deref(), Some("one"));
        assert_eq!(map.get(&1), None);
        assert_eq!(map.remove(&1), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn remove_if_checks_the_value() {
        let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        map.insert(10, 100);
        assert!(!map.remove_if(&10, |v| *v == 999));
        assert_eq!(map.get(&10), Some(100));
        assert!(map.remove_if(&10, |v| *v == 100));
        assert_eq!(map.get(&10), None);
        assert!(!map.remove_if(&11, |_| true));
    }

    #[test]
    fn grows_past_many_items_and_stays_correct() {
        let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        let n = 10_000u64;
        for i in 0..n {
            assert!(map.insert(i, i * 2));
        }
        assert_eq!(map.len(), n as usize);
        assert!(map.size.load(Ordering::SeqCst) > 1, "table must have grown");
        for i in 0..n {
            assert_eq!(map.get(&i), Some(i * 2), "key {i}");
        }
        for i in (0..n).step_by(2) {
            assert_eq!(map.remove(&i), Some(i * 2));
        }
        for i in 0..n {
            let expected = if i % 2 == 0 { None } else { Some(i * 2) };
            assert_eq!(map.get(&i), expected);
        }
        assert_eq!(map.len(), (n / 2) as usize);
    }

    #[test]
    fn unbounded_small_fanout_grows_through_many_heights() {
        // Fanout 16 makes root growth reachable: 16 -> 256 -> 4096 -> 65536 buckets.
        let config = DirectoryConfig::default().with_segment_bits(4);
        let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory(config);
        assert_eq!(map.directory_height(), 1);
        let n = 20_000u64;
        for i in 0..n {
            assert!(map.insert(i, i + 1));
        }
        assert!(
            map.bucket_count() > 4096,
            "the doubling rule crossed three former tree capacities"
        );
        assert!(map.directory_height() >= 4);
        for i in 0..n {
            assert_eq!(map.get(&i), Some(i + 1), "key {i}");
        }
    }

    #[test]
    fn bulk_load_builds_the_tree_at_its_final_height() {
        let config = DirectoryConfig::default().with_segment_bits(4);
        let mut bulk: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory(config);
        let incremental: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory(config);
        let n = 20_000u64;
        bulk.bulk_load((0..n).map(|i| (i, i * 5)).collect());
        for i in 0..n {
            incremental.insert(i, i * 5);
        }
        assert_eq!(bulk.bucket_count(), incremental.bucket_count());
        assert_eq!(
            bulk.directory_height(),
            incremental.directory_height(),
            "pre-sizing reaches the same height as incremental growth"
        );
        assert!(bulk.directory_height() >= 4);
        for i in (0..n).step_by(97) {
            assert_eq!(bulk.get(&i), Some(i * 5));
        }
    }

    #[test]
    fn bulk_load_equals_incremental_inserts() {
        let mut bulk: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        // Pre-existing entries (the SkipTrie's permanent ε is the real-world case).
        assert!(bulk.insert(1_000_000, 42));
        assert!(bulk.insert(2_000_000, 43));
        let incremental: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        incremental.insert(1_000_000, 42);
        incremental.insert(2_000_000, 43);

        let n = 20_000u64;
        let items: Vec<(u64, u64)> = (0..n).map(|i| (i, i * 7)).collect();
        assert_eq!(bulk.bulk_load(items.clone()), n as usize);
        for (k, v) in items {
            incremental.insert(k, v);
        }
        assert_eq!(bulk.len(), incremental.len());
        assert_eq!(
            bulk.bucket_count(),
            incremental.bucket_count(),
            "bulk replays the incremental doubling rule"
        );
        for i in 0..n {
            assert_eq!(bulk.get(&i), Some(i * 7), "bulk get {i}");
        }
        assert_eq!(
            bulk.get(&1_000_000),
            Some(42),
            "pre-existing entry survives"
        );
        assert_eq!(bulk.get(&n), None);
        // The loaded map keeps working through the concurrent protocol.
        assert!(!bulk.insert(5, 0), "duplicates still rejected");
        assert!(bulk.insert(n + 1, 1));
        for i in (0..n).step_by(3) {
            assert_eq!(bulk.remove(&i), Some(i * 7));
        }
        let mut live = 0usize;
        bulk.for_each(|_, _| live += 1);
        assert_eq!(live, bulk.len());
    }

    #[test]
    fn empty_bulk_load_is_a_noop() {
        let mut map: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        assert_eq!(map.bulk_load(Vec::new()), 0);
        assert!(map.is_empty());
        assert!(map.insert(1, 1));
    }

    #[test]
    #[should_panic(expected = "distinct keys")]
    fn bulk_load_rejects_within_batch_duplicates() {
        let mut map: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        map.bulk_load(vec![(1, 1), (2, 2), (1, 3)]);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn bulk_load_rejects_present_keys() {
        let mut map: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        map.insert(7, 7);
        map.bulk_load(vec![(7, 8)]);
    }

    #[test]
    fn string_keys_work() {
        let map: SplitOrderedMap<String, u64> = SplitOrderedMap::new();
        for i in 0..500u64 {
            assert!(map.insert(format!("key-{i}"), i));
        }
        for i in 0..500u64 {
            assert_eq!(map.get(&format!("key-{i}")), Some(i));
        }
        assert_eq!(map.get(&"missing".to_string()), None);
    }

    #[test]
    fn for_each_visits_live_entries() {
        let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        for i in 0..100 {
            map.insert(i, i);
        }
        for i in 0..50 {
            map.remove(&i);
        }
        let mut collected = HashMap::new();
        map.for_each(|k, v| {
            collected.insert(*k, *v);
        });
        assert_eq!(collected.len(), 50);
        assert!(collected.keys().all(|k| *k >= 50));
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let map = Arc::new(SplitOrderedMap::<u64, u64>::new());
        let threads = 8;
        let per_thread = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let key = t as u64 * per_thread + i;
                        assert!(map.insert(key, key + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.len(), (threads as u64 * per_thread) as usize);
        for key in 0..threads as u64 * per_thread {
            assert_eq!(map.get(&key), Some(key + 1));
        }
    }

    #[test]
    fn concurrent_same_key_insert_races_have_one_winner() {
        let map = Arc::new(SplitOrderedMap::<u64, u64>::new());
        let threads = 8;
        let keys = 200u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let mut wins = 0u64;
                    for k in 0..keys {
                        if map.insert(k, t as u64) {
                            wins += 1;
                        }
                    }
                    wins
                })
            })
            .collect();
        let total_wins: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total_wins, keys, "each key must be inserted exactly once");
        assert_eq!(map.len(), keys as usize);
    }

    #[test]
    fn concurrent_insert_remove_churn_is_consistent() {
        let map = Arc::new(SplitOrderedMap::<u64, u64>::new());
        let threads = 8usize;
        let iters = 3_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let mut net = 0i64;
                    for i in 0..iters {
                        // Each thread works on its own key range so the net count is
                        // exactly reconstructible.
                        let key = (t as u64) << 32 | (i % 64);
                        if i % 2 == 0 {
                            if map.insert(key, i) {
                                net += 1;
                            }
                        } else if map.remove(&key).is_some() {
                            net -= 1;
                        }
                    }
                    net
                })
            })
            .collect();
        let net_total: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(map.len() as i64, net_total);
        let mut live = 0;
        map.for_each(|_, _| live += 1);
        assert_eq!(live as i64, net_total);
    }
}
