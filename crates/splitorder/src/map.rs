//! The split-ordered hash map proper: a growable, lazily-initialized bucket
//! directory (the segment tree of [`crate::dir`]) over the single lock-free list of
//! [`crate::list`].

use std::alloc::Layout;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Guard, Reclaimer};
use skiptrie_atomics::slab::SlabPool;
use skiptrie_atomics::tagged;
use skiptrie_metrics::{self as metrics, Counter};

use crate::dir::{Directory, DirectoryConfig};
use crate::list::{self, ListNode, Sentinel, PENDING, UNCLAIMED};

/// The table doubles once the average chain length exceeds this.
const LOAD_FACTOR: usize = 3;

/// A lock-free, linearizable, resizable hash map with *insert-if-absent* semantics.
///
/// This is the `prefixes` table of the concurrent x-fast trie (paper, Section 4), but
/// it is fully generic and reusable on its own. See the crate-level documentation for
/// the split-ordering idea.
///
/// `K` must be `Ord` (used only to totally order same-hash collisions inside the
/// list) in addition to the usual `Hash + Eq`. A value lives inside its list node,
/// for as long as the entry does, and the node lives in a slot of the map's own
/// [`SlabPool`]: an insert pops a pooled slot or carves one, a removal hands its
/// slot back once the epoch has retired it, and a bulk load places each entry
/// straight into its slot of one reserved run. [`SplitOrderedMap::get_in`] lends it out under a
/// guard the caller already holds: no pin and no clone. The SkipTrie stores its
/// two-pointer trie nodes this way, and a node's address is the entry's identity.
/// [`SplitOrderedMap::get`] pins and clones, for `V: Clone`.
pub struct SplitOrderedMap<K, V> {
    /// Growable segment tree whose leaves hold the buckets' sentinels. Bucket 0's
    /// sentinel, linked at construction, heads the whole list. See [`crate::dir`].
    directory: Directory,
    /// Current number of buckets in use (always a power of two).
    size: AtomicUsize,
    /// Number of entries (sentinels not counted).
    count: AtomicUsize,
    /// Epoch domain every operation pins and retires in (`0` = the process-wide
    /// default). Set through [`SplitOrderedMap::with_directory_in_domain`] so a
    /// domain-isolated owner (e.g. one shard of a sharded SkipTrie) keeps its
    /// prefix-table garbage out of the global domain: every pin goes through the
    /// owning structure's domain, never `epoch::pin()` directly.
    domain: usize,
    /// The slots the entries live in. Shared with the deferred closures that
    /// recycle removed entries, which may run after the map is dropped.
    pool: Arc<SlabPool>,
    /// The map owns its entries, keys and values with them.
    _entries: std::marker::PhantomData<ListNode<K, V>>,
}

// SAFETY: all shared mutation goes through atomics: the size and count words, the
// directory (grown by CAS, freed under `&mut self`), and the list, whose entries are
// retired through epoch reclamation and whose sentinels live in the directory; the
// pool's free lists and slabs are behind its own locks.
// `K`/`V` cross threads inside entries, hence the bounds.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SplitOrderedMap<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SplitOrderedMap<K, V> {}

impl<K, V> Default for SplitOrderedMap<K, V>
where
    K: Hash + Eq + Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
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
/// sorts strictly between its bucket's sentinel and the next bucket's sentinel.
fn regular_so_key(hash: u64) -> u64 {
    hash.reverse_bits() | 1
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
    V: Send + Sync + 'static,
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
        // Bucket 0's sentinel is the list's head: linked, to an empty list.
        directory
            .bucket(0)
            .next
            .store(tagged::NULL, Ordering::SeqCst);
        SplitOrderedMap {
            directory,
            size: AtomicUsize::new(1),
            count: AtomicUsize::new(0),
            domain: domain.unwrap_or(0) % epoch::NUM_DOMAINS,
            pool: Arc::new(SlabPool::new(Layout::new::<ListNode<K, V>>())),
            _entries: std::marker::PhantomData,
        }
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

    /// The head of the list: bucket 0's sentinel.
    fn head(&self) -> &Sentinel {
        self.directory.bucket(0)
    }

    /// The linked sentinel a walk for `bucket` starts from: the bucket's own once it
    /// is linked, and its parent's start (recursively) while it is not.
    ///
    /// A thread that finds the bucket unclaimed claims it with one CAS and links
    /// its sentinel after the parent's start; only the winner links. Everyone
    /// else — the CAS's losers, and whoever finds the sentinel claimed but its word
    /// still tagged — starts from the parent instead, so no thread ever waits for
    /// another's link. Bucket 0, linked at construction, ends the recursion.
    fn start_of(&self, bucket: u64, guard: &Guard) -> &Sentinel {
        let sentinel = self.directory.bucket(bucket as usize);
        let word = sentinel.next.load(Ordering::SeqCst);
        if word & PENDING == 0 {
            return sentinel;
        }
        let parent = self.start_of(parent_bucket(bucket), guard);
        if word == UNCLAIMED {
            metrics::record(Counter::CasAttempt);
            match sentinel.next.compare_exchange(
                UNCLAIMED,
                PENDING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    // SAFETY: `parent` is a linked sentinel of this list and precedes
                    // the bucket in split order; the sentinel lives as long as the
                    // directory.
                    unsafe { list::link_sentinel::<K, V>(parent, sentinel, guard) };
                    return sentinel;
                }
                Err(_) => metrics::record(Counter::CasFailure),
            }
        }
        parent
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
        let start = self.start_of(self.bucket_for_hash(hash), &guard);
        let node = self
            .pool
            .pop()
            .unwrap_or_else(|| self.pool.carve())
            .cast::<ListNode<K, V>>();
        // SAFETY: a slot of the entries' layout that no one else holds.
        unsafe { node.write(ListNode::new(so, key, value)) };
        // SAFETY: `start` is a linked sentinel of this map's list, and `node` is
        // initialized and unpublished.
        if unsafe { list::insert_at(start, node, &guard) } {
            let count = self.count.fetch_add(1, Ordering::SeqCst) + 1;
            self.maybe_grow(count);
            true
        } else {
            // The key is present: the node was never published, so its slot goes
            // straight back, its value dropped.
            // SAFETY: the slot is this pool's, initialized, and reachable by no one.
            unsafe { ListNode::recycle(node, &self.pool) };
            false
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

    /// The value mapped to `key`, if present, borrowed for as long as `guard`
    /// stays pinned: no pin of its own and no clone. An entry removed after the
    /// lookup stays readable through the reference until `guard` unpins.
    ///
    /// # Panics
    ///
    /// Panics if `guard` was pinned in another epoch domain than this map's (see
    /// [`SplitOrderedMap::with_directory_in_domain`]): such a guard does not hold
    /// back this map's reclamation, so the reference could dangle.
    pub fn get_in<'g>(&'g self, key: &K, guard: &'g Guard) -> Option<&'g V> {
        assert!(
            guard.domain() == self.domain,
            "get_in needs a guard of the map's epoch domain {}, not {}",
            self.domain,
            guard.domain()
        );
        metrics::record(Counter::HashOp);
        let hash = hash_key(key);
        let so = regular_so_key(hash);
        let start = self.start_of(self.bucket_for_hash(hash), guard);
        // SAFETY: `start` is a linked sentinel of this map's list.
        let res = unsafe { list::find::<K, V>(start, so, Some(key), guard) };
        if !res.found {
            return None;
        }
        // SAFETY: a found entry is protected by the pin, and the assert above
        // proved it is a pin of this map's domain.
        Some(&unsafe { ListNode::<K, V>::of(tagged::unpack(res.curr_word)) }.value)
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get_in(key, &self.pin()).is_some()
    }

    /// The paper's `compareAndDelete`: removes `key` only if `predicate` holds for the
    /// currently mapped value (checked atomically with the removal, since values are
    /// immutable per entry). Returns `true` if this call removed the entry.
    pub fn remove_if(&self, key: &K, predicate: impl Fn(&V) -> bool) -> bool {
        self.remove_in(key, predicate, &self.pin()).is_some()
    }

    /// Removes `key` if `predicate` holds for its value; returns the removed value,
    /// retired but readable until `guard` unpins.
    fn remove_in<'g>(
        &self,
        key: &K,
        predicate: impl Fn(&V) -> bool,
        guard: &'g Guard,
    ) -> Option<&'g V> {
        metrics::record(Counter::HashOp);
        let hash = hash_key(key);
        let so = regular_so_key(hash);
        let start = self.start_of(self.bucket_for_hash(hash), guard);
        loop {
            // SAFETY: `start` is a linked sentinel of this map's list.
            let res = unsafe { list::find::<K, V>(start, so, Some(key), guard) };
            if !res.found {
                return None;
            }
            // SAFETY: a found entry is protected by the pin.
            let entry = unsafe { ListNode::<K, V>::of(tagged::unpack(res.curr_word)) };
            if !predicate(&entry.value) {
                return None;
            }
            let node = entry.link();
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
                let _ = unsafe { list::find::<K, V>(start, so, Some(key), guard) };
            }
            self.count.fetch_sub(1, Ordering::SeqCst);
            // We won the mark, so we own retirement: once no pin that could have
            // reached the entry is left, its key and value drop and its slot goes
            // back to the pool (kept alive by the closure's `Arc`).
            metrics::record(Counter::NodeRetired);
            let victim = tagged::unpack::<ListNode<K, V>>(res.curr_word) as *mut ListNode<K, V>;
            let pool = Arc::clone(&self.pool);
            // SAFETY: the node is unlinked, will not be retired by anyone else, and
            // is a slot of `pool`.
            unsafe { guard.defer_unchecked(move || ListNode::recycle(victim, &pool)) };
            return Some(&entry.value);
        }
    }

    /// Single-owner bulk insertion of `items`, returning how many were inserted
    /// (always `items.len()`): the hash-table face of the workspace's bulk-load
    /// subsystem, used by the SkipTrie to install every prefix of a bulk-loaded key
    /// set in one pass.
    ///
    /// Inserting `n` items one at a time costs `n` bucket localizations, `n` chain
    /// walks and `n` CAS publications, plus the lazy sentinel-linking cascades of
    /// every directory doubling along the way. Under `&mut self` none of that
    /// machinery is needed. The directory is sized to its final power of two up
    /// front (replaying the incremental doubling rule). At that size a split-ordered
    /// list keeps every bucket's items together, in the bucket's bit-reversed rank,
    /// so the items are placed by a counting sort over the buckets — a count per
    /// rank — and each entry is written straight into its final slot of one run
    /// of exactly `n` slots reserved from the map's pool ([`SlabPool::reserve`]:
    /// whole 2-MiB arenas while an arena's worth is left, then one block of
    /// exactly the rest). A key is hashed once to be counted and once to be
    /// placed: keeping its split-order key between the passes would take a
    /// batch-sized buffer, and a freed buffer stays resident under what is
    /// allocated after it. Only each bucket's own few entries are then compared,
    /// sorted in place. Then one three-way merge — the existing list, the new
    /// entries, and the sentinels of every bucket not yet linked, in split order —
    /// links each node to its predecessor with a plain store as it goes. The
    /// sentinels are linked in place in the directory's leaves, and no entry is
    /// staged or moved between buffers. `O(n + buckets)` for the placement (plus
    /// `O(g log g)` for a bucket of `g` items, which only a directory at its
    /// capacity makes long), `O(existing + n + buckets)` for the merge, and the
    /// result is exactly the list the `n` individual inserts would have produced.
    ///
    /// # Panics
    ///
    /// Panics if a key equals another item's key or a key already present (the map
    /// must stay duplicate-free), or if the map is not quiescent (a logically
    /// deleted node still linked means a concurrent remove — incompatible with
    /// `&mut self`). Entries placed before such a panic are never linked: their
    /// keys and values leak, and their slots go with the pool.
    pub fn bulk_load(&mut self, items: Vec<(K, V)>) -> usize {
        let n = items.len();
        if n == 0 {
            return 0;
        }
        // (1) Final directory size: replay the one-doubling-per-insert growth rule.
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

        // (2) Place the new entries in their final list order (so_key, key). At the
        // final size an item's rank — the top `log₂ size` bits of its so_key, the
        // split-order position of its bucket — fixes its place up to the other
        // items of its bucket, so a counting pass and one write per item do what a
        // comparison sort of the batch would, and only each bucket's few items are
        // compared. Each entry is written straight into its slot of the run, so
        // no batch-sized buffer is live beside the input.
        let s = size.trailing_zeros();
        let place = |key: &K| {
            let so = regular_so_key(hash_key(key));
            (so, so.checked_shr(64 - s).unwrap_or(0) as usize)
        };
        // `start[r]..start[r + 1]` is rank r's stretch of the run.
        let mut start = vec![0usize; size + 1];
        for (k, _) in &items {
            start[place(k).1 + 1] += 1;
        }
        for r in 0..size {
            start[r + 1] += start[r];
        }
        let slots = self.pool.reserve(n);
        let entry = |i: usize| slots.slot(i).cast::<ListNode<K, V>>();
        let mut fill = start[..size].to_vec();
        for (k, v) in items {
            let (so, r) = place(&k);
            // A key whose hash changed since it was counted would overrun its
            // stretch; every slot is written exactly once only if none does.
            assert!(
                fill[r] < start[r + 1],
                "bulk_load key hashed differently twice"
            );
            // SAFETY: a slot of the run, inside rank r's stretch, not yet written.
            unsafe { entry(fill[r]).write(ListNode::new(so, k, v)) };
            fill[r] += 1;
        }
        drop(fill);
        let order = |a: &ListNode<K, V>, b: &ListNode<K, V>| {
            (a.link().so_key, &a.key).cmp(&(b.link().so_key, &b.key))
        };
        // A stretch that crosses from an arena into the next block is sorted
        // through this buffer; every other one in place.
        let mut crossing = Vec::new();
        for group in start.windows(2) {
            let (lo, hi) = (group[0], group[1]);
            if hi - lo < 2 {
                continue;
            }
            if slots.contiguous(lo..hi) {
                // SAFETY: `lo..hi` are initialized entries back to back in one
                // block, shared with no one yet.
                unsafe { std::slice::from_raw_parts_mut(entry(lo), hi - lo) }
                    .sort_unstable_by(order);
            } else {
                // SAFETY: as above, entry by entry; each is read out once and
                // written back once.
                crossing.extend((lo..hi).map(|i| unsafe { entry(i).read() }));
                crossing.sort_unstable_by(order);
                for (i, e) in (lo..hi).zip(crossing.drain(..)) {
                    unsafe { entry(i).write(e) };
                }
            }
        }
        drop(start);
        // Within-batch duplicates surface as adjacent equal positions once placed.
        for i in 1..n {
            // SAFETY: initialized entries, shared with no one yet.
            let (a, b) = unsafe { (&*entry(i - 1), &*entry(i)) };
            assert!(order(a, b).is_lt(), "bulk_load requires distinct keys");
        }

        // (3) Three-way merge by split-order position, linking each node to the
        // last one linked. The streams: the existing list after the head (under
        // `&mut self` it must be quiescent: no marked node is still linked once its
        // remover has returned), the placed entries, and the buckets below `size`
        // whose sentinel is not linked. No link is in flight under `&mut self`, so
        // a sentinel is linked exactly when its word carries no `PENDING` tag; and
        // bucket `rev(i)` has the i-th smallest sentinel so_key, because
        // `dummy_so_key(rev(i) >> (64 - s)) == i << (64 - s)` is monotone in `i`.
        let directory = &self.directory;
        let mut rank = 1u64; // rank 0 is bucket 0, the head
        let mut next_unlinked = || -> Option<&Sentinel> {
            while rank < size as u64 {
                let bucket = rank.reverse_bits() >> (64 - s);
                rank += 1;
                let sentinel = directory.bucket(bucket as usize);
                if sentinel.next.load(Ordering::SeqCst) & PENDING != 0 {
                    return Some(sentinel);
                }
            }
            None
        };
        let head = directory.bucket(0);
        let mut tail: &Sentinel = head;
        let mut old: *const Sentinel = tagged::unpack(head.next.load(Ordering::SeqCst));
        let mut unlinked = next_unlinked();
        let mut placed = 0usize;
        loop {
            // SAFETY: a live node of this map's list; exclusive access.
            let old_node = unsafe { old.as_ref() };
            // SAFETY: the placed entries are initialized.
            let new_node = (placed < n).then(|| unsafe { &*entry(placed) });
            // Entries only compare equal to entries, and the unlinked sentinels'
            // so_keys appear nowhere else, so `(so_key, key)` orders all three.
            let old_first = old_node.is_some_and(|o| {
                new_node.is_none_or(|e| {
                    // SAFETY: equal so_keys make `o` an entry.
                    let order = o
                        .so_key
                        .cmp(&e.link().so_key)
                        .then_with(|| unsafe { ListNode::<K, V>::of(o) }.key.cmp(&e.key));
                    assert!(order.is_ne(), "bulk_load key already present in the map");
                    order.is_lt()
                })
            });
            let candidate = if old_first {
                old_node.map(|o| o.so_key)
            } else {
                new_node.map(|e| e.link().so_key)
            };
            let node: &Sentinel = match (unlinked, candidate) {
                (Some(sentinel), c) if c.is_none_or(|so| sentinel.so_key < so) => {
                    unlinked = next_unlinked();
                    sentinel
                }
                (_, None) => break,
                _ if old_first => {
                    let o = old_node.expect("old stream not empty");
                    let next = o.next.load(Ordering::SeqCst);
                    assert!(
                        !tagged::is_marked(next),
                        "bulk_load requires a quiescent map (marked node still linked)"
                    );
                    old = tagged::unpack(next);
                    o
                }
                _ => {
                    placed += 1;
                    new_node.expect("new stream not empty").link()
                }
            };
            tail.next.store(tagged::pack(node), Ordering::Relaxed);
            tail = node;
        }
        tail.next.store(tagged::NULL, Ordering::Relaxed);

        self.size.store(size, Ordering::SeqCst);
        self.count.fetch_add(n, Ordering::SeqCst);
        n
    }

    /// Bytes of the list the map holds: its entries times the entry size, plus its
    /// linked buckets' sentinels times the sentinel size. Directory slack (leaves'
    /// unlinked sentinels and interior nodes) is not counted; see
    /// [`SplitOrderedMap::directory_bytes`]. Walks the list, so it is for statistics
    /// (experiment `e5`); quiescently accurate.
    pub fn node_bytes(&self) -> usize {
        let _guard = self.pin();
        let (mut entries, mut sentinels) = (0, 0);
        let mut cur: *const Sentinel = self.head();
        while !cur.is_null() {
            // SAFETY: protected by the pin; traversal only follows live links.
            let node = unsafe { &*cur };
            if node.is_entry() {
                entries += 1;
            } else {
                sentinels += 1;
            }
            cur = tagged::unpack(node.next.load(Ordering::SeqCst));
        }
        entries * std::mem::size_of::<ListNode<K, V>>()
            + sentinels * std::mem::size_of::<Sentinel>()
    }

    /// Bytes of the bucket directory's allocated tree nodes: its leaves of
    /// sentinels, linked or not, and its interior nodes (statistics only;
    /// quiescently accurate).
    pub fn directory_bytes(&self) -> usize {
        self.directory.bytes()
    }

    /// Calls `f` for every `(key, value)` currently reachable. Intended for tests,
    /// debugging and drop-time accounting; it is *not* a linearizable snapshot.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let _guard = self.pin();
        let mut cur = self.head().next.load(Ordering::SeqCst);
        while !tagged::is_null(cur) {
            // SAFETY: protected by the pin; traversal only follows live links.
            let node = unsafe { &*tagged::unpack::<Sentinel>(cur) };
            let next = node.next.load(Ordering::SeqCst);
            // A sentinel has neither key nor value.
            if node.is_entry() && !tagged::is_marked(next) {
                // SAFETY: an odd so_key names an entry.
                let entry = unsafe { ListNode::<K, V>::of(node) };
                f(&entry.key, &entry.value);
            }
            cur = tagged::untagged(next);
        }
    }
}

impl<K, V> SplitOrderedMap<K, V>
where
    K: Hash + Eq + Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Returns a clone of the value mapped to `key`, if present.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_in(key, &self.pin()).cloned()
    }

    /// Removes `key` unconditionally. Returns the removed value, or `None` if absent.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.remove_in(key, |_| true, &self.pin()).cloned()
    }
}

impl<K, V> Drop for SplitOrderedMap<K, V> {
    fn drop(&mut self) {
        // Exclusive access: drop every linked entry's key and value in place. The
        // slots go with the pool's slabs, once the last deferred recycle holding the
        // pool has run; sentinels go with the directory's leaves, which the
        // directory frees, every level, in its own Drop.
        let mut cur = self.directory.bucket(0).next.load(Ordering::SeqCst);
        while !tagged::is_null(cur) {
            let node = tagged::unpack::<Sentinel>(cur);
            // SAFETY: exclusive access; a node with an odd so_key is an entry, and
            // each linked entry is dropped once, here.
            unsafe {
                cur = (*node).next.load(Ordering::SeqCst);
                if (*node).is_entry() {
                    std::ptr::drop_in_place(node as *mut ListNode<K, V>);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::dummy_so_key;
    use skiptrie_atomics::slab::{ARENA, FIRST_SLAB, MAX_SLAB};
    use std::collections::HashMap;
    use std::num::NonZeroU64;
    use std::sync::atomic::AtomicU64;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn a_node_of_a_word_key_and_two_words_is_forty_bytes() {
        // The x-fast trie's prefix entry: an 8-byte niche key, two pointer words.
        assert_eq!(
            std::mem::size_of::<ListNode<NonZeroU64, [AtomicU64; 2]>>(),
            40
        );
    }

    /// Not `Clone`: counts its drops in its own slot of a shared table.
    struct Tracked {
        id: usize,
        drops: Arc<Vec<AtomicUsize>>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn every_value_is_dropped_exactly_once() {
        // A domain of its own, so draining it waits on no other test's pins.
        const DOMAIN: usize = 13;
        let n = 200usize;
        let drops: Arc<Vec<AtomicUsize>> =
            Arc::new((0..3 * n).map(|_| AtomicUsize::new(0)).collect());
        let value = |id| Tracked {
            id,
            drops: Arc::clone(&drops),
        };
        let dropped = |ids: std::ops::Range<usize>| -> Vec<usize> {
            ids.map(|id| drops[id].load(Ordering::SeqCst)).collect()
        };
        {
            let mut map: SplitOrderedMap<u64, Tracked> = SplitOrderedMap::with_directory_in_domain(
                DirectoryConfig::default(),
                Some(DOMAIN),
                Reclaimer::Ebr,
            );
            // Key k holds value k: 0..n bulk-loaded, n..2n inserted.
            assert_eq!(
                map.bulk_load((0..n).map(|k| (k as u64, value(k))).collect()),
                n
            );
            for k in n..2 * n {
                assert!(map.insert(k as u64, value(k)));
            }
            // A rejected insert drops its value at once.
            for k in 0..n {
                assert!(!map.insert(k as u64, value(2 * n + k)));
            }
            assert_eq!(dropped(2 * n..3 * n), vec![1; n]);
            assert_eq!(dropped(0..2 * n), vec![0; 2 * n]);
            // Removed values are retired, and a refused predicate keeps its entry.
            for k in (0..2 * n).step_by(2) {
                assert!(map.remove_if(&(k as u64), |v| v.id == k));
            }
            assert!(!map.remove_if(&1, |_| false));
            let guard = map.pin();
            assert_eq!(map.get_in(&1, &guard).map(|v| v.id), Some(1));
            assert!(map.get_in(&0, &guard).is_none());
        }
        // The odd keys went with the map; the even ones once the domain drains.
        for _ in 0..10_000 {
            epoch::pin_domain(DOMAIN).flush();
            if epoch::domain_stats(DOMAIN, Reclaimer::Ebr).pending == 0 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(dropped(0..3 * n), vec![1; 3 * n]);
    }

    #[test]
    #[should_panic(expected = "epoch domain")]
    fn get_in_refuses_a_guard_of_another_domain() {
        let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory_in_domain(
            DirectoryConfig::default(),
            Some(5),
            Reclaimer::Ebr,
        );
        map.insert(1, 1);
        let _ = map.get_in(&1, &epoch::pin_domain(6));
    }

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

    /// Split-order keys of the sentinels a walk of the whole list passes, in
    /// order, after checking that the walk is strictly ascending by `(so_key, key)`.
    fn walked_sentinels<K: Hash + Eq + Ord + Clone + Send + Sync + 'static, V>(
        map: &SplitOrderedMap<K, V>,
    ) -> Vec<u64>
    where
        V: Send + Sync + 'static,
    {
        let _guard = map.pin();
        let mut sentinels = Vec::new();
        let mut last: Option<(u64, Option<&K>)> = None;
        let mut cur: *const Sentinel = map.head();
        while !cur.is_null() {
            // SAFETY: protected by the pin.
            let node = unsafe { &*cur };
            let key = if node.is_entry() {
                // SAFETY: an odd so_key names an entry.
                Some(&unsafe { ListNode::<K, V>::of(node) }.key)
            } else {
                sentinels.push(node.so_key);
                None
            };
            assert!(
                last < Some((node.so_key, key)),
                "the list is in split order"
            );
            last = Some((node.so_key, key));
            cur = tagged::unpack(node.next.load(Ordering::SeqCst));
        }
        sentinels
    }

    /// The sentinel so_keys of buckets `0..buckets`, in split order.
    fn every_sentinel(buckets: usize) -> Vec<u64> {
        let mut all: Vec<u64> = (0..buckets as u64).map(dummy_so_key).collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn a_claimed_unlinked_bucket_is_served_through_its_parent() {
        let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        let in_bucket_3: Vec<u64> = (0..2_000u64)
            .filter(|k| hash_key(k) & 3 == 3)
            .take(3 * 4) // no more than the load factor allows four buckets
            .collect();
        let (early, late) = in_bucket_3.split_at(6);
        // The early keys go in while the table has two buckets: bucket 1 links.
        map.size.store(2, Ordering::SeqCst);
        for &k in early {
            assert!(map.insert(k, k + 1));
        }
        // The table doubles, and bucket 3's claimer stalls before its link.
        map.size.store(4, Ordering::SeqCst);
        let stalled = map.directory.bucket(3);
        stalled
            .next
            .compare_exchange(UNCLAIMED, PENDING, Ordering::SeqCst, Ordering::SeqCst)
            .unwrap();
        for &k in early {
            assert_eq!(map.get(&k), Some(k + 1), "key {k} through the parent");
        }
        for &k in late {
            assert!(map.insert(k, k + 1));
        }
        for &k in in_bucket_3.iter().step_by(4) {
            assert_eq!(map.remove(&k), Some(k + 1));
        }
        let live: Vec<u64> = in_bucket_3
            .iter()
            .copied()
            .filter(|k| !in_bucket_3.iter().step_by(4).any(|r| r == k))
            .collect();
        for &k in &live {
            assert_eq!(map.get(&k), Some(k + 1), "key {k} through the parent");
        }
        let mut seen = 0;
        map.for_each(|_, _| seen += 1);
        assert_eq!(seen, map.len(), "every entry is on the one list");
        let guard = map.pin();
        assert!(
            std::ptr::eq(map.start_of(3, &guard), map.start_of(1, &guard)),
            "a claimed bucket is walked from its parent"
        );
        assert_eq!(
            stalled.next.load(Ordering::SeqCst),
            PENDING,
            "nobody else links it"
        );

        // The stalled claimer finishes: from then on the bucket is its own start.
        // SAFETY: bucket 1 is linked and precedes bucket 3; the claim is ours.
        unsafe { list::link_sentinel::<u64, u64>(map.start_of(1, &guard), stalled, &guard) };
        assert!(std::ptr::eq(map.start_of(3, &guard), stalled));
        assert_eq!(map.bucket_count(), 4);
        for &k in &live {
            // SAFETY: bucket 3's sentinel is linked.
            let res = unsafe {
                list::find::<u64, u64>(stalled, regular_so_key(hash_key(&k)), Some(&k), &guard)
            };
            assert!(res.found, "key {k} from its own bucket");
        }
        let _ = map.start_of(2, &guard);
        drop(guard);
        assert_eq!(walked_sentinels(&map), every_sentinel(4));
    }

    #[test]
    fn concurrent_growth_links_every_sentinel_once() {
        let config = DirectoryConfig::default().with_segment_bits(2);
        let map = Arc::new(SplitOrderedMap::<u64, u64>::with_directory(config));
        let threads = 8u64;
        let per_thread = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let key = i * threads + t;
                        assert!(map.insert(key, key + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n = threads * per_thread;
        assert_eq!(map.len(), n as usize);
        for key in 0..n {
            assert_eq!(map.get(&key), Some(key + 1), "key {key}");
        }
        let buckets = map.bucket_count();
        assert!(map.directory_height() >= 5, "many leaves at fanout 4");
        let guard = map.pin();
        for bucket in 0..buckets as u64 {
            let _ = map.start_of(bucket, &guard);
        }
        drop(guard);
        assert_eq!(walked_sentinels(&map), every_sentinel(buckets));
        let mut seen = 0;
        map.for_each(|_, _| seen += 1);
        assert_eq!(seen, map.len());
    }

    #[test]
    fn bulk_load_links_every_bucket_in_place() {
        let config = DirectoryConfig::default().with_segment_bits(2);
        let mut map: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory(config);
        // Some buckets linked before the load, most not.
        for k in 1..=40u64 {
            assert!(map.insert(k << 40, k));
        }
        let before = walked_sentinels(&map).len();
        assert!(before > 1 && before < map.bucket_count() * 4);
        map.bulk_load((0..5_000u64).map(|k| (k, k + 1)).collect());
        let buckets = map.bucket_count();
        assert_eq!(walked_sentinels(&map), every_sentinel(buckets));
        for b in 0..buckets {
            let word = map.directory.bucket(b).next.load(Ordering::SeqCst);
            assert_eq!(word & PENDING, 0, "bucket {b} is linked");
        }
        for k in 0..5_000u64 {
            assert_eq!(map.get(&k), Some(k + 1));
        }
        assert_eq!(map.len(), 5_040);
        let entries = 5_040 * std::mem::size_of::<ListNode<u64, u64>>();
        assert_eq!(map.node_bytes(), entries + buckets * 16);
        assert!(map.directory_bytes() >= buckets * 16);
    }

    /// Loads, inserts, rejects and removes tracked values in a map of `config`,
    /// drops it, and checks every value was dropped exactly once.
    fn drops_each_value_once(config: DirectoryConfig, domain: usize) {
        let n = 200usize;
        let drops: Arc<Vec<AtomicUsize>> =
            Arc::new((0..3 * n).map(|_| AtomicUsize::new(0)).collect());
        let value = |id| Tracked {
            id,
            drops: Arc::clone(&drops),
        };
        let dropped = |ids: std::ops::Range<usize>| -> Vec<usize> {
            ids.map(|id| drops[id].load(Ordering::SeqCst)).collect()
        };
        {
            let mut map: SplitOrderedMap<u64, Tracked> =
                SplitOrderedMap::with_directory_in_domain(config, Some(domain), Reclaimer::Ebr);
            assert_eq!(
                map.bulk_load((0..n).map(|k| (k as u64, value(k))).collect()),
                n
            );
            for k in n..2 * n {
                assert!(map.insert(k as u64, value(k)));
            }
            for k in 0..n {
                assert!(!map.insert(k as u64, value(2 * n + k)));
            }
            assert_eq!(dropped(2 * n..3 * n), vec![1; n]);
            assert_eq!(dropped(0..2 * n), vec![0; 2 * n]);
            for k in (0..2 * n).step_by(2) {
                assert!(map.remove_if(&(k as u64), |v| v.id == k));
            }
            assert!(map.directory_node_count() > 8, "the directory spans leaves");
        }
        for _ in 0..10_000 {
            epoch::pin_domain(domain).flush();
            if epoch::domain_stats(domain, Reclaimer::Ebr).pending == 0 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(dropped(0..3 * n), vec![1; 3 * n]);
    }

    #[test]
    fn every_value_is_dropped_exactly_once_across_several_leaves() {
        drops_each_value_once(DirectoryConfig::default().with_segment_bits(2), 14);
    }

    /// Bulk-loads `items` into `bulk` and inserts them one by one into
    /// `incremental` (two maps holding the same entries), then checks that the two
    /// lists are node for node the same: the same entries in the same order, and
    /// the same bytes once every bucket of the incremental map is linked too.
    fn assert_placed_as_inserted(
        mut bulk: SplitOrderedMap<u64, u64>,
        incremental: SplitOrderedMap<u64, u64>,
        items: Vec<(u64, u64)>,
    ) {
        let n = items.len();
        assert_eq!(bulk.bulk_load(items.clone()), n);
        for (k, v) in items {
            assert!(incremental.insert(k, v));
        }
        let buckets = incremental.bucket_count();
        assert_eq!(bulk.bucket_count(), buckets);
        let guard = incremental.pin();
        for bucket in 0..buckets as u64 {
            let _ = incremental.start_of(bucket, &guard);
        }
        drop(guard);
        let list = |map: &SplitOrderedMap<u64, u64>| {
            let mut entries = Vec::with_capacity(map.len());
            map.for_each(|&k, &v| entries.push((k, v)));
            entries
        };
        let loaded = list(&bulk);
        assert_eq!(loaded.len(), incremental.len());
        assert!(loaded == list(&incremental), "the lists differ");
        assert_eq!(bulk.node_bytes(), incremental.node_bytes());
    }

    /// `n` distinct keys spread over the whole `u64` range.
    fn spread_items(n: u64) -> Vec<(u64, u64)> {
        (0..n)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i))
            .collect()
    }

    #[test]
    fn a_counted_placement_links_the_list_inserts_link() {
        assert_placed_as_inserted(
            SplitOrderedMap::new(),
            SplitOrderedMap::new(),
            spread_items(30_000),
        );
    }

    #[test]
    fn a_counted_placement_sorts_the_long_buckets_of_a_full_directory() {
        let config = DirectoryConfig::default().with_segment_bits(2);
        let bulk = SplitOrderedMap::with_directory(config);
        assert_eq!(bulk.directory.max_capacity(), 16_384);
        let n = 200_000u64;
        assert_placed_as_inserted(
            bulk,
            SplitOrderedMap::with_directory(config),
            spread_items(n),
        );
    }

    #[test]
    fn a_bulk_load_writes_its_entries_into_one_exact_run() {
        let stride = std::mem::size_of::<ListNode<u64, u64>>();
        let per_arena = ARENA / stride;
        let mut map: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        assert!(map.insert(u64::MAX, 0), "a first slab before the load");
        let n = per_arena + 1_000;
        map.bulk_load(spread_items(n as u64));
        let mut slabs = map.pool.slab_list();
        slabs.sort_by_key(|&(_, bytes)| bytes);
        assert_eq!(
            slabs.iter().map(|&(_, b)| b).collect::<Vec<_>>(),
            vec![FIRST_SLAB, 1_000 * stride, ARENA],
            "one arena, carved whole, and exactly the rest"
        );
        assert!(
            slabs[2].0.is_multiple_of(ARENA),
            "an arena is 2-MiB-aligned"
        );
        assert_eq!(map.pool.allocated(), n + 1);
        // The arena's last entry and the block's first share a bucket, so that
        // bucket's stretch was sorted across the two blocks; the walk below
        // checks the order.
        let rank = |at: usize| {
            // SAFETY: a placed entry of the map.
            let so = unsafe { &*(at as *const Sentinel) }.so_key;
            so >> (64 - map.bucket_count().trailing_zeros())
        };
        assert_eq!(
            rank(slabs[2].0 + (per_arena - 1) * stride),
            rank(slabs[1].0)
        );
        assert_eq!(walked_sentinels(&map), every_sentinel(map.bucket_count()));
        // Every linked entry lies in a slot of the pool.
        let guard = map.pin();
        let mut cur = map.head().next.load(Ordering::SeqCst);
        let mut entries = 0;
        while !tagged::is_null(cur) {
            let node = tagged::unpack::<Sentinel>(cur);
            // SAFETY: protected by the pin.
            let node = unsafe { &*node };
            if node.is_entry() {
                assert!(map.pool.contains(node as *const Sentinel as usize));
                entries += 1;
            }
            cur = node.next.load(Ordering::SeqCst);
        }
        drop(guard);
        assert_eq!(entries, n + 1);
    }

    #[test]
    fn removed_bulk_slots_are_recycled_into_later_inserts() {
        // A domain of its own, so draining it waits on no other test's pins.
        const DOMAIN: usize = 12;
        let n = 10_000u64;
        let mut map: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory_in_domain(
            DirectoryConfig::default(),
            Some(DOMAIN),
            Reclaimer::Ebr,
        );
        map.bulk_load((0..n).map(|k| (k, k)).collect());
        let run = map.pool.slab_bytes();
        assert_eq!(run, n as usize * std::mem::size_of::<ListNode<u64, u64>>());
        // Each round removes 500 keys that are in the map and inserts 500 that
        // never were: every round's removals are recycled before its inserts.
        let mut fresh = n;
        for round in 0..10u64 {
            for k in (round * 500..(round + 1) * 500).map(|i| i * 2) {
                assert_eq!(map.remove(&k), Some(k), "round {round} key {k}");
            }
            for _ in 0..10_000 {
                map.pin().flush();
                if epoch::domain_stats(DOMAIN, Reclaimer::Ebr).pending == 0 {
                    break;
                }
                std::thread::yield_now();
            }
            for _ in 0..500 {
                assert!(map.insert(fresh, fresh));
                fresh += 1;
            }
            assert!(
                map.pool.slab_bytes() <= run + MAX_SLAB,
                "round {round}: {} bytes of slab for a run of {run}",
                map.pool.slab_bytes()
            );
        }
        assert_eq!(map.len(), n as usize);
    }

    #[test]
    fn a_node_that_loses_the_insert_race_goes_back_to_the_pool() {
        let map = Arc::new(SplitOrderedMap::<u64, u64>::new());
        let keys = 5_000u64;
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || (0..keys).filter(|&k| map.insert(k, t)).count())
            })
            .collect();
        let wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(wins, keys as usize);
        let (carved, recycled, live) = (map.pool.allocated(), map.pool.free_len(), map.len());
        assert!(
            map.pool.recycled() >= keys as usize,
            "every loser was pushed back"
        );
        assert_eq!(
            carved - recycled - live,
            0,
            "every carved slot is live or pooled: {carved} carved, {recycled} pooled, {live} live"
        );
    }

    #[test]
    fn a_counted_placement_merges_with_the_entries_already_held() {
        let (bulk, incremental) = (SplitOrderedMap::new(), SplitOrderedMap::new());
        let held = spread_items(5_000);
        for &(k, v) in &held {
            assert!(bulk.insert(k, v));
            assert!(incremental.insert(k, v));
        }
        for &(k, _) in held.iter().step_by(4) {
            assert!(bulk.remove(&k).is_some());
            assert!(incremental.remove(&k).is_some());
        }
        let items = spread_items(25_000).split_off(5_000);
        assert_placed_as_inserted(bulk, incremental, items);
    }
}
