//! The growable bucket directory: a lock-free segment *tree* whose root pointer
//! carries the tree height in its low tag bits, and whose leaves hold the buckets'
//! sentinels inline.
//!
//! The original directory was a fixed `Box<[AtomicPtr<Segment>]>` of `2^12` lazily
//! allocated segments — a hard ceiling of `2^24` buckets past which every probe of
//! the split-ordered map degrades into a chain walk. This module removes the ceiling
//! the way cs431's `GrowableArray` does for its hash table: the directory becomes a
//! radix tree of fixed-fanout nodes, and the *root word* packs both the pointer to
//! the top node and the current tree height, so one atomic load tells a reader how
//! to interpret the whole structure.
//!
//! # Two node types
//!
//! An interior node is `fanout` words, each a child pointer (`0` = not yet
//! allocated). A leaf is `fanout` 16-byte [`Sentinel`]s, one per bucket, laid out
//! back to back on 64-byte-aligned memory so that no sentinel straddles a cache
//! line. A leaf is born with every sentinel's split-order key written and its word
//! [`UNCLAIMED`](crate::list::UNCLAIMED): a leaf's first bucket index is fixed when
//! it is allocated, because leaves never move. The map claims and links a sentinel
//! in place (see [`crate::list`]), so a bucket lookup is the tree descent plus one
//! load of the sentinel's own `next` word — the word a chain walk starts from.
//! A tree of height 1 is a single leaf; the level a node sits at names its type.
//!
//! # The CAS-grow protocol
//!
//! A tree of height `h` covers bucket indices `0 .. fanout^h`. To grow, a thread
//! allocates a fresh interior node, stores the *current* root pointer into its slot
//! 0, and CASes the root word from `(old_root, h)` to `(new_node, h + 1)`. Slot 0 is
//! the correct position because every index that fits in the old tree has zeros in
//! the bit positions the new level decodes. A loser of the race frees its fresh node
//! (nothing else can have seen it) and re-reads the root. Readers that loaded the
//! old root word *before* the growth stay correct: the old root is still the live
//! subtree covering the low indices, and the sentinels it reaches are the very same
//! ones the taller tree reaches for those indices.
//!
//! Interior and leaf nodes are raced in with CAS exactly like the old segments:
//! allocate, `compare_exchange(null, fresh)`, loser frees. Nodes are **never
//! unlinked or moved** while the map is alive, which is why readers need no epoch
//! pin beyond the one the map already holds for its list nodes: directory memory,
//! sentinels included, is address-stable for the map's whole lifetime and is freed
//! only by [`Drop`] under `&mut self`.
//!
//! The height tag needs 3 bits (heights `1..=7`), one more than the workspace's
//! [`skiptrie_atomics::tagged`] mark/descriptor pair uses, so the packing lives here
//! rather than in `tagged`; every node is at least 8-byte aligned, leaving exactly 3
//! low bits. Seven levels of the default `2^12` fanout cover `2^84` buckets — more
//! indices than a `u64` hash can name, so the default directory is unbounded in
//! every practical sense and [`Directory::max_capacity`] saturates at `2^63`.

use std::alloc::{self, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

use skiptrie_metrics::{self as metrics, Counter};

use crate::list::Sentinel;

/// Mask of the root-word bits holding the tree height (`1..=MAX_HEIGHT`).
const HEIGHT_MASK: u64 = 0b111;

/// Maximum tree height representable in the root word's 3 tag bits.
pub(crate) const MAX_HEIGHT: u32 = 7;

/// Default fanout exponent: `2^12` slots per node, matching the segment size of the
/// old fixed directory (a 64 KiB leaf of sentinels, a 32 KiB interior node).
pub(crate) const DEFAULT_SEGMENT_BITS: u32 = 12;

/// Shape of a [`crate::SplitOrderedMap`]'s bucket directory.
///
/// The default is a growable tree with `2^12`-slot nodes.
/// [`segment_bits`](DirectoryConfig::segment_bits) shrinks the node fanout so root
/// growth happens at table sizes a unit test can reach (fanout 16 grows at 16, 256,
/// 4096, ... buckets instead of 4096, 16M, ...).
///
/// # Examples
///
/// ```
/// use skiptrie_splitorder::{DirectoryConfig, SplitOrderedMap};
///
/// let config = DirectoryConfig::default().with_segment_bits(4);
/// let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory(config);
/// for i in 0..10_000u64 {
///     map.insert(i, i);
/// }
/// assert!(map.directory_height() >= 3, "the tree grew to cover the buckets");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectoryConfig {
    /// Fanout exponent: every tree node has `2^segment_bits` slots. Must be in
    /// `2..=16`; the default is 12.
    pub segment_bits: u32,
}

impl Default for DirectoryConfig {
    fn default() -> Self {
        DirectoryConfig {
            segment_bits: DEFAULT_SEGMENT_BITS,
        }
    }
}

impl DirectoryConfig {
    /// Overrides the node fanout exponent (`2..=16`; validated at map construction).
    pub fn with_segment_bits(mut self, segment_bits: u32) -> Self {
        self.segment_bits = segment_bits;
        self
    }
}

/// Allocates one zeroed interior node of `fanout` slots, returning its thin pointer.
fn alloc_node(fanout: usize) -> *mut AtomicU64 {
    metrics::record(Counter::DirNodeAlloc);
    let node: Box<[AtomicU64]> = (0..fanout).map(|_| AtomicU64::new(0)).collect();
    Box::into_raw(node) as *mut AtomicU64
}

/// Frees a node previously produced by [`alloc_node`].
///
/// # Safety
///
/// `node` must be an [`alloc_node`] result of the same `fanout`, not freed before,
/// and no longer reachable by any thread.
unsafe fn free_node(node: *mut AtomicU64, fanout: usize) {
    metrics::record(Counter::DirNodeFreed);
    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
        node, fanout,
    )));
}

/// Layout of a leaf of `fanout` sentinels: line-aligned, so none straddles a line.
fn leaf_layout(fanout: usize) -> Layout {
    Layout::from_size_align(fanout * std::mem::size_of::<Sentinel>(), 64)
        .expect("a leaf's size fits a layout")
}

/// Allocates the leaf whose first bucket is `base`: `fanout` unclaimed sentinels.
fn alloc_leaf(fanout: usize, base: usize) -> *mut Sentinel {
    metrics::record(Counter::DirNodeAlloc);
    let layout = leaf_layout(fanout);
    // SAFETY: the layout has a non-zero size.
    let leaf = unsafe { alloc::alloc(layout) } as *mut Sentinel;
    if leaf.is_null() {
        alloc::handle_alloc_error(layout);
    }
    for i in 0..fanout {
        // SAFETY: `i < fanout`, inside the fresh allocation.
        unsafe { leaf.add(i).write(Sentinel::unclaimed((base + i) as u64)) };
    }
    leaf
}

/// Frees a leaf previously produced by [`alloc_leaf`]. Sentinels own nothing, so
/// none needs a drop.
///
/// # Safety
///
/// `leaf` must be an [`alloc_leaf`] result of the same `fanout`, not freed before,
/// and no longer reachable by any thread.
unsafe fn free_leaf(leaf: *mut Sentinel, fanout: usize) {
    metrics::record(Counter::DirNodeFreed);
    alloc::dealloc(leaf as *mut u8, leaf_layout(fanout));
}

/// The lock-free growable bucket directory (see the module docs).
///
/// Leaf slots are the map's bucket sentinels; interior slots hold child-node
/// pointers (`0` = not yet allocated). A node at height 1 is a leaf, any higher one
/// interior.
pub(crate) struct Directory {
    /// Packed root: node pointer | tree height (low 3 bits, `1..=MAX_HEIGHT`).
    root: AtomicU64,
    /// Fanout exponent; every node has `1 << fanout_bits` slots.
    fanout_bits: u32,
}

impl Directory {
    /// A directory of height 1 (a single leaf node).
    ///
    /// # Panics
    ///
    /// Panics if `fanout_bits` is outside `2..=16`.
    pub(crate) fn new(fanout_bits: u32) -> Self {
        assert!(
            (2..=16).contains(&fanout_bits),
            "segment_bits must be between 2 and 16, got {fanout_bits}"
        );
        let root = alloc_leaf(1 << fanout_bits, 0);
        Directory {
            root: AtomicU64::new(root as u64 | 1),
            fanout_bits,
        }
    }

    fn fanout(&self) -> usize {
        1 << self.fanout_bits
    }

    /// Bucket indices covered by a tree of `height`, saturating at `2^63` (more than
    /// any reachable `size`, and safe for power-of-two arithmetic on `usize`).
    fn capacity_at(&self, height: u32) -> usize {
        let shift = (self.fanout_bits * height).min(63);
        1usize << shift
    }

    /// Bucket indices the directory can ever cover at [`MAX_HEIGHT`].
    pub(crate) fn max_capacity(&self) -> usize {
        self.capacity_at(MAX_HEIGHT)
    }

    /// Current tree height (`1..=MAX_HEIGHT`).
    pub(crate) fn height(&self) -> u32 {
        (self.root.load(Ordering::SeqCst) & HEIGHT_MASK) as u32
    }

    /// Bucket indices covered without further growth.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity_at(self.height())
    }

    /// Number of allocated tree nodes (quiescently accurate; diagnostics only).
    pub(crate) fn node_count(&self) -> usize {
        self.count_nodes().0
    }

    /// Bytes of the allocated tree nodes, leaves and interior nodes (quiescently
    /// accurate; statistics only).
    pub(crate) fn bytes(&self) -> usize {
        let (nodes, leaves) = self.count_nodes();
        (nodes - leaves) * self.fanout() * std::mem::size_of::<AtomicU64>()
            + leaves * leaf_layout(self.fanout()).size()
    }

    /// `(nodes, leaves)` of the whole tree.
    fn count_nodes(&self) -> (usize, usize) {
        let root = self.root.load(Ordering::SeqCst);
        self.count_subtree(
            (root & !HEIGHT_MASK) as *mut AtomicU64,
            (root & HEIGHT_MASK) as u32,
        )
    }

    /// `(nodes, leaves)` of the subtree rooted at `node`.
    fn count_subtree(&self, node: *mut AtomicU64, height: u32) -> (usize, usize) {
        if height == 1 {
            return (1, 1);
        }
        let mut total = (1, 0);
        for i in 0..self.fanout() {
            // SAFETY: nodes are live for the directory's lifetime.
            let child = unsafe { (*node.add(i)).load(Ordering::SeqCst) };
            if child != 0 {
                let (nodes, leaves) = self.count_subtree(child as *mut AtomicU64, height - 1);
                total = (total.0 + nodes, total.1 + leaves);
            }
        }
        total
    }

    /// Grows the root by one level if its height is still `observed_height`.
    ///
    /// Slot 0 of the new root is the old root: indices that fit in the old tree have
    /// zeros in the bits the new level decodes, so every existing leaf slot keeps its
    /// address. Losing the root CAS means another thread grew (or had grown) past
    /// `observed_height`; the fresh node is unreachable and freed on the spot.
    fn grow(&self, observed_height: u32) {
        assert!(
            observed_height < MAX_HEIGHT,
            "directory already at maximum height"
        );
        let root = self.root.load(Ordering::SeqCst);
        let height = (root & HEIGHT_MASK) as u32;
        if height > observed_height {
            return; // someone else already grew past what we observed
        }
        let fresh = alloc_node(self.fanout());
        // SAFETY: `fresh` is exclusively ours until the CAS publishes it.
        unsafe { (*fresh).store(root & !HEIGHT_MASK, Ordering::Relaxed) };
        metrics::record(Counter::CasAttempt);
        match self.root.compare_exchange(
            root,
            fresh as u64 | u64::from(height + 1),
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => metrics::record(Counter::DirGrow),
            Err(_) => {
                metrics::record(Counter::CasFailure);
                // SAFETY: the CAS failed, so no other thread ever saw `fresh`. Clear
                // slot 0 first: it aliases the live old root, which must not be freed.
                unsafe {
                    (*fresh).store(0, Ordering::Relaxed);
                    free_node(fresh, self.fanout());
                }
            }
        }
    }

    /// Grows the tree until it covers at least `buckets` indices (clamped to
    /// [`Directory::max_capacity`]). Used to pre-size the tree to its final height in
    /// one pass — bulk loads and eager post-doubling growth — so later probes never
    /// pay the grow CAS.
    pub(crate) fn ensure_capacity(&self, buckets: usize) {
        loop {
            let root = self.root.load(Ordering::SeqCst);
            let height = (root & HEIGHT_MASK) as u32;
            if self.capacity_at(height) >= buckets || height == MAX_HEIGHT {
                return;
            }
            self.grow(height);
        }
    }

    /// The sentinel of bucket `index`, growing the tree and allocating the node path
    /// on demand. The returned reference stays valid for the directory's lifetime.
    pub(crate) fn bucket(&self, index: usize) -> &Sentinel {
        let mask = self.fanout() - 1;
        loop {
            let root = self.root.load(Ordering::SeqCst);
            let height = (root & HEIGHT_MASK) as u32;
            if index >= self.capacity_at(height) {
                // The doubling rule outran the tree (eager growth is best-effort);
                // grow here so no index below `size` can ever be out of range —
                // this replaces the old directory's "bucket index out of range"
                // assert with progress.
                self.grow(height);
                continue;
            }
            let mut node = (root & !HEIGHT_MASK) as *mut AtomicU64;
            for level in (1..height).rev() {
                let shift = self.fanout_bits * level;
                let slot_index = if shift >= usize::BITS {
                    0 // the index has no bits that high; only child 0 exists up here
                } else {
                    (index >> shift) & mask
                };
                // SAFETY: nodes are live and stable for the directory's lifetime.
                let slot = unsafe { &*node.add(slot_index) };
                let child = slot.load(Ordering::SeqCst);
                node = if child != 0 {
                    child as *mut AtomicU64
                } else {
                    self.install_child(slot, level == 1, index & !mask)
                };
            }
            // SAFETY: `node` is the leaf on the index's path; `index & mask` is
            // within it.
            return unsafe { &*(node as *const Sentinel).add(index & mask) };
        }
    }

    /// The `next` word of bucket `index`'s sentinel.
    #[cfg(test)]
    pub(crate) fn entry(&self, index: usize) -> &AtomicU64 {
        &self.bucket(index).next
    }

    /// Races a fresh child node into an interior `slot` — a leaf whose first bucket
    /// is `base` when the slot is on level 1 — and returns the child the slot holds;
    /// a loser frees its node and adopts the winner's.
    fn install_child(&self, slot: &AtomicU64, leaf: bool, base: usize) -> *mut AtomicU64 {
        let fresh = if leaf {
            alloc_leaf(self.fanout(), base) as *mut AtomicU64
        } else {
            alloc_node(self.fanout())
        };
        metrics::record(Counter::CasAttempt);
        match slot.compare_exchange(0, fresh as u64, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => fresh,
            Err(existing) => {
                metrics::record(Counter::CasFailure);
                // SAFETY: the CAS failed, so no other thread ever saw `fresh`; an
                // interior one's slots are still all zero.
                unsafe {
                    if leaf {
                        free_leaf(fresh as *mut Sentinel, self.fanout());
                    } else {
                        free_node(fresh, self.fanout());
                    }
                }
                existing as *mut AtomicU64
            }
        }
    }
}

impl Drop for Directory {
    fn drop(&mut self) {
        let root = *self.root.get_mut();
        let height = (root & HEIGHT_MASK) as u32;
        // SAFETY: exclusive access; every reachable node was allocated here and is
        // freed exactly once by the walk.
        unsafe { self.free_subtree((root & !HEIGHT_MASK) as *mut AtomicU64, height) };
    }
}

impl Directory {
    /// Frees the subtree rooted at `node`. Sentinels hold list-node words owned by
    /// the map, not by the directory, and are left alone.
    ///
    /// # Safety
    ///
    /// Requires exclusive access and a well-formed subtree of the given height.
    unsafe fn free_subtree(&self, node: *mut AtomicU64, height: u32) {
        if height == 1 {
            free_leaf(node as *mut Sentinel, self.fanout());
            return;
        }
        for i in 0..self.fanout() {
            let child = (*node.add(i)).load(Ordering::Relaxed);
            if child != 0 {
                self.free_subtree(child as *mut AtomicU64, height - 1);
            }
        }
        free_node(node, self.fanout());
    }
}

// SAFETY: the directory is a tree of atomics mutated only through CAS; nodes are
// freed only under `&mut self`.
unsafe impl Send for Directory {}
unsafe impl Sync for Directory {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_height_one_and_grows_on_demand() {
        let dir = Directory::new(4);
        assert_eq!(dir.height(), 1);
        assert_eq!(dir.capacity(), 16);
        dir.entry(15).store(7, Ordering::SeqCst);
        assert_eq!(dir.height(), 1, "in-range entries do not grow the tree");
        dir.entry(16).store(8, Ordering::SeqCst);
        assert_eq!(dir.height(), 2);
        assert_eq!(dir.capacity(), 256);
        // The old leaf kept its slots: entry(15) resolves to the same word.
        assert_eq!(dir.entry(15).load(Ordering::SeqCst), 7);
        assert_eq!(dir.entry(16).load(Ordering::SeqCst), 8);
    }

    #[test]
    fn ensure_capacity_builds_the_height_directly() {
        let dir = Directory::new(4);
        dir.ensure_capacity(5_000);
        assert_eq!(dir.height(), 4, "16^3 = 4096 < 5000 <= 16^4");
        assert!(dir.capacity() >= 5_000);
        dir.ensure_capacity(1); // never shrinks
        assert_eq!(dir.height(), 4);
    }

    #[test]
    fn former_fixed_directory_cap_is_now_in_range() {
        // The old directory asserted `seg_idx < 2^12`, i.e. panicked at bucket index
        // 2^24. The tree just grows: index 2^24 needs height 3 at the default
        // fanout, and only the three nodes on its path are allocated.
        let former_cap = 1usize << 24;
        let dir = Directory::new(DEFAULT_SEGMENT_BITS);
        dir.entry(former_cap).store(42, Ordering::SeqCst);
        assert_eq!(dir.height(), 3);
        assert_eq!(dir.entry(former_cap).load(Ordering::SeqCst), 42);
        // Counted on the structure, not on the process-wide `DirNodeAlloc`
        // counter: sibling tests of this binary grow directories concurrently.
        assert!(
            dir.node_count() <= 1 + 4,
            "growth is lazy: only the path to the index is allocated"
        );
        assert!(dir.max_capacity() > former_cap, "the ceiling is gone");
    }

    #[test]
    fn max_capacity_saturates_for_wide_fanouts() {
        let dir = Directory::new(16);
        assert_eq!(dir.max_capacity(), 1usize << 63, "16 * 7 bits clamp at 63");
        let narrow = Directory::new(2);
        assert_eq!(narrow.max_capacity(), 1 << 14);
    }

    #[test]
    fn every_index_maps_to_a_distinct_stable_word() {
        let dir = Directory::new(2);
        let n = 256usize; // forces height 4 at fanout 4
        for i in 0..n {
            dir.entry(i).store(i as u64 + 1, Ordering::SeqCst);
        }
        dir.ensure_capacity(4 * n); // further growth must not move any slot
        for i in 0..n {
            assert_eq!(
                dir.entry(i).load(Ordering::SeqCst),
                i as u64 + 1,
                "index {i}"
            );
        }
    }

    #[test]
    fn node_count_tracks_allocations() {
        let dir = Directory::new(4);
        assert_eq!(dir.node_count(), 1);
        dir.entry(16).store(1, Ordering::SeqCst);
        // Height 2: new root + the old leaf (slot 0) + the lazily added leaf for 16.
        assert_eq!(dir.node_count(), 3);
    }

    #[test]
    fn concurrent_growth_races_resolve_to_one_tree() {
        use std::sync::Arc;
        let dir = Arc::new(Directory::new(4));
        let threads = 8usize;
        let per_thread = 2_000usize;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let dir = Arc::clone(&dir);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let index = i * threads + t; // interleaved, monotonically spreading
                        dir.entry(index).store((index + 1) as u64, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(dir.height() >= 4, "16k indices need height 4 at fanout 16");
        for index in 0..threads * per_thread {
            assert_eq!(
                dir.entry(index).load(Ordering::SeqCst),
                (index + 1) as u64,
                "index {index}"
            );
        }
    }

    #[test]
    fn drop_frees_every_level() {
        // Counters are process-wide and other tests run concurrently, so only
        // inflation-safe `>=` assertions are sound here.
        let ((), _delta) = skiptrie_metrics::measure(|| {
            let dir = Directory::new(4);
            for i in (0..10_000).step_by(7) {
                dir.entry(i).store(1, Ordering::SeqCst);
            }
            let nodes = dir.node_count();
            assert!(dir.height() >= 4);
            let before = skiptrie_metrics::snapshot();
            drop(dir);
            let freed = skiptrie_metrics::snapshot().since(&before);
            assert!(
                freed.get(Counter::DirNodeFreed) >= nodes as u64,
                "drop must free all {nodes} nodes"
            );
        });
    }

    #[test]
    #[should_panic(expected = "segment_bits")]
    fn rejects_degenerate_fanout() {
        let _ = Directory::new(1);
    }
}
