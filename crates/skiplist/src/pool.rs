//! A type-stable node pool, carved from line-aligned slabs.
//!
//! Skiplist nodes are never handed back to the global allocator while their structure
//! is alive: "freeing" a node recycles it into this pool (after epoch quiescence), and
//! allocation pops a recycled node if one is available. Three properties follow:
//!
//! 1. **Memory safety for DCSS helpers.** A helper completing someone else's DCSS may
//!    dereference the descriptor's guard pointer (a node's status word) after the node
//!    has been logically freed; because the memory is still a valid node, the read is
//!    well-defined, and the incarnation sequence number bumped by [`NodePool::recycle`]
//!    makes the guard comparison fail, so the helper reaches the correct verdict.
//! 2. **Defensive traversal.** Recycled nodes waiting in the pool are *poisoned*
//!    (marked `next`, `u64::MAX` key, null guides), so any traversal that reaches one
//!    through a stale hint sees an obviously-deleted node and falls back to a sentinel.
//! 3. **Role stability.** The two node layouts ([`Leaf`] for level 0, [`Tower`] above)
//!    are carved from slabs of their own and kept on free lists of their own: memory
//!    handed out as a level-0 node is only ever reused as a level-0 node, and the same
//!    holds for tower nodes (which still move between levels 1 and up). So the header
//!    of any node this pool ever carved names its layout truthfully, stale or not.
//!
//! A slab is one 64-byte-aligned allocation cut into nodes of one layout, back to
//! back: `size_of` of the layout apart, a whole number of lines (see
//! [`crate::node`]). The first slab of a layout is [`FIRST_SLAB`] bytes, each later one
//! twice the last, up to [`MAX_SLAB`], so a structure that stays small (a mostly-empty
//! delta) holds little more than its sentinels, and a large one makes few allocations.
//!
//! A large structure's nodes sit on 2-MiB pages instead: a slab may be an *arena*,
//! [`ARENA`] bytes, `ARENA`-aligned and advised `MADV_HUGEPAGE`, so one TLB entry
//! covers 32 768 one-line nodes where a 4-KiB page covers 64 (a descent's dependent
//! loads otherwise also pay a page walk each once the nodes outgrow the STLB's
//! reach). A layout takes an arena only when the arena carries no slack:
//!
//! * (a) a bulk load's [`Run`] still has at least `ARENA` bytes of nodes left to
//!   carve, so the arena will be carved whole (the run takes it at once; the rest
//!   of a smaller slab it skips is carved later, before any new small slab); or
//! * (b) the layout already holds [`ARENA_AFTER`] bytes of slab (16 arenas), so the
//!   one arena that may stay partly carved is at most 1/16 of what it holds, and
//!   less as it grows.
//!
//! Every other slab stays on the doubling rule above, so a small structure's bytes
//! do not move. The advice is a hint: where transparent huge pages are off, or on a
//! system other than Linux, an arena is just a large slab.
//!
//! The pool is per-structure; dropping the structure drops the pool and only then is
//! memory returned to the allocator.

use std::alloc::{self, Layout};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use skiptrie_atomics::tagged;
use skiptrie_metrics::{self as metrics, Counter};

use crate::node::{HeaderFirst, Leaf, Node, Role, Tower, STATUS_SEQ_UNIT, STATUS_STOP};

/// Number of independently locked free-list shards. Threads are spread over shards
/// round-robin, so concurrent acquire/recycle traffic rarely meets on a lock — and a
/// thread descheduled while holding one shard no longer convoys every other thread.
const POOL_SHARDS: usize = 8;

/// Bytes of a layout's first slab.
const FIRST_SLAB: usize = 1 << 10;
/// Bytes past which a layout's slabs stop doubling.
pub(crate) const MAX_SLAB: usize = 1 << 14;
/// Bytes (and alignment) of an arena: one 2-MiB page.
pub(crate) const ARENA: usize = 2 << 20;
/// Slab bytes of one layout from which every new slab of it is an arena.
const ARENA_AFTER: usize = 16 * ARENA;

/// Round-robin source for [`my_shard`] assignments.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The shard this thread prefers for both acquire and recycle.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % POOL_SHARDS;
}

/// This thread's home shard (falls back to 0 during thread-local teardown).
fn my_shard() -> usize {
    MY_SHARD.try_with(|s| *s).unwrap_or(0)
}

/// Index of a role in the per-role arrays below.
fn slot(role: Role) -> usize {
    match role {
        Role::Leaf => 0,
        Role::Tower => 1,
    }
}

/// The slabs of one layout.
struct Slabs {
    /// The layout carved: its size is the stride, its alignment the slabs'.
    node: Layout,
    /// `(start address, bytes)` of every slab, sorted by address.
    owned: Vec<(usize, usize)>,
    /// The uncarved rest of the newest slab: `cursor..end`.
    cursor: usize,
    end: usize,
    /// The uncarved rest of an older slab, set aside when a bulk load took an
    /// arena before that slab was spent (see [`Slabs::refill`]).
    spare: (usize, usize),
    /// Bytes of the newest slab (0 before the first).
    last: usize,
    /// Bytes of all the slabs.
    held: usize,
}

impl Slabs {
    fn new(node: Layout) -> Mutex<Self> {
        Mutex::new(Slabs {
            node,
            owned: Vec::new(),
            cursor: 0,
            end: 0,
            spare: (0, 0),
            last: 0,
            held: 0,
        })
    }

    /// The layout a slab of `bytes` was allocated with. Only an arena is `ARENA`
    /// bytes (a layout that may take arenas is smaller than one, and the doubling
    /// stops far below), and only an arena is aligned past the node.
    fn layout(&self, bytes: usize) -> Layout {
        let align = if bytes == ARENA && self.node.size() < ARENA {
            ARENA
        } else {
            self.node.align()
        };
        Layout::from_size_align(bytes, align).expect("slab layout")
    }

    /// Makes the uncarved rest hold at least one node, for a carver that will
    /// still carve `left` bytes of nodes (0 when it does not know), and returns the
    /// bytes of slab allocated for it (0 when none was). The new slab is an arena
    /// in the two cases of the module docs. A carver with an arena's worth left
    /// gets its arena at once: the rest of a smaller newest slab is set aside as
    /// the spare, which the next carving that takes no arena uses up before any
    /// slab is allocated. (Carved first, the 14 nodes left beside a fresh list's
    /// sentinels would leave a 131 072-key load 14 nodes short of its fourth
    /// level-0 arena.)
    fn refill(&mut self, left: usize) -> usize {
        let stride = self.node.size();
        let arena = stride < ARENA && (left >= ARENA || self.held >= ARENA_AFTER);
        let has_rest = self.end - self.cursor >= stride;
        let spare_empty = self.spare.0 == self.spare.1;
        if left >= ARENA && arena && has_rest && self.last != ARENA && spare_empty {
            self.spare = (self.cursor, self.end);
        } else if has_rest {
            return 0;
        } else if !arena && !spare_empty {
            (self.cursor, self.end) = std::mem::take(&mut self.spare);
            return 0;
        }
        self.grow(arena)
    }

    /// Allocates the next slab, an arena or twice the last (at least one node),
    /// and makes all of it the uncarved rest. Returns its bytes.
    fn grow(&mut self, arena: bool) -> usize {
        let bytes = if arena {
            ARENA
        } else {
            (self.last * 2)
                .clamp(FIRST_SLAB, MAX_SLAB)
                .max(self.node.size())
        };
        let layout = self.layout(bytes);
        // SAFETY: `bytes` is non-zero.
        let start = unsafe { alloc::alloc(layout) };
        if start.is_null() {
            alloc::handle_alloc_error(layout);
        }
        if arena {
            advise_huge_pages(start, ARENA);
        }
        let start = start as usize;
        let at = self.owned.partition_point(|&(s, _)| s < start);
        self.owned.insert(at, (start, bytes));
        self.cursor = start;
        self.end = start + bytes;
        self.last = bytes;
        self.held += bytes;
        bytes
    }
}

/// Advises the kernel to back `bytes` from `start` with transparent huge pages,
/// before anything touches them. The advice is a hint, so its result is ignored:
/// under THP `never` the memory simply stays on 4-KiB pages.
#[cfg(target_os = "linux")]
fn advise_huge_pages(start: *mut u8, bytes: usize) {
    use std::ffi::{c_int, c_void};
    /// `MADV_HUGEPAGE` in `<sys/mman.h>`.
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    // SAFETY: `start..start + bytes` is one allocation this pool owns; the advice
    // changes no byte of it and no mapping's protection.
    unsafe { madvise(start.cast(), bytes, MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_start: *mut u8, _bytes: usize) {}

/// A type-stable, role-stable pool of skiplist nodes (see module docs).
pub(crate) struct NodePool<V> {
    /// Per shard, one free list per role (index [`slot`]), both under the shard's lock.
    free: [Mutex<[Vec<*mut Node<V>>; 2]>; POOL_SHARDS],
    /// Approximate number of nodes of each role across all shards (kept in step with
    /// the pushes and pops below). Lets a growth-phase `acquire` — every free list
    /// empty — go straight to the slabs instead of sweeping all eight shard locks.
    free_count: [AtomicUsize; 2],
    /// The slabs of each role.
    slabs: [Mutex<Slabs>; 2],
    /// Bytes of slab the pool holds, both roles.
    slab_bytes: AtomicUsize,
    /// Total nodes ever carved from the slabs by this pool.
    allocated: AtomicUsize,
    /// Total recycle operations (for space-accounting experiments).
    recycled: AtomicUsize,
    _nodes: PhantomData<V>,
}

// SAFETY: the raw pointers in the free lists and slabs are owned exclusively by the
// pool.
unsafe impl<V: Send> Send for NodePool<V> {}
unsafe impl<V: Send> Sync for NodePool<V> {}

impl<V> NodePool<V> {
    pub(crate) fn new() -> Self {
        NodePool {
            free: std::array::from_fn(|_| Mutex::new([Vec::new(), Vec::new()])),
            free_count: std::array::from_fn(|_| AtomicUsize::new(0)),
            slabs: [
                Slabs::new(Layout::new::<Leaf<V>>()),
                Slabs::new(Layout::new::<Tower<V>>()),
            ],
            slab_bytes: AtomicUsize::new(0),
            allocated: AtomicUsize::new(0),
            recycled: AtomicUsize::new(0),
            _nodes: PhantomData,
        }
    }

    /// A level-0 node: recycled, or carved fresh. The returned node is in the
    /// poisoned state; the caller initializes every field except `status` (whose
    /// sequence number must be preserved) before publishing it.
    pub(crate) fn acquire(&self) -> *mut Leaf<V> {
        self.pop(Role::Leaf)
            .unwrap_or_else(|| self.carve(Role::Leaf, Leaf::empty))
            .cast()
    }

    /// A tower node (level ≥ 1), on the same terms as [`NodePool::acquire`].
    pub(crate) fn acquire_tower(&self) -> *mut Tower<V> {
        self.pop(Role::Tower)
            .unwrap_or_else(|| self.carve(Role::Tower, Tower::empty))
            .cast()
    }

    /// Pops a recycled node of `role`, if there is one.
    ///
    /// The home shard is tried first; on a miss the other shards are scanned (nodes
    /// are interchangeable, only the lock is sharded) — but only while the
    /// approximate free count says there is something to find, so a growing
    /// structure takes no shard lock per allocation.
    fn pop(&self, role: Role) -> Option<*mut Node<V>> {
        metrics::record(Counter::NodeAllocated);
        let r = slot(role);
        if self.free_count[r].load(Ordering::Relaxed) == 0 {
            return None;
        }
        let home = my_shard();
        (0..POOL_SHARDS).find_map(|i| {
            let ptr = self.free[(home + i) % POOL_SHARDS]
                .lock()
                .expect("node pool poisoned")[r]
                .pop()?;
            self.free_count[r].fetch_sub(1, Ordering::Relaxed);
            Some(ptr)
        })
    }

    /// Writes a `fresh()` node of `role` into the next stride of the role's newest
    /// slab, allocating a slab when the newest one is spent.
    fn carve<N: HeaderFirst<V>>(&self, role: Role, fresh: fn() -> N) -> *mut Node<V> {
        let mut slabs = self.slabs[slot(role)].lock().expect("node pool poisoned");
        let stride = slabs.node.size();
        debug_assert_eq!(slabs.node, Layout::new::<N>());
        let grown = slabs.refill(0);
        if grown > 0 {
            self.slab_bytes.fetch_add(grown, Ordering::Relaxed);
        }
        let at = slabs.cursor as *mut N;
        slabs.cursor += stride;
        drop(slabs);
        self.allocated.fetch_add(1, Ordering::Relaxed);
        // SAFETY: a line-aligned stretch of slab, `size_of::<N>()` bytes, that no one
        // else was given.
        unsafe { at.write(fresh()) };
        at.cast()
    }

    /// Takes `role`'s slab lock once and hands out the uncarved rest of the newest
    /// slab, `(start, end)`, refilled first when that one is spent; `left` is the
    /// bytes of nodes the caller will still carve (see [`Slabs::refill`]). A
    /// [`Run`] carves it.
    fn rest_of_slab<N: HeaderFirst<V>>(&self, role: Role, left: usize) -> (usize, usize) {
        let mut slabs = self.slabs[slot(role)].lock().expect("node pool poisoned");
        debug_assert_eq!(slabs.node, Layout::new::<N>());
        let grown = slabs.refill(left);
        if grown > 0 {
            self.slab_bytes.fetch_add(grown, Ordering::Relaxed);
        }
        let rest = (slabs.cursor, slabs.end);
        slabs.cursor = slabs.end;
        rest
    }

    /// Poisons a quiescent node: bumps the incarnation and clears STOP (so stale DCSS
    /// guards referencing the old incarnation can never match again), marks the
    /// traversal-visible fields as obviously-deleted, and drops a level-0 node's
    /// value. Returns the node's role.
    ///
    /// # Safety
    ///
    /// Same contract as [`NodePool::recycle`]; the node must be quiescent (single
    /// writer).
    unsafe fn poison(&self, ptr: *mut Node<V>) -> Role {
        metrics::record(Counter::NodeRetired);
        let node = &*ptr;
        // Bump the incarnation and clear STOP (single writer here: quiescent node).
        let seq = node.status.load(Ordering::SeqCst) & !STATUS_STOP;
        node.status.store(seq + STATUS_SEQ_UNIT, Ordering::SeqCst);
        // Poison.
        node.key.store(u64::MAX, Ordering::SeqCst);
        node.next
            .store(tagged::with_mark(tagged::NULL), Ordering::SeqCst);
        node.back.store(tagged::NULL, Ordering::SeqCst);
        if let Some(tower) = node.tower() {
            tower.prev.store(tagged::NULL, Ordering::SeqCst);
            tower.down.store(tagged::NULL, Ordering::SeqCst);
            tower.root.store(tagged::NULL, Ordering::SeqCst);
        }
        if let Some(leaf) = node.leaf() {
            drop((*leaf.value.get()).take());
        }
        self.recycled.fetch_add(1, Ordering::Relaxed);
        node.role()
    }

    /// Recycles a node whose memory can no longer be reached by any pinned thread
    /// (i.e. from an epoch-deferred callback, or for nodes that were never published)
    /// onto the free list of its role.
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by [`NodePool::acquire`] or
    /// [`NodePool::acquire_tower`] of this pool, must not be reachable from the
    /// structure, and must not be recycled twice.
    pub(crate) unsafe fn recycle<N: HeaderFirst<V>>(&self, ptr: *mut N) {
        let ptr = ptr.cast::<Node<V>>();
        let r = slot(self.poison(ptr));
        // Count before push: every poppable node has been counted, so the matching
        // decrement in `pop` can never transiently underflow the counter.
        self.free_count[r].fetch_add(1, Ordering::Relaxed);
        self.free[my_shard()].lock().expect("node pool poisoned")[r].push(ptr);
    }

    /// Recycles a whole batch of nodes, of either role, taking the free-list lock once
    /// for the batch instead of once per node. Operations that unlink several nodes
    /// under one guard (a tower delete) retire them through a single deferred closure
    /// ending here.
    ///
    /// # Safety
    ///
    /// Same contract as [`NodePool::recycle`], applied to every pointer in `ptrs`.
    pub(crate) unsafe fn recycle_batch<N: HeaderFirst<V>>(&self, ptrs: Vec<*mut N>) {
        let mut count = [0usize; 2];
        let nodes: Vec<(usize, *mut Node<V>)> = ptrs
            .into_iter()
            .map(|ptr| {
                let ptr = ptr.cast::<Node<V>>();
                let r = slot(self.poison(ptr));
                count[r] += 1;
                (r, ptr)
            })
            .collect();
        // Count before push (see `recycle`).
        for (free_count, n) in self.free_count.iter().zip(count) {
            free_count.fetch_add(n, Ordering::Relaxed);
        }
        let mut free = self.free[my_shard()].lock().expect("node pool poisoned");
        for (r, ptr) in nodes {
            free[r].push(ptr);
        }
    }

    /// The role of the slab `node` lies in, if it lies on a node boundary of one of
    /// this pool's slabs; `None` for an address the pool never carved.
    pub(crate) fn role_of(&self, node: *const Node<V>) -> Option<Role> {
        let addr = node as usize;
        [Role::Leaf, Role::Tower].into_iter().find(|&role| {
            let slabs = self.slabs[slot(role)].lock().expect("node pool poisoned");
            let at = slabs.owned.partition_point(|&(start, _)| start <= addr);
            at > 0 && {
                let (start, bytes) = slabs.owned[at - 1];
                addr < start + bytes && (addr - start).is_multiple_of(slabs.node.size())
            }
        })
    }

    /// Number of nodes carved from the slabs over the pool's lifetime.
    pub(crate) fn allocated(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Bytes of slab the pool holds: live, pooled and not yet carved nodes alike.
    pub(crate) fn slab_bytes(&self) -> usize {
        self.slab_bytes.load(Ordering::Relaxed)
    }

    /// Number of recycle operations over the pool's lifetime.
    pub(crate) fn recycled(&self) -> usize {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Number of nodes currently sitting in the free lists (all shards, both roles).
    pub(crate) fn free_len(&self) -> usize {
        self.free
            .iter()
            .map(|shard| {
                let lists = shard.lock().expect("node pool poisoned");
                lists[0].len() + lists[1].len()
            })
            .sum()
    }
}

/// Nodes of one layout for a single owner that makes many at once (a bulk load),
/// carved a slab run at a time: the slab lock is taken once per run, not once per
/// node, and [`NodePool::allocated`] is counted once, when the run is dropped.
/// Pooled nodes still come first, as in [`NodePool::acquire`]. The run is told how
/// many nodes its owner will take at least, and counts that down per node: while
/// an arena's worth is left, a new slab is an arena (case (a) of the module docs).
/// Dropping the run hands its uncarved tail back to the slab, so the next carve
/// goes on where the run stopped (also in an arena whose count was overstated),
/// and the pool's counts stay what node-by-node carving would have left.
pub(crate) struct Run<'p, V, N> {
    pool: &'p NodePool<V>,
    role: Role,
    fresh: fn() -> N,
    /// The run's uncarved rest: `next..end`.
    next: usize,
    end: usize,
    /// Nodes carved from the run so far.
    carved: usize,
    /// Nodes the owner said it will still take.
    left: usize,
}

impl<'p, V, N: HeaderFirst<V>> Run<'p, V, N> {
    /// An empty run over `pool`'s `role` slabs, whose fresh nodes are `fresh()`, for
    /// an owner that will take at least `left` nodes.
    pub(crate) fn new(pool: &'p NodePool<V>, role: Role, fresh: fn() -> N, left: usize) -> Self {
        Run {
            pool,
            role,
            fresh,
            next: 0,
            end: 0,
            carved: 0,
            left,
        }
    }

    /// A node in the poisoned state, on [`NodePool::acquire`]'s terms: a pooled one,
    /// or `fresh()` written into the next stride of the run, which takes the rest of
    /// the newest slab when it is spent.
    pub(crate) fn take(&mut self) -> *mut N {
        let stride = std::mem::size_of::<N>();
        let left = self.left.saturating_mul(stride);
        self.left = self.left.saturating_sub(1);
        if let Some(ptr) = self.pool.pop(self.role) {
            return ptr.cast();
        }
        if self.end - self.next < stride {
            (self.next, self.end) = self.pool.rest_of_slab::<N>(self.role, left);
        }
        let at = self.next as *mut N;
        self.next += stride;
        self.carved += 1;
        // SAFETY: a line-aligned stretch of slab, `size_of::<N>()` bytes, that only
        // this run was given.
        unsafe { at.write((self.fresh)()) };
        at
    }
}

impl<V, N> Drop for Run<'_, V, N> {
    fn drop(&mut self) {
        self.pool
            .allocated
            .fetch_add(self.carved, Ordering::Relaxed);
        if self.next == self.end {
            return;
        }
        let mut slabs = self.pool.slabs[slot(self.role)]
            .lock()
            .expect("node pool poisoned");
        // Only the newest slab's uncarved rest can go back.
        if (slabs.cursor, slabs.end) == (self.end, self.end) {
            slabs.cursor = self.next;
        }
    }
}

#[cfg(test)]
impl<V> NodePool<V> {
    /// `(start address, bytes)` of every slab of `role`, by address.
    pub(crate) fn slabs_of(&self, role: Role) -> Vec<(usize, usize)> {
        self.slabs[slot(role)]
            .lock()
            .expect("node pool poisoned")
            .owned
            .clone()
    }
}

impl<V> Drop for NodePool<V> {
    /// Frees the slabs. Every value has been dropped by then: pooled nodes' when they
    /// were poisoned, linked nodes' by the structure's own `Drop`.
    fn drop(&mut self) {
        for slabs in &mut self.slabs {
            let slabs = slabs.get_mut().expect("node pool poisoned");
            for &(start, bytes) in &slabs.owned {
                // SAFETY: allocated in `grow` with this very layout, freed once.
                unsafe { alloc::dealloc(start as *mut u8, slabs.layout(bytes)) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_allocates_then_reuses() {
        let pool: NodePool<u64> = NodePool::new();
        let a = pool.acquire();
        let b = pool.acquire();
        assert_ne!(a, b);
        assert_eq!(pool.allocated(), 2);
        unsafe { pool.recycle(a) };
        assert_eq!(pool.free_len(), 1);
        let c = pool.acquire();
        assert_eq!(c, a, "recycled node is reused");
        assert_eq!(pool.allocated(), 2, "no new system allocation");
        unsafe {
            pool.recycle(b);
            pool.recycle(c);
        }
    }

    #[test]
    fn recycle_batch_reuses_all_nodes() {
        let pool: NodePool<u64> = NodePool::new();
        let ptrs: Vec<_> = (0..8).map(|_| pool.acquire()).collect();
        assert_eq!(pool.allocated(), 8);
        unsafe { pool.recycle_batch(ptrs.clone()) };
        assert_eq!(pool.free_len(), 8);
        assert_eq!(pool.recycled(), 8);
        // Every subsequent acquire is served from the pool, not the allocator.
        let again: Vec<_> = (0..8).map(|_| pool.acquire()).collect();
        assert_eq!(pool.allocated(), 8, "no new system allocation");
        let mut original: Vec<_> = ptrs.iter().map(|p| *p as usize).collect();
        let mut reused: Vec<_> = again.iter().map(|p| *p as usize).collect();
        original.sort_unstable();
        reused.sort_unstable();
        assert_eq!(original, reused, "the same memory is recycled");
        unsafe { pool.recycle_batch(again) };
    }

    #[test]
    fn recycle_bumps_sequence_and_clears_stop() {
        let pool: NodePool<u64> = NodePool::new();
        let ptr = pool.acquire();
        let before = unsafe { (*ptr).status.load(Ordering::SeqCst) };
        unsafe { (*ptr).set_stop() };
        unsafe { pool.recycle(ptr) };
        let after = unsafe { (*ptr).status.load(Ordering::SeqCst) };
        assert_eq!(after & STATUS_STOP, 0, "STOP cleared");
        assert_eq!(after, (before & !STATUS_STOP) + STATUS_SEQ_UNIT);
    }

    #[test]
    fn recycle_drops_the_value() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        let pool: NodePool<Tracked> = NodePool::new();
        let ptr = pool.acquire();
        unsafe {
            *(*ptr).value.get() = Some(Tracked(Arc::clone(&drops)));
            pool.recycle(ptr);
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_frees_pooled_nodes() {
        let pool: NodePool<u64> = NodePool::new();
        let ptrs: Vec<_> = (0..16).map(|_| pool.acquire()).collect();
        for p in ptrs {
            unsafe { pool.recycle(p) };
        }
        assert_eq!(pool.free_len(), 16);
        drop(pool); // must not leak or double-free (asserted by miri/asan runs)
    }

    #[test]
    fn a_recycled_node_comes_back_in_its_own_role_only() {
        let pool: NodePool<u64> = NodePool::new();
        let leaves: Vec<_> = (0..40).map(|_| pool.acquire()).collect();
        let towers: Vec<_> = (0..40).map(|_| pool.acquire_tower()).collect();
        let as_node = |p: *mut Leaf<u64>| p.cast::<Node<u64>>().cast_const();
        let as_tower_node = |p: *mut Tower<u64>| p.cast::<Node<u64>>().cast_const();
        assert!(leaves
            .iter()
            .all(|&p| pool.role_of(as_node(p)) == Some(Role::Leaf)));
        assert!(towers
            .iter()
            .all(|&p| pool.role_of(as_tower_node(p)) == Some(Role::Tower)));
        let mut leaf_addrs: Vec<usize> = leaves.iter().map(|&p| p as usize).collect();
        let mut tower_addrs: Vec<usize> = towers.iter().map(|&p| p as usize).collect();
        // Retired together, as a tower delete retires its nodes.
        let mixed: Vec<*mut Node<u64>> = leaves
            .iter()
            .map(|&p| p.cast())
            .chain(towers.iter().map(|&p| p.cast()))
            .collect();
        unsafe { pool.recycle_batch(mixed) };
        let carved = pool.allocated();
        let mut again_towers: Vec<usize> = (0..40).map(|_| pool.acquire_tower() as usize).collect();
        let mut again_leaves: Vec<usize> = (0..40).map(|_| pool.acquire() as usize).collect();
        assert_eq!(
            pool.allocated(),
            carved,
            "every node came from the free lists"
        );
        for addrs in [
            &mut leaf_addrs,
            &mut tower_addrs,
            &mut again_leaves,
            &mut again_towers,
        ] {
            addrs.sort_unstable();
        }
        assert_eq!(again_leaves, leaf_addrs, "leaves come back as leaves");
        assert_eq!(
            again_towers, tower_addrs,
            "tower nodes come back as tower nodes"
        );
        assert_eq!(pool.role_of(std::ptr::null()), None);
        unsafe {
            for &a in &again_leaves {
                pool.recycle(a as *mut Leaf<u64>);
            }
            for &a in &again_towers {
                pool.recycle(a as *mut Tower<u64>);
            }
        }
    }

    #[test]
    fn slabs_are_line_aligned_and_grow_geometrically() {
        let pool: NodePool<u64> = NodePool::new();
        let leaves: Vec<usize> = (0..5_000).map(|_| pool.acquire() as usize).collect();
        assert!(
            leaves.iter().all(|a| a.is_multiple_of(64)),
            "every node starts a line"
        );
        let slabs = pool.slabs[slot(Role::Leaf)].lock().unwrap().owned.clone();
        assert!(slabs.iter().all(|&(start, _)| start.is_multiple_of(64)));
        let mut sizes: Vec<usize> = slabs.iter().map(|&(_, bytes)| bytes).collect();
        sizes.sort_unstable();
        assert_eq!(sizes[0], FIRST_SLAB);
        assert_eq!(*sizes.last().unwrap(), MAX_SLAB);
        let total: usize = sizes.iter().sum();
        assert_eq!(pool.slab_bytes(), total);
        assert!(total < 5_000 * 64 + MAX_SLAB, "at most one slab's slack");
        let doublings = (MAX_SLAB / FIRST_SLAB).ilog2() as usize;
        assert!(
            slabs.len() <= doublings + 1 + 5_000 * 64 / MAX_SLAB,
            "{} slabs for 5 000 nodes",
            slabs.len()
        );
        for a in leaves {
            unsafe { pool.recycle(a as *mut Leaf<u64>) };
        }
    }

    #[test]
    fn a_layout_past_sixteen_arenas_of_slab_grows_by_arenas() {
        let pool: NodePool<u64> = NodePool::new();
        while pool.slab_bytes() < ARENA_AFTER {
            pool.acquire();
        }
        assert!(
            pool.slabs_of(Role::Leaf)
                .iter()
                .all(|&(_, bytes)| bytes <= MAX_SLAB),
            "no arena below the threshold"
        );
        assert_eq!(pool.slabs_of(Role::Tower), Vec::new());
        let held = pool.slab_bytes();
        while pool.slab_bytes() == held {
            pool.acquire();
        }
        assert_eq!(pool.slab_bytes() - held, ARENA, "the next slab is an arena");
        let arenas: Vec<usize> = pool
            .slabs_of(Role::Leaf)
            .into_iter()
            .filter(|&(_, bytes)| bytes == ARENA)
            .map(|(start, _)| start)
            .collect();
        assert_eq!(arenas.len(), 1);
        assert!(arenas[0].is_multiple_of(ARENA), "an arena is 2-MiB-aligned");
        // The other layout holds nothing, so its first slab is still small.
        let tower = pool.acquire_tower();
        assert_eq!(
            pool.slabs_of(Role::Tower),
            vec![(tower as usize, FIRST_SLAB)]
        );
    }

    #[test]
    fn a_node_too_big_for_a_line_takes_whole_lines() {
        let pool: NodePool<[u64; 8]> = NodePool::new();
        let stride = std::mem::size_of::<Leaf<[u64; 8]>>();
        assert_eq!(stride, 128);
        let a = pool.acquire() as usize;
        let b = pool.acquire() as usize;
        assert_eq!((a % 64, b - a), (0, stride), "back to back in one slab");
        unsafe {
            pool.recycle(a as *mut Leaf<[u64; 8]>);
            pool.recycle(b as *mut Leaf<[u64; 8]>);
        }
    }
}
