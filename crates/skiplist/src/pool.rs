//! A type-stable node pool over the workspace's slab allocator.
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
//!    each have a [`SlabPool`] of their own: memory handed out as a level-0 node is
//!    only ever reused as a level-0 node, and the same holds for tower nodes (which
//!    still move between levels 1 and up). So the header of any node this pool ever
//!    carved names its layout truthfully, stale or not.
//!
//! The slabs, their 2-MiB arenas, the bulk [`Run`] and the sharded free lists are
//! [`skiptrie_atomics::slab`]'s; this module adds the roles and the poisoning. A
//! node is `size_of` its layout, a whole number of lines (see [`crate::node`]), so
//! a slot of a 64-byte-aligned slab is a line-aligned node.
//!
//! The pool is per-structure; dropping the structure drops the pool and only then is
//! memory returned to the allocator.

use std::alloc::Layout;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;

use skiptrie_atomics::slab::{self, SlabPool, Slot};
use skiptrie_atomics::tagged;
use skiptrie_metrics::{self as metrics, Counter};

use crate::node::{HeaderFirst, Leaf, Node, Role, Tower, STATUS_SEQ_UNIT, STATUS_STOP};

/// Index of a role in the per-role array below.
fn slot(role: Role) -> usize {
    match role {
        Role::Leaf => 0,
        Role::Tower => 1,
    }
}

/// A type-stable, role-stable pool of skiplist nodes (see module docs).
pub(crate) struct NodePool<V> {
    /// The slots of each role (index [`slot`]).
    slabs: [SlabPool; 2],
    _nodes: PhantomData<V>,
}

impl<V> NodePool<V> {
    pub(crate) fn new() -> Self {
        NodePool {
            slabs: [
                SlabPool::new(Layout::new::<Leaf<V>>()),
                SlabPool::new(Layout::new::<Tower<V>>()),
            ],
            _nodes: PhantomData,
        }
    }

    /// A level-0 node: recycled, or carved fresh. The returned node is in the
    /// poisoned state; the caller initializes every field except `status` (whose
    /// sequence number must be preserved) before publishing it.
    pub(crate) fn acquire(&self) -> *mut Leaf<V> {
        self.take(Role::Leaf, Leaf::empty)
    }

    /// A tower node (level ≥ 1), on the same terms as [`NodePool::acquire`].
    pub(crate) fn acquire_tower(&self) -> *mut Tower<V> {
        self.take(Role::Tower, Tower::empty)
    }

    /// A pooled node of `role`, or `fresh()` written into a newly carved slot.
    fn take<N: HeaderFirst<V>>(&self, role: Role, fresh: fn() -> N) -> *mut N {
        metrics::record(Counter::NodeAllocated);
        let slabs = &self.slabs[slot(role)];
        debug_assert_eq!(slabs.stride(), std::mem::size_of::<N>());
        if let Some(ptr) = slabs.pop() {
            return ptr.cast();
        }
        let at = slabs.carve().cast::<N>();
        // SAFETY: a line-aligned slot, `size_of::<N>()` bytes, that no one else was
        // given.
        unsafe { at.write(fresh()) };
        at
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
        self.slabs[slot(self.poison(ptr))].push(ptr.cast());
    }

    /// Recycles a whole batch of nodes, of either role, taking each role's free-list
    /// lock once for the batch instead of once per node. Operations that unlink
    /// several nodes under one guard (a tower delete) retire them through a single
    /// deferred closure ending here.
    ///
    /// # Safety
    ///
    /// Same contract as [`NodePool::recycle`], applied to every pointer in `ptrs`.
    pub(crate) unsafe fn recycle_batch<N: HeaderFirst<V>>(&self, ptrs: Vec<*mut N>) {
        let mut by_role: [Vec<*mut u8>; 2] = [Vec::new(), Vec::new()];
        for ptr in ptrs {
            let ptr = ptr.cast::<Node<V>>();
            by_role[slot(self.poison(ptr))].push(ptr.cast());
        }
        for (slabs, ptrs) in self.slabs.iter().zip(by_role) {
            if !ptrs.is_empty() {
                slabs.push_all(ptrs);
            }
        }
    }

    /// The role of the slab `node` lies in, if it lies on a node boundary of one of
    /// this pool's slabs; `None` for an address the pool never carved.
    pub(crate) fn role_of(&self, node: *const Node<V>) -> Option<Role> {
        [Role::Leaf, Role::Tower]
            .into_iter()
            .find(|&role| self.slabs[slot(role)].contains(node as usize))
    }

    /// Number of nodes carved from the slabs over the pool's lifetime.
    pub(crate) fn allocated(&self) -> usize {
        self.slabs.iter().map(SlabPool::allocated).sum()
    }

    /// Bytes of slab the pool holds: live, pooled and not yet carved nodes alike.
    pub(crate) fn slab_bytes(&self) -> usize {
        self.slabs.iter().map(SlabPool::slab_bytes).sum()
    }

    /// Number of recycle operations over the pool's lifetime.
    pub(crate) fn recycled(&self) -> usize {
        self.slabs.iter().map(SlabPool::recycled).sum()
    }

    /// Number of nodes currently sitting in the free lists (all shards, both roles).
    pub(crate) fn free_len(&self) -> usize {
        self.slabs.iter().map(SlabPool::free_len).sum()
    }
}

/// Nodes of one layout for a single owner that makes many at once (a bulk load):
/// a [`slab::Run`] over the layout's slabs, whose freshly carved slots are written
/// `fresh()` and whose pooled ones come as they were poisoned.
pub(crate) struct Run<'p, V, N> {
    run: slab::Run<'p>,
    fresh: fn() -> N,
    _nodes: PhantomData<V>,
}

impl<'p, V, N: HeaderFirst<V>> Run<'p, V, N> {
    /// An empty run over `pool`'s `role` slabs, whose fresh nodes are `fresh()`, for
    /// an owner that will take at least `left` nodes.
    pub(crate) fn new(pool: &'p NodePool<V>, role: Role, fresh: fn() -> N, left: usize) -> Self {
        debug_assert_eq!(pool.slabs[slot(role)].stride(), std::mem::size_of::<N>());
        Run {
            run: slab::Run::new(&pool.slabs[slot(role)], left),
            fresh,
            _nodes: PhantomData,
        }
    }

    /// A node in the poisoned state, on [`NodePool::acquire`]'s terms.
    pub(crate) fn take(&mut self) -> *mut N {
        metrics::record(Counter::NodeAllocated);
        match self.run.take() {
            Slot::Pooled(ptr) => ptr.cast(),
            Slot::Carved(ptr) => {
                let at = ptr.cast::<N>();
                // SAFETY: a line-aligned slot, `size_of::<N>()` bytes, that only
                // this run was given.
                unsafe { at.write((self.fresh)()) };
                at
            }
        }
    }
}

#[cfg(test)]
impl<V> NodePool<V> {
    /// `(start address, bytes)` of every slab of `role`, by address.
    pub(crate) fn slabs_of(&self, role: Role) -> Vec<(usize, usize)> {
        self.slabs[slot(role)].slab_list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrie_atomics::slab::{ARENA, ARENA_AFTER, FIRST_SLAB, MAX_SLAB};

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
        let slabs = pool.slabs_of(Role::Leaf);
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
