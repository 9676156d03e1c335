//! Type-stable slab allocation for the nodes a structure allocates in bulk: the
//! skiplist's two node layouts and the split-ordered map's entries.
//!
//! A [`SlabPool`] hands out *slots* of one layout. Slots are never handed back to
//! the global allocator while the pool is alive: a caller "frees" a slot by pushing
//! it onto the pool's free lists (for a concurrent structure, after epoch
//! quiescence), and the next allocation pops it. So memory handed out as a slot of
//! this pool stays a slot of this layout until the pool drops, which is what lets a
//! stale reader of a recycled node read a well-defined value. What a slot holds
//! while it is pooled (poisoned fields, a dropped value) is the owner's business.
//!
//! A slab is one allocation cut into slots, back to back, `size_of` the layout
//! apart. The first slab is [`FIRST_SLAB`] bytes, each later one twice the last, up
//! to [`MAX_SLAB`], so a structure that stays small (a mostly-empty delta) holds
//! little more than its sentinels, and a large one makes few allocations.
//!
//! A large structure's slots sit on 2-MiB pages instead: a slab may be an *arena*,
//! [`ARENA`] bytes, `ARENA`-aligned and advised `MADV_HUGEPAGE`, so one TLB entry
//! covers 32 768 one-line nodes where a 4-KiB page covers 64 (a descent's dependent
//! loads otherwise also pay a page walk each once the nodes outgrow the STLB's
//! reach). A layout takes an arena only when the arena carries no slack:
//!
//! * (a) a bulk carver ([`Run`], [`SlabPool::reserve`]) still has at least `ARENA`
//!   bytes of slots left to carve, so the arena will be carved whole (a `Run` takes
//!   it at once; the rest of a smaller slab it skips is carved later, before any
//!   new small slab); or
//! * (b) the layout already holds [`ARENA_AFTER`] bytes of slab (16 arenas), so the
//!   one arena that may stay partly carved is at most 1/16 of what it holds, and
//!   less as it grows.
//!
//! Every other slab stays on the doubling rule above, so a small structure's bytes
//! do not move. The advice is a hint: where transparent huge pages are off, or on a
//! system other than Linux, an arena is just a large slab.
//!
//! The free lists are sharded eight ways, one lock each; threads are
//! spread over the shards round-robin, so concurrent pop/push traffic rarely meets
//! on a lock, and a thread descheduled while holding one shard convoys no other.

use std::alloc::{self, Layout};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of independently locked free-list shards.
const POOL_SHARDS: usize = 8;

/// Bytes of a layout's first slab.
pub const FIRST_SLAB: usize = 1 << 10;
/// Bytes past which a layout's slabs stop doubling.
pub const MAX_SLAB: usize = 1 << 14;
/// Bytes (and alignment) of an arena: one 2-MiB page.
pub const ARENA: usize = 2 << 20;
/// Slab bytes of one layout from which every new slab of it is an arena.
pub const ARENA_AFTER: usize = 16 * ARENA;

/// Round-robin source for [`my_shard`] assignments.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The shard this thread prefers for both pop and push.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % POOL_SHARDS;
}

/// This thread's home shard (falls back to 0 during thread-local teardown).
fn my_shard() -> usize {
    MY_SHARD.try_with(|s| *s).unwrap_or(0)
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
    /// The layout a slab of `bytes` was allocated with. Only an arena is `ARENA`
    /// bytes (a layout that may take arenas is smaller than one, the doubling stops
    /// far below, and an exact block is smaller than an arena), and only an arena
    /// is aligned past the node.
    fn layout(&self, bytes: usize) -> Layout {
        let align = if bytes == ARENA && self.node.size() < ARENA {
            ARENA
        } else {
            self.node.align()
        };
        Layout::from_size_align(bytes, align).expect("slab layout")
    }

    /// Makes the uncarved rest hold at least one slot, for a carver that will
    /// still carve `left` bytes of slots (0 when it does not know), and returns the
    /// bytes of slab allocated for it (0 when none was). The new slab is an arena
    /// in the two cases of the module docs. A carver with an arena's worth left
    /// gets its arena at once: the rest of a smaller newest slab is set aside as
    /// the spare, which the next carving that takes no arena uses up before any
    /// slab is allocated. (Carved first, the 14 nodes left beside a fresh
    /// skiplist's sentinels would leave a 131 072-key load 14 nodes short of its
    /// fourth level-0 arena.)
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
        let bytes = if arena {
            ARENA
        } else {
            (self.last * 2).clamp(FIRST_SLAB, MAX_SLAB).max(stride)
        };
        let start = self.allocate(bytes);
        self.cursor = start;
        self.end = start + bytes;
        self.last = bytes;
        bytes
    }

    /// Allocates a slab of `bytes` (an arena when it is `ARENA`), records it, and
    /// returns its start. It is not carved from: the caller says how it is used.
    fn allocate(&mut self, bytes: usize) -> usize {
        let layout = self.layout(bytes);
        // SAFETY: `bytes` is non-zero (at least one slot).
        let start = unsafe { alloc::alloc(layout) };
        if start.is_null() {
            alloc::handle_alloc_error(layout);
        }
        if layout.align() == ARENA {
            advise_huge_pages(start, ARENA);
        }
        let start = start as usize;
        let at = self.owned.partition_point(|&(s, _)| s < start);
        self.owned.insert(at, (start, bytes));
        self.held += bytes;
        start
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

/// A type-stable pool of slots of one layout, carved from slabs (see the module
/// docs). Addresses cross its interface as raw pointers; what a slot holds is the
/// owner's to initialize, poison and drop.
pub struct SlabPool {
    /// Bytes between two neighbouring slots: the layout's size.
    stride: usize,
    /// Per shard, the addresses of pooled slots.
    free: [Mutex<Vec<usize>>; POOL_SHARDS],
    /// Approximate number of pooled slots across all shards (kept in step with the
    /// pushes and pops below). Lets a growth-phase pop — every free list empty —
    /// fail at once instead of sweeping all eight shard locks.
    free_count: AtomicUsize,
    /// The slabs.
    slabs: Mutex<Slabs>,
    /// Bytes of slab the pool holds.
    slab_bytes: AtomicUsize,
    /// Slots ever carved from the slabs.
    allocated: AtomicUsize,
    /// Slots ever pushed back.
    recycled: AtomicUsize,
}

impl SlabPool {
    /// An empty pool of slots of `node`'s size and alignment. No slab is allocated
    /// before the first slot is carved.
    ///
    /// # Panics
    ///
    /// Panics if `node` is zero-sized.
    pub fn new(node: Layout) -> Self {
        assert!(node.size() > 0, "a slot takes at least one byte");
        SlabPool {
            stride: node.size(),
            free: std::array::from_fn(|_| Mutex::new(Vec::new())),
            free_count: AtomicUsize::new(0),
            slabs: Mutex::new(Slabs {
                node,
                owned: Vec::new(),
                cursor: 0,
                end: 0,
                spare: (0, 0),
                last: 0,
                held: 0,
            }),
            slab_bytes: AtomicUsize::new(0),
            allocated: AtomicUsize::new(0),
            recycled: AtomicUsize::new(0),
        }
    }

    fn slabs(&self) -> std::sync::MutexGuard<'_, Slabs> {
        self.slabs.lock().expect("slab pool poisoned")
    }

    /// Bytes between two neighbouring slots: the layout's size.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Pops a pooled slot, as its last owner left it, if there is one.
    ///
    /// The home shard is tried first; on a miss the other shards are scanned (slots
    /// are interchangeable, only the lock is sharded) — but only while the
    /// approximate free count says there is something to find, so a growing
    /// structure takes no shard lock per allocation.
    pub fn pop(&self) -> Option<*mut u8> {
        if self.free_count.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let home = my_shard();
        (0..POOL_SHARDS).find_map(|i| {
            let addr = self.free[(home + i) % POOL_SHARDS]
                .lock()
                .expect("slab pool poisoned")
                .pop()?;
            self.free_count.fetch_sub(1, Ordering::Relaxed);
            Some(addr as *mut u8)
        })
    }

    /// Carves the next slot of the newest slab, allocating a slab when the newest
    /// one is spent. The slot is uninitialized.
    pub fn carve(&self) -> *mut u8 {
        let mut slabs = self.slabs();
        let grown = slabs.refill(0);
        let at = slabs.cursor;
        slabs.cursor += self.stride;
        drop(slabs);
        self.count_grown(grown);
        self.allocated.fetch_add(1, Ordering::Relaxed);
        at as *mut u8
    }

    /// Adds `grown` bytes of new slab to the pool's total (no write when none).
    fn count_grown(&self, grown: usize) {
        if grown > 0 {
            self.slab_bytes.fetch_add(grown, Ordering::Relaxed);
        }
    }

    /// Pushes `slot` onto this thread's free-list shard.
    ///
    /// # Safety
    ///
    /// `slot` must have been handed out by this pool (popped, carved, run or
    /// reserved), must not be reachable by any thread that could still use it, and
    /// must not be pushed twice.
    pub unsafe fn push(&self, slot: *mut u8) {
        self.push_all([slot]);
    }

    /// Pushes every slot of `slots` under one lock.
    ///
    /// # Safety
    ///
    /// [`SlabPool::push`]'s contract, for each slot.
    pub unsafe fn push_all(&self, slots: impl IntoIterator<Item = *mut u8>) {
        let mut free = self.free[my_shard()].lock().expect("slab pool poisoned");
        let before = free.len();
        free.extend(slots.into_iter().map(|slot| slot as usize));
        let pushed = free.len() - before;
        // Count before the lock is released: every poppable slot has been counted,
        // so the matching decrement in `pop` can never transiently underflow.
        self.free_count.fetch_add(pushed, Ordering::Relaxed);
        self.recycled.fetch_add(pushed, Ordering::Relaxed);
    }

    /// Takes the slab lock once and hands out the uncarved rest of the newest slab,
    /// `(start, end)`, refilled first when that one is spent; `left` is the bytes of
    /// slots the caller will still carve (see [`Slabs::refill`]).
    fn rest_of_slab(&self, left: usize) -> (usize, usize) {
        let mut slabs = self.slabs();
        let grown = slabs.refill(left);
        let rest = (slabs.cursor, slabs.end);
        slabs.cursor = slabs.end;
        drop(slabs);
        self.count_grown(grown);
        rest
    }

    /// Reserves exactly `n` fresh slots for a single owner that fills them at once
    /// (a bulk load that places each entry in its final slot). While `ARENA` bytes
    /// or more of them are left the next block is an arena, carved whole (case (a)
    /// of the module docs); the rest is one block of exactly the bytes it needs.
    /// The newest slab's uncarved rest is left to later carving, and no pooled slot
    /// is taken.
    pub fn reserve(&self, n: usize) -> Reserved {
        let stride = self.stride;
        let per_arena = if stride < ARENA { ARENA / stride } else { 0 };
        let mut slabs = self.slabs();
        let mut blocks = Vec::new();
        let mut left = n;
        while per_arena > 0 && left.saturating_mul(stride) >= ARENA {
            blocks.push(slabs.allocate(ARENA));
            left -= per_arena;
        }
        let arenas = blocks.len();
        if left > 0 {
            blocks.push(slabs.allocate(left * stride));
        }
        drop(slabs);
        self.count_grown(arenas * ARENA + left * stride);
        self.allocated.fetch_add(n, Ordering::Relaxed);
        Reserved {
            blocks,
            per_block: if arenas > 0 { per_arena } else { n.max(1) },
            stride,
            n,
        }
    }

    /// Whether `addr` is the start of a slot of one of this pool's slabs.
    pub fn contains(&self, addr: usize) -> bool {
        let slabs = self.slabs();
        let at = slabs.owned.partition_point(|&(start, _)| start <= addr);
        at > 0 && {
            let (start, bytes) = slabs.owned[at - 1];
            addr < start + bytes && (addr - start).is_multiple_of(slabs.node.size())
        }
    }

    /// `(start address, bytes)` of every slab, by address.
    pub fn slab_list(&self) -> Vec<(usize, usize)> {
        self.slabs().owned.clone()
    }

    /// Number of slots carved over the pool's lifetime (reserved ones included).
    pub fn allocated(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Bytes of slab the pool holds: live, pooled and not yet carved slots alike.
    pub fn slab_bytes(&self) -> usize {
        self.slab_bytes.load(Ordering::Relaxed)
    }

    /// Number of slots pushed back over the pool's lifetime.
    pub fn recycled(&self) -> usize {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Number of slots in the free lists now (all shards).
    pub fn free_len(&self) -> usize {
        self.free
            .iter()
            .map(|shard| shard.lock().expect("slab pool poisoned").len())
            .sum()
    }
}

impl Drop for SlabPool {
    /// Frees the slabs. What the slots held is the owner's to have dropped first.
    fn drop(&mut self) {
        let slabs = self.slabs.get_mut().expect("slab pool poisoned");
        for &(start, bytes) in &slabs.owned {
            // SAFETY: allocated in `Slabs::allocate` with this very layout, freed once.
            unsafe { alloc::dealloc(start as *mut u8, slabs.layout(bytes)) };
        }
    }
}

/// The `n` slots of one [`SlabPool::reserve`], addressed by index: every block but
/// the last is an arena holding the same number of slots.
pub struct Reserved {
    blocks: Vec<usize>,
    per_block: usize,
    stride: usize,
    n: usize,
}

impl Reserved {
    /// The `i`-th slot, uninitialized until its owner writes it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the number of slots reserved.
    pub fn slot(&self, i: usize) -> *mut u8 {
        assert!(i < self.n, "slot {i} of {} reserved", self.n);
        (self.blocks[i / self.per_block] + (i % self.per_block) * self.stride) as *mut u8
    }

    /// Whether slots `range` lie back to back in one block, so that they can be
    /// taken as one slice.
    pub fn contiguous(&self, range: std::ops::Range<usize>) -> bool {
        range.is_empty() || range.start / self.per_block == (range.end - 1) / self.per_block
    }
}

/// Slots of one pool for a single owner that takes many at once (a bulk load),
/// carved a slab run at a time: the slab lock is taken once per run, not once per
/// slot, and [`SlabPool::allocated`] is counted once, when the run is dropped.
/// Pooled slots still come first. The run is told how many slots its owner will
/// take at least, and counts that down per slot: while an arena's worth is left, a
/// new slab is an arena (case (a) of the module docs). Dropping the run hands its
/// uncarved tail back to the slab, so the next carve goes on where the run stopped
/// (also in an arena whose count was overstated), and the pool's counts stay what
/// slot-by-slot carving would have left.
pub struct Run<'p> {
    pool: &'p SlabPool,
    /// The run's uncarved rest: `next..end`.
    next: usize,
    end: usize,
    /// Slots carved from the run so far.
    carved: usize,
    /// Slots the owner said it will still take.
    left: usize,
}

/// A slot taken from a [`Run`].
pub enum Slot {
    /// A pooled slot, as its last owner left it.
    Pooled(*mut u8),
    /// A freshly carved slot, uninitialized.
    Carved(*mut u8),
}

impl<'p> Run<'p> {
    /// An empty run over `pool`'s slabs for an owner that will take at least
    /// `left` slots.
    pub fn new(pool: &'p SlabPool, left: usize) -> Self {
        Run {
            pool,
            next: 0,
            end: 0,
            carved: 0,
            left,
        }
    }

    /// A pooled slot, or the next stride of the run, which takes the rest of the
    /// newest slab when it is spent.
    pub fn take(&mut self) -> Slot {
        let stride = self.pool.stride;
        let left = self.left.saturating_mul(stride);
        self.left = self.left.saturating_sub(1);
        if let Some(slot) = self.pool.pop() {
            return Slot::Pooled(slot);
        }
        if self.end - self.next < stride {
            (self.next, self.end) = self.pool.rest_of_slab(left);
        }
        let at = self.next;
        self.next += stride;
        self.carved += 1;
        Slot::Carved(at as *mut u8)
    }
}

impl Drop for Run<'_> {
    fn drop(&mut self) {
        self.pool
            .allocated
            .fetch_add(self.carved, Ordering::Relaxed);
        if self.next == self.end {
            return;
        }
        let mut slabs = self.pool.slabs();
        // Only the newest slab's uncarved rest can go back.
        if (slabs.cursor, slabs.end) == (self.end, self.end) {
            slabs.cursor = self.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 40-byte, 8-aligned slot: not a divisor of an arena.
    type Entry = [u64; 5];

    fn pool() -> SlabPool {
        SlabPool::new(Layout::new::<Entry>())
    }

    #[test]
    fn a_small_reservation_is_one_exact_block() {
        let pool = pool();
        let run = pool.reserve(1_000);
        assert_eq!(pool.slab_list().len(), 1);
        assert_eq!(pool.slab_bytes(), 1_000 * 40);
        assert_eq!(pool.allocated(), 1_000);
        assert!(run.contiguous(0..1_000));
        assert_eq!(run.slot(999) as usize - run.slot(0) as usize, 999 * 40);
        assert!((0..1_000).all(|i| pool.contains(run.slot(i) as usize)));
        assert!(!pool.contains(run.slot(0) as usize + 8));
        // The newest slab's rest is untouched: the next carve starts a small slab.
        let carved = pool.carve() as usize;
        assert_eq!(pool.slab_bytes(), 1_000 * 40 + FIRST_SLAB);
        assert!(pool.contains(carved));
    }

    #[test]
    fn a_reservation_of_arenas_carves_each_whole_and_the_rest_exactly() {
        let pool = pool();
        let per_arena = ARENA / 40;
        let n = 2 * per_arena + 7;
        let run = pool.reserve(n);
        let mut slabs = pool.slab_list();
        slabs.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
        assert_eq!(
            slabs.iter().map(|&(_, b)| b).collect::<Vec<_>>(),
            vec![ARENA, ARENA, 7 * 40]
        );
        assert!(slabs[..2].iter().all(|&(s, _)| s.is_multiple_of(ARENA)));
        assert_eq!(
            run.slot(per_arena - 1) as usize,
            run.slot(0) as usize + (per_arena - 1) * 40
        );
        assert!(!run.contiguous(per_arena - 1..per_arena + 1));
        assert!(run.contiguous(per_arena..2 * per_arena));
        assert!((0..n).all(|i| pool.contains(run.slot(i) as usize)));
        let mut starts: Vec<usize> = (0..n).map(|i| run.slot(i) as usize).collect();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), n, "every slot is its own");
    }

    #[test]
    fn pushed_slots_come_back_before_any_carving() {
        let pool = pool();
        let a = pool.carve();
        let b = pool.carve();
        unsafe { pool.push_all([a, b]) };
        assert_eq!((pool.free_len(), pool.recycled()), (2, 2));
        let mut again = [pool.pop().unwrap(), pool.pop().unwrap()];
        again.sort_unstable();
        let mut first = [a, b];
        first.sort_unstable();
        assert_eq!(again, first);
        assert_eq!(pool.pop(), None);
        assert_eq!(pool.allocated(), 2);
    }
}
