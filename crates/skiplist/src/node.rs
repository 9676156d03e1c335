//! Skiplist nodes: the header every node shares, the two layouts built on it, their
//! packed status words, and the borrowed [`NodeRef`] handle.
//!
//! Following the paper, every level of a tower is a separate node linked downward by
//! `down` pointers (Section 2). Only the level-0 node needs the value, and only a
//! top-level node the `prev` guide (Section 3), so a node comes in one of two layouts,
//! each one 64-byte line for `V = u64`:
//!
//! | layout | fields | bytes for `V = u64` |
//! |---|---|---|
//! | header, [`Node`] | `key`, `meta`, `status`, `next`, `back` | 40 |
//! | level-0 node, [`Leaf`] | header + `value` | 56, in a 64-byte line |
//! | tower node (level ≥ 1), [`Tower`] | header + `prev`, `down`, `root` | 64 |
//!
//! A level-0 node is its own tower's root, so its `root` is computed, not stored; and
//! a one-level list keeps no guides, so level 0 never needs `prev`. The node for a
//! value that does not fit the line takes whole lines: a layout is
//! `#[repr(C, align(64))]`, so its size, which is the pool's slab stride for it, is a
//! multiple of 64.
//!
//! A node is named by a pointer to its header, at offset 0 of both layouts, and the
//! header's level tag says which layout is behind it: 0 a [`Leaf`], anything else a
//! [`Tower`]. For a given address that answer never changes. The
//! [pool](crate::pool::NodePool) carves each layout from slabs of its own and hands a
//! recycled node out again only in the role it was carved for, so a stale pointer's
//! read of `down`, `root` or `prev` — a trie pointer, a `back` hint, a DCSS helper's
//! guard — is a well-defined atomic read of a node of the right shape.
//!
//! A node's mutable links are tagged `u64` words (see [`skiptrie_atomics::tagged`]);
//! its *status* word packs the STOP flag used to halt tower raises (Section 2: "a
//! Boolean flag, stop, which is set to 1 when an operation begins deleting the node's
//! tower") together with an incarnation sequence number that is bumped every time the
//! node's memory is recycled by the pool. The status word is the guard of every DCSS
//! in the SkipTrie.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam_epoch::Guard;
use skiptrie_atomics::dcss::read_resolved;
use skiptrie_atomics::tagged;

/// STOP bit of the status word: the deletion of this node (or of the tower whose root
/// it is) has begun.
pub const STATUS_STOP: u64 = 1;
/// Increment that bumps the incarnation sequence number of a status word.
pub const STATUS_SEQ_UNIT: u64 = 2;

/// What role a node plays in its level's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A regular key-carrying node.
    Data,
    /// The per-level `-∞` sentinel; never marked, never removed.
    Head,
    /// The per-level `+∞` sentinel; never marked, never removed.
    Tail,
}

impl NodeKind {
    fn to_bits(self) -> u64 {
        match self {
            NodeKind::Data => 0,
            NodeKind::Head => 1,
            NodeKind::Tail => 2,
        }
    }

    fn from_bits(bits: u64) -> Self {
        match bits & 0b11 {
            1 => NodeKind::Head,
            2 => NodeKind::Tail,
            _ => NodeKind::Data,
        }
    }
}

/// Which layout a node's memory was carved as: fixed for its address for as long as
/// the pool owns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// A [`Leaf`]: level 0.
    Leaf,
    /// A [`Tower`]: levels 1 and up.
    Tower,
}

/// The header of every skiplist node (one level of one tower), whatever its layout:
/// the fields a traversal reads on any level.
///
/// Every field that can be read concurrently is an atomic so that reads of recycled
/// nodes (possible only through *stale hints*, which the algorithms treat defensively)
/// are still well-defined. A `&Node` always points into a [`Leaf`] or a [`Tower`];
/// [`Node::leaf`] and [`Node::tower`] reach the rest of it.
#[repr(C)]
pub(crate) struct Node<V> {
    /// The key (meaningless for sentinels; poisoned to `u64::MAX` while pooled).
    pub(crate) key: AtomicU64,
    /// Packed `kind | level << 2 | orig_height << 12`. The level is 0 exactly when
    /// the node is a [`Leaf`], pooled or not.
    pub(crate) meta: AtomicU64,
    /// Packed `seq << 1 | STOP`. The DCSS guard word for this node.
    pub(crate) status: AtomicU64,
    /// Tagged successor pointer on this node's level (MARK = logically deleted).
    pub(crate) next: AtomicU64,
    /// Backtracking hint set just before the node is marked (Section 2 `back`).
    pub(crate) back: AtomicU64,
    _value: PhantomData<V>,
}

/// A level-0 node: the [`Node`] header's fields, in its order, then the value. Its
/// tower's root is itself.
///
/// The value is only ever read through verified level-0 traversals and only dropped
/// after epoch quiescence, so an [`UnsafeCell`] suffices.
#[repr(C, align(64))]
pub(crate) struct Leaf<V> {
    pub(crate) key: AtomicU64,
    pub(crate) meta: AtomicU64,
    pub(crate) status: AtomicU64,
    pub(crate) next: AtomicU64,
    pub(crate) back: AtomicU64,
    /// The value: `None` for sentinels and pooled nodes.
    pub(crate) value: UnsafeCell<Option<V>>,
}

/// A tower node on level 1 or above: the [`Node`] header's fields, in its order,
/// then the links between levels.
#[repr(C, align(64))]
pub(crate) struct Tower<V> {
    pub(crate) key: AtomicU64,
    pub(crate) meta: AtomicU64,
    pub(crate) status: AtomicU64,
    pub(crate) next: AtomicU64,
    pub(crate) back: AtomicU64,
    /// Top level only: the doubly-linked-list guide pointer (Section 3 `prev`).
    pub(crate) prev: AtomicU64,
    /// Pointer to the same tower's node one level below.
    pub(crate) down: AtomicU64,
    /// Pointer to the tower's level-0 node.
    pub(crate) root: AtomicU64,
    _value: PhantomData<V>,
}

/// A node layout that begins with the [`Node`] header, so that a pointer to it is a
/// pointer to its header.
///
/// # Safety
///
/// Implementors are `#[repr(C)]` and start with the header's fields, in its order.
pub(crate) unsafe trait HeaderFirst<V> {}
// SAFETY: the header is itself.
unsafe impl<V> HeaderFirst<V> for Node<V> {}
// SAFETY: see the struct.
unsafe impl<V> HeaderFirst<V> for Leaf<V> {}
// SAFETY: see the struct.
unsafe impl<V> HeaderFirst<V> for Tower<V> {}

impl<V> Deref for Leaf<V> {
    type Target = Node<V>;
    fn deref(&self) -> &Node<V> {
        // SAFETY: `HeaderFirst`.
        unsafe { &*(self as *const Self).cast::<Node<V>>() }
    }
}

impl<V> Deref for Tower<V> {
    type Target = Node<V>;
    fn deref(&self) -> &Node<V> {
        // SAFETY: `HeaderFirst`.
        unsafe { &*(self as *const Self).cast::<Node<V>>() }
    }
}

pub(crate) fn pack_meta(kind: NodeKind, level: u8, orig_height: u8) -> u64 {
    kind.to_bits() | ((level as u64) << 2) | ((orig_height as u64) << 12)
}

impl<V> Leaf<V> {
    /// A brand-new level-0 node, poisoned as if pooled, with sequence number zero.
    pub(crate) fn empty() -> Self {
        let Node {
            key,
            meta,
            status,
            next,
            back,
            ..
        } = Node::<V>::empty();
        Leaf {
            key,
            meta,
            status,
            next,
            back,
            value: UnsafeCell::new(None),
        }
    }

    /// Initializes a pooled node for publication, `next` last. The status word is
    /// left untouched: its sequence number identifies the incarnation.
    ///
    /// `SeqCst` on the concurrent insert path (publication racing readers), `Relaxed`
    /// on the single-owner bulk path, where `&mut` access to the list excludes
    /// observers and the eventual handoff carries the publishing edge.
    ///
    /// # Safety
    ///
    /// The node is not published: the caller has exclusive access.
    pub(crate) unsafe fn init(&self, key: u64, orig_height: u8, next: u64, value: V, o: Ordering) {
        Node::init(self, key, 0, orig_height, o);
        *self.value.get() = Some(value);
        self.next.store(next, o);
    }
}

impl<V> Tower<V> {
    /// A brand-new tower node, poisoned as if pooled, with sequence number zero.
    pub(crate) fn empty() -> Self {
        let Node {
            key,
            status,
            next,
            back,
            ..
        } = Node::<V>::empty();
        Tower {
            key,
            meta: AtomicU64::new(pack_meta(NodeKind::Data, 1, 0)),
            status,
            next,
            back,
            prev: AtomicU64::new(tagged::NULL),
            down: AtomicU64::new(tagged::NULL),
            root: AtomicU64::new(tagged::NULL),
            _value: PhantomData,
        }
    }

    /// [`Leaf::init`] for a node on `level` (≥ 1) of the tower rooted at `root`.
    ///
    /// # Safety
    ///
    /// As for [`Leaf::init`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn init(
        &self,
        key: u64,
        level: u8,
        orig_height: u8,
        down: u64,
        root: u64,
        next: u64,
        o: Ordering,
    ) {
        debug_assert!(level > 0, "a tower node lives above level 0");
        Node::init(self, key, level, orig_height, o);
        self.prev.store(tagged::NULL, o);
        self.down.store(down, o);
        self.root.store(root, o);
        self.next.store(next, o);
    }
}

impl<V> Node<V> {
    /// A poisoned level-0 header with sequence number zero: what the pool carves.
    pub(crate) fn empty() -> Self {
        Node {
            key: AtomicU64::new(u64::MAX),
            meta: AtomicU64::new(pack_meta(NodeKind::Data, 0, 0)),
            status: AtomicU64::new(0),
            next: AtomicU64::new(tagged::with_mark(tagged::NULL)),
            back: AtomicU64::new(tagged::NULL),
            _value: PhantomData,
        }
    }

    fn init(&self, key: u64, level: u8, orig_height: u8, o: Ordering) {
        self.key.store(key, o);
        self.meta
            .store(pack_meta(NodeKind::Data, level, orig_height), o);
        self.back.store(tagged::NULL, o);
    }

    pub(crate) fn kind(&self) -> NodeKind {
        NodeKind::from_bits(self.meta.load(Ordering::Relaxed))
    }

    pub(crate) fn level(&self) -> u8 {
        ((self.meta.load(Ordering::Relaxed) >> 2) & 0xff) as u8
    }

    pub(crate) fn orig_height(&self) -> u8 {
        ((self.meta.load(Ordering::Relaxed) >> 12) & 0xff) as u8
    }

    /// The layout this node was carved as (see the module docs).
    pub(crate) fn role(&self) -> Role {
        if self.level() == 0 {
            Role::Leaf
        } else {
            Role::Tower
        }
    }

    /// The whole node if it is a level-0 node.
    pub(crate) fn leaf(&self) -> Option<&Leaf<V>> {
        // SAFETY: a header at level 0 is the first field of a `Leaf`, and stays one
        // (the pool never reuses a leaf's memory as a tower).
        (self.role() == Role::Leaf).then(|| unsafe { &*(self as *const Self).cast::<Leaf<V>>() })
    }

    /// The whole node if it is a tower node (level ≥ 1).
    pub(crate) fn tower(&self) -> Option<&Tower<V>> {
        // SAFETY: as in `leaf`, with the roles swapped.
        (self.role() == Role::Tower).then(|| unsafe { &*(self as *const Self).cast::<Tower<V>>() })
    }

    /// The value slot of a level-0 node.
    ///
    /// # Panics
    ///
    /// On a tower node: only level 0 carries values.
    pub(crate) fn value(&self) -> &UnsafeCell<Option<V>> {
        &self
            .leaf()
            .expect("only a level-0 node carries a value")
            .value
    }

    /// The `prev` guide; `None` on level 0, which keeps none.
    pub(crate) fn guide(&self) -> Option<&AtomicU64> {
        self.tower().map(|t| &t.prev)
    }

    /// The word of the tower's node one level below (null on level 0).
    pub(crate) fn down_word(&self) -> u64 {
        self.tower()
            .map_or(tagged::NULL, |t| t.down.load(Ordering::SeqCst))
    }

    /// The word of the tower's level-0 node: its own on level 0.
    pub(crate) fn root_word(&self) -> u64 {
        match self.tower() {
            Some(t) => t.root.load(Ordering::SeqCst),
            None => tagged::pack(self as *const Self),
        }
    }

    pub(crate) fn key_value(&self) -> u64 {
        self.key.load(Ordering::Relaxed)
    }

    pub(crate) fn is_data(&self) -> bool {
        self.kind() == NodeKind::Data
    }

    pub(crate) fn is_head(&self) -> bool {
        self.kind() == NodeKind::Head
    }

    pub(crate) fn is_tail(&self) -> bool {
        self.kind() == NodeKind::Tail
    }

    /// Current packed status (seq + STOP).
    pub(crate) fn status_word(&self) -> u64 {
        self.status.load(Ordering::SeqCst)
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.status_word() & STATUS_STOP != 0
    }

    /// Sets the STOP flag, returning the previous status word.
    pub(crate) fn set_stop(&self) -> u64 {
        self.status.fetch_or(STATUS_STOP, Ordering::SeqCst)
    }

    /// True if this node is logically deleted (its `next` word carries the mark).
    pub(crate) fn is_marked(&self, guard: &Guard) -> bool {
        tagged::is_marked(read_resolved(&self.next, guard))
    }

    /// "Is `self.key < x`", treating head as `-∞` and tail as `+∞`.
    pub(crate) fn key_lt(&self, x: u64) -> bool {
        match self.kind() {
            NodeKind::Head => true,
            NodeKind::Tail => false,
            NodeKind::Data => self.key_value() < x,
        }
    }

    /// "Is `self.key >= x`", treating head as `-∞` and tail as `+∞`.
    pub(crate) fn key_ge(&self, x: u64) -> bool {
        !self.key_lt(x)
    }
}
/// A borrowed, copyable handle to a skiplist node, valid for the lifetime `'g` of the
/// epoch pin (or of the owning structure for sentinels).
///
/// This is the currency of the low-level API consumed by the `skiptrie` crate: the
/// x-fast trie stores packed node words in its prefix table and turns them back into
/// `NodeRef`s while pinned.
pub struct NodeRef<'g, V> {
    pub(crate) node: &'g Node<V>,
}

impl<V> Clone for NodeRef<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for NodeRef<'_, V> {}

impl<V> std::fmt::Debug for NodeRef<'_, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRef")
            .field("key", &self.node.key_value())
            .field("kind", &self.node.kind())
            .field("level", &self.node.level())
            .finish()
    }
}

impl<V> PartialEq for NodeRef<'_, V> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.node, other.node)
    }
}
impl<V> Eq for NodeRef<'_, V> {}

impl<'g, V> NodeRef<'g, V> {
    pub(crate) fn new(node: &'g Node<V>) -> Self {
        NodeRef { node }
    }

    /// Reconstructs a reference from a packed word previously obtained from
    /// [`NodeRef::packed`] (or read from a structure link).
    ///
    /// # Safety
    ///
    /// The word must contain a pointer to a node belonging to a structure whose node
    /// pool outlives `'g`, and the caller must be pinned for `'g`.
    pub unsafe fn from_packed(word: u64, _witness: &'g Guard) -> Option<Self> {
        if tagged::is_null(word) {
            None
        } else {
            Some(NodeRef {
                node: &*tagged::unpack::<Node<V>>(word),
            })
        }
    }

    /// The pointer word (no tag bits) identifying this node; what gets stored in the
    /// x-fast trie and in `prev`/`back` guides.
    pub fn packed(&self) -> u64 {
        tagged::pack(self.node as *const Node<V>)
    }

    /// The node's key. Meaningful only for data nodes.
    pub fn key(&self) -> u64 {
        self.node.key_value()
    }

    /// The level of this node within its tower.
    pub fn level(&self) -> u8 {
        self.node.level()
    }

    /// The height this node's tower was assigned at insertion (capped at the top
    /// level).
    pub fn orig_height(&self) -> u8 {
        self.node.orig_height()
    }

    /// True for regular key-carrying nodes.
    pub fn is_data(&self) -> bool {
        self.node.is_data()
    }

    /// True for the `-∞` sentinel.
    pub fn is_head(&self) -> bool {
        self.node.is_head()
    }

    /// True for the `+∞` sentinel.
    pub fn is_tail(&self) -> bool {
        self.node.is_tail()
    }

    /// Snapshot of the packed status word (incarnation sequence + STOP flag). Use as
    /// the expected-guard value of a DCSS conditioned on this node staying alive.
    pub fn status(&self) -> u64 {
        self.node.status_word()
    }

    /// True if deletion of this node (or its tower) has begun.
    pub fn is_stopped(&self) -> bool {
        self.node.is_stopped()
    }

    /// True if the node is logically deleted on its level.
    pub fn is_marked(&self, guard: &Guard) -> bool {
        self.node.is_marked(guard)
    }

    /// Raw pointer to the status word, for use as a DCSS guard.
    pub fn status_word_ptr(&self) -> *const AtomicU64 {
        &self.node.status as *const AtomicU64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        for kind in [NodeKind::Data, NodeKind::Head, NodeKind::Tail] {
            for level in [0u8, 1, 5, 31] {
                for h in [0u8, 3, 31] {
                    let m = pack_meta(kind, level, h);
                    assert_eq!(NodeKind::from_bits(m), kind);
                    assert_eq!(((m >> 2) & 0xff) as u8, level);
                    assert_eq!(((m >> 12) & 0xff) as u8, h);
                }
            }
        }
    }

    #[test]
    fn key_comparisons_respect_sentinels() {
        let node = Node::<u64>::empty();
        node.meta
            .store(pack_meta(NodeKind::Head, 0, 0), Ordering::Relaxed);
        assert!(node.key_lt(0));
        assert!(!node.key_ge(0));
        node.meta
            .store(pack_meta(NodeKind::Tail, 0, 0), Ordering::Relaxed);
        assert!(!node.key_lt(u64::MAX));
        assert!(node.key_ge(0));
        node.meta
            .store(pack_meta(NodeKind::Data, 0, 0), Ordering::Relaxed);
        node.key.store(10, Ordering::Relaxed);
        assert!(node.key_lt(11));
        assert!(node.key_ge(10));
        assert!(!node.key_lt(10));
    }

    #[test]
    fn status_stop_and_seq() {
        let node = Node::<u64>::empty();
        assert!(!node.is_stopped());
        let before = node.status_word();
        node.set_stop();
        assert!(node.is_stopped());
        assert_eq!(node.status_word(), before | STATUS_STOP);
    }

    #[test]
    fn fresh_nodes_are_poisoned_as_pooled() {
        let node = Node::<u64>::empty();
        // A node that has not been initialized yet looks marked with a poisoned key,
        // which is exactly what defensive traversals expect of pooled memory.
        assert!(tagged::is_marked(node.next.load(Ordering::SeqCst)));
        assert_eq!(node.key_value(), u64::MAX);
    }

    #[test]
    fn both_layouts_are_one_line_for_u64() {
        use std::mem::{align_of, size_of};
        assert_eq!((size_of::<Leaf<u64>>(), align_of::<Leaf<u64>>()), (64, 64));
        assert_eq!(
            (size_of::<Tower<u64>>(), align_of::<Tower<u64>>()),
            (64, 64)
        );
        assert_eq!(size_of::<Node<u64>>(), 40, "the shared header");
    }

    #[test]
    fn the_header_sits_at_the_same_offsets_in_both_layouts() {
        use std::mem::offset_of;
        let header = [
            offset_of!(Node<u64>, key),
            offset_of!(Node<u64>, meta),
            offset_of!(Node<u64>, status),
            offset_of!(Node<u64>, next),
            offset_of!(Node<u64>, back),
        ];
        let leaf = [
            offset_of!(Leaf<u64>, key),
            offset_of!(Leaf<u64>, meta),
            offset_of!(Leaf<u64>, status),
            offset_of!(Leaf<u64>, next),
            offset_of!(Leaf<u64>, back),
        ];
        let tower = [
            offset_of!(Tower<u64>, key),
            offset_of!(Tower<u64>, meta),
            offset_of!(Tower<u64>, status),
            offset_of!(Tower<u64>, next),
            offset_of!(Tower<u64>, back),
        ];
        assert_eq!(header, [0, 8, 16, 24, 32]);
        assert_eq!(leaf, header);
        assert_eq!(tower, header);
        assert_eq!(offset_of!(Leaf<u64>, value), 40);
        assert_eq!(
            [
                offset_of!(Tower<u64>, prev),
                offset_of!(Tower<u64>, down),
                offset_of!(Tower<u64>, root)
            ],
            [40, 48, 56]
        );
    }

    #[test]
    fn the_level_tag_names_the_layout() {
        let leaf = Leaf::<u64>::empty();
        let tower = Tower::<u64>::empty();
        assert_eq!(leaf.role(), Role::Leaf);
        assert_eq!(
            tower.role(),
            Role::Tower,
            "a fresh tower node is tagged level 1"
        );
        assert!(leaf.tower().is_none() && leaf.guide().is_none());
        assert!(tower.leaf().is_none());
        let at = tagged::pack(&*leaf as *const Node<u64>);
        assert_eq!(leaf.root_word(), at, "a level-0 node is its own root");
        assert_eq!(leaf.down_word(), tagged::NULL);
        // SAFETY: both nodes are local and unpublished.
        unsafe {
            leaf.init(7, 2, tagged::NULL, 70, Ordering::Relaxed);
            tower.init(7, 2, 2, tagged::NULL, at, tagged::NULL, Ordering::Relaxed);
        }
        assert_eq!(unsafe { *leaf.value().get() }, Some(70));
        assert_eq!((leaf.level(), tower.level()), (0, 2));
        assert_eq!(tower.root_word(), at);
    }
}
