//! Skiplist nodes, their packed status words, and the borrowed [`NodeRef`] handle.
//!
//! Following the paper, every level of a tower is a separate node linked downward by
//! `down` pointers (Section 2). A node's mutable links are tagged `u64` words (see
//! [`skiptrie_atomics::tagged`]); its *status* word packs the STOP flag used to halt
//! tower raises (Section 2: "a Boolean flag, stop, which is set to 1 when an operation
//! begins deleting the node's tower") together with an incarnation sequence number
//! that is bumped every time the node's memory is recycled by the
//! [pool](crate::pool::NodePool). The status word is the guard of every DCSS in the
//! SkipTrie.

use std::cell::UnsafeCell;
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

/// One skiplist node (one level of one tower).
///
/// Every field that can be read concurrently is an atomic so that reads of recycled
/// nodes (possible only through *stale hints*, which the algorithms treat defensively)
/// are still well-defined. The value is only ever read through verified level-0
/// traversals and only dropped after epoch quiescence, so an [`UnsafeCell`] suffices.
pub(crate) struct Node<V> {
    /// The key (meaningless for sentinels; poisoned to `u64::MAX` while pooled).
    pub(crate) key: AtomicU64,
    /// Packed `kind | level << 2 | orig_height << 12`.
    pub(crate) meta: AtomicU64,
    /// Packed `seq << 1 | STOP`. The DCSS guard word for this node.
    pub(crate) status: AtomicU64,
    /// Tagged successor pointer on this node's level (MARK = logically deleted).
    pub(crate) next: AtomicU64,
    /// Backtracking hint set just before the node is marked (Section 2 `back`).
    pub(crate) back: AtomicU64,
    /// Top-level only: the doubly-linked-list guide pointer (Section 3 `prev`).
    pub(crate) prev: AtomicU64,
    /// Top-level only: 1 once `prev` has been set for the first time (Section 3 `ready`).
    pub(crate) ready: AtomicU64,
    /// Pointer to the same tower's node one level below (null at level 0).
    pub(crate) down: AtomicU64,
    /// Pointer to the tower's level-0 node (self at level 0).
    pub(crate) root: AtomicU64,
    /// The value, stored only in the level-0 (root) node.
    pub(crate) value: UnsafeCell<Option<V>>,
}

// SAFETY: all concurrently accessed fields are atomics; `value` is written only before
// publication or after epoch quiescence and read only from nodes reached through
// verified live traversals while pinned.
unsafe impl<V: Send + Sync> Send for Node<V> {}
unsafe impl<V: Send + Sync> Sync for Node<V> {}

pub(crate) fn pack_meta(kind: NodeKind, level: u8, orig_height: u8) -> u64 {
    kind.to_bits() | ((level as u64) << 2) | ((orig_height as u64) << 12)
}

impl<V> Node<V> {
    /// Allocates a brand-new node with sequence number zero and empty fields; the pool
    /// initializes the rest.
    pub(crate) fn empty() -> Box<Self> {
        Box::new(Node {
            key: AtomicU64::new(u64::MAX),
            meta: AtomicU64::new(pack_meta(NodeKind::Data, 0, 0)),
            status: AtomicU64::new(0),
            next: AtomicU64::new(tagged::with_mark(tagged::NULL)),
            back: AtomicU64::new(tagged::NULL),
            prev: AtomicU64::new(tagged::NULL),
            ready: AtomicU64::new(0),
            down: AtomicU64::new(tagged::NULL),
            root: AtomicU64::new(tagged::NULL),
            value: UnsafeCell::new(None),
        })
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
}
