//! Tagged pointer words.
//!
//! Every mutable link in the SkipTrie's structures (skiplist `next`, `prev`, `back`,
//! trie child pointers, hash-table list links) is stored as a single
//! [`AtomicU64`](std::sync::atomic::AtomicU64) whose value is a pointer with up
//! to two low tag bits:
//!
//! * [`MARK_BIT`] — the Harris-style *logical deletion* mark. Following the paper
//!   (Section 2, "we use the logical deletion scheme from \[10\], storing each node's
//!   next pointer together with its marked bit in one word"), the mark lives on the
//!   **victim's own `next` word**: a node is logically deleted once its `next` word
//!   carries the mark.
//! * [`DESC_BIT`] — the word currently holds a pointer to an in-flight DCSS
//!   descriptor (see [`crate::dcss`]); readers must help complete it before
//!   interpreting the word.
//!
//! Pointers stored in tagged words must therefore be at least 4-byte aligned; all node
//! types in this workspace are 8-byte aligned, which [`pack`] debug-asserts.

/// Logical-deletion mark bit (bit 0).
pub const MARK_BIT: u64 = 0b01;
/// DCSS-descriptor tag bit (bit 1).
pub const DESC_BIT: u64 = 0b10;
/// Mask covering every tag bit.
pub const TAG_MASK: u64 = MARK_BIT | DESC_BIT;

/// Packs a raw pointer into a tagged word with no tag bits set.
///
/// # Panics
///
/// Debug-asserts that the pointer's low bits are clear (i.e. the allocation is at
/// least 4-byte aligned).
#[inline]
pub fn pack<T>(ptr: *const T) -> u64 {
    let raw = ptr as u64;
    debug_assert_eq!(
        raw & TAG_MASK,
        0,
        "pointer not sufficiently aligned for tagging"
    );
    raw
}

/// Extracts the pointer from a tagged word, stripping every tag bit.
#[inline]
pub fn unpack<T>(word: u64) -> *const T {
    (word & !TAG_MASK) as *const T
}

/// Strips all tag bits, returning the bare pointer word.
#[inline]
pub fn untagged(word: u64) -> u64 {
    word & !TAG_MASK
}

/// Returns the tag bits of a word.
#[inline]
pub fn tag(word: u64) -> u64 {
    word & TAG_MASK
}

/// True if the word's pointer component is null.
#[inline]
pub fn is_null(word: u64) -> bool {
    untagged(word) == 0
}

/// True if the word carries the logical-deletion mark.
#[inline]
pub fn is_marked(word: u64) -> bool {
    word & MARK_BIT != 0
}

/// True if the word holds a DCSS descriptor pointer.
#[inline]
pub fn is_descriptor(word: u64) -> bool {
    word & DESC_BIT != 0
}

/// Returns `word` with the mark bit set (descriptor bit must not be set).
#[inline]
pub fn with_mark(word: u64) -> u64 {
    debug_assert!(!is_descriptor(word), "cannot mark a descriptor word");
    word | MARK_BIT
}

/// Packs a descriptor pointer into a word carrying [`DESC_BIT`].
#[inline]
pub fn pack_descriptor<T>(ptr: *const T) -> u64 {
    pack(ptr) | DESC_BIT
}

/// The null word (null pointer, no tags).
pub const NULL: u64 = 0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let boxed = Box::new(1234u64);
        let ptr: *const u64 = &*boxed;
        let word = pack(ptr);
        assert_eq!(unpack::<u64>(word), ptr);
        assert!(!is_marked(word));
        assert!(!is_descriptor(word));
        assert!(!is_null(word));
    }

    #[test]
    fn null_word_properties() {
        assert!(is_null(NULL));
        assert!(
            is_null(with_mark(NULL)),
            "marked null still has null pointer"
        );
        assert_eq!(unpack::<u8>(NULL), std::ptr::null());
    }

    #[test]
    fn mark_bit_algebra() {
        let boxed = Box::new(5u32);
        let word = pack(&*boxed as *const u32);
        let marked = with_mark(word);
        assert!(is_marked(marked));
        assert_eq!(untagged(marked), word);
        assert_eq!(unpack::<u32>(marked), &*boxed as *const u32);
    }

    #[test]
    fn descriptor_bit_is_distinct_from_mark() {
        let boxed = Box::new(0u64);
        let word = pack_descriptor(&*boxed as *const u64);
        assert!(is_descriptor(word));
        assert!(!is_marked(word));
        assert_eq!(unpack::<u64>(word), &*boxed as *const u64);
        assert_eq!(tag(word), DESC_BIT);
    }

    #[test]
    fn tag_mask_covers_both_bits() {
        assert_eq!(TAG_MASK, 0b11);
        assert_eq!(MARK_BIT & DESC_BIT, 0);
    }
}
