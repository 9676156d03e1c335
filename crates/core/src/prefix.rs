//! Key prefixes of the x-fast trie.
//!
//! Keys are `universe_bits`-bit integers (stored in `u64`). The x-fast trie's hash
//! table maps every *proper* prefix of every top-level key to a trie node. A prefix is
//! one word: its bits left-aligned, then a marker `1`, then zeros, so the length is
//! where the marker sits and no two `(len, bits)` pairs share a word. The empty
//! prefix ε (`len == 0`, the word `1 << 63`) is the root of the conceptual prefix
//! tree and is always present in the table.

use std::fmt;
use std::num::NonZeroU64;

/// The marker of the empty prefix; a length-`len` prefix has it shifted right `len`.
const MARKER: u64 = 1 << 63;

/// A proper prefix of a key in a `universe_bits`-bit universe, in one word: the
/// bits left-aligned, a marker `1`, zeros. Never zero, so `Option<Prefix>` is a
/// word too, and hashing it is one `write_u64`. The derived order is the words',
/// a total order the hash table uses only to break ties between equal hashes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix(NonZeroU64);

impl Prefix {
    /// The empty prefix ε.
    pub const EMPTY: Prefix = Prefix(NonZeroU64::new(MARKER).expect("the marker is set"));

    fn from_word(word: u64) -> Prefix {
        Prefix(NonZeroU64::new(word).expect("a prefix word carries its marker"))
    }

    /// The prefix of length `len` whose bits, right-aligned, are `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `len >= 64` or `bits` does not fit in `len` bits.
    pub fn from_parts(len: u8, bits: u64) -> Prefix {
        assert!(len < 64, "prefix length {len} must be below 64");
        assert!(
            bits.checked_shr(u32::from(len)).unwrap_or(0) == 0,
            "prefix bits {bits:#x} do not fit in {len} bits"
        );
        let high = bits.checked_shl(64 - u32::from(len)).unwrap_or(0);
        Prefix::from_word(high | (MARKER >> len))
    }

    /// The length-`len` prefix of `key` in a `universe_bits`-bit universe.
    ///
    /// # Panics
    ///
    /// Panics if `len >= universe_bits` (only proper prefixes exist in the trie) or if
    /// `universe_bits` is not in `1..=64`.
    pub fn of(key: u64, len: u8, universe_bits: u32) -> Prefix {
        assert!(
            (1..=64).contains(&universe_bits),
            "universe_bits must be 1..=64"
        );
        assert!(
            (len as u32) < universe_bits,
            "prefix length {len} must be shorter than the key width {universe_bits}"
        );
        let aligned = key << (64 - universe_bits);
        Prefix::from_word((aligned & !(u64::MAX >> len)) | (MARKER >> len))
    }

    /// Number of bits in the prefix (`0` = the empty prefix ε).
    pub fn len(&self) -> u8 {
        (63 - self.0.trailing_zeros()) as u8
    }

    /// True for the empty prefix ε.
    pub fn is_empty(&self) -> bool {
        *self == Prefix::EMPTY
    }

    /// The prefix bits, right-aligned (0 for ε).
    pub fn bits(&self) -> u64 {
        match self.len() {
            0 => 0,
            len => self.0.get() >> (64 - len),
        }
    }

    /// True if `self` is a prefix of `key` (in a `universe_bits`-bit universe).
    pub fn is_prefix_of(&self, key: u64, universe_bits: u32) -> bool {
        Prefix::of(key, self.len(), universe_bits) == *self
    }

    /// The child prefix `self · direction`. Only meaningful while it remains proper
    /// (`self.len() + 1 < universe_bits`) or for subtree-membership tests.
    ///
    /// # Panics
    ///
    /// Panics if `self.len() == 63`: a 64-bit prefix has no word.
    pub fn child(&self, direction: u8) -> Prefix {
        debug_assert!(direction <= 1);
        let word = self.0.get();
        let marker = word & word.wrapping_neg();
        assert!(marker > 1, "a 63-bit prefix has no child prefix");
        Prefix::from_word((word ^ marker) | (u64::from(direction) * marker) | (marker >> 1))
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prefix")
            .field("len", &self.len())
            .field("bits", &self.bits())
            .finish()
    }
}

/// Bit `index` of `key` (0 = most significant of the `universe_bits`-bit
/// representation). This is the paper's "direction of a key under a prefix" when
/// `index` equals the prefix length.
pub fn key_bit(key: u64, index: u8, universe_bits: u32) -> u8 {
    debug_assert!((index as u32) < universe_bits);
    ((key >> (universe_bits - 1 - index as u32)) & 1) as u8
}

/// True if `key` lies in the `direction`-subtree of `prefix`, i.e. `prefix · direction`
/// is a prefix of `key`.
pub fn in_subtree(prefix: Prefix, direction: u8, key: u64, universe_bits: u32) -> bool {
    let len = prefix.len();
    u32::from(len) < universe_bits
        && prefix.is_prefix_of(key, universe_bits)
        && key_bit(key, len, universe_bits) == direction
}

/// Length of the longest common prefix of `a` and `b` within `universe_bits` bits.
pub fn lcp_len(a: u64, b: u64, universe_bits: u32) -> u32 {
    if a == b {
        return universe_bits;
    }
    let diff = a ^ b;
    let highest_diff_bit = 63 - diff.leading_zeros();
    // Bits above the highest differing bit agree; translate to prefix length.
    (universe_bits - 1).saturating_sub(highest_diff_bit)
}

/// The largest key representable in a `universe_bits`-bit universe.
pub fn max_key(universe_bits: u32) -> u64 {
    if universe_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << universe_bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn prefix_of_extracts_leading_bits() {
        let key = 0b1011_0110u64; // universe_bits = 8
        assert_eq!(Prefix::of(key, 0, 8), Prefix::EMPTY);
        assert_eq!(Prefix::of(key, 1, 8), Prefix::from_parts(1, 0b1));
        assert_eq!(Prefix::of(key, 4, 8), Prefix::from_parts(4, 0b1011));
        assert_eq!(Prefix::of(key, 7, 8), Prefix::from_parts(7, 0b101_1011));
    }

    /// The right-aligned `(len, bits)` arithmetic the word replaced, as it was.
    mod right_aligned {
        pub fn of(key: u64, len: u8, universe_bits: u32) -> (u8, u64) {
            if len == 0 {
                (0, 0)
            } else {
                (len, key >> (universe_bits - len as u32))
            }
        }

        pub fn child((len, bits): (u8, u64), direction: u8) -> (u8, u64) {
            (len + 1, (bits << 1) | direction as u64)
        }

        pub fn in_subtree((len, bits): (u8, u64), direction: u8, key: u64, b: u32) -> bool {
            let child_len = len as u32 + 1;
            if child_len > b {
                return false;
            }
            let child_bits = (bits << 1) | direction as u64;
            if child_len == b {
                key == child_bits
            } else {
                (key >> (b - child_len)) == child_bits
            }
        }
    }

    fn parts(p: Prefix) -> (u8, u64) {
        (p.len(), p.bits())
    }

    #[test]
    fn the_word_round_trips_every_length() {
        let (mut pairs, mut words) = (HashSet::new(), HashSet::new());
        for len in 0..64u8 {
            // At len 63 the widest bits set bit 62, the top bit of a 63-bit prefix.
            let full = u64::MAX.checked_shr(64 - u32::from(len)).unwrap_or(0);
            for bits in [0, 1 & full, full, full >> 1, 0x5555_5555_5555_5555 & full] {
                let p = Prefix::from_parts(len, bits);
                assert_eq!(parts(p), (len, bits), "len {len}, bits {bits:#x}");
                assert_eq!(p.is_empty(), len == 0);
                pairs.insert((len, bits));
                words.insert(p);
            }
        }
        assert_eq!(
            words.len(),
            pairs.len(),
            "distinct (len, bits), distinct words"
        );
        assert_eq!(Prefix::from_parts(63, 1 << 62).bits(), 1 << 62);
        assert_eq!(Prefix::from_parts(0, 0), Prefix::EMPTY);
        assert_eq!(std::mem::size_of::<Option<Prefix>>(), 8);
    }

    #[test]
    fn the_word_agrees_with_the_right_aligned_arithmetic() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for b in [1u32, 2, 3, 7, 8, 16, 31, 32, 33, 48, 63, 64] {
            for _ in 0..64 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let key = (state ^ state >> 29) & max_key(b);
                let other = key ^ (1u64 << (state % u64::from(b)));
                for len in 0..b as u8 {
                    let p = Prefix::of(key, len, b);
                    let old = right_aligned::of(key, len, b);
                    assert_eq!(parts(p), old, "b {b}, key {key:#x}, len {len}");
                    assert!(p.is_prefix_of(key, b));
                    assert_eq!(
                        p.is_prefix_of(other, b),
                        right_aligned::of(other, len, b) == old
                    );
                    for d in 0..=1u8 {
                        for probe in [key, other] {
                            assert_eq!(
                                in_subtree(p, d, probe, b),
                                right_aligned::in_subtree(old, d, probe, b),
                                "b {b}, len {len}, d {d}, key {probe:#x}"
                            );
                        }
                        if len < 63 {
                            assert_eq!(parts(p.child(d)), right_aligned::child(old, d));
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be shorter")]
    fn full_length_prefix_is_rejected() {
        let _ = Prefix::of(3, 8, 8);
    }

    #[test]
    fn key_bit_is_msb_first() {
        let key = 0b1000_0001u64;
        assert_eq!(key_bit(key, 0, 8), 1);
        assert_eq!(key_bit(key, 1, 8), 0);
        assert_eq!(key_bit(key, 6, 8), 0);
        assert_eq!(key_bit(key, 7, 8), 1);
    }

    #[test]
    fn subtree_membership() {
        let p = Prefix::of(0b1011_0000, 4, 8); // 1011
        assert!(in_subtree(p, 0, 0b1011_0111, 8));
        assert!(!in_subtree(p, 1, 0b1011_0111, 8));
        assert!(in_subtree(p, 1, 0b1011_1000, 8));
        assert!(!in_subtree(p, 0, 0b1111_0000, 8));
        // ε's subtrees partition the universe by the top bit.
        assert!(in_subtree(Prefix::EMPTY, 1, 0b1000_0000, 8));
        assert!(in_subtree(Prefix::EMPTY, 0, 0b0111_1111, 8));
    }

    #[test]
    fn prefix_is_prefix_of_and_child() {
        let key = 0xdead_beefu64;
        for len in 0..32u8 {
            assert!(Prefix::of(key, len, 32).is_prefix_of(key, 32));
        }
        let p = Prefix::of(key, 5, 32);
        let d = key_bit(key, 5, 32);
        assert_eq!(p.child(d), Prefix::of(key, 6, 32));
    }

    #[test]
    fn lcp_len_counts_shared_leading_bits() {
        assert_eq!(lcp_len(0b1010, 0b1010, 8), 8);
        assert_eq!(lcp_len(0b1010_0000, 0b1011_0000, 8), 3);
        assert_eq!(lcp_len(0x8000_0000, 0x0000_0000, 32), 0);
        assert_eq!(lcp_len(0xffff_0000, 0xffff_8000, 32), 16);
    }

    #[test]
    fn max_key_bounds() {
        assert_eq!(max_key(1), 1);
        assert_eq!(max_key(8), 255);
        assert_eq!(max_key(32), u32::MAX as u64);
        assert_eq!(max_key(64), u64::MAX);
    }
}
