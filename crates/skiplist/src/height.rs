//! Geometric tower heights, one per key.
//!
//! Each key tosses a fair coin per level (paper, Section 2: "We choose a height
//! `H(x) ~ Geom(1/2)`") and is truncated at the skiplist's top level. A key that
//! reaches the top level becomes a *top-level key*: it joins the doubly-linked list
//! and the x-fast trie. With `L = log log u` levels the probability of reaching the
//! top is `2^-(L-1) ≈ 1/log u`, giving the paper's expected `O(log u)` spacing between
//! top-level keys.
//!
//! The coins are the bits of a hash of the key and the structure's seed
//! ([`key_height`]), not draws from a stream: a structure's shape is a function of
//! its key set and its seed alone, whichever threads inserted the keys in whatever
//! order, and a bulk load builds the towers the same inserts would. A caller who
//! knows the seed can pick keys with tall towers; like the prefix table's hash
//! flooding, that is outside this crate's contract.

/// Derives a geometric height (number of coin flips that came up heads) from a word of
/// randomness, truncated to `max_level`.
pub fn height_from_random(random: u64, max_level: u8) -> u8 {
    let flips = random.trailing_ones() as u8;
    flips.min(max_level)
}

/// Murmur3's 64-bit finaliser behind a golden-ratio offset (so key `seed` does not
/// hash to 0). Its constants differ from the splitmix64 finaliser the prefix table's
/// hasher ends in, so a key's height and its prefixes' bucket positions stay
/// unrelated.
fn mix(word: u64) -> u64 {
    let mut z = word.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// The tower height of `key` in a structure seeded with `seed`: `Geom(1/2)`
/// truncated to `max_level`, and the same on every call.
#[inline]
pub fn key_height(key: u64, seed: u64, max_level: u8) -> u8 {
    height_from_random(mix(key ^ seed), max_level)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn height_from_random_counts_trailing_ones() {
        assert_eq!(height_from_random(0b0, 10), 0);
        assert_eq!(height_from_random(0b1, 10), 1);
        assert_eq!(height_from_random(0b0111, 10), 3);
        assert_eq!(height_from_random(u64::MAX, 10), 10, "truncated at max");
        assert_eq!(height_from_random(u64::MAX, 4), 4);
    }

    #[test]
    fn sampled_heights_are_in_range_and_roughly_geometric() {
        let max = 6u8;
        let n = 200_000u64;
        // Consecutive keys, the least random input a caller can give.
        let mut counts = vec![0usize; max as usize + 1];
        for key in 0..n {
            let h = key_height(key, 42, max);
            counts[h as usize] += 1;
        }
        // Every height must be in range, level 0 should hold about half the mass, and
        // each level should be roughly half the previous (loose bounds: this is a
        // statistical smoke test, not a distribution test).
        let p0 = counts[0] as f64 / n as f64;
        assert!((0.45..0.55).contains(&p0), "P(h=0) = {p0}");
        for level in 1..max as usize {
            let ratio = counts[level] as f64 / counts[level - 1].max(1) as f64;
            assert!(
                (0.3..0.8).contains(&ratio),
                "level {level} ratio {ratio} (counts {counts:?})"
            );
        }
    }

    #[test]
    fn different_seeds_are_well_defined() {
        // A key's height is fixed by (key, seed) and in range; another seed
        // reshuffles which keys are tall.
        let a: Vec<u8> = (0..64u64).map(|k| key_height(k, 1, 5)).collect();
        let again: Vec<u8> = (0..64u64).map(|k| key_height(k, 1, 5)).collect();
        let b: Vec<u8> = (0..64u64).map(|k| key_height(k, 2, 5)).collect();
        assert_eq!(a, again, "heights are a function of (key, seed)");
        assert!(a.iter().chain(&b).all(|&h| h <= 5));
        assert_ne!(a, b, "the seed takes part in the height");
    }
}
