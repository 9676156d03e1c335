//! Cross-crate integration tests: every ordered structure in the workspace (the
//! SkipTrie, the truncated and full-height skiplists, the locked BTreeMap, and the
//! sequential x-fast / y-fast tries) must agree with a `BTreeMap` model — and hence
//! with each other — over long randomized operation histories.

use std::collections::BTreeMap;

use skiptrie_suite::baselines::{LockedBTreeMap, SeqXFastTrie, SeqYFastTrie};
use skiptrie_suite::skiplist::{SkipList, SkipListConfig};
use skiptrie_suite::skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_suite::workloads::SplitMix64;

const UNIVERSE_BITS: u32 = 16;
const OPS: usize = 20_000;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64),
    Remove(u64),
    Pred(u64),
    Succ(u64),
}

fn history(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    (0..OPS)
        .map(|_| {
            let key = rng.next() % (1 << UNIVERSE_BITS);
            match rng.next() % 5 {
                0 | 1 => Op::Insert(key),
                2 => Op::Remove(key),
                3 => Op::Pred(key),
                _ => Op::Succ(key),
            }
        })
        .collect()
}

#[test]
fn skiptrie_agrees_with_model() {
    let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, op) in history(1).into_iter().enumerate() {
        match op {
            Op::Insert(k) => {
                let expected = model.insert(k, k).is_none();
                if !expected {
                    // keep the original value in the model (insert-if-absent)
                }
                assert_eq!(trie.insert(k, k), expected, "op {i}: insert {k}");
            }
            Op::Remove(k) => assert_eq!(trie.remove(k), model.remove(&k), "op {i}: remove {k}"),
            Op::Pred(k) => assert_eq!(
                trie.predecessor(k),
                model.range(..=k).next_back().map(|(a, b)| (*a, *b)),
                "op {i}: pred {k}"
            ),
            Op::Succ(k) => assert_eq!(
                trie.successor(k),
                model.range(k..).next().map(|(a, b)| (*a, *b)),
                "op {i}: succ {k}"
            ),
        }
    }
    let expected: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(trie.to_vec(), expected);
}

#[test]
fn truncated_and_full_skiplists_agree_with_model() {
    let truncated: SkipList<u64> = SkipList::new(SkipListConfig::for_universe_bits(UNIVERSE_BITS));
    let full: SkipList<u64> = SkipList::new(SkipListConfig::full_height());
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in history(2) {
        match op {
            Op::Insert(k) => {
                let expected = model.insert(k, k).is_none();
                assert_eq!(truncated.insert(k, k), expected);
                assert_eq!(full.insert(k, k), expected);
            }
            Op::Remove(k) => {
                let expected = model.remove(&k);
                assert_eq!(truncated.remove(k), expected);
                assert_eq!(full.remove(k), expected);
            }
            Op::Pred(k) => {
                let expected = model.range(..=k).next_back().map(|(a, b)| (*a, *b));
                assert_eq!(truncated.predecessor(k), expected);
                assert_eq!(full.predecessor(k), expected);
            }
            Op::Succ(k) => {
                let expected = model.range(k..).next().map(|(a, b)| (*a, *b));
                assert_eq!(truncated.successor(k), expected);
                assert_eq!(full.successor(k), expected);
            }
        }
    }
}

#[test]
fn sequential_tries_and_locked_btree_agree_with_model() {
    let mut xfast: SeqXFastTrie<u64> = SeqXFastTrie::new(UNIVERSE_BITS);
    let mut yfast: SeqYFastTrie<u64> = SeqYFastTrie::new(UNIVERSE_BITS);
    let locked: LockedBTreeMap<u64> = LockedBTreeMap::new();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in history(3) {
        match op {
            Op::Insert(k) => {
                let expected = model.insert(k, k).is_none();
                assert_eq!(xfast.insert(k, k), expected);
                assert_eq!(yfast.insert(k, k), expected);
                assert_eq!(locked.insert(k, k), expected);
            }
            Op::Remove(k) => {
                let expected = model.remove(&k);
                assert_eq!(xfast.remove(k), expected);
                assert_eq!(yfast.remove(k), expected);
                assert_eq!(locked.remove(k), expected);
            }
            Op::Pred(k) => {
                let expected = model.range(..=k).next_back().map(|(a, b)| (*a, *b));
                assert_eq!(xfast.predecessor(k), expected);
                assert_eq!(yfast.predecessor(k), expected);
                assert_eq!(locked.predecessor(k), expected);
            }
            Op::Succ(k) => {
                let expected = model.range(k..).next().map(|(a, b)| (*a, *b));
                assert_eq!(xfast.successor(k), expected);
                assert_eq!(yfast.successor(k), expected);
                assert_eq!(locked.successor(k), expected);
            }
        }
    }
}

/// The SkipTrie must behave identically across universe widths for keys that fit.
#[test]
fn universe_width_does_not_change_semantics() {
    let small = SkipTrie::new(SkipTrieConfig::for_universe_bits(16));
    let large = SkipTrie::new(SkipTrieConfig::for_universe_bits(64));
    let mut rng = SplitMix64::new(4);
    for _ in 0..10_000 {
        let key = rng.next() % (1 << 16);
        match rng.next() % 3 {
            0 => assert_eq!(small.insert(key, key), large.insert(key, key)),
            1 => assert_eq!(small.remove(key), large.remove(key)),
            _ => assert_eq!(small.predecessor(key), large.predecessor(key)),
        }
    }
    assert_eq!(small.to_vec(), large.to_vec());
}
