//! Property-based tests for the batched entry points: for arbitrary interleaved
//! batches (with duplicates, over arbitrary universe widths and shard counts),
//! `insert_batch` / `remove_batch` / `get_batch` must be observationally equivalent
//! to applying the same operations one at a time in slice order — on both the plain
//! [`SkipTrie`] and the [`ShardedSkipTrie`] forest.

use std::collections::BTreeMap;

use proptest::prelude::*;
use skiptrie::{OrderedKv, ShardedSkipTrie, ShardedSkipTrieConfig, SkipTrie, SkipTrieConfig};

#[derive(Debug, Clone)]
enum BatchOp {
    /// Insert a batch of (key-seed, value) pairs.
    Insert(Vec<(u64, u64)>),
    /// Remove a batch of key-seeds.
    Remove(Vec<u64>),
    /// Look up a batch of key-seeds.
    Get(Vec<u64>),
}

fn op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..40).prop_map(BatchOp::Insert),
        proptest::collection::vec(any::<u64>(), 0..40).prop_map(BatchOp::Remove),
        proptest::collection::vec(any::<u64>(), 0..40).prop_map(BatchOp::Get),
    ]
}

/// Clamp an arbitrary u64 into the configured universe, keeping duplicates likely
/// (a small modulus makes batches collide with earlier batches and themselves).
fn key_in(bits: u32, seed: u64) -> u64 {
    let max = skiptrie::max_key(bits);
    let window = 1_000u64.min(max);
    seed % (window + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn skiptrie_batches_equal_sequential_application(
        bits in 2u32..=64,
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let batched: SkipTrie<u64> =
            SkipTrie::new(SkipTrieConfig::for_universe_bits(bits).with_seed(11));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match op {
                BatchOp::Insert(entries) => {
                    let entries: Vec<(u64, u64)> = entries
                        .iter()
                        .map(|&(k, v)| (key_in(bits, k), v))
                        .collect();
                    let mut expected = 0usize;
                    for &(k, v) in &entries {
                        if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                            e.insert(v);
                            expected += 1;
                        }
                    }
                    prop_assert_eq!(batched.insert_batch(&entries), expected);
                }
                BatchOp::Remove(keys) => {
                    let keys: Vec<u64> = keys.iter().map(|&k| key_in(bits, k)).collect();
                    let expected = keys.iter().filter(|k| model.remove(k).is_some()).count();
                    prop_assert_eq!(batched.remove_batch(&keys), expected);
                }
                BatchOp::Get(keys) => {
                    let keys: Vec<u64> = keys.iter().map(|&k| key_in(bits, k)).collect();
                    let expected: Vec<Option<u64>> =
                        keys.iter().map(|k| model.get(k).copied()).collect();
                    prop_assert_eq!(batched.get_batch(&keys), expected);
                }
            }
        }
        let snapshot: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(batched.to_vec(), snapshot);
    }

    #[test]
    fn forest_batches_equal_sequential_application(
        bits in 2u32..=64,
        shard_bits in 0u32..=4,
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let shard_bits = shard_bits.min(bits);
        let mut config = ShardedSkipTrieConfig::for_universe_bits(bits).with_seed(13);
        config.shard_bits = shard_bits;
        let forest: ShardedSkipTrie<u64> = ShardedSkipTrie::new(config);
        // The sequential oracle is the *unbatched* forest itself, so this checks
        // batched-vs-sequential (not forest-vs-model, which proptest_model covers).
        let mut seq_config = ShardedSkipTrieConfig::for_universe_bits(bits).with_seed(13);
        seq_config.shard_bits = shard_bits;
        let sequential: ShardedSkipTrie<u64> = ShardedSkipTrie::new(seq_config);
        for op in &ops {
            match op {
                BatchOp::Insert(entries) => {
                    let entries: Vec<(u64, u64)> = entries
                        .iter()
                        .map(|&(k, v)| (key_in(bits, k), v))
                        .collect();
                    let expected = entries
                        .iter()
                        .filter(|&&(k, v)| sequential.insert(k, v))
                        .count();
                    prop_assert_eq!(forest.insert_batch(&entries), expected);
                }
                BatchOp::Remove(keys) => {
                    let keys: Vec<u64> = keys.iter().map(|&k| key_in(bits, k)).collect();
                    let expected = keys.iter().filter(|&&k| sequential.remove(k).is_some()).count();
                    prop_assert_eq!(forest.remove_batch(&keys), expected);
                }
                BatchOp::Get(keys) => {
                    let keys: Vec<u64> = keys.iter().map(|&k| key_in(bits, k)).collect();
                    let expected: Vec<Option<u64>> =
                        keys.iter().map(|&k| sequential.get(k)).collect();
                    prop_assert_eq!(forest.get_batch(&keys), expected);
                }
            }
        }
        prop_assert_eq!(forest.to_vec(), sequential.to_vec());
        prop_assert_eq!(forest.len(), sequential.len());
    }
}
