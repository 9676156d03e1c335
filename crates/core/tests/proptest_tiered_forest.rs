//! Property-based test for the tiered forest: a [`TieredForest`] (per-shard
//! frozen tier + delta, watermark-driven background folds) is observationally
//! equal to a plain [`ShardedSkipTrie`] over arbitrary operation histories.
//!
//! The subject runs with a tiny merge watermark so background folds fire in
//! the middle of essentially every generated history, and the `Merge` op
//! forces synchronous folds at arbitrary points — none of which may be
//! visible to any subsequent read.

use proptest::prelude::*;
use skiptrie::{max_key, OrderedKv, ShardedSkipTrie, ShardedSkipTrieConfig, TieredForest};

#[derive(Debug, Clone)]
enum TOp {
    Insert(u64),
    Remove(u64),
    Get(u64),
    Pred(u64),
    Succ(u64),
    Range(u64, u64),
    PopFirst,
    PopLast,
    Merge,
}

fn op_strategy() -> impl Strategy<Value = TOp> {
    prop_oneof![
        any::<u64>().prop_map(TOp::Insert),
        any::<u64>().prop_map(TOp::Remove),
        any::<u64>().prop_map(TOp::Get),
        any::<u64>().prop_map(TOp::Pred),
        any::<u64>().prop_map(TOp::Succ),
        (any::<u64>(), any::<u64>()).prop_map(|(a, b)| TOp::Range(a, b)),
        any::<bool>().prop_map(|_| TOp::PopFirst),
        any::<bool>().prop_map(|_| TOp::PopLast),
        any::<bool>().prop_map(|_| TOp::Merge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tiered_forest_is_observationally_a_plain_forest(
        bits in 4u32..=64,
        watermark in 1usize..=16,
        seed_keys in proptest::collection::vec(any::<u64>(), 0..40),
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let clamp = max_key(bits);
        // Seed every shard's frozen tier directly so histories start with a
        // non-trivial frozen/delta split, not just empty frozen arrays.
        let seeded: Vec<(u64, u64)> = seed_keys
            .into_iter()
            .map(|k| k & clamp)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|k| (k, !k))
            .collect();
        let tiered: TieredForest<u64> = TieredForest::from_sorted(
            ShardedSkipTrieConfig::for_universe_bits(bits)
                .with_shards(4)
                .with_merge_watermark(watermark),
            &seeded,
        );
        let model: ShardedSkipTrie<u64> = ShardedSkipTrie::from_sorted(
            ShardedSkipTrieConfig::for_universe_bits(bits)
                .with_shards(4)
                .with_seed(42),
            &seeded,
        );
        for op in ops {
            match op {
                TOp::Insert(k) => {
                    let k = k & clamp;
                    prop_assert_eq!(tiered.insert(k, k ^ 1), model.insert(k, k ^ 1));
                }
                TOp::Remove(k) => {
                    let k = k & clamp;
                    prop_assert_eq!(tiered.remove(k), model.remove(k));
                }
                TOp::Get(k) => {
                    let k = k & clamp;
                    prop_assert_eq!(tiered.get(k), model.get(k));
                    prop_assert_eq!(tiered.contains(k), model.contains(k));
                }
                TOp::Pred(k) => {
                    let k = k & clamp;
                    prop_assert_eq!(tiered.predecessor(k), model.predecessor(k));
                }
                TOp::Succ(k) => {
                    let k = k & clamp;
                    prop_assert_eq!(tiered.successor(k), model.successor(k));
                }
                TOp::Range(a, b) => {
                    let (lo, hi) = (a.min(b) & clamp, a.max(b) & clamp);
                    let got: Vec<(u64, u64)> = tiered.range(lo..=hi).collect();
                    let want: Vec<(u64, u64)> = model.range(lo..=hi).collect();
                    prop_assert_eq!(got, want);
                }
                TOp::PopFirst => {
                    prop_assert_eq!(tiered.pop_first(), model.pop_first());
                }
                TOp::PopLast => {
                    prop_assert_eq!(tiered.pop_last(), model.pop_last());
                }
                TOp::Merge => {
                    // Folding every due shard is pure bookkeeping: nothing
                    // observable may change.
                    tiered.merge_all();
                }
            }
            prop_assert_eq!(tiered.len(), model.len());
            prop_assert_eq!(tiered.is_empty(), model.is_empty());
        }
        prop_assert_eq!(tiered.snapshot(), model.to_vec());
        tiered.quiesce();
        prop_assert_eq!(tiered.snapshot(), model.to_vec(), "post-quiesce snapshot");
        prop_assert!(tiered.is_quiesced(), "quiesce leaves no delta or sealed tier");
        prop_assert_eq!(tiered.frozen_len(), model.len(), "fully folded");
    }

    #[test]
    fn batch_ops_agree_with_plain_forest(
        bits in 4u32..=64,
        watermark in 1usize..=16,
        keys in proptest::collection::vec(any::<u64>(), 1..60),
        probes in proptest::collection::vec(any::<u64>(), 1..30),
    ) {
        let clamp = max_key(bits);
        let tiered: TieredForest<u64> = TieredForest::new(
            ShardedSkipTrieConfig::for_universe_bits(bits)
                .with_shards(4)
                .with_merge_watermark(watermark),
        );
        let model: ShardedSkipTrie<u64> = ShardedSkipTrie::new(
            ShardedSkipTrieConfig::for_universe_bits(bits)
                .with_shards(4)
                .with_seed(42),
        );
        let entries: Vec<(u64, u64)> =
            keys.iter().map(|&k| (k & clamp, k ^ 7)).collect();
        prop_assert_eq!(tiered.insert_batch(&entries), model.insert_batch(&entries));
        let probes: Vec<u64> = probes.into_iter().map(|k| k & clamp).collect();
        prop_assert_eq!(tiered.get_batch(&probes), model.get_batch(&probes));
        tiered.merge_all();
        prop_assert_eq!(tiered.get_batch(&probes), model.get_batch(&probes));
        let victims: Vec<u64> = entries.iter().map(|&(k, _)| k).step_by(2).collect();
        prop_assert_eq!(tiered.remove_batch(&victims), model.remove_batch(&victims));
        tiered.quiesce();
        prop_assert_eq!(tiered.snapshot(), model.to_vec());
        prop_assert_eq!(tiered.frozen_len(), model.len());
    }
}
