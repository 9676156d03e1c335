//! Property-based tests for the growable bucket directory: over arbitrary key
//! universes, fanouts and operation sequences, the map and a `BTreeMap` model are
//! observationally identical — growth changes where bucket words live, never what
//! any operation returns. The bulk path is covered too: `bulk_load` into a
//! directory pre-grown to its final height must equal item-at-a-time inserts.

use std::collections::BTreeMap;

use proptest::prelude::*;
use skiptrie_splitorder::{DirectoryConfig, SplitOrderedMap};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u32),
    Remove(u64),
    RemoveIf(u64, u32),
    Get(u64),
}

/// Keys drawn from a `2^universe_bits`-sized universe: small universes hammer
/// same-key races and collisions, large ones spread across many buckets.
fn op_strategy(universe_bits: u32) -> impl Strategy<Value = MapOp> {
    let mask = u64::MAX >> (64 - universe_bits);
    prop_oneof![
        (any::<u64>(), any::<u32>()).prop_map(move |(k, v)| MapOp::Insert(k & mask, v)),
        any::<u64>().prop_map(move |k| MapOp::Remove(k & mask)),
        (any::<u64>(), any::<u32>()).prop_map(move |(k, v)| MapOp::RemoveIf(k & mask, v)),
        any::<u64>().prop_map(move |k| MapOp::Get(k & mask)),
    ]
}

/// Applies `op` to `map`, asserting the observed result equals the model's (the
/// vendored `prop_assert*` macros panic on failure, so no `Result` plumbing).
fn apply_and_check(map: &SplitOrderedMap<u64, u32>, model: &mut BTreeMap<u64, u32>, op: &MapOp) {
    match *op {
        MapOp::Insert(k, v) => {
            let expected = !model.contains_key(&k);
            if expected {
                model.insert(k, v);
            }
            prop_assert_eq!(map.insert(k, v), expected);
        }
        MapOp::Remove(k) => {
            prop_assert_eq!(map.remove(&k), model.remove(&k));
        }
        MapOp::RemoveIf(k, v) => {
            let matches = model.get(&k) == Some(&v);
            if matches {
                model.remove(&k);
            }
            prop_assert_eq!(map.remove_if(&k, |stored| *stored == v), matches);
        }
        MapOp::Get(k) => {
            prop_assert_eq!(map.get(&k), model.get(&k).copied());
        }
    }
    prop_assert_eq!(map.len(), model.len());
}

fn contents(map: &SplitOrderedMap<u64, u32>) -> BTreeMap<u64, u32> {
    let mut out = BTreeMap::new();
    map.for_each(|k, v| {
        out.insert(*k, *v);
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Named for the bounded twin it also drove until the bounded directory mode was
    // removed; the name is this test's id in the tier-1 floor list.
    #[test]
    fn unbounded_equals_bounded_at_huge_cap_equals_model(
        universe_bits in 1u32..=48,
        segment_bits in 2u32..=12,
        ops in proptest::collection::vec(op_strategy(48), 1..400),
    ) {
        // A fanout this small forces real root growth inside the op sequence.
        let map: SplitOrderedMap<u64, u32> = SplitOrderedMap::with_directory(
            DirectoryConfig::default().with_segment_bits(segment_bits),
        );
        let mut model = BTreeMap::new();
        let mask = u64::MAX >> (64 - universe_bits);
        for op in &ops {
            // Re-mask the ops into this case's (arbitrary-width) universe.
            let op = match *op {
                MapOp::Insert(k, v) => MapOp::Insert(k & mask, v),
                MapOp::Remove(k) => MapOp::Remove(k & mask),
                MapOp::RemoveIf(k, v) => MapOp::RemoveIf(k & mask, v),
                MapOp::Get(k) => MapOp::Get(k & mask),
            };
            apply_and_check(&map, &mut model, &op);
        }
        prop_assert_eq!(contents(&map), model);
    }

    #[test]
    fn bulk_load_into_a_pre_grown_tree_equals_incremental(
        raw_keys in proptest::collection::vec(any::<u64>(), 1..600),
        segment_bits in 2u32..=12,
        follow_ups in proptest::collection::vec(op_strategy(64), 0..50),
    ) {
        // bulk_load requires distinct keys; dedup the arbitrary stream.
        let keys: std::collections::BTreeSet<u64> = raw_keys.into_iter().collect();
        let config = DirectoryConfig::default().with_segment_bits(segment_bits);
        let mut bulk: SplitOrderedMap<u64, u32> = SplitOrderedMap::with_directory(config);
        let incremental: SplitOrderedMap<u64, u32> = SplitOrderedMap::with_directory(config);
        let items: Vec<(u64, u32)> =
            keys.iter().map(|&k| (k, k as u32 ^ 0x5eed)).collect();
        prop_assert_eq!(bulk.bulk_load(items.clone()), items.len());
        let mut model = BTreeMap::new();
        for &(k, v) in &items {
            incremental.insert(k, v);
            model.insert(k, v);
        }
        // Same observable map, same directory: the bulk pre-size must land on
        // exactly the bucket count and tree height incremental growth reaches.
        prop_assert_eq!(bulk.bucket_count(), incremental.bucket_count());
        prop_assert_eq!(bulk.directory_height(), incremental.directory_height());
        prop_assert_eq!(contents(&bulk), model.clone());
        // The pre-grown tree keeps serving the concurrent protocol afterwards.
        for op in &follow_ups {
            apply_and_check(&bulk, &mut model, op);
        }
        prop_assert_eq!(contents(&bulk), model);
    }
}
