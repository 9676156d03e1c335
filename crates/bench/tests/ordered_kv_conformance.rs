//! Conformance of every [`OrderedKv<u64>`] implementor in the workspace.
//!
//! One seeded script drives three things in lockstep: the implementor through its
//! own trait impl (native overrides included), a twin of it through [`Kernel`] —
//! which forwards only the eight required methods, so every provided method runs
//! its *default* body — and a `BTreeMap` model. Every answer must agree three
//! ways, so a native override cannot drift from the derivation it replaces, and
//! neither can drift from the sequential specification.

use std::collections::BTreeMap;

use skiptrie::{
    OrderedKv, ShardedSkipTrie, ShardedSkipTrieConfig, SkipList, SkipListConfig, SkipTrie,
    SkipTrieConfig, TieredSkipTrie, TieredSkipTrieConfig,
};
use skiptrie_baselines::LockedBTreeMap;
use skiptrie_workloads::SplitMix64;

/// The required kernel of some implementor and nothing else.
struct Kernel<'a>(&'a dyn OrderedKv<u64>);

impl OrderedKv<u64> for Kernel<'_> {
    fn get(&self, key: u64) -> Option<u64> {
        self.0.get(key)
    }
    fn insert(&self, key: u64, value: u64) -> bool {
        self.0.insert(key, value)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        self.0.remove(key)
    }
    fn predecessor(&self, key: u64) -> Option<(u64, u64)> {
        self.0.predecessor(key)
    }
    fn successor(&self, key: u64) -> Option<(u64, u64)> {
        self.0.successor(key)
    }
    fn scan(&self, from: u64, limit: usize) -> usize {
        self.0.scan(from, limit)
    }
    fn pop_first(&self) -> Option<(u64, u64)> {
        self.0.pop_first()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

/// A fresh instance of every implementor. Universes are 64 bits wide so the
/// default `pop_last` probe (`u64::MAX`) is a legal key everywhere.
fn implementors() -> Vec<(&'static str, Box<dyn OrderedKv<u64>>)> {
    let forest = ShardedSkipTrieConfig::for_universe_bits(64).with_shards(8);
    vec![
        (
            "skiptrie",
            Box::new(SkipTrie::<u64>::new(SkipTrieConfig::for_universe_bits(64))),
        ),
        (
            "tiered-skiptrie",
            Box::new(TieredSkipTrie::<u64>::new(
                TieredSkipTrieConfig::for_universe_bits(64),
            )),
        ),
        (
            "sharded-skiptrie",
            Box::new(ShardedSkipTrie::<u64>::new(forest)),
        ),
        (
            "tiered-router",
            Box::new(ShardedSkipTrie::<u64, TieredSkipTrie<u64>>::new(forest)),
        ),
        (
            "lockfree-skiplist",
            Box::new(SkipList::<u64>::new(SkipListConfig::full_height())),
        ),
        ("locked-btreemap", Box::new(LockedBTreeMap::<u64>::new())),
        (
            "truncated-skiplist",
            Box::new(SkipList::<u64>::new(SkipListConfig::for_universe_bits(64))),
        ),
    ]
}

/// 400 keys spread over the whole universe (every router shard gets some).
fn key(rng: &mut SplitMix64) -> u64 {
    rng.next() % 400 * (u64::MAX / 400)
}

fn keys(rng: &mut SplitMix64, n: usize) -> Vec<u64> {
    (0..n).map(|_| key(rng)).collect()
}

#[test]
fn every_implementor_agrees_with_its_derivation_and_a_btreemap() {
    for ((name, native), (_, twin)) in implementors().into_iter().zip(implementors()) {
        let derived = Kernel(&*twin);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = SplitMix64::new(0x0C0F_FEE5);
        for step in 0..4_000 {
            let at = format!("{name} step {step}");
            // Asserts native == derived == model for one verb.
            macro_rules! agree {
                ($call:ident ( $($arg:expr),* ), $model:expr) => {{
                    let want = $model;
                    assert_eq!(native.$call($($arg),*), want, "{at}: native {}", stringify!($call));
                    assert_eq!(derived.$call($($arg),*), want, "{at}: derived {}", stringify!($call));
                }};
            }
            let k = key(&mut rng);
            match rng.next() % 13 {
                0 => agree!(get(k), model.get(&k).copied()),
                1 => agree!(contains(k), model.contains_key(&k)),
                2 => {
                    let fresh = !model.contains_key(&k);
                    agree!(insert(k, step), fresh);
                    model.entry(k).or_insert(step);
                }
                3 => agree!(remove(k), model.remove(&k)),
                4 => agree!(
                    predecessor(k),
                    model.range(..=k).next_back().map(|(k, v)| (*k, *v))
                ),
                5 => agree!(successor(k), model.range(k..).next().map(|(k, v)| (*k, *v))),
                6 => {
                    let limit = (rng.next() % 64) as usize;
                    agree!(scan(k, limit), model.range(k..).take(limit).count());
                }
                7 => agree!(pop_first(), model.pop_first()),
                8 => agree!(pop_last(), model.pop_last()),
                9 => {
                    agree!(len(), model.len());
                    agree!(is_empty(), model.is_empty());
                }
                10 => {
                    // Duplicates inside the batch resolve in slice order.
                    let entries: Vec<(u64, u64)> = keys(&mut rng, 24)
                        .into_iter()
                        .enumerate()
                        .map(|(i, k)| (k, step * 100 + i as u64))
                        .collect();
                    let before = model.len();
                    for &(k, v) in &entries {
                        model.entry(k).or_insert(v);
                    }
                    agree!(insert_batch(&entries), model.len() - before);
                    for &(k, _) in &entries {
                        agree!(get(k), model.get(&k).copied());
                    }
                }
                11 => {
                    let victims = keys(&mut rng, 24);
                    let removed = victims.iter().filter(|k| model.remove(k).is_some()).count();
                    agree!(remove_batch(&victims), removed);
                }
                _ => {
                    let probes = keys(&mut rng, 24);
                    let values: Vec<Option<u64>> =
                        probes.iter().map(|k| model.get(k).copied()).collect();
                    agree!(get_batch(&probes), values);
                }
            }
        }
        // Same contents at the end: drain both in order against the model.
        while let Some(entry) = model.pop_first() {
            assert_eq!(native.pop_first(), Some(entry), "{name}: native drain");
            assert_eq!(derived.pop_first(), Some(entry), "{name}: derived drain");
        }
        assert!(native.is_empty() && derived.is_empty(), "{name}");
    }
}
