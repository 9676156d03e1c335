//! Race tests for the tiered forest: readers stitch ranges across shard
//! boundaries while churn writers trip per-shard watermarks and the background
//! coordinator seals, folds and republishes tiers underneath them.
//!
//! The invariants under test are the forest-level consistency contract for
//! keys that are stable across the whole run:
//!
//! * a key folded into some shard's frozen tier before the race and never
//!   touched again is visible to every `get`, `predecessor` and stitched
//!   `range` — no reader may catch a shard mid-fold with the key absent;
//! * a key removed before the race and never re-inserted stays dead: its
//!   tombstone must shadow the frozen entry through every watermark-driven
//!   fold, in whichever shard it lives;
//! * concurrent cross-shard `pop_first` drains are exactly-once even while
//!   the shards being popped are sealing and folding;
//! * a watermark crossed while the coordinator is stuck inside another shard's
//!   fold is never lost (the lost-wakeup regression);
//! * one thread walking a 16-shard forest agrees with a `BTreeMap` at every
//!   step while every shard folds under it several times.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use skiptrie_suite::atomics::pin_domain;
use skiptrie_suite::skiptrie::{ShardedSkipTrieConfig, TieredForest};
use skiptrie_suite::workloads::harness::{scaled, worker_rng, Workload};
use skiptrie_suite::workloads::SplitMix64;

const UNIVERSE_BITS: u32 = 32;
const SHARDS: usize = 8;
/// Stable/dead keys live well below this; churn writers stay at or above it,
/// in the upper shards, so churn never perturbs an ordered query aimed at the
/// stable range — but folds in the lower shards still fire, because removals
/// of dead-key shadows and the coordinator's staggered sweeps touch them.
const CHURN_BASE: u64 = 0x8000_0000;

/// Stable keys `stable_key(i)` and their shadows `stable_key(i) + 1` (the keys
/// we kill before the race). The stride spreads them across shards 0..=2 of 8,
/// so an 8-key window routinely straddles a shard boundary and `range` must
/// stitch per-shard iterators whose tiers are swapping independently.
fn stable_key(i: u64) -> u64 {
    (i + 1) * 3_000_017
}

fn build(watermark: usize) -> (TieredForest<u64>, u64) {
    let stable = 512u64;
    let mut seeded: Vec<(u64, u64)> = Vec::with_capacity(2 * stable as usize);
    for i in 0..stable {
        seeded.push((stable_key(i), i));
        seeded.push((stable_key(i) + 1, i));
    }
    let f: TieredForest<u64> = TieredForest::from_sorted(
        ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
            .with_shards(SHARDS)
            .with_merge_watermark(watermark),
        &seeded,
    );
    assert!(f.is_quiesced(), "from_sorted seeds straight into frozen");
    assert_eq!(f.frozen_len(), 2 * stable as usize);
    // Kill the shadows: their tombstones now sit in per-shard deltas, shadowing
    // live frozen entries, and every fold of the race must carry them until the
    // frozen copies are gone.
    for i in 0..stable {
        assert_eq!(f.remove(stable_key(i) + 1), Some(i));
    }
    (f, stable)
}

/// The race; `explicit_mergers` extra workers (0 or a divisor of `SHARDS`)
/// each call `merge` round-robin over their own contiguous slice of the shards,
/// on top of the coordinator's watermark folds.
fn run_race(f: &TieredForest<u64>, stable: u64, explicit_mergers: usize) {
    let writers = 3usize;
    let readers = 2usize;
    let per_writer = scaled(8_000) as u64;
    let writers_done = AtomicUsize::new(0);
    // The race is bounded by folds, not by writes: when the coordinator gets a
    // core beside five busy threads is the scheduler's business, so writers
    // churn on past `per_writer` until the tier swaps asserted on below have
    // happened (or, so that a coordinator that never folds fails the test
    // instead of hanging it, two minutes have passed).
    let swaps = || -> u64 { (0..f.shard_count()).map(|i| f.shard(i).generation()).sum() };
    let swaps_wanted = f.shard_count() as u64 + 1;
    let deadline = Instant::now() + Duration::from_secs(120);

    Workload::new(0xE15)
        .workers(writers, |ctx| {
            // Churn confined to a per-writer slice in the upper shards: inserts
            // and removes keep per-shard deltas crossing the watermark so the
            // coordinator always has folds to stagger.
            let mut rng = worker_rng(0xE15, ctx.index);
            let base = CHURN_BASE + ctx.index as u64 * 0x2000_0000;
            for op in 0u64.. {
                if op >= per_writer
                    && op % 64 == 0
                    && (swaps() >= swaps_wanted || Instant::now() >= deadline)
                {
                    break;
                }
                let key = base + (rng.next() & 0x00FF_FFFF);
                if rng.next().is_multiple_of(3) {
                    f.remove(key);
                } else {
                    f.insert(key, key);
                }
            }
            writers_done.fetch_add(1, Ordering::SeqCst);
        })
        .workers(readers, |ctx| {
            let mut rng = worker_rng(0xE16, ctx.index);
            loop {
                // Point reads against stable and dead keys, across shards.
                for _ in 0..64 {
                    let i = rng.next() % stable;
                    let k = stable_key(i);
                    assert_eq!(f.get(k), Some(i), "stable key {k} lost");
                    assert_eq!(f.get(k + 1), None, "dead key {} resurrected", k + 1);
                    // The dead key's predecessor is exactly the stable key: the
                    // tombstone must hide the frozen entry from ordered queries
                    // in every tier generation of whichever shard holds it.
                    assert_eq!(
                        f.predecessor(k + 1),
                        Some((k, i)),
                        "pred through a tombstone"
                    );
                }
                // A stitched window over a few stable keys — frequently spanning
                // a shard boundary: all present, no dead keys, in order.
                let i = rng.next() % (stable - 8);
                let lo = stable_key(i);
                let hi = stable_key(i + 7) + 1;
                let window: Vec<(u64, u64)> = f.range(lo..=hi).collect();
                let expect: Vec<(u64, u64)> = (i..i + 8).map(|j| (stable_key(j), j)).collect();
                assert_eq!(window, expect, "stable window must survive shard folds");
                if writers_done.load(Ordering::SeqCst) == writers {
                    break;
                }
            }
        })
        .workers(explicit_mergers, |ctx| {
            // Worker indices are dense across roles: mergers come third.
            let merger = ctx.index - writers - readers;
            let span = SHARDS / explicit_mergers;
            while writers_done.load(Ordering::SeqCst) < writers {
                for shard in merger * span..(merger + 1) * span {
                    f.shard(shard).merge();
                }
                std::thread::yield_now();
            }
        })
        .run();

    // The churn volume dwarfs the watermark: background folds must have fired
    // with no timer anywhere in the system.
    let race_folds = swaps();
    assert!(
        race_folds >= swaps_wanted,
        "watermark-driven folds never fired during the race (gen sum {race_folds})"
    );
    f.quiesce();
    assert!(
        f.is_quiesced(),
        "quiesce drains every delta and sealed tier"
    );
    for i in 0..stable {
        let k = stable_key(i);
        assert_eq!(f.get(k), Some(i));
        assert_eq!(f.get(k + 1), None, "tombstone must survive the final fold");
    }
}

#[test]
fn readers_stitch_ranges_across_watermark_folds() {
    let (f, stable) = build(256);
    run_race(&f, stable, 0);
}

#[test]
fn readers_survive_staggered_folds_at_stripe_two() {
    // Same race, plus two workers folding the lower and the upper half of the
    // shards by hand, so readers can observe two shards mid-fold in a single
    // stitched range — and the coordinator keeps meeting due shards somebody
    // else is already folding.
    let (f, stable) = build(256);
    run_race(&f, stable, 2);
}

#[test]
fn shards_latched_during_a_stalled_fold_still_get_folded() {
    // The lost-wakeup regression. Shard A's fold is stalled in its writer-grace
    // wait by a guard this thread holds in A's epoch domain, so the coordinator
    // is stuck inside `merge` when B and C cross their watermarks: their wakes
    // find nobody asleep. A and the coordinator's scan position are chosen so
    // that B and C lie *behind* it — only re-reading the latches before
    // sleeping again can find them. Nothing is written after the stall ends.
    const WATERMARK: u64 = 64;
    let f: TieredForest<u64> = TieredForest::new(
        ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
            .with_shards(SHARDS)
            .with_merge_watermark(WATERMARK as usize),
    );
    let shard_span = 1u64 << (UNIVERSE_BITS - SHARDS.trailing_zeros());
    let cross_watermark = |shard: usize| {
        for k in 0..WATERMARK {
            assert!(f.insert(shard as u64 * shard_span + k, k));
        }
    };
    let (a, b, c) = (SHARDS - 1, 0, 1);
    let deadline = Instant::now() + Duration::from_secs(10);
    let wait_for = |what: &str, ready: &dyn Fn() -> bool| {
        while !ready() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    };

    let domain = f
        .shard(a)
        .config()
        .trie
        .domain
        .expect("shards own a domain");
    let stall = pin_domain(domain);
    cross_watermark(a);
    wait_for("the coordinator to seal shard A", &|| {
        f.shard(a).mid_merge()
    });
    cross_watermark(b);
    cross_watermark(c);
    assert!(f.shard(b).merge_due() && f.shard(c).merge_due());
    assert!(f.shard(a).mid_merge(), "A's fold must still be stalled");
    assert_eq!(f.shard(b).merge_count() + f.shard(c).merge_count(), 0);
    drop(stall);

    for shard in [a, b, c] {
        wait_for("a latched shard to fold", &|| {
            f.shard(shard).merge_count() >= 1
        });
    }
    assert!(f.is_quiesced(), "every latched delta was folded");
}

#[test]
fn cross_shard_pops_are_exactly_once_under_folds() {
    // Distinct keys spread over every shard; poppers drain the forest while
    // pop-generated tombstones trip the watermark and shards fold mid-drain.
    // Every key must be popped exactly once, by exactly one thread.
    let n = scaled(20_000) as u64;
    // A stride that spreads n keys across the whole universe (hence across
    // every shard) without ever leaving it, at any SKIPTRIE_SCALE.
    let stride = u64::from(u32::MAX) / (n + 1);
    let keys: Vec<(u64, u64)> = (0..n).map(|i| (i * stride + 7, i)).collect();
    let f: TieredForest<u64> = TieredForest::from_sorted(
        ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
            .with_shards(SHARDS)
            .with_merge_watermark(128),
        &keys,
    );
    assert_eq!(f.len(), n as usize);

    let poppers = 4usize;
    let popped: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::with_capacity(n as usize));
    Workload::new(0xE17)
        .workers(poppers, |_ctx| {
            let mut local = Vec::new();
            while let Some(entry) = f.pop_first() {
                local.push(entry);
            }
            popped.lock().expect("popped lock").extend(local);
        })
        .run();

    let mut drained = popped.into_inner().expect("popped lock");
    assert_eq!(drained.len(), n as usize, "every key popped exactly once");
    drained.sort_unstable();
    assert_eq!(drained, keys, "no key lost, duplicated, or invented");
    assert!(f.is_empty());
    f.quiesce();
    assert_eq!(
        f.frozen_len(),
        0,
        "drained forest folds down to empty tiers"
    );
}

#[test]
fn one_thread_over_sixteen_shards_matches_a_btreemap_across_folds() {
    // A seeded script whose consecutive keys land on different shards, so the
    // one thread keeps coming back to all 16 published tier triples while the
    // coordinator (watermark 32) and the periodic `merge_all` swap them out.
    const WIDE: usize = 16;
    const KEYS: u64 = 2_048;
    let f: TieredForest<u64> = TieredForest::new(
        ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
            .with_shards(WIDE)
            .with_merge_watermark(32),
    );
    let stride = (1u64 << UNIVERSE_BITS) / KEYS;
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = SplitMix64::new(0x16_5AAD);
    for step in 0..20_000u64 {
        let k = rng.next() % KEYS * stride + 3;
        match rng.next() % 8 {
            0 | 1 => {
                let fresh = !model.contains_key(&k);
                assert_eq!(f.insert(k, step), fresh, "step {step}: insert {k}");
                model.entry(k).or_insert(step);
            }
            2 => assert_eq!(f.remove(k), model.remove(&k), "step {step}: remove {k}"),
            3 => assert_eq!(f.get(k), model.get(&k).copied(), "step {step}: get {k}"),
            4 => assert_eq!(
                f.predecessor(k + 1),
                model.range(..=k + 1).next_back().map(|(k, v)| (*k, *v)),
                "step {step}: predecessor {}",
                k + 1
            ),
            5 => assert_eq!(
                f.successor(k - 1),
                model.range(k - 1..).next().map(|(k, v)| (*k, *v)),
                "step {step}: successor {}",
                k - 1
            ),
            6 => {
                // A window wide enough to stitch across a shard boundary.
                let hi = k.saturating_add(200 * stride).min(u64::from(u32::MAX));
                assert_eq!(
                    f.range(k..=hi).collect::<Vec<_>>(),
                    model
                        .range(k..=hi)
                        .map(|(k, v)| (*k, *v))
                        .collect::<Vec<_>>(),
                    "step {step}: range {k}..={hi}"
                );
            }
            _ => assert_eq!(f.pop_first(), model.pop_first(), "step {step}: pop_first"),
        }
        assert_eq!(f.len(), model.len(), "step {step}: len");
        if step % 2_500 == 2_499 {
            f.merge_all();
        }
    }
    f.quiesce();
    for shard in 0..WIDE {
        assert!(
            f.shard(shard).merge_count() >= 2,
            "shard {shard} folded {} times",
            f.shard(shard).merge_count()
        );
    }
    assert_eq!(f.snapshot(), model.into_iter().collect::<Vec<_>>());
}
