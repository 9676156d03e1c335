//! Concurrent correctness of the sharded SkipTrie forest: point-op agreement with
//! deterministic per-worker models, cross-shard range scans and ordered pops under
//! concurrency, and batched writers racing cross-shard scanning readers.
//!
//! The forest's contract (see `skiptrie::ShardedSkipTrie`): point operations are
//! linearizable (they touch exactly one shard); cross-shard compositions — stitched
//! scans, `pop_first`/`pop_last` — are weakly consistent, with the cursor guarantee
//! that every key present in range for the whole scan is yielded exactly once, in
//! order, and the drain guarantee that concurrent pops never duplicate or lose a
//! key. These tests pin those properties from many threads, always with key
//! populations and scan windows that *straddle shard boundaries*, since the
//! boundaries are exactly what sharding could get wrong.
//!
//! All orchestration goes through `skiptrie_workloads::harness` (barrier start,
//! deterministic per-worker RNGs, `SKIPTRIE_SCALE` sizing). One test counts the
//! shards a drained forest's pops probe, on the popping thread's own counters.

use std::collections::{BTreeSet, HashSet};
use std::sync::{Arc, Mutex};

use skiptrie_suite::metrics::{self, Counter};
use skiptrie_suite::skiptrie::{OrderedKv, ShardedSkipTrie, ShardedSkipTrieConfig};
use skiptrie_suite::workloads::harness::{scaled, worker_rng, Workload};

const UNIVERSE_BITS: u32 = 32;
const MAX: u64 = 1 << UNIVERSE_BITS;
/// 8 shards over 2^32 keys: shard slices of 2^29.
const SHARDS: usize = 8;
const SHARD_SPAN: u64 = MAX / SHARDS as u64;

fn forest() -> ShardedSkipTrie<u64> {
    ShardedSkipTrie::new(
        ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_shards(SHARDS),
    )
}

/// Every worker churns its own congruence class of keys (disjoint across workers,
/// spanning every shard); replaying each worker's deterministic stream sequentially
/// must produce exactly the forest's final contents. Catches routing errors (a key
/// in the wrong shard shows up as both a spurious miss and a spurious survivor) and
/// lost updates across the whole surface.
#[test]
fn concurrent_point_ops_match_replayed_models() {
    let f = Arc::new(forest());
    let writers = 4usize;
    let iters = scaled(8_000);
    let seed = 0x5a4d;
    Workload::new(seed)
        .workers(writers, |mut ctx| {
            for _ in 0..iters {
                // Key ≡ ctx.index (mod writers): disjoint per worker, all shards.
                let key =
                    (ctx.rng.next() % MAX) / writers as u64 * writers as u64 + ctx.index as u64;
                let key = key % MAX;
                if ctx.rng.next().is_multiple_of(2) {
                    f.insert(key, key ^ 0xffff);
                } else {
                    f.remove(key);
                }
            }
        })
        .run();
    // Sequential replay of each worker's stream gives the expected final set.
    let mut expected = BTreeSet::new();
    for index in 0..writers {
        let mut rng = worker_rng(seed, index);
        let mut mine = BTreeSet::new();
        for _ in 0..iters {
            let key = (rng.next() % MAX) / writers as u64 * writers as u64 + index as u64;
            let key = key % MAX;
            if rng.next().is_multiple_of(2) {
                mine.insert(key);
            } else {
                mine.remove(&key);
            }
        }
        expected.extend(mine);
    }
    let got: Vec<u64> = f.keys();
    let want: Vec<u64> = expected.into_iter().collect();
    assert_eq!(got.len(), want.len());
    assert_eq!(got, want, "forest contents diverge from replayed models");
    assert_eq!(f.len(), got.len());
    for &k in got.iter().take(64) {
        assert_eq!(f.get(k), Some(k ^ 0xffff));
    }
    assert!(f.check_traversal_integrity() >= got.len());
}

/// Cross-shard scans under churn: stable keys (never written after prefill, placed
/// so that every scan window straddles a shard boundary) are seen exactly once, in
/// strictly increasing order; churned keys may appear but only in-window and only
/// from the churn population.
#[test]
fn stitched_scans_see_stable_keys_exactly_once_across_boundaries() {
    const STRIDE: u64 = 1 << 20;
    let f = Arc::new(forest());
    // Stable keys: multiples of STRIDE (even); churn keys: odd.
    for k in (0..MAX).step_by(STRIDE as usize) {
        f.insert(k, k);
    }
    let iters = scaled(20_000);
    let scans = scaled(200);
    let violations = Arc::new(Mutex::new(Vec::<String>::new()));
    Workload::new(0x5ca2)
        .workers(3, |mut ctx| {
            for _ in 0..iters {
                let key = (ctx.rng.next() % MAX) | 1;
                if ctx.rng.next().is_multiple_of(2) {
                    f.insert(key, key);
                } else {
                    f.remove(key);
                }
            }
        })
        .workers(3, |mut ctx| {
            let violations = Arc::clone(&violations);
            for _ in 0..scans {
                // Center each window on a shard boundary so the stitch itself is
                // what gets exercised.
                let boundary = (1 + ctx.rng.next() % (SHARDS as u64 - 1)) * SHARD_SPAN;
                let half = ctx.rng.next() % (4 * STRIDE);
                let lo = boundary.saturating_sub(half);
                let hi = (boundary + half).min(MAX - 1);
                let got: Vec<u64> = f.range(lo..=hi).map(|(k, _)| k).collect();
                if !got.windows(2).all(|w| w[0] < w[1]) {
                    violations
                        .lock()
                        .unwrap()
                        .push(format!("scan {lo}..={hi} not strictly increasing"));
                    continue;
                }
                let mut stable_seen = Vec::new();
                for &k in &got {
                    if !(lo..=hi).contains(&k) {
                        violations
                            .lock()
                            .unwrap()
                            .push(format!("{k} outside window {lo}..={hi}"));
                    }
                    if k.is_multiple_of(STRIDE) {
                        stable_seen.push(k);
                    } else if !k.is_multiple_of(2) {
                        // Churned key: plausible.
                    } else {
                        violations
                            .lock()
                            .unwrap()
                            .push(format!("{k} is neither stable nor churn population"));
                    }
                }
                let expected: Vec<u64> = (lo..=hi)
                    .step_by(STRIDE as usize)
                    .map(|k| k.next_multiple_of(STRIDE))
                    .filter(|k| (lo..=hi).contains(k))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                if stable_seen != expected {
                    violations.lock().unwrap().push(format!(
                        "stable keys in {lo}..={hi}: saw {stable_seen:?}, want {expected:?}"
                    ));
                }
            }
        })
        .run();
    let violations = violations.lock().unwrap();
    assert!(violations.is_empty(), "{violations:?}");
    assert!(f.check_traversal_integrity() > 0);
}

/// Concurrent `pop_first` drain with no concurrent inserts: every prefilled key is
/// popped exactly once (no loss, no duplication), and — because shard-local pops
/// linearize and shards drain in key order — every thread's own pop sequence is
/// strictly increasing. The mirrored `pop_last` drain runs in the same test.
#[test]
fn concurrent_cross_shard_pops_are_exactly_once() {
    for from_front in [true, false] {
        let f = Arc::new(forest());
        let m = scaled(30_000);
        // Fibonacci-hash spread: keys land in every shard.
        let keys: BTreeSet<u64> = (0..m as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % MAX)
            .collect();
        for &k in &keys {
            f.insert(k, k);
        }
        let total = keys.len();
        let popped = Arc::new(Mutex::new(Vec::<Vec<u64>>::new()));
        Workload::new(0x90b5)
            .workers(4, |_ctx| {
                let mut mine = Vec::new();
                loop {
                    let next = if from_front {
                        f.pop_first()
                    } else {
                        f.pop_last()
                    };
                    match next {
                        Some((k, v)) => {
                            assert_eq!(v, k, "popped value corrupted");
                            mine.push(k);
                        }
                        None => break,
                    }
                }
                popped.lock().unwrap().push(mine);
            })
            .run();
        let per_thread = popped.lock().unwrap().clone();
        let mut all: Vec<u64> = Vec::new();
        for seq in &per_thread {
            assert!(
                seq.windows(2)
                    .all(|w| if from_front { w[0] < w[1] } else { w[0] > w[1] }),
                "a thread's quiescent-drain pops must be monotone"
            );
            all.extend_from_slice(seq);
        }
        assert_eq!(all.len(), total, "pops lost or duplicated (count)");
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), total, "duplicate pops");
        assert_eq!(
            unique,
            keys.iter().copied().collect::<HashSet<u64>>(),
            "popped key set diverges from prefill"
        );
        assert!(f.is_empty());
        assert_eq!(f.pop_first(), None);
        assert_eq!(f.pop_last(), None);
    }
}

/// The satellite stress mix: batched writers (insert_batch / remove_batch of churn
/// keys) race cross-shard scanning readers and a batched-get prober of the stable
/// population. Checks the scan contract for stable keys, that batch return counts
/// stay coherent with a per-worker model, and full traversal integrity at the end.
#[test]
fn batched_writers_with_cross_shard_scanning_readers() {
    const STRIDE: u64 = 1 << 21;
    let f = Arc::new(forest());
    for k in (0..MAX).step_by(STRIDE as usize) {
        f.insert(k, k); // stable population (multiples of STRIDE)
    }
    let rounds = scaled(150);
    let scans = scaled(150);
    Workload::new(0xba7c)
        // Batched writers: each owns a disjoint odd congruence class (mod 8) so
        // batch outcomes are deterministic per worker; batches span all shards.
        .workers(2, |mut ctx| {
            let class = 1 + 2 * ctx.index as u64; // 1 or 3 (odd, disjoint)
            let mut alive: BTreeSet<u64> = BTreeSet::new();
            for _ in 0..rounds {
                let batch: Vec<(u64, u64)> = (0..64)
                    .map(|_| {
                        let k = (ctx.rng.next() % MAX) & !7 | class;
                        (k, k)
                    })
                    .collect();
                let expect_new = {
                    let mut fresh = 0usize;
                    for &(k, _) in &batch {
                        if alive.insert(k) {
                            fresh += 1;
                        }
                    }
                    fresh
                };
                assert_eq!(
                    f.insert_batch(&batch),
                    expect_new,
                    "insert_batch count diverges from this worker's model"
                );
                let victims: Vec<u64> = batch.iter().map(|&(k, _)| k).step_by(2).collect();
                let expect_gone = victims.iter().filter(|k| alive.remove(*k)).count();
                assert_eq!(
                    f.remove_batch(&victims),
                    expect_gone,
                    "remove_batch count diverges from this worker's model"
                );
            }
            // Drain this worker's survivors so the final stable-only check is exact.
            let survivors: Vec<u64> = alive.into_iter().collect();
            assert_eq!(f.remove_batch(&survivors), survivors.len());
        })
        // Cross-shard scanning readers (windows straddle boundaries).
        .workers(2, |mut ctx| {
            for _ in 0..scans {
                let boundary = (1 + ctx.rng.next() % (SHARDS as u64 - 1)) * SHARD_SPAN;
                let half = ctx.rng.next() % (4 * STRIDE);
                let lo = boundary.saturating_sub(half);
                let hi = (boundary + half).min(MAX - 1);
                let got: Vec<u64> = f.range(lo..=hi).map(|(k, _)| k).collect();
                assert!(got.windows(2).all(|w| w[0] < w[1]), "scan out of order");
                let stable: Vec<u64> = got
                    .iter()
                    .copied()
                    .filter(|k| k.is_multiple_of(STRIDE))
                    .collect();
                let want: Vec<u64> = (lo..=hi)
                    .step_by(STRIDE as usize)
                    .map(|k| k.next_multiple_of(STRIDE))
                    .filter(|k| (lo..=hi).contains(k))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                assert_eq!(
                    stable, want,
                    "stable keys missed or duplicated in {lo}..={hi}"
                );
            }
        })
        // Batched readers probing the stable population.
        .worker(|mut ctx| {
            for _ in 0..scans {
                let keys: Vec<u64> = (0..32)
                    .map(|_| (ctx.rng.next() % MAX) / STRIDE * STRIDE)
                    .collect();
                let got = f.get_batch(&keys);
                for (k, v) in keys.iter().zip(got) {
                    assert_eq!(v, Some(*k), "stable key {k} lost");
                }
            }
        })
        .run();
    // Writers drained their own keys: only the stable population survives.
    assert_eq!(f.len(), (MAX / STRIDE) as usize);
    assert!(f.keys().iter().all(|k| k.is_multiple_of(STRIDE)));
    assert!(f.check_traversal_integrity() >= f.len());
}

/// Regression test for the drained-forest pop bug: `pop_first` / `pop_last` over a
/// mostly-empty forest used to re-probe **every** empty shard on **every** pop —
/// `O(S)` real searches (each `pop_last` probe running a full x-fast
/// `LowestAncestor` descent) to extract one key. The fix skips shards whose relaxed
/// occupancy counter reads 0; the `shard_pop_probe` / `shard_pop_skip` counters
/// show the skip is real. Pops record on the popping thread, so this thread's own
/// counters measure them exactly however many other tests run beside it.
#[test]
fn drained_forest_pops_probe_only_occupied_shards() {
    const SHARDS: usize = 16;
    const SHARD_SPAN: u64 = MAX / SHARDS as u64;

    // One-hot occupancy: every key lives in shard 9 of 16, so 9 empty shards sit in
    // front of the hot one on the pop_first path (6 on the pop_last path).
    let f: ShardedSkipTrie<u64> = ShardedSkipTrie::new(
        ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_shards(SHARDS),
    );
    let n = scaled(1_000) as u64;
    let base = 9 * SHARD_SPAN;
    for k in 0..n {
        assert!(f.insert(base + k, k));
    }

    metrics::set_enabled(true);
    let before = metrics::thread_snapshot();
    // Drain from the front, then re-fill and drain from the back, then ask the
    // empty forest once more from each end (the authoritative fallback pass).
    for k in 0..n {
        assert_eq!(f.pop_first(), Some((base + k, k)), "ordered front drain");
    }
    assert_eq!(f.pop_first(), None);
    for k in 0..n {
        assert!(f.insert(base + k, k));
    }
    for k in (0..n).rev() {
        assert_eq!(f.pop_last(), Some((base + k, k)), "ordered back drain");
    }
    assert_eq!(f.pop_last(), None);
    let delta = metrics::thread_snapshot().since(&before);
    metrics::set_enabled(false);

    let probes = delta.get(Counter::ShardPopProbe);
    let skips = delta.get(Counter::ShardPopSkip);
    let pops = 2 * n;
    // One real probe per successful pop, plus 2 * SHARDS fallback probes for the
    // two authoritative None answers (and a little slack for the final pop of each
    // drain, which may fall through to the fallback pass after the hot shard's
    // counter hits 0). Before the fix this was ~10 probes per pop_first and ~7 per
    // pop_last — `pops * 8`-ish in total.
    let ceiling = pops + 4 * SHARDS as u64;
    assert!(
        probes <= ceiling,
        "empty shards must not be probed per pop: {probes} probes for {pops} pops \
         (ceiling {ceiling})"
    );
    // The empty shards in front of the hot one are skipped on every pop: at least
    // 9 skips per pop_first and 6 per pop_last.
    assert!(
        skips >= n * 9 + n * 6,
        "occupancy skips must happen: {skips} skips for {pops} pops"
    );
    assert!(f.is_empty());
}
