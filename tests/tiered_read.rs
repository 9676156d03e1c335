//! Race tests for the tiered read path: readers run flat out while churn writers
//! dirty the delta and a merger keeps sealing, folding and atomically swapping
//! frozen tiers underneath them.
//!
//! The invariants under test are the tiered structure's consistency contract for
//! keys that are stable across the whole run:
//!
//! * a key inserted (and merged into the frozen tier) before the race and never
//!   touched again is visible to every `get`, `predecessor` and `range` — no
//!   reader may catch a half-built tier or a swap window where the key is absent;
//! * a key removed before the race and never re-inserted stays dead: its delta
//!   tombstone must shadow the frozen entry, ride every fold, and never let the
//!   frozen copy "resurrect".
//!
//! The third test is the witness for the dirty-gap summary's publish window: a
//! thread must read its own completed write even when a fold was published
//! between the moment it picked up the tiers and the moment it wrote the delta.
//! The last holds one scan open across folds: it serves the triple it was opened
//! on to the end, and pins nothing while it is not being advanced.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use skiptrie_suite::atomics::{domain_stats, pin_domain};
use skiptrie_suite::skiptrie::{
    Reclaimer, SkipTrieConfig, TieredRangeIter, TieredSkipTrie, TieredSkipTrieConfig,
};
use skiptrie_suite::workloads::harness::{scaled, worker_rng, Workload};

const UNIVERSE_BITS: u32 = 32;
/// Stable/dead keys live well below this; churn writers stay at or above it, so
/// churn can never perturb a predecessor query aimed at the stable range.
const CHURN_BASE: u64 = 0x8000_0000;

/// Stable keys `stable_key(i)` and their shadows `stable_key(i) + 1` (the keys we
/// kill before the race): spread out, strictly below `CHURN_BASE`.
fn stable_key(i: u64) -> u64 {
    (i + 1) * 2_000_003
}

fn build() -> (TieredSkipTrie<u64>, u64) {
    let t: TieredSkipTrie<u64> =
        TieredSkipTrie::new(TieredSkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
    let stable = 512u64;
    for i in 0..stable {
        assert!(t.insert(stable_key(i), i));
        assert!(t.insert(stable_key(i) + 1, i));
    }
    // Fold everything into the frozen tier, then kill the shadows: their
    // tombstones now sit in the delta, shadowing live frozen entries, and every
    // merge of the race must carry them until the frozen copies are gone.
    assert!(t.merge(), "prefill fold");
    assert_eq!(t.frozen_len(), 2 * stable as usize);
    assert_eq!(t.delta_len(), 0);
    for i in 0..stable {
        assert_eq!(t.remove(stable_key(i) + 1), Some(i));
    }
    (t, stable)
}

/// The race. The merger worker folds as fast as the fold allows when
/// `merge_pause` is `None`, else once per pause — a merger that is mostly idle,
/// so most reads cross a *dirty* delta rather than a fold in flight.
fn run_race(t: &TieredSkipTrie<u64>, stable: u64, merge_pause: Option<Duration>) {
    let writers = 3usize;
    let per_writer = scaled(8_000) as u64;
    let writers_done = AtomicUsize::new(0);
    let merges = AtomicUsize::new(0);
    // The race is bounded by folds, not by writes: how long a fold takes beside
    // five busy threads is the scheduler's business, so writers churn on past
    // `per_writer` until the folds asserted on below have happened (or, so that
    // a merger that never folds fails the test instead of hanging it, two
    // minutes have passed).
    let folds_wanted = if merge_pause.is_none() { 2 } else { 0 };
    let deadline = Instant::now() + Duration::from_secs(120);

    Workload::new(0xE13)
        .workers(writers, |ctx| {
            // Churn confined to a per-writer slice above CHURN_BASE: inserts and
            // removes keep the delta dirty so folds always have work to do.
            let mut rng = worker_rng(0xE13, ctx.index);
            let base = CHURN_BASE + ctx.index as u64 * 0x0100_0000;
            for op in 0u64.. {
                if op >= per_writer
                    && op % 64 == 0
                    && (merges.load(Ordering::SeqCst) >= folds_wanted || Instant::now() >= deadline)
                {
                    break;
                }
                let key = base + (rng.next() & 0x00FF_FFFF);
                if rng.next().is_multiple_of(3) {
                    t.remove(key);
                } else {
                    t.insert(key, key);
                }
            }
            writers_done.fetch_add(1, Ordering::SeqCst);
        })
        .workers(2, |ctx| {
            let mut rng = worker_rng(0xE14, ctx.index);
            loop {
                // Point reads against stable and dead keys.
                for _ in 0..64 {
                    let i = rng.next() % stable;
                    let k = stable_key(i);
                    assert_eq!(t.get(k), Some(i), "stable key {k} lost");
                    assert_eq!(t.get(k + 1), None, "dead key {} resurrected", k + 1);
                    // The dead key's predecessor is exactly the stable key: the
                    // tombstone must hide the frozen entry from ordered queries
                    // too, in every tier generation.
                    assert_eq!(
                        t.predecessor(k + 1),
                        Some((k, i)),
                        "pred through a tombstone"
                    );
                }
                // An ordered window over a few stable keys: all present, no dead
                // keys, strictly increasing.
                let i = rng.next() % (stable - 8);
                let lo = stable_key(i);
                let hi = stable_key(i + 7) + 1;
                let window: Vec<(u64, u64)> = t.range(lo..=hi).collect();
                let expect: Vec<(u64, u64)> = (i..i + 8).map(|j| (stable_key(j), j)).collect();
                assert_eq!(window, expect, "stable window must survive tier swaps");
                if writers_done.load(Ordering::SeqCst) == writers {
                    break;
                }
            }
        })
        .worker(|_| {
            while writers_done.load(Ordering::SeqCst) < writers {
                if t.merge() {
                    merges.fetch_add(1, Ordering::SeqCst);
                }
                match merge_pause {
                    Some(pause) => std::thread::sleep(pause),
                    None => std::thread::yield_now(),
                }
            }
        })
        .run();

    if merge_pause.is_none() {
        let folds = merges.load(Ordering::SeqCst);
        assert!(
            folds >= folds_wanted,
            "the race must actually cross tier folds: {folds} of {folds_wanted}"
        );
    }
    // Quiesce: the merger has exited, so one fold drains whatever the race left;
    // then the frozen tier alone must show every stable key and no dead key.
    t.merge();
    assert_eq!(t.delta_len(), 0, "quiesced delta drains");
    for i in 0..stable {
        let k = stable_key(i);
        assert_eq!(t.get(k), Some(i));
        assert_eq!(t.get(k + 1), None, "tombstone must survive the final fold");
    }
}

#[test]
fn readers_race_explicit_merge_swaps() {
    let (t, stable) = build();
    run_race(&t, stable, None);
    assert!(
        t.generation() >= 5,
        "prefill fold + >=2 race folds, two swaps each: generation {}",
        t.generation()
    );
}

#[test]
fn readers_race_the_background_merger() {
    let (t, stable) = build();
    run_race(&t, stable, Some(Duration::from_millis(1)));
}

/// Read-your-own-writes across seals and publishes. Each writer owns a slice of
/// keys (every other one frozen from the start) and flips one at a time; right
/// after each write it reads the key back through `get`, `predecessor` and
/// `successor`. A clean dirty-gap bit sends those reads to the frozen tier alone,
/// so this fails if a completed write's gap can ever read clean: the case that
/// needs care is a writer preempted between loading the tiers and writing the
/// live delta while the merger publishes a fold — it marked the *old* frozen
/// tier's summary. Preemption there needs more runnable threads than cores.
#[test]
fn a_thread_reads_its_own_writes_across_seals_and_publishes() {
    const SLICE: u64 = 64;
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let writers = 2 * cores + 1;
    let rounds = scaled(30_000);
    // Key 0 is a floor nobody writes, so every predecessor query has an answer.
    let key = |writer: u64, i: u64| 1 + (writer * SLICE + i) * 4;
    let t: TieredSkipTrie<u64> = TieredSkipTrie::from_sorted(
        TieredSkipTrieConfig::for_universe_bits(UNIVERSE_BITS),
        std::iter::once((0, 0)).chain((0..writers as u64 * SLICE).step_by(2).map(|j| {
            let k = key(j / SLICE, j % SLICE);
            (k, k)
        })),
    );
    let writers_done = AtomicUsize::new(0);
    let merges = AtomicUsize::new(0);

    Workload::new(0xE18)
        .workers(writers, |mut ctx| {
            // Counted out on a panic too: the merger waits for this count, and a
            // failed assert must end the run rather than hang it.
            struct CountOut<'a>(&'a AtomicUsize);
            impl Drop for CountOut<'_> {
                fn drop(&mut self) {
                    self.0.fetch_add(1, Ordering::SeqCst);
                }
            }
            let _done = CountOut(&writers_done);
            let mut present: Vec<bool> = (0..SLICE).map(|i| i % 2 == 0).collect();
            for round in 0..rounds as u64 {
                let i = ctx.rng.next() % SLICE;
                let k = key(ctx.index as u64, i);
                if present[i as usize] {
                    assert!(
                        t.remove(k).is_some(),
                        "round {round}: {k} is ours and present"
                    );
                    assert_eq!(t.get(k), None, "round {round}: get after remove({k})");
                    let below = t.predecessor(k).expect("key 0 is never removed").0;
                    assert!(
                        below < k,
                        "round {round}: predecessor({k}) after its remove"
                    );
                    let above = t.successor(k).map(|(s, _)| s);
                    assert!(
                        above != Some(k),
                        "round {round}: successor({k}) after its remove"
                    );
                } else {
                    assert!(t.insert(k, round), "round {round}: {k} is ours and absent");
                    assert_eq!(
                        t.get(k),
                        Some(round),
                        "round {round}: get after insert({k})"
                    );
                    assert_eq!(t.predecessor(k), Some((k, round)), "round {round}");
                    assert_eq!(t.successor(k), Some((k, round)), "round {round}");
                }
                present[i as usize] = !present[i as usize];
            }
        })
        .worker(|_| {
            while writers_done.load(Ordering::SeqCst) < writers {
                if t.merge() {
                    merges.fetch_add(1, Ordering::SeqCst);
                }
            }
        })
        .run();

    assert!(
        merges.load(Ordering::SeqCst) >= 2,
        "the race must actually cross tier folds"
    );
    // Audits the summary against whatever the race left un-merged.
    t.check_traversal_integrity();
}

/// The epoch domain of the outliving-scan test, its own so that the pending
/// gauge it drains counts nothing else.
const SCAN_DOMAIN: usize = 21;

/// Opens `range(..)` and pulls a few entries; then two writers flip volatile
/// keys while this thread folds, pulling a few more entries after each fold,
/// until three folds have completed since the scan opened. Returns the scan,
/// still mid-way, and the keys it has yielded. Bounded by the folds, with a
/// two-minute deadline that fails with the count.
fn scan_across_folds(t: &TieredSkipTrie<u64>, stable: u64) -> (TieredRangeIter<u64>, Vec<u64>) {
    const FOLDS: u64 = 3;
    let mut scan = t.range(..);
    let mut seen: Vec<u64> = scan.by_ref().take(5).map(|(k, _)| k).collect();
    let folds_wanted = t.merge_count() + FOLDS;
    let deadline = Instant::now() + Duration::from_secs(120);
    let stop = AtomicBool::new(false);
    Workload::new(0xE23)
        .workers(2, |mut ctx| {
            while !stop.load(Ordering::SeqCst) {
                let key = 8 * (ctx.rng.next() % stable) + 4;
                if ctx.rng.next().is_multiple_of(2) {
                    t.insert(key, key);
                } else {
                    t.remove(key);
                }
            }
        })
        .worker(|_| {
            // Raised on a panic too: the writers wait for it.
            struct Raise<'a>(&'a AtomicBool);
            impl Drop for Raise<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
            let _stop = Raise(&stop);
            while t.merge_count() < folds_wanted && Instant::now() < deadline {
                if t.merge() {
                    seen.extend(scan.by_ref().take(5).map(|(k, _)| k));
                }
                std::thread::yield_now();
            }
        })
        .run();
    assert!(
        t.merge_count() >= folds_wanted,
        "the scan must be held across {FOLDS} folds: {} of them in two minutes",
        t.merge_count() + FOLDS - folds_wanted
    );
    (scan, seen)
}

/// A scan owns the tiers triple it was opened on and reads it a window at a
/// time, so most of its windows are opened long after the structure has
/// published other triples — here at least three folds later, the scan's live
/// delta sealed, folded and gone from the structure. The contract is unchanged:
/// every key present throughout is yielded exactly once, in order. And between
/// `next()` calls the scan is three reference counts and no pin: with it open
/// and mid-way, the structure's epoch domain drains to nothing pending.
#[test]
fn a_scan_outlives_the_tiers_it_was_opened_on_and_pins_nothing() {
    let stable = scaled(4_000) as u64;
    // Stable key `i` is `8 i`, never written; beside it `8 i + 4` is volatile,
    // frozen from the start for even `i` and flipped by the writers throughout.
    let config = TieredSkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
        .with_trie(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_domain(SCAN_DOMAIN));
    let t: TieredSkipTrie<u64> = TieredSkipTrie::from_sorted(
        config,
        (0..stable).flat_map(|i| {
            let volatile = (i % 2 == 0).then_some((8 * i + 4, i));
            std::iter::once((8 * i, i)).chain(volatile)
        }),
    );

    let (scan, mut seen) = scan_across_folds(&t, stable);
    seen.extend(scan.map(|(k, _)| k));
    assert!(
        seen.windows(2).all(|pair| pair[0] < pair[1]),
        "strictly ascending: no key, stable or volatile, twice"
    );
    seen.retain(|k| k % 8 == 0);
    assert!(
        seen.iter().copied().eq((0..stable).map(|i| 8 * i)),
        "every stable key exactly once: {} of {stable}",
        seen.len()
    );

    // Again, and this time the scan is abandoned mid-way.
    let (mut scan, seen) = scan_across_folds(&t, stable);
    assert!(seen.len() < stable as usize, "the scan is mid-way");
    let drained = (0..10_000).any(|_| {
        pin_domain(SCAN_DOMAIN).flush();
        std::thread::yield_now();
        domain_stats(SCAN_DOMAIN, Reclaimer::Ebr).pending == 0
    });
    assert!(
        drained,
        "an open scan stalls reclamation: {:?}",
        domain_stats(SCAN_DOMAIN, Reclaimer::Ebr)
    );
    assert!(scan.next().is_some(), "and it still serves its triple");
    drop(scan);
    t.check_traversal_integrity();
}

/// Same-key writers against an oracle. More writer threads than cores insert
/// unique values into and remove them from four keys while a merger folds flat
/// out, so claims race each other inside the live delta, across a seal (a
/// writer still on the pre-seal triple beside one on the sealed triple) and
/// across a fold publish. Every value a remove returns must have been put there
/// by a successful insert or by the prefill, no value may come back twice, and
/// at the end each key's successes must add up to what `get` shows. Bounded by
/// the folds counted, with a two-minute deadline that fails with the count.
#[test]
fn same_key_writers_claim_every_value_exactly_once_across_folds() {
    const KEYS: u64 = 4;
    let folds_wanted = scaled(100);
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let writers = 2 * cores + 1;
    let key = |i: u64| 10 * (i + 1);
    // Keys 10 and 20 start frozen, with values below any a writer puts.
    let prefill: Vec<(u64, u64)> = (0..2).map(|i| (key(i), i)).collect();
    let t: TieredSkipTrie<u64> = TieredSkipTrie::from_sorted(
        TieredSkipTrieConfig::for_universe_bits(UNIVERSE_BITS),
        prefill.iter().copied(),
    );
    let deadline = Instant::now() + Duration::from_secs(120);
    let stop = AtomicBool::new(false);
    let merges = AtomicUsize::new(0);
    let inserted = std::sync::Mutex::new(Vec::new());
    let removed = std::sync::Mutex::new(Vec::new());

    Workload::new(0xE33)
        .workers(writers, |mut ctx| {
            let (mut puts, mut takes) = (Vec::new(), Vec::new());
            let tag = (ctx.index as u64 + 1) << 40;
            for op in 0u64.. {
                if op % 64 == 0 && stop.load(Ordering::SeqCst) {
                    break;
                }
                let k = key(ctx.rng.next() % KEYS);
                if ctx.rng.next().is_multiple_of(2) {
                    if t.insert(k, tag | op) {
                        puts.push((k, tag | op));
                    }
                } else if let Some(v) = t.remove(k) {
                    takes.push((k, v));
                }
            }
            inserted.lock().unwrap().extend(puts);
            removed.lock().unwrap().extend(takes);
        })
        .worker(|_| {
            // Raised on a panic too: the writers wait for it.
            struct Raise<'a>(&'a AtomicBool);
            impl Drop for Raise<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::SeqCst);
                }
            }
            let _stop = Raise(&stop);
            while merges.load(Ordering::SeqCst) < folds_wanted && Instant::now() < deadline {
                if t.merge() {
                    merges.fetch_add(1, Ordering::SeqCst);
                }
            }
        })
        .run();
    let folds = merges.load(Ordering::SeqCst);
    assert!(
        folds >= folds_wanted,
        "the writers must race {folds_wanted} folds: {folds} in two minutes"
    );

    let mut put: std::collections::HashSet<(u64, u64)> = prefill.iter().copied().collect();
    put.extend(inserted.into_inner().unwrap());
    let mut balance = std::collections::HashMap::<u64, i64>::new();
    for &(k, _) in &put {
        *balance.entry(k).or_default() += 1;
    }
    let mut taken = std::collections::HashSet::new();
    for (k, v) in removed.into_inner().unwrap() {
        assert!(
            put.contains(&(k, v)),
            "remove({k}) returned {v:#x}, never put there"
        );
        assert!(taken.insert((k, v)), "remove({k}) returned {v:#x} twice");
        *balance.entry(k).or_default() -= 1;
    }
    let mut present = 0;
    for i in 0..KEYS {
        let k = key(i);
        let got = t.get(k);
        let net = balance.get(&k).copied().unwrap_or(0);
        assert_eq!(
            net,
            i64::from(got.is_some()),
            "key {k}: successes net {net}, get {got:?}"
        );
        if let Some(v) = got {
            assert!(
                put.contains(&(k, v)) && !taken.contains(&(k, v)),
                "key {k} holds {v:#x}"
            );
            present += 1;
        }
    }
    assert_eq!(t.len(), present, "the net counter");
    t.merge();
    for i in 0..KEYS {
        let k = key(i);
        assert_eq!(
            t.get(k).is_some(),
            balance.get(&k) == Some(&1),
            "key {k} after a fold"
        );
    }
    t.check_traversal_integrity();
}
