//! What a stalled reader costs the epoch collector, and that retirements drain.
//!
//! The stall contract: one reader pins, parks on a barrier, and holds its guard
//! across the whole churn window while writers keep deleting. The parked guard
//! freezes its domain's epoch, so *every* deferral made during the window stays
//! pending — the domain's garbage grows with churn until the reader unpins, and
//! then drains to zero. Other domains are unaffected (`tests/domain_isolation.rs`).
//!
//! The assertions use [`epoch::domain_stats`] — exact per-domain gauges, not the
//! process-wide metrics counters — on domains private to this file, so parallel
//! tests cannot inflate them. The growth assertions are `>=` (inflation-safe).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use skiptrie_suite::atomics as epoch;
use skiptrie_suite::skiptrie::{Reclaimer, SkipTrie, SkipTrieConfig};
use skiptrie_suite::workloads::harness::{scaled, Workload};

const UNIVERSE_BITS: u32 = 32;

// Domains private to this file: 16/17 for the stall A/B pair, 20 for the tiered
// regression, 15 for the splitorder regression. Other suites use 7
// (domain_isolation) and 11 (splitorder's own tests).
const EBR_BASELINE_DOMAIN: usize = 16;
const EBR_STALL_DOMAIN: usize = 17;

/// Fibonacci spread matching `KeyDist::ScatteredSet`.
fn spread(index: u64) -> u64 {
    index.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << UNIVERSE_BITS) - 1)
}

/// The domain's exact garbage gauges.
fn stats(domain: usize) -> epoch::GarbageStats {
    epoch::domain_stats(domain, Reclaimer::Ebr)
}

/// Pins and flushes `domain` until its pending-garbage gauge reads zero
/// (reclamation is eventual: exiting threads publish garbage from TLS teardown,
/// which can lag a join).
fn drain_domain(domain: usize) -> bool {
    for _ in 0..10_000 {
        epoch::pin_domain(domain).flush();
        if stats(domain).pending == 0 {
            return true;
        }
        std::thread::yield_now();
    }
    stats(domain).pending == 0
}

struct ChurnOutcome {
    /// High-water mark of the domain's pending-garbage gauge after the churn.
    hwm: u64,
    /// Successful removals performed while the reader (if any) was parked — each
    /// one deferred at least one closure into the domain, so it floors the EBR
    /// pending count.
    stall_removes: u64,
}

/// Inserts a working set, optionally parks a reader holding a guard, then churns
/// with 4 writers and reports the domain's garbage high-water mark.
fn churn(domain: usize, stall_reader: bool) -> ChurnOutcome {
    let working_set = scaled(2_000) as u64;
    let writer_iters = scaled(40_000);
    let config = SkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_domain(domain);
    let trie: SkipTrie<u64> = SkipTrie::new(config);
    for i in 0..working_set {
        trie.insert(spread(i), i);
    }
    // Quiesce the warm-up garbage so the stall window starts clean.
    assert!(
        drain_domain(domain),
        "warm-up garbage never drained in domain {domain}"
    );

    let ready = Barrier::new(2);
    let release = Barrier::new(2);
    let removes = AtomicUsize::new(0);

    std::thread::scope(|s| {
        if stall_reader {
            s.spawn(|| {
                // The stalled reader: pin through the trie (so the guard is in the
                // trie's domain), then park while holding the guard across the
                // entire churn window.
                let guard = trie.pin();
                ready.wait();
                release.wait();
                drop(guard);
                trie.pin().flush();
            });
            ready.wait();
        }

        Workload::new(0x57A1)
            .workers(4, |mut ctx| {
                for i in 0..writer_iters {
                    let key = spread(ctx.rng.next() % working_set);
                    if ctx.rng.next() % 2 == 0 {
                        trie.insert(key, key);
                    } else if trie.remove(key).is_some() {
                        removes.fetch_add(1, Ordering::Relaxed);
                    }
                    // Periodic flush: with no stalled reader this lets collection
                    // keep pace (the baseline hwm stays at batch scale even when
                    // the box is loaded and writers outrun the collector); with a
                    // stalled reader it frees nothing — the parked guard freezes
                    // the epoch — so the stalled hwm keeps its churn floor.
                    if i % 1024 == 1023 {
                        trie.pin().flush();
                    }
                }
                // Publish this worker's partial garbage before the join.
                trie.pin().flush();
            })
            .run();

        if stall_reader {
            release.wait();
        }
    });

    let hwm = stats(domain).hwm;
    // With the reader gone, everything must drain back to zero — a leak here
    // means a deferral was lost.
    assert!(
        drain_domain(domain),
        "domain {domain} never drained after the reader released: {:?}",
        stats(domain)
    );
    ChurnOutcome {
        hwm,
        stall_removes: removes.load(Ordering::Relaxed) as u64,
    }
}

/// EBR under a stalled reader: every deferral made during the stall window stays
/// pending (the parked guard freezes the epoch), so the high-water mark must
/// clear the churn-proportional floor and dwarf the no-stall baseline — the
/// witness of the stall contract.
#[test]
fn ebr_garbage_grows_with_churn_under_a_stalled_reader() {
    let baseline = churn(EBR_BASELINE_DOMAIN, false);
    let stalled = churn(EBR_STALL_DOMAIN, true);
    // Every successful removal during the stall deferred at least one closure,
    // and none of them could be freed while the reader held its pin.
    assert!(
        stalled.hwm >= stalled.stall_removes,
        "EBR high-water mark {} fell below the churn floor of {} stalled removals",
        stalled.hwm,
        stalled.stall_removes
    );
    // The margin is 2x, not 10x: on an oversubscribed host (1-CPU containers,
    // loaded CI runners) a *descheduled* writer holding a pin blocks epoch
    // advance for its whole timeslice out, so the no-stall baseline's hwm
    // legitimately spikes to a fraction of the window's churn — involuntary
    // mini-stalls. The stalled run still holds *everything* (the churn-floor
    // assert above), so it clears 2x even there; idle hosts show 10x+.
    assert!(
        stalled.hwm >= 2 * baseline.hwm.max(1),
        "EBR high-water mark {} did not grow >= 2x over the quiesced baseline {}",
        stalled.hwm,
        baseline.hwm
    );
}

/// Regression for the retire-site sweep (tiered swap): a fold retires the delta
/// it absorbed and the displaced tier triple through the structure's domain, so
/// two folds — the second one folding tombstones — read back right and the domain
/// drains to zero.
#[test]
fn two_folds_retire_a_delta_and_the_domain_drains_to_zero() {
    use skiptrie_suite::skiptrie::{TieredSkipTrie, TieredSkipTrieConfig};
    const TIERED_DOMAIN: usize = 20;

    let trie_config = SkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_domain(TIERED_DOMAIN);
    let config = TieredSkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_trie(trie_config);
    let t: TieredSkipTrie<u64> = TieredSkipTrie::new(config);

    let n = scaled(4_000) as u64;
    for i in 0..n {
        assert!(t.insert(spread(i), i));
    }
    // Fold into the frozen tier (retires the delta through the domain), then
    // delete half and fold again so tombstones churn the delta too.
    for _ in 0..10_000 {
        t.merge();
        if t.delta_len() == 0 {
            break;
        }
        std::thread::yield_now();
    }
    assert_eq!(t.delta_len(), 0, "prefill fold never landed");
    for i in 0..n / 2 {
        assert_eq!(t.remove(spread(i)), Some(i));
    }
    for _ in 0..10_000 {
        t.merge();
        if t.delta_len() == 0 {
            break;
        }
        std::thread::yield_now();
    }
    for i in 0..n {
        let expected = if i < n / 2 { None } else { Some(i) };
        assert_eq!(t.get(spread(i)), expected, "key {i} wrong after the folds");
    }
    drop(t);
    assert!(
        drain_domain(TIERED_DOMAIN),
        "garbage leaked: {:?}",
        stats(TIERED_DOMAIN)
    );
}

/// Regression for the retire-site sweep (split-ordered victim retire): removals
/// from a domain-isolated map retire each victim into that domain, and the domain
/// drains to zero — a lost retirement would leave pending above zero.
#[test]
fn split_ordered_removals_drain_their_domain_to_zero() {
    use skiptrie_suite::skiptrie::DirectoryConfig;
    use skiptrie_suite::splitorder::SplitOrderedMap;
    const MAP_DOMAIN: usize = 15;

    let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory_in_domain(
        DirectoryConfig::default(),
        Some(MAP_DOMAIN),
        Reclaimer::Ebr,
    );
    let n = scaled(8_000) as u64;
    Workload::new(0x50AF)
        .workers(4, |ctx| {
            let lane = ctx.index as u64;
            for i in 0..n {
                let key = spread(i * 4 + lane);
                map.insert(key, key + 1);
                if i % 2 == 0 {
                    assert_eq!(map.remove(&key), Some(key + 1));
                }
            }
        })
        .run();
    drop(map);
    assert!(
        drain_domain(MAP_DOMAIN),
        "garbage leaked: {:?}",
        stats(MAP_DOMAIN)
    );
}
