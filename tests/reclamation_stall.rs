//! Stall-robustness of the reclamation substrates (it carries what the deleted E15 stalled-reader table measured).
//!
//! The scenario both substrates are measured against: one reader pins, parks on a
//! barrier, and holds its guard across the whole churn window while writers keep
//! deleting. Under EBR the parked guard freezes the global epoch, so *every*
//! deferral made during the window stays pending — garbage grows with churn,
//! without bound. Under the hazard substrate the parked guard protects only the
//! era interval it pinned at: objects born *after* the reader pinned are freed as
//! soon as they are retired and scanned, so pending garbage stays bounded by the
//! working set the reader could actually have seen, no matter how long the churn
//! runs.
//!
//! The assertions use [`epoch::domain_stats`] — exact per-domain gauges, not the
//! process-wide metrics counters — on domains private to this file, so parallel
//! tests cannot inflate them (the PR 7 exact-assert isolation rule). The EBR
//! growth assertions are `>=` (inflation-safe); the hazard assertion is the one
//! *upper* bound, on a domain nothing else touches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use skiptrie_suite::atomics as epoch;
use skiptrie_suite::skiptrie::{Reclaimer, SkipTrie, SkipTrieConfig};
use skiptrie_suite::workloads::harness::{scaled, Workload};

const UNIVERSE_BITS: u32 = 32;

// Domains private to this file: 16/17 for the EBR A/B pair, 19 for the hazard
// stall, 20 for the tiered regression, 15 for the splitorder regression. Other
// suites use 7 (domain_isolation) and 11 (splitorder's own tests).
const EBR_BASELINE_DOMAIN: usize = 16;
const EBR_STALL_DOMAIN: usize = 17;
const HP_STALL_DOMAIN: usize = 19;

/// Fibonacci spread matching `KeyDist::ScatteredSet`.
fn spread(index: u64) -> u64 {
    index.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << UNIVERSE_BITS) - 1)
}

/// Pins and flushes `domain` through `reclaimer` until its pending-garbage gauge
/// reads zero (reclamation is eventual: exiting threads publish garbage from TLS
/// teardown, which can lag a join).
fn drain_domain(domain: usize, reclaimer: Reclaimer) -> bool {
    for _ in 0..10_000 {
        epoch::pin_domain_with(domain, reclaimer).flush();
        if epoch::domain_stats(domain, reclaimer).pending == 0 {
            return true;
        }
        std::thread::yield_now();
    }
    epoch::domain_stats(domain, reclaimer).pending == 0
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
fn churn(domain: usize, reclaimer: Reclaimer, stall_reader: bool) -> ChurnOutcome {
    let working_set = scaled(2_000) as u64;
    let writer_iters = scaled(40_000);
    let config = SkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
        .with_domain(domain)
        .with_reclaimer(reclaimer);
    let trie: SkipTrie<u64> = SkipTrie::new(config);
    for i in 0..working_set {
        trie.insert(spread(i), i);
    }
    // Quiesce the warm-up garbage so the stall window starts clean.
    assert!(
        drain_domain(domain, reclaimer),
        "warm-up garbage never drained in domain {domain}"
    );

    let ready = Barrier::new(2);
    let release = Barrier::new(2);
    let removes = AtomicUsize::new(0);

    std::thread::scope(|s| {
        if stall_reader {
            s.spawn(|| {
                // The stalled reader: pin through the trie (so the guard rides the
                // configured substrate), prove the pin by reading, then park while
                // holding the guard across the entire churn window.
                let guard = trie.pin();
                let _ = guard.current_era();
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

    let hwm = epoch::domain_stats(domain, reclaimer).hwm;
    // With the reader gone, everything must drain back to zero — a leak here
    // means a deferral was lost (EBR) or an interval never uncovered (hazard).
    assert!(
        drain_domain(domain, reclaimer),
        "domain {domain} never drained after the reader released: {:?}",
        epoch::domain_stats(domain, reclaimer)
    );
    ChurnOutcome {
        hwm,
        stall_removes: removes.load(Ordering::Relaxed) as u64,
    }
}

/// EBR under a stalled reader: every deferral made during the stall window stays
/// pending (the parked guard freezes the epoch), so the high-water mark must
/// clear the churn-proportional floor and dwarf the no-stall baseline — the
/// unbounded-growth half of the claim.
#[test]
fn ebr_garbage_grows_with_churn_under_a_stalled_reader() {
    let baseline = churn(EBR_BASELINE_DOMAIN, Reclaimer::Ebr, false);
    let stalled = churn(EBR_STALL_DOMAIN, Reclaimer::Ebr, true);
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

/// The hazard substrate under the same stalled reader: the parked guard protects
/// only the era interval it pinned at, so objects born after the pin free as the
/// churn runs and the high-water mark stays under a bound fixed by the working
/// set — independent of how much churn the window carries. This is the bounded
/// half of the claim.
#[test]
fn hazard_garbage_stays_bounded_under_a_stalled_reader() {
    let working_set = scaled(2_000) as u64;
    let stalled = churn(HP_STALL_DOMAIN, Reclaimer::Hazard, true);
    // The reader's interval covers only objects born before it pinned: the
    // working set's towers and trie nodes (a small constant per key), plus each
    // thread's unscanned in-flight batch. 8x the working set plus slack is far
    // above anything the covered set can reach, and far below what the churn
    // (4 x scaled(40_000) operations) would pend under EBR.
    let bound = 8 * working_set + 8_192;
    assert!(
        stalled.hwm <= bound,
        "hazard high-water mark {} exceeded the stall bound {} (working set {})",
        stalled.hwm,
        bound,
        working_set
    );
    // The run must still have churned enough for the bound to mean something.
    assert!(
        stalled.stall_removes > 4 * working_set,
        "churn too small to exercise the bound: {} removals",
        stalled.stall_removes
    );
}

/// Regression for the retire-site sweep (tiered swap): the tiered engine's own
/// tier-`Arc` swaps stay on EBR by design, but its delta skiplist rides the
/// configured substrate — a hazard-configured delta must merge (the fold's
/// `to_vec` and the catch-up scan each walk a whole delta under one hazard
/// pin), read back, and drain its domain without leaking either substrate's
/// garbage.
#[test]
fn tiered_engine_with_a_hazard_delta_merges_and_drains() {
    use skiptrie_suite::skiptrie::{TieredSkipTrie, TieredSkipTrieConfig};
    const TIERED_DOMAIN: usize = 20;

    let trie_config = SkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
        .with_domain(TIERED_DOMAIN)
        .with_reclaimer(Reclaimer::Hazard);
    let config = TieredSkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_trie(trie_config);
    let t: TieredSkipTrie<u64> = TieredSkipTrie::new(config);

    let n = scaled(4_000) as u64;
    for i in 0..n {
        assert!(t.insert(spread(i), i));
    }
    // Fold into the frozen tier (retires the delta through the domain), then
    // delete half and fold again so tombstones churn the hazard delta too.
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
        drain_domain(TIERED_DOMAIN, Reclaimer::Hazard),
        "hazard garbage leaked: {:?}",
        epoch::domain_stats(TIERED_DOMAIN, Reclaimer::Hazard)
    );
    assert!(
        drain_domain(TIERED_DOMAIN, Reclaimer::Ebr),
        "EBR (tier-swap) garbage leaked: {:?}",
        epoch::domain_stats(TIERED_DOMAIN, Reclaimer::Ebr)
    );
}

/// Regression for the retire-site sweep (split-ordered victim retire): removals
/// from a hazard-configured map retire each victim with its stored birth era and
/// the domain drains to zero — a mis-stamped birth would either leak (pending
/// never reaches zero) or free early (caught by the vendored proptest model).
#[test]
fn splitorder_map_removal_drains_under_the_hazard_substrate() {
    use skiptrie_suite::skiptrie::DirectoryConfig;
    use skiptrie_suite::splitorder::SplitOrderedMap;
    const MAP_DOMAIN: usize = 15;

    let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory_in_domain(
        DirectoryConfig::default(),
        Some(MAP_DOMAIN),
        Reclaimer::Hazard,
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
        drain_domain(MAP_DOMAIN, Reclaimer::Hazard),
        "hazard garbage leaked: {:?}",
        epoch::domain_stats(MAP_DOMAIN, Reclaimer::Hazard)
    );
}
