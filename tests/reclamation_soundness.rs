//! Reclamation soundness under concurrent churn.
//!
//! Epoch-based reclamation bugs are use-after-free bugs: a node freed (recycled)
//! while a pinned traversal can still reach it. This suite makes such a bug fail an
//! assertion instead of invoking undefined behaviour:
//!
//! * Pooled nodes are *poisoned* (`u64::MAX` key, marked-null `next`) and carry an
//!   incarnation sequence number bumped on every recycle, so
//!   `check_traversal_integrity` — run by reader threads while writers churn —
//!   detects a premature free as a poisoned key, a truncated level, or an
//!   incarnation bump observed mid-examination.
//! * Anchor keys that writers never touch must appear in every snapshot: a traversal
//!   silently cut short by recycled memory loses anchors and fails.
//! * A final drain plus per-closure counters prove every deferred closure ran
//!   exactly once (a `0` is a leak, a `2` a double free).
//!
//! Every trie is built from the default config and every raw pin and drain goes
//! through `pin_domain(0)`, the default domain those tries use. Canary: weakening
//! the vendored collector's readiness gate from `seal_epoch + 2 <= global` to
//! `seal_epoch <= global` (a collect-early mutation) makes these tests fail.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use skiptrie_suite::atomics::pin_domain;
use skiptrie_suite::skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_suite::workloads::harness::{scaled, Workload};

const UNIVERSE_BITS: u32 = 32;

/// Fibonacci spread matching `KeyDist::ScatteredSet`: maps dense indices to keys
/// scattered across the universe, injectively for power-of-two universes.
fn spread(index: u64) -> u64 {
    index.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1u64 << UNIVERSE_BITS) - 1)
}

/// Pins and flushes until `done` reports success or the retry budget is spent.
/// Reclamation is *eventual* (garbage becomes collectable two epochs after sealing,
/// and exiting threads publish their bags from TLS teardown, which can lag a join),
/// so drains retry rather than assert a deadline.
fn drain_until(mut done: impl FnMut() -> bool) -> bool {
    for _ in 0..10_000 {
        pin_domain(0).flush();
        if done() {
            return true;
        }
        std::thread::yield_now();
    }
    done()
}

/// Writers churn a scattered working set while readers audit full traversals,
/// predecessor sanity, and the presence of untouched anchor keys. A premature free
/// or stale recycle fails an assertion in `check_traversal_integrity` (poison /
/// incarnation checks) or loses an anchor from a snapshot.
#[test]
fn churn_preserves_traversal_integrity_and_anchors() {
    let working_set = scaled(20_000) as u64;
    let anchors: Vec<u64> = (0..128).map(|j| spread(working_set + j)).collect();
    let trie: Arc<SkipTrie<u64>> = Arc::new(SkipTrie::new(SkipTrieConfig::for_universe_bits(
        UNIVERSE_BITS,
    )));
    for &a in &anchors {
        assert!(trie.insert(a, a + 1));
    }
    // Warm the structure so readers see a populated trie from the start.
    for i in 0..working_set / 2 {
        trie.insert(spread(i), spread(i) + 1);
    }

    let writers = 4usize;
    let readers = 2usize;
    let writer_iters = scaled(40_000);
    let writers_running = AtomicUsize::new(writers);

    Workload::new(0x5EED)
        .workers(writers, |mut ctx| {
            for _ in 0..writer_iters {
                let key = spread(ctx.rng.next() % working_set);
                if ctx.rng.next() % 2 == 0 {
                    trie.insert(key, key + 1);
                } else {
                    trie.remove(key);
                }
            }
            writers_running.fetch_sub(1, Ordering::Release);
            // Publish this worker's partial garbage bag before the scope's join
            // observes the closure as finished (TLS teardown can lag).
            trie.pin().flush();
        })
        .workers(readers, |mut ctx| {
            while writers_running.load(Ordering::Acquire) > 0 {
                // Full audit: poisoning, incarnation, ordering, level coherence.
                let examined = trie.check_traversal_integrity();
                assert!(examined >= anchors.len(), "snapshot lost nodes: {examined}");
                // Predecessor answers stay sane under churn, and anchors are stable.
                for _ in 0..64 {
                    let q = ctx.rng.next() & ((1u64 << UNIVERSE_BITS) - 1);
                    if let Some((k, v)) = trie.predecessor(q) {
                        assert!(k <= q, "predecessor {k} exceeds query {q}");
                        assert_eq!(v, k + 1, "value corrupted for key {k}");
                    }
                    let a = anchors[(ctx.rng.next() % anchors.len() as u64) as usize];
                    assert_eq!(trie.get(a), Some(a + 1), "anchor {a} lost");
                }
                let snapshot = trie.keys();
                assert!(
                    snapshot.windows(2).all(|w| w[0] < w[1]),
                    "snapshot not strictly sorted"
                );
            }
        })
        .run();

    // Quiescent audit, then drain everything and prove the pool balances: every
    // allocation is either a sentinel or back in the pool, with nothing leaked to
    // pending epoch callbacks and nothing freed twice (a double recycle would leave
    // pooled > allocated - sentinels).
    trie.check_traversal_integrity();
    for key in trie.keys() {
        assert_eq!(trie.remove(key), Some(key + 1));
    }
    assert!(trie.is_empty());
    let (allocated, _, _) = trie.allocation_stats();
    let sentinels = 2 * trie.level_lengths().len();
    let drained = drain_until(|| {
        let (_, _, pooled) = trie.allocation_stats();
        pooled == allocated - sentinels
    });
    let (_, recycled, pooled) = trie.allocation_stats();
    assert!(
        drained,
        "pool never balanced: allocated={allocated} pooled={pooled} \
         recycled={recycled} sentinels={sentinels} (leaked deferred closures?)"
    );
}

/// Every closure deferred through the epoch layer runs exactly once: a slot left at
/// `0` is a leak (lost bag or never-collected garbage), a slot above `1` is a double
/// free.
#[test]
fn deferred_closures_run_exactly_once() {
    let threads = 8usize;
    let per_thread = scaled(2_000);
    let slots: Arc<Vec<AtomicU8>> = Arc::new(
        (0..threads * per_thread)
            .map(|_| AtomicU8::new(0))
            .collect(),
    );

    Workload::new(0xD05E)
        .workers(threads, |ctx| {
            let base = ctx.index * per_thread;
            for i in 0..per_thread {
                let guard = pin_domain(0);
                let slot_owner = Arc::clone(&slots);
                // SAFETY: the closure only touches an Arc-kept atomic and runs once.
                unsafe {
                    guard.defer_unchecked(move || {
                        slot_owner[base + i].fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
            pin_domain(0).flush();
        })
        .run();

    let total = || -> usize {
        slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed) as usize)
            .sum()
    };
    assert!(
        drain_until(|| total() == threads * per_thread),
        "deferred closures leaked: {} of {} ran",
        total(),
        threads * per_thread
    );
    for (i, slot) in slots.iter().enumerate() {
        assert_eq!(
            slot.load(Ordering::Relaxed),
            1,
            "deferred closure {i} ran a wrong number of times"
        );
    }
}

#[test]
fn trie_drop_frees_every_prefix_directory_level() {
    use skiptrie_suite::metrics::{self, Counter};
    use skiptrie_suite::skiptrie::DirectoryConfig;

    // Directory nodes bypass the epoch machinery entirely (they are never unlinked
    // while the map is alive), so their leak-freedom is pinned by alloc/free
    // counters instead of the poison canary: after dropping a trie whose prefix
    // directory grew several levels, at least as many nodes must have been freed as
    // the tree held. `>=` keeps the assertion sound against concurrent tests.
    let ((), _) = metrics::measure(|| {
        let config = SkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
            .with_seed(0xD06)
            .with_hash_directory(DirectoryConfig::default().with_segment_bits(4));
        let trie: SkipTrie<u64> = SkipTrie::new(config);
        // Fixed count (not `scaled`): the point is reaching height >= 3, not stress.
        for i in 0..6_000 {
            trie.insert(spread(i), i);
        }
        let height = trie.prefix_directory_height();
        assert!(
            height >= 3,
            "the prefix set must outgrow at least two tree capacities, height {height}"
        );
        let before = metrics::snapshot();
        drop(trie);
        let freed = metrics::snapshot()
            .since(&before)
            .get(Counter::DirNodeFreed);
        assert!(
            freed >= u64::from(height),
            "dropping the trie must free a node on every tree level, freed {freed}"
        );
    });
}
