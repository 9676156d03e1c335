//! Cross-crate integration tests for the *structural* claims of the paper: level
//! densities, top-level spacing, trie population, and space accounting (the measured
//! counterparts of Figure 1 and the `O(m)` space claim), plus quiescent-state
//! invariants after heavy concurrent use.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The step-count instrumentation is process-wide, so tests in this file that measure
/// or generate steps are serialized to keep measurements uncontaminated.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], poisoned or not: the lock guards no data, so a sibling that
/// failed while holding it must not fail this test with a misleading second error.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

use skiptrie_suite::metrics;
use skiptrie_suite::skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_suite::workloads::SplitMix64;

/// With m keys and L levels, level ℓ should hold ≈ m/2^ℓ nodes and the top level
/// ≈ m/2^(L-1); the x-fast trie holds at most (log u - 1) prefixes per top key.
#[test]
fn level_densities_and_trie_population_match_expectation() {
    let _serial = serial();
    let bits = 32u32;
    let m = 60_000u64;
    let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(bits).with_seed(0xF00));
    let mut rng = SplitMix64::new(5);
    let mut inserted = 0u64;
    while inserted < m {
        if trie.insert(rng.next() & 0xffff_ffff, 0) {
            inserted += 1;
        }
    }

    let lengths = trie.level_lengths();
    assert_eq!(lengths[0] as u64, m);
    for (level, &length) in lengths.iter().enumerate().skip(1) {
        let expected = m as f64 / 2f64.powi(level as i32);
        let actual = length as f64;
        assert!(
            actual > expected * 0.7 && actual < expected * 1.4,
            "level {level}: {actual} nodes, expected ≈ {expected}"
        );
    }
    let top = *lengths.last().unwrap();
    let prefixes = trie.prefix_count();
    assert!(
        prefixes >= top,
        "every top key contributes at least one prefix"
    );
    assert!(
        prefixes <= top * (bits as usize - 1) + 1,
        "prefixes ({prefixes}) bounded by top keys ({top}) × (log u − 1)"
    );

    // O(m) space: node allocations are within a small constant of m (expected 2m).
    let (allocated, _, _) = trie.allocation_stats();
    assert!(
        (allocated as u64) < 4 * m,
        "allocated {allocated} nodes for {m} keys — not O(m)"
    );
}

/// The expected gap between consecutive top-level keys is 2^(L-1) ≈ log u — the
/// probabilistic replacement for y-fast bucket sizes.
#[test]
fn top_level_spacing_matches_log_u() {
    let _serial = serial();
    let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(32).with_seed(0xF01));
    let m = 40_000u64;
    for k in 0..m {
        trie.insert(k, k);
    }
    let all = trie.keys();
    let top = trie.top_level_keys();
    assert!(top.len() > 100, "enough top keys for statistics");
    let mean_gap = all.len() as f64 / top.len() as f64;
    let expected = 2f64.powi(trie.level_lengths().len() as i32 - 1);
    assert!(
        mean_gap > expected * 0.6 && mean_gap < expected * 1.6,
        "mean top-level gap {mean_gap}, expected ≈ {expected}"
    );
}

/// After concurrent churn quiesces, the structure is internally consistent: the key
/// snapshot is sorted and duplicate-free, every top-level key is also present at level
/// 0, no top-level guide is left dangling once each has been walked, and draining the
/// structure empties every level and the trie.
#[test]
fn quiescent_state_is_consistent_after_concurrent_churn() {
    let _serial = serial();
    // 32 bits: `LowestAncestor`'s last probe is then the 31-bit prefix, whose pointer
    // is the queried top-level key's own node, so `predecessor(k)` below is certain to
    // arrive on k's node and step over k's guide.
    let trie: Arc<SkipTrie<u64>> = Arc::new(SkipTrie::new(SkipTrieConfig::for_universe_bits(32)));
    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let trie = Arc::clone(&trie);
            scope.spawn(move || {
                let mut rng = SplitMix64::new(t * 7 + 1);
                for _ in 0..40_000 {
                    let key = rng.next() % (1 << 20);
                    if rng.next().is_multiple_of(2) {
                        trie.insert(key, key);
                    } else {
                        trie.remove(key);
                    }
                }
            });
        }
    });

    let keys = trie.keys();
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "snapshot sorted, no duplicates"
    );
    assert_eq!(keys.len(), trie.len());
    let key_set: std::collections::HashSet<u64> = keys.iter().copied().collect();
    for top_key in trie.top_level_keys() {
        assert!(
            key_set.contains(&top_key),
            "top-level key {top_key} missing from level 0"
        );
    }

    // An insert's fix of its successor's guide can lose a race with a delete, and
    // the guide is then left naming a node on its way to the pool. The first query
    // that follows such a guide heals it, so one query per top-level key leaves none.
    let (_, inexact_before, dangling_before) = trie.check_prev_guides();
    for top_key in trie.top_level_keys() {
        assert_eq!(trie.predecessor(top_key), Some((top_key, top_key)));
    }
    let (checked, inexact, dangling) = trie.check_prev_guides();
    println!(
        "top level after churn: {checked} guides, {inexact_before} inexact / \
         {dangling_before} dangling before one query per key, {inexact} / {dangling} after"
    );
    assert_eq!(dangling, 0, "of {checked} top-level guides");

    // Drain and verify everything collapses.
    for k in keys {
        assert_eq!(trie.remove(k), Some(k));
    }
    assert!(trie.is_empty());
    assert_eq!(trie.level_lengths().iter().sum::<usize>(), 0);
    assert_eq!(trie.top_level_keys(), Vec::<u64>::new());
    assert_eq!(
        trie.prefix_count(),
        1,
        "only the permanent ε prefix survives a drain"
    );
}

/// The step-count instrumentation shows the headline separation even at modest sizes:
/// predecessor queries on the SkipTrie take far fewer traversal steps than on the
/// log(m)-depth baseline once m is large.
#[test]
fn instrumented_step_counts_show_low_depth() {
    let _serial = serial();
    use skiptrie_suite::skiplist::{SkipList, SkipListConfig};
    let m = 50_000u64;
    let queries = 2_000u64;

    let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(32));
    let skiplist: SkipList<u64> = SkipList::new(SkipListConfig::full_height());
    let mut rng = SplitMix64::new(6);
    for _ in 0..m {
        let k = rng.next() & 0xffff_ffff;
        trie.insert(k, k);
        skiplist.insert(k, k);
    }

    let run = |f: &dyn Fn(u64)| {
        metrics::set_enabled(true);
        let before = metrics::snapshot();
        let mut rng = SplitMix64::new(7);
        for _ in 0..queries {
            f(rng.next() & 0xffff_ffff);
        }
        let delta = metrics::snapshot().since(&before);
        metrics::set_enabled(false);
        delta.traversal_steps() as f64 / queries as f64
    };
    let trie_steps = run(&|k| {
        trie.predecessor(k);
    });
    let skiplist_steps = run(&|k| {
        skiplist.predecessor(k);
    });
    assert!(
        trie_steps < skiplist_steps,
        "SkipTrie ({trie_steps:.1} steps/query) must beat the log(m) skiplist \
         ({skiplist_steps:.1} steps/query) at m = {m}"
    );
}
