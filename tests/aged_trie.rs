//! The aged trie keeps the paper's bound.
//!
//! `O(log log u)` expected steps per `predecessor` is easy on a freshly built trie;
//! what a serving structure runs on is one that has turned its key set over many
//! times, with most of its nodes on their second or third incarnation out of the
//! type-stable pool. This test ages a trie the way the benchmark's `trie_churn`
//! workload does — bulk load, then 50 % `predecessor` / 25 % `insert` / 25 % `remove`
//! over scattered keys, working set twice the live set — and requires the per-call
//! pointer-read distribution of `predecessor` to stay what it was: no heavy tail of
//! top-level walks from the head sentinel, and no drift as the run goes on.
//!
//! Alone in its binary: the step counters are process-wide and the assertions on
//! them are exact.

use skiptrie_suite::metrics::{self, Counter};
use skiptrie_suite::skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_suite::workloads::harness::scaled;
use skiptrie_suite::workloads::SplitMix64;

const UNIVERSE_BITS: u32 = 32;
/// Aging operations per index of the working set (`trie_churn` warms up with 2.5 M
/// operations over 2^18 indices): enough to turn the key set over several times.
const OPS_PER_INDEX: u64 = 10;
const FINAL_QUERIES: usize = 20_000;

/// The counters no single-threaded history may move: with one thread nothing races
/// an insert's or a delete's guide maintenance, so no guide is ever left dangling.
const MUST_STAY_ZERO: [Counter; 6] = [
    Counter::GuideOffLevel,
    Counter::GuideTail,
    Counter::GuideNull,
    Counter::GuideNotSmaller,
    Counter::GuideHealed,
    Counter::WalkHopLimit,
];

/// Key of index `i`: an odd multiplier modulo `2^32` scatters consecutive indices
/// over the whole universe (the benchmark's index → key map).
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1 << UNIVERSE_BITS) - 1)
}

/// Pointer reads of one `predecessor(bound)` call.
fn pred_reads(trie: &SkipTrie<u64>, bound: u64) -> u64 {
    let before = metrics::snapshot();
    std::hint::black_box(trie.predecessor(bound));
    metrics::snapshot().since(&before).get(Counter::PtrRead)
}

fn mean(reads: &[u64]) -> f64 {
    reads.iter().sum::<u64>() as f64 / reads.len() as f64
}

fn age_and_measure(w: u64) {
    let mut entries: Vec<(u64, u64)> = (0..w).filter(|i| i & 2 == 0).map(|i| (key(i), i)).collect();
    entries.sort_unstable();
    let trie = SkipTrie::from_sorted(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS), entries);

    let before = metrics::snapshot();
    let mut rng = SplitMix64::new(0xA6ED ^ w);
    let tenth = w * OPS_PER_INDEX / 10;
    let mut tenth_means = Vec::with_capacity(10);
    for _ in 0..10 {
        let mut reads = Vec::new();
        for _ in 0..tenth {
            let r = rng.next();
            let draw = r >> 32;
            match r % 4 {
                0 | 1 => reads.push(pred_reads(&trie, draw)),
                2 => {
                    trie.insert(key(draw % w), draw % w);
                }
                _ => {
                    trie.remove(key(draw % w));
                }
            }
        }
        tenth_means.push(mean(&reads));
    }

    let mut reads: Vec<u64> = (0..FINAL_QUERIES)
        .map(|_| pred_reads(&trie, rng.next() >> 32))
        .collect();
    reads.sort_unstable();
    let events = metrics::snapshot().since(&before);
    let median = reads[reads.len() / 2] as f64;
    let p99 = reads[reads.len() * 99 / 100] as f64;
    let (first, last) = (tenth_means[0], tenth_means[9]);
    let (checked, inexact, dangling) = trie.check_prev_guides();
    println!(
        "w = {w}: ptr reads per predecessor median {median} mean {:.1} p99 {p99}; aging-run \
         tenths {tenth_means:.1?}; top level {checked} nodes, {inexact} inexact guides, \
         {dangling} dangling",
        mean(&reads)
    );

    assert!(
        mean(&reads) <= 2.0 * median,
        "w = {w}: mean {:.1} > 2 x median {median} — some queries walk the top level",
        mean(&reads)
    );
    assert!(
        p99 <= 4.0 * median + 32.0,
        "w = {w}: p99 {p99} > 4 x median {median} + 32"
    );
    assert!(
        last <= 1.25 * first,
        "w = {w}: predecessor cost grew while the trie aged: {first:.1} pointer reads in the \
         first tenth of the run, {last:.1} in the last"
    );
    for counter in MUST_STAY_ZERO {
        assert_eq!(events.get(counter), 0, "w = {w}: {counter} moved");
    }
    assert_eq!(
        (inexact, dangling),
        (0, 0),
        "w = {w}: a single-threaded history left a top-level guide off its predecessor"
    );
}

#[test]
fn predecessor_cost_survives_aging() {
    metrics::set_enabled(true);
    for w in [scaled(1 << 14), scaled(1 << 16)] {
        age_and_measure(w as u64);
    }
    metrics::set_enabled(false);
}
