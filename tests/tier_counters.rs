//! The tier counters through one write-then-merge cycle of a `TieredSkipTrie`:
//! a quiesced tier answers every read from the frozen array alone (`TierHit`), any
//! buffered write sends every read through the delta first (`TierMissDelta` — the
//! fast path refuses to serve an answer the delta might override), and one `merge()`
//! is exactly one `TierMerge` and two `TierSwap`s (seal, publish), after which reads
//! are all hits again. `tiered.hit_frac` in `BENCHMARK.json` is built on these
//! counters; this is the test that reads them.
//!
//! This file deliberately holds **only this test**: the counters are process-wide
//! and the asserts are exact, so it runs alone in its own integration-test binary
//! (like `forest_occupancy.rs`).

use skiptrie_suite::metrics::{self, Counter, Snapshot};
use skiptrie_suite::skiptrie::{TieredSkipTrie, TieredSkipTrieConfig};
use skiptrie_suite::workloads::harness::scaled;

#[test]
fn reads_hit_when_quiesced_miss_when_dirty_and_one_merge_is_one_merge_two_swaps() {
    let frozen = scaled(5_000) as u64;
    let burst = scaled(200) as u64;
    let reads = scaled(2_000) as u64;
    let tiered: TieredSkipTrie<u64> = TieredSkipTrie::from_sorted(
        TieredSkipTrieConfig::for_universe_bits(32),
        (0..frozen).map(|k| (k * 8, k)),
    );
    // A third each of `get`, `predecessor` and `successor`, over keys present and
    // absent: every point-read entry point counts exactly once per call.
    let read_burst = || {
        for i in 0..reads {
            let key = (i * 2_654_435_761) % (frozen * 8);
            match i % 3 {
                0 => drop(tiered.get(key)),
                1 => drop(tiered.predecessor(key)),
                _ => drop(tiered.successor(key)),
            }
        }
    };
    let tiers = |delta: &Snapshot| {
        [
            delta.get(Counter::TierHit),
            delta.get(Counter::TierMissDelta),
            delta.get(Counter::TierMerge),
            delta.get(Counter::TierSwap),
        ]
    };

    let ((), quiesced) = metrics::measure(read_burst);
    assert_eq!(tiers(&quiesced), [reads, 0, 0, 0], "quiesced: all hits");

    let ((), dirty) = metrics::measure(|| {
        for k in 0..burst {
            assert!(tiered.insert(k * 8 + 1, k), "odd keys are absent");
        }
        read_burst();
    });
    assert_eq!(tiers(&dirty), [0, reads, 0, 0], "dirty delta: all misses");
    assert_eq!(tiered.delta_len(), burst as usize);

    let (merged, fold) = metrics::measure(|| tiered.merge());
    assert!(merged, "a dirty delta must fold");
    assert_eq!(
        tiers(&fold),
        [0, 0, 1, 2],
        "one merge: seal swap + publish swap"
    );
    assert_eq!(tiered.delta_len(), 0);
    assert_eq!(tiered.frozen_len(), (frozen + burst) as usize);

    let ((), after) = metrics::measure(read_burst);
    assert_eq!(
        tiers(&after),
        [reads, 0, 0, 0],
        "after the merge: all hits again"
    );
}
