//! The tier counters through one write-then-merge cycle of a `TieredSkipTrie`:
//! a quiesced tier answers every read from the frozen array alone (`TierHit`); with
//! writes buffered, a read is a `TierMissDelta` exactly when a buffered write touched
//! the gap between frozen keys it falls in (for `successor`, that gap or — because a
//! tombstone on the frozen key above would change the answer — the next one) and a
//! `TierHit` otherwise; one `merge()` is exactly one `TierMerge` and two `TierSwap`s
//! (seal, publish), after which reads are all hits again. `tiered.hit_frac` in
//! `BENCHMARK.json` is built on these counters; this is the test that reads them.
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
    // Frozen key `i` is `8 i`, so key `k` falls in gap `k / 8 + 1` of `frozen + 1`.
    let tiered: TieredSkipTrie<u64> = TieredSkipTrie::from_sorted(
        TieredSkipTrieConfig::for_universe_bits(32),
        (0..frozen).map(|k| (k * 8, k)),
    );
    // The burst touches every `stride`-th gap, none adjacent: burst write `j`
    // dirties gap `j * stride + 1`, by an insert just above that gap's frozen key
    // (even `j`) or by a tombstone on the frozen key itself (odd `j`).
    let stride = frozen / burst;
    assert!(stride >= 3, "dirty gaps must have clean neighbours");
    let dirty = |gap: u64| (gap - 1).is_multiple_of(stride) && (gap - 1) / stride < burst;
    // A third each of `get`, `predecessor` and `successor`, over keys present and
    // absent: every point-read entry point counts exactly once per call.
    let read_key = |i: u64| (i * 2_654_435_761) % (frozen * 8);
    let read_burst = || {
        for i in 0..reads {
            let key = read_key(i);
            match i % 3 {
                0 => drop(tiered.get(key)),
                1 => drop(tiered.predecessor(key)),
                _ => drop(tiered.successor(key)),
            }
        }
    };
    // The reads of one burst that must consult the delta, from the key pattern alone.
    let misses = (0..reads)
        .filter(|&i| {
            let key = read_key(i);
            let gap = key / 8 + 1;
            let also_next = i % 3 == 2 && !key.is_multiple_of(8) && gap < frozen;
            dirty(gap) || (also_next && dirty(gap + 1))
        })
        .count() as u64;
    assert!(
        0 < misses && misses < reads / 4,
        "the pattern exercises both outcomes: {misses} of {reads}"
    );
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

    let ((), dirtied) = metrics::measure(|| {
        for j in 0..burst {
            let base = j * stride * 8;
            if j.is_multiple_of(2) {
                assert!(tiered.insert(base + 1, j), "odd keys are absent");
            } else {
                assert_eq!(tiered.remove(base), Some(j * stride), "frozen key");
            }
        }
        read_burst();
    });
    assert_eq!(
        tiers(&dirtied),
        [reads - misses, misses, 0, 0],
        "buffered writes: a read misses exactly when its gap is one a write touched"
    );
    assert_eq!(tiered.delta_len(), burst as usize);

    let (merged, fold) = metrics::measure(|| tiered.merge());
    assert!(merged, "a dirty delta must fold");
    assert_eq!(
        tiers(&fold),
        [0, 0, 1, 2],
        "one merge: seal swap + publish swap"
    );
    assert_eq!(tiered.delta_len(), 0);
    assert_eq!(
        tiered.frozen_len() as u64,
        frozen + burst.div_ceil(2) - burst / 2,
        "inserts folded in, tombstoned keys folded out"
    );

    let ((), after) = metrics::measure(read_burst);
    assert_eq!(
        tiers(&after),
        [reads, 0, 0, 0],
        "after the merge: all hits again"
    );
}
