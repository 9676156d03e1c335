//! The tier counters through one write-then-merge cycle of a `TieredSkipTrie`:
//! a quiesced tier answers every read from the frozen array alone (`TierHit`); with
//! writes buffered, a read is a `TierMissDelta` exactly when a buffered write touched
//! the gap between frozen keys it falls in (for `successor`, that gap or — because a
//! tombstone on the frozen key above would change the answer — the next one) and a
//! `TierHit` otherwise; one `merge()` is exactly one `TierMerge` and two `TierSwap`s
//! (seal, publish), after which reads are all hits again. A scan counts once per
//! *window* of frozen keys it opens: a page-sized scan over clean gaps is one
//! `TierHit` and reads no delta node at all however much is buffered elsewhere
//! (zero `PtrRead`, zero `HashOp`), a window across a dirty gap is one
//! `TierMissDelta` whose delta walk covers that window's keys only, and a full scan
//! opens logarithmically many windows. The delta is a plain skiplist: nothing the
//! tiered path does — the write burst, the reads of dirty gaps, the dirty scan
//! window, the fold — probes a prefix table or crosses a trie level (zero
//! `HashOp`, zero `TrieLevelCrossed` throughout). `tiered.hit_frac` in
//! `BENCHMARK.json` is built on these counters; this is the test that reads them.
//!
//! This file deliberately holds **only this test**: the counters are process-wide
//! and the asserts are exact, so it runs alone in its own integration-test binary.

use skiptrie_suite::metrics::{self, Counter, Snapshot};
use skiptrie_suite::skiptrie::{TieredSkipTrie, TieredSkipTrieConfig};
use skiptrie_suite::workloads::harness::scaled;

#[test]
fn reads_hit_when_quiesced_miss_when_dirty_and_one_merge_is_one_merge_two_swaps() {
    // The first `HEAD` frozen keys lie below every burst write: the scans run
    // there, with the burst buffered above them.
    const HEAD: u64 = 512;
    let frozen = HEAD + scaled(5_000) as u64;
    let burst = scaled(200) as u64;
    let reads = scaled(2_000) as u64;
    // Frozen key `i` is `8 i`, so key `k` falls in gap `k / 8 + 1` of `frozen + 1`.
    let tiered: TieredSkipTrie<u64> = TieredSkipTrie::from_sorted(
        TieredSkipTrieConfig::for_universe_bits(32),
        (0..frozen).map(|k| (k * 8, k)),
    );
    // The burst touches every `stride`-th gap above the head, none adjacent:
    // burst write `j` dirties gap `HEAD + j * stride + 1`, by an insert just above
    // that gap's frozen key (even `j`) or by a tombstone on the frozen key itself
    // (odd `j`). One more write, `LONE`, dirties one gap of the head.
    const LONE: u64 = 40 * 8 + 1;
    let stride = (frozen - HEAD) / burst;
    assert!(stride >= 3, "dirty gaps must have clean neighbours");
    let dirty = |gap: u64| {
        gap == LONE / 8 + 1
            || gap > HEAD
                && (gap - HEAD - 1).is_multiple_of(stride)
                && (gap - HEAD - 1) / stride < burst
    };
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
    // The serving path's scan, `range(from..)` cut off after a page: its one
    // window runs from `from`'s gap to the end of a summary word 64 to 127 frozen
    // keys on. From frozen key 300 that is gaps 301..=383, which no write touches;
    // from key 0 it is gaps 1..=127, and `LONE` is in gap 41.
    let page = |from: u64| metrics::measure(|| tiered.range(from..).count_up_to(16)).1;
    // Pointer reads, then the x-fast layer's two counters, which the tiered path
    // — it has no such layer — never moves.
    let steps = |delta: &Snapshot| {
        [
            delta.get(Counter::PtrRead),
            delta.get(Counter::HashOp),
            delta.get(Counter::TrieLevelCrossed),
        ]
    };

    let ((), quiesced) = metrics::measure(read_burst);
    assert_eq!(tiers(&quiesced), [reads, 0, 0, 0], "quiesced: all hits");
    let (keys, full) = metrics::measure(|| tiered.range(..).count() as u64);
    let windows = u64::from((frozen / 64).next_power_of_two().trailing_zeros()) + 2;
    assert_eq!(keys, frozen);
    assert_eq!(tiers(&full)[1..], [0, 0, 0], "quiesced: every window a hit");
    assert!(
        (1..=windows).contains(&full.get(Counter::TierHit)),
        "windows double, so a full scan opens at most {windows}: {}",
        full.get(Counter::TierHit)
    );

    assert!(tiered.insert(LONE, 0));
    let lone = page(0);
    assert_eq!(tiers(&lone), [0, 1, 0, 0], "a window across a dirty gap");
    assert!(steps(&lone)[0] > 0, "which reads the delta");
    assert_eq!(steps(&lone)[1..], [0, 0], "as a skiplist: a dirty window");

    let ((), dirtied) = metrics::measure(|| {
        for j in 0..burst {
            let base = (HEAD + j * stride) * 8;
            if j.is_multiple_of(2) {
                assert!(tiered.insert(base + 1, j), "odd keys are absent");
            } else {
                assert_eq!(tiered.remove(base), Some(HEAD + j * stride), "frozen key");
            }
        }
        read_burst();
    });
    assert_eq!(
        tiers(&dirtied),
        [reads - misses, misses, 0, 0],
        "buffered writes: a read misses exactly when its gap is one a write touched"
    );
    assert!(steps(&dirtied)[0] > 0, "the delta was written and read");
    assert_eq!(
        steps(&dirtied)[1..],
        [0, 0],
        "{burst} buffered writes and {misses} reads of dirty gaps"
    );
    assert_eq!(tiered.delta_len(), burst as usize + 1);
    // The scans again, now beside `burst` buffered writes above their windows.
    let clean = page(300 * 8);
    assert_eq!(tiers(&clean), [1, 0, 0, 0], "a page over clean gaps");
    assert_eq!(
        steps(&clean),
        [0, 0, 0],
        "a clean window touches no delta node, whatever is buffered elsewhere"
    );
    let beside = page(0);
    assert_eq!(tiers(&beside), [0, 1, 0, 0], "the same dirty window");
    assert!(
        steps(&beside)[0] < steps(&lone)[0] + burst / 2,
        "a dirty window's delta walk covers its own keys, not the {burst} writes above it: \
         {} pointer reads beside them, {} without",
        steps(&beside)[0],
        steps(&lone)[0]
    );

    let (merged, fold) = metrics::measure(|| tiered.merge());
    assert!(merged, "a dirty delta must fold");
    assert_eq!(
        tiers(&fold),
        [0, 0, 1, 2],
        "one merge: seal swap + publish swap"
    );
    assert_eq!(steps(&fold)[1..], [0, 0], "a fold builds no prefix table");
    assert_eq!(tiered.delta_len(), 0);
    assert_eq!(
        tiered.frozen_len() as u64,
        frozen + 1 + burst.div_ceil(2) - burst / 2,
        "inserts folded in, tombstoned keys folded out"
    );

    let ((), after) = metrics::measure(read_burst);
    assert_eq!(
        tiers(&after),
        [reads, 0, 0, 0],
        "after the merge: all hits again"
    );
}
