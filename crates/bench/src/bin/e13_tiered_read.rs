//! Experiment E13 — the tiered read path: a frozen Eytzinger tier in front of the
//! live SkipTrie.
//!
//! The paper's `O(log log u + c)` predecessor bound is about *worst-case churn*;
//! production serving traffic is read-mostly over an almost-static keyspace. The
//! `TieredSkipTrie` serves that regime from an immutable flat sorted array searched
//! with a branch-free Eytzinger descent — no pointer chasing, no epoch pin — and
//! falls through to a small live delta only while recent writes are buffered.
//! A merge folds the delta back into a fresh frozen tier, restoring the fast path.
//!
//! Four tables:
//!
//! * **E13a** — quiesced point-read cost (`get` and `predecessor` ns/op) after a
//!   merge has drained the delta, versus the live SkipTrie and the locked B-tree,
//!   across a population sweep. The headline ratio (live-trie predecessor cost /
//!   tiered predecessor cost at the largest population) is the PR's acceptance
//!   criterion (`>= 2x`).
//! * **E13b** — sustained `READ_MOSTLY` (95% predecessor / 4% insert / 1% remove)
//!   mixed throughput across thread counts, the tiered structure running as a
//!   one-shard `TieredForest` whose coordinator folds every
//!   [`MIXED_WATERMARK`] delta writes.
//! * **E13c** — `SCAN_HEAVY` mixed throughput: the regime the tier is *not*
//!   optimised for (50% scans, 40% writes), to show the delta merge walk does not
//!   fall off a cliff.
//! * **E13d** — counter trajectory through one write-then-merge cycle: `tier_hit`
//!   vs `tier_miss_delta` before, during and after the fold, plus `tier_merge` /
//!   `tier_swap` bookkeeping.

use skiptrie::{
    ShardedSkipTrieConfig, SkipTrie, SkipTrieConfig, TieredForest, TieredSkipTrie,
    TieredSkipTrieConfig,
};
use skiptrie_baselines::LockedBTreeMap;
use skiptrie_bench::{
    prefill, print_table, run_throughput, scaled, thread_sweep, write_json_summary, OrderedKv,
};
use skiptrie_metrics::{self as metrics, Counter, Stopwatch};
use skiptrie_workloads::{KeyDist, OpMix, SplitMix64, WorkloadSpec};

const UNIVERSE_BITS: u32 = 32;

/// Delta writes between background folds in the mixed-throughput runs: small
/// enough that even the one-thread `READ_MOSTLY` row (5% of 20 000 ops are
/// writes) crosses it more than once.
const MIXED_WATERMARK: usize = 512;

/// The tiered structure's config: its own epoch domain, so retiring displaced
/// tiers and folded deltas never bills the *other* structures' pinned reads with
/// deferred collection work (the cross-structure contamination PR 7's domain
/// plumbing exists to prevent).
fn tiered_trie_config() -> TieredSkipTrieConfig {
    TieredSkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
        .with_trie(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_domain(1))
}

/// A quiesced tiered trie: every key folded into the frozen tier, delta empty.
fn quiesced_tiered(keys: &[u64]) -> TieredSkipTrie<u64> {
    let t: TieredSkipTrie<u64> = TieredSkipTrie::new(tiered_trie_config());
    for &k in keys {
        t.insert(k, k);
    }
    t.merge();
    assert_eq!(t.delta_len(), 0, "merge must drain the delta");
    assert_eq!(t.frozen_len(), keys.len());
    t
}

/// Best-of-`reps` wall nanoseconds per op over `probe` called `count` times.
fn best_ns_per_op(reps: usize, count: usize, mut probe: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let sw = Stopwatch::start();
        probe();
        best = best.min(sw.elapsed().as_nanos() as f64 / count.max(1) as f64);
    }
    best
}

/// E13a: quiesced point reads — the frozen fast path vs the live structures.
fn quiesced_point_reads() -> (f64, f64) {
    let reps = 3;
    let probes = scaled(200_000);
    let mut rows = Vec::new();
    let mut headline = (0.0f64, 0.0f64);
    for &n in &[scaled(10_000), scaled(100_000), scaled(400_000)] {
        let spec = WorkloadSpec::read_only(UNIVERSE_BITS, n, 0, 0xE13A);
        let keys = spec.prefill_keys();
        let tiered = quiesced_tiered(&keys);
        let trie: SkipTrie<u64> = SkipTrie::from_sorted(
            SkipTrieConfig::for_universe_bits(UNIVERSE_BITS),
            spec.sorted_prefill_entries(),
        );
        let btree: LockedBTreeMap<u64> = LockedBTreeMap::new();
        prefill(&btree, &keys);

        let mut cells = vec![n.to_string()];
        let mut get_ns = Vec::new();
        let mut pred_ns = Vec::new();
        let structures: [&dyn OrderedKv<u64>; 3] = [&tiered, &trie, &btree];
        for s in structures {
            let ns = best_ns_per_op(reps, probes, || {
                for i in 0..probes {
                    let k = keys[i.wrapping_mul(127) % n];
                    assert_eq!(s.get(k), Some(k));
                }
            });
            get_ns.push(ns);
            cells.push(format!("{ns:.0}"));
        }
        for s in structures {
            let mut rng = SplitMix64::new(0xE13A);
            let bounds: Vec<u64> = (0..probes).map(|_| rng.next() & 0xffff_ffff).collect();
            let ns = best_ns_per_op(reps, probes, || {
                for &b in &bounds {
                    std::hint::black_box(s.predecessor(b));
                }
            });
            pred_ns.push(ns);
            cells.push(format!("{ns:.0}"));
        }
        let get_ratio = get_ns[1] / get_ns[0].max(f64::EPSILON);
        let pred_ratio = pred_ns[1] / pred_ns[0].max(f64::EPSILON);
        cells.push(format!("{get_ratio:.1}"));
        cells.push(format!("{pred_ratio:.1}"));
        headline = (get_ratio, pred_ratio);
        rows.push(cells);
    }
    print_table(
        "E13a: quiesced point-read cost after merge (ns/op, u = 2^32)",
        &[
            "n",
            "tiered_get",
            "trie_get",
            "btree_get",
            "tiered_pred",
            "trie_pred",
            "btree_pred",
            "trie/tiered_get",
            "trie/tiered_pred",
        ],
        &rows,
    );
    headline
}

/// Mixed throughput of the three structures under `mix` across a thread sweep.
fn mixed_throughput(title: &str, mix: OpMix, seed: u64, m: usize) {
    let mut rows = Vec::new();
    for threads in thread_sweep() {
        let spec = WorkloadSpec {
            universe_bits: UNIVERSE_BITS,
            prefill: m,
            ops_per_thread: scaled(20_000),
            threads,
            dist: KeyDist::Uniform,
            mix,
            seed,
        };
        let keys = spec.prefill_keys();
        let mut row = vec![threads.to_string()];

        // One shard: the forest is there for its merge coordinator, the only
        // background folder in the workspace. Shard 0 runs in epoch domain 1,
        // like `tiered_trie_config`.
        let tiered: TieredForest<u64> = TieredForest::from_sorted(
            ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
                .with_shards(1)
                .with_merge_watermark(MIXED_WATERMARK),
            &spec.sorted_prefill_entries(),
        );
        let trie: SkipTrie<u64> = SkipTrie::new(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
        let btree: LockedBTreeMap<u64> = LockedBTreeMap::new();
        prefill(&trie, &keys);
        prefill(&btree, &keys);
        let structures: [&dyn OrderedKv<u64>; 3] = [&*tiered, &trie, &btree];
        for s in structures {
            let result = run_throughput(s, &spec);
            row.push(format!("{:.0}", result.ops_per_sec / 1_000.0));
        }
        rows.push(row);
    }
    print_table(
        title,
        &["threads", "tiered-skiptrie", "skiptrie", "locked-btreemap"],
        &rows,
    );
}

/// E13d: counter trajectory through a write burst and the merge that absorbs it.
fn merge_trajectory() {
    let n = scaled(50_000);
    let spec = WorkloadSpec::read_only(UNIVERSE_BITS, n, 0, 0xE13D);
    let keys = spec.prefill_keys();
    let tiered = quiesced_tiered(&keys);
    let reads = scaled(20_000);
    let read_burst = |t: &TieredSkipTrie<u64>| {
        for i in 0..reads {
            t.predecessor(keys[i.wrapping_mul(31) % n]);
        }
    };

    let mut rows = Vec::new();
    let mut record = |phase: &str, delta: metrics::Snapshot, t: &TieredSkipTrie<u64>| {
        rows.push(vec![
            phase.to_string(),
            delta.get(Counter::TierHit).to_string(),
            delta.get(Counter::TierMissDelta).to_string(),
            delta.get(Counter::TierMerge).to_string(),
            delta.get(Counter::TierSwap).to_string(),
            t.delta_len().to_string(),
            t.frozen_len().to_string(),
        ]);
    };

    let ((), d) = metrics::measure(|| read_burst(&tiered));
    assert_eq!(
        d.get(Counter::TierMissDelta),
        0,
        "a quiesced tier serves reads without consulting the delta"
    );
    record("quiesced reads", d, &tiered);

    let ((), d) = metrics::measure(|| {
        // High-end keys, disjoint from the uniform prefill with overwhelming
        // probability, so each insert actually dirties the delta.
        for i in 0..scaled(2_000) as u64 {
            tiered.insert(0xF000_0000 + i, i);
        }
        read_burst(&tiered);
    });
    assert_eq!(
        d.get(Counter::TierHit),
        0,
        "a dirty delta forces every read onto the slow path"
    );
    record("write burst + reads", d, &tiered);

    let ((), d) = metrics::measure(|| {
        assert!(tiered.merge(), "a dirty delta must fold");
        read_burst(&tiered);
    });
    assert_eq!(d.get(Counter::TierMerge), 1);
    assert_eq!(d.get(Counter::TierSwap), 2, "seal swap + publish swap");
    record("merge + reads", d, &tiered);

    print_table(
        "E13d: tier counters through a write burst and the merge that absorbs it",
        &[
            "phase",
            "tier_hit",
            "tier_miss_delta",
            "tier_merge",
            "tier_swap",
            "delta_len",
            "frozen_len",
        ],
        &rows,
    );
}

fn main() {
    let (get_ratio, pred_ratio) = quiesced_point_reads();
    mixed_throughput(
        "E13b: READ_MOSTLY mixed throughput (kops/s; 95% pred, 4% ins, 1% rem; background merges)",
        OpMix::READ_MOSTLY,
        0xE13B,
        scaled(100_000),
    );
    mixed_throughput(
        "E13c: SCAN_HEAVY mixed throughput (kops/s; 50% scans of <=128 keys, 20/20/10 ins/rem/pred)",
        OpMix::SCAN_HEAVY,
        0xE13C,
        scaled(50_000),
    );
    merge_trajectory();
    println!(
        "headline: quiesced frozen-tier reads are {get_ratio:.1}x (get) and {pred_ratio:.1}x \
         (predecessor) cheaper than the live skiptrie at the largest population \
         (acceptance floor: 2x on both)."
    );
    write_json_summary("e13_tiered_read");
}
