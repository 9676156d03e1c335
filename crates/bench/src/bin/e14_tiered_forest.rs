//! Experiment E14 — the tiered sharded forest: frozen-tier reads composed with
//! the shard router, with watermark-driven staggered merges.
//!
//! PR 7 showed a frozen Eytzinger tier beats the live trie by >10x on quiesced
//! reads; PR 4 showed sharding is how writers scale. E14 measures their
//! composition, `TieredForest`: every shard is frozen-array + live-delta in its
//! own epoch domain, folds are triggered by a per-shard **delta-size watermark**
//! (`SKIPTRIE_TIER_WATERMARK`, checked on the writer path with one relaxed
//! counter read — no timer anywhere), and a single coordinator staggers folds
//! so at most one shard is mid-merge at a time.
//!
//! Four tables:
//!
//! * **E14a** — quiesced point-read cost (`get` / `predecessor` ns/op) of the
//!   tiered forest vs the plain sharded forest and the unsharded tiered trie,
//!   across a population sweep. The headline ratio (plain-forest predecessor
//!   cost / tiered-forest predecessor cost at the largest population) is this
//!   PR's acceptance criterion (`>= 2x`).
//! * **E14b** — sustained `READ_MOSTLY` (95% predecessor / 4% insert / 1%
//!   remove) mixed throughput across thread counts; the tiered forest folds
//!   purely from its watermark (the timer-driven merger is gone).
//! * **E14c** — frozen-tier search A/B: Eytzinger descent vs interpolation
//!   search on the same quiesced forest (`FrozenSearch` config flag). Hashed
//!   workload keys are near-uniform, interpolation's best case.
//! * **E14d** — watermark trajectory: a write burst crosses the per-shard
//!   watermark, the coordinator folds without any timer, and the tier counters
//!   plus per-shard delta/frozen occupancy book-end the cycle exactly.

use skiptrie::{
    FrozenSearch, ShardedSkipTrie, ShardedSkipTrieConfig, TieredForest, TieredSkipTrie,
    TieredSkipTrieConfig,
};
use skiptrie_bench::{
    env_knob, print_table, run_throughput, scaled, thread_sweep, write_json_summary, OrderedKv,
};
use skiptrie_metrics::{self as metrics, Counter, Stopwatch};
use skiptrie_workloads::harness::shards;
use skiptrie_workloads::{KeyDist, OpMix, SplitMix64, WorkloadSpec};

const UNIVERSE_BITS: u32 = 32;

/// The per-shard delta-size watermark (`SKIPTRIE_TIER_WATERMARK`, default
/// 4096 delta writes). Malformed or zero values panic (unset/empty keeps the
/// default) so a typo'd knob cannot silently relabel the experiment.
fn watermark() -> usize {
    let w = env_knob::<usize>("SKIPTRIE_TIER_WATERMARK").unwrap_or(4096);
    assert!(
        w > 0,
        "SKIPTRIE_TIER_WATERMARK must be a positive number of delta writes"
    );
    w
}

/// The forest config shared by every E14 structure: `SKIPTRIE_SHARDS` wide
/// (default 8). Per-shard epoch domains are assigned by the router itself.
fn forest_config() -> ShardedSkipTrieConfig {
    ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_shards(shards(8))
}

/// A quiesced tiered forest over `sorted`: every key in a frozen tier, every
/// delta empty, coordinator armed on the configured watermark.
fn quiesced_forest(sorted: &[(u64, u64)], search: FrozenSearch) -> TieredForest<u64> {
    let f = TieredForest::from_sorted(
        forest_config()
            .with_merge_watermark(watermark())
            .with_frozen_search(search),
        sorted,
    );
    assert!(f.is_quiesced(), "from_sorted must leave the deltas empty");
    assert_eq!(f.frozen_len(), sorted.len());
    f
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

/// E14a: quiesced point reads — the per-shard frozen fast path vs the live
/// structures it composes.
fn quiesced_point_reads() -> (f64, f64) {
    let reps = 3;
    let probes = scaled(200_000);
    let mut rows = Vec::new();
    let mut headline = (0.0f64, 0.0f64);
    for &n in &[scaled(10_000), scaled(100_000), scaled(400_000)] {
        let spec = WorkloadSpec::read_only(UNIVERSE_BITS, n, 0, 0xE14A);
        let keys = spec.prefill_keys();
        let sorted = spec.sorted_prefill_entries();
        let forest = quiesced_forest(&sorted, FrozenSearch::Eytzinger);
        let plain: ShardedSkipTrie<u64> = ShardedSkipTrie::from_sorted(forest_config(), &sorted);
        let tiered: TieredSkipTrie<u64> =
            TieredSkipTrie::from_sorted(TieredSkipTrieConfig::for_universe_bits(UNIVERSE_BITS), {
                sorted.iter().copied()
            });

        let mut cells = vec![n.to_string()];
        let mut get_ns = Vec::new();
        let mut pred_ns = Vec::new();
        let structures: [&dyn OrderedKv<u64>; 3] = [&*forest, &plain, &tiered];
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
            let mut rng = SplitMix64::new(0xE14A);
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
        "E14a: quiesced point-read cost, tiered forest vs plain forest vs unsharded tier (ns/op)",
        &[
            "n",
            "tforest_get",
            "forest_get",
            "tiered_get",
            "tforest_pred",
            "forest_pred",
            "tiered_pred",
            "forest/tforest_get",
            "forest/tforest_pred",
        ],
        &rows,
    );
    headline
}

/// E14b: READ_MOSTLY mixed throughput across a thread sweep; the tiered
/// forest's folds fire purely from the delta-size watermark.
fn read_mostly_throughput() {
    let m = scaled(100_000);
    let mut rows = Vec::new();
    for threads in thread_sweep() {
        let spec = WorkloadSpec {
            universe_bits: UNIVERSE_BITS,
            prefill: m,
            ops_per_thread: scaled(20_000),
            threads,
            dist: KeyDist::Uniform,
            mix: OpMix::READ_MOSTLY,
            seed: 0xE14B,
        };
        let sorted = spec.sorted_prefill_entries();
        let mut row = vec![threads.to_string()];

        let forest = quiesced_forest(&sorted, FrozenSearch::Eytzinger);
        let plain: ShardedSkipTrie<u64> = ShardedSkipTrie::from_sorted(forest_config(), &sorted);
        // The unsharded tiered trie, as a one-shard forest: a standalone
        // `TieredSkipTrie` never folds by itself.
        let tiered = TieredForest::from_sorted(
            forest_config()
                .with_shards(1)
                .with_merge_watermark(watermark()),
            &sorted,
        );
        let structures: [&dyn OrderedKv<u64>; 3] = [&*forest, &plain, &*tiered];
        for s in structures {
            let result = run_throughput(s, &spec);
            row.push(format!("{:.0}", result.ops_per_sec / 1_000.0));
        }
        rows.push(row);
    }
    print_table(
        "E14b: READ_MOSTLY mixed throughput (kops/s; 95% pred, 4% ins, 1% rem; watermark folds)",
        &[
            "threads",
            "tiered-forest",
            "sharded-skiptrie",
            "tiered-skiptrie",
        ],
        &rows,
    );
}

/// E14c: frozen-tier search A/B — Eytzinger descent vs interpolation search on
/// identical quiesced forests.
fn frozen_search_ab() {
    let reps = 3;
    let probes = scaled(200_000);
    let mut rows = Vec::new();
    for &n in &[scaled(10_000), scaled(100_000), scaled(400_000)] {
        let spec = WorkloadSpec::read_only(UNIVERSE_BITS, n, 0, 0xE14C);
        let keys = spec.prefill_keys();
        let sorted = spec.sorted_prefill_entries();
        let eytzinger = quiesced_forest(&sorted, FrozenSearch::Eytzinger);
        let interpolation = quiesced_forest(&sorted, FrozenSearch::Interpolation);

        let mut cells = vec![n.to_string()];
        let mut pred_ns = Vec::new();
        for f in [&eytzinger, &interpolation] {
            let ns = best_ns_per_op(reps, probes, || {
                for i in 0..probes {
                    let k = keys[i.wrapping_mul(127) % n];
                    assert_eq!(f.get(k), Some(k));
                }
            });
            cells.push(format!("{ns:.0}"));
            let mut rng = SplitMix64::new(0xE14C);
            let bounds: Vec<u64> = (0..probes).map(|_| rng.next() & 0xffff_ffff).collect();
            let ns = best_ns_per_op(reps, probes, || {
                for &b in &bounds {
                    std::hint::black_box(f.predecessor(b));
                }
            });
            pred_ns.push(ns);
            cells.push(format!("{ns:.0}"));
        }
        cells.push(format!("{:.2}", pred_ns[0] / pred_ns[1].max(f64::EPSILON)));
        rows.push(cells);
    }
    print_table(
        "E14c: frozen-tier lower_bound A/B on uniform keys (ns/op)",
        &[
            "n",
            "eytzinger_get",
            "eytzinger_pred",
            "interp_get",
            "interp_pred",
            "eytz/interp_pred",
        ],
        &rows,
    );
}

/// E14d: a write burst crosses the per-shard watermark and the coordinator
/// folds it with no timer anywhere — counters book-end the cycle.
fn watermark_trajectory() {
    let n = scaled(50_000);
    let spec = WorkloadSpec::read_only(UNIVERSE_BITS, n, 0, 0xE14D);
    let keys = spec.prefill_keys();
    let sorted = spec.sorted_prefill_entries();
    let w = 512;
    let forest = TieredForest::from_sorted(forest_config().with_merge_watermark(w), &sorted);
    assert!(forest.is_quiesced());
    let reads = scaled(20_000);
    let read_burst = |f: &TieredForest<u64>| {
        for i in 0..reads {
            f.predecessor(keys[i.wrapping_mul(31) % n]);
        }
    };

    let mut rows = Vec::new();
    let mut record = |phase: &str, delta: metrics::Snapshot, f: &TieredForest<u64>| {
        rows.push(vec![
            phase.to_string(),
            delta.get(Counter::TierHit).to_string(),
            delta.get(Counter::TierMissDelta).to_string(),
            delta.get(Counter::TierMerge).to_string(),
            delta.get(Counter::TierSwap).to_string(),
            f.delta_len().to_string(),
            f.frozen_len().to_string(),
        ]);
    };

    let ((), d) = metrics::measure(|| read_burst(&forest));
    assert_eq!(
        d.get(Counter::TierMissDelta),
        0,
        "a quiesced forest serves reads without consulting any delta"
    );
    record("quiesced reads", d, &forest);

    // Burst far more high-end keys than one watermark into a single shard's
    // key range; the coordinator must fold with no timer anywhere. The burst
    // range can overlap a few uniform prefill keys, so count what actually
    // landed.
    let burst = (shards(8) * w * 2) as u64;
    let mut landed = 0usize;
    let ((), d) = metrics::measure(|| {
        for i in 0..burst {
            if forest.insert(0xF000_0000 + i, i) {
                landed += 1;
            }
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while forest.delta_len() > w * shards(8) {
            assert!(
                std::time::Instant::now() < deadline,
                "coordinator never folded: delta_len={}",
                forest.delta_len()
            );
            std::thread::yield_now();
        }
    });
    assert!(
        d.get(Counter::TierMerge) >= 1,
        "the watermark must have triggered at least one fold"
    );
    record("watermark burst + folds", d, &forest);

    let ((), d) = metrics::measure(|| {
        forest.quiesce();
        read_burst(&forest);
    });
    assert_eq!(forest.delta_len(), 0);
    assert_eq!(forest.frozen_len(), n + landed);
    record("quiesce + reads", d, &forest);

    print_table(
        "E14d: tier counters through a watermark-crossing burst (no timer anywhere)",
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
    read_mostly_throughput();
    frozen_search_ab();
    watermark_trajectory();
    println!(
        "headline: quiesced tiered-forest reads are {get_ratio:.1}x (get) and {pred_ratio:.1}x \
         (predecessor) cheaper than the plain sharded forest at the largest population \
         (acceptance floor: 2x on predecessor)."
    );
    write_json_summary("e14_tiered_forest");
}
