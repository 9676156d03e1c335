//! The paper's claims, measured and checked: `cargo run --release -p skiptrie-bench
//! --bin experiments [-- <id>…]` (no ids = all of [`EXPERIMENTS`]).
//!
//! Oshman & Shavit's evaluation is Theorem 4.3, the amortised analysis and two
//! figures. Each entry below turns one of those into tables and a verdict: the
//! columns that are deterministic at a fixed seed (single-threaded step counts,
//! structural counts) are held to the shape the paper predicts, and the process
//! exits non-zero naming every shape that broke. Wall-clock columns (`ns`, `ops/s`)
//! are printed with no verdict — `perfbench/` is where a timing is judged.
//! `EXPERIMENTS.md` maps every table the repository ever printed to an entry here,
//! a `BENCHMARK.json` metric or a tier-1 test.
//!
//! A tower's height is a hash of its key and the structure's seed, so a checked
//! column is a function of its entry's key set, the seed and `SKIPTRIE_SCALE`: it
//! repeats exactly whatever ids run and in whatever order (ids run in the order
//! given). Each bound holds with margin for ten other structure seeds at scale 0.1
//! and at scale 1, so it certifies the shape, not one seed's draw.

use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use skiptrie::{
    DcssMode, OrderedKv, ShardedSkipTrie, ShardedSkipTrieConfig, SkipList, SkipListConfig,
    SkipTrie, SkipTrieConfig, TieredForest, TieredSkipTrie, TieredSkipTrieConfig,
};
use skiptrie_baselines::{LockedBTreeMap, SeqYFastTrie};
use skiptrie_bench::{
    apply_op, churn, max_threads, measure_steps, prefill, real, run_throughput, scaled,
    thread_sweep, write_json_summary, Cell, Outcome,
};
use skiptrie_metrics::{self as metrics, Counter, Stopwatch};
use skiptrie_workloads::{KeyDist, Op, OpMix, SplitMix64, WorkloadSpec};

/// Every experiment runs over `u = 2^32` unless it sweeps the universe itself.
const BITS: u32 = 32;
const MAX_KEY: u64 = (1 << BITS) - 1;

/// `(id, what it certifies, the measurement)`, in run order: the figures, the
/// theorem's terms, then the repository's own mechanisms.
const EXPERIMENTS: &[(&str, &str, fn() -> Outcome)] = &[
    ("f1", "Figure 1: the shape of a built SkipTrie", f1),
    (
        "f2",
        "Figure 2: prev-guide gaps are transient and leave nothing behind",
        f2,
    ),
    (
        "e1",
        "predecessor steps are flat in m, fresh and aged (Theorem 4.3)",
        e1,
    ),
    ("e2", "predecessor steps grow like log log u", e2),
    ("e3", "trie maintenance is O(1) amortised per update", e3),
    ("e5", "space is O(m)", e5),
    (
        "sweep",
        "the + c term: structure x workload x threads",
        sweep,
    ),
    ("ab", "A/B pairs with no twin in perfbench or tier-1", ab),
    (
        "pages",
        "2-MiB pages: the node pool's own arenas against glibc's heap-wide advice",
        pages,
    ),
];

fn trie_config() -> SkipTrieConfig {
    SkipTrieConfig::for_universe_bits(BITS)
}

/// The `Θ(log m)`-depth baseline: the SkipTrie's skiplist substrate at 24 levels,
/// searched from the head sentinel.
fn full_skiplist() -> SkipList<u64> {
    SkipList::new(SkipListConfig::full_height())
}

fn forest_config() -> ShardedSkipTrieConfig {
    ShardedSkipTrieConfig::for_universe_bits(BITS).with_shards(8)
}

fn ns_per(sw: Stopwatch, units: usize) -> f64 {
    sw.elapsed().as_nanos() as f64 / units.max(1) as f64
}

fn ns_per_op(map: &dyn OrderedKv<u64>, ops: &[Op]) -> f64 {
    let sw = Stopwatch::start();
    for &op in ops {
        apply_op(map, op);
    }
    ns_per(sw, ops.len())
}

/// Mean ns of the trie's lowest-ancestor search alone over the keys of `ops`.
fn ancestor_ns_per_op(trie: &SkipTrie<u64>, ops: &[Op]) -> f64 {
    let sw = Stopwatch::start();
    for &op in ops {
        let key = match op {
            Op::Insert(k) | Op::Remove(k) | Op::Predecessor(k) => k,
            Op::Scan { from, .. } => from,
        };
        black_box(trie.lowest_ancestor_key(key));
    }
    ns_per(sw, ops.len())
}

/// `max / min` of a column.
fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    max / values.iter().copied().fold(f64::MAX, f64::min)
}

/// The most table calls bisecting prefix lengths from `b/2` made per lowest-ancestor
/// search, whatever the keys: `⌊log₂ b⌋` probes and the root ε. The galloping
/// search makes fewer on average at every `m` and `b` the `e1`/`e2` sweeps cover.
fn bisection_gets(b: u32) -> f64 {
    f64::from(b.ilog2() + 1)
}

/// E1 — `u` fixed, `m` swept 4 000x: SkipTrie predecessor steps stay flat, as built
/// and after `m` churn operations have turned half the key set over, while the
/// full-height skiplist's grow with `log m`.
fn e1() -> Outcome {
    let queries = scaled(20_000);
    let (mut rows, mut fresh, mut aged, mut probes, mut skiplist) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for m in [1_000, 5_000, 20_000, 100_000, 400_000, 1 << 22].map(scaled) {
        let spec = WorkloadSpec::read_only(BITS, m, queries, 0xE1);
        let mut keys = spec.prefill_keys();
        let ops = spec.thread_ops(0);

        let trie = SkipTrie::new(trie_config());
        prefill(&trie, &keys);
        let trie_steps = measure_steps(&trie, &ops);
        let trie_ns = ns_per_op(&trie, &ops);
        let ancestor_ns = ancestor_ns_per_op(&trie, &ops);
        // One structure beside the trie at a time: at m = 2^22 the trie alone
        // holds ~1.0 GB (VmRSS around its build, 2-vCPU x86-64 Linux).
        let (list_steps, list_ns) = {
            let list = full_skiplist();
            prefill(&list, &keys);
            (measure_steps(&list, &ops), ns_per_op(&list, &ops))
        };
        let btree_ns = {
            let btree: LockedBTreeMap<u64> = LockedBTreeMap::new();
            prefill(&btree, &keys);
            ns_per_op(&btree, &ops)
        };
        churn(&trie, &mut keys, m, BITS, 0xA6ED);
        let aged_steps = measure_steps(&trie, &ops);

        fresh.push(trie_steps.traversal_steps_per_op);
        aged.push(aged_steps.traversal_steps_per_op);
        probes.push((m, trie_steps.hash_ops_per_op));
        skiplist.push(list_steps.traversal_steps_per_op);
        rows.push(vec![
            m.into(),
            real(trie_steps.traversal_steps_per_op, 1),
            real(aged_steps.traversal_steps_per_op, 1),
            real(trie_steps.hash_ops_per_op, 1),
            real(list_steps.traversal_steps_per_op, 1),
            real((m as f64).log2(), 1),
            real(trie_ns, 0),
            real(list_ns, 0),
            real(btree_ns, 0),
            real(trie_ns / list_ns, 2),
            real(ancestor_ns, 0),
        ]);
    }
    let mut out = Outcome::default();
    out.table(
        "E1: predecessor cost vs number of keys m (u = 2^32, log log u = 5)",
        &[
            "m",
            "skiptrie_steps/op",
            "skiptrie_steps_aged/op",
            "skiptrie_hash_probes/op",
            "skiplist_steps/op",
            "log2(m)",
            "skiptrie_ns/op",
            "skiplist_ns/op",
            "locked_btree_ns/op",
            "skiptrie/skiplist_ns",
            "skiptrie_ancestor_ns/op",
        ],
        rows,
    );
    let last = skiplist.len() - 1;
    for (name, column) in [("fresh", &fresh), ("aged", &aged)] {
        let ratio = spread(column);
        out.expect(
            ratio <= 1.35,
            format!(
                "{name} skiptrie steps/op max/min over the m sweep is {ratio:.2}, want <= 1.35"
            ),
        );
        let lead = skiplist[last] / column[last];
        out.expect(
            lead >= 2.0,
            format!("at the largest m the skiplist takes {lead:.2}x the {name} skiptrie's steps/op, want >= 2"),
        );
    }
    // The start length comes from the prefix table's bucket count, which is
    // coarse for a table of a few dozen buckets: the scale-0.1 row m = 100
    // (four top-level keys) reads 2.2 probes against 1.9-2.1 above it. As with
    // e5, the flatness check covers the rows with m >= 1000.
    let sized: Vec<f64> = probes
        .iter()
        .filter(|&&(m, _)| m >= 1_000)
        .map(|&(_, p)| p)
        .collect();
    let probe_spread = spread(&sized);
    out.expect(
        probe_spread <= 1.10,
        format!("hash probes/op max/min over the m >= 1000 rows is {probe_spread:.2}, want <= 1.10: {probes:?}"),
    );
    let most = bisection_gets(BITS);
    out.expect(
        probes.iter().all(|&(_, p)| p <= most),
        format!("hash probes/op exceed bisection's {most} somewhere: {probes:?}"),
    );
    let growth = skiplist[last] / skiplist[0];
    out.expect(
        growth >= 1.2,
        format!(
            "skiplist steps/op grew {growth:.2}x from the smallest m to the largest, want >= 1.2"
        ),
    );
    out
}

/// E2 — `m` fixed, key width `b = log u` swept 8..64: the search over prefix
/// lengths stays within bisection's `⌊log₂ b⌋ + 1` hash probes at every `b`.
fn e2() -> Outcome {
    let (m, queries) = (scaled(100_000), scaled(20_000));
    let (mut rows, mut probes) = (Vec::new(), Vec::new());
    for b in [8u32, 16, 24, 32, 48, 64] {
        // A small universe cannot hold m keys: cap the prefill at half of it.
        let half_universe = (u64::MAX >> (64 - b)) / 2;
        let m = m.min(usize::try_from(half_universe).unwrap_or(usize::MAX));
        let spec = WorkloadSpec::read_only(b, m, queries, 0xE2);
        let mut keys = spec.prefill_keys();
        let ops = spec.thread_ops(0);

        let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(b));
        prefill(&trie, &keys);
        let trie_steps = measure_steps(&trie, &ops);
        let list = full_skiplist();
        prefill(&list, &keys);
        let list_steps = measure_steps(&list, &ops);
        churn(&trie, &mut keys, m, b, 0xA6ED);
        let aged_steps = measure_steps(&trie, &ops);

        probes.push((b, trie_steps.hash_ops_per_op));
        rows.push(vec![
            (b as usize).into(),
            (skiptrie::levels_for_universe_bits(b) as usize).into(),
            m.into(),
            real(trie_steps.hash_ops_per_op, 1),
            real(trie_steps.traversal_steps_per_op, 1),
            real(aged_steps.traversal_steps_per_op, 1),
            real(list_steps.traversal_steps_per_op, 1),
        ]);
    }
    let mut out = Outcome::default();
    out.table(
        "E2: predecessor cost vs universe width b = log u (fixed m)",
        &[
            "universe_bits",
            "skiplist_levels(loglog u)",
            "m",
            "skiptrie_hash_probes/op",
            "skiptrie_steps/op",
            "skiptrie_steps_aged/op",
            "full_skiplist_steps/op",
        ],
        rows,
    );
    for (b, p) in probes {
        let bound = 2.0 * f64::from(b).log2() + 1.0;
        out.expect(
            p <= bound,
            format!("b = {b}: {p:.2} hash probes/op, want <= 2 log2 b + 1 = {bound:.2}"),
        );
        let most = bisection_gets(b);
        out.expect(
            p <= most,
            format!(
                "b = {b}: {p:.2} hash probes/op, want <= bisection's floor(log2 b) + 1 = {most}"
            ),
        );
    }
    out
}

/// E3 — 50/50 insert/delete churn: an update crosses `O(log u)` trie levels only
/// when its key reaches the top level, about once in `log u` updates, so the mean
/// is ~1 at every `m` — the y-fast trie's amortised bound with no rebalancing code.
fn e3() -> Outcome {
    let mut out = Outcome::default();
    let mut rows = Vec::new();
    for m in [2_000, 20_000, 100_000].map(scaled) {
        let spec = WorkloadSpec {
            universe_bits: BITS,
            prefill: m,
            ops_per_thread: scaled(60_000),
            threads: 1,
            dist: KeyDist::Uniform,
            mix: OpMix::CHURN,
            seed: 0xE3,
        };
        let keys = spec.prefill_keys();
        let ops = spec.thread_ops(0);
        let trie = SkipTrie::new(trie_config());
        prefill(&trie, &keys);
        let steps = measure_steps(&trie, &ops);

        // The sequential y-fast trie under the same churn: explicit rebalances.
        let mut yfast: SeqYFastTrie<u64> = SeqYFastTrie::new(BITS);
        for &k in &keys {
            yfast.insert(k, k);
        }
        let (_, splits_before, merges_before) = yfast.rebalance_stats();
        for &op in &ops {
            match op {
                Op::Insert(k) => drop(yfast.insert(k, k)),
                Op::Remove(k) => drop(yfast.remove(k)),
                _ => unreachable!("CHURN generates only inserts and removes"),
            }
        }
        let (_, splits, merges) = yfast.rebalance_stats();
        let rebalances =
            (splits + merges - splits_before - merges_before) as f64 / ops.len() as f64;

        let levels = steps.trie_levels_per_op;
        out.expect(
            (0.8..=1.25).contains(&levels),
            format!("m = {m}: {levels:.3} trie levels crossed per update, want within [0.8, 1.25]"),
        );
        rows.push(vec![
            m.into(),
            real(levels, 3),
            real(steps.hash_ops_per_op, 2),
            real(steps.update_steps_per_op, 2),
            real(steps.traversal_steps_per_op, 2),
            real(rebalances, 4),
            real(rebalances * f64::from(BITS), 2),
        ]);
    }
    out.table(
        "E3: amortized update cost (50/50 insert/delete churn, u = 2^32)",
        &[
            "m",
            "skiptrie_trie_levels/update",
            "skiptrie_hash_ops/update",
            "skiptrie_cas_dcss/update",
            "skiptrie_traversal_steps/update",
            "yfast_rebalances/update",
            "yfast_rebalance_work/update(~logu each)",
        ],
        rows,
    );
    out
}

/// E5 — nodes, prefixes and bytes per key are constant in `m`: the truncated towers
/// are `O(m)` and `m / log u` top-level keys carry `O(log u)` prefixes each.
fn e5() -> Outcome {
    let (mut rows, mut bytes_per_key, mut prefix_bytes_per_key) =
        (Vec::new(), Vec::new(), Vec::new());
    for m in [1_000, 10_000, 50_000, 200_000].map(scaled) {
        let trie = SkipTrie::new(trie_config());
        prefill(
            &trie,
            &WorkloadSpec::read_only(BITS, m, 0, 0xE5).prefill_keys(),
        );
        let levels = trie.level_lengths();
        let nodes: usize = levels.iter().sum();
        let prefixes = trie.prefix_count();
        let (allocated, _, pooled) = trie.allocation_stats();
        let bytes = trie.approx_node_bytes() as f64 / m as f64;
        let prefix_bytes = trie.approx_prefix_bytes() as f64 / m as f64;
        let dir_bytes = trie.approx_prefix_directory_bytes() as f64 / m as f64;
        if m >= 1_000 {
            bytes_per_key.push(bytes);
            prefix_bytes_per_key.push(prefix_bytes);
        }
        rows.push(vec![
            m.into(),
            nodes.into(),
            real(nodes as f64 / m as f64, 2),
            (*levels.last().expect("at least one level")).into(),
            real(m as f64 / 2f64.powi(levels.len() as i32 - 1), 0),
            prefixes.into(),
            real(prefixes as f64 / m as f64, 2),
            allocated.into(),
            pooled.into(),
            real(bytes, 0),
            real(prefix_bytes, 0),
            real(dir_bytes, 1),
        ]);
    }
    let mut out = Outcome::default();
    out.table(
        "E5: space usage vs m (u = 2^32)",
        &[
            "m",
            "skiplist_nodes",
            "nodes/key",
            "top_level_keys",
            "expected_top(m/2^(L-1))",
            "trie_prefixes",
            "prefixes/key",
            "pool_allocated",
            "pool_free",
            "node_bytes/key",
            "prefix_bytes/key",
            "dir_bytes/key",
        ],
        rows,
    );
    let ratio = spread(&bytes_per_key);
    out.expect(
        ratio <= 1.05,
        format!("node bytes/key max/min over m >= 1000 is {ratio:.3}, want <= 1.05"),
    );
    // `O(m)`, not flat: prefixes per key fall as the shared top of the tree
    // grows, and bucket sentinels come in doublings (EXPERIMENTS.md §`e5`).
    let ratio = spread(&prefix_bytes_per_key);
    out.expect(
        ratio <= 2.0,
        format!("prefix bytes/key max/min over m >= 1000 is {ratio:.3}, want <= 2.0"),
    );
    out
}

/// F1 — what Figure 1 draws: each level holds half the one below, consecutive
/// top-level keys are `~ log u` keys apart (the probabilistic stand-in for y-fast
/// buckets), and each of them carries at most `log u` prefixes.
fn f1() -> Outcome {
    let m = scaled(200_000);
    let trie = SkipTrie::new(trie_config());
    prefill(
        &trie,
        &WorkloadSpec::read_only(BITS, m, 0, 0xF1).prefill_keys(),
    );
    let mut out = Outcome::default();

    let lengths = trie.level_lengths();
    let mut rows = Vec::new();
    for (level, &count) in lengths.iter().enumerate() {
        let expected = m as f64 / 2f64.powi(level as i32);
        // A level's population is binomial, so its deviation scales with the root
        // of its expectation: the same bound holds at every scale.
        out.expect(
            (count as f64 - expected).abs() <= 3.0 * expected.sqrt(),
            format!("level {level} holds {count} nodes, want within 3 sqrt(e) of e = m/2^level = {expected:.0}"),
        );
        rows.push(vec![
            level.into(),
            count.into(),
            real(expected, 0),
            real(count as f64 / m as f64, 3),
        ]);
    }
    out.table(
        "F1a: skiplist level occupancy (m keys, geometric towers truncated at log log u levels)",
        &["level", "nodes", "expected(m/2^level)", "fraction_of_keys"],
        rows,
    );

    // Gaps in *rank*: how many keys lie between consecutive top-level keys. Both
    // lists are sorted, so each top-level key's rank is one binary search.
    let (all_keys, top_keys) = (trie.keys(), trie.top_level_keys());
    let ranks: Vec<usize> = top_keys
        .iter()
        .map(|k| all_keys.binary_search(k).expect("a top-level key is a key"))
        .collect();
    let mut gaps: Vec<usize> = ranks.windows(2).map(|w| w[1] - w[0]).collect();
    gaps.sort_unstable();
    let quantile = |q: f64| gaps[((gaps.len() - 1) as f64 * q).round() as usize];
    let mean = gaps.iter().sum::<usize>() as f64 / gaps.len() as f64;
    let expected = 2f64.powi(lengths.len() as i32 - 1);
    out.expect(
        (mean / expected - 1.0).abs() <= 0.10,
        format!("mean top-level gap is {mean:.1}, want within 10 % of 2^(L-1) = {expected:.0}"),
    );
    out.table(
        "F1b: spacing between consecutive top-level keys (implicit bucket size)",
        &[
            "top_level_keys",
            "mean_gap",
            "expected_gap(2^(L-1)~log u)",
            "p50_gap",
            "p99_gap",
            "max_gap",
        ],
        vec![vec![
            top_keys.len().into(),
            real(mean, 1),
            real(expected, 0),
            quantile(0.5).into(),
            quantile(0.99).into(),
            quantile(1.0).into(),
        ]],
    );

    let per_top_key = trie.prefix_count() as f64 / top_keys.len() as f64;
    out.expect(
        per_top_key <= f64::from(BITS),
        format!("{per_top_key:.1} prefixes per top-level key, want <= log u = {BITS}"),
    );
    out.table(
        "F1c: x-fast trie population",
        &["trie_prefixes", "prefixes_per_top_key", "universe_bits"],
        vec![vec![
            trie.prefix_count().into(),
            real(per_top_key, 1),
            (BITS as usize).into(),
        ]],
    );
    out
}

/// Per-query means of one F2 query phase, and the dangling guides its queries met.
fn f2_phase(
    name: String,
    trie: &SkipTrie<u64>,
    seed: u64,
    audit: Option<(usize, usize, usize)>,
) -> Vec<Cell> {
    let queries = scaled(30_000);
    let mut rng = SplitMix64::new(seed);
    let ((), delta) = metrics::measure(|| {
        for _ in 0..queries {
            trie.predecessor(rng.next() % (1 << 30));
        }
    });
    let per_query = |counter| real(delta.get(counter) as f64 / queries as f64, 3);
    let dangling_met: u64 = [
        Counter::GuideOffLevel,
        Counter::GuideTail,
        Counter::GuideNull,
        Counter::GuideNotSmaller,
    ]
    .into_iter()
    .map(|cause| delta.get(cause))
    .sum();
    let (inexact, dangling): (Cell, Cell) =
        audit.map_or(("-".into(), "-".into()), |a| (a.1.into(), a.2.into()));
    vec![
        Cell::Text(name),
        per_query(Counter::PrevPointerFollowed),
        per_query(Counter::BackPointerFollowed),
        per_query(Counter::MarkedNodeSkipped),
        real(delta.get(Counter::PtrRead) as f64 / queries as f64, 1),
        dangling_met.into(),
        inexact,
        dangling,
    ]
}

/// F2 — threads insert runs of successive keys (the pattern the paper names as the
/// source of `prev` gaps) beside a query thread; the guide-hop cost must fall back
/// once they finish, and after a remove-heavy churn has sent most top-level nodes
/// through the pool the audit must find every guide exact and none dangling.
fn f2() -> Outcome {
    let writers = max_threads().saturating_sub(1).max(1);
    let (run_len, base) = (scaled(50_000) as u64, scaled(50_000) as u64);
    let trie = SkipTrie::new(trie_config());
    for k in 0..base {
        trie.insert(k * 1_024 + 512, k);
    }

    let stop = AtomicBool::new(false);
    let during = std::thread::scope(|scope| {
        for t in 0..writers as u64 {
            let (trie, stop) = (&trie, &stop);
            scope.spawn(move || {
                let start = (t + 1).wrapping_mul(0x0100_0000);
                for i in 0..run_len {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    trie.insert(start.wrapping_add(i * 3) % (1 << 30), i);
                }
            });
        }
        let row = f2_phase(format!("during ({writers} inserters)"), &trie, 0xF2, None);
        stop.store(true, Ordering::Relaxed);
        row
    });
    // The audits run before their phase's queries, which would heal what they met.
    let after_audit = trie.check_prev_guides();
    let after = f2_phase("after (quiescent)".into(), &trie, 0xF2F2, Some(after_audit));

    // Two removes per insert over the base keys and the keys half way between them.
    std::thread::scope(|scope| {
        for t in 0..writers as u64 {
            let trie = &trie;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xF2C0 + t);
                for _ in 0..4 * base / writers as u64 {
                    let slot = rng.next() % (2 * base);
                    if rng.next().is_multiple_of(3) {
                        trie.insert(slot * 512 + 512, slot);
                    } else {
                        trie.remove(slot * 512 + 512);
                    }
                }
            });
        }
    });
    let churned_audit = trie.check_prev_guides();
    let churned = f2_phase(
        "after remove-heavy churn (quiescent)".into(),
        &trie,
        0xF2F2F2,
        Some(churned_audit),
    );

    let mut out = Outcome::default();
    for (phase, (_, inexact, dangling)) in [("inserts", after_audit), ("churn", churned_audit)] {
        out.expect(
            inexact == 0 && dangling == 0,
            format!("quiescent after the {phase}: {inexact} inexact and {dangling} dangling prev guides, want 0 and 0"),
        );
    }
    out.table(
        "F2: transient prev-pointer gaps under concurrent successive-key inserts",
        &[
            "phase",
            "prev_hops/query",
            "back_hops/query",
            "marked_nodes_skipped/query",
            "ptr_reads/query",
            "dangling_guides_met",
            "guides_inexact",
            "guides_dangling",
        ],
        vec![during, after, churned],
    );
    out
}

/// A structure of the sweep: builds it over `keys` (sorted, value = key) and hands
/// it to the run. A function and not a value because the tiered forest owns a
/// coordinator thread that must outlive the borrow.
type Build = fn(&[(u64, u64)], &mut dyn FnMut(&dyn OrderedKv<u64>));

fn filled(
    map: &dyn OrderedKv<u64>,
    entries: &[(u64, u64)],
    run: &mut dyn FnMut(&dyn OrderedKv<u64>),
) {
    for &(key, value) in entries {
        map.insert(key, value);
    }
    run(map);
}

/// `skiptrie-cas` is the paper's CAS fallback for DCSS.
const STRUCTURES: &[(&str, Build)] = &[
    ("skiptrie", |e, run| {
        filled(&SkipTrie::new(trie_config()), e, run)
    }),
    ("skiptrie-cas", |e, run| {
        filled(
            &SkipTrie::new(trie_config().with_mode(DcssMode::CasOnly)),
            e,
            run,
        )
    }),
    ("forest-s8", |e, run| {
        filled(&ShardedSkipTrie::<u64>::new(forest_config()), e, run)
    }),
    ("tiered-forest-s8", |e, run| {
        let forest = TieredForest::from_sorted(forest_config().with_merge_watermark(4096), e);
        run(&*forest)
    }),
    ("lockfree-skiplist", |e, run| {
        filled(&full_skiplist(), e, run)
    }),
    ("locked-btreemap", |e, run| {
        filled(&LockedBTreeMap::<u64>::new(), e, run)
    }),
];

/// The (mix, key distribution) pairs of the sweep. The hot ranges make every thread
/// collide (Theorem 4.3's `c`); the scattered set makes removes hit, so the churn
/// row exercises retirement (uniform removes over `2^32` almost always miss).
fn scenarios() -> Vec<(&'static str, OpMix, KeyDist)> {
    let scattered = KeyDist::ScatteredSet {
        working_set: 2 * scaled(50_000) as u64,
    };
    vec![
        (
            "update-heavy uniform",
            OpMix::UPDATE_HEAVY,
            KeyDist::Uniform,
        ),
        (
            "update-heavy hot-range(1024)",
            OpMix::UPDATE_HEAVY,
            KeyDist::HotRange { range: 1024 },
        ),
        (
            "update-heavy hot-range(64)",
            OpMix::UPDATE_HEAVY,
            KeyDist::HotRange { range: 64 },
        ),
        ("churn scattered-set", OpMix::CHURN, scattered),
        ("read-heavy uniform", OpMix::READ_HEAVY, KeyDist::Uniform),
        ("read-mostly uniform", OpMix::READ_MOSTLY, KeyDist::Uniform),
        ("scan-heavy uniform", OpMix::SCAN_HEAVY, KeyDist::Uniform),
    ]
}

/// sweep — every structure under every scenario up the thread ladder, with the
/// counters Theorem 4.3 charges to contention. No verdict: with more than one
/// thread (or a fold coordinator) in play no column repeats exactly.
fn sweep() -> Outcome {
    let mut rows = Vec::new();
    for (scenario, mix, dist) in scenarios() {
        let base = WorkloadSpec {
            universe_bits: BITS,
            prefill: scaled(50_000),
            ops_per_thread: scaled(20_000),
            threads: 1,
            dist,
            mix,
            seed: 0x5EE9,
        };
        let entries = base.sorted_prefill_entries();
        for &(structure, build) in STRUCTURES {
            for threads in thread_sweep() {
                let spec = WorkloadSpec { threads, ..base };
                build(&entries, &mut |map| {
                    let (result, steps) = metrics::measure(|| run_throughput(map, &spec));
                    let per_op = |v: u64| real(v as f64 / result.total_ops as f64, 3);
                    rows.push(vec![
                        scenario.into(),
                        structure.into(),
                        threads.into(),
                        real(result.ops_per_sec, 0),
                        real(steps.traversal_steps() as f64 / result.total_ops as f64, 1),
                        per_op(steps.contention_steps()),
                        per_op(steps.get(Counter::CasFailure)),
                        per_op(steps.get(Counter::DcssFailure)),
                        per_op(steps.get(Counter::DcssHelp)),
                    ]);
                });
            }
        }
    }
    let mut out = Outcome::default();
    out.table(
        "sweep: throughput and contention steps, structure x (mix, keys) x threads (u = 2^32, counters on)",
        &[
            "scenario",
            "structure",
            "threads",
            "ops/s",
            "traversal_steps/op",
            "contention_steps/op",
            "cas_failures/op",
            "dcss_failures/op",
            "helps/op",
        ],
        rows,
    );
    out
}

/// Runs `f` single-threaded with counters on: nanoseconds and traversal steps per
/// unit of work.
fn counted(units: usize, f: impl FnOnce()) -> (f64, f64) {
    let sw = Stopwatch::start();
    let ((), delta) = metrics::measure(f);
    (
        ns_per(sw, units),
        delta.traversal_steps() as f64 / units.max(1) as f64,
    )
}

/// Rounds of an `ab` row whose sides can run again.
const AB_ROUNDS: usize = 5;

/// The median of `values` (the upper one of an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Appends one `ab` row — `a` then `b`, once each, for sides that use up what
/// they run on — and returns their steps per unit.
fn ab_row(
    rows: &mut Vec<Vec<Cell>>,
    pair: &str,
    (unit, units): (&str, usize),
    a: impl FnOnce(),
    b: impl FnOnce(),
) -> (f64, f64) {
    let (a_ns, a_steps) = counted(units, a);
    let (b_ns, b_steps) = counted(units, b);
    rows.push(vec![
        pair.into(),
        unit.into(),
        units.into(),
        1usize.into(),
        real(a_ns, 0),
        real(b_ns, 0),
        real(b_ns / a_ns, 2),
        real(a_steps, 1),
        real(b_steps, 1),
    ]);
    (a_steps, b_steps)
}

/// Appends one `ab` row for sides that leave their structures as they found them:
/// [`AB_ROUNDS`] rounds, the side that goes first alternating, so no side always
/// runs on a cold or a warm host. The row shows each side's median ns per unit and
/// the median of the rounds' ratios; returns the median steps per unit (the same
/// every round: they are deterministic).
fn ab_rounds(
    rows: &mut Vec<Vec<Cell>>,
    pair: &str,
    (unit, units): (&str, usize),
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    let (mut a_runs, mut b_runs) = (Vec::new(), Vec::new());
    for round in 0..AB_ROUNDS {
        if round % 2 == 0 {
            a_runs.push(counted(units, &mut a));
            b_runs.push(counted(units, &mut b));
        } else {
            b_runs.push(counted(units, &mut b));
            a_runs.push(counted(units, &mut a));
        }
    }
    let column =
        |runs: &[(f64, f64)], pick: fn(&(f64, f64)) -> f64| median(runs.iter().map(pick).collect());
    let ratios = a_runs.iter().zip(&b_runs).map(|(a, b)| b.0 / a.0).collect();
    let (a_steps, b_steps) = (column(&a_runs, |r| r.1), column(&b_runs, |r| r.1));
    rows.push(vec![
        pair.into(),
        unit.into(),
        units.into(),
        AB_ROUNDS.into(),
        real(column(&a_runs, |r| r.0), 0),
        real(column(&b_runs, |r| r.0), 0),
        real(median(ratios), 2),
        real(a_steps, 1),
        real(b_steps, 1),
    ]);
    (a_steps, b_steps)
}

/// ab — the repository's own mechanisms against what a caller would write without
/// them, where nothing else measures the pair: the cursor and `pop_first` (the
/// paper's scan and event-queue uses), sorted batches, the bulk loader, the frozen
/// tier's two search layouts and its dirty-gap summary. A is the mechanism, B the
/// alternative.
fn ab() -> Outcome {
    let mut out = Outcome::default();
    let mut rows = Vec::new();
    let entries = WorkloadSpec::read_only(BITS, scaled(100_000), 0, 0xAB).sorted_prefill_entries();
    let trie: SkipTrie<u64> = SkipTrie::from_sorted(trie_config(), entries.iter().copied());

    // `O(log log u + k)` against `O(k log log u)`: one descent then a hop per key,
    // or a full search per key.
    for k in [10usize, 100, 1_000] {
        let reps = scaled(400);
        let starts = |visit: &mut dyn FnMut(u64)| {
            let mut rng = SplitMix64::new(0xE9A ^ k as u64);
            (0..reps).for_each(|_| visit(rng.next() & MAX_KEY));
        };
        let (scan_steps, chained_steps) = ab_rounds(
            &mut rows,
            &format!("scan(k={k}) vs k chained successor calls"),
            ("key", reps * k),
            || {
                starts(&mut |from| {
                    black_box(trie.scan(from, k));
                })
            },
            || {
                starts(&mut |mut from| {
                    for _ in 0..k {
                        match trie.successor(from) {
                            Some((key, _)) if key < MAX_KEY => from = key + 1,
                            _ => break,
                        }
                    }
                })
            },
        );
        if k == 100 {
            let steps_ratio = chained_steps / scan_steps;
            out.expect(
                steps_ratio >= 10.0,
                format!("k = 100: chained successors take {steps_ratio:.1}x a scan's steps per key, want >= 10"),
            );
        }
    }

    let events = WorkloadSpec::read_only(BITS, scaled(50_000), 0, 0xE9B).sorted_prefill_entries();
    let queue = || SkipTrie::<u64>::from_sorted(trie_config(), events.iter().copied());
    let (popped, looped) = (queue(), queue());
    ab_row(
        &mut rows,
        "pop_first drain vs successor+remove loop",
        ("event", events.len()),
        || while popped.pop_first().is_some() {},
        || {
            while let Some((key, _)) = looped.successor(0) {
                looped.remove(key);
            }
        },
    );

    // A batch sorts its keys and makes one point call per key, so what it can gain
    // over point calls in arrival order is sorted-order key locality; it is taken at
    // a batch large enough to have some against this population. Spread keys are
    // drawn over the whole universe; dense ones come 4 096 consecutive keys a batch,
    // shuffled. Each trie reclaims in an epoch domain of its own, so neither side
    // pays for the other's garbage.
    const BATCH: usize = 4_096;
    let n = scaled(60_000);
    let mut rng = SplitMix64::new(0xE10B);
    let spread: Vec<u64> = (0..n).map(|_| rng.next() & MAX_KEY).collect();
    let mut dense: Vec<u64> = Vec::with_capacity(n);
    while dense.len() < n {
        let base = rng.next() % (MAX_KEY - BATCH as u64);
        let block = dense.len();
        dense.extend((base..base + BATCH as u64).take(n - block));
        for i in (block + 1..dense.len()).rev() {
            let j = block + (rng.next() % (i - block + 1) as u64) as usize;
            dense.swap(i, j);
        }
    }
    for (layout, keys, domains) in [("spread", &spread, (22, 23)), ("dense", &dense, (24, 25))] {
        let stream: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 0)).collect();
        let batched = SkipTrie::new(trie_config().with_domain(domains.0));
        let pointwise = SkipTrie::new(trie_config().with_domain(domains.1));
        // Per verb: the batch call over a range of the stream, the point call on one index.
        let verbs: [(&str, &dyn Fn(Range<usize>), &dyn Fn(usize)); 3] = [
            (
                "insert",
                &|r| {
                    black_box(batched.insert_batch(&stream[r]));
                },
                &|i| {
                    black_box(pointwise.insert(keys[i], stream[i].1));
                },
            ),
            (
                "get",
                &|r| {
                    black_box(batched.get_batch(&keys[r]));
                },
                &|i| {
                    black_box(pointwise.get(keys[i]));
                },
            ),
            (
                "remove",
                &|r| {
                    black_box(batched.remove_batch(&keys[r]));
                },
                &|i| {
                    black_box(pointwise.remove(keys[i]));
                },
            ),
        ];
        for (verb, batch, point) in verbs {
            ab_row(
                &mut rows,
                &format!("{verb}_batch({BATCH}) vs one {verb} per key, {layout} keys"),
                ("op", n),
                || {
                    (0..n)
                        .step_by(BATCH)
                        .for_each(|lo| batch(lo..n.min(lo + BATCH)))
                },
                || (0..n).for_each(point),
            );
        }
    }

    let big = WorkloadSpec::read_only(BITS, scaled(200_000), 0, 0xE11).sorted_prefill_entries();
    ab_rounds(
        &mut rows,
        "bulk_load vs sorted insert loop",
        ("key", big.len()),
        || {
            black_box(SkipTrie::<u64>::from_sorted(
                trie_config(),
                big.iter().copied(),
            ));
        },
        || {
            let looped = SkipTrie::new(trie_config());
            for &(k, v) in &big {
                looped.insert(k, v);
            }
        },
    );

    // The serving regime in one row: the delta is never empty, and a read pays for it
    // only if a buffered write touched the gap between frozen keys the read falls in.
    // Every `stride`-th frozen key is tombstoned; A reads frozen keys half a stride
    // away from any of them, B the tombstoned keys themselves.
    let probes = scaled(200_000);
    let tier = WorkloadSpec::read_only(BITS, scaled(400_000), 0, 0xE14C).sorted_prefill_entries();
    const BUFFERED: usize = 2_048;
    let stride = tier.len() / BUFFERED;
    assert!(stride >= 4, "clean keys need clean neighbours");
    let beside = TieredSkipTrie::<u64>::from_sorted(
        TieredSkipTrieConfig::for_universe_bits(BITS),
        tier.iter().copied(),
    );
    for j in 0..BUFFERED {
        beside.remove(tier[j * stride].0);
    }
    let read = |offset: usize| {
        let (beside, tier) = (&beside, &tier);
        move || {
            for p in 0..probes {
                let key = tier[(p % BUFFERED) * stride + offset].0;
                if p % 2 == 0 {
                    black_box(beside.get(key));
                } else {
                    black_box(beside.predecessor(key));
                }
            }
        }
    };
    let (clean_steps, _) = ab_rounds(
        &mut rows,
        "tiered read beside 2 048 un-merged writes: clean key (A) vs dirty key (B)",
        ("op", probes),
        read(stride / 2),
        read(0),
    );
    out.expect(
        clean_steps == 0.0,
        format!(
            "a clean-key read beside a dirty delta takes {clean_steps} trie steps per op, want 0"
        ),
    );

    out.table(
        &format!(
            "ab: mechanism (A) vs the alternative (B), single-threaded, counters on (u = 2^32); \
             a row of {AB_ROUNDS} rounds alternates which side runs first and shows each side's \
             median and the median per-round B/A, a row of 1 round (the pop drain and the batch \
             rows, whose sides use up their structures) is one run"
        ),
        &[
            "pair",
            "unit",
            "units",
            "rounds",
            "A_ns/unit",
            "B_ns/unit",
            "B/A_ns",
            "A_steps/unit",
            "B_steps/unit",
        ],
        rows,
    );
    out
}

/// Alternating process pairs per `pages` row.
const PAGES_PAIRS: usize = 5;
/// The argument that makes the bin one `pages` measurement (see [`pages_child`]).
const PAGES_CHILD: &str = "--pages-child";
/// glibc's tunable that has malloc advise `MADV_HUGEPAGE` over its whole heap.
const HEAP_HUGE_PAGES: (&str, &str) = ("GLIBC_TUNABLES", "glibc.malloc.hugetlb=1");

/// One `pages` measurement, in a child process of its own: `structure` built over
/// `m` keys, then mean ns per predecessor query. Prints the ns and the process's
/// `AnonHugePages` (kB, read while the structure is alive; 0 where the kernel
/// does not report it).
fn pages_child(structure: &str, m: usize, queries: usize) {
    let spec = WorkloadSpec::read_only(BITS, m, queries, 0x9A6E);
    let ops = spec.thread_ops(0);
    let map: Box<dyn OrderedKv<u64>> = match structure {
        "skiptrie_bulk" => Box::new(SkipTrie::from_sorted(
            trie_config(),
            spec.sorted_prefill_entries(),
        )),
        "skiptrie_inserted" => {
            let trie = SkipTrie::new(trie_config());
            prefill(&trie, &spec.prefill_keys());
            Box::new(trie)
        }
        "locked_btree" => {
            let btree: LockedBTreeMap<u64> = LockedBTreeMap::new();
            prefill(&btree, &spec.prefill_keys());
            Box::new(btree)
        }
        other => panic!("no pages structure {other:?}"),
    };
    let ns = ns_per_op(&*map, &ops);
    let huge_kb: u64 = std::fs::read_to_string("/proc/self/smaps_rollup")
        .ok()
        .and_then(|rollup| {
            rollup
                .lines()
                .find_map(|line| line.strip_prefix("AnonHugePages:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0);
    println!("{ns} {huge_kb}");
}

/// Runs one [`pages_child`] measurement in a fresh process of this bin, with
/// glibc's heap-wide advice or without it: `(ns/op, AnonHugePages kB)`.
fn pages_run(structure: &str, m: usize, queries: usize, heap_advised: bool) -> (f64, f64) {
    let exe = std::env::current_exe().expect("the experiments bin knows its path");
    let mut child = std::process::Command::new(exe);
    child.args([PAGES_CHILD, structure, &m.to_string(), &queries.to_string()]);
    if heap_advised {
        child.env(HEAP_HUGE_PAGES.0, HEAP_HUGE_PAGES.1);
    } else {
        child.env_remove(HEAP_HUGE_PAGES.0);
    }
    let out = child.output().expect("a pages child runs");
    assert!(
        out.status.success(),
        "pages child {structure} m={m} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = String::from_utf8(out.stdout).expect("a pages child prints text");
    let mut fields = line
        .split_whitespace()
        .map(|f| f.parse::<f64>().expect("a number"));
    let mut next = || fields.next().expect("two fields");
    (next(), next())
}

/// pages — where a large structure's time goes on 4-KiB pages. Each row runs
/// [`PAGES_PAIRS`] alternating pairs of child processes: `own` as the library
/// stands (the skiplist pool advises its own 2-MiB arenas, nothing else is
/// advised), `heap` under glibc's tunable that advises all of malloc's memory.
/// The gap between them is what huge pages would still give the rest of the
/// structure (prefix entries, directory leaves, the B-tree's nodes). Timings and
/// `AnonHugePages` depend on the host's THP mode, so nothing here is checked.
fn pages() -> Outcome {
    let queries = scaled(200_000);
    let mut rows = Vec::new();
    for m in [131_072, 1 << 22].map(scaled) {
        for structure in ["skiptrie_bulk", "skiptrie_inserted", "locked_btree"] {
            let (mut own, mut heap) = (Vec::new(), Vec::new());
            for pair in 0..PAGES_PAIRS {
                let run = |heap_advised| pages_run(structure, m, queries, heap_advised);
                if pair % 2 == 0 {
                    own.push(run(false));
                    heap.push(run(true));
                } else {
                    heap.push(run(true));
                    own.push(run(false));
                }
            }
            let won = own.iter().zip(&heap).filter(|(o, h)| h.0 < o.0).count();
            let column = |runs: &[(f64, f64)], pick: fn(&(f64, f64)) -> f64| {
                median(runs.iter().map(pick).collect())
            };
            let (own_ns, heap_ns) = (column(&own, |r| r.0), column(&heap, |r| r.0));
            rows.push(vec![
                m.into(),
                structure.into(),
                real(own_ns, 0),
                real(heap_ns, 0),
                real(heap_ns / own_ns, 2),
                Cell::Text(format!("{won}/{PAGES_PAIRS}")),
                real(column(&own, |r| r.1), 0),
                real(column(&heap, |r| r.1), 0),
            ]);
        }
    }
    let mut out = Outcome::default();
    out.table(
        &format!(
            "pages: predecessor ns/op, own arenas vs heap-wide huge pages (medians of {PAGES_PAIRS} process pairs)"
        ),
        &[
            "m",
            "structure",
            "own_ns/op",
            "heap_ns/op",
            "heap/own_ns",
            "heap_pairs_won",
            "own_AnonHugePages_kB",
            "heap_AnonHugePages_kB",
        ],
        rows,
    );
    out
}

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, structure, m, queries] = wanted.as_slice() {
        if flag == PAGES_CHILD {
            let count = |arg: &String| arg.parse().expect("a count");
            pages_child(structure, count(m), count(queries));
            return;
        }
    }
    let find = |w: &String| {
        EXPERIMENTS
            .iter()
            .find(|(id, ..)| id == w)
            .unwrap_or_else(|| {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, ..)| *id).collect();
                eprintln!("unknown experiment {w:?}; the ids are: {}", ids.join(" "));
                std::process::exit(2)
            })
    };
    // The ids given, in the order given; none = every entry.
    let chosen: Vec<_> = if wanted.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        wanted.iter().map(find).collect()
    };
    let mut outcomes = Vec::new();
    for &(id, certifies, run) in chosen {
        println!("# {id}: {certifies}");
        let outcome = run();
        outcome.tables.iter().for_each(|table| table.print());
        outcomes.push((id, outcome));
    }
    write_json_summary(&outcomes);
    let violated: Vec<String> = outcomes
        .iter()
        .flat_map(|(id, outcome)| outcome.violations.iter().map(move |v| format!("{id}: {v}")))
        .collect();
    if !violated.is_empty() {
        for line in &violated {
            eprintln!("VIOLATED {line}");
        }
        std::process::exit(1);
    }
    println!("every checked shape holds");
}
