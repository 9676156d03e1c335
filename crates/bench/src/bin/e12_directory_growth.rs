//! Experiment E12 — hash-directory growth: flat per-probe cost at any population.
//!
//! The split-ordered map's bucket directory is a growable segment tree, so the
//! doubling rule never runs out of buckets and chains stay short at every size.
//! (Until PR 13 a bounded mode reproduced the old fixed directory's saturation
//! cliff beside it; its rows are kept in `EXPERIMENTS.md` §E12 as the record.)
//!
//! Three tables:
//!
//! * **E12a** — map-level `get` cost as the key count sweeps upward: ns/get and
//!   list hops/get (`ptr_reads/get` is the chain length the probe walked).
//! * **E12b** — trie-level `predecessor` cost: the `LowestAncestor` binary search
//!   issues `O(log log u)` hash probes, each `O(1)` expected *only while bucket
//!   chains stay short*. The headline is the flatness ratio of the per-probe cost
//!   (traversal steps per hash probe) from the smallest to the largest
//!   population — acceptance wants it within 1.3x.
//! * **E12c** — growth trajectory of a small-fanout (2^4) directory: height, node
//!   count and grow-CAS count at each population checkpoint.

use skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_bench::{print_table, scaled, write_json_summary};
use skiptrie_metrics::{self as metrics, Counter, Stopwatch};
use skiptrie_splitorder::{DirectoryConfig, SplitOrderedMap};
use skiptrie_workloads::WorkloadSpec;

const UNIVERSE_BITS: u32 = 32;

/// Population sizes swept by E12a/E12b: geometric from 512 keys.
fn populations() -> Vec<usize> {
    let mut out = vec![512];
    while *out.last().unwrap() < scaled(256_000) {
        out.push(out.last().unwrap() * 4);
    }
    out
}

/// Sorted, strictly increasing (key, value = key) entries spread over the universe.
fn sorted_entries(n: usize, seed: u64) -> Vec<(u64, u64)> {
    WorkloadSpec::ingest_then_serve(UNIVERSE_BITS, n, 0, 1, seed).sorted_prefill_entries()
}

/// Best-of-`reps` wall nanoseconds per probe over `probe` called `count` times.
fn best_ns_per_probe(reps: usize, count: usize, mut probe: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let sw = Stopwatch::start();
        probe();
        best = best.min(sw.elapsed().as_nanos() as f64 / count.max(1) as f64);
    }
    best
}

/// E12a: map-level `get` as the population grows.
fn map_get_sweep(reps: usize) {
    let mut rows = Vec::new();
    let probes = scaled(40_000);
    for &n in &populations() {
        let entries = sorted_entries(n, 0xE12A);
        let mut map: SplitOrderedMap<u64, u64> = SplitOrderedMap::new();
        assert_eq!(map.bulk_load(entries.clone()), n);
        let run = || {
            for i in 0..probes {
                let (k, v) = entries[i * 127 % n];
                assert_eq!(map.get(&k), Some(v));
            }
        };
        let ns = best_ns_per_probe(reps, probes, run);
        let ((), delta) = metrics::measure(run);
        rows.push(vec![
            n.to_string(),
            format!("{ns:.0}"),
            format!("{:.1}", delta.get(Counter::PtrRead) as f64 / probes as f64),
            map.bucket_count().to_string(),
        ]);
    }
    print_table(
        "E12a: map get cost vs population (u = 2^32)",
        &["n", "ns/get", "hops/get", "buckets"],
        &rows,
    );
}

/// E12b: trie-level `predecessor` — per-probe `LowestAncestor` cost must stay
/// flat across the sweep. Returns last/first per-probe cost.
fn trie_predecessor_sweep(reps: usize) -> f64 {
    let mut rows = Vec::new();
    let mut per_probe = Vec::new();
    for &n in &populations() {
        let entries = sorted_entries(n, 0xE12B);
        let spec = WorkloadSpec::read_only(UNIVERSE_BITS, 0, scaled(20_000), 0xE12B);
        let ops = spec.thread_ops(0);
        let config = SkipTrieConfig::for_universe_bits(UNIVERSE_BITS);
        let trie: SkipTrie<u64> = SkipTrie::from_sorted(config, entries.iter().copied());
        assert_eq!(trie.len(), n);
        let report = skiptrie_bench::measure_steps(&trie, &ops);
        let ns = best_ns_per_probe(reps, ops.len(), || {
            for &op in &ops {
                skiptrie_bench::apply_op(&trie, op);
            }
        });
        // Steps per hash probe: the cost of one LowestAncestor table lookup,
        // the quantity the directory keeps O(1) by splitting buckets.
        let probe_cost = report.traversal_steps_per_op / report.hash_ops_per_op.max(1.0);
        per_probe.push(probe_cost);
        rows.push(vec![
            n.to_string(),
            format!("{ns:.0}"),
            format!("{:.1}", report.hash_ops_per_op),
            format!("{probe_cost:.1}"),
        ]);
    }
    print_table(
        "E12b: trie predecessor cost vs population (u = 2^32)",
        &["n", "ns/op", "hash_ops/op", "steps/probe"],
        &rows,
    );
    per_probe[per_probe.len() - 1] / per_probe[0].max(f64::EPSILON)
}

/// E12c: growth trajectory of a deliberately small-fanout directory.
fn growth_trajectory() {
    let fanout_bits = 4u32;
    let map: SplitOrderedMap<u64, u64> =
        SplitOrderedMap::with_directory(DirectoryConfig::default().with_segment_bits(fanout_bits));
    let checkpoints: Vec<usize> = (0..6).map(|i| 1usize << (2 * i + 8)).collect();
    let mut rows = Vec::new();
    let mut inserted = 0usize;
    let was_enabled = metrics::is_enabled();
    metrics::set_enabled(true);
    let before = metrics::snapshot();
    for &target in &checkpoints {
        while inserted < target {
            let k = (inserted as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                & ((1u64 << UNIVERSE_BITS) - 1);
            map.insert(k, k);
            inserted += 1;
        }
        let so_far = metrics::snapshot().since(&before);
        rows.push(vec![
            target.to_string(),
            map.bucket_count().to_string(),
            map.directory_height().to_string(),
            map.directory_node_count().to_string(),
            so_far.get(Counter::DirGrow).to_string(),
        ]);
    }
    metrics::set_enabled(was_enabled);
    print_table(
        &format!("E12c: directory growth trajectory at fanout 2^{fanout_bits}"),
        &["n", "buckets", "height", "nodes", "dir_grow_cum"],
        &rows,
    );
}

fn main() {
    let reps = 3;
    map_get_sweep(reps);
    let flatness = trie_predecessor_sweep(reps);
    growth_trajectory();
    println!(
        "headline: per-probe LowestAncestor cost is {flatness:.2}x its \
         small-population baseline across the sweep (acceptance ceiling: 1.3x)."
    );
    write_json_summary("e12_directory_growth");
}
