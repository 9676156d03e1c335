//! Experiment E1 — predecessor step complexity as the number of keys `m` grows.
//!
//! Paper claim (Theorem 4.3 and the introduction's motivating gap): SkipTrie
//! predecessor queries cost `O(log log u + c)` steps — *independent of `m`* — while
//! every prior concurrent predecessor structure costs `Θ(log m)`. This binary fixes
//! `u = 2^32` and sweeps `m`, reporting mean shared-memory steps per query for the
//! SkipTrie and the full-height lock-free skiplist baseline, plus wall-clock ns/op for
//! all three structures (the locked B-tree cannot be step-instrumented, its work
//! happens inside `std`). The SkipTrie is measured twice: as built, and again after
//! `m` churn operations have turned half its key set over (the `aged` column) — the
//! bound is a claim about the structure in service, not about a fresh build.
//!
//! Expected shape: both SkipTrie columns stay flat as `m` grows 100× while the
//! skiplist row grows roughly like `log m`.

use skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_baselines::{FullSkipList, LockedBTreeMap};
use skiptrie_bench::{churn, measure_steps, prefill, print_table, scaled, OrderedKv};
use skiptrie_workloads::WorkloadSpec;

fn ns_per_op(map: &dyn OrderedKv<u64>, ops: &[skiptrie_workloads::Op]) -> f64 {
    let sw = skiptrie_metrics::Stopwatch::start();
    for &op in ops {
        skiptrie_bench::apply_op(map, op);
    }
    sw.elapsed().as_nanos() as f64 / ops.len().max(1) as f64
}

fn main() {
    const UNIVERSE_BITS: u32 = 32;
    let queries = scaled(20_000);
    let sizes: Vec<usize> = [1_000usize, 5_000, 20_000, 100_000, 400_000]
        .iter()
        .map(|&m| scaled(m))
        .collect();

    let mut rows = Vec::new();
    for &m in &sizes {
        let spec = WorkloadSpec::read_only(UNIVERSE_BITS, m, queries, 0xE1);
        let mut keys = spec.prefill_keys();
        let ops = spec.thread_ops(0);

        let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
        prefill(&trie, &keys);
        let trie_steps = measure_steps(&trie, &ops);
        let trie_ns = ns_per_op(&trie, &ops);

        let skiplist: FullSkipList<u64> = FullSkipList::new();
        prefill(&skiplist, &keys);
        let sl_steps = measure_steps(&skiplist, &ops);
        let sl_ns = ns_per_op(&skiplist, &ops);

        let btree: LockedBTreeMap<u64> = LockedBTreeMap::new();
        prefill(&btree, &keys);
        let bt_ns = ns_per_op(&btree, &ops);

        churn(&trie, &mut keys, m, UNIVERSE_BITS, 0xA6ED);
        let aged_steps = measure_steps(&trie, &ops);

        rows.push(vec![
            m.to_string(),
            format!("{:.1}", trie_steps.traversal_steps_per_op),
            format!("{:.1}", aged_steps.traversal_steps_per_op),
            format!("{:.1}", trie_steps.hash_ops_per_op),
            format!("{:.1}", sl_steps.traversal_steps_per_op),
            format!("{:.1}", (m as f64).log2()),
            format!("{trie_ns:.0}"),
            format!("{sl_ns:.0}"),
            format!("{bt_ns:.0}"),
        ]);
    }

    print_table(
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
        ],
        &rows,
    );
    println!(
        "expectation: skiptrie steps stay ~flat in m, fresh and aged alike; skiplist steps grow \
         ~with log2(m)."
    );
    skiptrie_bench::write_json_summary("e1_steps_vs_m");
}
