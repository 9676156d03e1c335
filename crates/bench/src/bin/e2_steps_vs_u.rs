//! Experiment E2 — predecessor step complexity as the universe size `u` grows.
//!
//! Paper claim: the SkipTrie's search depth is `O(log log u)` — doubling the key width
//! `b = log u` adds only one expected skiplist level and one hash probe to the binary
//! search, while an `m`-dependent structure is unaffected by `b`. This binary fixes
//! `m` and sweeps `b ∈ {8, 16, 24, 32, 48, 64}`, measuring the SkipTrie as built and
//! again after `m` churn operations have turned half its key set over (`aged`).
//!
//! Expected shape: SkipTrie hash probes grow like `log2(b)` (3 → 6) and total steps
//! grow very slowly; the skiplist baseline's cost is flat in `b` but much larger
//! than the SkipTrie's for the fixed `m` (it depends on `log m` instead).

use skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_baselines::FullSkipList;
use skiptrie_bench::{churn, measure_steps, prefill, print_table, scaled};
use skiptrie_workloads::WorkloadSpec;

fn main() {
    let m = scaled(100_000);
    let queries = scaled(20_000);
    let universe_bits = [8u32, 16, 24, 32, 48, 64];

    let mut rows = Vec::new();
    for &b in &universe_bits {
        // Small universes cannot hold m distinct keys; cap the prefill at half the
        // universe so queries still exercise both present and absent keys.
        let capacity = if b >= 63 { u64::MAX } else { (1u64 << b) - 1 };
        let prefill_size = m.min((capacity / 2) as usize);
        let spec = WorkloadSpec::read_only(b, prefill_size, queries, 0xE2);
        let mut keys = spec.prefill_keys();
        let ops = spec.thread_ops(0);

        let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(b));
        prefill(&trie, &keys);
        let trie_steps = measure_steps(&trie, &ops);

        let skiplist: FullSkipList<u64> = FullSkipList::new();
        prefill(&skiplist, &keys);
        let sl_steps = measure_steps(&skiplist, &ops);

        churn(&trie, &mut keys, prefill_size, b, 0xA6ED);
        let aged_steps = measure_steps(&trie, &ops);

        let levels = skiptrie::levels_for_universe_bits(b);
        rows.push(vec![
            b.to_string(),
            levels.to_string(),
            prefill_size.to_string(),
            format!("{:.1}", trie_steps.hash_ops_per_op),
            format!("{:.1}", trie_steps.traversal_steps_per_op),
            format!("{:.1}", aged_steps.traversal_steps_per_op),
            format!("{:.1}", sl_steps.traversal_steps_per_op),
        ]);
    }

    print_table(
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
        &rows,
    );
    println!("expectation: skiptrie probes/steps grow ~log2(b); baseline depends on m, not b.");
    skiptrie_bench::write_json_summary("e2_steps_vs_u");
}
