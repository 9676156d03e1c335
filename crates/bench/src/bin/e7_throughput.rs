//! Experiment E7 — multi-threaded throughput against the baselines.
//!
//! The paper motivates the SkipTrie as a *concurrent* structure: it must scale with
//! threads like existing lock-free skiplists while doing asymptotically less work per
//! query. This binary sweeps the thread count for a read-heavy (90/9/1) and an
//! update-heavy (50/25/25) mix over a 2^32 universe and compares the SkipTrie, the
//! full-height lock-free skiplist, and the coarse-locked `BTreeMap`.
//!
//! Expected shape: both lock-free structures scale with threads while the locked
//! B-tree flattens (update-heavy) or scales only for reads; the SkipTrie matches or
//! beats the lock-free skiplist as `m` grows because each query touches fewer nodes.

use skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_baselines::{FullSkipList, LockedBTreeMap};
use skiptrie_bench::{prefill, print_table, run_throughput, scaled, thread_sweep, Named};
use skiptrie_workloads::{KeyDist, OpMix, WorkloadSpec};

fn run_structure(
    name_mix: &str,
    (name, map): Named<'_>,
    spec: &WorkloadSpec,
    rows: &mut Vec<Vec<String>>,
) {
    prefill(map, &spec.prefill_keys());
    let result = run_throughput(map, spec);
    rows.push(vec![
        name_mix.to_string(),
        name.to_string(),
        spec.threads.to_string(),
        format!("{:.2e}", result.ops_per_sec),
        format!("{:.1}", result.elapsed.as_millis()),
    ]);
}

fn main() {
    const UNIVERSE_BITS: u32 = 32;
    let mut rows = Vec::new();
    for (mix_name, mix) in [
        ("read-heavy 90/9/1", OpMix::READ_HEAVY),
        ("update-heavy 50/25/25", OpMix::UPDATE_HEAVY),
    ] {
        for threads in thread_sweep() {
            let spec = WorkloadSpec {
                universe_bits: UNIVERSE_BITS,
                prefill: scaled(200_000),
                ops_per_thread: scaled(100_000),
                threads,
                dist: KeyDist::Uniform,
                mix,
                seed: 0xE7,
            };
            let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
            run_structure(mix_name, ("skiptrie", &trie), &spec, &mut rows);
            let skiplist: FullSkipList<u64> = FullSkipList::new();
            run_structure(mix_name, ("lockfree-skiplist", &skiplist), &spec, &mut rows);
            let btree: LockedBTreeMap<u64> = LockedBTreeMap::new();
            run_structure(mix_name, ("locked-btreemap", &btree), &spec, &mut rows);
        }
    }

    print_table(
        "E7: throughput vs threads (m = 200k prefill, u = 2^32)",
        &["mix", "structure", "threads", "ops/s", "elapsed_ms"],
        &rows,
    );
    println!(
        "expectation: lock-free structures scale with threads; the locked BTreeMap does not \
         under updates; the SkipTrie needs fewer steps per query than the log(m)-depth skiplist."
    );
    skiptrie_bench::write_json_summary("e7_throughput");
}
