//! A multi-threaded mixed workload with live step accounting.
//!
//! Run with:
//!
//! ```text
//! cargo run --example concurrent_workload --release -- [threads]
//! ```
//!
//! Spawns worker threads that hammer one shared SkipTrie with a 90/9/1
//! read/insert/remove mix (the read-heavy mix of the `sweep` experiment) and prints
//! throughput plus the per-operation step counts that the paper's Theorem 4.3 bounds
//! by `O(log log u + c)`.

use skiptrie_suite::metrics::{self as metrics, Counter};
use skiptrie_suite::skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_suite::workloads::{KeyDist, OpMix, WorkloadSpec};

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });

    let spec = WorkloadSpec {
        universe_bits: 32,
        prefill: 200_000,
        ops_per_thread: 200_000,
        threads,
        dist: KeyDist::Uniform,
        mix: OpMix::READ_HEAVY,
        seed: 0xC0FFEE,
    };

    let trie: SkipTrie<u64> = SkipTrie::new(SkipTrieConfig::for_universe_bits(spec.universe_bits));
    println!("prefilling {} keys ...", spec.prefill);
    for k in spec.prefill_keys() {
        trie.insert(k, k);
    }

    println!(
        "running {} threads x {} ops (90% predecessor / 9% insert / 1% remove) ...",
        spec.threads, spec.ops_per_thread
    );
    metrics::set_enabled(true);
    let before = metrics::snapshot();
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..spec.threads {
            let trie = &trie;
            let ops = spec.thread_ops(t);
            scope.spawn(move || {
                for op in ops {
                    match op {
                        skiptrie_suite::workloads::Op::Insert(k) => {
                            trie.insert(k, k);
                        }
                        skiptrie_suite::workloads::Op::Remove(k) => {
                            trie.remove(k);
                        }
                        skiptrie_suite::workloads::Op::Predecessor(k) => {
                            trie.predecessor(k);
                        }
                        skiptrie_suite::workloads::Op::Scan { from, limit } => {
                            // READ_HEAVY generates no scans; exhaustive for mix swaps.
                            trie.range(from..).count_up_to(limit);
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let delta = metrics::snapshot().since(&before);
    metrics::set_enabled(false);

    let total_ops = spec.total_ops() as f64;
    println!("\n== results ==");
    println!("elapsed:                {elapsed:?}");
    println!(
        "throughput:             {:.2} Mops/s",
        total_ops / elapsed.as_secs_f64() / 1e6
    );
    println!("keys now stored:        {}", trie.len());
    println!(
        "traversal steps/op:     {:.2}  (log log u = {} levels + trie probes)",
        delta.traversal_steps() as f64 / total_ops,
        trie.level_lengths().len()
    );
    println!(
        "hash probes/op:         {:.2}",
        delta.get(Counter::HashOp) as f64 / total_ops
    );
    println!(
        "CAS+DCSS attempts/op:   {:.3}",
        delta.update_steps() as f64 / total_ops
    );
    println!(
        "contention steps/op:    {:.3}  (failed CAS/DCSS, helping, restarts — the paper's +c)",
        delta.contention_steps() as f64 / total_ops
    );
}
