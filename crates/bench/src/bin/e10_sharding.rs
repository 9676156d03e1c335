//! Experiment E10 — sharding and batching: breaking the single-structure wall.
//!
//! Theorem 4.3's `O(log log u + c)` bound is per structure; at production thread
//! counts the residual cost is the `+ c` term plus the cache traffic of *one* shared
//! trie root, node pool, and epoch domain. The sharded forest
//! ([`skiptrie::ShardedSkipTrie`]) splits the universe across `S` SkipTries by the
//! top key bits — per-shard pools and epoch domains — and adds batched entry points
//! that execute each shard's group under one pin with threaded predecessor hints.
//!
//! Three tables:
//!
//! * **E10a** — mixed 50/25/25 (UPDATE_HEAVY, uniform keys) throughput versus shard
//!   count `S ∈ {1, 2, 4, 8, 16}` across a thread ladder. The headline (acceptance
//!   criterion) compares `S = 8` against the plain `S = 1` SkipTrie at 8 threads.
//! * **E10b** — batched versus one-at-a-time execution, single-threaded, per batch
//!   size: the same insert/get/remove stream through `insert_batch`/`get_batch`/
//!   `remove_batch` versus the loop of point calls, plus an `unbatched-sorted`
//!   diagnostic row (the point-call loop over a globally key-sorted stream — the
//!   locality ceiling batching converges to). Batching pays through sorted-order
//!   key locality, so tiny batches of uniform keys are a wash and the win grows
//!   with batch size; the headline (acceptance criterion: batched inserts beat
//!   unbatched) is taken at the largest batch of the sweep.
//! * **E10c** — the shard-skew axis ([`KeyDist::ShardSkewedZipf`]): as `theta`
//!   rises, traffic concentrates onto one shard and the sharded forest degrades
//!   back toward the single trie — measuring (not assuming) that E10a's win is
//!   contention collapse, not an artifact.
//!
//! Caveat for single-core hosts (like the committed-numbers box): threads
//! time-share, so cross-thread cache contention is muted and the S-sweep
//! understates multi-core gains; the batching table (E10b) is unaffected.

use skiptrie::{ShardedSkipTrie, ShardedSkipTrieConfig, SkipTrie, SkipTrieConfig};
use skiptrie_bench::{
    max_threads, prefill, print_table, run_throughput, scaled, write_json_summary, Named, OrderedKv,
};
use skiptrie_metrics::Stopwatch;
use skiptrie_workloads::{harness, KeyDist, OpMix, SplitMix64, WorkloadSpec};

const UNIVERSE_BITS: u32 = 32;

fn forest(shards: usize) -> ShardedSkipTrie<u64> {
    ShardedSkipTrie::new(
        ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_shards(shards),
    )
}

/// Thread ladder for the sharding sweep: powers of two up to
/// `max(8, SKIPTRIE_MAX_THREADS)`. The acceptance headline is taken at 8 threads
/// even on narrower hosts (threads then time-share).
fn thread_ladder() -> Vec<usize> {
    let top = max_threads().max(8);
    let mut out = vec![1usize];
    while *out.last().unwrap() * 2 <= top {
        out.push(out.last().unwrap() * 2);
    }
    out
}

/// E10a: UPDATE_HEAVY throughput vs shard count and thread count.
fn shard_sweep(prefill_m: usize) {
    let shard_counts = [1usize, 2, 4, 8, 16];
    let mut rows = Vec::new();
    let mut headline: Option<(f64, f64)> = None; // (S=1 trie, S=8 forest) at 8 threads
    for threads in thread_ladder() {
        let spec = WorkloadSpec {
            universe_bits: UNIVERSE_BITS,
            prefill: prefill_m,
            ops_per_thread: scaled(20_000),
            threads,
            dist: KeyDist::Uniform,
            mix: OpMix::UPDATE_HEAVY,
            seed: 0xE10A,
        };
        let keys = spec.prefill_keys();
        let mut row = vec![threads.to_string()];

        // The un-sharded reference: the plain SkipTrie (not a 1-shard forest), so
        // the headline compares against exactly the structure earlier PRs shipped.
        let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
        prefill(&trie, &keys);
        let base = run_throughput(&trie, &spec).ops_per_sec;
        row.push(format!("{:.0}", base / 1_000.0));

        for &s in &shard_counts {
            let f = forest(s);
            prefill(&f, &keys);
            let ops = run_throughput(&f, &spec).ops_per_sec;
            row.push(format!("{:.0}", ops / 1_000.0));
            if threads == 8 && s == 8 {
                headline = Some((base, ops));
            }
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("threads".to_string())
        .chain(std::iter::once("skiptrie".to_string()))
        .chain(shard_counts.iter().map(|s| format!("forest_S{s}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    print_table(
        "E10a: mixed 50/25/25 throughput (kops/s) vs shard count (uniform keys, u = 2^32)",
        &header_refs,
        &rows,
    );
    if let Some((base, sharded)) = headline {
        println!(
            "headline: S=8 forest vs S=1 skiptrie at 8 threads: {:.2}x (acceptance floor: 2x \
             on multi-core hosts; single-core hosts time-share and understate this)",
            sharded / base.max(f64::EPSILON)
        );
    }
    println!();
}

/// Batch-size sentinel for the `unbatched-sorted` diagnostic row: the point-call
/// loop over a **globally key-sorted** copy of the stream (sorting excluded from
/// the stopwatch) — the locality ceiling batched execution converges to.
const SORTED_LOOP: usize = 0;

/// The shared E10b timing harness: runs `items` through `point` one at a time
/// (over a pre-sorted copy for [`SORTED_LOOP`], with the sort excluded from the
/// stopwatch) or through `batched` in chunks of `batch`; returns ns/op. One body
/// so every mode shares the identical timing protocol.
fn timed<T: Clone>(
    items: &[T],
    batch: usize,
    sort: impl Fn(&mut Vec<T>),
    point: impl Fn(&T),
    batched: impl Fn(&[T]),
) -> f64 {
    let sorted = (batch == SORTED_LOOP).then(|| {
        let mut s = items.to_vec();
        sort(&mut s);
        s
    });
    let sw = Stopwatch::start();
    match batch {
        SORTED_LOOP => sorted.as_deref().unwrap().iter().for_each(&point),
        1 => items.iter().for_each(&point),
        _ => items.chunks(batch).for_each(&batched),
    }
    sw.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

fn timed_insert(map: &dyn OrderedKv<u64>, entries: &[(u64, u64)], batch: usize) -> f64 {
    timed(
        entries,
        batch,
        |s| s.sort_unstable_by_key(|&(k, _)| k),
        |&(k, v)| {
            map.insert(k, v);
        },
        |c| {
            map.insert_batch(c);
        },
    )
}

fn timed_get(map: &dyn OrderedKv<u64>, keys: &[u64], batch: usize) -> f64 {
    timed(
        keys,
        batch,
        |s| s.sort_unstable(),
        |&k| {
            map.get(k);
        },
        |c| {
            map.get_batch(c);
        },
    )
}

fn timed_remove(map: &dyn OrderedKv<u64>, keys: &[u64], batch: usize) -> f64 {
    timed(
        keys,
        batch,
        |s| s.sort_unstable(),
        |&k| {
            map.remove(k);
        },
        |c| {
            map.remove_batch(c);
        },
    )
}

/// Largest batch size of the E10b sweep (and its headline row): big enough that
/// sorting a uniform batch creates real key-locality against a ~60k-key structure.
const BIG_BATCH: usize = 4096;

/// E10b: batched vs one-at-a-time, single-threaded.
fn batched_vs_unbatched(n: usize) {
    let mut rng = SplitMix64::new(0xE10B);
    let mask = (1u64 << UNIVERSE_BITS) - 1;
    let entries: Vec<(u64, u64)> = (0..n).map(|_| (rng.next() & mask, rng.next())).collect();
    let keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();

    let mut rows = Vec::new();
    let mut unbatched_ins: Option<f64> = None;
    let mut batch_big_ins: Option<f64> = None;
    for &batch in &[SORTED_LOOP, 1, 64, 512, BIG_BATCH] {
        let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
        let f8 = forest(8);
        let btree = skiptrie_baselines::LockedBTreeMap::new();
        let structures: [Named<'_>; 3] = [
            ("skiptrie", &trie),
            ("sharded-skiptrie", &f8),
            ("locked-btreemap", &btree),
        ];
        let mut row = vec![if batch == SORTED_LOOP {
            "unbatched-sorted".to_string()
        } else if batch == 1 {
            "unbatched".to_string()
        } else {
            format!("batch={batch}")
        }];
        for (name, s) in structures {
            let ins = timed_insert(s, &entries, batch);
            let get = timed_get(s, &keys, batch);
            let rem = timed_remove(s, &keys, batch);
            assert!(s.is_empty(), "{name}: remove pass must drain");
            row.push(format!("{ins:.0}"));
            row.push(format!("{get:.0}"));
            row.push(format!("{rem:.0}"));
            if name == "skiptrie" {
                if batch == 1 {
                    unbatched_ins = Some(ins);
                } else if batch == BIG_BATCH {
                    batch_big_ins = Some(ins);
                }
            }
        }
        rows.push(row);
    }
    print_table(
        "E10b: batched vs one-at-a-time ns/op, single-threaded (insert/get/remove per structure)",
        &[
            "mode",
            "skiptrie_ins",
            "skiptrie_get",
            "skiptrie_rem",
            "forest8_ins",
            "forest8_get",
            "forest8_rem",
            "btree_ins",
            "btree_get",
            "btree_rem",
        ],
        &rows,
    );
    if let (Some(unbatched), Some(batched)) = (unbatched_ins, batch_big_ins) {
        println!(
            "headline: skiptrie batched (batch={BIG_BATCH}) insert speedup over unbatched: \
             {:.2}x (acceptance floor: >1x)",
            unbatched / batched.max(f64::EPSILON)
        );
    }
    println!();
}

/// E10c: contention collapse under shard skew — S=1 vs S=8 as theta rises.
fn skewed_contention(prefill_m: usize) {
    let shards = harness::shards(8);
    let threads = thread_ladder().into_iter().max().unwrap().min(8);
    let mut rows = Vec::new();
    for &theta in &[0.0f64, 0.6, 0.99] {
        let spec = WorkloadSpec {
            universe_bits: UNIVERSE_BITS,
            prefill: prefill_m,
            ops_per_thread: scaled(20_000),
            threads,
            dist: KeyDist::ShardSkewedZipf {
                shards: shards as u64,
                theta,
            },
            mix: OpMix::UPDATE_HEAVY,
            seed: 0xE10C,
        };
        let keys = spec.prefill_keys();
        let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
        prefill(&trie, &keys);
        let base = run_throughput(&trie, &spec).ops_per_sec;
        let f = forest(shards);
        prefill(&f, &keys);
        let sharded = run_throughput(&f, &spec).ops_per_sec;
        rows.push(vec![
            format!("{theta:.2}"),
            format!("{:.0}", base / 1_000.0),
            format!("{:.0}", sharded / 1_000.0),
            format!("{:.2}", sharded / base.max(f64::EPSILON)),
        ]);
    }
    print_table(
        &format!(
            "E10c: shard-skewed Zipf (S={shards}, {threads} threads): forest advantage vs skew"
        ),
        &["theta", "skiptrie_kops", "forest_kops", "forest/skiptrie"],
        &rows,
    );
    println!(
        "expectation: the forest/skiptrie ratio falls as theta rises — the sharding win is \
         contention collapse, so concentrating traffic onto one shard must take it away."
    );
    println!();
}

fn main() {
    // SKIPTRIE_E10_SECTIONS=abc (default) selects which tables run — handy for
    // iterating on one table without paying for the full sweep.
    let sections = std::env::var("SKIPTRIE_E10_SECTIONS").unwrap_or_else(|_| "abc".to_string());
    if sections.contains('a') {
        shard_sweep(scaled(100_000));
    }
    if sections.contains('b') {
        batched_vs_unbatched(scaled(60_000));
    }
    if sections.contains('c') {
        skewed_contention(scaled(50_000));
    }
    write_json_summary("e10_sharding");
}
