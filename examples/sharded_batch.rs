//! Sharded forest quickstart: partitioned SkipTries with batched operations.
//!
//! Run with:
//!
//! ```text
//! cargo run --example sharded_batch --release
//! ```
//!
//! A telemetry-ingestion sketch: timestamped readings arrive in bursts (batches),
//! land in a [`ShardedSkipTrie`] keyed by timestamp — the top key bits route each
//! burst to per-epoch/per-pool shards — and are consumed by cross-shard window
//! scans and an ordered drain. Demonstrates `insert_batch` / `get_batch` /
//! `remove_batch` (the batch forms of [`OrderedKv`]), cross-shard `predecessor`
//! / `range` / `pop_first`, and the shard-load diagnostics.

use skiptrie_suite::skiptrie::{OrderedKv, ShardedSkipTrie, ShardedSkipTrieConfig};
use skiptrie_suite::workloads::SplitMix64;

fn main() {
    // 8 independent SkipTries over a 32-bit timestamp universe: each shard owns a
    // 2^29-tick slice, with its own node pool and epoch domain.
    let store: ShardedSkipTrie<u64> =
        ShardedSkipTrie::new(ShardedSkipTrieConfig::for_universe_bits(32).with_shards(8));
    println!(
        "== a forest of {} shards over a {}-bit universe ==",
        store.shard_count(),
        store.universe_bits()
    );

    // Bursts of readings: a batch sorts its keys and inserts them one at a time,
    // so each shard's readings arrive together, in key order.
    let mut rng = SplitMix64::new(0xDA7A);
    let mut total = 0usize;
    for burst in 0..32 {
        let batch: Vec<(u64, u64)> = (0..256)
            .map(|_| {
                let ts = rng.next() & 0xffff_ffff;
                (ts, ts ^ burst)
            })
            .collect();
        total += store.insert_batch(&batch);
    }
    println!("ingested {total} readings in 32 batched bursts of 256");
    println!("shard load (keys per shard): {:?}", store.shard_lens());

    // Batched lookups return values in input order.
    let probe: Vec<u64> = store.keys().into_iter().step_by(997).take(5).collect();
    let found = store.get_batch(&probe);
    println!("probe {probe:?} -> {} hits", found.iter().flatten().count());
    assert!(found.iter().all(|v| v.is_some()));

    // Cross-shard ordered queries: the window and the predecessor both straddle
    // shard boundaries transparently.
    let boundary = 1u64 << 29; // first shard boundary
    let near = store.count_range(boundary - (1 << 20)..boundary + (1 << 20));
    println!("readings within ±2^20 ticks of the first shard boundary: {near}");
    let (ts, _) = store
        .predecessor(boundary)
        .expect("something precedes the boundary");
    println!("latest reading at or before the boundary: ts={ts}");

    // Ordered drain of the earliest readings (extract-min across shards).
    print!("draining the 5 earliest readings:");
    for _ in 0..5 {
        let (ts, _) = store.pop_first().expect("store is not empty");
        print!(" {ts}");
    }
    println!();

    // Bulk eviction of an old window: collect keys below a cutoff, remove as one
    // batch (sorted, one point removal per key).
    let cutoff = 1u64 << 30;
    let old: Vec<u64> = store.range(..cutoff).map(|(k, _)| k).collect();
    let evicted = store.remove_batch(&old);
    println!("evicted {evicted} readings below ts={cutoff}");
    assert_eq!(store.count_range(..cutoff), 0);
    println!("{} readings remain", store.len());
}
