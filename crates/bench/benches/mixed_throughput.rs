//! Criterion benchmark mirroring experiment E7: multi-threaded mixed-workload
//! throughput of the SkipTrie versus the baselines. Criterion measures the wall-clock
//! time of a fixed batch of operations split across worker threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_baselines::{FullSkipList, LockedBTreeMap};
use skiptrie_bench::{prefill, OrderedKv};
use skiptrie_workloads::{KeyDist, Op, OpMix, WorkloadSpec};

const OPS_PER_THREAD: usize = 20_000;

fn run_batch(map: &dyn OrderedKv<u64>, streams: &[Vec<Op>]) {
    std::thread::scope(|scope| {
        for ops in streams {
            scope.spawn(move || {
                for &op in ops {
                    skiptrie_bench::apply_op(map, op);
                }
            });
        }
    });
}

fn bench_mix(c: &mut Criterion, group_name: &str, mix: OpMix) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    let spec = WorkloadSpec {
        universe_bits: 32,
        prefill: 100_000,
        ops_per_thread: OPS_PER_THREAD,
        threads,
        dist: KeyDist::Uniform,
        mix,
        seed: 0xbead,
    };
    let keys = spec.prefill_keys();
    let streams: Vec<Vec<Op>> = (0..threads).map(|t| spec.thread_ops(t)).collect();

    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    group.throughput(Throughput::Elements((OPS_PER_THREAD * threads) as u64));

    let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(32));
    prefill(&trie, &keys);
    group.bench_with_input(BenchmarkId::new("skiptrie", threads), &threads, |b, _| {
        b.iter(|| run_batch(&trie, &streams))
    });

    let skiplist: FullSkipList<u64> = FullSkipList::new();
    prefill(&skiplist, &keys);
    group.bench_with_input(
        BenchmarkId::new("lockfree-skiplist", threads),
        &threads,
        |b, _| b.iter(|| run_batch(&skiplist, &streams)),
    );

    let btree: LockedBTreeMap<u64> = LockedBTreeMap::new();
    prefill(&btree, &keys);
    group.bench_with_input(
        BenchmarkId::new("locked-btreemap", threads),
        &threads,
        |b, _| b.iter(|| run_batch(&btree, &streams)),
    );
    group.finish();
}

fn bench_read_heavy(c: &mut Criterion) {
    bench_mix(c, "mixed_read_heavy_90_9_1", OpMix::READ_HEAVY);
}

fn bench_update_heavy(c: &mut Criterion) {
    bench_mix(c, "mixed_update_heavy_50_25_25", OpMix::UPDATE_HEAVY);
}

criterion_group!(benches, bench_read_heavy, bench_update_heavy);
criterion_main!(benches);
