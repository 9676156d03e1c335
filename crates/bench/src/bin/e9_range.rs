//! Experiment E9 — range scans and ordered drains: `O(log log u + k)` vs
//! `O(k · log log u)`.
//!
//! The paper's motivating applications (calendar/event queues, bounded-universe
//! routing tables) are *scan* workloads. Before this experiment's subsystem existed,
//! the only way to visit `k` consecutive keys was `k` chained `successor` calls, each
//! re-running the x-fast binary search and the skiplist descent. The cursor walks the
//! level-0 linked list instead: one seeded descent, then one hop per key.
//!
//! Three tables:
//!
//! * **E9a** — ns per visited key for a scan of `k` keys versus `k` chained
//!   `successor` calls, for the SkipTrie and both concurrent baselines. The headline
//!   ratio (`succ/scan` for the SkipTrie at `k = 100`) is the PR's acceptance
//!   criterion (`>= 5x`).
//! * **E9b** — ordered drain: `pop_first` until empty versus the hand-rolled
//!   `successor`-then-`remove` loop the event-scheduler example used to carry.
//! * **E9c** — mixed scan-heavy throughput (the `SCAN_HEAVY` workload family) across
//!   structures and thread counts.

use skiptrie::{SkipTrie, SkipTrieConfig};
use skiptrie_baselines::{FullSkipList, LockedBTreeMap};
use skiptrie_bench::{
    prefill, print_table, run_throughput, scaled, thread_sweep, write_json_summary, Named,
    OrderedKv,
};
use skiptrie_metrics::Stopwatch;
use skiptrie_workloads::{KeyDist, OpMix, SplitMix64, WorkloadSpec};

const UNIVERSE_BITS: u32 = 32;
/// Largest key of the universe: chains must stop here, not at `u64` overflow —
/// querying `successor(MAX_KEY + 1)` would trip the SkipTrie's universe assert.
const MAX_KEY: u64 = (1 << UNIVERSE_BITS) - 1;

/// `k` chained successor calls starting at `from` (the pre-cursor formulation of a
/// scan); returns the number of keys visited.
fn successor_chain(map: &dyn OrderedKv<u64>, from: u64, k: usize) -> usize {
    let mut cur = from;
    let mut seen = 0usize;
    while seen < k {
        match map.successor(cur) {
            Some((key, _)) => {
                seen += 1;
                if key >= MAX_KEY {
                    break;
                }
                cur = key + 1;
            }
            None => break,
        }
    }
    seen
}

/// The three structures every E9 table compares, under their table names.
fn named<'a>(
    trie: &'a SkipTrie<u64>,
    skiplist: &'a FullSkipList<u64>,
    btree: &'a LockedBTreeMap<u64>,
) -> [Named<'a>; 3] {
    [
        ("skiptrie", trie),
        ("lockfree-skiplist", skiplist),
        ("locked-btreemap", btree),
    ]
}

fn ns_per_key(total_ns: u128, keys: u64) -> f64 {
    total_ns as f64 / keys.max(1) as f64
}

fn scan_vs_successor(structures: &[Named<'_>]) {
    let reps = scaled(400);
    let mut rows = Vec::new();
    let mut headline_ratio = 0.0f64;
    for &k in &[10usize, 100, 1_000] {
        let mut row = vec![k.to_string()];
        for &(name, s) in structures {
            let mut rng = SplitMix64::new(0xE9A ^ k as u64);
            let mut scanned = 0u64;
            let sw = Stopwatch::start();
            for _ in 0..reps {
                scanned += s.scan(rng.next() & 0xffff_ffff, k) as u64;
            }
            let scan_ns = ns_per_key(sw.elapsed().as_nanos(), scanned);

            let mut rng = SplitMix64::new(0xE9A ^ k as u64);
            let mut chained = 0u64;
            let sw = Stopwatch::start();
            for _ in 0..reps {
                chained += successor_chain(s, rng.next() & 0xffff_ffff, k) as u64;
            }
            let succ_ns = ns_per_key(sw.elapsed().as_nanos(), chained);

            let ratio = succ_ns / scan_ns.max(f64::EPSILON);
            if name == "skiptrie" && k == 100 {
                headline_ratio = ratio;
            }
            row.push(format!("{scan_ns:.0}"));
            row.push(format!("{succ_ns:.0}"));
            row.push(format!("{ratio:.1}"));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("k".to_string())
        .chain(structures.iter().flat_map(|(name, _)| {
            [
                format!("{name}_scan_ns/key"),
                format!("{name}_succ_ns/key"),
                format!("{name}_succ/scan"),
            ]
        }))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    print_table(
        "E9a: range scan of k keys vs k chained successor calls (u = 2^32)",
        &header_refs,
        &rows,
    );
    println!(
        "headline: skiptrie successor-chain / scan ratio at k=100 is {headline_ratio:.1}x \
         (acceptance floor: 5x)"
    );
    println!();
}

fn drain(m: usize) {
    let spec = WorkloadSpec::read_only(UNIVERSE_BITS, m, 0, 0xE9B);
    let keys = spec.prefill_keys();
    let mut rows = Vec::new();

    // pop_first drains on every structure.
    let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
    let skiplist: FullSkipList<u64> = FullSkipList::new();
    let btree: LockedBTreeMap<u64> = LockedBTreeMap::new();
    let structures = named(&trie, &skiplist, &btree);
    for (name, s) in structures {
        prefill(s, &keys);
        let sw = Stopwatch::start();
        let mut drained = 0u64;
        let mut last = None;
        while let Some((key, _)) = s.pop_first() {
            drained += 1;
            assert!(last.is_none_or(|l| l < key), "drain must be ordered");
            last = Some(key);
        }
        let ns = ns_per_key(sw.elapsed().as_nanos(), drained);
        assert_eq!(drained as usize, keys.len(), "{name} drained everything");
        rows.push(vec![
            format!("{name} pop_first"),
            drained.to_string(),
            format!("{ns:.0}"),
        ]);
    }

    // The hand-rolled successor-then-remove loop (what the event scheduler used to do).
    prefill(&trie, &keys);
    let sw = Stopwatch::start();
    let mut drained = 0u64;
    while let Some((key, _)) = trie.successor(0) {
        if trie.remove(key).is_some() {
            drained += 1;
        }
    }
    let ns = ns_per_key(sw.elapsed().as_nanos(), drained);
    rows.push(vec![
        "skiptrie successor+remove".to_string(),
        drained.to_string(),
        format!("{ns:.0}"),
    ]);

    print_table(
        "E9b: ordered drain of m events (pop_first vs hand-rolled successor+remove)",
        &["method", "events", "ns/event"],
        &rows,
    );
}

fn scan_heavy_throughput(m: usize) {
    let mut rows = Vec::new();
    for threads in thread_sweep() {
        let spec = WorkloadSpec {
            universe_bits: UNIVERSE_BITS,
            prefill: m,
            ops_per_thread: scaled(20_000),
            threads,
            dist: KeyDist::Uniform,
            mix: OpMix::SCAN_HEAVY,
            seed: 0xE9C,
        };
        let keys = spec.prefill_keys();
        let mut row = vec![threads.to_string()];
        let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
        let skiplist: FullSkipList<u64> = FullSkipList::new();
        let btree: LockedBTreeMap<u64> = LockedBTreeMap::new();
        let structures = named(&trie, &skiplist, &btree);
        for (_, s) in structures {
            prefill(s, &keys);
            let result = run_throughput(s, &spec);
            row.push(format!("{:.0}", result.ops_per_sec / 1_000.0));
        }
        rows.push(row);
    }
    print_table(
        "E9c: SCAN_HEAVY mixed throughput (kops/s; 50% scans of <=128 keys, 20/20/10 ins/rem/pred)",
        &[
            "threads",
            "skiptrie",
            "lockfree-skiplist",
            "locked-btreemap",
        ],
        &rows,
    );
}

fn main() {
    let m = scaled(100_000);
    let spec = WorkloadSpec::read_only(UNIVERSE_BITS, m, 0, 0xE9);
    let keys = spec.prefill_keys();

    let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(UNIVERSE_BITS));
    let skiplist: FullSkipList<u64> = FullSkipList::new();
    let btree: LockedBTreeMap<u64> = LockedBTreeMap::new();
    let structures = named(&trie, &skiplist, &btree);
    for (_, s) in structures {
        prefill(s, &keys);
    }
    scan_vs_successor(&structures);
    drain(scaled(50_000));
    scan_heavy_throughput(scaled(50_000));
    println!(
        "expectation: scan ns/key ~flat in k and >=5x cheaper than chained successors at k=100; \
         pop_first beats successor+remove; scan-heavy throughput favours the skiptrie."
    );
    write_json_summary("e9_range");
}
