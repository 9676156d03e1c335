//! Fixed probes of each layer's public functions. They are the same on every
//! workload: small single-thread measurements on structures of their own,
//! each reported as the median over batches of the mean time per call.

use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use skiptrie::{
    ShardedSkipTrie, SkipList, SkipListConfig, SkipTrie, TieredSkipTrie, TieredSkipTrieConfig,
};
use skiptrie_atomics::dcss::{cas_resolved, dcss, DcssMode};
use skiptrie_atomics::pin_domain;
use skiptrie_metrics::{Counter, Histogram, LatencyClasses};
use skiptrie_service::{Request, Service, ServiceConfig, Spsc, Verb};
use skiptrie_splitorder::SplitOrderedMap;
use skiptrie_workloads::SplitMix64;

use crate::direct::{self, SlicePlan, SCAN_LIMIT};
use crate::gen::{key, prefill_entries, prefilled, OpGen, UNIVERSE_BITS};
use crate::report::Readings;
use crate::stats::{self, Summary, P50, P99};
use crate::workloads::{forest_config, trie_config, TRIE_CHURN, TRIE_DOMAIN};
use crate::Opts;

/// Calls per timed batch.
const BATCH: usize = 1_000;
const SKIPLIST_KEYS: u64 = 4_096;
const SKIPLIST_DOMAIN: usize = TRIE_DOMAIN + 1;
const SPLITORDER_DOMAIN: usize = TRIE_DOMAIN + 2;
const TIERED_DOMAIN: usize = TRIE_DOMAIN + 3;
const SCRATCH_DOMAIN: usize = TRIE_DOMAIN + 4;
/// Working set of the tiered probe: 262 144 frozen keys.
const TIERED_W: u64 = 1 << 19;
/// Un-merged writes of the "dirty" tiered probes; twice that many are folded
/// by the merge probe.
const DIRTY_WRITES: u64 = 2_048;
/// Calls whose counter deltas are taken one by one.
const COUNTED_CALLS: usize = 20_000;

/// Runs `call(i)` in batches of `BATCH` until `budget` is spent (at least five
/// batches) and summarises the batches' mean ns per call.
fn ns_per_call(budget: Duration, mut call: impl FnMut(usize)) -> Summary {
    let started = Instant::now();
    let mut per_batch = Vec::new();
    let mut i = 0;
    while per_batch.len() < 5 || started.elapsed() < budget {
        let batch = Instant::now();
        for _ in 0..BATCH {
            call(i);
            i += 1;
        }
        per_batch.push(batch.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    stats::summarize(&per_batch).expect("at least five batches")
}

/// Insert and remove probes share one loop so the population stays put: each
/// round inserts a batch of absent indices, then removes the same batch.
fn insert_remove_ns(
    budget: Duration,
    absent: impl Fn(usize) -> u64,
    mut insert: impl FnMut(u64),
    mut remove: impl FnMut(u64),
) -> (Summary, Summary) {
    let started = Instant::now();
    let (mut inserts, mut removes) = (Vec::new(), Vec::new());
    let mut round = 0;
    while inserts.len() < 5 || started.elapsed() < budget {
        let batch: Vec<u64> = (0..BATCH).map(|j| absent(round * BATCH + j)).collect();
        let t = Instant::now();
        batch.iter().for_each(|&i| insert(i));
        inserts.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        let t = Instant::now();
        batch.iter().for_each(|&i| remove(i));
        removes.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        round += 1;
    }
    (
        stats::summarize(&inserts).expect("at least five rounds"),
        stats::summarize(&removes).expect("at least five rounds"),
    )
}

/// A `SkipTrie` built and aged exactly like `trie_churn`'s: same working set,
/// same warm-up operation count, streams from `seed`.
pub fn aged_trie(opts: &Opts) -> SkipTrie<u64> {
    let spec = opts.scaled(&TRIE_CHURN);
    let trie = SkipTrie::from_sorted(trie_config(), prefill_entries(spec.w));
    direct::run(&trie, &spec, opts.seed, &[] as &[SlicePlan], || {});
    trie
}

/// Per-call deltas of each of `counters` over `COUNTED_CALLS` calls, each
/// list ascending.
fn counted<const N: usize>(counters: [Counter; N], mut call: impl FnMut(usize)) -> [Vec<u32>; N] {
    let mut deltas: [Vec<u32>; N] = std::array::from_fn(|_| Vec::with_capacity(COUNTED_CALLS));
    for i in 0..COUNTED_CALLS {
        let before = skiptrie_metrics::snapshot();
        call(i);
        let delta = skiptrie_metrics::snapshot().since(&before);
        for (list, counter) in deltas.iter_mut().zip(counters) {
            list.push(delta.get(counter) as u32);
        }
    }
    deltas.iter_mut().for_each(|list| list.sort_unstable());
    deltas
}

fn mean(values: &[u32]) -> f64 {
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len().max(1) as f64
}

/// `trie.*`: single-thread calls on an aged trie. An index of the working set
/// is absent or present by chance, as under the workload; the insert/remove
/// probe uses indices beyond the working set, which are always absent.
fn trie(readings: &mut Readings, trie: &SkipTrie<u64>, w: u64, budget: Duration, seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut draw = || rng.next();
    readings.put(
        "trie.pred_ns",
        ns_per_call(budget, |_| {
            std::hint::black_box(trie.predecessor(draw() >> 32));
        }),
    );
    readings.put(
        "trie.get_ns",
        ns_per_call(budget, |_| {
            std::hint::black_box(trie.get(key(draw() % w)));
        }),
    );
    let (insert, remove) = insert_remove_ns(
        budget,
        |j| w + j as u64,
        |i| {
            std::hint::black_box(trie.insert(key(i), i));
        },
        |i| {
            std::hint::black_box(trie.remove(key(i)));
        },
    );
    readings.put("trie.insert_ns", insert);
    readings.put("trie.remove_ns", remove);

    skiptrie_metrics::set_enabled(true);
    let [reads, probes] = counted([Counter::PtrRead, Counter::HashOp], |_| {
        std::hint::black_box(trie.predecessor(draw() >> 32));
    });
    skiptrie_metrics::set_enabled(false);
    let at = |q| stats::quantile(&reads, q).expect("counted calls support a p99");
    readings.put_value("trie.ptr_reads_per_pred_p50", at(P50));
    readings.put_value("trie.ptr_reads_per_pred_mean", mean(&reads));
    readings.put_value("trie.ptr_reads_per_pred_p99", at(P99));
    readings.put_value("trie.hash_probes_per_pred", mean(&probes));
}

/// `splitorder.*`: a map holding as many entries as the aged trie has prefixes.
fn splitorder(readings: &mut Readings, entries: u64, budget: Duration) {
    let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory_in_domain(
        Default::default(),
        Some(SPLITORDER_DOMAIN),
        Default::default(),
    );
    for i in 0..entries {
        map.insert(key(i), i);
    }
    let mut rng = SplitMix64::new(entries);
    readings.put(
        "splitorder.get_ns",
        ns_per_call(budget, |_| {
            std::hint::black_box(map.get(&key(rng.next() % entries)));
        }),
    );
    let (insert, remove) = insert_remove_ns(
        budget,
        |j| entries + j as u64,
        |i| {
            std::hint::black_box(map.insert(key(i), i));
        },
        |i| {
            std::hint::black_box(map.remove(&key(i)));
        },
    );
    readings.put("splitorder.insert_ns", insert);
    readings.put("splitorder.remove_ns", remove);
}

/// `skiplist.*`: the truncated skiplist alone, small enough to sit in cache, so
/// time over pointer reads is the cost of one hop.
fn skiplist(readings: &mut Readings, budget: Duration) {
    let config = SkipListConfig::for_universe_bits(UNIVERSE_BITS).with_domain(SKIPLIST_DOMAIN);
    let list: SkipList<u64> = SkipList::new(config);
    for i in 0..SKIPLIST_KEYS {
        list.insert(key(i), i);
    }
    let mut rng = SplitMix64::new(SKIPLIST_KEYS);
    let mut draw = || rng.next() >> 32;
    readings.put(
        "skiplist.pred_ns",
        ns_per_call(budget, |_| {
            std::hint::black_box(list.predecessor(draw()));
        }),
    );
    let (insert, remove) = insert_remove_ns(
        budget,
        |j| SKIPLIST_KEYS + j as u64,
        |i| {
            std::hint::black_box(list.insert(key(i), i));
        },
        |i| {
            std::hint::black_box(list.remove(key(i)));
        },
    );
    readings.put("skiplist.insert_ns", insert);
    readings.put("skiplist.remove_ns", remove);
    skiptrie_metrics::set_enabled(true);
    let before = skiptrie_metrics::snapshot();
    for _ in 0..COUNTED_CALLS {
        std::hint::black_box(list.predecessor(draw()));
    }
    let reads = skiptrie_metrics::snapshot()
        .since(&before)
        .get(Counter::PtrRead);
    skiptrie_metrics::set_enabled(false);
    readings.put_value(
        "skiplist.ptr_reads_per_pred",
        reads as f64 / COUNTED_CALLS as f64,
    );
}

/// `atomics.*` and `epoch.pin_ns`: uncontended conditional swings and a pin.
fn atomics(readings: &mut Readings, budget: Duration) {
    // Leaked, so the guard word outlives every descriptor that points at it.
    let target: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(8)));
    let guard_word: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    let pin = pin_domain(SCRATCH_DOMAIN);
    readings.put(
        "atomics.dcss_ns",
        ns_per_call(budget, |i| {
            let (from, to) = if i % 2 == 0 { (8, 16) } else { (16, 8) };
            // SAFETY: `guard_word` is leaked and so valid for ever; 8 and 16
            // carry no descriptor bit; `pin` is held across the call.
            let swung =
                unsafe { dcss(target, from, to, guard_word, 0, DcssMode::Descriptor, &pin) };
            std::hint::black_box(swung.is_ok());
        }),
    );
    target.store(8, std::sync::atomic::Ordering::SeqCst);
    readings.put(
        "atomics.cas_ns",
        ns_per_call(budget, |i| {
            let (from, to) = if i % 2 == 0 { (8, 16) } else { (16, 8) };
            std::hint::black_box(cas_resolved(target, from, to, &pin).is_ok());
        }),
    );
    drop(pin);
    readings.put(
        "epoch.pin_ns",
        ns_per_call(budget, |_| {
            drop(std::hint::black_box(pin_domain(SCRATCH_DOMAIN)))
        }),
    );
}

/// `tiered.*`: one `TieredSkipTrie`, first quiesced (the pin-free frozen path
/// no workload reaches while writes flow), then with un-merged writes.
fn tiered(readings: &mut Readings, budget: Duration) {
    let config = TieredSkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
        .with_trie(trie_config().with_domain(TIERED_DOMAIN));
    let tiers = TieredSkipTrie::from_sorted(config, prefill_entries(TIERED_W));
    let frozen_keys = tiers.len() as f64;
    let mut rng = SplitMix64::new(TIERED_W);
    let mut draw = || rng.next();
    let mut reads = |readings: &mut Readings, get: &'static str, pred: &'static str| {
        readings.put(
            get,
            ns_per_call(budget, |_| {
                std::hint::black_box(tiers.get(key(draw() % TIERED_W)));
            }),
        );
        readings.put(
            pred,
            ns_per_call(budget, |_| {
                std::hint::black_box(tiers.predecessor(draw() >> 32));
            }),
        );
    };
    reads(readings, "tiered.frozen_get_ns", "tiered.frozen_pred_ns");
    // Dirty the delta: flip the first indices of the working set.
    let flip = |range: std::ops::Range<u64>| {
        for i in range {
            if tiers.remove(key(i)).is_none() {
                tiers.insert(key(i), i);
            }
        }
    };
    flip(0..DIRTY_WRITES);
    reads(readings, "tiered.dirty_get_ns", "tiered.dirty_pred_ns");
    let scan = ns_per_call(budget / 4, |_| {
        let seen = tiers.range(draw() >> 32..).take(SCAN_LIMIT).count();
        std::hint::black_box(seen);
    });
    readings.put(
        "tiered.scan_ns_per_key",
        scan.scaled(1.0 / SCAN_LIMIT as f64),
    );
    // Fold twice as many delta entries, three times over.
    let merges: Vec<f64> = (0..3)
        .map(|round| {
            flip(if round == 0 {
                DIRTY_WRITES..2 * DIRTY_WRITES
            } else {
                0..2 * DIRTY_WRITES
            });
            let start = Instant::now();
            tiers.merge();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let merge = stats::summarize(&merges).expect("three merges");
    readings.put("tiered.merge_ms", merge);
    readings.put_value(
        "tiered.merge_keys_per_s",
        frozen_keys / (merge.median / 1e3),
    );
}

/// `forest.route_ns`: what the router adds to a shard's own `get`.
fn forest(readings: &mut Readings, budget: Duration) {
    let forest: ShardedSkipTrie<u64, TieredSkipTrie<u64>> =
        ShardedSkipTrie::from_sorted(forest_config(), &prefill_entries(TIERED_W));
    let keys: Vec<(usize, u64)> = (0..TIERED_W)
        .filter(|&i| prefilled(i))
        .take(BATCH * 64)
        .map(|i| (forest.shard_of(key(i)), key(i)))
        .collect();
    let routed = ns_per_call(budget, |i| {
        std::hint::black_box(forest.get(keys[i % keys.len()].1));
    });
    let direct = ns_per_call(budget, |i| {
        let (shard, key) = keys[i % keys.len()];
        std::hint::black_box(forest.shard(shard).get(key));
    });
    readings.put_value("forest.route_ns", (routed.median - direct.median).max(0.0));
}

/// `service.spsc_push_pop_ns` and `service.idle_rtt_ns`.
fn service(readings: &mut Readings, budget: Duration) {
    let ring: Spsc<u64> = Spsc::with_capacity(1024);
    readings.put(
        "service.spsc_push_pop_ns",
        ns_per_call(budget, |i| {
            ring.push(i as u64).expect("the ring is empty");
            std::hint::black_box(ring.pop());
        }),
    );
    // One request at a time to an idle service: the worker has parked, so the
    // round trip includes its wake.
    let forest = std::sync::Arc::new(ShardedSkipTrie::<u64, TieredSkipTrie<u64>>::from_sorted(
        forest_config(),
        &prefill_entries(1 << 12),
    ));
    let service = Service::new(forest, ServiceConfig::default());
    let mut conn = service.connect();
    let started = Instant::now();
    let mut trips = Vec::new();
    while trips.len() < 20 || started.elapsed() < budget {
        std::thread::sleep(Duration::from_millis(2));
        let sent = conn.now_ns();
        conn.submit(Request {
            verb: Verb::Get(key(trips.len() as u64)),
            submit_ns: sent,
        })
        .expect("an idle lane admits one request");
        while conn.poll().is_none() {
            std::hint::spin_loop();
        }
        trips.push((conn.now_ns() - sent) as f64);
    }
    readings.put(
        "service.idle_rtt_ns",
        stats::summarize(&trips).expect("at least twenty trips"),
    );
}

/// `metrics.*_record_ns` and `workloads.gen_ns_per_op`.
fn recorders(readings: &mut Readings, budget: Duration) {
    let mut histogram = Histogram::new();
    readings.put(
        "metrics.hist_record_ns",
        ns_per_call(budget, |i| histogram.record(1_000 + (i as u64 & 0xFFFF))),
    );
    std::hint::black_box(histogram.count());
    let classes = LatencyClasses::new(&["point", "ordered"]);
    readings.put(
        "metrics.latency_record_ns",
        ns_per_call(budget, |i| {
            classes.record(i & 1, 1_000 + (i as u64 & 0xFFFF))
        }),
    );
    let mut gen = OpGen::new(1, TRIE_CHURN.mix, TRIE_CHURN.w, 2, 0);
    readings.put(
        "workloads.gen_ns_per_op",
        ns_per_call(budget, |_| {
            std::hint::black_box(gen.next());
        }),
    );
}

/// Runs every probe within about `budget`. `aged` is the aged trie of a
/// `trie_churn` run, if this is one; otherwise one is built and aged here.
pub fn run(readings: &mut Readings, opts: &Opts, aged: Option<SkipTrie<u64>>, budget: Duration) {
    // Thirty-odd timed loops share the budget.
    let each = budget / 32;
    let aged = aged.unwrap_or_else(|| aged_trie(opts));
    let w = opts.scaled(&TRIE_CHURN).w;
    trie(readings, &aged, w, each, opts.seed);
    let prefixes = aged.prefix_count() as u64;
    readings.put_value(
        "splitorder.dir_height",
        aged.prefix_directory_height() as f64,
    );
    drop(aged);
    splitorder(readings, prefixes, each);
    skiplist(readings, each);
    atomics(readings, each);
    tiered(readings, each);
    forest(readings, each);
    service(readings, each);
    recorders(readings, each);

    // The budget of a predecessor: hash probes, skiplist hops and one pin
    // against the measured call; what is left is not yet attributed.
    let value = |name| readings.get(name).expect("probe ran").value;
    let hop_ns = value("skiplist.pred_ns") / value("skiplist.ptr_reads_per_pred").max(1.0);
    let attributed = value("trie.hash_probes_per_pred") * value("splitorder.get_ns")
        + value("trie.ptr_reads_per_pred_mean") * hop_ns
        + value("epoch.pin_ns");
    readings.put_value(
        "trie.pred_unattributed_frac",
        (1.0 - attributed / value("trie.pred_ns")).max(0.0),
    );
}
