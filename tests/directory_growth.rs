//! Concurrent growth stress for the growable hash directory (the segment tree of
//! `skiptrie_splitorder`): writers force repeated root growth while readers probe
//! keys that are present for the whole run, at the map level and through the
//! SkipTrie's `LowestAncestor` path.

use std::sync::atomic::{AtomicUsize, Ordering};

use skiptrie_suite::metrics::{self, Counter};
use skiptrie_suite::skiptrie::{DirectoryConfig, SkipTrie, SkipTrieConfig};
use skiptrie_suite::splitorder::SplitOrderedMap;
use skiptrie_suite::workloads::harness::{scaled, Workload};

/// A small fanout (16 slots per node) puts root growth within stress-test reach:
/// the tree must climb 16 -> 256 -> 4096 -> 65536 bucket capacities during the run.
fn growable() -> DirectoryConfig {
    DirectoryConfig::default().with_segment_bits(4)
}

/// `metrics::measure` restores the process-wide recording flag when it ends,
/// which switches recording off under any other `measure` still running.
static MEASURING: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn concurrent_map_growth_never_loses_a_key() {
    let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory(growable());
    let stable = 512u64;
    for k in 0..stable {
        assert!(map.insert(k, k * 3));
    }
    assert_eq!(
        map.directory_height(),
        2,
        "512 stable keys want 256 buckets: one growth already, the rest mid-run"
    );

    let writers = 4usize;
    let per_writer = scaled(20_000) as u64;
    let writers_done = AtomicUsize::new(0);
    let start_height = map.directory_height();
    let _measuring = MEASURING.lock().unwrap();
    let ((), delta) = metrics::measure(|| {
        Workload::new(0xd1)
            .workers(writers, |ctx| {
                let t = ctx.index as u64;
                // Monotonically spreading keys: each writer walks its own stride
                // upward so the live key range keeps widening past every capacity
                // the directory had when the run started.
                for i in 0..per_writer {
                    let key = stable + (i * writers as u64 + t);
                    assert!(map.insert(key, key + 1), "key {key} inserted once");
                }
                writers_done.fetch_add(1, Ordering::SeqCst);
            })
            .workers(3, |_| {
                // Readers: every stable key must be found on every pass, no matter
                // how many root growths happen mid-probe.
                loop {
                    for k in 0..stable {
                        assert_eq!(map.get(&k), Some(k * 3), "stable key {k} lost");
                    }
                    if writers_done.load(Ordering::SeqCst) == writers {
                        break;
                    }
                }
            })
            .run();
    });

    // Quiesce: nothing written during the run may be missing.
    for key in stable..stable + writers as u64 * per_writer {
        assert_eq!(map.get(&key), Some(key + 1), "writer key {key} lost");
    }
    assert_eq!(map.len() as u64, stable + writers as u64 * per_writer);
    assert!(
        map.directory_height() >= 4,
        "the run must have forced repeated root growth, height {}",
        map.directory_height()
    );
    assert!(map.bucket_count() > 4096);
    assert!(
        delta.get(Counter::DirGrow) >= u64::from(map.directory_height() - start_height),
        "every level gained during the run came from a successful grow CAS"
    );
}

#[test]
fn trie_probes_stay_correct_while_the_prefix_directory_grows() {
    let config = SkipTrieConfig::for_universe_bits(32)
        .with_seed(0xd1)
        .with_hash_directory(growable());
    let trie: SkipTrie<u64> = SkipTrie::new(config);

    // Stable keys, spread across the universe, present for the whole run. Inserts
    // are insert-if-absent, so their values survive any racing writer collision.
    let stable: Vec<u64> = (1..=256u64).map(|k| k * 16_711_935).collect();
    for &k in &stable {
        assert!(trie.insert(k, k ^ 0xabcd));
    }

    let writers = 3usize;
    let per_writer = scaled(6_000) as u64;
    let writers_done = AtomicUsize::new(0);
    Workload::new(0xd2)
        .workers(writers, |ctx| {
            let t = ctx.index as u64;
            // Bijective odd-multiplier spreading over the 32-bit universe: the
            // published prefix set keeps widening, forcing the prefix table
            // through several doublings and the directory through root growth.
            for i in 0..per_writer {
                let key = ((i * writers as u64 + t).wrapping_mul(0x9E37_79B9)) & 0xFFFF_FFFF;
                trie.insert(key, key);
            }
            writers_done.fetch_add(1, Ordering::SeqCst);
        })
        .workers(2, |_| loop {
            for (idx, &k) in stable.iter().enumerate() {
                assert_eq!(trie.get(k), Some(k ^ 0xabcd), "stable key {k} lost");
                // Keys are only ever inserted, so predecessor(k + 1) is k
                // itself or something between k and the next stable key.
                let (pk, _) = trie
                    .predecessor(k + 1)
                    .expect("a stable key bounds the query from below");
                assert!(pk <= k + 1);
                assert!(
                    pk >= stable[idx],
                    "predecessor went below a key present all run"
                );
            }
            if writers_done.load(Ordering::SeqCst) == writers {
                break;
            }
        })
        .run();

    for &k in &stable {
        assert_eq!(trie.get(k), Some(k ^ 0xabcd));
    }
    for t in 0..writers as u64 {
        for i in 0..per_writer {
            let key = (i * writers as u64 + t).wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF;
            assert!(trie.get(key).is_some(), "writer key {key} lost");
        }
    }
    assert!(
        trie.prefix_directory_height() >= 3,
        "published prefixes must outgrow two tree capacities, height {}",
        trie.prefix_directory_height()
    );
    assert!(trie.check_trie_integrity() > 0, "quiescent audit");
}

#[test]
fn dropping_a_grown_map_frees_every_tree_level() {
    let _measuring = MEASURING.lock().unwrap();
    let ((), _) = metrics::measure(|| {
        let map: SplitOrderedMap<u64, u64> = SplitOrderedMap::with_directory(growable());
        for i in 0..scaled(30_000) as u64 {
            map.insert(i, i);
        }
        assert!(map.directory_height() >= 4);
        let nodes = map.directory_node_count() as u64;
        assert!(
            nodes > 1 + 16,
            "a grown tree has interior nodes on every level"
        );
        let before = metrics::snapshot();
        drop(map);
        let freed = metrics::snapshot().since(&before);
        assert!(
            freed.get(Counter::DirNodeFreed) >= nodes,
            "drop must free all {nodes} directory nodes, freed {}",
            freed.get(Counter::DirNodeFreed)
        );
    });
}
