//! Shared experiment harness for the SkipTrie reproduction.
//!
//! The paper (PODC 2013) is a theory paper: its "evaluation" is Theorem 4.3 and the
//! surrounding amortized-complexity analysis, plus two illustrative figures. This
//! crate regenerates those artefacts as *measured* experiments (see `EXPERIMENTS.md`
//! at the repository root for the mapping):
//!
//! * step-count measurements validating the `O(log log u)` vs `Θ(log m)` separation
//!   (E1, E2) and the `O(1)` amortized trie maintenance (E3);
//! * contention and throughput measurements for the `+ c` term (E4, E6, E7);
//! * space and structural statistics (E5, F1) and the transient prev-gap phenomenon of
//!   Figure 2 (F2).
//!
//! Every structure under test implements [`OrderedKv`], so the same deterministic
//! workloads ([`skiptrie_workloads`]) drive the SkipTrie and each baseline through
//! `&dyn OrderedKv<u64>`; bins pair each structure with its table name. The harness
//! prints plain tab-separated tables that `EXPERIMENTS.md` quotes directly.

#![warn(missing_docs)]

use std::time::Duration;

pub use skiptrie::OrderedKv;
use skiptrie_metrics::{self as metrics, Counter, Snapshot};
use skiptrie_workloads::{Op, WorkloadSpec};

/// A structure under test paired with the name its rows carry in result tables.
pub type Named<'a> = (&'static str, &'a dyn OrderedKv<u64>);

/// Applies one workload operation to a structure (inserts store value = key,
/// like [`prefill`]).
pub fn apply_op(map: &(impl OrderedKv<u64> + ?Sized), op: Op) {
    match op {
        Op::Insert(key) => {
            map.insert(key, key);
        }
        Op::Remove(key) => {
            map.remove(key);
        }
        Op::Predecessor(key) => {
            map.predecessor(key);
        }
        Op::Scan { from, limit } => {
            map.scan(from, limit);
        }
    }
}

/// Inserts the workload's prefill keys (value = key).
pub fn prefill(map: &(impl OrderedKv<u64> + ?Sized), keys: &[u64]) {
    for &k in keys {
        map.insert(k, k);
    }
}

/// Ages a prefilled structure in place with `ops` churn operations: alternately a
/// random live key is removed and a fresh uniform key of the universe inserted, so
/// the size stays put while the key set turns over and the removed towers' memory
/// comes back, through the pool, on other levels. `keys` is the live key set and is
/// kept current. The step-count experiments measure again afterwards: a bound that
/// holds on a fresh build only is not the paper's.
pub fn churn(
    map: &(impl OrderedKv<u64> + ?Sized),
    keys: &mut [u64],
    ops: usize,
    universe_bits: u32,
    seed: u64,
) {
    let mask = if universe_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << universe_bits) - 1
    };
    let mut rng = skiptrie_workloads::SplitMix64::new(seed);
    for _ in 0..ops / 2 {
        let slot = rng.next_below(keys.len() as u64) as usize;
        map.remove(keys[slot]);
        keys[slot] = loop {
            let fresh = rng.next() & mask;
            if map.insert(fresh, fresh) {
                break fresh;
            }
        };
    }
}

/// Result of a timed multi-threaded workload run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputResult {
    /// Total operations executed across all threads.
    pub total_ops: u64,
    /// Wall-clock time of the measured phase.
    pub elapsed: Duration,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Counter deltas accumulated during the measured phase (only populated when
    /// metrics recording was enabled by the caller).
    pub steps: Snapshot,
}

/// Runs the workload's operation streams on `spec.threads` worker threads and reports
/// aggregate throughput. The structure must already be prefilled.
pub fn run_throughput(
    map: &(impl OrderedKv<u64> + ?Sized),
    spec: &WorkloadSpec,
) -> ThroughputResult {
    let streams: Vec<Vec<Op>> = (0..spec.threads).map(|t| spec.thread_ops(t)).collect();
    let before = metrics::snapshot();
    let sw = skiptrie_metrics::Stopwatch::start();
    std::thread::scope(|scope| {
        for (index, ops) in streams.iter().enumerate() {
            scope.spawn(move || {
                skiptrie_workloads::harness::pin_worker(index);
                for &op in ops {
                    apply_op(map, op);
                }
            });
        }
    });
    let elapsed = sw.elapsed();
    let steps = metrics::snapshot().since(&before);
    let total_ops = spec.total_ops() as u64;
    ThroughputResult {
        total_ops,
        elapsed,
        ops_per_sec: metrics::ops_per_second(total_ops, elapsed),
        steps,
    }
}

/// Per-operation step counts measured over a single-threaded run of `ops`.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Number of operations measured.
    pub ops: u64,
    /// Mean shared-memory traversal steps (pointer reads + guide hops + hash probes)
    /// per operation — the quantity Theorem 4.3 bounds by `O(log log u + c)`.
    pub traversal_steps_per_op: f64,
    /// Mean hash-table probes per operation (the `LowestAncestor` binary search).
    pub hash_ops_per_op: f64,
    /// Mean CAS/DCSS attempts per operation.
    pub update_steps_per_op: f64,
    /// Mean contention-attributed steps (failures, helps, restarts) per operation.
    pub contention_steps_per_op: f64,
    /// Mean x-fast-trie levels crossed per operation (E3's amortization measure).
    pub trie_levels_per_op: f64,
}

/// Runs `ops` single-threaded with step recording enabled and reports per-operation
/// means.
pub fn measure_steps(map: &(impl OrderedKv<u64> + ?Sized), ops: &[Op]) -> StepReport {
    let was_enabled = metrics::is_enabled();
    metrics::set_enabled(true);
    let before = metrics::snapshot();
    for &op in ops {
        apply_op(map, op);
    }
    let delta = metrics::snapshot().since(&before);
    metrics::set_enabled(was_enabled);
    let n = ops.len().max(1) as f64;
    StepReport {
        ops: ops.len() as u64,
        traversal_steps_per_op: delta.traversal_steps() as f64 / n,
        hash_ops_per_op: delta.get(Counter::HashOp) as f64 / n,
        update_steps_per_op: delta.update_steps() as f64 / n,
        contention_steps_per_op: delta.contention_steps() as f64 / n,
        trie_levels_per_op: delta.get(Counter::TrieLevelCrossed) as f64 / n,
    }
}

/// Prints a tab-separated table with a title line and a header row; rows are quoted
/// verbatim into `EXPERIMENTS.md`. The table is also recorded so that
/// [`write_json_summary`] can emit a machine-readable `BENCH_<bin>.json` at exit.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("## {title}");
    println!("{}", headers.join("\t"));
    for row in rows {
        println!("{}", row.join("\t"));
    }
    println!();
    recorded_tables()
        .lock()
        .expect("table sink")
        .push(RecordedTable {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: rows.to_vec(),
        });
}

/// One table captured by [`print_table`] for the JSON summary.
struct RecordedTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn recorded_tables() -> &'static std::sync::Mutex<Vec<RecordedTable>> {
    static TABLES: std::sync::OnceLock<std::sync::Mutex<Vec<RecordedTable>>> =
        std::sync::OnceLock::new();
    TABLES.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

/// Minimal JSON string escaping (the summary is emitted by hand; the payload is
/// all strings and numbers-as-strings).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

/// Writes every table printed so far to `BENCH_<bin>.json` if the `SKIPTRIE_JSON`
/// environment variable is set, giving CI a machine-readable bench trajectory next to
/// the human-readable TSV. `SKIPTRIE_JSON` names a directory (created if missing)
/// unless it ends in `.json`, in which case it is used as the file path directly.
/// Failures are reported on stderr but never abort the experiment. Every `e*`/`f*`
/// binary calls this once at the end of `main`.
pub fn write_json_summary(bin: &str) {
    let Ok(target) = std::env::var("SKIPTRIE_JSON") else {
        return;
    };
    if target.is_empty() {
        return;
    }
    let path = if target.ends_with(".json") {
        std::path::PathBuf::from(target)
    } else {
        let dir = std::path::PathBuf::from(target);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("SKIPTRIE_JSON: cannot create {}: {e}", dir.display());
            return;
        }
        dir.join(format!("BENCH_{bin}.json"))
    };
    let tables = recorded_tables().lock().expect("table sink");
    let mut body = String::new();
    body.push_str(&format!(
        "{{\"bin\":\"{}\",\"scale\":{},\"tables\":[",
        json_escape(bin),
        scale()
    ));
    for (i, t) in tables.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let rows: Vec<String> = t.rows.iter().map(|r| json_string_array(r)).collect();
        body.push_str(&format!(
            "{{\"title\":\"{}\",\"headers\":{},\"rows\":[{}]}}",
            json_escape(&t.title),
            json_string_array(&t.headers),
            rows.join(",")
        ));
    }
    body.push_str("]}\n");
    match std::fs::write(&path, body) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("SKIPTRIE_JSON: cannot write {}: {e}", path.display()),
    }
}

/// Number of worker threads to sweep up to (respects `SKIPTRIE_MAX_THREADS`).
///
/// # Panics
///
/// Panics if `SKIPTRIE_MAX_THREADS` is set to a malformed or zero value
/// (unset/empty falls back to the machine's available parallelism) — a typo'd
/// knob must fail the run, not silently sweep a different thread range.
pub fn max_threads() -> usize {
    match env_knob::<usize>("SKIPTRIE_MAX_THREADS") {
        Some(n) => {
            assert!(
                n > 0,
                "SKIPTRIE_MAX_THREADS must be a positive thread count"
            );
            n
        }
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    }
}

// The scale and env-parsing knobs live in the shared test/experiment harness;
// re-exported here so every experiment binary keeps its historical
// `skiptrie_bench::{scale, scaled}` path (and parses its own knobs loudly).
pub use skiptrie_workloads::harness::{env_knob, parse_knob, scale, scaled};

/// Standard thread counts for sweep experiments: 1, 2, 4, ... up to [`max_threads`].
pub fn thread_sweep() -> Vec<usize> {
    let mut out = vec![1usize];
    while *out.last().unwrap() * 2 <= max_threads() {
        out.push(out.last().unwrap() * 2);
    }
    if *out.last().unwrap() != max_threads() {
        out.push(max_threads());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skiptrie::{ShardedSkipTrie, ShardedSkipTrieConfig, SkipTrie, SkipTrieConfig};
    use skiptrie_baselines::{FullSkipList, LockedBTreeMap};
    use skiptrie_workloads::{KeyDist, OpMix};

    fn small_spec(threads: usize) -> WorkloadSpec {
        WorkloadSpec {
            universe_bits: 20,
            prefill: 500,
            ops_per_thread: 500,
            threads,
            dist: KeyDist::Uniform,
            mix: OpMix::UPDATE_HEAVY,
            seed: 11,
        }
    }

    #[test]
    fn all_structures_run_the_same_workload() {
        let spec = small_spec(2);
        let keys = spec.prefill_keys();
        let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(20));
        let forest: ShardedSkipTrie<u64> =
            ShardedSkipTrie::new(ShardedSkipTrieConfig::for_universe_bits(20));
        let skiplist = FullSkipList::new();
        let btree = LockedBTreeMap::new();
        let structures: [(&str, &dyn OrderedKv<u64>); 4] = [
            ("skiptrie", &trie),
            ("sharded-skiptrie", &forest),
            ("lockfree-skiplist", &skiplist),
            ("locked-btreemap", &btree),
        ];
        for (name, s) in structures {
            prefill(s, &keys);
            assert_eq!(s.len(), keys.len(), "{name}");
            let result = run_throughput(s, &spec);
            assert_eq!(result.total_ops, spec.total_ops() as u64);
            assert!(result.ops_per_sec > 0.0);
        }
    }

    #[test]
    fn batched_entry_points_agree_across_structures() {
        let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(20));
        let forest: ShardedSkipTrie<u64> =
            ShardedSkipTrie::new(ShardedSkipTrieConfig::for_universe_bits(20));
        let skiplist = FullSkipList::new(); // exercises the provided (loop) batch forms
        let btree = LockedBTreeMap::new();
        let structures: [(&str, &dyn OrderedKv<u64>); 4] = [
            ("skiptrie", &trie),
            ("sharded-skiptrie", &forest),
            ("lockfree-skiplist", &skiplist),
            ("locked-btreemap", &btree),
        ];
        let entries: Vec<(u64, u64)> = (0..500u64).map(|i| (i * 1_999 % (1 << 20), i)).collect();
        let keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
        let probe: Vec<u64> = (0..600u64).map(|i| i * 1_753 % (1 << 20)).collect();
        for (name, s) in structures {
            let inserted = s.insert_batch(&entries);
            assert_eq!(s.len(), inserted, "{name}");
            let found = s.get_batch(&probe);
            let expected = probe.iter().filter(|k| s.get(**k).is_some()).count();
            assert_eq!(found, expected, "{name}");
            assert_eq!(s.remove_batch(&keys), inserted, "{name}");
            assert!(s.is_empty(), "{name}");
        }
    }

    #[test]
    fn step_measurement_reports_positive_traversal_cost() {
        let trie = SkipTrie::new(SkipTrieConfig::for_universe_bits(24));
        for k in 0..2_000u64 {
            trie.insert(k * 7, k);
        }
        let spec = WorkloadSpec::read_only(24, 0, 500, 3);
        let ops = spec.thread_ops(0);
        let report = measure_steps(&trie, &ops);
        assert_eq!(report.ops, 500);
        assert!(report.traversal_steps_per_op > 1.0);
        assert!(
            report.hash_ops_per_op >= 1.0,
            "LowestAncestor probes the table"
        );
        // Note: metrics are process-wide, and other tests in this binary may run
        // concurrently, so we do not assert that update counters stayed at zero here.
        assert!(report.update_steps_per_op >= 0.0);
    }

    #[test]
    fn thread_sweep_is_monotone_and_bounded() {
        let sweep = thread_sweep();
        assert!(!sweep.is_empty());
        assert_eq!(sweep[0], 1);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        assert!(*sweep.last().unwrap() <= max_threads().max(1));
    }

    #[test]
    fn scaled_has_a_floor() {
        assert!(scaled(0) >= 16);
        assert!(scaled(1_000) >= 16);
    }
}
