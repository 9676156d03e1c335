//! Shared experiment harness for the SkipTrie reproduction.
//!
//! The paper (PODC 2013) is a theory paper: its "evaluation" is Theorem 4.3 and the
//! surrounding amortized-complexity analysis, plus two illustrative figures. This
//! crate regenerates those artefacts as *measured* experiments (see `EXPERIMENTS.md`
//! at the repository root for the mapping):
//!
//! * step-count measurements validating the `O(log log u)` vs `Θ(log m)` separation
//!   (`e1`, `e2`) and the `O(1)` amortized trie maintenance (`e3`);
//! * contention and throughput measurements for the `+ c` term (`sweep`);
//! * space and structural statistics (`e5`, `f1`) and the transient prev-gap
//!   phenomenon of Figure 2 (`f2`);
//! * the repository's own mechanisms against their alternatives (`ab`).
//!
//! Every structure under test implements [`OrderedKv`], so the same deterministic
//! workloads ([`skiptrie_workloads`]) drive the SkipTrie and each baseline through
//! `&dyn OrderedKv<u64>`. The one binary, `experiments`, is a table of entries that
//! each hand back an [`Outcome`]: the [`Table`]s `EXPERIMENTS.md` quotes, and every
//! expected shape a deterministic column broke. Performance numbers a PR is judged
//! by come from `perfbench/`, not from here.

#![warn(missing_docs)]

pub use skiptrie::OrderedKv;
use skiptrie_metrics::{self as metrics, Counter};
use skiptrie_workloads::{Op, WorkloadSpec};

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
    /// Operations per second.
    pub ops_per_sec: f64,
}

/// Runs the workload's operation streams on `spec.threads` worker threads and reports
/// aggregate throughput. The structure must already be prefilled.
pub fn run_throughput(
    map: &(impl OrderedKv<u64> + ?Sized),
    spec: &WorkloadSpec,
) -> ThroughputResult {
    let streams: Vec<Vec<Op>> = (0..spec.threads).map(|t| spec.thread_ops(t)).collect();
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
    let total_ops = spec.total_ops() as u64;
    ThroughputResult {
        total_ops,
        ops_per_sec: metrics::ops_per_second(total_ops, elapsed),
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
    /// Mean hash-table calls per operation (the `LowestAncestor` search's probes).
    pub hash_ops_per_op: f64,
    /// Mean CAS/DCSS attempts per operation.
    pub update_steps_per_op: f64,
    /// Mean x-fast-trie levels crossed per operation (E3's amortization measure).
    pub trie_levels_per_op: f64,
}

/// Runs `ops` single-threaded with step recording enabled and reports per-operation
/// means.
pub fn measure_steps(map: &(impl OrderedKv<u64> + ?Sized), ops: &[Op]) -> StepReport {
    let ((), delta) = metrics::measure(|| {
        for &op in ops {
            apply_op(map, op);
        }
    });
    let n = ops.len().max(1) as f64;
    StepReport {
        ops: ops.len() as u64,
        traversal_steps_per_op: delta.traversal_steps() as f64 / n,
        hash_ops_per_op: delta.get(Counter::HashOp) as f64 / n,
        update_steps_per_op: delta.update_steps() as f64 / n,
        trie_levels_per_op: delta.get(Counter::TrieLevelCrossed) as f64 / n,
    }
}

/// One cell of a result table: numbers stay numbers so the JSON summary carries
/// them typed; both renderings print a real with its column's fixed precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An exact count.
    Int(u64),
    /// A measured value and the number of decimals its column shows.
    Real(f64, usize),
    /// A label.
    Text(String),
}

/// A [`Cell::Real`] shown with `decimals` decimals.
pub fn real(value: f64, decimals: usize) -> Cell {
    Cell::Real(value, decimals)
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Int(n as u64)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Self {
        Cell::Int(n)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Real(v, decimals) => write!(f, "{v:.decimals$}"),
            Cell::Text(s) => f.write_str(s),
        }
    }
}

impl Cell {
    /// The cell as a JSON value: a number where it is one (`null` for a
    /// non-finite real, which JSON cannot spell), a string otherwise.
    fn to_json(&self) -> String {
        match self {
            Cell::Real(v, _) if !v.is_finite() => "null".to_string(),
            Cell::Int(_) | Cell::Real(..) => self.to_string(),
            Cell::Text(s) => json_string(s),
        }
    }
}

/// A titled table of [`Cell`] rows.
#[derive(Debug, Clone)]
pub struct Table {
    /// The line printed above the table.
    pub title: String,
    /// Column names.
    pub headers: Vec<&'static str>,
    /// One `Vec` per row, as wide as `headers`.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Prints the table tab-separated, as `EXPERIMENTS.md` quotes it.
    pub fn print(&self) {
        println!("## {}", self.title);
        println!("{}", self.headers.join("\t"));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::to_string).collect();
            println!("{}", cells.join("\t"));
        }
        println!();
    }
}

/// What one experiment hands back: its tables, and the verdict — every expected
/// shape that a checked (deterministic) column violated. Empty means it held.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The measured tables, in print order.
    pub tables: Vec<Table>,
    /// One line per violated shape, naming the bound and the measured value.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Appends a table.
    pub fn table(&mut self, title: &str, headers: &[&'static str], rows: Vec<Vec<Cell>>) {
        self.tables.push(Table {
            title: title.to_string(),
            headers: headers.to_vec(),
            rows,
        });
    }

    /// Records `shape` as violated unless `holds`.
    pub fn expect(&mut self, holds: bool, shape: String) {
        if !holds {
            self.violations.push(shape);
        }
    }
}

/// A JSON string literal for `s`.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// The short hash of the checked-out commit, or `"unknown"` outside a git checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON array of `items`, each rendered by `each`.
fn json_array<T>(items: &[T], each: impl Fn(&T) -> String) -> String {
    let parts: Vec<String> = items.iter().map(each).collect();
    format!("[{}]", parts.join(","))
}

/// The machine-readable summary of a run: a header naming the commit, the host's
/// `nproc` and the scale, then each experiment's tables (numeric cells as JSON
/// numbers) and violated shapes.
pub fn json_summary(outcomes: &[(&str, Outcome)]) -> String {
    let experiments = json_array(outcomes, |(id, outcome)| {
        let tables = json_array(&outcome.tables, |t| {
            format!(
                "{{\"title\":{},\"headers\":{},\"rows\":{}}}",
                json_string(&t.title),
                json_array(&t.headers, |h| json_string(h)),
                json_array(&t.rows, |row| json_array(row, Cell::to_json))
            )
        });
        format!(
            "{{\"id\":{},\"tables\":{tables},\"violations\":{}}}",
            json_string(id),
            json_array(&outcome.violations, |v| json_string(v))
        )
    });
    format!(
        "{{\"bin\":\"experiments\",\"git\":{},\"nproc\":{},\"scale\":{},\"experiments\":{experiments}}}\n",
        json_string(&git_sha()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        scale()
    )
}

/// Writes [`json_summary`] to `BENCH_experiments.json` if the `SKIPTRIE_JSON`
/// environment variable is set. It names a directory (created if missing) unless
/// it ends in `.json`, in which case it is the file path itself. Failures are
/// reported on stderr but never change the run's verdict.
pub fn write_json_summary(outcomes: &[(&str, Outcome)]) {
    let Some(target) = env_knob::<String>("SKIPTRIE_JSON") else {
        return;
    };
    let path = if target.ends_with(".json") {
        std::path::PathBuf::from(target)
    } else {
        let dir = std::path::PathBuf::from(target);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("SKIPTRIE_JSON: cannot create {}: {e}", dir.display());
            return;
        }
        dir.join("BENCH_experiments.json")
    };
    match std::fs::write(&path, json_summary(outcomes)) {
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

// Every `SKIPTRIE_*` variable is read in `skiptrie_workloads::harness`; the one the
// experiments size themselves by is re-exported beside the rest of their harness.
pub use skiptrie_workloads::harness::scaled;
use skiptrie_workloads::harness::{env_knob, scale};

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
    fn json_summary_keeps_numbers_as_numbers() {
        let mut outcome = Outcome::default();
        outcome.table(
            "t \"quoted\"",
            &["label", "count", "mean", "undefined"],
            vec![vec![
                "a\tb".into(),
                7usize.into(),
                real(1.26, 1),
                real(f64::NAN, 2),
            ]],
        );
        outcome.expect(false, "shape broke".into());
        let json = json_summary(&[("x1", outcome)]);
        assert!(json.contains(r#""rows":[["a\tb",7,1.3,null]]"#), "{json}");
        assert!(json.contains(r#""title":"t \"quoted\"""#), "{json}");
        assert!(json.contains(r#""id":"x1""#) && json.contains(r#""violations":["shape broke"]"#));
        assert!(json.starts_with(r#"{"bin":"experiments","git":""#) && json.ends_with("}\n"));
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
