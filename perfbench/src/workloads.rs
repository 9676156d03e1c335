//! The three direct workloads: what they build, how they age it, and how a run
//! turns into the named metrics. `serve_open` lives in `serve.rs`.

use std::cell::Cell;
use std::time::{Duration, Instant};

use skiptrie::{ShardedSkipTrieConfig, SkipTrie, SkipTrieConfig, TieredForest};
use skiptrie_baselines::LockedBTreeMap;
use skiptrie_metrics::{Counter, Snapshot};

use crate::direct::{self, Slice, SlicePlan, Spec, Target};
use crate::gen::{prefill_entries, Mix, CLASSES, UNIVERSE_BITS};
use crate::oracle::{self, Model};
use crate::report::{Outcome, Readings};
use crate::stats::{self, Better, Summary, P50, P99, Q};
use crate::{host, Opts};

/// Closed-loop threads of a direct workload: this host's `nproc`.
pub const THREADS: u64 = 2;

/// Epoch domain of the un-sharded tries this benchmark builds. Forest shards
/// take domains 1 and 2; probes use domains above this one, so no structure's
/// garbage is ever collected on another's clock.
pub const TRIE_DOMAIN: usize = 8;

/// Timed set-ups per run; `setup_s` is their quiet tenth.
const SETUPS: usize = 15;

/// Length of a measured slice. Every end-to-end metric is the quiet tenth of
/// its per-slice values (`stats::quiet`), so a slice must hold many of the
/// program's own periodic events — a fold takes milliseconds and the forest
/// workloads fold several times a second — and still be short beside the
/// seconds over which the host's speed wanders.
pub const SLICE: Duration = Duration::from_millis(500);

/// The measured slices of a timed run: `SLICE` each (a fifth of that under
/// `--smoke`), as many as fit into `seconds`.
pub fn slice_plan(opts: &Opts, seconds: Duration) -> Vec<SlicePlan> {
    let len = if opts.smoke { SLICE / 5 } else { SLICE };
    let count = (seconds.as_secs_f64() / len.as_secs_f64()).round().max(1.0) as usize;
    vec![
        SlicePlan {
            len,
            ..Default::default()
        };
        count
    ]
}

pub const TRIE_CHURN: Spec = Spec {
    mix: Mix {
        get: 0,
        pred: 500,
        insert: 250,
        remove: 250,
        scan: 0,
    },
    w: 1 << 18,
    threads: THREADS,
    warmup_ops: 2_500_000,
};

pub const TIERED_READ_MOSTLY: Spec = Spec {
    mix: Mix {
        get: 450,
        pred: 500,
        insert: 25,
        remove: 25,
        scan: 0,
    },
    w: 1 << 20,
    threads: THREADS,
    warmup_ops: 2_000_000,
};

pub const SCAN_CHURN: Spec = Spec {
    mix: Mix {
        get: 0,
        pred: 100,
        insert: 200,
        remove: 200,
        scan: 500,
    },
    w: 1 << 20,
    threads: THREADS,
    warmup_ops: 200_000,
};

pub fn trie_config() -> SkipTrieConfig {
    SkipTrieConfig::for_universe_bits(UNIVERSE_BITS).with_domain(TRIE_DOMAIN)
}

pub fn forest_config() -> ShardedSkipTrieConfig {
    ShardedSkipTrieConfig::for_universe_bits(UNIVERSE_BITS)
        .with_shards(2)
        .with_merge_watermark(4096)
}

/// A structure a direct workload runs against: how it is built from the
/// prefill and how the checks after the last slice read it.
pub trait Subject: Sized {
    type Target: Target;
    fn build(entries: Vec<(u64, u64)>) -> Self;
    fn target(&self) -> &Self::Target;
    fn len(&self) -> usize;
    fn contents(&self) -> Vec<(u64, u64)>;
    /// Audits the skiplist levels; panics on a reclamation-safety violation.
    fn check_integrity(&self) -> usize;
    /// Counter-free facts of the layers below, for the traced run.
    fn layer_facts(&self) -> LayerFacts;
    /// The aged trie the `trie.*` probes can reuse, if this is one.
    fn into_aged_trie(self) -> Option<SkipTrie<u64>> {
        None
    }
}

#[derive(Clone, Copy, Default)]
pub struct LayerFacts {
    pub pool_recycle_frac: f64,
    pub garbage_hwm: u64,
    pub folds: u64,
    pub shard_imbalance: f64,
}

fn recycle_frac((allocated, recycled, _pooled): (usize, usize, usize)) -> f64 {
    if allocated + recycled == 0 {
        0.0
    } else {
        recycled as f64 / (allocated + recycled) as f64
    }
}

fn garbage_hwm(domain: Option<usize>) -> u64 {
    skiptrie_atomics::domain_stats(domain.unwrap_or(0), skiptrie::Reclaimer::Ebr).hwm
}

impl Subject for SkipTrie<u64> {
    type Target = Self;
    fn build(entries: Vec<(u64, u64)>) -> Self {
        SkipTrie::from_sorted(trie_config(), entries)
    }
    fn target(&self) -> &Self {
        self
    }
    fn len(&self) -> usize {
        SkipTrie::len(self)
    }
    fn contents(&self) -> Vec<(u64, u64)> {
        self.range(..).collect()
    }
    fn check_integrity(&self) -> usize {
        self.check_traversal_integrity()
    }
    fn layer_facts(&self) -> LayerFacts {
        LayerFacts {
            pool_recycle_frac: recycle_frac(self.allocation_stats()),
            garbage_hwm: garbage_hwm(self.config().domain),
            ..Default::default()
        }
    }
    fn into_aged_trie(self) -> Option<SkipTrie<u64>> {
        Some(self)
    }
}

impl Subject for TieredForest<u64> {
    type Target = skiptrie::ShardedSkipTrie<u64, skiptrie::TieredSkipTrie<u64>>;
    fn build(entries: Vec<(u64, u64)>) -> Self {
        TieredForest::from_sorted(forest_config(), &entries)
    }
    fn target(&self) -> &Self::Target {
        self
    }
    fn len(&self) -> usize {
        self.target().len()
    }
    fn contents(&self) -> Vec<(u64, u64)> {
        self.range(..).collect()
    }
    fn check_integrity(&self) -> usize {
        self.check_traversal_integrity()
    }
    fn layer_facts(&self) -> LayerFacts {
        let shards = 0..self.shard_count();
        let lens = self.shard_lens();
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        LayerFacts {
            pool_recycle_frac: recycle_frac(self.allocation_stats()),
            garbage_hwm: shards
                .clone()
                .map(|i| garbage_hwm(self.shard(i).config().trie.domain))
                .sum(),
            folds: shards.map(|i| self.shard(i).merge_count()).sum(),
            shard_imbalance: *lens.iter().max().expect("a forest has shards") as f64 / mean,
        }
    }
}

/// One timed set-up: input generation plus build.
fn timed_setup<S: Subject>(w: u64) -> (S, f64) {
    let start = Instant::now();
    let subject = S::build(prefill_entries(w));
    (subject, start.elapsed().as_secs_f64())
}

/// The remaining set-ups of a run, each on a fresh structure that is dropped
/// (joining whatever threads it owns) before the next; returns the summary
/// over all of them including `first`.
pub fn setup_summary(first: f64, mut again: impl FnMut() -> f64) -> Summary {
    let mut times = vec![first];
    times.extend((1..SETUPS).map(|_| again()));
    stats::quiet(&times, Better::Lower).expect("at least one set-up")
}

/// How a quantile taken per part (slice or window) becomes one value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Over {
    /// The median over parts.
    Median,
    /// The quiet tenth of the parts (`stats::quiet`): end-to-end metrics.
    Quiet,
}

/// `(summary, note)` of quantile `q` over the parts (slices or windows) of one
/// class. Where a part cannot support the quantile the parts are pooled, and
/// where even the pool cannot, the largest sample stands in; both are noted.
pub fn quantile_over_parts(
    parts: &[&[u32]],
    q: Q,
    over: Over,
) -> Option<(Summary, Option<&'static str>)> {
    let per_part: Vec<f64> = parts
        .iter()
        .filter_map(|part| stats::quantile(part, q))
        .collect();
    if !parts.is_empty() && per_part.len() == parts.len() {
        let summary = match over {
            Over::Median => stats::summarize(&per_part),
            Over::Quiet => stats::quiet(&per_part, Better::Lower),
        };
        return summary.map(|s| (s, None));
    }
    let mut pool: Vec<u32> = parts.iter().flat_map(|part| part.iter().copied()).collect();
    pool.sort_unstable();
    if let Some(value) = stats::quantile(&pool, q) {
        return Some((Summary::single(value), Some("pooled over parts")));
    }
    pool.last().map(|&max| {
        (
            Summary::single(max as f64),
            Some("too few samples: largest sample"),
        )
    })
}

/// Quantile `q` of each latency class over per-part ascending samples,
/// indexed by class, `None` for a class the workload does not issue; what
/// each summary is made of goes to the notes.
pub fn class_quantiles(
    parts: &[[Vec<u32>; 3]],
    q: Q,
    over: Over,
    notes: &mut Vec<String>,
) -> [Option<Summary>; 3] {
    CLASSES.map(|class| {
        let of_class: Vec<&[u32]> = parts.iter().map(|p| p[class as usize].as_slice()).collect();
        let smallest = of_class.iter().map(|p| p.len()).min().unwrap_or(0);
        let (summary, note) = quantile_over_parts(&of_class, q, over)?;
        notes.push(format!(
            "{} p{}: {:.0} ns (median {:.0}, min {:.0}, max {:.0}) over {} parts of at least {smallest} samples{}",
            class.label(),
            q.0 / 100,
            summary.value,
            summary.median,
            summary.min,
            summary.max,
            parts.len(),
            note.map_or(String::new(), |n| format!(", {n}"))
        ));
        Some(summary)
    })
}

/// The end-to-end latency metrics: the median latency of reads and of writes,
/// as the quiet tenth over parts. The scan median and the p99s of the same
/// samples go to the notes; the traced run reports them as `latency.*`.
pub fn latency_readings(
    readings: &mut Readings,
    notes: &mut Vec<String>,
    parts: &[[Vec<u32>; 3]],
) -> Result<(), String> {
    let [read, write, _scan] = class_quantiles(parts, P50, Over::Quiet, notes);
    readings.put("read_p50_ns", read.ok_or("no read was timed")?);
    readings.put("write_p50_ns", write.ok_or("no write was timed")?);
    class_quantiles(parts, P99, Over::Median, notes);
    Ok(())
}

/// The latencies a client sees that are reported but not gated, from the
/// untraced samples of a traced run; 0 for a class the workload does not issue.
pub fn ungated_latency_readings(
    readings: &mut Readings,
    notes: &mut Vec<String>,
    parts: &[[Vec<u32>; 3]],
) {
    let [_, _, scan_p50] = class_quantiles(parts, P50, Over::Median, notes);
    let [read, write, scan] = class_quantiles(parts, P99, Over::Median, notes);
    for (name, summary) in [
        ("latency.read_p99_ns", read),
        ("latency.write_p99_ns", write),
        ("latency.scan_p50_ns", scan_p50),
        ("latency.scan_p99_ns", scan),
    ] {
        readings.put(name, summary.unwrap_or(Summary::single(0.0)));
    }
}

fn throughput(slices: &[Slice]) -> Summary {
    let per_slice: Vec<f64> = slices.iter().map(|s| s.ops_per_s).collect();
    stats::quiet(&per_slice, Better::Higher).expect("a run has slices")
}

/// `label: v1 v2 ..`, rounded, for the notes.
pub fn series(label: &str, values: impl Iterator<Item = f64>) -> String {
    let values: Vec<String> = values.map(|v| format!("{v:.0}")).collect();
    format!("{label}: {}", values.join(" "))
}

/// Checks after the last slice; returns the number of discrepancies.
pub fn final_check<S: Subject>(subject: &S, models: &[Model], notes: &mut Vec<String>) -> u64 {
    let expected = Model::union(models);
    let wrong = oracle::final_mismatches(&expected, subject.len(), subject.contents().into_iter());
    let audited = subject.check_integrity();
    notes.push(format!(
        "final state: {} keys, {wrong} discrepancies, {audited} nodes audited",
        expected.len()
    ));
    wrong
}

/// The timed run of a direct workload: every end-to-end metric.
pub fn timed<S: Subject>(name: &'static str, spec: &Spec, opts: &Opts) -> Result<Outcome, String> {
    let spec = opts.scaled(spec);
    let rss_before = host::resident_bytes();
    let (subject, first_setup) = timed_setup::<S>(spec.w);
    let grown = |since: u64| host::resident_bytes().saturating_sub(since) as f64;
    let mem = grown(rss_before) / subject.len() as f64;
    let plan = slice_plan(opts, opts.seconds);
    let aged_mem = Cell::new(0.0);
    let run = direct::run(subject.target(), &spec, opts.seed, &plan, || {
        aged_mem.set(grown(rss_before) / subject.len() as f64)
    });

    let mut readings = Readings::default();
    let mut notes = vec![
        series("ops/s per slice", run.slices.iter().map(|s| s.ops_per_s)),
        format!("warm-up {} ops in {:.3} s", spec.warmup_ops, run.warmup_s),
        format!(
            "resident memory after the warm-up: {:.1} bytes/key",
            aged_mem.get()
        ),
    ];
    let mismatches = run.mismatches + final_check(&subject, &run.models, &mut notes);
    drop(subject);
    readings.put(
        "setup_s",
        setup_summary(first_setup, || timed_setup::<S>(spec.w).1),
    );
    readings.put("throughput_ops_s", throughput(&run.slices));
    let parts: Vec<[Vec<u32>; 3]> = run.slices.into_iter().map(|s| s.samples).collect();
    latency_readings(&mut readings, &mut notes, &parts)?;
    readings.put_value("mem_bytes_per_key", mem);
    Ok(Outcome {
        workload: name,
        attempted: run.attempted,
        failed: mismatches,
        correct: mismatches == 0,
        readings,
        notes,
    })
}

fn per(n: u64, d: u64, scale: f64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 * scale / d as f64
    }
}

/// Per-layer metrics that are counter deltas over traced slices, divided by
/// the `ops` (of which `writes` were writes) those slices ran.
pub fn counter_readings(readings: &mut Readings, delta: &Snapshot, ops: u64, writes: u64) {
    let c = |counter| delta.get(counter);
    readings.put_value("trie.ptr_reads_per_op", per(c(Counter::PtrRead), ops, 1.0));
    readings.put_value("trie.hash_probes_per_op", per(c(Counter::HashOp), ops, 1.0));
    readings.put_value(
        "trie.levels_crossed_per_write",
        per(c(Counter::TrieLevelCrossed), writes, 1.0),
    );
    readings.put_value("trie.restarts_per_kop", per(c(Counter::Restart), ops, 1e3));
    readings.put_value(
        "skiplist.marked_skips_per_kop",
        per(c(Counter::MarkedNodeSkipped), ops, 1e3),
    );
    readings.put_value(
        "atomics.dcss_fail_frac",
        per(c(Counter::DcssFailure), c(Counter::DcssAttempt), 1.0),
    );
    readings.put_value(
        "atomics.cas_fail_frac",
        per(c(Counter::CasFailure), c(Counter::CasAttempt), 1.0),
    );
    readings.put_value(
        "atomics.dcss_helps_per_kop",
        per(c(Counter::DcssHelp), ops, 1e3),
    );
    readings.put_value(
        "epoch.freed_per_retired",
        per(c(Counter::GarbageFreed), c(Counter::GarbagePending), 1.0),
    );
    readings.put_value(
        "tiered.hit_frac",
        per(
            c(Counter::TierHit),
            c(Counter::TierHit) + c(Counter::TierMissDelta),
            1.0,
        ),
    );
    readings.put_value(
        "service.coalesced_frac",
        per(c(Counter::SvcBatchSize), c(Counter::SvcEnqueued), 1.0),
    );
    readings.put_value(
        "service.shed_frac",
        per(
            c(Counter::SvcShed),
            c(Counter::SvcShed) + c(Counter::SvcEnqueued),
            1.0,
        ),
    );
}

pub fn layer_fact_readings(readings: &mut Readings, facts: LayerFacts, folds_before: u64) {
    readings.put_value("skiplist.pool_recycle_frac", facts.pool_recycle_frac);
    readings.put_value("epoch.garbage_hwm", facts.garbage_hwm as f64);
    readings.put_value("forest.fold_count", (facts.folds - folds_before) as f64);
    readings.put_value("forest.shard_imbalance", facts.shard_imbalance);
}

/// What tracing costs: the share of the untraced slice's throughput lost with
/// counters on, and with every operation timed and recorded as well.
pub fn overhead_readings(readings: &mut Readings, untraced: f64, counted: f64, traced: f64) {
    let lost = |with: f64| (1.0 - with / untraced).max(0.0);
    readings.put_value("metrics.counters_on_overhead_frac", lost(counted));
    readings.put_value("metrics.trace_overhead_frac", lost(traced));
}

/// The yardstick on the same streams: one slice of `spec` against a
/// `Mutex<BTreeMap>` holding the same prefill.
pub fn btree_ops_s(spec: &Spec, seed: u64, len: Duration) -> f64 {
    let map = LockedBTreeMap::new();
    map.insert_batch(&prefill_entries(spec.w));
    let spec = Spec {
        warmup_ops: 0,
        ..*spec
    };
    let plan = [SlicePlan {
        len,
        ..Default::default()
    }];
    direct::run(&map, &spec, seed, &plan, || {}).slices[0].ops_per_s
}

/// Metrics only `serve_open` moves, on a workload with no service.
const SERVICE_ONLY: [&str; 7] = [
    "service.submit_ns",
    "service.queue_exec_ns",
    "service.queue_wait_ns",
    "service.reply_wait_ns",
    "service.overhead_ns",
    "workloads.sched_lag_p99_ns",
    "workloads.late_frac",
];

/// What a traced run hands on: its outcome, its spans, and the aged trie if
/// the workload ran on one.
pub type Traced = (Outcome, Vec<crate::trace::Span>, Option<SkipTrie<u64>>);

/// The traced run of a direct workload: an untraced slice, one with counters
/// on, one with every operation timed and recorded as well; then the yardstick.
/// The layer probes are added by the caller.
pub fn traced<S: Subject>(name: &'static str, spec: &Spec, opts: &Opts) -> Result<Traced, String> {
    let spec = opts.scaled(spec);
    skiptrie_metrics::set_enabled(true);
    let before_build = skiptrie_metrics::snapshot();
    let subject = S::build(prefill_entries(spec.w));
    let dir_grows = skiptrie_metrics::snapshot()
        .since(&before_build)
        .get(Counter::DirGrow);
    skiptrie_metrics::set_enabled(false);

    let len = opts.seconds.div_f64(8.0);
    let slice = |counters, traced| SlicePlan {
        len,
        counters,
        traced,
    };
    let plan = [slice(false, false), slice(true, false), slice(true, true)];
    let folds_before = Cell::new(0);
    let run = direct::run(subject.target(), &spec, opts.seed, &plan, || {
        folds_before.set(subject.layer_facts().folds)
    });

    let mut readings = Readings::default();
    let mut notes = vec![series(
        "ops/s per slice",
        run.slices.iter().map(|s| s.ops_per_s),
    )];
    let mismatches = run.mismatches + final_check(&subject, &run.models, &mut notes);
    ungated_latency_readings(&mut readings, &mut notes, &[run.slices[0].samples.clone()]);
    let counted_ops = run.slices[1].ops + run.slices[2].ops;
    let write_share = (spec.mix.insert + spec.mix.remove) as u64;
    counter_readings(
        &mut readings,
        &run.counters[3].since(&run.counters[1]),
        counted_ops,
        counted_ops * write_share / 1000,
    );
    readings.put_value("splitorder.dir_grows", dir_grows as f64);
    layer_fact_readings(&mut readings, subject.layer_facts(), folds_before.get());
    let [untraced, counted, traced] = [0, 1, 2].map(|i| run.slices[i].ops_per_s);
    overhead_readings(&mut readings, untraced, counted, traced);
    readings.put_value("workloads.warmup_s", run.warmup_s);
    for name in SERVICE_ONLY {
        readings.put_value(name, 0.0);
    }
    readings.put_value("baselines.btree_ops_s", btree_ops_s(&spec, opts.seed, len));
    let timed_ops: usize = run.slices[2].samples.iter().map(Vec::len).sum();
    notes.push(format!(
        "traced slice: {timed_ops} operations timed, {} kept as spans",
        run.spans.len()
    ));
    Ok((
        Outcome {
            workload: name,
            attempted: run.attempted,
            failed: mismatches,
            correct: mismatches == 0,
            readings,
            notes,
        },
        run.spans,
        subject.into_aged_trie(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_per_mille_with_reads_and_balanced_writes() {
        for spec in [TRIE_CHURN, TIERED_READ_MOSTLY, SCAN_CHURN] {
            assert_eq!(spec.mix.total(), 1000);
            assert!(spec.mix.insert > 0 && spec.mix.insert == spec.mix.remove);
            assert!(spec.mix.get + spec.mix.pred > 0);
        }
    }

    #[test]
    fn a_percentile_is_per_part_only_where_every_part_supports_it() {
        let long: Vec<u32> = (0..2000).collect();
        let short: Vec<u32> = (0..500).collect();
        let (s, note) = quantile_over_parts(&[&long, &long], P99, Over::Median).unwrap();
        assert_eq!((s.value, s.parts, note), (1979.0, 2, None));
        // The quiet tenth of two parts is the better one.
        let slow: Vec<u32> = (1000..3000).collect();
        let (s, _) = quantile_over_parts(&[&slow, &long], P99, Over::Quiet).unwrap();
        assert_eq!((s.value, s.median, s.parts), (1979.0, 2479.0, 2));
        // One short part: pooled (2500 samples, p99 is the 2475th).
        let (s, note) = quantile_over_parts(&[&long, &short], P99, Over::Median).unwrap();
        assert_eq!(s.parts, 1);
        assert!(note.unwrap().contains("pooled"));
        // Nothing supports it: the largest sample, flagged.
        let (s, note) = quantile_over_parts(&[&short], P99, Over::Median).unwrap();
        assert_eq!(s.value, 499.0);
        assert!(note.unwrap().contains("too few"));
        assert!(quantile_over_parts(&[&[]], P50, Over::Quiet).is_none());
    }

    #[test]
    fn set_up_is_the_quiet_tenth_of_all_timed_set_ups() {
        let mut later = (1..SETUPS).map(|i| i as f64);
        let s = setup_summary(0.5, || later.next().expect("one call per further set-up"));
        assert_eq!(
            later.next(),
            None,
            "every set-up after the first is timed once"
        );
        // 0.5, 1, 2, .. 14: the best tenth of fifteen is the two fastest.
        assert_eq!(
            (s.value, s.median, s.min, s.max, s.parts),
            (0.75, 7.0, 0.5, 14.0, SETUPS)
        );
    }
}
