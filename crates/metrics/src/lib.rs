//! Step-count, contention and latency instrumentation for the SkipTrie reproduction.
//!
//! The SkipTrie paper (Oshman & Shavit, PODC 2013) states its results as *expected
//! amortized step complexity*: `O(log log u + c)` steps per operation, where a "step"
//! is a shared-memory access and `c` is the contention experienced by the operation.
//! To reproduce those claims empirically we need to count steps, not just wall-clock
//! time. This crate provides:
//!
//! * [`Counter`] — an enumeration of the step categories the experiments report
//!   (pointer reads, hash-table operations, CAS/DCSS attempts and failures, helping
//!   steps, restarts).
//! * A cheap, thread-local recording API ([`record`], [`add`]) guarded by a global
//!   runtime switch ([`set_enabled`]); when disabled a single relaxed load is the only
//!   overhead, so throughput benchmarks are unaffected.
//! * [`Snapshot`] — an aggregated view across all threads, with subtraction so callers
//!   can measure deltas around a region of interest.
//! * [`Histogram`] — a log-linear latency/size histogram (quantiles within 1/32).
//! * [`Stopwatch`] — a tiny wall-clock helper used by the throughput experiments.
//!
//! # Examples
//!
//! ```
//! use skiptrie_metrics::{self as metrics, Counter};
//!
//! metrics::set_enabled(true);
//! let before = metrics::snapshot();
//! metrics::record(Counter::PtrRead);
//! metrics::add(Counter::CasAttempt, 3);
//! let delta = metrics::snapshot().since(&before);
//! assert_eq!(delta.get(Counter::PtrRead), 1);
//! assert_eq!(delta.get(Counter::CasAttempt), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

mod histogram;
mod latency;
mod stopwatch;

pub use histogram::Histogram;
pub use latency::LatencyClasses;
pub use stopwatch::Stopwatch;

/// Categories of shared-memory steps counted by the instrumentation.
///
/// The mapping to the paper's cost model:
///
/// * [`Counter::PtrRead`] — one shared pointer dereference while traversing the
///   skiplist, the doubly-linked top level, or trie pointers. This is the dominant
///   term of the `O(log log u)` bound.
/// * [`Counter::HashOp`] — one operation on the `prefixes` hash table (the paper
///   treats the split-ordered hash table as an atomic object with `O(1)` expected
///   cost).
/// * [`Counter::CasAttempt`] / [`Counter::CasFailure`] — single-word CAS attempts and
///   failures; failures are the steps the amortized analysis charges to contending
///   operations.
/// * [`Counter::DcssAttempt`] / [`Counter::DcssFailure`] / [`Counter::DcssHelp`] —
///   DCSS attempts, failures (including guard failures), and completions performed on
///   behalf of another thread ("helping").
/// * [`Counter::Restart`] — restarts of a search/insert level loop caused by
///   interference.
/// * [`Counter::TrieLevelCrossed`] — levels of the x-fast trie crossed by an insert
///   or delete (used by the amortization experiment E3).
/// * [`Counter::ShardPopProbe`] / [`Counter::ShardPopSkip`] — shards actually probed
///   (a real search-and-remove attempt) versus skipped on a 0 occupancy read by the
///   sharded forest's `pop_first` / `pop_last` (the drained-forest regression in
///   `tests/sharded_forest.rs` pins probes, not pops).
/// * [`Counter::DirGrow`] — successful root-CAS growths of a hash map's segment
///   tree (the directory gained one level of height).
/// * [`Counter::DirNodeAlloc`] / [`Counter::DirNodeFreed`] — directory tree nodes
///   allocated (lazily, or eagerly by a bulk pre-size) and freed at map drop; a
///   matched pair over a map's lifetime is the leak-freedom invariant the
///   reclamation canary pins.
/// * [`Counter::TierHit`] / [`Counter::TierMissDelta`] — tiered reads served
///   entirely from the frozen flat tier (no delta lookup, no epoch pin) versus
///   reads that had to consult the live delta first; a scan counts once per
///   window of frozen keys it opens (`tests/tier_counters.rs` pins the
///   trajectory).
/// * [`Counter::TierMerge`] / [`Counter::TierSwap`] — background folds of the live
///   delta into a fresh frozen tier, and atomic publications of a new tier state
///   (two swaps per merge: the delta seal and the frozen-tier install).
/// * [`Counter::CasRetry`] / [`Counter::CasBackoff`] — iterations of a CAS/DCSS
///   retry loop that went around again after a failed attempt, and the subset of
///   those that also spun in bounded exponential backoff before retrying (the
///   first retry is backoff-free, so `cas_backoff <= cas_retry` always holds).
///   These isolate writer-side contention cost from the general
///   [`Counter::Restart`] figure, which also counts read-path restarts.
/// * [`Counter::GarbagePending`] / [`Counter::GarbageFreed`] — deferred reclamation
///   closures enqueued and executed, across every epoch domain. `pending - freed`
///   is the process-wide garbage backlog; per-domain exact gauges live in
///   `crossbeam_epoch::domain_stats`.
/// * [`Counter::GarbageHwm`] — increments of the per-domain pending-garbage
///   high-water mark, recorded whenever a domain's backlog reaches a new maximum;
///   the snapshot value is therefore the *sum* of every domain's HWM. It grows
///   with churn while a reader stalls pinned (`tests/reclamation_stall.rs`).
/// * [`Counter::SvcEnqueued`] / [`Counter::SvcShed`] — requests accepted into a
///   serving-pipeline mailbox versus rejected at admission because the
///   connection's lane was full (`enqueued + shed == submitted` per connection).
///   A growing `svc_shed` under load is the observable form of backpressure:
///   queues are bounded, so overload sheds instead of growing memory. Exact
///   asserts on these are only sound in test binaries where no other test drives
///   a service concurrently (process-wide counters; use `>=` deltas elsewhere).
/// * [`Counter::SvcBatchSize`] — no longer recorded: the serving pipeline runs
///   every request on its own. The variant stays only because `perfbench`
///   (frozen outside `benchmark` PRs) names it, so its `service.coalesced_frac`
///   reads 0 until a `benchmark` PR drops both.
/// * [`Counter::GuideOffLevel`] / [`Counter::GuideTail`] / [`Counter::GuideNull`] /
///   [`Counter::GuideNotSmaller`] — *dangling guides*, by cause: a top-level walk
///   (Algorithm 4, or a search's start validation) was handed a guide — a trie
///   pointer, a `prev` or a `back` — that names a node which has left the top
///   level, a tail sentinel, nothing at all, or a key not smaller than its
///   owner's. The quiescent invariant (every top-level `prev` is the exact
///   predecessor) makes all four read 0 single-threaded; under concurrency each
///   is paid once per guide, because the reader heals what it resolves
///   ([`Counter::GuideHealed`]).
/// * [`Counter::GuideHealed`] — dangling `prev` guides a reader repaired in place
///   (one DCSS) after resolving them with a top-level search.
/// * [`Counter::WalkHopLimit`] — guide walks that gave up after the hop limit and
///   restarted from the head sentinel.
/// * [`Counter::AncestorIsHead`] — `LowestAncestor` searches that found no usable
///   trie pointer and returned the head sentinel (expected on an empty top
///   level; a performance bug anywhere else).
/// * [`Counter::AncestorBracketed`] — `LowestAncestor` searches that ended on a
///   hit whose pointer lay a few top-level lines from the key's bracket, so the
///   search stopped there instead of probing on (`SkipList::top_bracket`).
/// * [`Counter::StartHintRejected`] — top-level searches whose start hint was
///   unusable (wrong level, a tail) and restarted from the head sentinel.
/// * [`Counter::FixPrevGaveUp`] / [`Counter::TopRepairGaveUp`] — `fixPrev` calls
///   and delete-side successor repairs that ran out of attempts and left a guide
///   for a reader to heal.
/// * [`Counter::GatePollHit`] / [`Counter::GatePark`] / [`Counter::GateUnpark`] —
///   a `WakeGate` sleeper's duty cycle: `sleep_until` calls that returned from
///   their poll phase (the condition came true while the sleeper was still
///   awake), `park` calls (the gate stayed idle for the whole poll budget), and
///   `unpark` calls `wake()` issued (it found the sleeper's flag up). Under
///   steady load `gate_park / requests` is the share of requests that paid a
///   futex wake, and `gate_unpark` staying flat is the waker's skip path taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Counter {
    PtrRead,
    HashOp,
    CasAttempt,
    CasFailure,
    DcssAttempt,
    DcssFailure,
    DcssHelp,
    Restart,
    TrieLevelCrossed,
    BackPointerFollowed,
    PrevPointerFollowed,
    MarkedNodeSkipped,
    NodeAllocated,
    NodeRetired,
    ShardPopProbe,
    ShardPopSkip,
    DirGrow,
    DirNodeAlloc,
    DirNodeFreed,
    TierHit,
    TierMissDelta,
    TierMerge,
    TierSwap,
    CasRetry,
    CasBackoff,
    GarbagePending,
    GarbageFreed,
    GarbageHwm,
    SvcEnqueued,
    SvcShed,
    SvcBatchSize,
    GuideOffLevel,
    GuideTail,
    GuideNull,
    GuideNotSmaller,
    GuideHealed,
    WalkHopLimit,
    AncestorIsHead,
    AncestorBracketed,
    StartHintRejected,
    FixPrevGaveUp,
    TopRepairGaveUp,
    GatePollHit,
    GatePark,
    GateUnpark,
}

impl Counter {
    /// All counters, in a stable order used for display and serialization.
    pub const ALL: [Counter; 45] = [
        Counter::PtrRead,
        Counter::HashOp,
        Counter::CasAttempt,
        Counter::CasFailure,
        Counter::DcssAttempt,
        Counter::DcssFailure,
        Counter::DcssHelp,
        Counter::Restart,
        Counter::TrieLevelCrossed,
        Counter::BackPointerFollowed,
        Counter::PrevPointerFollowed,
        Counter::MarkedNodeSkipped,
        Counter::NodeAllocated,
        Counter::NodeRetired,
        Counter::ShardPopProbe,
        Counter::ShardPopSkip,
        Counter::DirGrow,
        Counter::DirNodeAlloc,
        Counter::DirNodeFreed,
        Counter::TierHit,
        Counter::TierMissDelta,
        Counter::TierMerge,
        Counter::TierSwap,
        Counter::CasRetry,
        Counter::CasBackoff,
        Counter::GarbagePending,
        Counter::GarbageFreed,
        Counter::GarbageHwm,
        Counter::SvcEnqueued,
        Counter::SvcShed,
        Counter::SvcBatchSize,
        Counter::GuideOffLevel,
        Counter::GuideTail,
        Counter::GuideNull,
        Counter::GuideNotSmaller,
        Counter::GuideHealed,
        Counter::WalkHopLimit,
        Counter::AncestorIsHead,
        Counter::AncestorBracketed,
        Counter::StartHintRejected,
        Counter::FixPrevGaveUp,
        Counter::TopRepairGaveUp,
        Counter::GatePollHit,
        Counter::GatePark,
        Counter::GateUnpark,
    ];

    /// Number of distinct counters.
    pub const COUNT: usize = Self::ALL.len();

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&c| c == self)
            .expect("counter present in ALL")
    }

    /// A short, stable, machine-friendly name (snake_case).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PtrRead => "ptr_read",
            Counter::HashOp => "hash_op",
            Counter::CasAttempt => "cas_attempt",
            Counter::CasFailure => "cas_failure",
            Counter::DcssAttempt => "dcss_attempt",
            Counter::DcssFailure => "dcss_failure",
            Counter::DcssHelp => "dcss_help",
            Counter::Restart => "restart",
            Counter::TrieLevelCrossed => "trie_level_crossed",
            Counter::BackPointerFollowed => "back_ptr_followed",
            Counter::PrevPointerFollowed => "prev_ptr_followed",
            Counter::MarkedNodeSkipped => "marked_node_skipped",
            Counter::NodeAllocated => "node_allocated",
            Counter::NodeRetired => "node_retired",
            Counter::ShardPopProbe => "shard_pop_probe",
            Counter::ShardPopSkip => "shard_pop_skip",
            Counter::DirGrow => "dir_grow",
            Counter::DirNodeAlloc => "dir_node_alloc",
            Counter::DirNodeFreed => "dir_node_freed",
            Counter::TierHit => "tier_hit",
            Counter::TierMissDelta => "tier_miss_delta",
            Counter::TierMerge => "tier_merge",
            Counter::TierSwap => "tier_swap",
            Counter::CasRetry => "cas_retry",
            Counter::CasBackoff => "cas_backoff",
            Counter::GarbagePending => "garbage_pending",
            Counter::GarbageFreed => "garbage_freed",
            Counter::GarbageHwm => "garbage_hwm",
            Counter::SvcEnqueued => "svc_enqueued",
            Counter::SvcShed => "svc_shed",
            Counter::SvcBatchSize => "svc_batch_size",
            Counter::GuideOffLevel => "guide_off_level",
            Counter::GuideTail => "guide_tail",
            Counter::GuideNull => "guide_null",
            Counter::GuideNotSmaller => "guide_not_smaller",
            Counter::GuideHealed => "guide_healed",
            Counter::WalkHopLimit => "walk_hop_limit",
            Counter::AncestorIsHead => "ancestor_is_head",
            Counter::AncestorBracketed => "ancestor_bracketed",
            Counter::StartHintRejected => "start_hint_rejected",
            Counter::FixPrevGaveUp => "fix_prev_gave_up",
            Counter::TopRepairGaveUp => "top_repair_gave_up",
            Counter::GatePollHit => "gate_poll_hit",
            Counter::GatePark => "gate_park",
            Counter::GateUnpark => "gate_unpark",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-thread slot of counters. Shared with the global registry so that
/// [`snapshot`] can aggregate across threads that are still running.
struct ThreadSlot {
    counters: [AtomicU64; Counter::COUNT],
}

impl ThreadSlot {
    fn new() -> Self {
        ThreadSlot {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadSlot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadSlot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static LOCAL_SLOT: RefCell<Option<Arc<ThreadSlot>>> = const { RefCell::new(None) };
}

fn with_local_slot<R>(f: impl FnOnce(&ThreadSlot) -> R) -> R {
    LOCAL_SLOT.with(|cell| {
        let mut borrow = cell.borrow_mut();
        if borrow.is_none() {
            let slot = Arc::new(ThreadSlot::new());
            registry()
                .lock()
                .expect("metrics registry poisoned")
                .push(Arc::clone(&slot));
            *borrow = Some(slot);
        }
        f(borrow.as_ref().expect("slot initialized"))
    })
}

/// Globally enables or disables step recording.
///
/// Recording is disabled by default so the data-structure crates impose almost no
/// overhead (a single relaxed atomic load per would-be increment) in throughput
/// benchmarks and in downstream use.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::SeqCst);
}

/// Returns whether step recording is currently enabled.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one occurrence of `counter` on the calling thread (if recording is enabled).
#[inline]
pub fn record(counter: Counter) {
    add(counter, 1);
}

/// Records `n` occurrences of `counter` on the calling thread (if recording is enabled).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !is_enabled() || n == 0 {
        return;
    }
    with_local_slot(|slot| {
        slot.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
    });
}

/// An aggregated, immutable view of all counters summed over every thread that has
/// ever recorded a step in this process.
///
/// Snapshots are monotone; use [`Snapshot::since`] to compute the delta over a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    values: [u64; Counter::COUNT],
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            values: [0; Counter::COUNT],
        }
    }
}

impl Snapshot {
    /// Value of a single counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    /// Sum of every counter — the "total steps" figure used by the experiments.
    pub fn total(&self) -> u64 {
        self.values.iter().sum()
    }

    /// Total *traversal* steps: pointer reads plus hash operations. This is the
    /// quantity the paper's `O(log log u + c)` bound talks about for searches.
    ///
    /// The fallback-cause counters (`Guide*`, [`Counter::WalkHopLimit`],
    /// [`Counter::AncestorIsHead`], [`Counter::StartHintRejected`] and the two
    /// give-ups) are *events*, not steps, and are left out: the steps such an
    /// event causes are already counted as the pointer reads of the search that
    /// resolves it.
    pub fn traversal_steps(&self) -> u64 {
        self.get(Counter::PtrRead)
            + self.get(Counter::HashOp)
            + self.get(Counter::BackPointerFollowed)
            + self.get(Counter::PrevPointerFollowed)
            + self.get(Counter::MarkedNodeSkipped)
    }

    /// Total update steps: CAS/DCSS attempts (successful or not).
    pub fn update_steps(&self) -> u64 {
        self.get(Counter::CasAttempt) + self.get(Counter::DcssAttempt)
    }

    /// Steps attributable to contention: failures, helping and restarts.
    pub fn contention_steps(&self) -> u64 {
        self.get(Counter::CasFailure)
            + self.get(Counter::DcssFailure)
            + self.get(Counter::DcssHelp)
            + self.get(Counter::Restart)
    }

    /// Component-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for i in 0..Counter::COUNT {
            out.values[i] = self.values[i].saturating_sub(earlier.values[i]);
        }
        out
    }

    /// Iterates over `(counter, value)` pairs in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (c, v) in self.iter() {
            if v == 0 {
                continue;
            }
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{c}={v}")?;
            first = false;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

/// Takes a snapshot of all counters aggregated over every registered thread.
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::default();
    let registry = registry().lock().expect("metrics registry poisoned");
    for slot in registry.iter() {
        for (i, v) in slot.counters.iter().enumerate() {
            out.values[i] += v.load(Ordering::Relaxed);
        }
    }
    out
}

/// Takes a snapshot of the calling thread's counters alone: a delta of two
/// such snapshots is exact however many other threads record meanwhile.
pub fn thread_snapshot() -> Snapshot {
    with_local_slot(|slot| {
        let mut out = Snapshot::default();
        for (i, v) in slot.counters.iter().enumerate() {
            out.values[i] = v.load(Ordering::Relaxed);
        }
        out
    })
}

/// Convenience: runs `f` with recording enabled and returns `(f(), delta)` where
/// `delta` is the counter change produced during the call (process-wide).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let was_enabled = is_enabled();
    set_enabled(true);
    let before = snapshot();
    let result = f();
    let delta = snapshot().since(&before);
    set_enabled(was_enabled);
    (result, delta)
}

/// A simple mean/min/max accumulator used by the experiment harness tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the observations (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`NaN` if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Measures elapsed wall-clock time and computes an operations/second rate.
///
/// See [`Stopwatch`].
pub fn ops_per_second(ops: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    ops as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that flip the process-global [`ENABLED`] switch or
    /// assert exact deltas on the process-wide counters: without it,
    /// `disabled_recording_is_a_noop`'s exact-zero asserts race against a
    /// concurrent test enabling recording (or recording counters of its own)
    /// inside the measurement window.
    static RECORDING_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn recording_lock() -> std::sync::MutexGuard<'static, ()> {
        RECORDING_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn counters_have_unique_indices() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.index()), "duplicate index for {c:?}");
        }
        assert_eq!(seen.len(), Counter::COUNT);
    }

    #[test]
    fn counter_names_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            let name = c.name();
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch == '_' || ch.is_ascii_digit()));
        }
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let _serial = recording_lock();
        set_enabled(false);
        let before = snapshot();
        record(Counter::PtrRead);
        add(Counter::CasAttempt, 10);
        let delta = snapshot().since(&before);
        // Exact zeros are sound only while `recording_lock` is held: it keeps the
        // other recording tests (the only recorders in this binary) out of the
        // window, so nothing can flip `ENABLED` back on or inflate the counters.
        assert_eq!(delta.get(Counter::PtrRead), 0);
        assert_eq!(delta.get(Counter::CasAttempt), 0);
    }

    #[test]
    fn a_thread_snapshot_sees_only_its_own_thread() {
        let _serial = recording_lock();
        set_enabled(true);
        let before = thread_snapshot();
        add(Counter::HashOp, 3);
        std::thread::spawn(|| add(Counter::HashOp, 100))
            .join()
            .expect("recorder thread");
        let delta = thread_snapshot().since(&before);
        set_enabled(false);
        assert_eq!(delta.get(Counter::HashOp), 3);
    }

    #[test]
    fn enabled_recording_accumulates() {
        let _serial = recording_lock();
        let (_, delta) = measure(|| {
            record(Counter::PtrRead);
            record(Counter::PtrRead);
            add(Counter::HashOp, 5);
        });
        assert!(delta.get(Counter::PtrRead) >= 2);
        assert!(delta.get(Counter::HashOp) >= 5);
        assert!(delta.traversal_steps() >= 7);
    }

    #[test]
    fn snapshot_since_saturates() {
        let mut a = Snapshot::default();
        let mut b = Snapshot::default();
        a.values[0] = 5;
        b.values[0] = 10;
        assert_eq!(a.since(&b).values[0], 0);
        assert_eq!(b.since(&a).values[0], 5);
    }

    #[test]
    fn snapshot_display_mentions_nonzero_counters() {
        let mut s = Snapshot::default();
        s.values[Counter::PtrRead.index()] = 3;
        let text = s.to_string();
        assert!(text.contains("ptr_read=3"));
    }

    #[test]
    fn multi_threaded_recording_is_aggregated() {
        let _serial = recording_lock();
        set_enabled(true);
        let before = snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        record(Counter::CasAttempt);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let delta = snapshot().since(&before);
        set_enabled(false);
        assert!(delta.get(Counter::CasAttempt) >= 400);
    }

    #[test]
    fn summary_tracks_mean_min_max() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0] {
            s.observe(v);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);

        let mut t = Summary::new();
        t.observe(10.0);
        s.merge(&t);
        assert_eq!(s.count(), 4);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn ops_per_second_handles_zero_duration() {
        assert!(ops_per_second(10, Duration::ZERO).is_infinite());
        let rate = ops_per_second(1000, Duration::from_secs(2));
        assert!((rate - 500.0).abs() < 1e-9);
    }
}
