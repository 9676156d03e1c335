//! The closed-loop runner of the direct workloads: a fixed set of threads call
//! the structure's public methods back to back through a warm-up of a fixed
//! operation count and then through timed slices, checking every result.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use skiptrie::{ShardedSkipTrie, SkipTrie, TieredSkipTrie};
use skiptrie_baselines::LockedBTreeMap;
use skiptrie_metrics::Snapshot;

use crate::gen::{key, Class, Mix, Op, OpGen, CLASSES};
use crate::oracle::{self, Model, ScanCheck};
use crate::trace::Span;

/// The operations a workload issues, as the structure's own public methods.
pub trait Target: Sync {
    fn get(&self, key: u64) -> Option<u64>;
    fn predecessor(&self, bound: u64) -> Option<(u64, u64)>;
    fn insert(&self, key: u64, value: u64) -> bool;
    fn remove(&self, key: u64) -> Option<u64>;
    /// Visits up to `limit` entries with key `>= from`, ascending.
    fn scan(&self, from: u64, limit: usize, visit: impl FnMut(u64, u64));
}

macro_rules! forward_target {
    ($ty:ty) => {
        impl Target for $ty {
            fn get(&self, key: u64) -> Option<u64> {
                <$ty>::get(self, key)
            }
            fn predecessor(&self, bound: u64) -> Option<(u64, u64)> {
                <$ty>::predecessor(self, bound)
            }
            fn insert(&self, key: u64, value: u64) -> bool {
                <$ty>::insert(self, key, value)
            }
            fn remove(&self, key: u64) -> Option<u64> {
                <$ty>::remove(self, key)
            }
            fn scan(&self, from: u64, limit: usize, mut visit: impl FnMut(u64, u64)) {
                for (k, v) in self.range(from..).take(limit) {
                    visit(k, v);
                }
            }
        }
    };
}

forward_target!(SkipTrie<u64>);
forward_target!(ShardedSkipTrie<u64, TieredSkipTrie<u64>>);

/// The yardstick. Its `range` copies the whole tail out under the lock, so a
/// bounded scan goes through `scan`, which only counts: entries are not
/// visited and the per-entry checks do not apply.
impl Target for LockedBTreeMap<u64> {
    fn get(&self, key: u64) -> Option<u64> {
        LockedBTreeMap::get(self, key)
    }
    fn predecessor(&self, bound: u64) -> Option<(u64, u64)> {
        LockedBTreeMap::predecessor(self, bound)
    }
    fn insert(&self, key: u64, value: u64) -> bool {
        LockedBTreeMap::insert(self, key, value)
    }
    fn remove(&self, key: u64) -> Option<u64> {
        LockedBTreeMap::remove(self, key)
    }
    fn scan(&self, from: u64, limit: usize, _visit: impl FnMut(u64, u64)) {
        std::hint::black_box(LockedBTreeMap::scan(self, from, limit));
    }
}

/// Entries a scan asks for.
pub const SCAN_LIMIT: usize = 64;

/// One operation in this many is timed in a class that makes up at least a
/// tenth of the mix; rarer classes are timed every time, so that every slice
/// supports a p99.
pub const SAMPLE_EVERY: u64 = 16;

/// Spans kept per thread in a traced slice; every operation is still timed.
const SPAN_CAP: usize = 50_000;

pub struct Spec {
    pub mix: Mix,
    /// Working-set size in indices; half of them are present at any time.
    pub w: u64,
    pub threads: u64,
    /// Operations of the warm-up, over all threads; fixed, so that the
    /// structure measured has always aged by the same amount.
    pub warmup_ops: u64,
}

impl Spec {
    fn share(&self, class: Class) -> u32 {
        match class {
            Class::Read => self.mix.get + self.mix.pred,
            Class::Write => self.mix.insert + self.mix.remove,
            Class::Scan => self.mix.scan,
        }
    }

    fn strides(&self) -> [u64; 3] {
        CLASSES.map(|c| {
            if self.share(c) >= 100 {
                SAMPLE_EVERY
            } else {
                1
            }
        })
    }
}

/// What one slice measures with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlicePlan {
    pub len: Duration,
    /// `skiptrie_metrics` counters on for this slice.
    pub counters: bool,
    /// Every operation timed and (up to a cap) recorded as a span.
    pub traced: bool,
}

/// One slice, merged over threads.
pub struct Slice {
    pub ops: u64,
    /// Sum over threads of operations per second of that thread's own slice.
    pub ops_per_s: f64,
    /// Ascending latency samples per class, in ns.
    pub samples: [Vec<u32>; 3],
}

pub struct Run {
    pub warmup_s: f64,
    pub slices: Vec<Slice>,
    /// Counter snapshots at the slice boundaries (one more than slices).
    pub counters: Vec<Snapshot>,
    pub attempted: u64,
    pub mismatches: u64,
    /// The writers' models after the last slice.
    pub models: Vec<Model>,
    pub spans: Vec<Span>,
}

const STOP: u32 = u32::MAX;

#[derive(Clone, Copy)]
enum Timing {
    /// The warm-up takes no samples.
    Off,
    /// One operation in the class's stride.
    Sampled,
    /// A traced slice times every operation.
    All,
}

struct ThreadSlice {
    ops: u64,
    elapsed: Duration,
    samples: [Vec<u32>; 3],
}

struct Worker<'a, T> {
    target: &'a T,
    gen: OpGen,
    model: Model,
    threads: u64,
    thread: u64,
    strides: [u64; 3],
    issued: [u64; 3],
    mismatches: u64,
    trace_clock: Instant,
    spans: Vec<Span>,
}

impl<T: Target> Worker<'_, T> {
    /// Runs one operation. Returns its class and, if it was timed, its start
    /// and duration in ns on the trace clock.
    #[inline]
    fn step(&mut self, timing: Timing) -> (Class, Option<(u64, u32)>) {
        let op = self.gen.next().expect("operation streams are endless");
        let class = op.class();
        let c = class as usize;
        let timed = match timing {
            Timing::Off => false,
            Timing::Sampled => self.issued[c].is_multiple_of(self.strides[c]),
            Timing::All => true,
        };
        self.issued[c] += 1;
        let start = timed.then(Instant::now);
        // The clock stops before a point result is checked; a scan is checked
        // as it streams, which is a few compares beside each entry's read.
        let stop = || start.map(|s| s.elapsed());
        let (ok, took) = match op {
            Op::Get(i) => {
                let got = self.target.get(key(i));
                let took = stop();
                let covered = i % self.threads == self.thread;
                (oracle::check_get(&self.model, covered, i, got), took)
            }
            Op::Pred(bound) => {
                let got = self.target.predecessor(bound);
                let took = stop();
                (oracle::check_pred(bound, got), took)
            }
            Op::Insert(i) => {
                let inserted = self.target.insert(key(i), i);
                let took = stop();
                (oracle::check_insert(&mut self.model, i, inserted), took)
            }
            Op::Remove(i) => {
                let removed = self.target.remove(key(i));
                let took = stop();
                (oracle::check_remove(&mut self.model, i, removed), took)
            }
            Op::Scan(from) => {
                let mut check = ScanCheck::new(from, SCAN_LIMIT);
                self.target.scan(from, SCAN_LIMIT, |k, v| check.visit(k, v));
                (check.finish(), stop())
            }
        };
        self.mismatches += !ok as u64;
        let timing = start.zip(took).map(|(s, d)| {
            let at = s.duration_since(self.trace_clock).as_nanos() as u64;
            (at, d.as_nanos().min(u32::MAX as u128) as u32)
        });
        (class, timing)
    }
}

/// Runs `spec` against `target` with per-thread streams seeded from `seed`:
/// warm-up, a pause in which `at_rest` sees the structure with every worker
/// parked, then the planned slices.
pub fn run<T: Target>(
    target: &T,
    spec: &Spec,
    seed: u64,
    plan: &[SlicePlan],
    at_rest: impl FnOnce(),
) -> Run {
    let threads = spec.threads as usize;
    let phase = AtomicU32::new(0);
    let barrier = Barrier::new(threads + 1);
    let trace_clock = Instant::now();
    let strides = spec.strides();
    let warmup_each = spec.warmup_ops / spec.threads;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|thread| {
                let (phase, barrier) = (&phase, &barrier);
                let mut worker = Worker {
                    target,
                    gen: OpGen::new(seed, spec.mix, spec.w, spec.threads, thread),
                    model: Model::prefilled(spec.w, spec.threads, thread),
                    threads: spec.threads,
                    thread,
                    strides,
                    issued: [0; 3],
                    mismatches: 0,
                    trace_clock,
                    spans: Vec::new(),
                };
                scope.spawn(move || {
                    // The warm-up is driven by count, not by the clock.
                    for _ in 0..warmup_each {
                        worker.step(Timing::Off);
                    }
                    barrier.wait();
                    barrier.wait();
                    let mut slices: Vec<ThreadSlice> = Vec::new();
                    let mut current = phase.load(Ordering::Acquire);
                    while current != STOP {
                        let traced = plan[current as usize - 1].traced;
                        let timing = if traced { Timing::All } else { Timing::Sampled };
                        let mut ops = 0u64;
                        let mut samples: [Vec<u32>; 3] = Default::default();
                        let started = Instant::now();
                        let next = loop {
                            let (class, timed) = worker.step(timing);
                            ops += 1;
                            if let Some((at, took)) = timed {
                                samples[class as usize].push(took);
                                if traced && worker.spans.len() < SPAN_CAP {
                                    worker.spans.push(Span {
                                        name: ["op.read", "op.write", "op.scan"][class as usize],
                                        start_ns: at,
                                        end_ns: at + took as u64,
                                        parent: None,
                                        request: thread << 32 | worker.spans.len() as u64,
                                    });
                                }
                            }
                            let now = phase.load(Ordering::Relaxed);
                            if now != current {
                                break now;
                            }
                        };
                        slices.push(ThreadSlice {
                            ops,
                            elapsed: started.elapsed(),
                            samples,
                        });
                        current = next;
                    }
                    (slices, worker)
                })
            })
            .collect();

        // Warm-up ends when the last worker reaches the barrier.
        barrier.wait();
        let warmup_s = trace_clock.elapsed().as_secs_f64();
        at_rest();

        let mut counters = Vec::with_capacity(plan.len() + 1);
        skiptrie_metrics::set_enabled(plan.first().is_some_and(|p| p.counters));
        counters.push(skiptrie_metrics::snapshot());
        phase.store(if plan.is_empty() { STOP } else { 1 }, Ordering::Release);
        barrier.wait();
        for (i, slice) in plan.iter().enumerate() {
            std::thread::sleep(slice.len);
            // Counters follow the plan of the slice about to start; the
            // snapshot closes the slice that just ran.
            let next_on = plan.get(i + 1).is_some_and(|p| p.counters);
            skiptrie_metrics::set_enabled(next_on);
            counters.push(skiptrie_metrics::snapshot());
            let next = if i + 1 == plan.len() {
                STOP
            } else {
                i as u32 + 2
            };
            phase.store(next, Ordering::Release);
        }

        let mut slices: Vec<Slice> = plan
            .iter()
            .map(|_| Slice {
                ops: 0,
                ops_per_s: 0.0,
                samples: Default::default(),
            })
            .collect();
        let mut run = Run {
            warmup_s,
            slices: Vec::new(),
            counters,
            attempted: warmup_each * spec.threads,
            mismatches: 0,
            models: Vec::new(),
            spans: Vec::new(),
        };
        for handle in handles {
            let (thread_slices, worker) = handle.join().expect("a workload thread panicked");
            for (into, from) in slices.iter_mut().zip(thread_slices) {
                into.ops += from.ops;
                into.ops_per_s += from.ops as f64 / from.elapsed.as_secs_f64();
                for (all, part) in into.samples.iter_mut().zip(from.samples) {
                    all.extend(part);
                }
            }
            run.mismatches += worker.mismatches;
            run.models.push(worker.model);
            run.spans.extend(worker.spans);
        }
        for slice in &mut slices {
            run.attempted += slice.ops;
            for samples in &mut slice.samples {
                samples.sort_unstable();
            }
        }
        run.slices = slices;
        run
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::prefill_entries;

    const MIX: Mix = Mix {
        get: 200,
        pred: 290,
        insert: 250,
        remove: 250,
        scan: 10,
    };

    fn spec() -> Spec {
        Spec {
            mix: MIX,
            w: 1 << 10,
            threads: 2,
            warmup_ops: 2_000,
        }
    }

    #[test]
    fn a_correct_structure_passes_every_check_and_the_final_state_matches() {
        let map = LockedBTreeMap::new();
        for (k, v) in prefill_entries(1 << 10) {
            map.insert(k, v);
        }
        let plan = [SlicePlan {
            len: Duration::from_millis(30),
            ..Default::default()
        }; 2];
        let run = run(&map, &spec(), 5, &plan, || {});
        assert_eq!(run.mismatches, 0);
        assert_eq!(run.slices.len(), 2);
        assert_eq!(run.counters.len(), 3);
        assert!(run.slices.iter().all(|s| s.ops > 0 && s.ops_per_s > 0.0));
        // Rare scans are all timed; common classes one in sixteen.
        let timed_reads: usize = run.slices.iter().map(|s| s.samples[0].len()).sum();
        let all: u64 = run.slices.iter().map(|s| s.ops).sum();
        assert!(timed_reads as u64 <= all / 16);
        assert_eq!(run.attempted, 2_000 + all);
        let expected = Model::union(&run.models);
        assert_eq!(
            oracle::final_mismatches(&expected, map.len(), map.to_vec().into_iter()),
            0
        );
    }

    /// A map that forgets one insert in a thousand is caught twice: by the
    /// writer's exact check of a later operation and by the final comparison.
    struct Lossy(LockedBTreeMap<u64>, std::sync::atomic::AtomicU64);

    impl Target for Lossy {
        fn get(&self, key: u64) -> Option<u64> {
            self.0.get(key)
        }
        fn predecessor(&self, bound: u64) -> Option<(u64, u64)> {
            Target::predecessor(&self.0, bound)
        }
        fn insert(&self, key: u64, value: u64) -> bool {
            if self.1.fetch_add(1, Ordering::Relaxed) % 1000 == 999 {
                return !self.0.contains(key);
            }
            self.0.insert(key, value)
        }
        fn remove(&self, key: u64) -> Option<u64> {
            self.0.remove(key)
        }
        fn scan(&self, from: u64, limit: usize, visit: impl FnMut(u64, u64)) {
            Target::scan(&self.0, from, limit, visit)
        }
    }

    #[test]
    fn a_structure_that_loses_keys_is_caught() {
        let lossy = Lossy(LockedBTreeMap::new(), Default::default());
        for (k, v) in prefill_entries(1 << 10) {
            lossy.0.insert(k, v);
        }
        let mut spec = spec();
        spec.warmup_ops = 200_000;
        let run = run(&lossy, &spec, 5, &[], || {});
        assert!(
            run.mismatches > 0,
            "a lost insert must surface in a later check"
        );
    }
}
