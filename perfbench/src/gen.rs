//! Input generation: the index→key map every workload shares and the seeded
//! per-thread operation streams. The structures under test receive only what
//! this module generates.

use skiptrie_workloads::harness::worker_rng;
use skiptrie_workloads::SplitMix64;

/// Every workload runs over `u = 2^32`.
pub const UNIVERSE_BITS: u32 = 32;
const KEY_MASK: u64 = (1 << UNIVERSE_BITS) - 1;

/// Key of index `i`: an odd multiplier modulo `2^32`, so distinct indices below
/// `2^32` get distinct keys scattered over the whole universe. The value stored
/// under `key(i)` is always `i`, which makes any returned `(k, v)` checkable as
/// `key(v) == k` without a model.
pub fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & KEY_MASK
}

/// Indices present after the bulk build: half of every thread's indices
/// (threads own residues modulo the thread count, so bit 1 splits each
/// residue class evenly), which makes inserts and removes each succeed half
/// the time from the first operation on.
pub fn prefilled(i: u64) -> bool {
    i & 2 == 0
}

/// The sorted `(key, value)` entries a working set of `w` indices is built from.
pub fn prefill_entries(w: u64) -> Vec<(u64, u64)> {
    let mut entries: Vec<(u64, u64)> = (0..w)
        .filter(|&i| prefilled(i))
        .map(|i| (key(i), i))
        .collect();
    entries.sort_unstable();
    entries
}

/// Operation shares per mille; they sum to 1000.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    pub get: u32,
    pub pred: u32,
    pub insert: u32,
    pub remove: u32,
    pub scan: u32,
}

impl Mix {
    pub const fn total(&self) -> u32 {
        self.get + self.pred + self.insert + self.remove + self.scan
    }
}

/// One generated operation. Point operations carry an index into the working
/// set; ordered operations carry a bound drawn uniformly from the universe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Pred(u64),
    Insert(u64),
    Remove(u64),
    Scan(u64),
}

/// Latency classes of the end-to-end metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Write = 1,
    Scan = 2,
}

pub const CLASSES: [Class; 3] = [Class::Read, Class::Write, Class::Scan];

impl Class {
    pub fn label(self) -> &'static str {
        ["read", "write", "scan"][self as usize]
    }
}

impl Op {
    pub fn class(self) -> Class {
        match self {
            Op::Get(_) | Op::Pred(_) => Class::Read,
            Op::Insert(_) | Op::Remove(_) => Class::Write,
            Op::Scan(_) => Class::Scan,
        }
    }
}

/// The deterministic operation stream of one thread: the same `(seed, thread)`
/// always yields the same operations.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: SplitMix64,
    mix: Mix,
    w: u64,
    threads: u64,
    thread: u64,
}

impl OpGen {
    /// Stream of thread `thread` of `threads` over a working set of `w`
    /// indices. Writes touch only indices congruent to `thread` modulo
    /// `threads`, so each thread can model its own indices exactly.
    pub fn new(seed: u64, mix: Mix, w: u64, threads: u64, thread: u64) -> Self {
        assert_eq!(mix.total(), 1000, "operation shares are per mille");
        assert!(w.is_multiple_of(threads) && w >= 4 * threads);
        OpGen {
            rng: worker_rng(seed, thread as usize),
            mix,
            w,
            threads,
            thread,
        }
    }

    fn owned(&self, draw: u64) -> u64 {
        (draw % (self.w / self.threads)) * self.threads + self.thread
    }
}

impl Iterator for OpGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let r = self.rng.next();
        // Low bits choose the operation, the high 32 its argument.
        let kind = (r % 1000) as u32;
        let draw = r >> 32;
        let m = self.mix;
        Some(if kind < m.get {
            Op::Get(draw % self.w)
        } else if kind < m.get + m.pred {
            Op::Pred(draw)
        } else if kind < m.get + m.pred + m.insert {
            Op::Insert(self.owned(draw))
        } else if kind < m.get + m.pred + m.insert + m.remove {
            Op::Remove(self.owned(draw))
        } else {
            Op::Scan(draw)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        get: 200,
        pred: 200,
        insert: 200,
        remove: 200,
        scan: 200,
    };

    #[test]
    fn keys_are_distinct_and_inside_the_universe() {
        let mut keys: Vec<u64> = (0..1 << 16).map(key).collect();
        assert!(keys.iter().all(|&k| k <= KEY_MASK));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 1 << 16);
    }

    #[test]
    fn prefill_is_sorted_and_half_of_each_threads_indices() {
        let entries = prefill_entries(1 << 10);
        assert_eq!(entries.len(), 1 << 9);
        assert!(entries.windows(2).all(|p| p[0].0 < p[1].0));
        assert!(entries.iter().all(|&(k, v)| key(v) == k && prefilled(v)));
        for thread in 0..2 {
            let owned = entries.iter().filter(|e| e.1 % 2 == thread).count();
            assert_eq!(owned, 1 << 8);
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let stream = |seed, thread| -> Vec<Op> {
            OpGen::new(seed, MIX, 1 << 12, 2, thread)
                .take(500)
                .collect()
        };
        assert_eq!(stream(7, 0), stream(7, 0));
        assert_ne!(stream(7, 0), stream(8, 0));
        assert_ne!(stream(7, 0), stream(7, 1));
    }

    #[test]
    fn writes_stay_on_the_threads_own_indices_and_shares_hold() {
        let mut counts = [0u32; 5];
        for op in OpGen::new(3, MIX, 1 << 12, 2, 1).take(50_000) {
            match op {
                Op::Get(i) => {
                    assert!(i < 1 << 12);
                    counts[0] += 1;
                }
                Op::Pred(b) => {
                    assert!(b <= KEY_MASK);
                    counts[1] += 1;
                }
                Op::Insert(i) => {
                    assert!(i % 2 == 1 && i < 1 << 12);
                    counts[2] += 1;
                }
                Op::Remove(i) => {
                    assert!(i % 2 == 1 && i < 1 << 12);
                    counts[3] += 1;
                }
                Op::Scan(_) => counts[4] += 1,
            }
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "share drifted: {counts:?}");
        }
    }
}
