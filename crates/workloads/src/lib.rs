//! Deterministic workload generation for the SkipTrie experiments.
//!
//! The `experiments` bin drives every structure with a [`WorkloadSpec`]: a key
//! distribution ([`KeyDist`]), an operation mix ([`OpMix`]), a prefill size and a
//! per-thread operation count, all derived deterministically from a seed so that runs
//! are reproducible and every structure under comparison sees exactly the same
//! operation streams.

#![warn(missing_docs)]

pub mod harness;
pub mod load;
mod rng;

pub use load::{Arrivals, Pacing};
pub use rng::SplitMix64;

/// How keys are drawn from the universe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniformly random keys over the full `universe_bits`-bit universe.
    Uniform,
    /// Uniform keys restricted to a small window of `range` consecutive values —
    /// the high-contention rows of the `sweep` experiment.
    HotRange {
        /// Width of the hot window.
        range: u64,
    },
    /// Uniform draws from a fixed working set of `working_set` distinct keys
    /// *scattered* across the whole universe (a Fibonacci-hash spread of the indices
    /// `0..working_set`). Unlike [`KeyDist::HotRange`] the keys are not consecutive,
    /// so the structure keeps its natural sparse shape, but removes hit with
    /// probability equal to the steady-state occupancy — the churn rows of the
    /// `sweep` experiment, where updates must actually retire nodes.
    ScatteredSet {
        /// Number of distinct keys in the working set.
        working_set: u64,
    },
}

impl KeyDist {
    /// Draws a key from the distribution within a `universe_bits`-bit universe.
    pub fn sample(&self, rng: &mut SplitMix64, universe_bits: u32) -> u64 {
        let max = if universe_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << universe_bits) - 1
        };
        match *self {
            KeyDist::Uniform => rng.next() & max,
            KeyDist::HotRange { range } => rng.next() % range.max(1),
            KeyDist::ScatteredSet { working_set } => {
                let index = rng.next() % working_set.max(1);
                // Fibonacci hashing spreads consecutive indices across the universe
                // deterministically (and injectively for universes of 2^k keys, since
                // the multiplier is odd).
                index.wrapping_mul(0x9E37_79B9_7F4A_7C15) & max
            }
        }
    }

    /// How many distinct keys [`KeyDist::sample`] can yield in a
    /// `universe_bits`-bit universe, saturating at `u64::MAX`.
    fn distinct_keys(&self, universe_bits: u32) -> u64 {
        let universe = 1u64.checked_shl(universe_bits).unwrap_or(u64::MAX);
        match *self {
            KeyDist::Uniform => universe,
            KeyDist::HotRange { range } => range.max(1),
            KeyDist::ScatteredSet { working_set } => working_set.max(1).min(universe),
        }
    }
}

/// Relative frequencies of the four operations, in percent (must sum to 100).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Percentage of predecessor queries.
    pub predecessor_pct: u8,
    /// Percentage of insertions.
    pub insert_pct: u8,
    /// Percentage of removals.
    pub remove_pct: u8,
    /// Percentage of bounded range scans (see [`Op::Scan`]).
    pub scan_pct: u8,
}

/// Largest per-scan entry budget generated for [`Op::Scan`] (the actual limit is
/// drawn uniformly from `1..=MAX_SCAN_LIMIT` so the mix exercises short peeks and
/// long walks alike).
pub const MAX_SCAN_LIMIT: usize = 128;

impl OpMix {
    /// 90% predecessor / 9% insert / 1% remove — the read-heavy mix.
    pub const READ_HEAVY: OpMix = OpMix {
        predecessor_pct: 90,
        insert_pct: 9,
        remove_pct: 1,
        scan_pct: 0,
    };
    /// 50% predecessor / 25% insert / 25% remove — the update-heavy mix (the one
    /// Theorem 4.3's contention term is measured under).
    pub const UPDATE_HEAVY: OpMix = OpMix {
        predecessor_pct: 50,
        insert_pct: 25,
        remove_pct: 25,
        scan_pct: 0,
    };
    /// 100% predecessor queries (E1/E2 step-count measurements).
    pub const READ_ONLY: OpMix = OpMix {
        predecessor_pct: 100,
        insert_pct: 0,
        remove_pct: 0,
        scan_pct: 0,
    };
    /// 50% insert / 50% remove churn (E3 amortized-update measurements).
    pub const CHURN: OpMix = OpMix {
        predecessor_pct: 0,
        insert_pct: 50,
        remove_pct: 50,
        scan_pct: 0,
    };
    /// 95% predecessor / 4% insert / 1% remove — the read-mostly mix: steady-state
    /// serving traffic, the regime the tiered read path is built for.
    pub const READ_MOSTLY: OpMix = OpMix {
        predecessor_pct: 95,
        insert_pct: 4,
        remove_pct: 1,
        scan_pct: 0,
    };
    /// 50% range scans / 20% insert / 20% remove / 10% predecessor — the scan-heavy
    /// mix (calendar-queue / routing-table shaped traffic: windows are walked while
    /// the key population churns underneath).
    pub const SCAN_HEAVY: OpMix = OpMix {
        predecessor_pct: 10,
        insert_pct: 20,
        remove_pct: 20,
        scan_pct: 50,
    };

    /// Validates that the percentages sum to 100.
    pub fn is_valid(&self) -> bool {
        self.predecessor_pct as u16
            + self.insert_pct as u16
            + self.remove_pct as u16
            + self.scan_pct as u16
            == 100
    }

    fn pick(&self, roll: u64) -> OpKind {
        let r = (roll % 100) as u8;
        if r < self.predecessor_pct {
            OpKind::Predecessor
        } else if r < self.predecessor_pct + self.insert_pct {
            OpKind::Insert
        } else if r < self.predecessor_pct + self.insert_pct + self.remove_pct {
            OpKind::Remove
        } else {
            OpKind::Scan
        }
    }
}

/// One operation of a generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert the key (value = key).
    Insert(u64),
    /// Remove the key.
    Remove(u64),
    /// Predecessor query for the key.
    Predecessor(u64),
    /// Ordered scan of up to `limit` entries with keys `>= from`.
    Scan {
        /// Inclusive lower bound of the scan.
        from: u64,
        /// Maximum number of entries to visit (`1..=MAX_SCAN_LIMIT`).
        limit: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Insert,
    Remove,
    Predecessor,
    Scan,
}

/// A complete, reproducible experiment workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Width of the key universe in bits.
    pub universe_bits: u32,
    /// Number of keys inserted before measurement starts.
    pub prefill: usize,
    /// Operations generated per thread.
    pub ops_per_thread: usize,
    /// Number of worker threads.
    pub threads: usize,
    /// Key distribution.
    pub dist: KeyDist,
    /// Operation mix.
    pub mix: OpMix,
    /// Master seed; thread `i` derives its stream from `seed + i + 1`.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A convenient single-threaded read-only spec used by the step-count experiments.
    pub fn read_only(universe_bits: u32, prefill: usize, queries: usize, seed: u64) -> Self {
        WorkloadSpec {
            universe_bits,
            prefill,
            ops_per_thread: queries,
            threads: 1,
            dist: KeyDist::Uniform,
            mix: OpMix::READ_ONLY,
            seed,
        }
    }

    /// The prefill as sorted, strictly increasing `(key, value = key)` entries —
    /// exactly the input shape the bulk loaders (`SkipTrie::bulk_load`,
    /// `ShardedSkipTrie::bulk_load`) consume, and byte-for-byte the key set
    /// [`WorkloadSpec::prefill_keys`] would insert one at a time.
    pub fn sorted_prefill_entries(&self) -> Vec<(u64, u64)> {
        let mut keys = self.prefill_keys();
        keys.sort_unstable();
        keys.into_iter().map(|k| (k, k)).collect()
    }

    /// The keys inserted during the prefill phase (deterministic, duplicate-free):
    /// `prefill` of them, or every key the distribution can yield when that is
    /// fewer — a 64-key [`KeyDist::HotRange`] prefills at most 64 keys however
    /// many are asked for.
    pub fn prefill_keys(&self) -> Vec<u64> {
        let mut rng = SplitMix64::new(self.seed ^ 0xbeef_cafe_f00d_0001);
        let distinct = self.dist.distinct_keys(self.universe_bits);
        let wanted = self
            .prefill
            .min(usize::try_from(distinct).unwrap_or(usize::MAX));
        let mut keys = Vec::with_capacity(wanted);
        let mut seen = std::collections::HashSet::with_capacity(wanted * 2);
        while keys.len() < wanted {
            let k = self.dist.sample(&mut rng, self.universe_bits);
            if seen.insert(k) {
                keys.push(k);
            }
        }
        keys
    }

    /// The operation stream for thread `thread` (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `thread >= self.threads` or the operation mix is invalid.
    pub fn thread_ops(&self, thread: usize) -> Vec<Op> {
        assert!(thread < self.threads, "thread index out of range");
        assert!(self.mix.is_valid(), "operation mix must sum to 100");
        let mut rng = SplitMix64::new(self.seed.wrapping_add(thread as u64 + 1));
        (0..self.ops_per_thread)
            .map(|_| {
                let kind = self.mix.pick(rng.next());
                let key = self.dist.sample(&mut rng, self.universe_bits);
                match kind {
                    OpKind::Insert => Op::Insert(key),
                    OpKind::Remove => Op::Remove(key),
                    OpKind::Predecessor => Op::Predecessor(key),
                    OpKind::Scan => Op::Scan {
                        from: key,
                        limit: 1 + (rng.next() % MAX_SCAN_LIMIT as u64) as usize,
                    },
                }
            })
            .collect()
    }

    /// Total number of generated operations across all threads.
    pub fn total_ops(&self) -> usize {
        self.ops_per_thread * self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mixes_are_valid() {
        for mix in [
            OpMix::READ_HEAVY,
            OpMix::UPDATE_HEAVY,
            OpMix::READ_ONLY,
            OpMix::READ_MOSTLY,
            OpMix::CHURN,
            OpMix::SCAN_HEAVY,
        ] {
            assert!(mix.is_valid());
        }
        assert!(!OpMix {
            predecessor_pct: 50,
            insert_pct: 10,
            remove_pct: 10,
            scan_pct: 0,
        }
        .is_valid());
    }

    #[test]
    fn mix_pick_respects_ratios() {
        let mix = OpMix::READ_HEAVY;
        let mut rng = SplitMix64::new(1);
        let mut counts = [0usize; 4];
        for _ in 0..100_000 {
            match mix.pick(rng.next()) {
                OpKind::Predecessor => counts[0] += 1,
                OpKind::Insert => counts[1] += 1,
                OpKind::Remove => counts[2] += 1,
                OpKind::Scan => counts[3] += 1,
            }
        }
        let pred_frac = counts[0] as f64 / 100_000.0;
        assert!((0.88..0.92).contains(&pred_frac), "{pred_frac}");
        assert_eq!(counts[3], 0, "READ_HEAVY generates no scans");
    }

    #[test]
    fn workload_is_deterministic_and_per_thread_distinct() {
        let spec = WorkloadSpec {
            universe_bits: 32,
            prefill: 100,
            ops_per_thread: 500,
            threads: 4,
            dist: KeyDist::Uniform,
            mix: OpMix::UPDATE_HEAVY,
            seed: 42,
        };
        assert_eq!(spec.thread_ops(0), spec.thread_ops(0));
        assert_ne!(spec.thread_ops(0), spec.thread_ops(1));
        assert_eq!(spec.prefill_keys(), spec.prefill_keys());
        assert_eq!(spec.prefill_keys().len(), 100);
        assert_eq!(spec.total_ops(), 2_000);
    }

    #[test]
    fn sorted_prefill_entries_are_the_prefill_keys_sorted() {
        let spec = WorkloadSpec::read_only(20, 2_000, 0, 77);
        let entries = spec.sorted_prefill_entries();
        assert_eq!(entries.len(), 2_000);
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "strictly increasing — the bulk loaders' input contract"
        );
        assert!(entries.iter().all(|&(k, v)| k == v && k < (1 << 20)));
        // Same key *set* as the one-at-a-time prefill, just sorted.
        let mut unsorted = spec.prefill_keys();
        unsorted.sort_unstable();
        let sorted_keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
        assert_eq!(sorted_keys, unsorted);
    }

    #[test]
    fn prefill_keys_are_unique_and_in_universe() {
        let spec = WorkloadSpec {
            universe_bits: 16,
            prefill: 5_000,
            ops_per_thread: 0,
            threads: 1,
            dist: KeyDist::Uniform,
            mix: OpMix::READ_ONLY,
            seed: 7,
        };
        let keys = spec.prefill_keys();
        let unique: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len());
        assert!(keys.iter().all(|k| *k < (1 << 16)));
    }

    #[test]
    fn prefill_stops_at_the_distributions_support() {
        // The sweep's hot-range rows: more prefill keys asked for than the range holds. The
        // call runs on a helper thread so a regression fails here at the
        // deadline instead of hanging the suite.
        let spec = WorkloadSpec {
            universe_bits: 32,
            prefill: 1_000,
            ops_per_thread: 0,
            threads: 1,
            dist: KeyDist::HotRange { range: 64 },
            mix: OpMix::UPDATE_HEAVY,
            seed: 0xE4,
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || tx.send(spec.prefill_keys()));
        let mut keys = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("prefill_keys must terminate when prefill exceeds the key range");
        helper.join().unwrap().unwrap();
        keys.sort_unstable();
        assert_eq!(keys, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn distributions_stay_in_universe() {
        let mut rng = SplitMix64::new(3);
        for dist in [
            KeyDist::Uniform,
            KeyDist::HotRange { range: 64 },
            KeyDist::ScatteredSet { working_set: 500 },
        ] {
            for _ in 0..10_000 {
                let k = dist.sample(&mut rng, 20);
                assert!(k < (1 << 20), "{dist:?} produced out-of-universe key {k}");
            }
        }
    }

    #[test]
    fn scattered_set_is_bounded_but_not_dense() {
        let dist = KeyDist::ScatteredSet { working_set: 256 };
        let mut rng = SplitMix64::new(11);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            seen.insert(dist.sample(&mut rng, 32));
        }
        // Bounded working set (each distinct index maps to one distinct key)...
        assert!(seen.len() <= 256);
        assert!(seen.len() > 200, "10k draws cover most of a 256-key set");
        // ...but scattered: consecutive keys would span a range of ~256; the spread
        // must cover a large fraction of the 2^32 universe instead.
        let span = seen.last().unwrap() - seen.first().unwrap();
        assert!(
            span > 1 << 30,
            "keys are spread across the universe: {span}"
        );
    }

    #[test]
    fn hot_range_is_actually_hot() {
        let dist = KeyDist::HotRange { range: 8 };
        let mut rng = SplitMix64::new(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            seen.insert(dist.sample(&mut rng, 32));
        }
        assert!(seen.len() <= 8);
    }

    #[test]
    fn scan_heavy_generates_bounded_scans() {
        let spec = WorkloadSpec {
            universe_bits: 20,
            prefill: 0,
            ops_per_thread: 2_000,
            threads: 1,
            dist: KeyDist::Uniform,
            mix: OpMix::SCAN_HEAVY,
            seed: 5,
        };
        let ops = spec.thread_ops(0);
        let scans = ops
            .iter()
            .filter(|op| matches!(op, Op::Scan { .. }))
            .count();
        assert!(
            (800..1_200).contains(&scans),
            "~50% of a SCAN_HEAVY stream is scans: {scans}"
        );
        for op in &ops {
            if let Op::Scan { from, limit } = op {
                assert!((1..=MAX_SCAN_LIMIT).contains(limit), "limit {limit}");
                assert!(*from < (1 << 20), "scan start in universe");
            }
        }
    }

    #[test]
    #[should_panic(expected = "thread index out of range")]
    fn thread_index_is_validated() {
        let spec = WorkloadSpec::read_only(32, 0, 10, 1);
        let _ = spec.thread_ops(5);
    }
}
