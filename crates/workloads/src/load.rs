//! Open-loop arrival schedules: *when* operations are offered to a system under
//! test.
//!
//! A closed loop ([`harness::Workload`](crate::harness::Workload): each worker
//! issues its next operation the instant the previous one completes) measures
//! capacity, but a slow response slows the load down with it, so the latency it
//! reports under saturation omits the queueing real arrivals would have seen (the
//! coordinated-omission problem). An open loop offers load on a schedule instead:
//!
//! * [`Pacing`] — an arrival process (fixed-rate or Poisson) with a target
//!   aggregate rate.
//! * [`Arrivals`] — the pure, deterministic per-thread schedule of *virtual send
//!   times* that process generates. A driver that never skips an arrival, submits
//!   late when it is behind, and times each request from its scheduled time
//!   measures the omission instead of committing it; `perfbench`'s `serve_open`
//!   workload is that driver.
//!
//! # Example
//!
//! ```
//! use skiptrie_workloads::load::{Arrivals, Pacing};
//!
//! // 50 000 arrivals/s over two driver threads: each fires every 40 µs, the second
//! // half a period after the first.
//! let pacing = Pacing::FixedRate { ops_per_sec: 50_000.0 };
//! let first: Vec<u64> = Arrivals::new(pacing, 2, 0, 42).take(3).collect();
//! let second: Vec<u64> = Arrivals::new(pacing, 2, 1, 42).take(3).collect();
//! assert_eq!(first, [0, 40_000, 80_000]);
//! assert_eq!(second, [20_000, 60_000, 100_000]);
//! ```

use crate::SplitMix64;

/// An open-loop arrival process with a target *aggregate* rate across all
/// driver threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Deterministic arrivals every `1/ops_per_sec` seconds (per-thread streams
    /// are phase-shifted so threads do not fire in lockstep).
    FixedRate {
        /// Aggregate target arrival rate, operations per second.
        ops_per_sec: f64,
    },
    /// Memoryless arrivals: exponential inter-arrival times with mean
    /// `1/ops_per_sec` — the bursty shape real aggregate traffic has, and the
    /// harsher tail-latency test.
    Poisson {
        /// Aggregate target arrival rate, operations per second.
        ops_per_sec: f64,
    },
}

impl Pacing {
    /// The aggregate target rate in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        match *self {
            Pacing::FixedRate { ops_per_sec } | Pacing::Poisson { ops_per_sec } => ops_per_sec,
        }
    }
}

/// The deterministic schedule of virtual send times (nanoseconds from run
/// start) for one driver thread, for harnesses that pace themselves against it.
#[derive(Debug, Clone)]
pub struct Arrivals {
    poisson: bool,
    period_ns: f64,
    next_ns: f64,
    rng: SplitMix64,
}

impl Arrivals {
    /// The arrival schedule of thread `thread` of `threads` under `pacing`.
    ///
    /// Each thread carries `1/threads` of the aggregate rate. Fixed-rate
    /// streams are phase-shifted by `thread / threads` of one per-thread
    /// period; Poisson streams draw from a per-thread deterministic RNG
    /// (seeded from `seed` and `thread`).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite, or `threads == 0`.
    pub fn new(pacing: Pacing, threads: usize, thread: usize, seed: u64) -> Self {
        let rate = pacing.ops_per_sec();
        assert!(
            rate > 0.0 && rate.is_finite(),
            "arrival rate {rate} must be positive and finite"
        );
        assert!(threads > 0, "at least one driver thread");
        let period_ns = 1e9 / (rate / threads as f64);
        let (poisson, first) = match pacing {
            Pacing::FixedRate { .. } => (false, period_ns * (thread as f64 / threads as f64)),
            Pacing::Poisson { .. } => (true, 0.0),
        };
        let mut arrivals = Arrivals {
            poisson,
            period_ns,
            next_ns: first,
            rng: crate::harness::worker_rng(seed, thread),
        };
        if poisson {
            // The first arrival is itself exponentially distributed.
            arrivals.next_ns = arrivals.exp_sample();
        }
        arrivals
    }

    /// One exponential inter-arrival sample with mean `period_ns`.
    fn exp_sample(&mut self) -> f64 {
        // 53 uniform mantissa bits in (0, 1]; the +1 excludes 0 so ln() is finite.
        let u = ((self.rng.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        -u.ln() * self.period_ns
    }
}

impl Iterator for Arrivals {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let at = self.next_ns;
        let step = if self.poisson {
            self.exp_sample()
        } else {
            self.period_ns
        };
        self.next_ns += step;
        Some(at as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_arrivals_are_evenly_spaced() {
        let mut a = Arrivals::new(
            Pacing::FixedRate {
                ops_per_sec: 1000.0,
            },
            1,
            0,
            7,
        );
        let times: Vec<u64> = (&mut a).take(5).collect();
        // 1000 ops/s on one thread = 1ms period, starting at phase 0.
        assert_eq!(times, vec![0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]);
    }

    #[test]
    fn fixed_rate_threads_are_phase_shifted() {
        let first: Vec<u64> = (0..4)
            .map(|t| {
                Arrivals::new(
                    Pacing::FixedRate {
                        ops_per_sec: 1000.0,
                    },
                    4,
                    t,
                    7,
                )
                .next()
                .unwrap()
            })
            .collect();
        // 4 threads at 250 ops/s each = 4ms per-thread period, offset by t/4 of it.
        assert_eq!(first, vec![0, 1_000_000, 2_000_000, 3_000_000]);
    }

    #[test]
    fn poisson_mean_interarrival_matches_rate() {
        let mut a = Arrivals::new(
            Pacing::Poisson {
                ops_per_sec: 10_000.0,
            },
            1,
            0,
            99,
        );
        let n = 20_000usize;
        let mut last = 0u64;
        let mut sum = 0u64;
        for _ in 0..n {
            let t = a.next().unwrap();
            assert!(t >= last, "arrival times are monotone");
            sum += t - last;
            last = t;
        }
        let mean = sum as f64 / n as f64;
        // Period is 100µs; 20k exponential samples keep the sample mean within a
        // few percent with overwhelming probability at this fixed seed.
        assert!(
            (mean - 100_000.0).abs() < 5_000.0,
            "Poisson mean inter-arrival {mean}ns should be ~100000ns"
        );
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let pacing = Pacing::Poisson {
            ops_per_sec: 5000.0,
        };
        let a: Vec<u64> = Arrivals::new(pacing, 2, 1, 42).take(64).collect();
        let b: Vec<u64> = Arrivals::new(pacing, 2, 1, 42).take(64).collect();
        let c: Vec<u64> = Arrivals::new(pacing, 2, 1, 43).take(64).collect();
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
    }
}
