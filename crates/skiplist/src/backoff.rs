//! Bounded exponential backoff for CAS/DCSS retry loops.
//!
//! Under write contention a failed CAS means another thread just made progress
//! on the same cache line; retrying immediately only re-contends the line and
//! burns coherence bandwidth for every other writer. Each retry loop in
//! [`crate::ops`] therefore carries one [`Backoff`] instance and calls
//! [`Backoff::spin`] on every failure arm: the first retry is free (the common
//! sporadic-conflict case stays latency-optimal), and each subsequent failure
//! doubles a `spin_loop` window up to a fixed cap — bounded, so a loop can
//! never be parked out of its lock-free progress guarantee, and purely local,
//! so it adds no shared-memory traffic of its own.
//!
//! Every `spin` records [`Counter::CasRetry`]; the calls that actually spun
//! also record [`Counter::CasBackoff`]. The pair makes writer-side contention
//! directly observable: `cas_backoff / cas_retry` is the fraction of retries
//! that hit *sustained* (not sporadic) conflicts.

use skiptrie_metrics::{self as metrics, Counter};

/// Largest backoff exponent: the spin window is capped at `1 << MAX_SHIFT`
/// iterations of [`std::hint::spin_loop`] (~a few hundred ns), far below any
/// scheduling quantum.
const MAX_SHIFT: u32 = 7;

/// Per-retry-loop bounded exponential backoff state.
///
/// Construct one `Backoff` per retry *loop* (not per operation), and call
/// [`Backoff::spin`] in each failure arm before going around again.
pub(crate) struct Backoff {
    shift: u32,
}

impl Backoff {
    /// A fresh backoff with an empty first-retry window.
    pub(crate) fn new() -> Self {
        Backoff { shift: 0 }
    }

    /// Notes one failed attempt: records [`Counter::CasRetry`], spins for the
    /// current window (recording [`Counter::CasBackoff`] if that window is
    /// non-empty), then doubles the window up to the cap.
    pub(crate) fn spin(&mut self) {
        metrics::record(Counter::CasRetry);
        if self.shift > 0 {
            metrics::record(Counter::CasBackoff);
            for _ in 0..(1u32 << self.shift) {
                std::hint::spin_loop();
            }
        }
        if self.shift < MAX_SHIFT {
            self.shift += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_retry_is_backoff_free_and_window_is_capped() {
        let mut b = Backoff::new();
        assert_eq!(b.shift, 0);
        b.spin();
        assert_eq!(b.shift, 1, "first failure arms the window");
        for _ in 0..32 {
            b.spin();
        }
        assert_eq!(b.shift, MAX_SHIFT, "window growth is bounded");
    }

    #[test]
    fn spin_records_retry_and_backoff_counters() {
        let _serial = crate::metrics_serial();
        let (_, delta) = metrics::measure(|| {
            let mut b = Backoff::new();
            b.spin(); // retry only: window still empty
            b.spin(); // retry + backoff
            b.spin(); // retry + backoff
        });
        // `>=` not `==`: other tests in this binary may record concurrently.
        assert!(delta.get(Counter::CasRetry) >= 3);
        assert!(delta.get(Counter::CasBackoff) >= 2);
        assert!(delta.get(Counter::CasBackoff) <= delta.get(Counter::CasRetry));
    }
}
