//! A log₂-bucketed histogram for latency and size distributions.

use std::fmt;

/// A histogram whose bucket `i` counts observations `v` with `floor(log2(v)) == i`
/// (bucket 0 additionally holds `v == 0`).
///
/// This gives ~2x relative resolution over the full `u64` range with a fixed 64-slot
/// footprint, which is plenty for the latency and spacing distributions reported in
/// `EXPERIMENTS.md`. Quantile queries return the bucket's inclusive upper bound
/// (`2^(i+1) - 1`, exact at powers of two), clamped to the recorded maximum.
///
/// # Examples
///
/// ```
/// use skiptrie_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1, 2, 3, 100, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.mean() > 0.0);
/// assert!(h.value_at_quantile(0.5) <= h.value_at_quantile(0.99));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const NUM_BUCKETS: usize = 64;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// `floor(log2(value))`, the documented bucket invariant (`value == 0` shares
    /// bucket 0 with `value == 1`). Off-by-one history: this used to return
    /// `64 - leading_zeros`, i.e. `floor(log2 v) + 1`, so `bucket_index(1)` was 1 and
    /// every reported quantile bound was a power of two too high.
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (63 - value.leading_zeros()) as usize
        }
    }

    /// The largest value bucket `index` can hold: `2^(index+1) - 1` (exact at
    /// power-of-two boundaries; the last bucket is capped at `u64::MAX`).
    fn bucket_upper(index: usize) -> u64 {
        if index >= 63 {
            u64::MAX
        } else {
            (1u64 << (index + 1)) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded observations (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value, or `None` if the histogram is empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` if the histogram is empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// An upper bound on the value at quantile `q` (`0.0..=1.0`), with bucket
    /// (power-of-two) resolution. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// An upper bound on the value at quantile `q` — the serving pipeline's
    /// primary quantile entry point; identical to [`Histogram::value_at_quantile`].
    ///
    /// # Error bound
    ///
    /// Let `v > 0` be the true value at quantile `q`. It lands in bucket
    /// `i = floor(log2 v)`, and the reported bound is `min(2^(i+1) - 1, max)`,
    /// so the report `U` satisfies `v <= U <= 2v - 1 < 2v`: quantiles are never
    /// under-reported and over-report by strictly less than 2× (exactly 1× at
    /// powers of two, and whenever the clamp to the recorded maximum engages).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.value_at_quantile(q)
    }

    /// Extracts several quantiles in one pass over the buckets.
    ///
    /// Same per-quantile bound as [`Histogram::quantile`]. Returns one value per
    /// requested quantile, in input order.
    ///
    /// # Panics
    ///
    /// Panics if the quantiles are not sorted ascending or any falls outside
    /// `0.0..=1.0`.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<u64> {
        for pair in qs.windows(2) {
            assert!(pair[0] <= pair[1], "quantiles must be sorted ascending");
        }
        let mut out = Vec::with_capacity(qs.len());
        let mut seen = 0u64;
        let mut bucket = 0usize;
        for &q in qs {
            assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
            if self.count == 0 {
                out.push(0);
                continue;
            }
            let target = (q * self.count as f64).ceil().max(1.0) as u64;
            while bucket < NUM_BUCKETS && seen + self.buckets[bucket] < target {
                seen += self.buckets[bucket];
                bucket += 1;
            }
            out.push(if bucket < NUM_BUCKETS {
                Self::bucket_upper(bucket).min(self.max)
            } else {
                self.max
            });
        }
        out
    }

    /// Median upper bound — `quantile(0.5)`.
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th-percentile upper bound — `quantile(0.99)`.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile upper bound — `quantile(0.999)`.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterates over non-empty buckets as `(upper_bound, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper(i), c))
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} min={} max={} p50<={} p99<={}",
            self.count,
            self.mean(),
            self.min().unwrap_or(0),
            self.max().unwrap_or(0),
            self.value_at_quantile(0.5),
            self.value_at_quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.value_at_quantile(0.99), 0);
    }

    #[test]
    fn bucket_indices_are_monotone() {
        let values = [0u64, 1, 2, 3, 4, 7, 8, 1000, u64::MAX];
        let mut last = 0;
        for v in values {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "bucket index decreased for {v}");
            last = idx;
        }
    }

    #[test]
    fn records_and_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        let p50 = h.value_at_quantile(0.5);
        let p99 = h.value_at_quantile(0.99);
        assert!((500 / 2..=1023).contains(&p50), "p50 bucket bound: {p50}");
        assert!(p99 >= p50);
        assert!((h.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(50_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(50_000));
    }

    #[test]
    fn bucket_invariant_floor_log2() {
        // The documented invariant: bucket `i` holds exactly the values with
        // `floor(log2 v) == i` (bucket 0 additionally holds 0).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 1);
        for k in 0..64u32 {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_index(v), k as usize, "2^{k}");
            if k < 63 {
                assert_eq!(
                    Histogram::bucket_index(v + (v - 1)),
                    k as usize,
                    "2^({k}+1) - 1 stays in bucket {k}"
                );
            }
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn record_quantile_round_trip() {
        // value_at_quantile(1.0) is an upper bound on *every* recorded value, and the
        // bucket bounds are exact at powers of two.
        let mut h = Histogram::new();
        let values = [0u64, 1, 2, 5, 64, 100, 4_096, 1 << 40, u64::MAX];
        for &v in &values {
            h.record(v);
        }
        let p100 = h.value_at_quantile(1.0);
        for &v in &values {
            assert!(p100 >= v, "p100 {p100} < recorded {v}");
        }
        for k in 0..63u32 {
            let mut single = Histogram::new();
            single.record(1u64 << k);
            assert_eq!(
                single.value_at_quantile(1.0),
                1u64 << k,
                "power of two 2^{k} reported exactly"
            );
            // The bucket's nominal upper bound is one below the next power of two.
            let (upper, count) = single.iter().next().unwrap();
            assert_eq!(count, 1);
            assert_eq!(upper, (1u64 << (k + 1)) - 1, "bucket bound exact at 2^{k}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_out_of_range_panics() {
        Histogram::new().value_at_quantile(1.5);
    }

    #[test]
    fn quantile_exact_at_bucket_boundaries() {
        // Powers of two sit exactly at a bucket's lower edge and are reported
        // exactly (the clamp to the recorded max engages).
        for k in 0..64u32 {
            let v = 1u64 << k.min(63);
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.quantile(0.5), v, "2^{k} round-trips exactly");
            assert_eq!(h.quantile(1.0), v, "2^{k} round-trips exactly");
        }
        // A bucket's inclusive upper edge (2^(k+1) - 1) also round-trips exactly.
        for k in 0..62u32 {
            let v = (1u64 << (k + 1)) - 1;
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.quantile(1.0), v, "2^({k}+1)-1 round-trips exactly");
        }
    }

    #[test]
    fn quantile_error_bound_under_2x() {
        // The documented bound: for any recorded v > 0, the reported quantile U
        // satisfies v <= U < 2v. Exercise odd values across the full range.
        for k in 0..63u32 {
            for offset in [0u64, 1, 3] {
                let v = (1u64 << k) + offset;
                let mut h = Histogram::new();
                h.record(v);
                let u = h.quantile(1.0);
                assert!(u >= v, "quantile {u} under-reports {v}");
                assert!((u as u128) < 2 * v as u128, "quantile {u} >= 2x {v}");
            }
        }
    }

    #[test]
    fn quantile_regression_pr3_off_by_one() {
        // Before the PR 3 fix bucket_index returned floor(log2 v) + 1, so 1 and
        // 2 shared bucket 1 and the median of {1, 2} reported as 2 (bucket
        // upper 3 clamped to max). The fixed invariant keeps them apart.
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        let mut h = Histogram::new();
        h.record(1);
        h.record(2);
        assert_eq!(h.quantile(0.5), 1, "median of {{1,2}} is bucket 0's bound");
        assert_eq!(h.quantile(1.0), 2);
    }

    #[test]
    fn quantiles_single_pass_matches_individual_calls() {
        let mut h = Histogram::new();
        for v in [1u64, 3, 9, 80, 81, 1000, 65_536, 1 << 33] {
            h.record(v);
        }
        let qs = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        let batch = h.quantiles(&qs);
        for (&q, &got) in qs.iter().zip(batch.iter()) {
            assert_eq!(got, h.quantile(q), "quantiles() diverges at q={q}");
        }
        // Empty histogram: all zeros, no panic.
        assert_eq!(Histogram::new().quantiles(&qs), vec![0; qs.len()]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn quantiles_reject_unsorted_input() {
        let mut h = Histogram::new();
        h.record(5);
        h.quantiles(&[0.9, 0.5]);
    }

    #[test]
    fn p50_p99_p999_convenience() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), h.quantile(0.5));
        assert_eq!(h.p99(), h.quantile(0.99));
        assert_eq!(h.p999(), h.quantile(0.999));
        assert!(h.p50() <= h.p99() && h.p99() <= h.p999());
        // p999 of 1..=1000 targets rank 999; the bound must cover 999 and stay
        // under 2x the true maximum.
        assert!(h.p999() >= 999 && h.p999() < 2000);
    }

    #[test]
    fn display_is_nonempty() {
        let mut h = Histogram::new();
        h.record(42);
        assert!(h.to_string().contains("n=1"));
    }
}
