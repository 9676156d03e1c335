//! A log-linear histogram for latency and size distributions.

use std::fmt;

/// A histogram with 32 linear sub-buckets per power of two: values below 32
/// each have a bucket of their own, and a larger value `v` lands in octave
/// `floor(log2 v)`, in the sub-bucket named by the five bits below its leading
/// one.
///
/// A bucket of octave `e` is `2^e / 32` wide and starts at or above `2^e`, so
/// it is never wider than 1/32 of the smallest value it holds. Quantile
/// queries return the bucket's inclusive upper bound clamped to the recorded
/// maximum; [`Histogram::quantile`] states the error bound that follows. The
/// footprint is fixed (1 920 counters over the full `u64` range, 15 KiB), two
/// histograms merge by adding counters, and `count`, `min`, `max` and `mean`
/// are exact.
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
/// assert_eq!(h.quantile(0.5), 3);
/// assert!((100..=103).contains(&h.quantile(0.8)));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// `log2` of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per octave: the reciprocal of the quantile error bound.
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// One group of exact buckets for `0..SUB_BUCKETS`, then one group per octave
/// from `SUB_BITS` to 63.
const NUM_BUCKETS: usize = ((64 - SUB_BITS + 1) << SUB_BITS) as usize;

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

    /// Group `0` holds `0..SUB_BUCKETS` one value a bucket; group `g >= 1`
    /// holds octave `g - 1 + SUB_BITS` in buckets `2^(g-1)` wide, so the index
    /// is the group number followed by the `SUB_BITS` bits below the value's
    /// leading one.
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        (((shift + 1) << SUB_BITS) as u64 + ((value >> shift) & (SUB_BUCKETS - 1))) as usize
    }

    /// The largest value bucket `index` can hold.
    fn bucket_upper(index: usize) -> u64 {
        let index = index as u64;
        let group = index >> SUB_BITS;
        if group == 0 {
            return index;
        }
        let shift = group - 1;
        let lower = (SUB_BUCKETS + (index & (SUB_BUCKETS - 1))) << shift;
        lower + ((1 << shift) - 1)
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

    /// An upper bound on the value at quantile `q` (`0.0..=1.0`); 0 for an
    /// empty histogram.
    ///
    /// # Error bound
    ///
    /// Let `v` be the true value at quantile `q` and `U` the report. The bucket
    /// holding `v` is at most `v / 32` wide and the report is its upper edge
    /// or the recorded maximum, whichever is smaller, so `v <= U <= v + v / 32`:
    /// a quantile is never under-reported and over-reports by at most 1/32
    /// (3.1 %) — by nothing below 64, and by nothing where the clamp to the
    /// maximum engages. This module's test sweep asserts the bound from 1 to
    /// 2^40 and at every power of two ± 1.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantiles(&[q])[0]
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
            self.quantile(0.5),
            self.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `floor(log2 v)` for `v > 0`.
    fn octave(v: u64) -> u32 {
        63 - v.leading_zeros()
    }

    /// Powers of two ± 1 over the whole range, every value up to 4 096, and a
    /// multiplicative walk up to 2^40: the sweep the bound tests share.
    fn sweep() -> Vec<u64> {
        let mut values: Vec<u64> = (1..=4_096).collect();
        for k in 1..64u32 {
            let p = 1u64 << k;
            values.extend([p - 1, p, p + 1]);
        }
        let mut v = 4_097u64;
        while v < 1 << 40 {
            values.push(v);
            v += v / 97 + 1;
        }
        values.push(u64::MAX);
        values
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn bucket_indices_are_monotone() {
        let mut values = sweep();
        values.push(0);
        values.sort_unstable();
        let mut last = 0;
        for v in values {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "bucket index decreased for {v}");
            assert!(idx < NUM_BUCKETS, "bucket index out of range for {v}");
            assert!(Histogram::bucket_upper(idx) >= v, "{v} above its bucket");
            last = idx;
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_upper(NUM_BUCKETS - 1), u64::MAX);
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
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((500..=500 + 500 / 32).contains(&p50), "p50: {p50}");
        assert!((990..=1000).contains(&p99), "p99: {p99}");
        assert_eq!(h.mean(), 500.5);
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
        // Merging equals recording the union: every counter, hence every
        // quantile, and the exact summaries.
        let (mut left, mut right, mut union) =
            (Histogram::new(), Histogram::new(), Histogram::new());
        for (i, v) in sweep().into_iter().enumerate() {
            if i % 3 == 0 { &mut left } else { &mut right }.record(v);
            union.record(v);
        }
        left.merge(&right);
        assert_eq!(left.buckets, union.buckets);
        assert_eq!(
            (left.count(), left.min(), left.max(), left.mean()),
            (union.count(), union.min(), union.max(), union.mean())
        );
        let qs = [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0];
        assert_eq!(left.quantiles(&qs), union.quantiles(&qs));
    }

    #[test]
    fn bucket_invariant_floor_log2() {
        // The documented invariant: values below 32 have a bucket each; above,
        // a bucket's group is its values' `floor(log2 v)` and its position in
        // the group the five bits below the leading one.
        for v in 0..SUB_BUCKETS {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_upper(v as usize), v);
        }
        for k in SUB_BITS..64 {
            let group = (k - SUB_BITS + 1) as usize;
            let v = 1u64 << k;
            let first = Histogram::bucket_index(v);
            assert_eq!(first, group << SUB_BITS, "2^{k} opens its group");
            assert_eq!(
                Histogram::bucket_index(v + (v - 1)),
                first + SUB_BUCKETS as usize - 1,
                "2^({k}+1) - 1 closes the group 2^{k} opened"
            );
        }
        for v in sweep().into_iter().filter(|&v| v >= SUB_BUCKETS) {
            let index = Histogram::bucket_index(v);
            let upper = Histogram::bucket_upper(index);
            assert_eq!(
                index >> SUB_BITS,
                (octave(v) - SUB_BITS + 1) as usize,
                "{v}"
            );
            assert_eq!(octave(upper), octave(v), "{v} shares its bucket's octave");
            // The bucket is 2^(octave - 5) wide and `upper` is its last value.
            let width = 1u64 << (octave(v) - SUB_BITS);
            assert!(upper - v < width, "{v} more than a width below {upper}");
            assert_eq!(upper.wrapping_add(1) % width, 0, "{upper} ends a bucket");
        }
    }

    #[test]
    fn record_quantile_round_trip() {
        // quantile(1.0) is an upper bound on *every* recorded value, and a
        // power of two opens a bucket whose nominal upper edge is 1/32 above.
        let mut h = Histogram::new();
        let values = [0u64, 1, 2, 5, 64, 100, 4_096, 1 << 40, u64::MAX];
        for &v in &values {
            h.record(v);
        }
        let p100 = h.quantile(1.0);
        for &v in &values {
            assert!(p100 >= v, "p100 {p100} < recorded {v}");
        }
        for k in 0..64u32 {
            let mut single = Histogram::new();
            single.record(1u64 << k);
            assert_eq!(
                single.quantile(1.0),
                1u64 << k,
                "power of two 2^{k} reported exactly"
            );
            let (upper, count) = single.iter().next().unwrap();
            assert_eq!(count, 1);
            let width = 1u64 << k.saturating_sub(SUB_BITS);
            assert_eq!(upper, (1u64 << k) + width - 1, "bucket edge at 2^{k}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_out_of_range_panics() {
        Histogram::new().quantile(1.5);
    }

    #[test]
    fn quantile_exact_at_bucket_boundaries() {
        // A lone value is reported exactly wherever it sits in its bucket (the
        // clamp to the recorded max engages) ...
        for v in sweep() {
            let mut h = Histogram::new();
            h.record(v);
            assert_eq!(h.quantile(0.5), v);
            assert_eq!(h.quantile(1.0), v);
        }
        // ... and beside a larger one, a bucket's last value still is: the
        // unclamped report is the bucket's own upper edge.
        for v in sweep() {
            let upper = Histogram::bucket_upper(Histogram::bucket_index(v));
            let mut h = Histogram::new();
            h.record(upper);
            h.record(u64::MAX);
            assert_eq!(h.quantile(0.5), upper, "upper edge of {v}'s bucket");
        }
    }

    /// The sweep behind [`Histogram::quantile`]'s documented bound,
    /// `v <= U <= v + v / 32`. (The id dates from the log₂ buckets, whose
    /// bound was `U < 2v`; it is kept so the test's history stays one line.)
    #[test]
    fn quantile_error_bound_under_2x() {
        for v in sweep() {
            // Beside a larger value, so the clamp to the maximum cannot help.
            let mut h = Histogram::new();
            h.record(v);
            h.record(u64::MAX);
            let u = h.quantile(0.5);
            assert!(u >= v, "quantile {u} under-reports {v}");
            assert!(
                u - v <= v / SUB_BUCKETS,
                "quantile {u} more than 1/32 above {v}"
            );
            if v < 2 * SUB_BUCKETS {
                assert_eq!(u, v, "values below 64 are exact");
            }
        }
        // The same through a populated histogram: every rank of a spread of
        // distinct values against the exact order statistic.
        let mut values: Vec<u64> = sweep().into_iter().filter(|&v| v < 1 << 40).collect();
        values.sort_unstable();
        values.dedup();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let n = values.len();
        for rank in (1..=n).step_by(7) {
            let truth = values[rank - 1];
            // Half a rank short, so the float product rounds up to `rank`.
            let u = h.quantile((rank as f64 - 0.5) / n as f64);
            assert!(
                u >= truth && u - truth <= truth / SUB_BUCKETS,
                "rank {rank} of {n}: reported {u}, true {truth}"
            );
        }
    }

    #[test]
    fn quantile_regression_pr3_off_by_one() {
        // Before the PR 3 fix bucket_index returned floor(log2 v) + 1, so 1 and
        // 2 shared a bucket and the median of {1, 2} reported as 2 (bucket
        // upper 3 clamped to max). The fixed invariant keeps them apart.
        assert_ne!(Histogram::bucket_index(1), Histogram::bucket_index(2));
        let mut h = Histogram::new();
        h.record(1);
        h.record(2);
        assert_eq!(h.quantile(0.5), 1, "median of {{1,2}} is 1's own bucket");
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
        // 80 and 81 share a bucket two wide.
        assert_eq!(batch, [1, 3, 81, 1 << 33, 1 << 33, 1 << 33, 1 << 33]);
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
        // p999 of 1..=1000 targets rank 999; the bound covers 999 and the clamp
        // holds it to the true maximum.
        assert!((999..=1000).contains(&h.p999()));
    }

    #[test]
    fn display_is_nonempty() {
        let mut h = Histogram::new();
        h.record(42);
        assert!(h.to_string().contains("n=1"));
    }
}
