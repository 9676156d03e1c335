//! Exact quantiles over latency samples, the "ten samples beyond" rule, and the
//! two summaries a reported value goes through: the median of its parts, or
//! the mean of its least disturbed tenth.

/// A quantile as parts per ten thousand, so ranks are computed in integers
/// (`0.99 * 1000` is `990.0000000000001` in floating point).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Q(pub u64);

pub const P50: Q = Q(5_000);
pub const P99: Q = Q(9_900);

/// Zero-based nearest-rank index of quantile `q` among `n` sorted samples: the
/// smallest index with at least `q * n` samples at or below it.
pub fn rank(n: usize, q: Q) -> usize {
    assert!(n > 0, "rank of an empty sample");
    let at_or_below = (q.0 as u128 * n as u128).div_ceil(10_000) as usize;
    at_or_below.clamp(1, n) - 1
}

/// How many samples lie strictly beyond the quantile's rank.
pub fn beyond(n: usize, q: Q) -> usize {
    n - 1 - rank(n, q)
}

/// A percentile is reported only where at least ten samples lie beyond it.
pub fn supported(n: usize, q: Q) -> bool {
    n > 0 && beyond(n, q) >= 10
}

/// Exact quantile of an ascending slice, or `None` where the sample cannot
/// support it (the median needs one sample; any other quantile ten beyond it).
pub fn quantile(sorted: &[u32], q: Q) -> Option<f64> {
    let ok = if q == P50 {
        !sorted.is_empty()
    } else {
        supported(sorted.len(), q)
    };
    ok.then(|| sorted[rank(sorted.len(), q)] as f64)
}

/// Which way a metric is better, and so which end of its per-slice values the
/// host disturbed least.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A value reported over its per-slice (or per-window, or per-batch) values,
/// with their median and extremes printed beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The value reported: the median, or the quiet tenth (see `quiet`).
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// Slices or windows that contributed a value.
    pub parts: usize,
}

impl Summary {
    /// A single measurement with no spread.
    pub fn single(value: f64) -> Self {
        Summary {
            value,
            median: value,
            min: value,
            max: value,
            parts: 1,
        }
    }

    /// The same summary in another unit.
    pub fn scaled(self, factor: f64) -> Self {
        Summary {
            value: self.value * factor,
            median: self.median * factor,
            min: self.min * factor,
            max: self.max * factor,
            parts: self.parts,
        }
    }
}

/// Median (mean of the two middle values when the count is even), minimum and
/// maximum of `values`; `None` if there are none.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    Some(Summary {
        value: median,
        median,
        min: sorted[0],
        max: sorted[n - 1],
        parts: n,
    })
}

/// Like `summarize`, but the value reported is the mean of the best tenth of
/// `values` (rounded up to a whole part). Other tenants of the host only ever
/// slow the program down, by a factor that wanders over seconds, so the best
/// slices are the least disturbed ones and repeat from run to run where the
/// median does not. What the program does to itself shows in every slice as
/// long as a slice is much longer than its longest periodic work (a fold, an
/// epoch's reclamation: milliseconds), which callers must see to.
pub fn quiet(values: &[f64], better: Better) -> Option<Summary> {
    let summary = summarize(values)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if better == Better::Higher {
        sorted.reverse();
    }
    let tenth = &sorted[..sorted.len().div_ceil(10)];
    Some(Summary {
        value: tenth.iter().sum::<f64>() / tenth.len() as f64,
        ..summary
    })
}

/// Splits `(send_ns, latency_ns)` samples, `send_ns` measured from the start
/// of a phase, into the phase's `whole` complete windows of `window_ns` of
/// virtual send time, each ascending. A quantile is then taken per window and
/// the median over windows reported, which a single host stall cannot move.
pub fn windows(samples: &[(u64, u32)], window_ns: u64, whole: u64) -> Vec<Vec<u32>> {
    let mut per_window: Vec<Vec<u32>> = vec![Vec::new(); whole as usize];
    for &(at, latency) in samples {
        if let Some(window) = per_window.get_mut((at / window_ns) as usize) {
            window.push(latency);
        }
    }
    per_window.iter_mut().for_each(|w| w.sort_unstable());
    per_window
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_vectors() {
        // 1..=10: the median is the 5th value, p90 the 9th, p99 the 10th.
        let v: Vec<u32> = (1..=10).collect();
        assert_eq!(v[rank(10, P50)], 5);
        assert_eq!(v[rank(10, Q(9_000))], 9);
        assert_eq!(v[rank(10, P99)], 10);
        assert_eq!(v[rank(10, Q(0))], 1);
        // 1000 samples: p99 is the 990th, exactly, with ten beyond.
        assert_eq!(rank(1000, P99), 989);
        assert_eq!(beyond(1000, P99), 10);
        assert_eq!(rank(1, P99), 0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supported(999, P99), "999 samples leave nine beyond p99");
        assert!(supported(1000, P99));
        assert!(!supported(0, P50));
        let few: Vec<u32> = (0..999).collect();
        assert_eq!(quantile(&few, P99), None);
        assert_eq!(quantile(&few, P50), Some(499.0));
        let enough: Vec<u32> = (0..1000).collect();
        assert_eq!(quantile(&enough, P99), Some(989.0));
        assert_eq!(quantile(&[], P50), None);
    }

    #[test]
    fn summary_is_median_min_max() {
        let s = summarize(&[5.0, 1.0, 9.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.parts), (5.0, 1.0, 9.0, 3));
        assert_eq!(s.value, s.median);
        let even = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(even.median, 2.5);
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn the_quiet_tenth_is_the_mean_of_the_best_parts() {
        // 1..=20: the best tenth is two parts, from whichever end is better.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let low = quiet(&v, Better::Lower).unwrap();
        assert_eq!(
            (low.value, low.median, low.min, low.max),
            (1.5, 10.5, 1.0, 20.0)
        );
        assert_eq!(quiet(&v, Better::Higher).unwrap().value, 19.5);
        // Fewer than ten parts: the single best one.
        assert_eq!(quiet(&[3.0, 2.0, 7.0], Better::Lower).unwrap().value, 2.0);
        // Eleven parts round up to two.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(quiet(&eleven, Better::Higher).unwrap().value, 9.5);
        assert_eq!(quiet(&[], Better::Lower), None);
        // A stalled half of the run moves the median, not the quiet tenth.
        let mut stalled = vec![100.0; 10];
        stalled.extend([160.0; 10]);
        let s = quiet(&stalled, Better::Lower).unwrap();
        assert_eq!((s.value, s.median), (100.0, 130.0));
    }

    #[test]
    fn windowed_median_ignores_one_stalled_window() {
        // Three whole windows of 20 samples and a partial fourth; the middle
        // whole window stalled (all slow).
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..20u64 {
                let latency = if w == 1 { 1_000_000 } else { 119 - i as u32 };
                samples.push((w * 1_000 + i, latency));
            }
        }
        samples.push((3_500, 7));
        let per_window = windows(&samples, 1_000, 3);
        assert_eq!(per_window.len(), 3, "the partial window is dropped");
        assert!(per_window.iter().all(|w| w.len() == 20 && w.is_sorted()));
        let medians: Vec<f64> = per_window.iter().filter_map(|w| quantile(w, P50)).collect();
        assert_eq!(medians, vec![109.0, 1_000_000.0, 109.0]);
        assert_eq!(summarize(&medians).unwrap().median, 109.0);
        // p99 needs 1000 samples a window; none qualifies here.
        assert!(per_window.iter().all(|w| quantile(w, P99).is_none()));
    }
}
