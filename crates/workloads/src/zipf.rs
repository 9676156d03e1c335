//! A Zipf(θ) sampler over ranks `0..n`, using the standard inverse-CDF-with-
//! harmonic-approximation technique (as in YCSB's ZipfianGenerator).

use crate::SplitMix64;

/// Samples ranks `0..n` with probability proportional to `1 / (rank+1)^theta`.
///
/// `theta = 0` degenerates to uniform; `theta = 0.99` is the classic YCSB skew.
///
/// # Examples
///
/// ```
/// use skiptrie_workloads::{SplitMix64, Zipf};
///
/// let zipf = Zipf::new(1000, 0.99);
/// let mut rng = SplitMix64::new(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with skew `theta` (`0.0 <= theta < 1.0` or the
    /// degenerate `theta == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n, integral approximation for large n (accuracy is not
        // critical for workload generation).
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let tail = ((n as f64).powf(1.0 - theta) - 10_000f64.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        if self.theta == 0.0 {
            return rng.next_below(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    #[cfg(test)]
    fn zeta2_for_tests(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_stay_in_range() {
        let zipf = Zipf::new(100, 0.99);
        let mut rng = SplitMix64::new(7);
        for _ in 0..50_000 {
            assert!(zipf.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn skew_concentrates_mass_on_low_ranks() {
        let zipf = Zipf::new(10_000, 0.99);
        let mut rng = SplitMix64::new(11);
        let mut low = 0usize;
        let total = 100_000;
        for _ in 0..total {
            if zipf.sample(&mut rng) < 100 {
                low += 1;
            }
        }
        let frac = low as f64 / total as f64;
        assert!(
            frac > 0.4,
            "top 1% of ranks should receive >40% of mass, got {frac}"
        );
    }

    #[test]
    fn theta_zero_is_uniform() {
        let zipf = Zipf::new(16, 0.0);
        let mut rng = SplitMix64::new(13);
        let mut counts = [0u32; 16];
        for _ in 0..160_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{c}");
        }
    }

    #[test]
    fn constructor_validates_input() {
        assert!(std::panic::catch_unwind(|| Zipf::new(0, 0.5)).is_err());
        assert!(std::panic::catch_unwind(|| Zipf::new(10, 1.5)).is_err());
        let z = Zipf::new(10, 0.5);
        assert!(z.zeta2_for_tests() > 0.0);
        assert_eq!(z.n(), 10);
        assert!((z.theta() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_rank_always_returns_zero() {
        let zipf = Zipf::new(1, 0.5);
        let mut rng = SplitMix64::new(17);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }
}
