//! A tiny, fast, deterministic PRNG (SplitMix64) used for workload generation.
//!
//! The experiments need reproducible streams that are cheap enough not to perturb
//! step-count measurements; SplitMix64 fits in a few arithmetic instructions and has
//! no observable bias at the scales used here.

/// A SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use skiptrie_workloads::SplitMix64;
///
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next(), b.next(), "same seed, same stream");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64-bit value.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns a value uniformly distributed in `[0, bound)` (`0` if `bound == 0`).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..1000 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = SplitMix64::new(100);
        assert_ne!(a.next(), c.next());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(5);
        for bound in [1u64, 2, 7, 1000] {
            for _ in 0..1000 {
                assert!(rng.next_below(bound) < bound);
            }
        }
        assert_eq!(rng.next_below(0), 0);
    }

    #[test]
    fn rough_uniformity() {
        let mut rng = SplitMix64::new(123);
        let mut buckets = [0u32; 16];
        for _ in 0..160_000 {
            buckets[(rng.next() % 16) as usize] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b}");
        }
    }
}
