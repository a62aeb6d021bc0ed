//! Zipf-distributed rank sampling.
//!
//! Caching workloads are skewed: a small hot set absorbs most accesses
//! (that is why the paper caches "the top 25% most-accessed blocks"). We use
//! the YCSB/Gray *scrambled zipfian* construction: ranks are drawn from a
//! Zipf(θ) distribution with an O(1) sampler after an O(n) harmonic-sum
//! precomputation, then scrambled by a fixed hash so popularity is
//! decorrelated from address order — which is what produces the paper's
//! Figure 1 pattern of hot blocks scattered across the whole volume.

use simkit::SimRng;

/// An O(1) Zipf sampler over ranks `0..n` (rank 0 most popular).
///
/// Implements the algorithm from Gray et al., *Quickly generating
/// billion-record synthetic databases* (the YCSB generator), valid for
/// skew exponents `0 < theta < 1`.
///
/// # Examples
///
/// ```
/// use simkit::SimRng;
/// use trace::ZipfSampler;
///
/// let zipf = ZipfSampler::new(1_000, 0.99);
/// let mut rng = SimRng::seed_from(1);
/// let mut hits_top_decile = 0;
/// for _ in 0..10_000 {
///     if zipf.sample(&mut rng) < 100 {
///         hits_top_decile += 1;
///     }
/// }
/// assert!(hits_top_decile > 5_000, "top 10% of ranks dominate");
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    /// `1 + 0.5^theta`: a scaled draw in `[1, rank1_below)` is rank 1.
    rank1_below: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with skew `theta` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty domain");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0,1), got {theta}"
        );
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            rank1_below: 1.0 + 0.5f64.powf(theta),
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_below {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Draws a rank and scrambles it with a fixed 64-bit mixer so popularity
    /// is spread over the whole domain (YCSB's "scrambled zipfian").
    pub fn sample_scrambled(&self, rng: &mut SimRng) -> u64 {
        scramble(self.sample(rng)) % self.n
    }
}

/// A fixed 64-bit finalizer (SplitMix64) used to decorrelate rank from
/// position. Deterministic across runs and platforms.
pub fn scramble(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_in_domain() {
        let z = ZipfSampler::new(100, 0.9);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
            assert!(z.sample_scrambled(&mut rng) < 100);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let z = ZipfSampler::new(10_000, 0.99);
        let mut rng = SimRng::seed_from(3);
        let mut counts = [0u64; 4]; // rank deciles 0, 1-9, 10-99, rest
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            let bucket = match r {
                0 => 0,
                1..=9 => 1,
                10..=99 => 2,
                _ => 3,
            };
            counts[bucket] += 1;
        }
        assert!(counts[0] > 5_000, "rank 0 should be very hot: {counts:?}");
        assert!(
            counts[0] + counts[1] + counts[2] > counts[3] / 2,
            "{counts:?}"
        );
    }

    #[test]
    fn lower_theta_is_less_skewed() {
        let hot = ZipfSampler::new(10_000, 0.99);
        let mild = ZipfSampler::new(10_000, 0.4);
        let mut rng = SimRng::seed_from(4);
        let top =
            |z: &ZipfSampler, rng: &mut SimRng| (0..50_000).filter(|_| z.sample(rng) < 100).count();
        let hot_hits = top(&hot, &mut rng);
        let mild_hits = top(&mild, &mut rng);
        assert!(hot_hits > mild_hits, "hot {hot_hits} vs mild {mild_hits}");
    }

    #[test]
    fn scramble_is_deterministic_and_spreading() {
        assert_eq!(scramble(7), scramble(7));
        let a: Vec<u64> = (0..16).map(scramble).collect();
        let mut b = a.clone();
        b.sort_unstable();
        b.dedup();
        assert_eq!(b.len(), 16, "no collisions on small inputs");
    }

    #[test]
    fn single_element_domain() {
        let z = ZipfSampler::new(1, 0.5);
        let mut rng = SimRng::seed_from(5);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.sample_scrambled(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_bad_theta() {
        ZipfSampler::new(10, 1.5);
    }
}
