//! Deterministic pseudo-random number generation.
//!
//! The evaluation harness must produce identical workloads on every run and
//! every platform, so the simulators use a small, fixed PRNG rather than a
//! seedable generator whose stream may change across crate versions.
//! [`SimRng`] is xoshiro256++ seeded through SplitMix64, the standard
//! construction recommended by the xoshiro authors.

/// Advances a SplitMix64 state and returns the next output.
///
/// Used to expand a single `u64` seed into the 256-bit xoshiro state, and
/// as the mixing step of [`crate::hash::BlockHasher`].
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills `out` with a deterministic pseudo-random byte stream derived from
/// `seed`, cheaply enough to run once per page of a replay.
///
/// Store-mode oracles use it to give every written version of a block its
/// own bytes. One SplitMix64 step seeds each 64-byte run and eight odd lane
/// constants spread it across the words, costing one multiply-mix per 64
/// bytes instead of one per 8.
///
/// The stream is a pure function of `seed` (stable across runs and
/// platforms) and changes completely when `seed` changes.
///
/// # Examples
///
/// ```
/// use simkit::fill_pseudo;
///
/// let mut a = [0u8; 128];
/// let mut b = [0u8; 128];
/// fill_pseudo(7, &mut a);
/// fill_pseudo(7, &mut b);
/// assert_eq!(a, b);
/// fill_pseudo(8, &mut b);
/// assert_ne!(a, b);
/// ```
pub fn fill_pseudo(seed: u64, out: &mut [u8]) {
    // Distinct odd constants decorrelate the eight words of each run.
    const LANES: [u64; 8] = [
        0xA076_1D64_78BD_642F,
        0xE703_7ED1_A0B4_28DB,
        0x8EBC_6AF0_9C88_C6E3,
        0x5899_65CC_7537_4CC3,
        0x1D8E_4E27_C47D_124F,
        0xEB44_ACCA_B455_D165,
        0x2D35_8DCC_AA6C_78A5,
        0x8BB8_4B93_962E_ACC9,
    ];
    let mut state = seed;
    let mut runs = out.chunks_exact_mut(64);
    for run in &mut runs {
        let z = splitmix64(&mut state);
        for (word, lane) in run.chunks_exact_mut(8).zip(LANES) {
            word.copy_from_slice(&(z ^ lane).to_le_bytes());
        }
    }
    // Tail for sizes that are not a multiple of 64: one mix per word.
    let rest = runs.into_remainder();
    for word in rest.chunks_mut(8) {
        let z = splitmix64(&mut state);
        word.copy_from_slice(&z.to_le_bytes()[..word.len()]);
    }
}

/// A deterministic xoshiro256++ generator.
///
/// # Examples
///
/// ```
/// use simkit::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators created from the same seed produce identical streams.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is the one invalid xoshiro state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        SimRng { s }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only reached when bound does not divide 2^64.
            let threshold = bound.wrapping_neg() % bound;
            if lo >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high-quality bits scaled into the unit interval.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    ///
    /// `p` is clamped to `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose on empty slice");
        &slice[self.gen_range(slice.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-at-a-time reference model of [`fill_pseudo`]: computes every
    /// output byte independently from its position, with no word-level
    /// copies. The optimized word-at-a-time fill must match it exactly.
    fn fill_pseudo_reference(seed: u64, out: &mut [u8]) {
        const LANES: [u64; 8] = [
            0xA076_1D64_78BD_642F,
            0xE703_7ED1_A0B4_28DB,
            0x8EBC_6AF0_9C88_C6E3,
            0x5899_65CC_7537_4CC3,
            0x1D8E_4E27_C47D_124F,
            0xEB44_ACCA_B455_D165,
            0x2D35_8DCC_AA6C_78A5,
            0x8BB8_4B93_962E_ACC9,
        ];
        let mut state = seed;
        let full_runs = out.len() / 64;
        for r in 0..full_runs {
            let z = splitmix64(&mut state);
            for j in 0..64 {
                let lane = j / 8;
                let byte = j % 8;
                out[r * 64 + j] = ((z ^ LANES[lane]) >> (8 * byte)) as u8;
            }
        }
        // Tail: one fresh mix per (possibly partial) 8-byte word.
        let tail = &mut out[full_runs * 64..];
        for word in tail.chunks_mut(8) {
            let z = splitmix64(&mut state);
            for (b, slot) in word.iter_mut().enumerate() {
                *slot = (z >> (8 * b)) as u8;
            }
        }
    }

    #[test]
    fn fill_pseudo_matches_byte_loop_reference() {
        // Every length class: empty, partial word, partial run, exact run
        // boundaries, page-sized, and ragged tails.
        let sizes = [
            0usize, 1, 3, 7, 8, 9, 15, 31, 63, 64, 65, 100, 127, 128, 200, 511, 512, 4096, 4097,
        ];
        for seed in [0u64, 1, 42, 0x0102_0304_0506_0708, u64::MAX] {
            for &n in &sizes {
                let mut fast = vec![0u8; n];
                let mut reference = vec![0xAAu8; n];
                fill_pseudo(seed, &mut fast);
                fill_pseudo_reference(seed, &mut reference);
                assert_eq!(fast, reference, "seed {seed:#x} len {n}");
            }
        }
    }

    #[test]
    fn fill_pseudo_is_seed_sensitive() {
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        fill_pseudo(1, &mut a);
        fill_pseudo(2, &mut b);
        assert_ne!(a, b);
        let mut a2 = vec![0u8; 4096];
        fill_pseudo(1, &mut a2);
        assert_eq!(a, a2);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should diverge, {same} matches");
    }

    #[test]
    fn gen_range_within_bounds() {
        let mut r = SimRng::seed_from(3);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut r = SimRng::seed_from(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn gen_range_zero_bound_panics() {
        SimRng::seed_from(0).gen_range(0);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::seed_from(5);
        let mut sum = 0.0;
        const N: usize = 10_000;
        for _ in 0..N {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} should be near 0.5");
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut r = SimRng::seed_from(9);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from(21);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50 elements should not stay sorted"
        );
    }

    #[test]
    fn choose_returns_member() {
        let mut r = SimRng::seed_from(2);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}
