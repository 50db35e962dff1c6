//! Small, seeded pseudo-random number generators, and the workspace's one
//! FNV-1a digest.
//!
//! The workspace needs reproducible randomness in three places: Gaussian
//! concept vectors in the signature encoder, weight initialization in the
//! neural autoencoder, and k-means/LSH initialization in the matchers.
//! The build is hermetic (DESIGN.md §6), and a self-contained generator
//! keeps the determinism guarantee (bit-exact across platforms) that the
//! experiment harness relies on.

/// SplitMix64: a tiny, high-quality 64-bit generator.
///
/// Used both directly and to seed [`Xoshiro256`]. Passes BigCrush when used
/// as a stream; more than adequate for initialization duties here.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** — the workhorse generator for floating-point streams.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
    /// Cached second Gaussian from the Box-Muller transform.
    gauss_spare: Option<f64>,
}

impl Xoshiro256 {
    /// Creates a generator, expanding the seed through SplitMix64 as the
    /// xoshiro authors recommend.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
            gauss_spare: None,
        }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. Uses rejection sampling to avoid modulo
    /// bias; `n` must be non-zero.
    pub fn next_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_below(0) is meaningless");
        let n = n as u64;
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// Standard-normal sample via the Box–Muller transform.
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(g) = self.gauss_spare.take() {
            return g;
        }
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fills `out` with standard-normal samples.
    pub fn fill_gaussian(&mut self, out: &mut [f64]) {
        for v in out {
            *v = self.next_gaussian();
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

/// Streaming 64-bit FNV-1a: the workspace's one digest of byte streams
/// (signature bits, dataset encodings, fault-matrix and sanitizer
/// reports), stable across platforms and runs. Writing `a` then `b`
/// equals writing their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The FNV-1a offset basis: the digest of the empty stream.
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a digest of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_differs_by_seed() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn xoshiro_uniform_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn xoshiro_uniform_mean_near_half() {
        let mut rng = Xoshiro256::seed_from(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Xoshiro256::seed_from(3);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn next_below_covers_range_without_bias_catastrophe() {
        let mut rng = Xoshiro256::seed_from(5);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.next_below(7)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 800.0, "count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn next_below_zero_panics() {
        Xoshiro256::seed_from(1).next_below(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from(9);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Xoshiro256::seed_from(13);
        let sample = rng.sample_indices(100, 20);
        assert_eq!(sample.len(), 20);
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
    }

    #[test]
    fn sample_indices_full_range_is_permutation() {
        let mut rng = Xoshiro256::seed_from(17);
        let mut sample = rng.sample_indices(10, 10);
        sample.sort_unstable();
        assert_eq!(sample, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn fnv1a_matches_published_vectors_and_streams() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
