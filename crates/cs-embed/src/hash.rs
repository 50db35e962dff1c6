//! Feature hashing of character trigrams into Gaussian directions.
//!
//! Out-of-lexicon tokens still need a stable vector, and in-lexicon tokens
//! need a small surface-form component so `ORDERDATE` and `ORDER_DATETIME`
//! do not collapse onto identical points. Both come from hashing the
//! token's boundary-padded character trigrams
//! ([`cs_schema::text::trigrams`]): each trigram seeds a unit
//! Gaussian direction, and the token vector is the normalized sum. Tokens
//! sharing trigrams (similar spellings) therefore share vector mass —
//! a smooth, deterministic analog of subword embeddings.

use cs_linalg::{SplitMix64, Xoshiro256};
use cs_schema::text::trigrams;

/// FNV-1a hash of a byte string — stable across platforms and runs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic unit Gaussian direction for an arbitrary label.
///
/// The same `(label, seed, dim)` always produces the same vector.
pub fn seeded_direction(label: &str, seed: u64, dim: usize) -> Vec<f64> {
    let mut rng = Xoshiro256::seed_from(SplitMix64::new(fnv1a(label.as_bytes()) ^ seed).next_u64());
    let mut v = vec![0.0; dim];
    rng.fill_gaussian(&mut v);
    cs_linalg::vecops::normalize(&mut v);
    v
}

/// Normalized sum of the trigram directions of `token` — its surface-form
/// vector.
pub fn trigram_vector(token: &str, seed: u64, dim: usize) -> Vec<f64> {
    let mut acc = vec![0.0; dim];
    for gram in trigrams(token) {
        let dir = seeded_direction(&gram, seed, dim);
        cs_linalg::vecops::axpy(&mut acc, 1.0, &dir);
    }
    cs_linalg::vecops::normalize(&mut acc);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::vecops::{cosine, norm};

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn directions_are_deterministic_and_unit() {
        let a = seeded_direction("CUSTOMER", 1, 64);
        let b = seeded_direction("CUSTOMER", 1, 64);
        assert_eq!(a, b);
        assert!((norm(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn directions_differ_by_label_and_seed() {
        let a = seeded_direction("CUSTOMER", 1, 256);
        let b = seeded_direction("PRODUCT", 1, 256);
        let c = seeded_direction("CUSTOMER", 2, 256);
        // Random 256-d directions are near-orthogonal.
        assert!(cosine(&a, &b).abs() < 0.25);
        assert!(cosine(&a, &c).abs() < 0.25);
    }

    #[test]
    fn similar_spellings_share_mass() {
        let dim = 768;
        let a = trigram_vector("ORDERDATE", 7, dim);
        let b = trigram_vector("ORDERDATES", 7, dim);
        let c = trigram_vector("CIRCUIT", 7, dim);
        assert!(
            cosine(&a, &b) > 0.6,
            "near-identical spellings: {}",
            cosine(&a, &b)
        );
        assert!(
            cosine(&a, &c) < 0.3,
            "unrelated spellings: {}",
            cosine(&a, &c)
        );
    }

    #[test]
    fn trigram_vector_is_unit() {
        let v = trigram_vector("PAYMENT", 3, 128);
        assert!((norm(&v) - 1.0).abs() < 1e-12);
    }
}
