//! Feature hashing of labels into seeded Gaussian directions.
//!
//! Out-of-lexicon tokens still need a stable vector, and in-lexicon tokens
//! need a small surface-form component so `ORDERDATE` and `ORDER_DATETIME`
//! do not collapse onto identical points. Both come from hashing the
//! token's boundary-padded character trigrams
//! ([`cs_schema::text::trigrams`]): each trigram seeds a unit Gaussian
//! direction, and the token's surface vector is their normalized sum.
//! Tokens sharing trigrams (similar spellings) therefore share vector
//! mass — a smooth, deterministic analog of subword embeddings. Concept
//! and domain directions are the same hash over `concept:`/`domain:`
//! labels.
//!
//! A direction is a pure function of `(label, seed, dim)`, so the encoder's
//! batch plan (`crate::encoder`) generates each distinct label once per
//! batch, into a recycled buffer, and drops it after its last use.

pub use cs_linalg::fnv1a;
use cs_linalg::{SplitMix64, Xoshiro256};

/// Writes the deterministic unit Gaussian direction of an arbitrary label
/// into `out` (its length is the dimension).
///
/// The same `(label, seed, out.len())` always produces the same vector.
pub fn seeded_direction(label: &str, seed: u64, out: &mut [f64]) {
    let mut rng = Xoshiro256::seed_from(SplitMix64::new(fnv1a(label.as_bytes()) ^ seed).next_u64());
    rng.fill_gaussian(out);
    cs_linalg::vecops::normalize(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::vecops::{cosine, norm};

    fn direction(label: &str, seed: u64, dim: usize) -> Vec<f64> {
        let mut v = vec![0.0; dim];
        seeded_direction(label, seed, &mut v);
        v
    }

    #[test]
    fn directions_are_deterministic_and_unit() {
        let a = direction("CUSTOMER", 1, 64);
        let b = direction("CUSTOMER", 1, 64);
        assert_eq!(a, b);
        assert!((norm(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn directions_differ_by_label_and_seed() {
        let a = direction("CUSTOMER", 1, 256);
        let b = direction("PRODUCT", 1, 256);
        let c = direction("CUSTOMER", 2, 256);
        // Random 256-d directions are near-orthogonal.
        assert!(cosine(&a, &b).abs() < 0.25);
        assert!(cosine(&a, &c).abs() < 0.25);
    }
}
