//! SIM: exhaustive cosine-threshold matching.
//!
//! Enumerates the full Cartesian product of every schema pair (the
//! "Preparation" module of Zhang et al.) and keeps pairs whose cosine
//! similarity meets the threshold `t`. Each row's norm is computed once
//! per set, and each schema pair's dot products come from the
//! register-tiled `a · bᵀ` kernel ([`Matrix::matmul_transposed`]) in
//! blocks of at most [`QUERY_CHUNK`] rows, so every score has the same
//! bits as [`cs_linalg::vecops::cosine`] on the pair.

use crate::{CandidatePair, ElementSet, Matcher};
use cs_linalg::vecops::norm;
use cs_linalg::Matrix;

/// Rows of the left set per dot block: bounds the block at
/// `QUERY_CHUNK × rows(right)` scores whatever the schema sizes.
const QUERY_CHUNK: usize = 256;

/// Cosine-threshold matcher.
#[derive(Debug, Clone, Copy)]
pub struct SimMatcher {
    threshold: f64,
}

impl SimMatcher {
    /// Creates a matcher with threshold `t ∈ [-1, 1]`.
    pub fn new(threshold: f64) -> Self {
        assert!(
            (-1.0..=1.0).contains(&threshold),
            "cosine threshold must lie in [-1, 1]"
        );
        Self { threshold }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl Matcher for SimMatcher {
    fn name(&self) -> String {
        format!("SIM({})", self.threshold)
    }

    fn match_pairs(&self, sets: &[ElementSet]) -> Vec<CandidatePair> {
        let norms: Vec<Vec<f64>> = sets
            .iter()
            .map(|s| {
                (0..s.ids.len())
                    .map(|r| norm(s.signatures.row(r)))
                    .collect()
            })
            .collect();
        let mut out = Vec::new();
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                let (x, y) = (&sets[i], &sets[j]);
                if y.is_empty() {
                    // No pairs, and an empty schema's signatures may
                    // carry no columns at all.
                    continue;
                }
                let dim = x.signatures.cols();
                for start in (0..x.ids.len()).step_by(QUERY_CHUNK) {
                    let end = (start + QUERY_CHUNK).min(x.ids.len());
                    let chunk = x.signatures.as_slice()[start * dim..end * dim].to_vec();
                    let dots =
                        Matrix::from_vec(end - start, dim, chunk).matmul_transposed(&y.signatures);
                    let rows = x.ids[start..end].iter().zip(&norms[i][start..end]);
                    for (r, (xid, &xnorm)) in rows.enumerate() {
                        for ((yid, &d), &ynorm) in y.ids.iter().zip(dots.row(r)).zip(&norms[j]) {
                            // The zero-norm guard, divide and clamp of
                            // `vecops::cosine_with_norms`.
                            let c = if xnorm == 0.0 || ynorm == 0.0 {
                                0.0
                            } else {
                                (d / (xnorm * ynorm)).clamp(-1.0, 1.0)
                            };
                            if c >= self.threshold {
                                out.push(CandidatePair::new(*xid, *yid));
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::Matrix;

    fn sets() -> Vec<ElementSet> {
        // Schema 0: two nearly orthogonal unit vectors.
        let s0 = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
        // Schema 1: one close to s0[0], one oblique, one orthogonal to both.
        let s1 = Matrix::from_rows(&[
            vec![0.95, 0.05, 0.0],
            vec![0.7, 0.7, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        vec![ElementSet::full(0, s0), ElementSet::full(1, s1)]
    }

    #[test]
    fn high_threshold_keeps_only_near_duplicates() {
        let pairs = SimMatcher::new(0.9).match_pairs(&sets());
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].a, cs_schema::ElementId::new(0, 0));
        assert_eq!(pairs[0].b, cs_schema::ElementId::new(1, 0));
    }

    #[test]
    fn lower_threshold_is_superset() {
        let hi: std::collections::HashSet<_> = SimMatcher::new(0.8)
            .match_pairs(&sets())
            .into_iter()
            .collect();
        let lo: std::collections::HashSet<_> = SimMatcher::new(0.4)
            .match_pairs(&sets())
            .into_iter()
            .collect();
        assert!(hi.is_subset(&lo));
        assert!(lo.len() > hi.len());
    }

    #[test]
    fn threshold_minus_one_enumerates_cartesian() {
        let pairs = SimMatcher::new(-1.0).match_pairs(&sets());
        assert_eq!(pairs.len(), 2 * 3);
    }

    #[test]
    fn three_schemas_cover_all_pairs() {
        let mut s = sets();
        s.push(ElementSet::full(
            2,
            Matrix::from_rows(&[vec![1.0, 0.0, 0.0]]),
        ));
        let pairs = SimMatcher::new(-1.0).match_pairs(&s);
        // 2·3 + 2·1 + 3·1 = 11.
        assert_eq!(pairs.len(), 11);
    }

    #[test]
    fn empty_sets_yield_nothing() {
        let empty = vec![
            ElementSet::full(0, Matrix::zeros(0, 3)),
            ElementSet::full(1, Matrix::zeros(0, 3)),
        ];
        assert!(SimMatcher::new(0.5).match_pairs(&empty).is_empty());
        // An empty schema's signatures may have no columns at all.
        let mixed = vec![
            ElementSet::full(0, Matrix::from_rows(&[vec![1.0, 0.0, 0.0]])),
            ElementSet::full(1, Matrix::zeros(0, 0)),
        ];
        assert!(SimMatcher::new(-1.0).match_pairs(&mixed).is_empty());
    }

    #[test]
    fn pairs_equal_per_pair_cosine_reference() {
        // Random sets with zero rows and NaN rows: hoisted norms and
        // chunked dot blocks must keep exactly the pairs a per-pair
        // `cosine` keeps. The sizes cover an empty set, sets that
        // straddle the kernel's 4×4 micro-tile, and one set larger than
        // a query chunk.
        use cs_linalg::vecops::cosine;
        use cs_linalg::{SplitMix64, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(SplitMix64::new(17).next_u64());
        let dim = 24;
        let mut sets = Vec::new();
        for (k, rows) in [7, 0, 5, 1, 9, QUERY_CHUNK + 44].into_iter().enumerate() {
            let mut m = Matrix::zeros(rows, dim);
            rng.fill_gaussian(m.as_mut_slice());
            if rows > 1 {
                m.row_mut(1).fill(0.0);
            }
            if k % 2 == 0 && rows > 3 {
                m.row_mut(3)[5] = f64::NAN;
            }
            sets.push(ElementSet::full(k, m));
        }
        for t in [-1.0, -0.2, 0.0, 0.1, 0.3] {
            let mut reference = Vec::new();
            for i in 0..sets.len() {
                for j in (i + 1)..sets.len() {
                    for (xi, xid) in sets[i].ids.iter().enumerate() {
                        for (yi, yid) in sets[j].ids.iter().enumerate() {
                            let (x, y) = (sets[i].signatures.row(xi), sets[j].signatures.row(yi));
                            if cosine(x, y) >= t {
                                reference.push(CandidatePair::new(*xid, *yid));
                            }
                        }
                    }
                }
            }
            assert_eq!(SimMatcher::new(t).match_pairs(&sets), reference, "t = {t}");
        }
    }

    #[test]
    fn name_and_threshold() {
        let m = SimMatcher::new(0.6);
        assert_eq!(m.name(), "SIM(0.6)");
        assert_eq!(m.threshold(), 0.6);
    }

    #[test]
    #[should_panic(expected = "cosine threshold")]
    fn out_of_range_threshold_panics() {
        SimMatcher::new(1.5);
    }
}
