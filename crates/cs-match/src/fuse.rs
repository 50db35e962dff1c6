//! Reciprocal-rank fusion of dense and lexical scoping channels
//! (DESIGN.md §14).
//!
//! RRF combines rankings without comparing their incommensurable scores
//! (squared distances vs Jaccard similarities): a pair at rank `r` in a
//! channel contributes `1 / (k₀ + r)`, and contributions sum across
//! channels. Ranks are *competition* ranks — pairs whose channel scores
//! are exactly equal share the rank of the first of their run — so the
//! fused score of a pair is a pure function of the score multisets, and
//! the fused ranking inherits the channels' schema-order invariance.

use crate::ann::AnnMatcher;
use crate::lexical::ranked_lexical_pairs;
use crate::{dedup_pairs, CandidatePair, ElementSet, Matcher, NamedSet};
use cs_linalg::vecops::total_cmp_f64;
use std::collections::BTreeMap;

/// The conventional RRF damping constant (Cormack et al.).
pub const RRF_K: f64 = 60.0;

/// 1-based competition ranks for a best-first scored list: equal scores
/// share a rank, the next distinct score resumes at its list position
/// (`1, 2, 2, 4, …`).
pub fn competition_ranks(scored: &[(CandidatePair, f64)]) -> Vec<(CandidatePair, usize)> {
    let mut out = Vec::with_capacity(scored.len());
    let mut rank = 0usize;
    for (i, &(pair, score)) in scored.iter().enumerate() {
        if i == 0 || total_cmp_f64(&score, &scored[i - 1].1).is_ne() {
            rank = i + 1;
        }
        out.push((pair, rank));
    }
    out
}

/// Fuses best-first rankings by reciprocal rank: every pair scores
/// `Σ 1/(k₀ + rankᵢ)` over the channels that ranked it. Returns the
/// fused list best-first (score descending, pair ascending on ties).
pub fn rrf_fuse(rankings: &[&[(CandidatePair, f64)]], k0: f64) -> Vec<(CandidatePair, f64)> {
    assert!(k0 > 0.0, "RRF damping constant must be positive");
    let mut fused: BTreeMap<CandidatePair, f64> = BTreeMap::new();
    for ranking in rankings {
        for (pair, rank) in competition_ranks(ranking) {
            *fused.entry(pair).or_insert(0.0) += 1.0 / (k0 + rank as f64);
        }
    }
    let mut out: Vec<(CandidatePair, f64)> = fused.into_iter().collect();
    out.sort_by(|a, b| total_cmp_f64(&b.1, &a.1).then(a.0.cmp(&b.0)));
    out
}

/// Hybrid scoping matcher: RRF fusion of the dense ANN channel with the
/// token-trigram lexical channel.
///
/// The lexical channel's name data cannot travel through
/// [`ElementSet`]s, so the matcher carries its own [`NamedSet`]s — any
/// kept-element filtering must already be applied to both views.
#[derive(Debug, Clone)]
pub struct HybridMatcher {
    ann: AnnMatcher,
    names: Vec<NamedSet>,
}

impl HybridMatcher {
    /// Fuses the dense channel of `ann` (its configuration and execution
    /// policy) with a lexical channel over `names`, retrieving the ANN
    /// `k` neighbors per element on both sides. Every fused pair is
    /// emitted.
    pub fn new(ann: AnnMatcher, names: Vec<NamedSet>) -> Self {
        Self { ann, names }
    }

    /// Fused pairs best-first with their RRF scores; the scored view
    /// behind [`Matcher::match_pairs`].
    pub fn ranked_pairs(&self, sets: &[ElementSet]) -> Vec<(CandidatePair, f64)> {
        let dense = self.ann.ranked_pairs(sets);
        let lexical = ranked_lexical_pairs(&self.names, self.ann.config().k);
        rrf_fuse(&[&dense, &lexical], RRF_K)
    }
}

impl Matcher for HybridMatcher {
    fn name(&self) -> String {
        let k = self.ann.config().k;
        format!("HYBRID(ANN({k})+LEX({k}))")
    }

    fn match_pairs(&self, sets: &[ElementSet]) -> Vec<CandidatePair> {
        dedup_pairs(
            self.ranked_pairs(sets)
                .into_iter()
                .map(|(p, _)| p)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::{Matrix, Xoshiro256};
    use cs_schema::ElementId;

    fn pair(a: usize, b: usize) -> CandidatePair {
        CandidatePair::new(ElementId::new(0, a), ElementId::new(1, b))
    }

    #[test]
    fn competition_ranks_share_on_ties() {
        let scored = vec![
            (pair(0, 0), 0.9),
            (pair(0, 1), 0.5),
            (pair(0, 2), 0.5),
            (pair(0, 3), 0.1),
        ];
        let ranks: Vec<usize> = competition_ranks(&scored).iter().map(|&(_, r)| r).collect();
        assert_eq!(ranks, vec![1, 2, 2, 4]);
        assert!(competition_ranks(&[]).is_empty());
    }

    #[test]
    fn fusion_rewards_agreement() {
        let dense = vec![(pair(0, 0), 0.1), (pair(0, 1), 0.2), (pair(0, 2), 0.3)];
        let lexical = vec![(pair(0, 2), 0.9), (pair(0, 0), 0.8)];
        let fused = rrf_fuse(&[&dense, &lexical], RRF_K);
        // (0,0): ranks 1+2; (0,2): ranks 3+1; (0,1): rank 2 only.
        assert_eq!(fused[0].0, pair(0, 0));
        assert_eq!(fused[1].0, pair(0, 2));
        assert_eq!(fused[2].0, pair(0, 1));
        let expect = 1.0 / (RRF_K + 1.0) + 1.0 / (RRF_K + 2.0);
        assert!((fused[0].1 - expect).abs() < 1e-12);
    }

    #[test]
    fn fused_score_ignores_input_list_order_of_tied_runs() {
        let a = vec![(pair(0, 0), 0.5), (pair(0, 1), 0.5)];
        let b = vec![(pair(0, 1), 0.5), (pair(0, 0), 0.5)];
        assert_eq!(rrf_fuse(&[&a], RRF_K), rrf_fuse(&[&b], RRF_K));
    }

    fn hybrid_fixture(seed: u64) -> (HybridMatcher, Vec<ElementSet>) {
        let mut rng = Xoshiro256::seed_from(seed);
        let sets: Vec<ElementSet> = (0..2)
            .map(|s| ElementSet::full(s, Matrix::from_fn(6, 8, |_, _| rng.next_gaussian())))
            .collect();
        let names = vec![
            NamedSet::new(
                0,
                sets[0].ids.clone(),
                vec![
                    "CUSTOMER_ID".into(),
                    "ORDER_DATE".into(),
                    "ZIP".into(),
                    "PRICE".into(),
                    "QTY".into(),
                    "NOTE".into(),
                ],
            ),
            NamedSet::new(
                1,
                sets[1].ids.clone(),
                vec![
                    "customerId".into(),
                    "orderDate".into(),
                    "postalCode".into(),
                    "unitPrice".into(),
                    "quantity".into(),
                    "comment".into(),
                ],
            ),
        ];
        (HybridMatcher::new(AnnMatcher::new(3), names), sets)
    }

    #[test]
    fn hybrid_surfaces_lexical_twins_missed_by_random_signatures() {
        let (matcher, sets) = hybrid_fixture(17);
        let ranked = matcher.ranked_pairs(&sets);
        assert!(!ranked.is_empty());
        let lexical_twin = pair(0, 0); // CUSTOMER_ID ↔ customerId
        assert!(
            ranked.iter().any(|&(p, _)| p == lexical_twin),
            "fusion must carry the lexical channel's hit"
        );
        for w in ranked.windows(2) {
            assert!(total_cmp_f64(&w[0].1, &w[1].1).is_ge());
        }
    }

    #[test]
    fn matcher_trait_surface() {
        let (matcher, sets) = hybrid_fixture(29);
        assert_eq!(matcher.name(), "HYBRID(ANN(3)+LEX(3))");
        let pairs = matcher.match_pairs(&sets);
        let ranked = matcher.ranked_pairs(&sets);
        assert_eq!(pairs.len(), ranked.len());
    }

    #[test]
    #[should_panic(expected = "damping constant")]
    fn non_positive_k0_panics() {
        rrf_fuse(&[], 0.0);
    }
}
