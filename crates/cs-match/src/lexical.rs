//! Std-only token-trigram lexical scoring for hybrid scoping
//! (DESIGN.md §14) and the string-similarity baseline.
//!
//! Complements the dense signature channel with the surface signal the
//! embeddings can wash out: element names are split by the shared
//! identifier tokenizer ([`cs_schema::text::tokenize`]: delimiter,
//! camel-case and letter/digit boundaries, case folded), each token is
//! shredded into its padded character [`cs_schema::text::trigrams`], and
//! names are compared by Jaccard similarity of their trigram *sets* — so
//! `ORDER_DATE`, `orderDate` and `date_of_order` land on overlapping
//! grams. An inverted trigram index (ordered postings — the
//! `no-unordered-iteration` gate applies here) makes top-`k` lookup touch
//! only rows sharing at least one trigram instead of the full cross
//! product.

use crate::ann::truncate_with_ties;
use crate::CandidatePair;
use cs_linalg::vecops::total_cmp_f64;
use cs_schema::text::{tokenize, trigrams};
use cs_schema::{ElementId, ElementRef, Schema};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// One schema's elements with their display names (signatures are not
/// needed for lexical matching).
#[derive(Debug, Clone)]
pub struct NamedSet {
    /// Schema index in the catalog.
    pub schema: usize,
    /// Element ids aligned with `names`.
    pub ids: Vec<ElementId>,
    /// Element names as given (the tokenizer folds case).
    pub names: Vec<String>,
}

impl NamedSet {
    /// Builds a set from aligned ids and names.
    pub fn new(schema: usize, ids: Vec<ElementId>, names: Vec<String>) -> Self {
        assert_eq!(ids.len(), names.len(), "ids/names misaligned");
        Self { schema, ids, names }
    }

    /// Every element of `source` with its unqualified name (attribute or
    /// table name), in the canonical order of [`crate::ElementSet::full`].
    pub fn full(schema: usize, source: &Schema) -> Self {
        Self::from_schema(schema, source, |_| true)
    }

    /// Like [`NamedSet::full`], keeping only elements in `keep`
    /// (streamlined schemas), aligned with [`crate::ElementSet::filtered`].
    pub fn filtered(schema: usize, source: &Schema, keep: &HashSet<ElementId>) -> Self {
        Self::from_schema(schema, source, |id| keep.contains(&id))
    }

    fn from_schema(schema: usize, source: &Schema, keep: impl Fn(ElementId) -> bool) -> Self {
        let mut ids = Vec::new();
        let mut names = Vec::new();
        for (e, r) in source.element_refs().into_iter().enumerate() {
            let id = ElementId::new(schema, e);
            if keep(id) {
                ids.push(id);
                names.push(match r {
                    ElementRef::Table { table } => source.tables[table].name.clone(),
                    ElementRef::Attribute { table, attribute } => {
                        source.tables[table].attributes[attribute].name.clone()
                    }
                });
            }
        }
        Self { schema, ids, names }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Inverted token-trigram index over a list of names.
struct LexicalIndex {
    grams: Vec<BTreeSet<String>>,
    postings: BTreeMap<String, Vec<usize>>,
}

impl LexicalIndex {
    /// Indexes `names` by row.
    fn build(names: &[String]) -> Self {
        let grams: Vec<BTreeSet<String>> = names
            .iter()
            .map(|n| tokenize(n).iter().flat_map(|t| trigrams(t)).collect())
            .collect();
        let mut postings: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (row, set) in grams.iter().enumerate() {
            for g in set {
                postings.entry(g.clone()).or_default().push(row);
            }
        }
        Self { grams, postings }
    }

    /// Top-`k` rows most similar to indexed row `query` among rows
    /// passing `keep`, best first (ties at the boundary included; rows
    /// sharing no trigram never appear).
    fn search_filtered(
        &self,
        query: usize,
        k: usize,
        keep: impl Fn(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        // Postings store each row once per gram, so occurrence counts
        // across the query's grams are exactly |intersection|.
        let mut overlap: BTreeMap<usize, usize> = BTreeMap::new();
        for g in &self.grams[query] {
            if let Some(rows) = self.postings.get(g) {
                for &r in rows {
                    if r != query && keep(r) {
                        *overlap.entry(r).or_insert(0) += 1;
                    }
                }
            }
        }
        let qlen = self.grams[query].len();
        let mut scored: Vec<(usize, f64)> = overlap
            .into_iter()
            .map(|(r, inter)| {
                let union = qlen + self.grams[r].len() - inter;
                (r, inter as f64 / union as f64)
            })
            .collect();
        scored.sort_by(|a, b| total_cmp_f64(&b.1, &a.1).then(a.0.cmp(&b.0)));
        truncate_with_ties(&mut scored, k);
        scored
    }
}

/// Cross-schema lexical ranking over named sets: every element queries a
/// global trigram index for its top-`k` foreign neighbors; pairs keep
/// their (symmetric) Jaccard score, deduplicated, best first.
pub fn ranked_lexical_pairs(sets: &[NamedSet], k: usize) -> Vec<(CandidatePair, f64)> {
    let nonempty: Vec<&NamedSet> = sets.iter().filter(|s| !s.is_empty()).collect();
    if nonempty.len() < 2 || k == 0 {
        return Vec::new();
    }
    let mut names = Vec::new();
    let mut ids = Vec::new();
    let mut schema_of = Vec::new();
    for set in &nonempty {
        for (r, &id) in set.ids.iter().enumerate() {
            names.push(set.names[r].clone());
            ids.push(id);
            schema_of.push(set.schema);
        }
    }
    let index = LexicalIndex::build(&names);
    let mut best: BTreeMap<CandidatePair, f64> = BTreeMap::new();
    for qi in 0..names.len() {
        for (r, score) in index.search_filtered(qi, k, |i| schema_of[i] != schema_of[qi]) {
            let pair = CandidatePair::new(ids[qi], ids[r]);
            best.entry(pair)
                .and_modify(|cur| {
                    if total_cmp_f64(&score, cur).is_gt() {
                        *cur = score;
                    }
                })
                .or_insert(score);
        }
    }
    let mut out: Vec<(CandidatePair, f64)> = best.into_iter().collect();
    out.sort_by(|a, b| total_cmp_f64(&b.1, &a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_schema::{Attribute, Constraint, DataType, Table};

    fn strings(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// Exhaustive reference: Jaccard of two names' trigram sets.
    fn jaccard(a: &str, b: &str) -> f64 {
        let grams = |n: &str| -> BTreeSet<String> {
            tokenize(n).iter().flat_map(|t| trigrams(t)).collect()
        };
        let (ga, gb) = (grams(a), grams(b));
        let inter = ga.intersection(&gb).count();
        inter as f64 / (ga.len() + gb.len() - inter) as f64
    }

    #[test]
    fn camel_case_twin_scores_exactly_one() {
        let sets = vec![
            NamedSet::new(0, vec![ElementId::new(0, 0)], strings(&["customerId"])),
            NamedSet::new(1, vec![ElementId::new(1, 0)], strings(&["CUSTOMER_ID"])),
        ];
        let ranked = ranked_lexical_pairs(&sets, 1);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].1, 1.0, "same tokens must score 1");
    }

    #[test]
    fn shared_tokens_score_high_across_conventions() {
        let names = strings(&["ORDER_DATE", "orderDate", "date_of_order", "ZIP"]);
        let hits = LexicalIndex::build(&names).search_filtered(0, 3, |_| true);
        assert_eq!(hits[0], (1, 1.0));
        assert_eq!(hits[1].0, 2);
        assert!(hits[1].1 > 0.5);
        // ZIP shares no trigram with ORDER_DATE.
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn index_scores_equal_exhaustive_jaccard() {
        let names = strings(&[
            "CUSTOMER_ID",
            "customerId",
            "CUSTOMER_NAME",
            "ZIP_CODE",
            "ADDRESS_LINE1",
            "addressLine2",
        ]);
        let index = LexicalIndex::build(&names);
        for q in 0..names.len() {
            let hits = index.search_filtered(q, names.len(), |_| true);
            let mut expect: Vec<(usize, f64)> = (0..names.len())
                .filter(|&r| r != q)
                .map(|r| (r, jaccard(&names[q], &names[r])))
                .filter(|&(_, s)| s > 0.0)
                .collect();
            expect.sort_by(|a, b| total_cmp_f64(&b.1, &a.1).then(a.0.cmp(&b.0)));
            assert_eq!(hits, expect, "query {}", names[q]);
        }
    }

    #[test]
    fn search_cut_keeps_boundary_ties() {
        let names = strings(&["ORDER_ID", "ORDER_KEY", "ORDER_NUM", "ZIP"]);
        let hits = LexicalIndex::build(&names).search_filtered(0, 1, |_| true);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].1, hits[1].1);
    }

    #[test]
    fn ranked_pairs_are_cross_schema_symmetric_and_sorted() {
        let sets = vec![
            NamedSet::new(
                0,
                vec![ElementId::new(0, 0), ElementId::new(0, 1)],
                strings(&["CUSTOMER_ID", "ORDER_DATE"]),
            ),
            NamedSet::new(
                1,
                vec![ElementId::new(1, 0), ElementId::new(1, 1)],
                strings(&["customerId", "orderDate"]),
            ),
        ];
        let ranked = ranked_lexical_pairs(&sets, 2);
        assert!(!ranked.is_empty());
        for w in ranked.windows(2) {
            assert!(total_cmp_f64(&w[0].1, &w[1].1).is_ge());
        }
        let top: Vec<CandidatePair> = ranked.iter().take(2).map(|&(p, _)| p).collect();
        assert!(top.contains(&CandidatePair::new(
            ElementId::new(0, 0),
            ElementId::new(1, 0)
        )));
        assert!(top.contains(&CandidatePair::new(
            ElementId::new(0, 1),
            ElementId::new(1, 1)
        )));
        // Schema order must not change the scored pair set.
        let flipped = vec![sets[1].clone(), sets[0].clone()];
        assert_eq!(ranked, ranked_lexical_pairs(&flipped, 2));
    }

    #[test]
    fn degenerate_inputs_yield_empty() {
        assert!(ranked_lexical_pairs(&[], 3).is_empty());
        let one = vec![NamedSet::new(
            0,
            vec![ElementId::new(0, 0)],
            strings(&["A"]),
        )];
        assert!(ranked_lexical_pairs(&one, 3).is_empty());
        let empties = vec![
            NamedSet::new(0, vec![], vec![]),
            NamedSet::new(1, vec![], vec![]),
        ];
        assert!(ranked_lexical_pairs(&empties, 3).is_empty());
    }

    #[test]
    fn named_sets_follow_element_set_order() {
        let attr = |n: &str| Attribute::new(n, DataType::Integer, Constraint::None);
        let schema = Schema::new(
            "S",
            vec![Table::new(
                "ORDERS",
                vec![attr("orderId"), attr("ORDER_DATE")],
            )],
        );
        let full = NamedSet::full(2, &schema);
        assert_eq!(full.schema, 2);
        assert_eq!(
            full.ids,
            (0..3).map(|e| ElementId::new(2, e)).collect::<Vec<_>>()
        );
        assert_eq!(full.names, strings(&["orderId", "ORDER_DATE", "ORDERS"]));

        let keep: HashSet<ElementId> = [ElementId::new(2, 0), ElementId::new(2, 2)]
            .into_iter()
            .collect();
        let kept = NamedSet::filtered(2, &schema, &keep);
        assert_eq!(kept.ids, vec![ElementId::new(2, 0), ElementId::new(2, 2)]);
        assert_eq!(kept.names, strings(&["orderId", "ORDERS"]));
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_named_set_panics() {
        NamedSet::new(0, vec![ElementId::new(0, 0)], vec![]);
    }
}
