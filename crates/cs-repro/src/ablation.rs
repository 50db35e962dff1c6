//! Figure-7 ablation: matching algorithms on original (SOTA) vs
//! streamlined schemas.
//!
//! Attributes and tables are matched in separate passes (Table 3 also
//! counts their Cartesian spaces separately) and the candidate sets are
//! unioned; PQ / PC / F1 / RR are computed against the annotated linkage
//! set with the *original* catalog's pairwise Cartesian size as the RR
//! denominator, exactly as Section 4.2 defines.

use crate::experiments::{dataset_signatures, v_grid};
use cs_core::{CollaborativeSweep, SchemaSignatures};
use cs_datasets::Dataset;
use cs_match::{ClusterMatcher, ElementSet, LshMatcher, Matcher, SimMatcher};
use cs_metrics::{match_quality, MatchQuality};
use cs_schema::ElementId;
use std::collections::HashSet;

/// The paper's matcher roster: three parameterizations each of SIM,
/// CLUSTER, and LSH.
pub(crate) fn matcher_roster() -> Vec<Box<dyn Matcher>> {
    let mut roster: Vec<Box<dyn Matcher>> = Vec::new();
    for t in [0.4, 0.6, 0.8] {
        roster.push(Box::new(SimMatcher::new(t)));
    }
    for k in [2, 5, 20] {
        roster.push(Box::new(ClusterMatcher::new(k)));
    }
    for k in [1, 5, 20] {
        roster.push(Box::new(LshMatcher::new(k)));
    }
    roster
}

/// Splits a dataset's signatures into per-schema attribute and table
/// element sets, optionally restricted to a kept-element set.
pub fn split_element_sets(
    dataset: &Dataset,
    signatures: &SchemaSignatures,
    keep: Option<&HashSet<ElementId>>,
) -> (Vec<ElementSet>, Vec<ElementSet>) {
    let mut attr_sets = Vec::new();
    let mut table_sets = Vec::new();
    for k in 0..signatures.schema_count() {
        let schema = dataset.catalog.schema(k);
        let attr_count = schema.attribute_count();
        let total = schema.element_count();
        let keep_filter = |e: usize| {
            let id = ElementId::new(k, e);
            keep.is_none_or(|set| set.contains(&id))
        };
        let attrs: HashSet<ElementId> = (0..attr_count)
            .filter(|&e| keep_filter(e))
            .map(|e| ElementId::new(k, e))
            .collect();
        let tables: HashSet<ElementId> = (attr_count..total)
            .filter(|&e| keep_filter(e))
            .map(|e| ElementId::new(k, e))
            .collect();
        attr_sets.push(ElementSet::filtered(k, signatures.schema(k), &attrs));
        table_sets.push(ElementSet::filtered(k, signatures.schema(k), &tables));
    }
    (attr_sets, table_sets)
}

/// Runs one matcher on the attribute and table passes and scores the
/// unioned candidates.
pub(crate) fn evaluate_matcher(
    matcher: &dyn Matcher,
    attr_sets: &[ElementSet],
    table_sets: &[ElementSet],
    dataset: &Dataset,
) -> MatchQuality {
    let mut pairs = matcher.match_pairs(attr_sets);
    pairs.extend(matcher.match_pairs(table_sets));
    let pairs = cs_match::dedup_pairs(pairs);
    let tp = pairs
        .iter()
        .filter(|p| dataset.linkages.contains_pair(p.a, p.b))
        .count();
    match_quality(
        pairs.len(),
        tp,
        dataset.linkages.len(),
        dataset.catalog.cartesian_element_pairs(),
    )
}

/// One Figure-7 measurement.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Matcher display name (`SIM(0.8)`, …).
    pub matcher: String,
    /// Explained variance of the streamlining pre-process; `None` = SOTA
    /// baseline on the original schemas.
    pub v: Option<f64>,
    /// Match quality at this point.
    pub quality: MatchQuality,
}

/// Runs the full Figure-7 ablation on one dataset over `steps` grid
/// points.
pub(crate) fn fig7_ablation(dataset: &Dataset, steps: usize) -> Vec<AblationPoint> {
    let signatures = dataset_signatures(dataset);
    let roster = matcher_roster();
    let mut out = Vec::new();

    // SOTA baselines (x-axis = 0 in the paper's plots).
    let (attr_full, table_full) = split_element_sets(dataset, &signatures, None);
    for matcher in &roster {
        out.push(AblationPoint {
            matcher: matcher.name(),
            v: None,
            quality: evaluate_matcher(matcher.as_ref(), &attr_full, &table_full, dataset),
        });
    }

    // Streamlined runs over the v grid.
    let sweep = CollaborativeSweep::prepare(&signatures).expect("valid dataset");
    for v in v_grid(steps) {
        let kept = sweep.assess_at(v).expect("valid grid point").kept();
        let (attr_sets, table_sets) = split_element_sets(dataset, &signatures, Some(&kept));
        for matcher in &roster {
            out.push(AblationPoint {
                matcher: matcher.name(),
                v: Some(v),
                quality: evaluate_matcher(matcher.as_ref(), &attr_sets, &table_sets, dataset),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_paper() {
        let names: Vec<String> = matcher_roster().iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "SIM(0.4)",
                "SIM(0.6)",
                "SIM(0.8)",
                "CLUSTER(2)",
                "CLUSTER(5)",
                "CLUSTER(20)",
                "LSH(1)",
                "LSH(5)",
                "LSH(20)"
            ]
        );
    }

    #[test]
    fn split_covers_all_elements() {
        let ds = cs_datasets::oc3();
        let sigs = dataset_signatures(&ds);
        let (attrs, tables) = split_element_sets(&ds, &sigs, None);
        let attr_total: usize = attrs.iter().map(ElementSet::len).sum();
        let table_total: usize = tables.iter().map(ElementSet::len).sum();
        assert_eq!(attr_total, 142);
        assert_eq!(table_total, 18);
    }

    #[test]
    fn filtered_split_respects_keep_set() {
        let ds = cs_datasets::oc3();
        let sigs = dataset_signatures(&ds);
        let keep: HashSet<ElementId> = [ElementId::new(0, 0), ElementId::new(1, 3)]
            .into_iter()
            .collect();
        let (attrs, tables) = split_element_sets(&ds, &sigs, Some(&keep));
        let attr_total: usize = attrs.iter().map(ElementSet::len).sum();
        let table_total: usize = tables.iter().map(ElementSet::len).sum();
        assert_eq!(attr_total, 2);
        assert_eq!(table_total, 0);
    }

    #[test]
    fn sim_on_oc3_produces_sane_quality() {
        let ds = cs_datasets::oc3();
        let sigs = dataset_signatures(&ds);
        let (attrs, tables) = split_element_sets(&ds, &sigs, None);
        let q = evaluate_matcher(&SimMatcher::new(0.8), &attrs, &tables, &ds);
        assert!(q.pq > 0.0, "some true linkage above 0.8 cosine");
        assert!(q.rr > 0.9, "high threshold prunes most of the space");
    }
}
