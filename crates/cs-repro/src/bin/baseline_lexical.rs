//! Related-work baseline: lexical name matching vs semantic signatures.
//!
//! Section 2.2 of the paper argues that relying exclusively on string
//! similarity between schema names "suffers from labeling conflicts".
//! This binary quantifies that on the evaluation datasets: a token-trigram
//! Jaccard name matcher (the hybrid scoper's lexical channel, every pair
//! scoring at least 0.5) against the cosine SIM matcher, both with and
//! without collaborative streamlining.

use cs_core::CollaborativeScoper;
use cs_match::lexical::ranked_lexical_pairs;
use cs_match::{dedup_pairs, ElementSet, Matcher, NamedSet, SimMatcher};
use cs_metrics::match_quality;
use cs_repro::experiments::dataset_signatures;
use cs_repro::report::render_table;

/// Jaccard threshold of the lexical matcher.
const TRIGRAM_THRESHOLD: f64 = 0.5;

fn score(pairs: Vec<cs_match::CandidatePair>, ds: &cs_datasets::Dataset) -> Vec<String> {
    let pairs = dedup_pairs(pairs);
    let tp = pairs
        .iter()
        .filter(|p| ds.linkages.contains_pair(p.a, p.b))
        .count();
    let q = match_quality(
        pairs.len(),
        tp,
        ds.linkages.len(),
        ds.catalog.cartesian_element_pairs(),
    );
    vec![
        format!("{:.3}", q.pq),
        format!("{:.3}", q.pc),
        format!("{:.3}", q.f1),
        format!("{}", q.candidates),
    ]
}

fn main() {
    for ds in [cs_datasets::oc3(), cs_datasets::oc3_fo()] {
        println!("Lexical vs semantic matching — {}\n", ds.name);
        let signatures = dataset_signatures(&ds);
        let kept = CollaborativeScoper::new(0.75)
            .run(&signatures)
            .expect("valid dataset")
            .outcome
            .kept();

        let mut rows = Vec::new();
        for (label, keep) in [("original", None), ("streamlined", Some(&kept))] {
            // Lexical matcher: with k = every element, the trigram index
            // returns each pair sharing a trigram, i.e. every pair with a
            // positive score, so the threshold cut is exact.
            let names: Vec<NamedSet> = (0..ds.catalog.schema_count())
                .map(|k| match keep {
                    Some(set) => NamedSet::filtered(k, ds.catalog.schema(k), set),
                    None => NamedSet::full(k, ds.catalog.schema(k)),
                })
                .collect();
            let pairs = ranked_lexical_pairs(&names, ds.catalog.element_count())
                .into_iter()
                .filter(|&(_, s)| s >= TRIGRAM_THRESHOLD)
                .map(|(p, _)| p)
                .collect();
            let mut row = vec![format!("TokenTrigram({TRIGRAM_THRESHOLD}) {label}")];
            row.extend(score(pairs, &ds));
            rows.push(row);
            // Semantic reference.
            let sets: Vec<ElementSet> = (0..signatures.schema_count())
                .map(|k| match keep {
                    Some(set) => ElementSet::filtered(k, signatures.schema(k), set),
                    None => ElementSet::full(k, signatures.schema(k).clone()),
                })
                .collect();
            let pairs = SimMatcher::new(0.8).match_pairs(&sets);
            let mut row = vec![format!("SIM(0.8) semantic {label}")];
            row.extend(score(pairs, &ds));
            rows.push(row);
        }
        println!(
            "{}",
            render_table(&["Matcher", "PQ", "PC", "F1", "candidates"], &rows)
        );
    }
}
