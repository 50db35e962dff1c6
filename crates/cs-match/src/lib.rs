//! # cs-match
//!
//! Matching and blocking algorithms for the ablation study (Section 4.1):
//! the three "semantic blocking" variants of Meduri et al. that the paper
//! evaluates on original vs streamlined schemas.
//!
//! - [`SimMatcher`] — exhaustive cosine similarity over the Cartesian
//!   product of every schema pair, thresholded at `t ∈ {0.4, 0.6, 0.8}`,
//! - [`ClusterMatcher`] — k-means (`k ∈ {2, 5, 20}`) per schema pair;
//!   same-cluster cross-schema pairs become linkages,
//! - [`LshMatcher`] — an exact flat L2 nearest-neighbor index per schema
//!   (FAISS `IndexFlatL2` equivalent) queried for top-`k ∈ {1, 5, 20}`,
//!   plus a true random-hyperplane LSH index ([`lsh::HyperplaneLsh`]) as
//!   the approximate variant.
//!
//! All matchers consume [`ElementSet`]s — a schema's (possibly
//! streamlined) elements with their signatures — and emit normalized
//! [`CandidatePair`]s, so the same code path serves the SOTA baseline
//! (original schemas) and the collaborative-scoping ablation (streamlined
//! schemas).

pub mod ann;
pub mod cluster;
pub mod flat;
pub mod fuse;
pub mod kmeans;
pub mod lexical;
pub mod lsh;
pub mod sim;

pub use ann::{AnnConfig, AnnIndex, AnnMatcher, AnnSimMatcher};
pub use cluster::ClusterMatcher;
pub use flat::FlatIndex;
pub use fuse::{HybridMatcher, RRF_K};
pub use kmeans::KMeans;
pub use lexical::NamedSet;
pub use lsh::{HyperplaneLsh, LshMatcher};
pub use sim::SimMatcher;

use cs_linalg::Matrix;
use cs_schema::ElementId;
use std::collections::HashSet;

/// An unordered candidate linkage between elements of two schemas,
/// normalized so `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CandidatePair {
    /// Smaller endpoint.
    pub a: ElementId,
    /// Larger endpoint.
    pub b: ElementId,
}

impl CandidatePair {
    /// Creates a normalized pair.
    ///
    /// # Panics
    /// If the endpoints belong to the same schema.
    pub fn new(x: ElementId, y: ElementId) -> Self {
        assert_ne!(x.schema, y.schema, "candidate pairs span schemas");
        if x <= y {
            Self { a: x, b: y }
        } else {
            Self { a: y, b: x }
        }
    }
}

/// One schema's elements available for matching: ids aligned with the rows
/// of the signature matrix.
#[derive(Debug, Clone)]
pub struct ElementSet {
    /// Schema index in the catalog.
    pub schema: usize,
    /// Element ids, one per signature row.
    pub ids: Vec<ElementId>,
    /// Signatures, `len(ids) × dim`.
    pub signatures: Matrix,
}

impl ElementSet {
    /// Builds a set from a full schema signature matrix (canonical order).
    pub fn full(schema: usize, signatures: Matrix) -> Self {
        let ids = (0..signatures.rows())
            .map(|e| ElementId::new(schema, e))
            .collect();
        Self {
            schema,
            ids,
            signatures,
        }
    }

    /// Builds a set keeping only elements in `keep` (streamlined schemas).
    pub fn filtered(schema: usize, signatures: &Matrix, keep: &HashSet<ElementId>) -> Self {
        let mut ids = Vec::new();
        let mut rows = Vec::new();
        for e in 0..signatures.rows() {
            let id = ElementId::new(schema, e);
            if keep.contains(&id) {
                ids.push(id);
                rows.push(e);
            }
        }
        Self {
            schema,
            ids,
            signatures: signatures.select_rows(&rows),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no elements remain.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A linkage-generating matcher over multiple element sets.
pub trait Matcher {
    /// Display name including parameters, e.g. `SIM(0.8)`.
    fn name(&self) -> String;

    /// Generates candidate pairs across every pair of element sets.
    fn match_pairs(&self, sets: &[ElementSet]) -> Vec<CandidatePair>;
}

/// Deduplicates and sorts candidate pairs (matchers may emit duplicates
/// from symmetric passes).
pub fn dedup_pairs(mut pairs: Vec<CandidatePair>) -> Vec<CandidatePair> {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_pair_normalizes() {
        let x = ElementId::new(1, 0);
        let y = ElementId::new(0, 3);
        let p = CandidatePair::new(x, y);
        assert_eq!(p.a, y);
        assert_eq!(p.b, x);
        assert_eq!(p, CandidatePair::new(y, x));
    }

    #[test]
    #[should_panic(expected = "span schemas")]
    fn same_schema_pair_panics() {
        let x = ElementId::new(0, 0);
        let y = ElementId::new(0, 1);
        CandidatePair::new(x, y);
    }

    #[test]
    fn element_set_full_and_filtered() {
        let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let full = ElementSet::full(2, m.clone());
        assert_eq!(full.len(), 3);
        assert_eq!(full.ids[1], ElementId::new(2, 1));

        let keep: HashSet<ElementId> = [ElementId::new(2, 0), ElementId::new(2, 2)]
            .into_iter()
            .collect();
        let filtered = ElementSet::filtered(2, &m, &keep);
        assert_eq!(filtered.len(), 2);
        assert_eq!(
            filtered.ids,
            vec![ElementId::new(2, 0), ElementId::new(2, 2)]
        );
        assert_eq!(filtered.signatures.row(1), m.row(2));
        assert!(!filtered.is_empty());
    }

    #[test]
    fn dedup_removes_duplicates() {
        let a = ElementId::new(0, 0);
        let b = ElementId::new(1, 0);
        let c = ElementId::new(1, 1);
        let pairs = vec![
            CandidatePair::new(a, b),
            CandidatePair::new(b, a),
            CandidatePair::new(a, c),
        ];
        let d = dedup_pairs(pairs);
        assert_eq!(d.len(), 2);
    }
}
