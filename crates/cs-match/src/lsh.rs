//! LSH: nearest-neighbor blocking.
//!
//! [`LshMatcher`] follows the paper's setup exactly: an exact flat-L2
//! index (FAISS `IndexFlatL2`) per schema, searched for the top-`k`
//! similar signatures of every element of every *other* schema, in both
//! directions, with the symmetric union deduplicated.
//!
//! [`HyperplaneLsh`] is a genuine locality-sensitive-hashing index (random
//! hyperplane signatures + multi-table banding) provided as the
//! approximate variant; a test pins its recall against the exact index.

use crate::flat::FlatIndex;
use crate::{dedup_pairs, CandidatePair, ElementSet, Matcher};
use cs_linalg::vecops::{sq_euclidean, total_cmp_f64};
use cs_linalg::{Matrix, Xoshiro256};
use std::collections::BTreeMap;

/// Top-k nearest-neighbor matcher over exact flat indexes.
#[derive(Debug, Clone, Copy)]
pub struct LshMatcher {
    k: usize,
}

impl LshMatcher {
    /// Creates a matcher retrieving the top `k ≥ 1` neighbors per query.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "top-k must be at least 1");
        Self { k }
    }

    /// The configured neighbor count.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Matcher for LshMatcher {
    fn name(&self) -> String {
        format!("LSH({})", self.k)
    }

    fn match_pairs(&self, sets: &[ElementSet]) -> Vec<CandidatePair> {
        // One index per schema.
        let indexes: Vec<FlatIndex> = sets
            .iter()
            .map(|s| FlatIndex::build(s.signatures.clone()))
            .collect();
        let mut out = Vec::new();
        for (qi, query_set) in sets.iter().enumerate() {
            for (ti, index) in indexes.iter().enumerate() {
                if qi == ti || index.is_empty() {
                    continue;
                }
                for (row, &qid) in query_set.ids.iter().enumerate() {
                    for (hit, _) in index.search(query_set.signatures.row(row), self.k) {
                        out.push(CandidatePair::new(qid, sets[ti].ids[hit]));
                    }
                }
            }
        }
        dedup_pairs(out)
    }
}

/// Random-hyperplane LSH index with banded multi-table lookup.
///
/// Signatures are hashed to `tables × band_bits` sign bits; candidates
/// share a full band in at least one table and are re-ranked by exact
/// distance. Sparse probes widen deterministically: single-bit-flip
/// neighbor buckets first, then an exact scan, so [`Self::search`] never
/// silently returns fewer than `k` hits while more rows exist
/// (DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct HyperplaneLsh {
    data: Matrix,
    /// `tables` ordered maps: band value → row indices (ascending).
    /// BTreeMap keeps iteration deterministic for the lint gate; rows
    /// within a bucket are pushed in index order and stay sorted.
    buckets: Vec<BTreeMap<u64, Vec<usize>>>,
    /// Hyperplanes per table, each `band_bits × dim`.
    planes: Vec<Matrix>,
}

impl HyperplaneLsh {
    /// Builds an index with `tables` bands of `band_bits` hyperplanes each.
    pub fn build(data: Matrix, tables: usize, band_bits: usize, seed: u64) -> Self {
        assert!(
            tables >= 1 && band_bits >= 1,
            "need at least one table and bit"
        );
        assert!(band_bits <= 63, "band bits must fit a u64");
        let mut rng = Xoshiro256::seed_from(seed);
        let dim = data.cols();
        let mut planes = Vec::with_capacity(tables);
        let mut buckets = Vec::with_capacity(tables);
        for _ in 0..tables {
            let p = Matrix::from_fn(band_bits, dim, |_, _| rng.next_gaussian());
            let mut map: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
            for (i, dots) in data.matmul_transposed(&p).rows_iter().enumerate() {
                map.entry(Self::band(dots)).or_default().push(i);
            }
            planes.push(p);
            buckets.push(map);
        }
        Self {
            data,
            buckets,
            planes,
        }
    }

    /// The band value of one vector from its dots with a table's
    /// hyperplanes: bit `b` is set when dot `b` is `≥ 0`.
    fn band(dots: &[f64]) -> u64 {
        dots.iter()
            .enumerate()
            .filter(|&(_, &dot)| dot >= 0.0)
            .fold(0, |h, (bit, _)| h | 1 << bit)
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.data.rows() == 0
    }

    /// The vectors the index was built over (the hashing space).
    pub fn data(&self) -> &Matrix {
        &self.data
    }

    /// Candidate rows for `query`, at least `min` of them when the index
    /// holds that many.
    ///
    /// Three deterministic probe stages, each widening only if the
    /// previous one came up short: (1) the query's own band bucket in
    /// every table, (2) every single-bit-flip neighbor bucket of those
    /// bands, (3) an exact scan of all rows. The returned indices are
    /// sorted and deduplicated.
    pub fn candidates(&self, query: &[f64], min: usize) -> Vec<usize> {
        if self.is_empty() {
            return Vec::new();
        }
        let hashes: Vec<u64> = self
            .planes
            .iter()
            .map(|planes| Self::band(&planes.matvec(query)))
            .collect();
        let mut out: Vec<usize> = Vec::new();
        for (h, map) in hashes.iter().zip(self.buckets.iter()) {
            if let Some(rows) = map.get(h) {
                out.extend_from_slice(rows);
            }
        }
        out.sort_unstable();
        out.dedup();
        if out.len() >= min {
            return out;
        }
        // Widened probe: all Hamming-distance-1 buckets of each band.
        for ((h, map), planes) in hashes
            .iter()
            .zip(self.buckets.iter())
            .zip(self.planes.iter())
        {
            for bit in 0..planes.rows() {
                if let Some(rows) = map.get(&(h ^ (1u64 << bit))) {
                    out.extend_from_slice(rows);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        if out.len() >= min {
            return out;
        }
        // Exact scan: banding is too sparse for this query.
        (0..self.data.rows()).collect()
    }

    /// Approximate top-`k` search: gathers bucket collisions across all
    /// tables — widening the probe when banding yields fewer than `k`
    /// candidates — and re-ranks them by exact squared distance.
    pub fn search(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let mut scored: Vec<(usize, f64)> = self
            .candidates(query, k)
            .into_iter()
            .map(|i| (i, sq_euclidean(query, self.data.row(i))))
            .collect();
        scored.sort_by(|a, b| total_cmp_f64(&a.1, &b.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_schema::ElementId;

    fn sets() -> Vec<ElementSet> {
        let s0 = Matrix::from_rows(&[vec![0.0, 0.0], vec![4.0, 4.0]]);
        let s1 = Matrix::from_rows(&[vec![0.1, 0.0], vec![4.1, 4.0], vec![10.0, 10.0]]);
        vec![ElementSet::full(0, s0), ElementSet::full(1, s1)]
    }

    #[test]
    fn top_one_links_nearest_neighbors() {
        let pairs = LshMatcher::new(1).match_pairs(&sets());
        assert!(pairs.contains(&CandidatePair::new(
            ElementId::new(0, 0),
            ElementId::new(1, 0)
        )));
        assert!(pairs.contains(&CandidatePair::new(
            ElementId::new(0, 1),
            ElementId::new(1, 1)
        )));
        // The far point (1,2) queries back: its nearest in schema 0 is (0,1).
        assert!(pairs.contains(&CandidatePair::new(
            ElementId::new(1, 2),
            ElementId::new(0, 1)
        )));
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn larger_k_is_superset() {
        let s = sets();
        let k1: std::collections::HashSet<_> =
            LshMatcher::new(1).match_pairs(&s).into_iter().collect();
        let k3: std::collections::HashSet<_> =
            LshMatcher::new(3).match_pairs(&s).into_iter().collect();
        assert!(k1.is_subset(&k3));
    }

    #[test]
    fn k_at_index_size_is_cartesian() {
        let s = sets();
        let pairs = LshMatcher::new(3).match_pairs(&s);
        assert_eq!(pairs.len(), 2 * 3);
    }

    #[test]
    fn pairs_are_deduplicated() {
        let pairs = LshMatcher::new(3).match_pairs(&sets());
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs.len(), sorted.len());
    }

    #[test]
    fn hyperplane_lsh_finds_near_duplicates() {
        let mut rng = Xoshiro256::seed_from(8);
        let dim = 32;
        let mut rows: Vec<Vec<f64>> = (0..100)
            .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
            .collect();
        // Make row 1 a slight perturbation of row 0.
        rows[1] = rows[0]
            .iter()
            .map(|x| x + rng.next_gaussian() * 0.01)
            .collect();
        let query = rows[0].clone();
        let lsh = HyperplaneLsh::build(Matrix::from_rows(&rows), 8, 10, 42);
        let hits = lsh.search(&query, 2);
        assert_eq!(hits[0].0, 0, "query point itself first");
        assert_eq!(hits[1].0, 1, "perturbed twin second");
    }

    #[test]
    fn hyperplane_recall_against_exact() {
        let mut rng = Xoshiro256::seed_from(9);
        let dim = 16;
        let data = Matrix::from_fn(200, dim, |_, _| rng.next_gaussian());
        let exact = FlatIndex::build(data.clone());
        let lsh = HyperplaneLsh::build(data.clone(), 16, 8, 7);
        let mut recall_hits = 0usize;
        let mut total = 0usize;
        for q in 0..20 {
            let query = data.row(q).to_vec();
            let truth: std::collections::HashSet<usize> = exact
                .search(&query, 5)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            let approx: std::collections::HashSet<usize> =
                lsh.search(&query, 5).into_iter().map(|(i, _)| i).collect();
            recall_hits += truth.intersection(&approx).count();
            total += truth.len();
        }
        let recall = recall_hits as f64 / total as f64;
        assert!(recall > 0.5, "LSH recall too low: {recall}");
    }

    #[test]
    fn sparse_buckets_fall_back_to_full_k() {
        // Regression: with many tables of wide bands over few, widely
        // separated points, the query's own buckets rarely hold k rows;
        // search must widen the probe (ultimately to an exact scan)
        // instead of silently returning a short list.
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                let mut v = vec![0.0; 24];
                v[i * 4] = 1000.0 * (i as f64 + 1.0);
                v[i * 4 + 1] = -500.0 * (i as f64 + 1.0);
                v
            })
            .collect();
        let lsh = HyperplaneLsh::build(Matrix::from_rows(&rows), 4, 16, 99);
        for (q, row) in rows.iter().enumerate() {
            let hits = lsh.search(row, 4);
            assert_eq!(hits.len(), 4, "query {q} returned a short list");
            assert_eq!(hits[0].0, q, "query {q} must find itself first");
        }
        // k beyond the index size returns everything, exactly once.
        let all = lsh.search(&rows[0], 100);
        assert_eq!(all.len(), rows.len());
        let mut ids: Vec<usize> = all.iter().map(|&(i, _)| i).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), rows.len());
    }

    #[test]
    fn candidates_widen_monotonically() {
        let mut rng = Xoshiro256::seed_from(21);
        let data = Matrix::from_fn(64, 8, |_, _| rng.next_gaussian());
        let lsh = HyperplaneLsh::build(data.clone(), 2, 12, 5);
        let q = data.row(7).to_vec();
        let narrow = lsh.candidates(&q, 1);
        let wide = lsh.candidates(&q, 64);
        assert!(narrow.len() <= wide.len());
        assert_eq!(wide.len(), 64, "min at index size must reach every row");
        for w in narrow.windows(2) {
            assert!(w[0] < w[1], "candidates must be sorted/deduped");
        }
    }

    #[test]
    fn empty_lsh_index() {
        let lsh = HyperplaneLsh::build(Matrix::zeros(0, 4), 2, 4, 1);
        assert!(lsh.is_empty());
        assert!(lsh.search(&[0.0; 4], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "top-k must be at least 1")]
    fn zero_k_panics() {
        LshMatcher::new(0);
    }

    #[test]
    #[should_panic(expected = "fit a u64")]
    fn too_many_band_bits_panics() {
        HyperplaneLsh::build(Matrix::zeros(1, 4), 1, 64, 1);
    }
}
