//! Exact flat L2 nearest-neighbor index — the FAISS `IndexFlatL2`
//! equivalent the paper's LSH matcher is built on.

use cs_linalg::vecops::{sq_euclidean, total_cmp_f64};
use cs_linalg::Matrix;

/// A brute-force exact L2 index over row vectors.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    data: Matrix,
}

impl FlatIndex {
    /// Builds an index over the rows of `data`.
    pub fn build(data: Matrix) -> Self {
        Self { data }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// True if nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.data.rows() == 0
    }

    /// Dimensionality of the indexed vectors.
    pub fn dim(&self) -> usize {
        self.data.cols()
    }

    /// Returns the `k` nearest rows to `query` as `(row index, squared L2
    /// distance)` pairs, closest first. Returns fewer than `k` if the index
    /// is smaller.
    pub fn search(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        assert_eq!(
            query.len(),
            self.data.cols(),
            "query dimensionality mismatch"
        );
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // Bounded max-heap via sorted insertion into a small vec — k is
        // small (≤ 20) so this beats heap overhead.
        let mut best: Vec<(usize, f64)> = Vec::with_capacity(k + 1);
        for (i, row) in self.data.rows_iter().enumerate() {
            let d = sq_euclidean(query, row);
            if best.len() < k || d < best.last().expect("non-empty").1 {
                let pos = best
                    .binary_search_by(|&(_, bd)| total_cmp_f64(&bd, &d))
                    .unwrap_or_else(|e| e);
                best.insert(pos, (i, d));
                if best.len() > k {
                    best.pop();
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::Xoshiro256;

    fn index() -> FlatIndex {
        FlatIndex::build(Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![5.0, 5.0],
        ]))
    }

    #[test]
    fn nearest_is_exact() {
        let idx = index();
        let hits = idx.search(&[0.1, 0.1], 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 0);
        assert_eq!(hits[1].0, 1);
        assert!(hits[0].1 < hits[1].1);
    }

    #[test]
    fn k_larger_than_index_returns_all_sorted() {
        let idx = index();
        let hits = idx.search(&[0.0, 0.0], 10);
        assert_eq!(hits.len(), 4);
        for w in hits.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn k_zero_and_empty_index() {
        let idx = index();
        assert!(idx.search(&[0.0, 0.0], 0).is_empty());
        let empty = FlatIndex::build(Matrix::zeros(0, 2));
        assert!(empty.is_empty());
        assert!(empty.search(&[0.0, 0.0], 3).is_empty());
    }

    #[test]
    fn brute_force_agrees_with_naive_on_random_data() {
        let mut rng = Xoshiro256::seed_from(5);
        let data = Matrix::from_fn(50, 6, |_, _| rng.next_gaussian());
        let idx = FlatIndex::build(data.clone());
        let query: Vec<f64> = (0..6).map(|_| rng.next_gaussian()).collect();
        let hits = idx.search(&query, 5);
        // Naive check.
        let mut all: Vec<(usize, f64)> = (0..50)
            .map(|i| (i, sq_euclidean(&query, data.row(i))))
            .collect();
        all.sort_by(|a, b| total_cmp_f64(&a.1, &b.1));
        for (h, e) in hits.iter().zip(all.iter()) {
            assert_eq!(h.0, e.0);
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_query_dim_panics() {
        index().search(&[0.0], 1);
    }
}
