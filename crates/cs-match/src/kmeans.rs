//! k-means clustering (Lloyd's algorithm with k-means++ seeding).

use cs_linalg::vecops::{sq_euclidean, total_cmp_f64};
use cs_linalg::{Matrix, Xoshiro256};

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    centroids: Matrix,
    assignments: Vec<usize>,
    inertia: f64,
}

impl KMeans {
    /// Fits `k` clusters on the rows of `data` with deterministic
    /// k-means++ seeding from `seed`.
    ///
    /// `k` is clamped to the number of rows; empty input yields an empty
    /// model.
    pub fn fit(data: &Matrix, k: usize, seed: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let n = data.rows();
        if n == 0 {
            return Self {
                centroids: Matrix::zeros(0, data.cols()),
                assignments: Vec::new(),
                inertia: 0.0,
            };
        }
        let k = k.min(n);
        let mut rng = Xoshiro256::seed_from(seed);
        let mut centroids = kmeanspp_init(data, k, &mut rng);
        let mut assignments = vec![0usize; n];
        let max_iter = 100;
        let mut inertia = f64::INFINITY;

        for _ in 0..max_iter {
            // Assignment step.
            let mut changed = false;
            let mut new_inertia = 0.0;
            for (i, assigned) in assignments.iter_mut().enumerate() {
                let row = data.row(i);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for c in 0..k {
                    let d = sq_euclidean(row, centroids.row(c));
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if *assigned != best {
                    *assigned = best;
                    changed = true;
                }
                new_inertia += best_d;
            }
            inertia = new_inertia;
            if !changed {
                break;
            }
            // Update step.
            let mut sums = Matrix::zeros(k, data.cols());
            let mut counts = vec![0usize; k];
            for (i, &c) in assignments.iter().enumerate() {
                counts[c] += 1;
                for (acc, &v) in sums.row_mut(c).iter_mut().zip(data.row(i)) {
                    *acc += v;
                }
            }
            for (c, &count) in counts.iter().enumerate() {
                if count > 0 {
                    let inv = 1.0 / count as f64;
                    for v in sums.row_mut(c) {
                        *v *= inv;
                    }
                    centroids.row_mut(c).copy_from_slice(sums.row(c));
                } else {
                    // Empty cluster: re-seed on the farthest point.
                    let far = (0..n)
                        .max_by(|&a, &b| {
                            let da = sq_euclidean(data.row(a), centroids.row(assignments[a]));
                            let db = sq_euclidean(data.row(b), centroids.row(assignments[b]));
                            total_cmp_f64(&da, &db)
                        })
                        .expect("n > 0");
                    centroids.row_mut(c).copy_from_slice(data.row(far));
                }
            }
        }
        Self {
            centroids,
            assignments,
            inertia,
        }
    }

    /// Cluster index per input row.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Fitted centroids (`k × dim`).
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Sum of squared distances to assigned centroids.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Number of clusters actually fitted.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Predicts the nearest centroid for a new point.
    pub fn predict(&self, point: &[f64]) -> usize {
        (0..self.k())
            .min_by(|&a, &b| {
                total_cmp_f64(
                    &sq_euclidean(point, self.centroids.row(a)),
                    &sq_euclidean(point, self.centroids.row(b)),
                )
            })
            .expect("fitted model has centroids")
    }
}

/// k-means++ seeding: first centroid uniform, then proportional to squared
/// distance from the nearest chosen centroid.
fn kmeanspp_init(data: &Matrix, k: usize, rng: &mut Xoshiro256) -> Matrix {
    let n = data.rows();
    let mut chosen: Vec<usize> = vec![rng.next_below(n)];
    let mut d2: Vec<f64> = (0..n)
        .map(|i| sq_euclidean(data.row(i), data.row(chosen[0])))
        .collect();
    while chosen.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with chosen centroids.
            rng.next_below(n)
        } else {
            let mut target = rng.next_f64() * total;
            let mut pick = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        chosen.push(next);
        for (i, best) in d2.iter_mut().enumerate() {
            let d = sq_euclidean(data.row(i), data.row(next));
            if d < *best {
                *best = d;
            }
        }
    }
    data.select_rows(&chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs.
    fn blobs() -> Matrix {
        let mut rows = Vec::new();
        let mut rng = Xoshiro256::seed_from(11);
        for _ in 0..20 {
            rows.push(vec![rng.next_gaussian() * 0.2, rng.next_gaussian() * 0.2]);
        }
        for _ in 0..20 {
            rows.push(vec![
                8.0 + rng.next_gaussian() * 0.2,
                8.0 + rng.next_gaussian() * 0.2,
            ]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn separates_two_blobs() {
        let km = KMeans::fit(&blobs(), 2, 1);
        let a = km.assignments()[0];
        let b = km.assignments()[20];
        assert_ne!(a, b);
        assert!(km.assignments()[..20].iter().all(|&c| c == a));
        assert!(km.assignments()[20..].iter().all(|&c| c == b));
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let data = blobs();
        let i1 = KMeans::fit(&data, 1, 2).inertia();
        let i2 = KMeans::fit(&data, 2, 2).inertia();
        let i4 = KMeans::fit(&data, 4, 2).inertia();
        assert!(i2 < i1);
        assert!(i4 <= i2 + 1e-9);
    }

    #[test]
    fn k_clamps_to_row_count() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let km = KMeans::fit(&data, 10, 3);
        assert_eq!(km.k(), 2);
        assert!(km.inertia() < 1e-12);
    }

    #[test]
    fn predict_matches_training_assignment() {
        let data = blobs();
        let km = KMeans::fit(&data, 2, 4);
        for i in 0..data.rows() {
            assert_eq!(km.predict(data.row(i)), km.assignments()[i]);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let data = blobs();
        let a = KMeans::fit(&data, 3, 7);
        let b = KMeans::fit(&data, 3, 7);
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn duplicate_points_do_not_crash() {
        let data = Matrix::from_rows(&vec![vec![1.0, 1.0]; 8]);
        let km = KMeans::fit(&data, 3, 5);
        assert_eq!(km.assignments().len(), 8);
        assert!(km.inertia() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let km = KMeans::fit(&Matrix::zeros(0, 4), 3, 1);
        assert_eq!(km.k(), 0);
        assert!(km.assignments().is_empty());
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        KMeans::fit(&Matrix::zeros(2, 2), 0, 1);
    }
}
