//! Local Outlier Factor (Breunig et al., SIGMOD 2000).
//!
//! Density-based detection: a point whose local reachability density is low
//! relative to its neighbors' densities gets a LOF well above 1. The paper
//! uses sklearn's `LocalOutlierFactor` with the default `n = 20` neighbors;
//! this is a faithful re-implementation (including the tie-inclusive
//! k-neighborhood and the duplicate-point density cap).

use crate::OutlierDetector;
use cs_linalg::vecops::{euclidean, total_cmp_f64};
use cs_linalg::Matrix;

/// LOF detector with a configurable neighbor count.
#[derive(Debug, Clone, Copy)]
pub struct LofDetector {
    n_neighbors: usize,
}

impl Default for LofDetector {
    /// sklearn's (and the paper's) default: 20 neighbors.
    fn default() -> Self {
        Self { n_neighbors: 20 }
    }
}

impl LofDetector {
    /// Creates a detector with `n_neighbors ≥ 1`.
    pub fn new(n_neighbors: usize) -> Self {
        assert!(n_neighbors >= 1, "LOF needs at least one neighbor");
        Self { n_neighbors }
    }

    /// The configured neighbor count.
    pub fn n_neighbors(&self) -> usize {
        self.n_neighbors
    }

    /// Computes LOF scores for every row of `data`.
    pub fn lof_scores(&self, data: &Matrix) -> Vec<f64> {
        let n = data.rows();
        if n <= 1 {
            return vec![1.0; n];
        }
        // Effective k: cannot exceed n − 1 other points.
        let k = self.n_neighbors.min(n - 1);

        // Pairwise distances (symmetric, O(n²·d)).
        let mut dist = vec![vec![0.0f64; n]; n];
        for i in 1..n {
            let (done, rest) = dist.split_at_mut(i);
            for (j, prev) in done.iter_mut().enumerate() {
                let d = euclidean(data.row(j), data.row(i));
                prev[i] = d;
                rest[0][j] = d;
            }
        }

        // k-distance and tie-inclusive k-neighborhood per point.
        let mut k_distance = vec![0.0f64; n];
        let mut neighbors: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut order: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            order.sort_by(|&a, &b| total_cmp_f64(&dist[i][a], &dist[i][b]));
            let kd = dist[i][order[k - 1]];
            k_distance[i] = kd;
            let nbrs: Vec<usize> = order.into_iter().filter(|&j| dist[i][j] <= kd).collect();
            neighbors.push(nbrs);
        }

        // Local reachability density.
        let mut lrd = vec![0.0f64; n];
        for i in 0..n {
            let sum: f64 = neighbors[i]
                .iter()
                .map(|&j| dist[i][j].max(k_distance[j])) // reach-dist_k(i, j)
                .sum();
            let mean = sum / neighbors[i].len() as f64;
            // Duplicate-heavy neighborhoods can have zero mean reach-dist;
            // cap density like sklearn (1e10).
            lrd[i] = if mean > 0.0 { 1.0 / mean } else { 1e10 };
        }

        // LOF = mean neighbor density / own density.
        (0..n)
            .map(|i| {
                let mean_nbr: f64 =
                    neighbors[i].iter().map(|&j| lrd[j]).sum::<f64>() / neighbors[i].len() as f64;
                mean_nbr / lrd[i]
            })
            .collect()
    }
}

impl OutlierDetector for LofDetector {
    fn name(&self) -> String {
        format!("LOF (n={})", self.n_neighbors)
    }

    fn score(&self, data: &Matrix) -> Vec<f64> {
        self.lof_scores(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::Xoshiro256;

    #[test]
    fn uniform_cluster_scores_near_one() {
        let mut rng = Xoshiro256::seed_from(1);
        let data = Matrix::from_fn(50, 4, |_, _| rng.next_gaussian());
        let scores = LofDetector::new(10).lof_scores(&data);
        // Gaussian cloud: most points around 1, none wildly high.
        let mean: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!((mean - 1.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn isolated_point_gets_high_lof() {
        let mut rng = Xoshiro256::seed_from(2);
        let mut data = Matrix::from_fn(40, 3, |_, _| rng.next_gaussian() * 0.2);
        for j in 0..3 {
            data[(39, j)] = 5.0;
        }
        let scores = LofDetector::new(5).lof_scores(&data);
        let max_inlier = scores[..39].iter().cloned().fold(0.0, f64::max);
        assert!(
            scores[39] > max_inlier * 2.0,
            "outlier {} inliers ≤ {max_inlier}",
            scores[39]
        );
    }

    #[test]
    fn two_density_clusters() {
        // A point at the edge of a sparse cluster should not dominate a
        // clear outlier; classic LOF sanity setup.
        let mut rows = Vec::new();
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..20 {
            rows.push(vec![rng.next_gaussian() * 0.05, rng.next_gaussian() * 0.05]);
        }
        for _ in 0..20 {
            rows.push(vec![5.0 + rng.next_gaussian(), 5.0 + rng.next_gaussian()]);
        }
        rows.push(vec![2.5, 2.5]); // genuinely isolated between clusters
        let data = Matrix::from_rows(&rows);
        let scores = LofDetector::new(5).lof_scores(&data);
        let (argmax, _) = cs_linalg::vecops::argmax(&scores).unwrap();
        assert_eq!(argmax, 40);
    }

    #[test]
    fn duplicates_do_not_blow_up() {
        let data = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![9.0, 9.0],
        ]);
        let scores = LofDetector::new(2).lof_scores(&data);
        assert!(scores.iter().all(|s| s.is_finite()), "{scores:?}");
        assert!(scores[3] > scores[0]);
    }

    #[test]
    fn tiny_inputs() {
        assert_eq!(
            LofDetector::new(5).lof_scores(&Matrix::zeros(0, 3)),
            Vec::<f64>::new()
        );
        assert_eq!(
            LofDetector::new(5).lof_scores(&Matrix::zeros(1, 3)),
            vec![1.0]
        );
        // k clamps to n − 1.
        let scores =
            LofDetector::new(20).lof_scores(&Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]));
        assert_eq!(scores.len(), 3);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    #[should_panic(expected = "at least one neighbor")]
    fn zero_neighbors_panics() {
        LofDetector::new(0);
    }

    #[test]
    fn default_matches_sklearn_default() {
        assert_eq!(LofDetector::default().n_neighbors(), 20);
        assert_eq!(LofDetector::default().name(), "LOF (n=20)");
    }
}
