//! Additional outlier detectors beyond the paper's baseline roster.
//!
//! Both are standard techniques from the outlier-analysis literature the
//! paper builds on (Aggarwal, *Outlier Analysis*): distance-based kNN
//! scoring and the Mahalanobis distance in the PCA-whitened space. They
//! extend the global-scoping baseline family for robustness studies.

use crate::OutlierDetector;
use cs_linalg::vecops::{euclidean, total_cmp_f64};
use cs_linalg::{Matrix, Pca, PcaConfig};

/// kNN-distance detector: the outlier score of a point is the mean
/// distance to its `k` nearest neighbors (the "weighted-kNN" variant,
/// smoother than the max-distance form).
#[derive(Debug, Clone, Copy)]
pub struct KnnDistanceDetector {
    k: usize,
}

impl KnnDistanceDetector {
    /// Creates a detector with `k ≥ 1` neighbors.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "kNN scoring needs at least one neighbor");
        Self { k }
    }

    /// The configured neighbor count.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Default for KnnDistanceDetector {
    fn default() -> Self {
        Self::new(5)
    }
}

impl OutlierDetector for KnnDistanceDetector {
    fn name(&self) -> String {
        format!("kNN-distance (k={})", self.k)
    }

    fn score(&self, data: &Matrix) -> Vec<f64> {
        let n = data.rows();
        if n <= 1 {
            return vec![0.0; n];
        }
        let k = self.k.min(n - 1);
        (0..n)
            .map(|i| {
                let mut dists: Vec<f64> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| euclidean(data.row(i), data.row(j)))
                    .collect();
                dists.sort_by(total_cmp_f64);
                dists[..k].iter().sum::<f64>() / k as f64
            })
            .collect()
    }
}

/// Mahalanobis-distance detector in the PCA-whitened space: distances are
/// measured per principal axis in units of that axis's standard
/// deviation, with a variance floor for near-degenerate directions.
#[derive(Debug, Clone, Copy)]
pub struct MahalanobisDetector {
    /// Relative variance floor (fraction of the largest eigenvalue) that
    /// keeps near-null directions from exploding the distance.
    variance_floor: f64,
}

impl MahalanobisDetector {
    /// Creates a detector with the given relative variance floor.
    pub fn new(variance_floor: f64) -> Self {
        assert!(
            variance_floor > 0.0 && variance_floor <= 1.0,
            "variance floor must lie in (0, 1]"
        );
        Self { variance_floor }
    }
}

impl Default for MahalanobisDetector {
    fn default() -> Self {
        Self::new(1e-6)
    }
}

impl OutlierDetector for MahalanobisDetector {
    fn name(&self) -> String {
        "Mahalanobis".into()
    }

    fn score(&self, data: &Matrix) -> Vec<f64> {
        let n = data.rows();
        if n <= 1 {
            return vec![0.0; n];
        }
        let pca = Pca::fit_with(data, PcaConfig::new()).expect("non-empty, finite data");
        let z = pca.encode(data);
        // Per-axis variance = σ_i² / n; floor relative to the top axis.
        let variances: Vec<f64> = pca
            .singular_values()
            .iter()
            .take(z.cols())
            .map(|s| s * s / n as f64)
            .collect();
        let top = variances.first().copied().unwrap_or(0.0);
        if top <= 0.0 {
            return vec![0.0; n];
        }
        let floor = top * self.variance_floor;
        (0..n)
            .map(|i| {
                z.row(i)
                    .iter()
                    .zip(variances.iter())
                    .map(|(&zi, &var)| zi * zi / var.max(floor))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::Xoshiro256;

    fn cluster_with_outlier(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut m = Matrix::from_fn(n, dim, |_, _| rng.next_gaussian() * 0.1);
        for j in 0..dim {
            m[(n - 1, j)] = 4.0;
        }
        m
    }

    #[test]
    fn knn_detects_far_point() {
        let data = cluster_with_outlier(30, 6, 1);
        let scores = KnnDistanceDetector::default().score(&data);
        let max_inlier = scores[..29].iter().cloned().fold(0.0, f64::max);
        assert!(scores[29] > max_inlier * 3.0);
    }

    #[test]
    fn knn_handles_tiny_inputs() {
        assert_eq!(
            KnnDistanceDetector::new(3).score(&Matrix::zeros(1, 4)),
            vec![0.0]
        );
        assert!(KnnDistanceDetector::new(3)
            .score(&Matrix::zeros(0, 4))
            .is_empty());
        // k clamps.
        let scores =
            KnnDistanceDetector::new(10).score(&Matrix::from_rows(&[vec![0.0], vec![1.0]]));
        assert_eq!(scores, vec![1.0, 1.0]);
    }

    #[test]
    fn mahalanobis_detects_off_axis_point() {
        // Elongated cloud along one axis; the outlier deviates on the thin
        // axis by an amount that would look small in Euclidean terms.
        let mut rng = Xoshiro256::seed_from(2);
        let mut rows: Vec<Vec<f64>> = (0..60)
            .map(|_| vec![rng.next_gaussian() * 10.0, rng.next_gaussian() * 0.1])
            .collect();
        rows.push(vec![0.0, 1.0]); // tiny Euclidean, huge Mahalanobis
        let data = Matrix::from_rows(&rows);
        let scores = MahalanobisDetector::default().score(&data);
        let max_inlier = scores[..60].iter().cloned().fold(0.0, f64::max);
        assert!(
            scores[60] > max_inlier,
            "off-axis point {} vs inliers ≤ {max_inlier}",
            scores[60]
        );
    }

    #[test]
    fn mahalanobis_degenerate_inputs() {
        assert_eq!(
            MahalanobisDetector::default().score(&Matrix::zeros(1, 3)),
            vec![0.0]
        );
        // Constant data: zero variance everywhere → all scores zero.
        let constant = Matrix::from_fn(5, 3, |_, _| 2.0);
        assert_eq!(
            MahalanobisDetector::default().score(&constant),
            vec![0.0; 5]
        );
    }

    #[test]
    fn names() {
        assert_eq!(KnnDistanceDetector::default().name(), "kNN-distance (k=5)");
        assert_eq!(MahalanobisDetector::default().name(), "Mahalanobis");
    }

    #[test]
    #[should_panic(expected = "at least one neighbor")]
    fn zero_k_panics() {
        KnnDistanceDetector::new(0);
    }

    #[test]
    #[should_panic(expected = "variance floor")]
    fn bad_floor_panics() {
        MahalanobisDetector::new(0.0);
    }
}
