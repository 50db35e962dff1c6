//! # cs-oda
//!
//! Outlier detection algorithms (ODAs) — the engine behind the *global
//! scoping* baseline (Section 2.4 of the paper). Each detector consumes a
//! signature matrix (one row per schema element) and emits one outlier
//! score per row, **higher = more anomalous = more likely unlinkable**.
//!
//! Implemented detectors, matching the paper's baseline roster:
//!
//! - [`ZScoreDetector`] — mean absolute standardized deviation,
//! - [`LofDetector`] — Local Outlier Factor (Breunig et al., 2000),
//! - [`PcaDetector`] — PCA reconstruction error at a given explained
//!   variance,
//! - [`AutoencoderDetector`] — ensemble-summed reconstruction error of the
//!   dense `…|100|10|100|…` autoencoder from `cs-nn`.

pub mod lof;

use cs_linalg::pca::ExplainedVariance;
use cs_linalg::stats::row_zscore_magnitude;
use cs_linalg::{Matrix, Pca, PcaConfig};
use cs_nn::{ensemble_scores, TrainConfig};

pub use lof::LofDetector;

/// A scoring outlier detector over row-signature matrices.
pub trait OutlierDetector {
    /// Short display name (used in result tables, e.g. `PCA (v=0.5)`).
    fn name(&self) -> String;

    /// One outlier score per row of `data`; higher means more outlying.
    ///
    /// # Panics
    /// Detectors may panic on empty input; callers guard at the pipeline
    /// boundary (`cs-core` rejects empty schemas with a typed error).
    fn score(&self, data: &Matrix) -> Vec<f64>;
}

/// Z-score detector: a row's mean absolute standardized deviation from the
/// column means (the SciPy `zscore` baseline, aggregated per element).
#[derive(Debug, Clone, Copy, Default)]
pub struct ZScoreDetector;

impl OutlierDetector for ZScoreDetector {
    fn name(&self) -> String {
        "Z-Score".into()
    }

    fn score(&self, data: &Matrix) -> Vec<f64> {
        row_zscore_magnitude(data)
    }
}

/// PCA reconstruction-error detector at a fixed explained variance.
#[derive(Debug, Clone, Copy)]
pub struct PcaDetector {
    v: ExplainedVariance,
}

impl PcaDetector {
    /// Creates a detector keeping components per explained variance `v`,
    /// fitting through the exact PCA ([`Pca::fit_with`]).
    pub fn new(v: ExplainedVariance) -> Self {
        Self { v }
    }

    /// Convenience constructor from a raw `v ∈ (0, 1]`.
    ///
    /// # Panics
    /// If `v` is out of range.
    pub fn with_variance(v: f64) -> Self {
        Self::new(ExplainedVariance::new(v).expect("explained variance must lie in (0, 1]"))
    }

    /// The configured explained variance.
    pub fn variance(&self) -> f64 {
        self.v.get()
    }
}

impl OutlierDetector for PcaDetector {
    fn name(&self) -> String {
        format!("PCA (v={})", self.v.get())
    }

    fn score(&self, data: &Matrix) -> Vec<f64> {
        let pca = Pca::fit_with(data, PcaConfig::new().with_variance(self.v))
            .expect("signature matrix must be non-empty and finite");
        pca.reconstruction_errors(data)
    }
}

/// Ensemble autoencoder detector (the paper: 100 runs × 50 epochs, summed).
#[derive(Debug, Clone)]
pub struct AutoencoderDetector {
    /// Training hyper-parameters per run.
    pub config: TrainConfig,
    /// Number of independently initialized runs.
    pub runs: usize,
}

impl AutoencoderDetector {
    /// The paper's configuration — expensive; prefer [`Self::fast`] in tests.
    pub fn paper() -> Self {
        Self {
            config: TrainConfig::default(),
            runs: 100,
        }
    }

    /// A cheap configuration for tests and smoke runs.
    pub fn fast(runs: usize, epochs: usize) -> Self {
        Self {
            config: TrainConfig {
                epochs,
                ..TrainConfig::default()
            },
            runs,
        }
    }
}

impl OutlierDetector for AutoencoderDetector {
    fn name(&self) -> String {
        format!("Autoencoder (runs={})", self.runs)
    }

    fn score(&self, data: &Matrix) -> Vec<f64> {
        ensemble_scores(data, &self.config, self.runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::Xoshiro256;

    /// A tight cluster plus one far outlier at the last row.
    fn cluster_with_outlier(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut m = Matrix::from_fn(n, dim, |_, _| rng.next_gaussian() * 0.1);
        for j in 0..dim {
            m[(n - 1, j)] = 4.0;
        }
        m
    }

    fn outlier_is_top_scored(scores: &[f64]) -> bool {
        let last = scores.len() - 1;
        scores[..last].iter().all(|&s| s < scores[last])
    }

    #[test]
    fn zscore_detects_far_point() {
        let data = cluster_with_outlier(30, 8, 1);
        let scores = ZScoreDetector.score(&data);
        assert_eq!(scores.len(), 30);
        assert!(outlier_is_top_scored(&scores), "{scores:?}");
    }

    #[test]
    fn pca_detects_off_subspace_point() {
        // Points on a 2-d subspace; outlier off it.
        let mut rng = Xoshiro256::seed_from(2);
        let b1: Vec<f64> = (0..10).map(|_| rng.next_gaussian()).collect();
        let b2: Vec<f64> = (0..10).map(|_| rng.next_gaussian()).collect();
        let mut data = Matrix::from_fn(40, 10, |i, j| {
            let a = (i as f64 * 0.37).sin();
            let b = (i as f64 * 0.53).cos();
            a * b1[j] + b * b2[j]
        });
        for j in 0..10 {
            data[(39, j)] = rng.next_gaussian() * 3.0;
        }
        let det = PcaDetector::with_variance(0.9);
        let scores = det.score(&data);
        assert!(outlier_is_top_scored(&scores));
        assert_eq!(det.name(), "PCA (v=0.9)");
    }

    #[test]
    fn autoencoder_detects_far_point() {
        let data = cluster_with_outlier(25, 6, 3);
        let det = AutoencoderDetector::fast(2, 60);
        let scores = det.score(&data);
        assert!(outlier_is_top_scored(&scores), "{scores:?}");
    }

    #[test]
    #[should_panic(expected = "explained variance")]
    fn invalid_variance_panics() {
        PcaDetector::with_variance(0.0);
    }

    #[test]
    fn detector_names() {
        assert_eq!(ZScoreDetector.name(), "Z-Score");
        assert!(AutoencoderDetector::fast(3, 1).name().contains("runs=3"));
    }
}
