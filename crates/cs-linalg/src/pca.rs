//! PCA encoder–decoder.
//!
//! This is the exact model of the paper's Algorithm 1 (lines 3–13): project
//! signatures onto their mean, take the full SVD, keep the smallest prefix
//! of principal components whose cumulative explained variance exceeds the
//! global parameter `v`, and encode/decode through those components. The
//! per-row reconstruction MSE is the outlier score used by both global
//! scoping and collaborative scoping.
//!
//! # Solver selection
//!
//! Fitting goes through one entry point, [`Pca::fit_with`], configured by a
//! [`PcaConfig`]: a fit *target* (full rank, explained variance, or an
//! explicit component count) plus a [`PcaSolver`] choosing the eigensolver
//! behind it. The default [`PcaSolver::Auto`] is the exact Gram path for
//! every shape and target (see DESIGN.md §11 for the measured crossover
//! and the determinism contract).

use crate::stats::column_mean;
use crate::svd::GramEigen;
use crate::vecops::mse;
use crate::{Matrix, Svd, SvdError};

/// Validated explained-variance parameter `v ∈ (0, 1]`.
///
/// The paper treats `v` as the single *global* knob shared by all local
/// models; `v = 1` keeps every component (perfect reconstruction of the
/// training set), small `v` keeps almost none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplainedVariance(f64);

impl ExplainedVariance {
    /// Creates a validated explained-variance value.
    ///
    /// # Errors
    /// Returns `None` unless `0 < v ≤ 1` and `v` is finite.
    pub fn new(v: f64) -> Option<Self> {
        (v.is_finite() && v > 0.0 && v <= 1.0).then_some(Self(v))
    }

    /// The raw value.
    pub fn get(self) -> f64 {
        self.0
    }
}

/// The eigensolver backing a [`Pca::fit_with`] call.
///
/// Both solvers are exact and honor the same determinism contract: for a
/// fixed input and config the result is bit-identical across runs,
/// platforms and worker counts — neither parallelizes or depends on
/// ambient state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PcaSolver {
    /// The default, for every shape and target: the exact Gram path.
    /// It eigendecomposes the smaller of `X·Xᵀ` / `Xᵀ·X` and, on the rows
    /// side, recovers the kept components as `Xᵀ·u/σ` (DESIGN.md §11).
    Auto,
    /// One-sided (Hestenes) Jacobi over all `d` columns ([`Svd::jacobi`]) —
    /// the reference path, exact but slowest for `n ≪ d`.
    FullSvd,
}

/// What a [`Pca::fit_with`] call should retain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PcaTarget {
    /// All `min(n, d)` components.
    FullRank,
    /// The smallest prefix reaching cumulative explained variance `v`
    /// (Algorithm 1 lines 6–10: `GetIndex(CEV, v) + 1`).
    Variance(ExplainedVariance),
    /// Exactly `n` components, clamped to the available rank.
    Components(usize),
}

/// Validated fit configuration consumed by [`Pca::fit_with`]: a solver and
/// a fit target.
///
/// ```
/// use cs_linalg::{ExplainedVariance, PcaConfig, PcaSolver};
/// let v = ExplainedVariance::new(0.5).unwrap();
/// let config = PcaConfig::new()
///     .with_variance(v)
///     .with_solver(PcaSolver::FullSvd);
/// assert_eq!(config.solver(), PcaSolver::FullSvd);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcaConfig {
    solver: PcaSolver,
    target: PcaTarget,
}

impl Default for PcaConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl PcaConfig {
    /// A full-rank fit under [`PcaSolver::Auto`].
    pub fn new() -> Self {
        Self {
            solver: PcaSolver::Auto,
            target: PcaTarget::FullRank,
        }
    }

    /// Pins the eigensolver.
    pub fn with_solver(mut self, solver: PcaSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Targets the smallest component prefix reaching variance `v`.
    pub fn with_variance(mut self, v: ExplainedVariance) -> Self {
        self.target = PcaTarget::Variance(v);
        self
    }

    /// Targets an explicit component count (clamped to the rank at fit
    /// time).
    pub fn with_components(mut self, n: usize) -> Self {
        self.target = PcaTarget::Components(n);
        self
    }

    /// The configured solver.
    pub fn solver(&self) -> PcaSolver {
        self.solver
    }

    /// The configured fit target.
    pub fn target(&self) -> PcaTarget {
        self.target
    }
}

/// Why [`Pca::from_parts`] rejected a rehydration — the typed form of the
/// shape bookkeeping a model received over the wire must satisfy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcaRehydrateError {
    /// The component matrix width disagrees with the mean length.
    ShapeMismatch {
        /// Columns of the component matrix.
        component_width: usize,
        /// Length of the mean vector.
        mean_len: usize,
    },
    /// The component matrix has no rows.
    EmptyComponents,
    /// Fewer explained-variance ratios or singular values than components.
    ShortSpectrum {
        /// Number of explained-variance ratios provided.
        ratios: usize,
        /// Number of singular values provided.
        singular_values: usize,
        /// Number of component rows they must cover.
        components: usize,
    },
}

impl std::fmt::Display for PcaRehydrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcaRehydrateError::ShapeMismatch {
                component_width,
                mean_len,
            } => write!(
                f,
                "component width {component_width} does not match mean length {mean_len}"
            ),
            PcaRehydrateError::EmptyComponents => {
                write!(f, "a PCA needs at least one component")
            }
            PcaRehydrateError::ShortSpectrum {
                ratios,
                singular_values,
                components,
            } => write!(
                f,
                "spectrum bookkeeping ({ratios} ratios, {singular_values} singular values) \
                 shorter than {components} components"
            ),
        }
    }
}

impl std::error::Error for PcaRehydrateError {}

/// A fitted PCA encoder–decoder: `(μ, PC)` plus the spectrum bookkeeping
/// needed to re-truncate at different explained-variance levels.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// Principal components as rows: `n_components × dim`.
    components: Matrix,
    /// Per-component explained-variance ratios over the full spectrum.
    explained_variance_ratio: Vec<f64>,
    /// Singular values matching `explained_variance_ratio`.
    singular_values: Vec<f64>,
}

impl Pca {
    /// Rebuilds a PCA from its constituent parts — the rehydration path for
    /// models received over the wire (`cs-core::exchange`), where only
    /// `(μ, PC)` travel and the spectrum bookkeeping is synthesized.
    ///
    /// # Errors
    /// A typed [`PcaRehydrateError`] describing the first inconsistency.
    pub fn from_parts(
        mean: Vec<f64>,
        components: Matrix,
        explained_variance_ratio: Vec<f64>,
        singular_values: Vec<f64>,
    ) -> Result<Self, PcaRehydrateError> {
        if components.cols() != mean.len() {
            return Err(PcaRehydrateError::ShapeMismatch {
                component_width: components.cols(),
                mean_len: mean.len(),
            });
        }
        if components.rows() == 0 {
            return Err(PcaRehydrateError::EmptyComponents);
        }
        if explained_variance_ratio.len() < components.rows()
            || singular_values.len() < components.rows()
        {
            return Err(PcaRehydrateError::ShortSpectrum {
                ratios: explained_variance_ratio.len(),
                singular_values: singular_values.len(),
                components: components.rows(),
            });
        }
        Ok(Self {
            mean,
            components,
            explained_variance_ratio,
            singular_values,
        })
    }

    /// Fits under an explicit [`PcaConfig`] — the one fitting entry point.
    ///
    /// # Errors
    /// [`SvdError::NonFiniteInput`] when the input carries NaN/inf (caught
    /// up front, before a NaN mean could smear across every centered
    /// entry), [`SvdError::EmptyMatrix`] when it has no rows or columns.
    pub fn fit_with(data: &Matrix, config: PcaConfig) -> Result<Self, SvdError> {
        if data.has_non_finite() {
            return Err(SvdError::NonFiniteInput);
        }
        if data.rows() == 0 || data.cols() == 0 {
            return Err(SvdError::EmptyMatrix);
        }
        let target = config.target;
        match config.solver {
            PcaSolver::Auto => Self::fit_gram(data.clone(), target),
            PcaSolver::FullSvd => Self::fit_full_svd(data, target),
        }
    }

    /// The exact Gram path: center, eigendecompose the smaller Gram side,
    /// derive the spectrum bookkeeping, then recover only the component
    /// rows the target keeps. Each row is computed exactly as a full-rank
    /// fit computes it. The rows are taken by value and centered in
    /// place, so a caller that owns them pays for no copy; they must be
    /// finite and non-empty, as [`Self::fit_with`] checks.
    pub(crate) fn fit_gram(mut centered: Matrix, target: PcaTarget) -> Result<Self, SvdError> {
        let mean = column_mean(&centered);
        for i in 0..centered.rows() {
            for (x, &m) in centered.row_mut(i).iter_mut().zip(&mean) {
                *x -= m;
            }
        }
        let eig = GramEigen::new(&centered)?;
        let explained_variance_ratio = variance_ratios(&eig.singular_values);
        let components = eig.vt_rows(&centered, kept_rows(target, &explained_variance_ratio));
        Ok(Self {
            mean,
            components,
            explained_variance_ratio,
            singular_values: eig.singular_values,
        })
    }

    /// The full-SVD reference path: center, run one-sided Jacobi over all
    /// columns, then keep the component rows the target asks for.
    fn fit_full_svd(data: &Matrix, target: PcaTarget) -> Result<Self, SvdError> {
        let mean = column_mean(data);
        let svd = Svd::jacobi(&data.sub_row_vector(&mean))?;
        let explained_variance_ratio = variance_ratios(&svd.singular_values);
        let idx: Vec<usize> = (0..kept_rows(target, &explained_variance_ratio)).collect();
        Ok(Self {
            mean,
            components: svd.vt.select_rows(&idx),
            explained_variance_ratio,
            singular_values: svd.singular_values,
        })
    }

    /// Returns a copy truncated to the smallest prefix of components whose
    /// cumulative explained variance reaches `v`.
    pub fn truncated(&self, v: ExplainedVariance) -> Self {
        let n = Self::components_for_variance(&self.explained_variance_ratio, v.get());
        self.with_components(n)
    }

    /// Returns a copy keeping exactly `n` components (clamped to `[1, rank]`
    /// when any components exist).
    pub fn with_components(&self, n: usize) -> Self {
        let keep = clamp_kept(n, self.components.rows());
        let idx: Vec<usize> = (0..keep).collect();
        Self {
            mean: self.mean.clone(),
            components: self.components.select_rows(&idx),
            explained_variance_ratio: self.explained_variance_ratio.clone(),
            singular_values: self.singular_values.clone(),
        }
    }

    /// The `GetIndex(CEV, v) + 1` rule: number of leading components needed
    /// so the cumulative explained variance is `≥ v` (at least 1).
    pub fn components_for_variance(ratios: &[f64], v: f64) -> usize {
        let mut cum = 0.0;
        for (i, &r) in ratios.iter().enumerate() {
            cum += r;
            if cum >= v - 1e-12 {
                return i + 1;
            }
        }
        ratios.len().max(1)
    }

    /// Number of retained principal components.
    pub fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// Signature dimensionality the model was fitted on.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The training mean `μ`.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The retained principal components (rows), `n_components × dim`.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Per-component explained-variance ratios over the full spectrum.
    pub fn explained_variance_ratio(&self) -> &[f64] {
        &self.explained_variance_ratio
    }

    /// Singular values matching [`Self::explained_variance_ratio`].
    pub fn singular_values(&self) -> &[f64] {
        &self.singular_values
    }

    /// Encodes rows into the latent space: `Z = (X − μ) · PCᵀ`.
    pub fn encode(&self, data: &Matrix) -> Matrix {
        assert_eq!(data.cols(), self.dim(), "dimension mismatch in encode");
        data.sub_row_vector(&self.mean)
            .matmul_transposed(&self.components)
    }

    /// Decodes latent rows back: `X̂ = Z · PC + μ`.
    pub fn decode(&self, latent: &Matrix) -> Matrix {
        assert_eq!(
            latent.cols(),
            self.n_components(),
            "latent dimension mismatch in decode"
        );
        latent.matmul(&self.components).add_row_vector(&self.mean)
    }

    /// Encode-then-decode (the full reconstruction of Definition 4).
    pub fn reconstruct(&self, data: &Matrix) -> Matrix {
        self.decode(&self.encode(data))
    }

    /// Per-row reconstruction MSE — the outlier scores `s_{k_i}`.
    pub fn reconstruction_errors(&self, data: &Matrix) -> Vec<f64> {
        let recon = self.reconstruct(data);
        data.rows_iter()
            .zip(recon.rows_iter())
            .map(|(orig, rec)| mse(orig, rec))
            .collect()
    }
}

/// Per-component explained-variance ratios `σ_i² / Σσ²` of a full
/// spectrum, shared by both solvers. With zero total variance the first
/// component carries the full (empty) variance, so downstream truncation
/// keeps exactly one component.
fn variance_ratios(singular_values: &[f64]) -> Vec<f64> {
    let total: f64 = singular_values.iter().map(|s| s * s).sum();
    if total > 0.0 {
        return singular_values.iter().map(|s| s * s / total).collect();
    }
    let mut r = vec![0.0; singular_values.len()];
    if let Some(first) = r.first_mut() {
        *first = 1.0;
    }
    r
}

/// How many leading components a fit target keeps of a full spectrum with
/// explained-variance `ratios` — what [`Pca::truncated`] and
/// [`Pca::with_components`] would keep of the full-rank fit.
fn kept_rows(target: PcaTarget, ratios: &[f64]) -> usize {
    let requested = match target {
        PcaTarget::FullRank => ratios.len(),
        PcaTarget::Variance(v) => Pca::components_for_variance(ratios, v.get()),
        PcaTarget::Components(n) => n,
    };
    clamp_kept(requested, ratios.len())
}

/// A requested component count clamped to `[1, avail]` (`0` only when
/// nothing is available).
fn clamp_kept(n: usize, avail: usize) -> usize {
    n.clamp(1.min(avail), avail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_data(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian())
    }

    /// Short-and-wide data with a decaying spectrum.
    fn decaying_data(rows: usize, cols: usize, rank: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        let basis = Matrix::from_fn(rank, cols, |_, _| rng.next_gaussian());
        let coeff = Matrix::from_fn(rows, rank, |_, j| {
            rng.next_gaussian() / (1.0 + j as f64).sqrt()
        });
        let mut out = coeff.matmul(&basis);
        for x in out.as_mut_slice() {
            *x += rng.next_gaussian() * 1e-3;
        }
        out
    }

    #[test]
    fn explained_variance_validation() {
        assert!(ExplainedVariance::new(0.5).is_some());
        assert!(ExplainedVariance::new(1.0).is_some());
        assert!(ExplainedVariance::new(0.0).is_none());
        assert!(ExplainedVariance::new(-0.1).is_none());
        assert!(ExplainedVariance::new(1.1).is_none());
        assert!(ExplainedVariance::new(f64::NAN).is_none());
    }

    #[test]
    fn full_pca_reconstructs_exactly() {
        let data = random_data(10, 6, 1);
        let pca = Pca::fit_with(
            &data,
            PcaConfig::new().with_variance(ExplainedVariance::new(1.0).unwrap()),
        )
        .unwrap();
        let err = pca.reconstruction_errors(&data);
        assert!(err.iter().all(|&e| e < 1e-16), "errors {err:?}");
    }

    #[test]
    fn truncation_orders_error_by_variance() {
        let data = random_data(30, 8, 2);
        let full = Pca::fit_with(&data, PcaConfig::new()).unwrap();
        let hi = full.truncated(ExplainedVariance::new(0.9).unwrap());
        let lo = full.truncated(ExplainedVariance::new(0.3).unwrap());
        assert!(hi.n_components() >= lo.n_components());
        let err_hi: f64 = hi.reconstruction_errors(&data).iter().sum();
        let err_lo: f64 = lo.reconstruction_errors(&data).iter().sum();
        assert!(err_hi <= err_lo + 1e-12);
    }

    #[test]
    fn components_for_variance_rule() {
        let ratios = [0.5, 0.3, 0.15, 0.05];
        assert_eq!(Pca::components_for_variance(&ratios, 0.4), 1);
        assert_eq!(Pca::components_for_variance(&ratios, 0.5), 1);
        assert_eq!(Pca::components_for_variance(&ratios, 0.6), 2);
        assert_eq!(Pca::components_for_variance(&ratios, 0.95), 3);
        assert_eq!(Pca::components_for_variance(&ratios, 1.0), 4);
        // Unreachable targets clamp to everything.
        assert_eq!(Pca::components_for_variance(&[0.6, 0.2], 0.99), 2);
        // Degenerate input keeps at least one component.
        assert_eq!(Pca::components_for_variance(&[], 0.5), 1);
    }

    #[test]
    fn captured_variance_matches_request() {
        let data = random_data(40, 10, 3);
        let pca = Pca::fit_with(
            &data,
            PcaConfig::new().with_variance(ExplainedVariance::new(0.7).unwrap()),
        )
        .unwrap();
        let captured: f64 = pca
            .explained_variance_ratio()
            .iter()
            .take(pca.n_components())
            .sum();
        assert!(captured >= 0.7 - 1e-9);
    }

    #[test]
    fn encode_decode_shapes() {
        let data = random_data(12, 20, 4);
        let pca = Pca::fit_with(&data, PcaConfig::new().with_components(3)).unwrap();
        let z = pca.encode(&data);
        assert_eq!(z.shape(), (12, 3));
        let back = pca.decode(&z);
        assert_eq!(back.shape(), (12, 20));
    }

    #[test]
    fn rank_one_data_needs_one_component() {
        // All rows along one direction plus the mean.
        let mut rng = Xoshiro256::seed_from(5);
        let dir: Vec<f64> = (0..7).map(|_| rng.next_gaussian()).collect();
        let data = Matrix::from_fn(9, 7, |i, j| (i as f64 + 1.0) * dir[j]);
        let pca = Pca::fit_with(
            &data,
            PcaConfig::new().with_variance(ExplainedVariance::new(0.99).unwrap()),
        )
        .unwrap();
        assert_eq!(pca.n_components(), 1);
        let err = pca.reconstruction_errors(&data);
        assert!(err.iter().all(|&e| e < 1e-14));
    }

    #[test]
    fn zero_variance_data_reconstructs_via_mean() {
        let data = Matrix::from_fn(5, 4, |_, _| 3.5);
        let pca = Pca::fit_with(
            &data,
            PcaConfig::new().with_variance(ExplainedVariance::new(0.5).unwrap()),
        )
        .unwrap();
        assert_eq!(pca.n_components(), 1);
        let err = pca.reconstruction_errors(&data);
        assert!(err.iter().all(|&e| e < 1e-18));
    }

    #[test]
    fn zero_variance_data_under_every_solver() {
        let data = Matrix::from_fn(5, 4, |_, _| 3.5);
        let v = ExplainedVariance::new(0.5).unwrap();
        for solver in [PcaSolver::Auto, PcaSolver::FullSvd] {
            let config = PcaConfig::new().with_variance(v).with_solver(solver);
            let pca = Pca::fit_with(&data, config).unwrap();
            assert_eq!(pca.n_components(), 1, "{solver:?}");
            let err = pca.reconstruction_errors(&data);
            assert!(err.iter().all(|&e| e < 1e-18), "{solver:?}: {err:?}");
        }
    }

    #[test]
    fn outlier_has_larger_reconstruction_error() {
        // Fit on a plane-bound cloud, score an off-plane point higher than an
        // on-plane one.
        let mut rng = Xoshiro256::seed_from(6);
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|_| {
                let a = rng.next_gaussian();
                let b = rng.next_gaussian();
                vec![a, b, a + b, a - b, 0.0]
            })
            .collect();
        let data = Matrix::from_rows(&rows);
        let pca = Pca::fit_with(
            &data,
            PcaConfig::new().with_variance(ExplainedVariance::new(0.95).unwrap()),
        )
        .unwrap();
        let probes =
            Matrix::from_rows(&[vec![1.0, 1.0, 2.0, 0.0, 0.0], vec![1.0, 1.0, 2.0, 0.0, 8.0]]);
        let errors = pca.reconstruction_errors(&probes);
        let (on_plane, off_plane) = (errors[0], errors[1]);
        assert!(off_plane > on_plane * 10.0, "{off_plane} vs {on_plane}");
    }

    #[test]
    fn mean_is_training_mean() {
        let data = Matrix::from_rows(&[vec![0.0, 2.0], vec![2.0, 4.0]]);
        let pca = Pca::fit_with(&data, PcaConfig::new()).unwrap();
        assert_eq!(pca.mean(), &[1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn encode_wrong_dim_panics() {
        let data = random_data(5, 4, 7);
        let pca = Pca::fit_with(&data, PcaConfig::new()).unwrap();
        pca.encode(&random_data(3, 5, 8));
    }

    #[test]
    fn non_finite_input_is_typed_error() {
        let mut data = random_data(6, 4, 9);
        data[(2, 1)] = f64::NAN;
        assert_eq!(
            Pca::fit_with(&data, PcaConfig::new()).unwrap_err(),
            SvdError::NonFiniteInput
        );
        data[(2, 1)] = f64::INFINITY;
        assert_eq!(
            Pca::fit_with(
                &data,
                PcaConfig::new().with_variance(ExplainedVariance::new(0.5).unwrap())
            )
            .unwrap_err(),
            SvdError::NonFiniteInput
        );
    }

    #[test]
    fn every_solver_rejects_degenerate_input() {
        let v = ExplainedVariance::new(0.5).unwrap();
        for solver in [PcaSolver::Auto, PcaSolver::FullSvd] {
            let config = PcaConfig::new().with_variance(v).with_solver(solver);
            assert_eq!(
                Pca::fit_with(&Matrix::zeros(3, 0), config).unwrap_err(),
                SvdError::EmptyMatrix,
                "{solver:?}"
            );
            let mut nan = Matrix::zeros(3, 3);
            nan[(1, 2)] = f64::NAN;
            assert_eq!(
                Pca::fit_with(&nan, config).unwrap_err(),
                SvdError::NonFiniteInput,
                "{solver:?}"
            );
        }
    }

    #[test]
    fn single_row_training_set() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let pca = Pca::fit_with(
            &data,
            PcaConfig::new().with_variance(ExplainedVariance::new(0.9).unwrap()),
        )
        .unwrap();
        // Centering a single row yields zero variance: reconstruction is the
        // row itself.
        let err = pca.reconstruction_errors(&data);
        assert!(err[0] < 1e-18);
    }

    #[test]
    fn auto_is_the_gram_path() {
        // Auto has one code path, the exact Gram fit, for every target and
        // on both sides of the old 160-row truncation threshold, wide and
        // tall: every target resolves the full spectrum bit for bit, and
        // its components are the leading rows of the full-rank fit, bit
        // for bit (only the kept rows are recovered, each with the same
        // arithmetic). The spectrum agrees with the full-SVD reference.
        let v = ExplainedVariance::new(0.5).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rows, cols, seed) in [(30, 80, 99), (80, 30, 98), (170, 200, 97), (200, 170, 96)] {
            let data = random_data(rows, cols, seed);
            let full = Pca::fit_with(&data, PcaConfig::new()).unwrap();
            let reference =
                Pca::fit_with(&data, PcaConfig::new().with_solver(PcaSolver::FullSvd)).unwrap();
            let top = reference.singular_values()[0].powi(2);
            for (a, b) in full
                .singular_values()
                .iter()
                .zip(reference.singular_values())
            {
                assert!(
                    (a * a - b * b).abs() <= 1e-10 * top,
                    "{rows}x{cols}: {a} vs {b}"
                );
            }
            for (config, kept) in [
                (
                    PcaConfig::new().with_variance(v),
                    full.truncated(v).n_components(),
                ),
                (PcaConfig::new().with_components(7), 7),
            ] {
                let fit = Pca::fit_with(&data, config).unwrap();
                let label = format!("{rows}x{cols} {config:?}");
                assert_eq!(fit.n_components(), kept, "{label}");
                assert_eq!(bits(fit.mean()), bits(full.mean()), "{label}");
                assert_eq!(
                    bits(fit.singular_values()),
                    bits(full.singular_values()),
                    "{label}"
                );
                assert_eq!(
                    bits(fit.explained_variance_ratio()),
                    bits(full.explained_variance_ratio()),
                    "{label}"
                );
                let prefix = &full.components().as_slice()[..kept * cols];
                assert_eq!(bits(fit.components().as_slice()), bits(prefix), "{label}");
            }
        }
    }

    #[test]
    fn prop_solvers_agree_on_reconstruction_mse() {
        // Stated tolerance: per-row reconstruction MSE of the Auto (exact
        // Gram) solver within 1e-7 relative of the full-SVD reference on
        // random n ≪ d matrices with decaying spectra.
        crate::check::run("pca_solver_mse_agreement", 10, |g| {
            let n = g.usize_in(70, 100);
            let d = n + g.usize_in(40, 90);
            let rank = g.usize_in(8, 20);
            let data = decaying_data(n, d, rank, g.seed() ^ 0xABCDE);
            let v = ExplainedVariance::new(g.f64_in(0.3, 0.9)).unwrap();
            let reference = Pca::fit_with(
                &data,
                PcaConfig::new()
                    .with_variance(v)
                    .with_solver(PcaSolver::FullSvd),
            )
            .unwrap();
            let e_ref = reference.reconstruction_errors(&data);
            let fit = Pca::fit_with(&data, PcaConfig::new().with_variance(v)).unwrap();
            let e = fit.reconstruction_errors(&data);
            for (a, b) in e_ref.iter().zip(&e) {
                assert!((a - b).abs() <= 1e-7 * (1.0 + a.abs()), "{a} vs {b}");
            }
        });
    }

    #[test]
    fn prop_solvers_agree_on_component_count() {
        // The GetIndex(CEV, v) rule must pick the same component count
        // under both solvers — the pipeline's scoping decisions hang off
        // this integer, not off the raw spectrum.
        crate::check::run("pca_solver_count_agreement", 10, |g| {
            let n = g.usize_in(70, 100);
            let d = n + g.usize_in(40, 90);
            let rank = g.usize_in(8, 20);
            let data = decaying_data(n, d, rank, g.seed() ^ 0xC0DE);
            let v = ExplainedVariance::new(g.f64_in(0.3, 0.9)).unwrap();
            let reference = Pca::fit_with(&data, PcaConfig::new().with_variance(v)).unwrap();
            let config = PcaConfig::new()
                .with_variance(v)
                .with_solver(PcaSolver::FullSvd);
            let fit = Pca::fit_with(&data, config).unwrap();
            assert_eq!(
                fit.n_components(),
                reference.n_components(),
                "v = {}",
                v.get()
            );
        });
    }

    #[test]
    fn from_parts_typed_errors() {
        let err =
            Pca::from_parts(vec![0.0; 3], Matrix::zeros(1, 2), vec![1.0], vec![1.0]).unwrap_err();
        assert_eq!(
            err,
            PcaRehydrateError::ShapeMismatch {
                component_width: 2,
                mean_len: 3
            }
        );
        let err = Pca::from_parts(vec![0.0; 2], Matrix::zeros(0, 2), vec![], vec![]).unwrap_err();
        assert_eq!(err, PcaRehydrateError::EmptyComponents);
        let err = Pca::from_parts(vec![0.0; 2], Matrix::identity(2), vec![1.0], vec![1.0, 0.5])
            .unwrap_err();
        assert_eq!(
            err,
            PcaRehydrateError::ShortSpectrum {
                ratios: 1,
                singular_values: 2,
                components: 2
            }
        );
        // Round-trip of a healthy model.
        let pca = Pca::fit_with(&random_data(6, 4, 13), PcaConfig::new()).unwrap();
        let rebuilt = Pca::from_parts(
            pca.mean().to_vec(),
            pca.components().clone(),
            pca.explained_variance_ratio().to_vec(),
            pca.singular_values().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.n_components(), pca.n_components());
    }
}
