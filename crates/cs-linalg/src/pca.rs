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
//! behind it. The default [`PcaSolver::Auto`] policy preserves the
//! historical exact numerics bit-for-bit on small inputs and only reroutes
//! large variance-targeted fits to the truncated solver (see DESIGN.md §11
//! for the heuristic and determinism contract).

use crate::stats::column_mean;
use crate::vecops::mse;
use crate::{Matrix, Svd, SvdError, Xoshiro256};

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
/// Every solver honors the same determinism contract: for a fixed input,
/// config, and seed the result is bit-identical across runs, platforms and
/// worker counts — none of them parallelize or depend on ambient state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PcaSolver {
    /// Choose by shape and target: the exact [`Svd::compute`] dispatch
    /// (preserving the historical `fit*` numerics bit-for-bit) unless the
    /// fit targets an explained variance `v < 1` on an input whose Gram
    /// side has at least [`TRUNCATED_AUTO_MIN`] rows, where the truncated
    /// solver wins by an order of magnitude.
    Auto,
    /// One-sided (Hestenes) Jacobi over all `d` columns ([`Svd::jacobi`]) —
    /// the reference path, exact but slowest for `n ≪ d`.
    FullSvd,
    /// The Gram economy path ([`Svd::gram`]): eigendecompose the smaller
    /// of `X·Xᵀ` / `Xᵀ·X` and recover the other factor as `Xᵀ·U·Σ⁻¹`.
    Gram,
    /// Deterministic seeded block subspace iteration on the Gram matrix,
    /// stopping as soon as the leading eigenvalues satisfy the fit target
    /// instead of resolving the full spectrum. `tol` is the relative
    /// Ritz-value convergence threshold (relative to the largest
    /// eigenvalue); [`DEFAULT_TRUNCATED_TOL`] is a good default. Fits
    /// that need the full spectrum (full-rank target, `v = 1`) or whose
    /// Gram side is too small to truncate degrade to the exact Gram path.
    Truncated {
        /// Relative Ritz-value convergence threshold; must be positive
        /// and finite.
        tol: f64,
    },
}

impl PcaSolver {
    /// The truncated solver with [`DEFAULT_TRUNCATED_TOL`].
    pub fn truncated() -> Self {
        PcaSolver::Truncated {
            tol: DEFAULT_TRUNCATED_TOL,
        }
    }
}

/// Default relative convergence tolerance for [`PcaSolver::Truncated`].
/// Tight enough that component counts and reconstruction errors agree
/// with the exact solvers to well below any decision threshold in the
/// pipeline; see DESIGN.md §11 for the tolerance policy.
pub const DEFAULT_TRUNCATED_TOL: f64 = 1e-10;

/// Smallest Gram-side dimension (`min(n, d)`) for which [`PcaSolver::Auto`]
/// reroutes a variance-targeted fit to the truncated solver. Below it the
/// exact dispatch is already fast and `Auto` preserves the historical
/// bit pattern exactly.
pub const TRUNCATED_AUTO_MIN: usize = 160;

/// Default seed for the truncated solver's starting block
/// ([`PcaConfig::with_seed`] overrides it).
pub const DEFAULT_PCA_SEED: u64 = 0x5CA1_AB1E;

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

/// Validated fit configuration consumed by [`Pca::fit_with`]: a solver, a
/// fit target, and the seed for the truncated solver's random block.
///
/// ```
/// use cs_linalg::{ExplainedVariance, PcaConfig, PcaSolver};
/// let v = ExplainedVariance::new(0.5).unwrap();
/// let config = PcaConfig::new()
///     .with_variance(v)
///     .with_solver(PcaSolver::truncated());
/// assert_eq!(config.solver(), PcaSolver::truncated());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcaConfig {
    solver: PcaSolver,
    target: PcaTarget,
    seed: u64,
}

impl Default for PcaConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl PcaConfig {
    /// A full-rank fit under [`PcaSolver::Auto`] with [`DEFAULT_PCA_SEED`].
    pub fn new() -> Self {
        Self {
            solver: PcaSolver::Auto,
            target: PcaTarget::FullRank,
            seed: DEFAULT_PCA_SEED,
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

    /// Targets the full `min(n, d)`-component decomposition.
    pub fn with_full_rank(mut self) -> Self {
        self.target = PcaTarget::FullRank;
        self
    }

    /// Seeds the truncated solver's starting block (ignored by the exact
    /// solvers).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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

    /// The configured truncated-solver seed.
    pub fn seed(&self) -> u64 {
        self.seed
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

/// Explained-variance ratios for a spectrum with zero total variance: the
/// first component carries the full (empty) variance so downstream
/// truncation keeps exactly one component. Shared by the full-SVD, Gram,
/// and truncated paths so the degenerate behavior cannot drift between
/// solvers.
fn zero_variance_ratios(len: usize) -> Vec<f64> {
    let mut r = vec![0.0; len];
    if let Some(first) = r.first_mut() {
        *first = 1.0;
    }
    r
}

/// The concrete exact decomposition a fit resolved to.
#[derive(Debug, Clone, Copy)]
enum ExactPath {
    /// The shape-based [`Svd::compute`] dispatch (historical behavior).
    Dispatch,
    /// Pinned one-sided Jacobi.
    Jacobi,
    /// Pinned Gram economy path.
    Gram,
}

/// A fitted PCA encoder–decoder: `(μ, PC)` plus the spectrum bookkeeping
/// needed to re-truncate at different explained-variance levels.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// Principal components as rows: `n_components × dim`.
    components: Matrix,
    /// Per-component explained-variance ratios. Exact fits carry the full
    /// spectrum; truncated fits carry the computed prefix only.
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
    /// Truncated fits retain only the computed spectrum prefix, so
    /// [`Self::truncated`] on the result can re-truncate *within* that
    /// prefix but cannot recover components the fit never resolved.
    ///
    /// # Errors
    /// [`SvdError::NonFiniteInput`] when the input carries NaN/inf (caught
    /// up front, before a NaN mean could smear across every centered
    /// entry), [`SvdError::EmptyMatrix`] when it has no rows or columns.
    ///
    /// # Panics
    /// When a pinned [`PcaSolver::Truncated`] carries a non-finite or
    /// non-positive `tol`.
    pub fn fit_with(data: &Matrix, config: PcaConfig) -> Result<Self, SvdError> {
        if data.has_non_finite() {
            return Err(SvdError::NonFiniteInput);
        }
        if data.rows() == 0 || data.cols() == 0 {
            return Err(SvdError::EmptyMatrix);
        }
        let target = config.target;
        match config.solver {
            PcaSolver::Auto => {
                if let PcaTarget::Variance(v) = target {
                    let gram_side = data.rows().min(data.cols());
                    if v.get() < 1.0 && gram_side >= TRUNCATED_AUTO_MIN {
                        return Self::fit_truncated(
                            data,
                            target,
                            DEFAULT_TRUNCATED_TOL,
                            config.seed,
                        );
                    }
                }
                Self::fit_exact(data, ExactPath::Dispatch, target)
            }
            PcaSolver::FullSvd => Self::fit_exact(data, ExactPath::Jacobi, target),
            PcaSolver::Gram => Self::fit_exact(data, ExactPath::Gram, target),
            PcaSolver::Truncated { tol } => {
                assert!(
                    tol.is_finite() && tol > 0.0,
                    "truncation tolerance must be positive and finite"
                );
                match target {
                    // The full spectrum is needed anyway: truncation has
                    // nothing to skip, so degrade to the exact Gram path.
                    PcaTarget::FullRank => Self::fit_exact(data, ExactPath::Gram, target),
                    PcaTarget::Variance(v) if v.get() >= 1.0 => {
                        Self::fit_exact(data, ExactPath::Gram, target)
                    }
                    _ => Self::fit_truncated(data, target, tol, config.seed),
                }
            }
        }
    }

    /// The exact path shared by the full-SVD and Gram solvers: center,
    /// decompose, derive the spectrum bookkeeping, apply the target.
    fn fit_exact(data: &Matrix, path: ExactPath, target: PcaTarget) -> Result<Self, SvdError> {
        let mean = column_mean(data);
        let centered = data.sub_row_vector(&mean);
        let svd = match path {
            ExactPath::Dispatch => Svd::compute(&centered)?,
            ExactPath::Jacobi => Svd::jacobi(&centered)?,
            ExactPath::Gram => Svd::gram(&centered)?,
        };
        let total: f64 = svd.singular_values.iter().map(|s| s * s).sum();
        let ratio: Vec<f64> = if total > 0.0 {
            svd.singular_values.iter().map(|s| s * s / total).collect()
        } else {
            zero_variance_ratios(svd.singular_values.len())
        };
        let full = Self {
            mean,
            components: svd.vt,
            explained_variance_ratio: ratio,
            singular_values: svd.singular_values,
        };
        Ok(full.apply_target(target))
    }

    /// Applies a fit target to an already-decomposed model.
    fn apply_target(self, target: PcaTarget) -> Self {
        match target {
            PcaTarget::FullRank => self,
            PcaTarget::Variance(v) => self.truncated(v),
            PcaTarget::Components(n) => self.with_components(n),
        }
    }

    /// The truncated solver: deterministic seeded block subspace iteration
    /// on the Gram matrix, resolving only the leading eigenpairs the
    /// target needs. Falls back to the exact Gram path whenever the block
    /// would cover most of the spectrum anyway or the iteration budget
    /// runs out, so the result is always well-defined.
    fn fit_truncated(
        data: &Matrix,
        target: PcaTarget,
        tol: f64,
        seed: u64,
    ) -> Result<Self, SvdError> {
        let (n, d) = data.shape();
        let r = n.min(d);
        let mean = column_mean(data);
        let x = data.sub_row_vector(&mean);

        // Eigendecompose the smaller Gram side, as `Svd::gram` does. On
        // the rows side the eigenvectors are left singular vectors `u_i`
        // and components are recovered as `Xᵀ·u/σ`; on the columns side
        // they are the components directly.
        let rows_side = n <= d;
        let g = if rows_side {
            crate::kernels::gram_rows(&x, crate::kernels::TILE)
        } else {
            crate::kernels::gram_rows(&x.transpose(), crate::kernels::TILE)
        };
        let m = g.rows();

        // The total variance is the Gram trace — available exactly before
        // a single eigenvalue is resolved, which is what lets the
        // cumulative-explained-variance rule stop early.
        let total: f64 = (0..m).map(|i| g[(i, i)]).sum();
        if total <= 0.0 {
            // Zero-variance data: one zero component carrying the full
            // (empty) variance — reconstruction through it is the mean,
            // exactly as the exact solvers behave after truncation.
            return Ok(Self {
                mean,
                components: Matrix::zeros(1, d),
                explained_variance_ratio: zero_variance_ratios(1),
                singular_values: vec![0.0],
            });
        }

        let component_goal = match target {
            PcaTarget::Components(c) => Some(c.clamp(1, r)),
            _ => None,
        };
        let mut block = match component_goal {
            Some(c) => (c + 8).min(m),
            None => 32.min(m),
        };
        if block * 2 >= m {
            return Self::fit_exact(data, ExactPath::Gram, target);
        }

        let mut rng = Xoshiro256::seed_from(seed);
        let mut q = crate::qr::qr(&Matrix::from_fn(m, block, |_, _| rng.next_gaussian())).0;
        let mut z = crate::kernels::matmul_narrow(&g, &q);
        let mut prev: Vec<f64> = Vec::new();
        let mut converged: Option<(Vec<f64>, Matrix, usize)> = None;
        for _ in 0..MAX_SUBSPACE_ITERS {
            q = crate::qr::qr(&z).0;
            z = crate::kernels::matmul_narrow(&g, &q);
            // Rayleigh–Ritz on the block: B = Qᵀ·(G·Q), eigenvalues are
            // the current estimates of the leading spectrum.
            let b_small = q.transpose().matmul(&z);
            let (theta, w) = crate::svd::symmetric_eigen(&b_small);

            // How much of the target the current estimates satisfy. Ritz
            // values underestimate the true eigenvalues, so a satisfied
            // cumulative target here is also satisfied exactly.
            let (keep, satisfiable) = match component_goal {
                Some(c) => (c.min(block), c < block),
                None => {
                    let v = match target {
                        PcaTarget::Variance(v) => v.get(),
                        // fit_with routes full-rank targets to the exact
                        // path before this solver runs.
                        _ => 1.0,
                    };
                    let mut cum = 0.0;
                    let mut found = None;
                    for (i, &t) in theta.iter().enumerate() {
                        cum += t.max(0.0) / total;
                        if cum >= v - 1e-12 {
                            found = Some(i + 1);
                            break;
                        }
                    }
                    match found {
                        Some(k) => (k, k < block),
                        None => (theta.len(), false),
                    }
                }
            };

            let scale = theta.first().copied().unwrap_or(0.0).max(f64::MIN_POSITIVE);
            let stable_prefix = |count: usize| {
                prev.len() == theta.len()
                    && theta
                        .iter()
                        .take(count)
                        .zip(prev.iter())
                        .all(|(&t, &p)| (t - p).abs() <= tol * scale)
            };
            if satisfiable && stable_prefix(keep) {
                converged = Some((theta, w, keep));
                break;
            }
            if !satisfiable && stable_prefix(block) {
                // The spectrum has settled but the block cannot cover the
                // target: widen it, keeping the converged basis and
                // appending fresh random probes.
                let grown = (block * 2).min(m);
                if grown * 2 >= m {
                    return Self::fit_exact(data, ExactPath::Gram, target);
                }
                let basis = q.matmul(&w);
                let extended =
                    Matrix::from_fn(m, grown, |i, j| if j < block { basis[(i, j)] } else { 0.0 });
                let mut extended = extended;
                for j in block..grown {
                    for i in 0..m {
                        extended[(i, j)] = rng.next_gaussian();
                    }
                }
                block = grown;
                q = crate::qr::qr(&extended).0;
                z = crate::kernels::matmul_narrow(&g, &q);
                prev.clear();
                continue;
            }
            prev = theta;
        }
        let Some((theta, w, keep)) = converged else {
            // Iteration budget exhausted (pathologically clustered
            // spectrum): resolve exactly rather than return estimates.
            return Self::fit_exact(data, ExactPath::Gram, target);
        };

        // Ritz vectors for the kept prefix, then component recovery.
        let ritz = q.matmul(&w);
        let mut singular_values = Vec::with_capacity(keep);
        let mut ratios = Vec::with_capacity(keep);
        for &t in theta.iter().take(keep) {
            let lambda = t.max(0.0);
            singular_values.push(lambda.sqrt());
            ratios.push(lambda / total);
        }
        let mut components = Matrix::zeros(keep, d);
        if rows_side {
            // components = Σ⁻¹ · Uᵀ · X, rows zero where σ ≈ 0.
            let mut ut = Matrix::zeros(keep, n);
            for slot in 0..keep {
                for i in 0..n {
                    ut[(slot, i)] = ritz[(i, slot)];
                }
            }
            let unscaled = ut.matmul(&x);
            for slot in 0..keep {
                let sigma = singular_values[slot];
                if sigma > crate::EPS {
                    for k in 0..d {
                        components[(slot, k)] = unscaled[(slot, k)] / sigma;
                    }
                }
            }
        } else {
            // Columns-side eigenvectors are the components themselves.
            for slot in 0..keep {
                for k in 0..d {
                    components[(slot, k)] = ritz[(k, slot)];
                }
            }
        }
        Ok(Self {
            mean,
            components,
            explained_variance_ratio: ratios,
            singular_values,
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
        let avail = self.components.rows();
        let keep = n.clamp(1.min(avail), avail);
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

    /// Per-component explained-variance ratios — the full spectrum for
    /// exact fits, the computed prefix for truncated fits.
    pub fn explained_variance_ratio(&self) -> &[f64] {
        &self.explained_variance_ratio
    }

    /// Cumulative explained variance actually captured by the retained
    /// components.
    pub fn captured_variance(&self) -> f64 {
        self.explained_variance_ratio
            .iter()
            .take(self.n_components())
            .sum()
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

    /// Reconstruction MSE of a single signature vector.
    pub fn reconstruction_error_one(&self, signature: &[f64]) -> f64 {
        let row = Matrix::from_rows(&[signature.to_vec()]);
        self.reconstruction_errors(&row)[0]
    }
}

/// Iteration ceiling for the truncated solver across all block growths;
/// exhausting it falls back to the exact Gram path.
const MAX_SUBSPACE_ITERS: usize = 200;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_data(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian())
    }

    /// Short-and-wide data with a decaying spectrum — the shape the
    /// truncated solver is built for.
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
        assert!(pca.captured_variance() >= 0.7 - 1e-9);
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
        for solver in [
            PcaSolver::Auto,
            PcaSolver::FullSvd,
            PcaSolver::Gram,
            PcaSolver::truncated(),
        ] {
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
        let on_plane = pca.reconstruction_error_one(&[1.0, 1.0, 2.0, 0.0, 0.0]);
        let off_plane = pca.reconstruction_error_one(&[1.0, 1.0, 2.0, 0.0, 8.0]);
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
        for solver in [
            PcaSolver::Auto,
            PcaSolver::FullSvd,
            PcaSolver::Gram,
            PcaSolver::truncated(),
        ] {
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
    fn truncated_solver_matches_exact_reference() {
        // A spectrum-decaying matrix large enough that the subspace
        // iteration actually runs (Gram side ≥ 2 × initial block).
        let data = decaying_data(140, 200, 24, 21);
        let v = ExplainedVariance::new(0.7).unwrap();
        let exact = Pca::fit_with(&data, PcaConfig::new().with_variance(v)).unwrap();
        let trunc = Pca::fit_with(
            &data,
            PcaConfig::new()
                .with_variance(v)
                .with_solver(PcaSolver::truncated()),
        )
        .unwrap();
        assert_eq!(trunc.n_components(), exact.n_components());
        let e_exact = exact.reconstruction_errors(&data);
        let e_trunc = trunc.reconstruction_errors(&data);
        for (a, b) in e_exact.iter().zip(&e_trunc) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn truncated_solver_is_seed_deterministic() {
        let data = decaying_data(120, 180, 16, 33);
        let v = ExplainedVariance::new(0.5).unwrap();
        let config = PcaConfig::new()
            .with_variance(v)
            .with_solver(PcaSolver::truncated());
        let a = Pca::fit_with(&data, config).unwrap();
        let b = Pca::fit_with(&data, config).unwrap();
        assert_eq!(a.n_components(), b.n_components());
        for (x, y) in a
            .components()
            .as_slice()
            .iter()
            .zip(b.components().as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn truncated_component_target() {
        let data = decaying_data(130, 190, 20, 55);
        let config = PcaConfig::new()
            .with_components(6)
            .with_solver(PcaSolver::truncated());
        let trunc = Pca::fit_with(&data, config).unwrap();
        assert_eq!(trunc.n_components(), 6);
        let exact = Pca::fit_with(&data, PcaConfig::new().with_components(6)).unwrap();
        let e_exact = exact.reconstruction_errors(&data);
        let e_trunc = trunc.reconstruction_errors(&data);
        for (a, b) in e_exact.iter().zip(&e_trunc) {
            // Ritz *vectors* converge as the square root of the Ritz-value
            // tolerance, and a hard component cut exposes the boundary
            // vector directly (a variance cut hides it behind the
            // cumulative sum), so the pin is looser here.
            assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn truncated_full_rank_degrades_to_gram() {
        let data = random_data(12, 30, 77);
        let trunc =
            Pca::fit_with(&data, PcaConfig::new().with_solver(PcaSolver::truncated())).unwrap();
        let gram = Pca::fit_with(&data, PcaConfig::new().with_solver(PcaSolver::Gram)).unwrap();
        for (a, b) in trunc.singular_values().iter().zip(gram.singular_values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn auto_stays_exact_below_threshold() {
        // Auto on a small matrix must match the historical exact pipeline
        // bit-for-bit (the goldens depend on it).
        let data = random_data(30, 80, 99);
        let v = ExplainedVariance::new(0.5).unwrap();
        let auto = Pca::fit_with(&data, PcaConfig::new().with_variance(v)).unwrap();
        let exact = Pca::fit_exact(&data, ExactPath::Dispatch, PcaTarget::Variance(v)).unwrap();
        for (a, b) in auto
            .components()
            .as_slice()
            .iter()
            .zip(exact.components().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn tall_matrix_truncated_uses_columns_side() {
        // n > d: the Gram side is d×d and eigenvectors are components
        // directly. d must exceed twice the initial block for the
        // iteration to run.
        let data = decaying_data(260, 130, 18, 44);
        let v = ExplainedVariance::new(0.6).unwrap();
        let exact = Pca::fit_with(&data, PcaConfig::new().with_variance(v)).unwrap();
        let trunc = Pca::fit_with(
            &data,
            PcaConfig::new()
                .with_variance(v)
                .with_solver(PcaSolver::truncated()),
        )
        .unwrap();
        assert_eq!(trunc.n_components(), exact.n_components());
        let e_exact = exact.reconstruction_errors(&data);
        let e_trunc = trunc.reconstruction_errors(&data);
        for (a, b) in e_exact.iter().zip(&e_trunc) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "truncation tolerance must be positive")]
    fn bad_truncated_tol_panics() {
        let data = random_data(8, 8, 3);
        let _ = Pca::fit_with(
            &data,
            PcaConfig::new()
                .with_variance(ExplainedVariance::new(0.5).unwrap())
                .with_solver(PcaSolver::Truncated { tol: 0.0 }),
        );
    }

    #[test]
    fn prop_solvers_agree_on_reconstruction_mse() {
        // Stated tolerance: per-row reconstruction MSE of the Gram and
        // truncated solvers within 1e-7 relative of the full-SVD
        // reference on random n ≪ d matrices with decaying spectra.
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
            for solver in [PcaSolver::Gram, PcaSolver::truncated()] {
                let fit =
                    Pca::fit_with(&data, PcaConfig::new().with_variance(v).with_solver(solver))
                        .unwrap();
                let e = fit.reconstruction_errors(&data);
                for (a, b) in e_ref.iter().zip(&e) {
                    assert!(
                        (a - b).abs() <= 1e-7 * (1.0 + a.abs()),
                        "{solver:?}: {a} vs {b}"
                    );
                }
            }
        });
    }

    #[test]
    fn prop_solvers_agree_on_component_count() {
        // The GetIndex(CEV, v) rule must pick the same component count
        // under every solver — the pipeline's scoping decisions hang off
        // this integer, not off the raw spectrum.
        crate::check::run("pca_solver_count_agreement", 10, |g| {
            let n = g.usize_in(70, 100);
            let d = n + g.usize_in(40, 90);
            let rank = g.usize_in(8, 20);
            let data = decaying_data(n, d, rank, g.seed() ^ 0xC0DE);
            let v = ExplainedVariance::new(g.f64_in(0.3, 0.9)).unwrap();
            let reference = Pca::fit_with(&data, PcaConfig::new().with_variance(v)).unwrap();
            for solver in [PcaSolver::FullSvd, PcaSolver::Gram, PcaSolver::truncated()] {
                let fit =
                    Pca::fit_with(&data, PcaConfig::new().with_variance(v).with_solver(solver))
                        .unwrap();
                assert_eq!(
                    fit.n_components(),
                    reference.n_components(),
                    "{solver:?} at v = {}",
                    v.get()
                );
            }
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
