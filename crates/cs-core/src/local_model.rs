//! Phase II: local self-supervised models (Algorithm 1).
//!
//! A [`LocalModel`] is the triple the paper distributes between schemas:
//! `M_k = {μ_k, PC_k, l_k}` — the local signature mean, the principal
//! components retained at the global explained variance `v`, and the
//! **local linkability range** `l_k` = the largest reconstruction error
//! among the model's own training signatures (Definition 3). Every PCA
//! local model scores through `for_each_error_curve`, bit-equal to the sweep.

use crate::assess::LocalAssessor;
use crate::error::ScopingError;
use cs_linalg::pca::ExplainedVariance;
use cs_linalg::{Matrix, Pca, PcaConfig};

/// Pre-fit input guards, shared with the sweep (`crate::sweep`) so the
/// strict and graceful paths classify degenerate schemas identically:
/// empty → [`ScopingError::EmptySchema`], NaN/inf →
/// [`ScopingError::NonFiniteSignature`], a single element →
/// [`ScopingError::DegenerateSchema`].
pub(crate) fn check_trainable(
    schema_index: usize,
    signatures: &Matrix,
) -> Result<(), ScopingError> {
    if signatures.rows() == 0 {
        return Err(ScopingError::EmptySchema {
            schema: schema_index,
        });
    }
    if let Some((element, _)) = signatures.first_non_finite() {
        return Err(ScopingError::NonFiniteSignature {
            schema: schema_index,
            element,
        });
    }
    if signatures.rows() == 1 {
        return Err(ScopingError::DegenerateSchema {
            schema: schema_index,
            elements: 1,
        });
    }
    Ok(())
}

/// Post-fit spectrum guard: zero total variance (all signatures
/// identical up to rounding) collapses `l_k` to 0, so the model would
/// link only exact copies — [`ScopingError::RankDeficient`]. The
/// threshold is relative to the raw signal energy because centering
/// identical rows leaves ~1-ulp residue, never an exact zero.
pub(crate) fn check_spectrum(
    schema_index: usize,
    signatures: &Matrix,
    pca: &Pca,
) -> Result<(), ScopingError> {
    let total: f64 = pca.singular_values().iter().map(|s| s * s).sum();
    let energy: f64 = signatures
        .rows_iter()
        .map(|r| r.iter().map(|x| x * x).sum::<f64>())
        .sum();
    if total <= energy.max(1.0) * 1e-24 {
        return Err(ScopingError::RankDeficient {
            schema: schema_index,
        });
    }
    Ok(())
}

/// Calls `visit(e, curve)` per row `e` of `data`: `curve[n]` is its MSE at
/// `pca`'s leading `n` components, `(‖x − μ‖² − Σ_{i<n} z_i²) / dim` with
/// `z = (x − μ)·PCᵀ` in `dot`s — the one error formula of PCA local models,
/// exact for orthonormal rows. Truncated fits keep the full-rank leading
/// rows bit for bit, so a model ends on the full-rank curve's point at `n`.
pub(crate) fn for_each_error_curve(pca: &Pca, data: &Matrix, mut visit: impl FnMut(usize, &[f64])) {
    let dim = data.cols() as f64;
    let centered = data.sub_row_vector(pca.mean());
    let z = centered.matmul_transposed(pca.components());
    let mut curve = vec![0.0; z.cols() + 1];
    for (e, (zrow, crow)) in z.rows_iter().zip(centered.rows_iter()).enumerate() {
        let total: f64 = crow.iter().map(|x| x * x).sum();
        let mut acc = 0.0;
        curve[0] = (total - acc).max(0.0) / dim;
        for (slot, &v) in curve[1..].iter_mut().zip(zrow) {
            acc += v * v;
            *slot = (total - acc).max(0.0) / dim;
        }
        visit(e, &curve);
    }
}

/// A trained local encoder–decoder for one schema.
#[derive(Debug, Clone)]
pub struct LocalModel {
    schema_index: usize,
    pca: Pca,
    linkability_range: f64,
}

impl LocalModel {
    /// Trains on one schema's signatures at explained variance `v`
    /// (Algorithm 1, lines 3–15).
    ///
    /// # Errors
    /// Degenerate inputs yield typed errors, never panics:
    /// [`ScopingError::EmptySchema`] (no elements),
    /// [`ScopingError::NonFiniteSignature`] (NaN/inf entries),
    /// [`ScopingError::DegenerateSchema`] (a single element),
    /// [`ScopingError::RankDeficient`] (zero signature variance).
    pub fn train(
        schema_index: usize,
        signatures: &Matrix,
        v: ExplainedVariance,
    ) -> Result<Self, ScopingError> {
        check_trainable(schema_index, signatures)?;
        let pca = Pca::fit_with(signatures, PcaConfig::new().with_variance(v))?;
        check_spectrum(schema_index, signatures, &pca)?;
        let mut model = Self::from_parts(schema_index, pca, 0.0);
        let own_errors = model.reconstruction_errors(signatures);
        model.linkability_range = own_errors.into_iter().fold(0.0, f64::max);
        Ok(model)
    }

    /// Rebuilds a model from exchanged parts (see
    /// [`crate::exchange::to_model`]).
    pub(crate) fn from_parts(schema_index: usize, pca: Pca, linkability_range: f64) -> Self {
        Self {
            schema_index,
            pca,
            linkability_range,
        }
    }

    /// Number of principal components retained for the requested variance.
    pub fn n_components(&self) -> usize {
        self.pca.n_components()
    }

    /// The underlying PCA encoder–decoder (`μ_k`, `PC_k`).
    pub fn pca(&self) -> &Pca {
        &self.pca
    }
}

impl LocalAssessor for LocalModel {
    fn schema_index(&self) -> usize {
        self.schema_index
    }

    fn linkability_range(&self) -> f64 {
        self.linkability_range
    }

    fn reconstruction_errors(&self, foreign: &Matrix) -> Vec<f64> {
        let mut errors = Vec::with_capacity(foreign.rows());
        for_each_error_curve(&self.pca, foreign, |_, c| errors.push(c[c.len() - 1]));
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::Xoshiro256;

    fn v(x: f64) -> ExplainedVariance {
        ExplainedVariance::new(x).unwrap()
    }

    /// Signatures concentrated on a low-dimensional subspace.
    fn subspace_data(n: usize, dim: usize, rank: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        let basis: Vec<Vec<f64>> = (0..rank)
            .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
            .collect();
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = vec![0.0; dim];
            for b in &basis {
                let c = rng.next_gaussian();
                cs_linalg::vecops::axpy(&mut row, c, b);
            }
            rows.push(row);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn own_elements_always_pass_at_any_variance() {
        let data = subspace_data(30, 20, 5, 1);
        for variance in [0.99, 0.7, 0.4, 0.1] {
            let model = LocalModel::train(0, &data, v(variance)).unwrap();
            let own = model.assess(&data);
            assert!(
                own.iter().all(|&b| b),
                "v={variance}: an own element failed"
            );
        }
    }

    #[test]
    fn linkability_range_is_max_own_error() {
        let data = subspace_data(25, 15, 6, 2);
        let model = LocalModel::train(3, &data, v(0.5)).unwrap();
        let max_err = model
            .reconstruction_errors(&data)
            .into_iter()
            .fold(0.0f64, f64::max);
        assert!((model.linkability_range() - max_err).abs() < 1e-15);
        assert_eq!(model.schema_index(), 3);
    }

    #[test]
    fn foreign_on_manifold_accepted_off_manifold_rejected() {
        let data = subspace_data(40, 24, 3, 3);
        let model = LocalModel::train(0, &data, v(0.95)).unwrap();
        // On-manifold foreign point: a combination of training rows.
        let mut on = vec![0.0; 24];
        cs_linalg::vecops::axpy(&mut on, 0.5, data.row(0));
        cs_linalg::vecops::axpy(&mut on, 0.5, data.row(1));
        // Off-manifold: orthogonal-ish random direction, large.
        let mut rng = Xoshiro256::seed_from(99);
        let off: Vec<f64> = (0..24).map(|_| rng.next_gaussian() * 5.0).collect();
        let foreign = Matrix::from_rows(&[on, off]);
        let verdicts = model.assess(&foreign);
        assert!(verdicts[0], "on-manifold point should be recognized");
        assert!(!verdicts[1], "off-manifold point should be rejected");
    }

    #[test]
    fn lower_variance_widens_linkability_range() {
        // Fewer components → larger own reconstruction errors → larger l_k.
        let data = subspace_data(30, 20, 10, 4);
        let strict = LocalModel::train(0, &data, v(0.95)).unwrap();
        let loose = LocalModel::train(0, &data, v(0.3)).unwrap();
        assert!(loose.linkability_range() >= strict.linkability_range());
        assert!(loose.n_components() <= strict.n_components());
    }

    #[test]
    fn empty_schema_is_typed_error() {
        let err = LocalModel::train(4, &Matrix::zeros(0, 8), v(0.5)).unwrap_err();
        assert_eq!(err, ScopingError::EmptySchema { schema: 4 });
    }

    #[test]
    fn singleton_schema_is_typed_error() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let err = LocalModel::train(2, &data, v(0.5)).unwrap_err();
        assert_eq!(
            err,
            ScopingError::DegenerateSchema {
                schema: 2,
                elements: 1
            }
        );
    }

    #[test]
    fn non_finite_signature_is_typed_error_with_offender() {
        let mut data = subspace_data(6, 5, 2, 9);
        data[(3, 1)] = f64::NAN;
        let err = LocalModel::train(1, &data, v(0.5)).unwrap_err();
        assert_eq!(
            err,
            ScopingError::NonFiniteSignature {
                schema: 1,
                element: 3
            }
        );
        data[(3, 1)] = f64::NEG_INFINITY;
        let err = LocalModel::train(1, &data, v(0.5)).unwrap_err();
        assert!(matches!(err, ScopingError::NonFiniteSignature { .. }));
    }

    #[test]
    fn zero_variance_schema_is_rank_deficient() {
        // All-duplicate signatures: a real catalog condition (identical
        // serialized metadata), not just adversarial input.
        let data = Matrix::from_rows(&vec![vec![0.25, -0.5, 0.75, 0.1]; 6]);
        let err = LocalModel::train(3, &data, v(0.8)).unwrap_err();
        assert_eq!(err, ScopingError::RankDeficient { schema: 3 });
    }

    #[test]
    fn near_degenerate_but_real_variance_still_trains() {
        // Tiny-but-genuine variance must NOT be misclassified as
        // rank-deficient by the relative threshold.
        let mut rng = Xoshiro256::seed_from(13);
        let base: Vec<f64> = (0..6).map(|_| rng.next_gaussian()).collect();
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|_| {
                base.iter()
                    .map(|&x| x + rng.next_gaussian() * 1e-6)
                    .collect()
            })
            .collect();
        let model = LocalModel::train(0, &Matrix::from_rows(&rows), v(0.9)).unwrap();
        assert!(model.linkability_range() >= 0.0);
    }
}
