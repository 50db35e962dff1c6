//! Truncated-dimension projections for approximate-search prefilters.
//!
//! The ANN path in cs-match hashes and prefilters candidates in a cheap
//! low-dimensional space before the exact full-dimension rerank
//! (DESIGN.md §14). [`TruncatedProjection`] is that space: the leading
//! PCA components of the indexed data when a fit is possible, and a
//! plain coordinate truncation otherwise. The fallback matters — the
//! fault matrix pushes NaN-poisoned, empty, and zero-variance catalogs
//! through the index, and a prefilter that *fails to build* would turn a
//! data-quality fault into a pipeline abort. `fit` therefore never
//! errors: it degrades.
//!
//! Determinism contract: the PCA fit is performed in a canonical row
//! order (rows sorted lexicographically by `total_cmp`), so the fitted
//! basis — and every distance computed in the projected space — is
//! invariant to the order the caller assembled the rows in. This is what
//! makes the fused ranking's schema-permutation metamorphic property
//! hold even with the PCA prefilter enabled.

use crate::pca::{Pca, PcaTarget};
use crate::vecops::total_cmp_f64;
use crate::Matrix;

/// A projection onto a leading low-dimensional basis: PCA
/// components when the data supports a fit, coordinate truncation when
/// it does not (non-finite entries, too few rows, or a degenerate
/// spectrum).
#[derive(Debug, Clone)]
pub struct TruncatedProjection {
    /// `(mean, basis)` of the PCA fit (`out_dim × in_dim` basis rows);
    /// `None` means coordinate truncation.
    basis: Option<(Vec<f64>, Matrix)>,
    in_dim: usize,
    out_dim: usize,
}

impl TruncatedProjection {
    /// Fits a projection of at most `dims ≥ 1` output dimensions onto
    /// the rows of `data`.
    ///
    /// The PCA fit is the exact one ([`crate::PcaSolver::Auto`]) over a
    /// canonical (sorted) row order; any reason the fit cannot produce at
    /// least one component — non-finite input, fewer than two rows, rank
    /// collapse — selects the coordinate-truncation fallback instead of
    /// erroring. The fallback keeps the first `dims.min(in_dim)`
    /// coordinates, so [`Self::out_dim`] is always the length
    /// [`Self::project`] returns.
    pub fn fit(data: &Matrix, dims: usize) -> Self {
        assert!(dims >= 1, "projection needs at least one output dim");
        let in_dim = data.cols();
        let fallback = Self {
            basis: None,
            in_dim,
            out_dim: dims.min(in_dim),
        };
        if in_dim == 0 || data.rows() < 2 || dims >= in_dim || data.has_non_finite() {
            return fallback;
        }
        let target = dims.min(data.rows().saturating_sub(1));
        if target == 0 {
            return fallback;
        }
        // Canonical row order: the basis must not depend on how the
        // caller concatenated its schemas. The fit centers this copy in
        // place rather than making another.
        let mut order: Vec<usize> = (0..data.rows()).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (data.row(a), data.row(b));
            ra.iter()
                .zip(rb.iter())
                .map(|(x, y)| total_cmp_f64(x, y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let canonical = data.select_rows(&order);
        match Pca::fit_gram(canonical, PcaTarget::Components(target)) {
            Ok(pca) if pca.n_components() >= 1 => Self {
                basis: Some((pca.mean().to_vec(), pca.components().clone())),
                in_dim,
                out_dim: pca.n_components(),
            },
            _ => fallback,
        }
    }

    /// Input dimensionality the projection accepts.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality the projection produces.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// True when the fit degraded to plain coordinate truncation.
    pub fn is_coordinate(&self) -> bool {
        self.basis.is_none()
    }

    /// Projects one row vector.
    ///
    /// # Panics
    /// If `v.len()` differs from [`Self::in_dim`].
    pub fn project(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.in_dim, "projection input dim mismatch");
        match &self.basis {
            Some((mean, basis)) => {
                let centered: Vec<f64> = v.iter().zip(mean).map(|(x, m)| x - m).collect();
                basis.matvec(&centered)
            }
            None => v.iter().copied().take(self.out_dim).collect(),
        }
    }

    /// Projects every row of `m`, preserving row order. A PCA fit is one
    /// kernel product `(m − μ) · basisᵀ`; row `i` equals
    /// [`Self::project`] of row `i` bit for bit (the same centering, and
    /// each cell is the same ascending chain of commuted products).
    ///
    /// # Panics
    /// If `m.cols()` differs from [`Self::in_dim`].
    pub fn project_rows(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.cols(), self.in_dim, "projection input dim mismatch");
        match &self.basis {
            Some((mean, basis)) => m.sub_row_vector(mean).matmul_transposed(basis),
            None => Matrix::from_fn(m.rows(), self.out_dim, |i, j| m[(i, j)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian())
    }

    #[test]
    fn pca_fit_projects_to_requested_dims() {
        let data = random(40, 16, 3);
        let p = TruncatedProjection::fit(&data, 4);
        assert!(!p.is_coordinate());
        assert_eq!(p.in_dim(), 16);
        assert_eq!(p.out_dim(), 4);
        assert_eq!(p.project(data.row(0)).len(), 4);
        let projected = p.project_rows(&data);
        assert_eq!((projected.rows(), projected.cols()), (40, 4));
    }

    #[test]
    fn project_rows_matches_project_bit_for_bit() {
        let data = random(23, 12, 5);
        let mut coordinate_data = data.clone();
        coordinate_data.row_mut(4)[7] = f64::NAN;
        for (p, label) in [
            (TruncatedProjection::fit(&data, 5), "pca"),
            (TruncatedProjection::fit(&coordinate_data, 5), "coordinate"),
        ] {
            assert_eq!(p.is_coordinate(), label == "coordinate");
            let probe = random(9, 12, 6);
            let projected = p.project_rows(&probe);
            assert_eq!(projected.shape(), (9, 5), "{label}");
            for i in 0..probe.rows() {
                let want: Vec<u64> = p
                    .project(probe.row(i))
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                let got: Vec<u64> = projected.row(i).iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "{label} row {i}");
            }
        }
    }

    #[test]
    fn fit_is_row_order_invariant() {
        let data = random(30, 8, 11);
        let reversed: Vec<Vec<f64>> = (0..data.rows())
            .rev()
            .map(|i| data.row(i).to_vec())
            .collect();
        let a = TruncatedProjection::fit(&data, 3);
        let b = TruncatedProjection::fit(&Matrix::from_rows(&reversed), 3);
        assert_eq!(a.project(data.row(0)), b.project(data.row(0)));
    }

    #[test]
    fn non_finite_data_falls_back_to_coordinates() {
        let mut data = random(10, 6, 2);
        data.row_mut(3)[1] = f64::NAN;
        let p = TruncatedProjection::fit(&data, 2);
        assert!(p.is_coordinate());
        assert_eq!(p.project(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), vec![1.0, 2.0]);
    }

    #[test]
    fn degenerate_inputs_fall_back() {
        let cases = [
            // Too few rows.
            (random(1, 5, 4), 2),
            // Zero variance: every row identical.
            (Matrix::from_fn(8, 5, |_, c| c as f64), 2),
            // Requested dims at/above input dim.
            (random(10, 4, 6), 4),
            (random(10, 4, 6), 9),
            // Empty matrix, and rows without columns.
            (Matrix::zeros(0, 4), 2),
            (Matrix::zeros(3, 0), 2),
        ];
        for (data, dims) in cases {
            let p = TruncatedProjection::fit(&data, dims);
            let label = format!("{:?} dims {dims}", data.shape());
            if data.rows() < 2 || dims >= data.cols() {
                assert!(p.is_coordinate(), "{label}");
            }
            assert_eq!(p.out_dim(), dims.min(data.cols()), "{label}");
            let probe = vec![1.0; data.cols()];
            assert_eq!(p.project(&probe).len(), p.out_dim(), "{label}");
            let projected = p.project_rows(&data);
            assert_eq!(projected.rows(), data.rows(), "{label}");
            assert_eq!(projected.cols(), p.out_dim(), "{label}");
        }
    }

    #[test]
    fn projection_preserves_neighborhoods_roughly() {
        // A strongly planar cloud: PCA onto 2 dims keeps near pairs near.
        let mut rng = Xoshiro256::seed_from(9);
        let data = Matrix::from_fn(50, 12, |_, c| {
            let base = rng.next_gaussian();
            if c < 2 {
                base * 10.0
            } else {
                base * 0.01
            }
        });
        let p = TruncatedProjection::fit(&data, 2);
        assert!(!p.is_coordinate());
        let a = p.project(data.row(0));
        let b = p.project(data.row(0));
        assert_eq!(a, b, "projection must be deterministic");
    }

    #[test]
    #[should_panic(expected = "at least one output dim")]
    fn zero_dims_panics() {
        TruncatedProjection::fit(&Matrix::zeros(2, 2), 0);
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn wrong_input_dim_panics() {
        let p = TruncatedProjection::fit(&random(10, 4, 1), 2);
        p.project(&[0.0; 3]);
    }
}
