//! Thin QR factorization (modified Gram–Schmidt), the orthonormalization
//! step of the truncated PCA solver's block subspace iteration.

use crate::Matrix;

/// Thin QR of `a` (`m × n`, `m ≥ n` not required): returns `(Q, R)` with
/// `Q: m × r`, `R: r × n`, `r = min(m, n)`, `Q` having orthonormal columns
/// (zero columns where `a` is rank-deficient) and `a ≈ Q·R`.
pub fn qr(a: &Matrix) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    let r = m.min(n);
    // Column-major working copy of the first r columns processed over all n.
    let mut q = Matrix::zeros(m, r);
    let mut rmat = Matrix::zeros(r, n);
    // Modified Gram–Schmidt over columns of `a`.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(r);
    for j in 0..n {
        let mut v = a.col(j);
        for (i, qcol) in basis.iter().enumerate() {
            let proj = crate::matrix::dot(qcol, &v);
            rmat[(i, j)] = proj;
            crate::vecops::axpy(&mut v, -proj, qcol);
            // Second orthogonalization pass for stability.
            let proj2 = crate::matrix::dot(qcol, &v);
            rmat[(i, j)] += proj2;
            crate::vecops::axpy(&mut v, -proj2, qcol);
        }
        if basis.len() < r {
            let norm = crate::vecops::norm(&v);
            if norm > 1e-12 {
                for x in &mut v {
                    *x /= norm;
                }
                rmat[(basis.len(), j)] = norm;
                basis.push(v);
            } else {
                // Rank-deficient column: record a zero basis vector slot
                // only if we still owe columns to Q (keeps shapes fixed).
                basis.push(vec![0.0; m]);
            }
        }
    }
    while basis.len() < r {
        basis.push(vec![0.0; m]);
    }
    for (j, col) in basis.iter().enumerate() {
        for i in 0..m {
            q[(i, j)] = col[i];
        }
    }
    (q, rmat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian())
    }

    #[test]
    fn qr_reconstructs_and_is_orthonormal() {
        let a = random_matrix(10, 6, 1);
        let (q, r) = qr(&a);
        assert_eq!(q.shape(), (10, 6));
        assert_eq!(r.shape(), (6, 6));
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10);
        let gram = q.transpose().matmul(&q);
        assert!(gram.max_abs_diff(&Matrix::identity(6)) < 1e-10);
    }

    #[test]
    fn qr_wide_matrix() {
        let a = random_matrix(4, 9, 2);
        let (q, r) = qr(&a);
        assert_eq!(q.shape(), (4, 4));
        assert_eq!(r.shape(), (4, 9));
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn qr_rank_deficient() {
        // Two identical columns.
        let a = Matrix::from_rows(&[
            vec![1.0, 1.0, 2.0],
            vec![0.0, 0.0, 1.0],
            vec![2.0, 2.0, 0.0],
        ]);
        let (q, r) = qr(&a);
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-10);
        // R's diagonal shows the rank deficiency.
        assert!(r[(1, 1)].abs() < 1e-10);
    }
}
