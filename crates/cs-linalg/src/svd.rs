//! Singular value decomposition.
//!
//! Algorithm 1 of the paper computes a *full SVD* of the mean-centered
//! signature matrix of each local schema. Signature matrices here are
//! short-and-wide (`n` elements × 768 embedding dimensions, with `n` from a
//! handful up to a few hundred). Two kernels serve it:
//!
//! - [`Svd::jacobi`] — one-sided (Hestenes) Jacobi rotation SVD. Simple,
//!   robust, accurate; the reference implementation behind
//!   `PcaSolver::FullSvd`.
//! - [`symmetric_eigen`] — Householder tridiagonalization plus
//!   implicit-shift QL, `O(m³)` for side `m`. The exact PCA fit
//!   (`PcaSolver::Auto`) runs it on the smaller Gram matrix (`A·Aᵀ` when
//!   `n ≤ d`, `Aᵀ·A` otherwise) and recovers only the component rows its
//!   target keeps. Much faster for the `n ≪ d` signature case.
//!
//! Tests in `pca.rs` pin the two paths to agree, and the `cs-bench` solver
//! group times them.

use crate::matrix::dot;
use crate::vecops::total_cmp_f64;
use crate::Matrix;

/// Thin SVD factorization `A = U · diag(σ) · Vᵀ` with `r = min(rows, cols)`
/// retained components, singular values sorted in descending order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `rows × r` (columns are `u_i`).
    pub u: Matrix,
    /// Singular values `σ_1 ≥ σ_2 ≥ … ≥ σ_r ≥ 0`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors transposed, `r × cols` (rows are `v_iᵀ`).
    pub vt: Matrix,
}

/// Errors reported by the SVD routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvdError {
    /// The input matrix has zero rows or zero columns.
    EmptyMatrix,
    /// The input contains NaN or infinite entries.
    NonFiniteInput,
}

impl std::fmt::Display for SvdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvdError::EmptyMatrix => write!(f, "cannot decompose an empty matrix"),
            SvdError::NonFiniteInput => write!(f, "matrix contains NaN or infinite entries"),
        }
    }
}

impl std::error::Error for SvdError {}

impl Svd {
    /// One-sided (Hestenes) Jacobi SVD: orthogonalizes the columns of `A`
    /// by plane rotations accumulated into `V`.
    pub fn jacobi(a: &Matrix) -> Result<Svd, SvdError> {
        validate(a)?;
        let (n, d) = a.shape();
        // Work on the columns of A: w_j ∈ R^n. Store column-major for
        // cache-friendly column rotations.
        let mut w: Vec<Vec<f64>> = (0..d).map(|j| a.col(j)).collect();
        let mut v: Vec<Vec<f64>> = (0..d)
            .map(|j| {
                let mut e = vec![0.0; d];
                e[j] = 1.0;
                e
            })
            .collect();

        let scale = a.frobenius_norm();
        let tol = if scale > 0.0 {
            1e-14 * scale * scale
        } else {
            0.0
        };
        let max_sweeps = 60;
        for _ in 0..max_sweeps {
            let mut off = 0.0f64;
            for p in 0..d {
                for q in (p + 1)..d {
                    let alpha = dot(&w[p], &w[p]);
                    let beta = dot(&w[q], &w[q]);
                    let gamma = dot(&w[p], &w[q]);
                    off = off.max(gamma.abs());
                    if gamma.abs() <= tol || alpha == 0.0 || beta == 0.0 {
                        continue;
                    }
                    // Rotation zeroing the (p,q) entry of WᵀW.
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    rotate_pair(&mut w, p, q, c, s);
                    rotate_pair(&mut v, p, q, c, s);
                }
            }
            if off <= tol.max(1e-300) {
                break;
            }
        }

        // Singular values are the column norms; sort descending.
        let mut order: Vec<usize> = (0..d).collect();
        let norms: Vec<f64> = w.iter().map(|col| dot(col, col).sqrt()).collect();
        order.sort_by(|&i, &j| total_cmp_f64(&norms[j], &norms[i]));

        let r = n.min(d);
        let mut u = Matrix::zeros(n, r);
        let mut vt = Matrix::zeros(r, d);
        let mut sv = Vec::with_capacity(r);
        for (slot, &j) in order.iter().take(r).enumerate() {
            let sigma = norms[j];
            sv.push(sigma);
            if sigma > 0.0 {
                for i in 0..n {
                    u[(i, slot)] = w[j][i] / sigma;
                }
            }
            for k in 0..d {
                vt[(slot, k)] = v[j][k];
            }
        }
        Ok(Svd {
            u,
            singular_values: sv,
            vt,
        })
    }

    /// Reconstructs `U · diag(σ) · Vᵀ`. Useful for testing the factorization.
    pub fn reconstruct(&self) -> Matrix {
        let r = self.singular_values.len();
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            for j in 0..r {
                us[(i, j)] *= self.singular_values[j];
            }
        }
        us.matmul(&self.vt)
    }

    /// Number of singular values above `tol · σ_max` — the numerical rank.
    pub fn rank(&self, tol: f64) -> usize {
        let max = self.singular_values.first().copied().unwrap_or(0.0);
        self.singular_values
            .iter()
            .filter(|&&s| s > tol * max && s > 0.0)
            .count()
    }
}

fn validate(a: &Matrix) -> Result<(), SvdError> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(SvdError::EmptyMatrix);
    }
    if a.has_non_finite() {
        return Err(SvdError::NonFiniteInput);
    }
    Ok(())
}

/// Applies the plane rotation `(cols[p], cols[q]) ← (c·p − s·q, s·p + c·q)`.
fn rotate_pair(cols: &mut [Vec<f64>], p: usize, q: usize, c: f64, s: f64) {
    debug_assert_ne!(p, q);
    let (lo, hi) = if p < q { (p, q) } else { (q, p) };
    let (head, tail) = cols.split_at_mut(hi);
    let (a, b) = if p < q {
        (&mut head[lo], &mut tail[0])
    } else {
        (&mut tail[0], &mut head[lo])
    };
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let xp = c * *x - s * *y;
        let yq = s * *x + c * *y;
        *x = xp;
        *y = yq;
    }
}

/// The eigen half of the Gram economy path: the spectrum of the smaller
/// Gram side and its eigenvectors, from which the exact PCA fit recovers
/// as many component rows as its target keeps.
pub(crate) struct GramEigen {
    /// `true` when the Gram matrix is `A·Aᵀ` (`rows ≤ cols`), whose
    /// eigenvectors are left singular vectors; `false` for `Aᵀ·A`, whose
    /// eigenvectors are right singular vectors.
    rows_side: bool,
    /// `σ_i = √max(λ_i, 0)`, descending, `min(rows, cols)` of them.
    pub(crate) singular_values: Vec<f64>,
    /// Eigenvectors as rows, in the order of `singular_values`.
    vectors: Matrix,
}

impl GramEigen {
    /// Eigendecomposes the smaller Gram side of `a`. The symmetry-aware
    /// tiled kernel halves the Gram flops and is bit-identical to the
    /// plain product.
    pub(crate) fn new(a: &Matrix) -> Result<GramEigen, SvdError> {
        validate(a)?;
        let rows_side = a.rows() <= a.cols();
        let g = if rows_side {
            crate::kernels::gram_rows(a, crate::kernels::TILE)
        } else {
            crate::kernels::gram_rows(&a.transpose(), crate::kernels::TILE)
        };
        let (eigvals, vectors) = eigen_rows(&g);
        Ok(GramEigen {
            rows_side,
            singular_values: eigvals.iter().map(|&l| l.max(0.0).sqrt()).collect(),
            vectors,
        })
    }

    /// The first `keep` rows of `Vᵀ`. On the rows side row `i` is
    /// `Aᵀ·u_i / σ_i` (zero where `σ_i ≤ EPS`), accumulated over the rows
    /// of `A` in order so every entry sums its terms the same way
    /// whatever `keep` is; on the columns side it is eigenvector `i`.
    pub(crate) fn vt_rows(&self, a: &Matrix, keep: usize) -> Matrix {
        let d = a.cols();
        let mut vt = Matrix::zeros(keep, d);
        for slot in 0..keep {
            let vector = self.vectors.row(slot);
            let out = vt.row_mut(slot);
            if !self.rows_side {
                out.copy_from_slice(vector);
                continue;
            }
            let sigma = self.singular_values[slot];
            if sigma > crate::EPS {
                for (a_row, &u) in a.rows_iter().zip(vector) {
                    for (acc, &x) in out.iter_mut().zip(a_row) {
                        *acc += x * u;
                    }
                }
                for acc in out.iter_mut() {
                    *acc /= sigma;
                }
            }
        }
        vt
    }
}

/// Eigendecomposition of a symmetric matrix by Householder
/// tridiagonalization and implicit-shift QL (EISPACK `tred2`/`tql2`).
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues sorted descending
/// by [`total_cmp_f64`] (stable on ties) and eigenvectors as the
/// corresponding *columns* of the returned matrix. Each eigenvector's sign
/// is fixed so that its largest-magnitude entry (the first one on ties) is
/// positive, which makes the output a function of the input alone.
///
/// Only the upper triangle of `m` is read. Non-finite input yields
/// non-finite output in bounded time: every QL iteration is capped.
///
/// # Panics
/// If `m` is not square.
pub fn symmetric_eigen(m: &Matrix) -> (Vec<f64>, Matrix) {
    let (eigvals, rows) = eigen_rows(m);
    (eigvals, rows.transpose())
}

/// [`symmetric_eigen`] with the eigenvectors as *rows*.
fn eigen_rows(m: &Matrix) -> (Vec<f64>, Matrix) {
    assert_eq!(m.rows(), m.cols(), "symmetric_eigen needs a square matrix");
    let n = m.rows();
    if n == 0 {
        return (Vec::new(), Matrix::zeros(0, 0));
    }
    // `w` holds Vᵀ of the EISPACK formulation: row j is column j of V, so
    // every inner loop of both phases runs along a contiguous row. For a
    // symmetric input the starting V = A is its own transpose.
    let mut w = m.as_slice().to_vec();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2(n, &mut w, &mut d, &mut e);
    tql2(n, &mut w, &mut d, &mut e);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| total_cmp_f64(&d[j], &d[i]));
    let eigvals = order.iter().map(|&j| d[j]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (slot, &j) in order.iter().enumerate() {
        let out = vectors.row_mut(slot);
        out.copy_from_slice(&w[j * n..(j + 1) * n]);
        let mut lead = 0;
        for (i, x) in out.iter().enumerate() {
            if x.abs() > out[lead].abs() {
                lead = i;
            }
        }
        if out[lead] < 0.0 {
            for x in out.iter_mut() {
                *x = -*x;
            }
        }
    }
    (eigvals, vectors)
}

/// QL iterations allowed per eigenvalue before [`tql2`] moves on, as in
/// LAPACK; convergence normally takes two or three.
const MAX_QL_ITERS: usize = 30;

/// Householder reduction of the symmetric matrix in `w` to tridiagonal
/// form: on return `d` holds the diagonal, `e[1..]` the subdiagonal, and
/// `w` the accumulated orthogonal transform (transposed).
fn tred2(n: usize, w: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            // Householder vector, scaled against under/overflow.
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let mut f = d[i - 1];
            let mut g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Similarity transform of the leading i×i block.
            for j in 0..i {
                f = d[j];
                w[i * n + j] = f;
                let row = &w[j * n..j * n + i];
                g = e[j] + row[j] * f;
                for k in j + 1..i {
                    g += row[k] * d[k];
                    e[k] += row[k] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                let row = &mut w[j * n..j * n + i];
                for k in j..i {
                    row[k] -= f * e[k] + g * d[k];
                }
                d[j] = row[i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the transformations.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = w.split_at_mut((i + 1) * n);
        let next = &mut tail[..=i];
        if h != 0.0 {
            for (dk, &x) in d.iter_mut().zip(next.iter()) {
                *dk = x / h;
            }
            for j in 0..=i {
                let row = &mut head[j * n..=j * n + i];
                let g = dot(next, row);
                for (x, &dk) in row.iter_mut().zip(d.iter()) {
                    *x -= g * dk;
                }
            }
        }
        next.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
        w[j * n + n - 1] = 0.0;
    }
    w[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` left by [`tred2`]: `d`
/// becomes the eigenvalues (unsorted) and the rows of `w` their
/// eigenvectors.
fn tql2(n: usize, w: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut f = 0.0;
    let mut tst1 = 0.0f64;
    for l in 0..n {
        // Find a negligible subdiagonal element; e[n - 1] is zero, so the
        // scan stops there at the latest even when NaN compares false.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m + 1 < n && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        if m > l {
            for _ in 0..MAX_QL_ITERS {
                // Implicit shift.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = hypot(p, 1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for x in &mut d[l + 2..] {
                    *x -= h;
                }
                f += h;
                // Implicit QL transformation.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    r = hypot(p, e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    let (head, tail) = w.split_at_mut((i + 1) * n);
                    for (x, y) in head[i * n..].iter_mut().zip(&mut tail[..n]) {
                        let yv = *y;
                        *y = s * *x + c * yv;
                        *x = c * *x - s * yv;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= f64::EPSILON * tst1 || e[l].is_nan() {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
}

/// `√(a² + b²)` without destructive underflow or overflow, from basic
/// IEEE operations only so the result is the same on every platform.
fn hypot(a: f64, b: f64) -> f64 {
    let (a, b) = (a.abs(), b.abs());
    if a > b {
        let r = b / a;
        a * (1.0 + r * r).sqrt()
    } else if b != 0.0 {
        let r = a / b;
        b * (1.0 + r * r).sqrt()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian())
    }

    fn assert_reconstructs(a: &Matrix, svd: &Svd, tol: f64) {
        let diff = svd.reconstruct().max_abs_diff(a);
        assert!(diff < tol, "reconstruction error {diff}");
    }

    fn assert_orthonormal_cols(m: &Matrix, tol: f64) {
        let gram = m.transpose().matmul(m);
        for i in 0..gram.rows() {
            for j in 0..gram.cols() {
                let expected = if i == j { 1.0 } else { 0.0 };
                let got = gram[(i, j)];
                // Columns paired with zero singular values may be zero.
                if i == j && got.abs() < tol {
                    continue;
                }
                assert!(
                    (got - expected).abs() < tol,
                    "gram[{i},{j}] = {got}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 2.0]]);
        let svd = Svd::jacobi(&a).unwrap();
        assert!((svd.singular_values[0] - 3.0).abs() < 1e-10);
        assert!((svd.singular_values[1] - 2.0).abs() < 1e-10);
        assert_reconstructs(&a, &svd, 1e-10);
    }

    #[test]
    fn jacobi_known_rank_one() {
        // Outer product: rank 1 with σ = |u||v|.
        let a = Matrix::from_rows(&[vec![2.0, 4.0], vec![1.0, 2.0]]);
        let svd = Svd::jacobi(&a).unwrap();
        assert!(svd.singular_values[1].abs() < 1e-10);
        assert_eq!(svd.rank(1e-9), 1);
        assert_reconstructs(&a, &svd, 1e-10);
    }

    #[test]
    fn jacobi_random_square() {
        let a = random_matrix(12, 12, 1);
        let svd = Svd::jacobi(&a).unwrap();
        assert_reconstructs(&a, &svd, 1e-8);
        assert_orthonormal_cols(&svd.u, 1e-8);
        assert_orthonormal_cols(&svd.vt.transpose(), 1e-8);
    }

    /// All of the Gram path's factor rows: `vt_rows` at full rank.
    fn gram_vt(a: &Matrix) -> (Vec<f64>, Matrix) {
        let eig = GramEigen::new(a).unwrap();
        let vt = eig.vt_rows(a, eig.singular_values.len());
        (eig.singular_values, vt)
    }

    #[test]
    fn gram_path_matches_jacobi_wide_and_tall() {
        // Same spectrum as the reference, and on a full-rank matrix the
        // recovered rows of Vᵀ are orthonormal and span the rows of A
        // (A·V·Vᵀ = A when rows ≤ cols, V·Vᵀ = I otherwise).
        for (rows, cols, seed) in [(6, 40, 2), (40, 6, 3), (10, 10, 7)] {
            let a = random_matrix(rows, cols, seed);
            let (sv, vt) = gram_vt(&a);
            let j = Svd::jacobi(&a).unwrap();
            assert_eq!(vt.shape(), (rows.min(cols), cols));
            for (x, y) in j.singular_values.iter().zip(&sv) {
                assert!((x - y).abs() < 1e-7, "jacobi {x} vs gram {y}");
            }
            assert_orthonormal_cols(&vt.transpose(), 1e-8);
            let projected = a.matmul(&vt.transpose()).matmul(&vt);
            let diff = projected.max_abs_diff(&a);
            assert!(diff < 1e-8, "{rows}x{cols}: projection error {diff}");
        }
    }

    #[test]
    fn singular_values_sorted_descending() {
        let a = random_matrix(9, 15, 8);
        let (gram, _) = gram_vt(&a);
        let jacobi = Svd::jacobi(&a).unwrap().singular_values;
        for sv in [gram, jacobi] {
            for w in sv.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn empty_matrix_rejected() {
        for a in [Matrix::zeros(0, 3), Matrix::zeros(3, 0)] {
            assert!(matches!(Svd::jacobi(&a), Err(SvdError::EmptyMatrix)));
            assert!(matches!(GramEigen::new(&a), Err(SvdError::EmptyMatrix)));
        }
    }

    #[test]
    fn non_finite_rejected() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = f64::NAN;
        assert!(matches!(Svd::jacobi(&a), Err(SvdError::NonFiniteInput)));
        assert!(matches!(GramEigen::new(&a), Err(SvdError::NonFiniteInput)));
    }

    #[test]
    fn zero_matrix_has_zero_singular_values() {
        let a = Matrix::zeros(3, 5);
        let svd = Svd::jacobi(&a).unwrap();
        assert!(svd.singular_values.iter().all(|&s| s.abs() < 1e-12));
        assert_eq!(svd.rank(1e-9), 0);
        assert_reconstructs(&a, &svd, 1e-12);
        // The Gram path leaves the rows of zero singular values zero.
        let (sv, vt) = gram_vt(&a);
        assert!(sv.iter().all(|&s| s == 0.0));
        assert!(vt.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn single_row_matrix() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let svd = Svd::jacobi(&a).unwrap();
        assert!((svd.singular_values[0] - 5.0).abs() < 1e-10);
        assert_reconstructs(&a, &svd, 1e-10);
        let (sv, vt) = gram_vt(&a);
        assert!((sv[0] - 5.0).abs() < 1e-10);
        assert!((vt[(0, 0)] - 0.6).abs() < 1e-12 && (vt[(0, 1)] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn symmetric_eigen_known_eigenvalues() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (vals, vecs) = symmetric_eigen(&m);
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        // Check A·v = λ·v for the first eigenvector.
        let v0: Vec<f64> = (0..2).map(|i| vecs[(i, 0)]).collect();
        let av = m.matvec(&v0);
        for i in 0..2 {
            assert!((av[i] - vals[0] * v0[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn symmetric_eigen_empty_and_scalar() {
        let (vals, vecs) = symmetric_eigen(&Matrix::zeros(0, 0));
        assert!(vals.is_empty());
        assert_eq!(vecs.shape(), (0, 0));
        let (vals, vecs) = symmetric_eigen(&Matrix::from_rows(&[vec![-4.5]]));
        assert_eq!(vals, vec![-4.5]);
        assert_eq!(vecs.as_slice(), &[1.0]);
    }

    #[test]
    fn symmetric_eigen_signs_are_canonical() {
        // Eigenvectors (1, 1)/√2 and (1, −1)/√2: both entries tie in
        // magnitude, so the first one is made positive.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (_, vecs) = symmetric_eigen(&m);
        assert!(vecs[(0, 0)] > 0.0 && vecs[(1, 0)] > 0.0);
        assert!(vecs[(0, 1)] > 0.0 && vecs[(1, 1)] < 0.0);
        // A negated input flips the order but not the sign rule.
        let (_, neg) = symmetric_eigen(&m.scale(-1.0));
        assert!(neg[(0, 0)] > 0.0 && neg[(1, 0)] < 0.0);
    }

    #[test]
    fn symmetric_eigen_reads_the_upper_triangle() {
        let a = random_matrix(9, 9, 11);
        let upper = Matrix::from_fn(9, 9, |i, j| a[(i.min(j), i.max(j))]);
        let garbage = Matrix::from_fn(9, 9, |i, j| if i > j { 1e9 } else { a[(i, j)] });
        let (vals, vecs) = symmetric_eigen(&upper);
        let (gvals, gvecs) = symmetric_eigen(&garbage);
        assert_eq!(vals, gvals);
        assert_eq!(vecs.as_slice(), gvecs.as_slice());
    }

    #[test]
    fn symmetric_eigen_non_finite_input_terminates() {
        // NaN compares false everywhere; the capped QL scan must neither
        // index past the end nor spin.
        for bad in [f64::NAN, f64::INFINITY] {
            for n in [1, 2, 5, 12] {
                let mut m = random_matrix(n, n, n as u64);
                m = m.add(&m.transpose());
                m[(n / 2, n - 1)] = bad;
                m[(n - 1, n / 2)] = bad;
                let (vals, vecs) = symmetric_eigen(&m);
                assert_eq!(vals.len(), n);
                assert_eq!(vecs.shape(), (n, n));
            }
        }
    }

    #[test]
    fn frobenius_preserved_by_singular_values() {
        // ||A||_F² = Σ σ_i².
        let a = random_matrix(7, 13, 9);
        let frob = a.frobenius_norm();
        let (gram, _) = gram_vt(&a);
        let jacobi = Svd::jacobi(&a).unwrap().singular_values;
        for sv in [gram, jacobi] {
            let sum_sq: f64 = sv.iter().map(|s| s * s).sum();
            assert!((sum_sq - frob * frob).abs() < 1e-8 * frob * frob);
        }
    }
}
