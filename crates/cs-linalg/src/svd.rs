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
//!   implicit-shift QL. The exact PCA fit (`PcaSolver::Auto`) runs the
//!   same route on the smaller Gram matrix (`A·Aᵀ` when `n ≤ d`, `Aᵀ·A`
//!   otherwise) and recovers only the component rows its target keeps.
//!   Much faster for the `n ≪ d` signature case.
//!
//! # One eigenvector route
//!
//! Every eigenvector, for [`symmetric_eigen`] and for every Gram fit,
//! comes out of one route that computes only the eigenvectors it keeps:
//!
//! 1. `tred2` reduces the matrix to tridiagonal form in place and keeps
//!    its Householder reflectors `P_k = I − u_k·u_kᵀ / h_k` instead of
//!    accumulating them into an orthogonal matrix;
//! 2. `tql2` runs QL on the tridiagonal's values alone and logs each
//!    plane rotation `(c, s)`, with `(l, m)` per sweep, instead of
//!    rotating rows of an eigenvector matrix;
//! 3. the eigenvalues are sorted, and the caller picks `keep` from them;
//! 4. the `keep` wanted columns `e_j` run backwards through the log as
//!    an `n × keep` panel, with entries below `1e-250` flushed to zero
//!    so the decaying tails never turn subnormal;
//! 5. they run forwards through the reflectors, `P_1` first, and get
//!    the canonical sign.
//!
//! That costs `O(n³)` for the reduction, `O(T)` for the values and
//! `O((T + n²)·keep)` for the vectors, `T` the number of rotations. A
//! column's arithmetic does not depend on `keep`, so a fit keeping `k`
//! components gets, bit for bit, the leading `k` rows of the full-rank
//! fit.
//!
//! **Log size.** QL runs at most `MAX_QL_ITERS = 30` sweeps per
//! eigenvalue, and a sweep for eigenvalue `l` rotates at most `n − 1 − l`
//! pairs, so the log holds at most `30·n(n − 1)/2` rotations of 16 bytes.
//! In practice it holds far fewer: about `0.72·n²` (2.5 MB) on a 472-side
//! Gram of 768-d signatures. A values-only QL pass counts the rotations
//! first, so the log is allocated at its exact length with no growth
//! slack. Non-finite input stays within the same bound.
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
/// Gram side, from which the exact PCA fit recovers as many component
/// rows as its target keeps.
pub(crate) struct GramEigen {
    /// `true` when the Gram matrix is `A·Aᵀ` (`rows ≤ cols`), whose
    /// eigenvectors are left singular vectors; `false` for `Aᵀ·A`, whose
    /// eigenvectors are right singular vectors.
    rows_side: bool,
    /// `σ_i = √max(λ_i, 0)`, descending, `min(rows, cols)` of them.
    pub(crate) singular_values: Vec<f64>,
    /// The solved Gram eigenproblem, holding no eigenvectors yet.
    eigen: Eigensystem,
}

impl GramEigen {
    /// Eigendecomposes the smaller Gram side of `a`.
    /// [`crate::kernels::gram_rows`] sweeps only the upper triangle with
    /// the register-tiled `a · bᵀ` kernel and is bit-identical to the
    /// plain product.
    pub(crate) fn new(a: &Matrix) -> Result<GramEigen, SvdError> {
        validate(a)?;
        let rows_side = a.rows() <= a.cols();
        let g = if rows_side {
            crate::kernels::gram_rows(a)
        } else {
            crate::kernels::gram_rows(&a.transpose())
        };
        let eigen = Eigensystem::new(g);
        Ok(GramEigen {
            rows_side,
            singular_values: eigen.values.iter().map(|&l| l.max(0.0).sqrt()).collect(),
            eigen,
        })
    }

    /// The first `keep` rows of `Vᵀ`. On the columns side row `i` is
    /// eigenvector `i`; on the rows side it is `u_iᵀ·A / σ_i` (zero where
    /// `σ_i ≤ EPS`), one [`Matrix::matmul`] whose every entry is the
    /// same `dot` over the rows of `A` whatever `keep` is.
    pub(crate) fn vt_rows(&self, a: &Matrix, keep: usize) -> Matrix {
        let top = self.eigen.vectors(keep).transpose();
        if !self.rows_side {
            return top;
        }
        let mut vt = top.matmul(a);
        for (slot, &sigma) in self.singular_values[..keep].iter().enumerate() {
            let row = vt.row_mut(slot);
            if sigma > crate::EPS {
                row.iter_mut().for_each(|x| *x /= sigma);
            } else {
                row.fill(0.0);
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
    let eigen = Eigensystem::new(m.clone());
    let vectors = eigen.vectors(eigen.n);
    (eigen.values, vectors)
}

/// A symmetric eigenproblem solved for its spectrum, with what it takes
/// to recover any number of its leading eigenvectors: the Householder
/// reflectors of the tridiagonal reduction and the log of the QL
/// rotations. An eigenvector is `Q·G_1⋯G_T·e_j`, with `Q = P_{n−1}⋯P_1`
/// the reflectors and `G_1, …, G_T` the rotations in the order QL applied
/// them, so [`Self::vectors`] runs the log backwards and then the
/// reflectors forwards, on the wanted columns only.
struct Eigensystem {
    n: usize,
    /// The `n × n` buffer [`tred2`] reduced in place: row `k ≥ 1` holds
    /// the Householder vector `u_k` of `P_k = I − u_k·u_kᵀ / h_k` in its
    /// first `k` entries.
    w: Vec<f64>,
    /// `h_k` of each reflector, zero where step `k` reflected nothing.
    h: Vec<f64>,
    log: QlLog,
    /// QL index of each eigenvalue, in the order of `values`.
    order: Vec<usize>,
    /// Eigenvalues, descending.
    values: Vec<f64>,
}

/// The plane rotations of one [`tql2`] run, in the order it applied them.
#[derive(Default)]
struct QlLog {
    /// `(l, m)` of each implicit QL sweep; sweep `(l, m)` rotated the
    /// coordinate pairs `(i, i + 1)` for `i` from `m − 1` down to `l`.
    sweeps: Vec<(usize, usize)>,
    /// `(c, s)` of every rotation, sweep after sweep.
    rotations: Vec<(f64, f64)>,
}

impl QlLog {
    /// Runs [`tql2`] on `(d, e)` and logs its rotations. A values-only
    /// run on copies counts them first, so both logs are allocated at
    /// their exact length: the log holds at most
    /// `MAX_QL_ITERS·n(n − 1)/2` rotations of 16 bytes.
    fn record(d: &mut [f64], e: &mut [f64]) -> QlLog {
        let (mut sweeps, mut rotations) = (0, 0);
        tql2(
            &mut d.to_vec(),
            &mut e.to_vec(),
            |_, _| sweeps += 1,
            |_, _| rotations += 1,
        );
        let mut log = QlLog {
            sweeps: Vec::with_capacity(sweeps),
            rotations: Vec::with_capacity(rotations),
        };
        tql2(
            d,
            e,
            |l, m| log.sweeps.push((l, m)),
            |c, s| log.rotations.push((c, s)),
        );
        log
    }
}

impl Eigensystem {
    /// Reduces `m` to tridiagonal form in its own buffer and solves the
    /// tridiagonal eigenproblem for its values, logging the rotations.
    /// Only the upper triangle of `m` is read.
    ///
    /// # Panics
    /// If `m` is not square.
    fn new(m: Matrix) -> Eigensystem {
        assert_eq!(m.rows(), m.cols(), "symmetric_eigen needs a square matrix");
        let n = m.rows();
        let mut w = m.into_vec();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        let mut h = vec![0.0; n];
        let log = if n == 0 {
            QlLog::default()
        } else {
            tred2(n, &mut w, &mut d, &mut e);
            // `tred2` leaves each reflector's `h` where the diagonal goes.
            std::mem::swap(&mut d, &mut h);
            for (i, di) in d.iter_mut().enumerate() {
                *di = w[i * n + i];
            }
            QlLog::record(&mut d, &mut e)
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| total_cmp_f64(&d[j], &d[i]));
        let values = order.iter().map(|&j| d[j]).collect();
        Eigensystem {
            n,
            w,
            h,
            log,
            order,
            values,
        }
    }

    /// The eigenvectors of the leading `keep` eigenvalues, as the columns
    /// of an `n × keep` matrix. Each column runs the same arithmetic
    /// whatever `keep` is, so it is bit-equal to that column of the full
    /// set.
    fn vectors(&self, keep: usize) -> Matrix {
        let n = self.n;
        let mut panel = Matrix::zeros(n, keep);
        if keep == 0 {
            return panel;
        }
        for (slot, &j) in self.order[..keep].iter().enumerate() {
            panel[(j, slot)] = 1.0;
        }
        let p = panel.as_mut_slice();
        // G_1⋯G_T applied right to left: the last sweep first, and
        // within a sweep its rotations from row l up.
        let mut end = self.log.rotations.len();
        for &(l, m) in self.log.sweeps.iter().rev() {
            let start = end - (m - l);
            for (i, &(c, s)) in (l..m).zip(self.log.rotations[start..end].iter().rev()) {
                let (head, tail) = p.split_at_mut((i + 1) * keep);
                // Row i is final for this sweep; row i + 1 is flushed
                // as the next rotation's row i.
                for (x, y) in head[i * keep..].iter_mut().zip(&mut tail[..keep]) {
                    let (xv, yv) = (*x, *y);
                    *x = flush(c * xv + s * yv);
                    *y = c * yv - s * xv;
                }
            }
            end = start;
        }
        // Q = P_{n−1}⋯P_1 applied right to left: P_1 first. Each column's
        // `g` is `dot(u_k, column)`, accumulated a row at a time.
        let mut g = vec![0.0; keep];
        for k in 1..n {
            let hk = self.h[k];
            if hk == 0.0 {
                continue;
            }
            let u = &self.w[k * n..k * n + k];
            g.fill(-0.0);
            for (&uk, row) in u.iter().zip(p.chunks_exact(keep)) {
                for (gc, &x) in g.iter_mut().zip(row) {
                    *gc += uk * x;
                }
            }
            for (&uk, row) in u.iter().zip(p.chunks_exact_mut(keep)) {
                let scale = uk / hk;
                for (x, &gc) in row.iter_mut().zip(&g) {
                    *x -= gc * scale;
                }
            }
        }
        // Canonical signs: each column's first largest-magnitude entry is
        // positive.
        for c in 0..keep {
            let mut lead = c;
            for at in (c..n * keep).step_by(keep) {
                if p[at].abs() > p[lead].abs() {
                    lead = at;
                }
            }
            if p[lead] < 0.0 {
                for at in (c..n * keep).step_by(keep) {
                    p[at] = -p[at];
                }
            }
        }
        panel
    }
}

/// Magnitude below which a back-propagated entry is flushed to zero.
/// Each column starts as a unit vector, and its tails decay
/// geometrically through the rotations. Left alone they sink into the
/// subnormal range, whose arithmetic is about 100× slower on x86-64: on
/// a 472-side Gram that made recovering the top 16 eigenvectors 2.5×
/// slower. The transforms are orthogonal and the columns have unit norm,
/// so flushing moves a column by less than `√n·1e-250` in norm.
const FLUSH_BELOW: f64 = 1e-250;

/// `x`, or `+0.0` where `|x| < FLUSH_BELOW`. NaN and infinities pass
/// through. A mask rather than a branch, so the rotation loop still
/// vectorises.
#[inline]
fn flush(x: f64) -> f64 {
    let keep = u64::from(x.abs() < FLUSH_BELOW).wrapping_sub(1);
    f64::from_bits(x.to_bits() & keep)
}

/// QL iterations allowed per eigenvalue before [`tql2`] moves on, as in
/// LAPACK; convergence normally takes two or three.
const MAX_QL_ITERS: usize = 30;

/// Householder reduction of the symmetric matrix in `w` to tridiagonal
/// form: on return the diagonal is `w[i·n + i]`, `e[1..]` holds the
/// subdiagonal, row `k ≥ 1` of `w` holds the reflector `u_k` in its first
/// `k` entries, and `d[k]` its `h_k` (zero where step `k` reflected
/// nothing). `d[0]` is left unspecified.
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
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)`, diagonal `d` and
/// subdiagonal `e[1..]`: `d` becomes the eigenvalues (unsorted). Calls
/// `sweep(l, m)` before each implicit QL sweep and `rotate(c, s)` for
/// each of that sweep's `m − l` plane rotations, which act on the
/// coordinate pairs `(i, i + 1)` for `i` from `m − 1` down to `l`: an
/// eigenvector accumulation would replace columns `x = v_i`, `y = v_{i+1}`
/// with `c·x − s·y` and `s·x + c·y`.
fn tql2(
    d: &mut [f64],
    e: &mut [f64],
    mut sweep: impl FnMut(usize, usize),
    mut rotate: impl FnMut(f64, f64),
) {
    let n = d.len();
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
                sweep(l, m);
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
                    rotate(c, s);
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
        // Numerical rank: singular values above 1e-9 · σ_max.
        let max = svd.singular_values[0];
        let rank = svd
            .singular_values
            .iter()
            .filter(|&&s| s > 1e-9 * max && s > 0.0)
            .count();
        assert_eq!(rank, 1);
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
        // Numerical rank: no singular value is positive.
        assert!(svd.singular_values.iter().all(|&s| s <= 0.0));
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
    fn rotation_log_is_bounded_and_sized_exactly() {
        // The log holds at most MAX_QL_ITERS·n(n − 1)/2 rotations, with no
        // growth slack, on healthy input and on NaN or inf, which must
        // still terminate within the bound.
        let n = 64;
        let bound = MAX_QL_ITERS * n * (n - 1) / 2;
        for bad in [None, Some(f64::NAN), Some(f64::INFINITY)] {
            let mut m = random_matrix(n, n, 64);
            m = m.add(&m.transpose());
            if let Some(bad) = bad {
                m[(n / 2, n - 1)] = bad;
                m[(n - 1, n / 2)] = bad;
            }
            let eigen = Eigensystem::new(m);
            let log = &eigen.log;
            assert!(
                log.rotations.len() <= bound,
                "{bad:?}: {}",
                log.rotations.len()
            );
            assert_eq!(log.rotations.capacity(), log.rotations.len(), "{bad:?}");
            assert_eq!(log.sweeps.capacity(), log.sweeps.len(), "{bad:?}");
            let logged: usize = log.sweeps.iter().map(|&(l, m)| m - l).sum();
            assert_eq!(logged, log.rotations.len(), "{bad:?}");
            if bad.is_none() {
                assert!(logged >= n - 1, "a dense matrix needs rotations");
            }
            assert_eq!(eigen.vectors(n).shape(), (n, n));
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
