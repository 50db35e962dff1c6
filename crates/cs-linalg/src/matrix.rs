//! A row-major dense `f64` matrix.
//!
//! This is the one numeric container shared by the whole workspace:
//! signature sets are `n × 768` matrices (one row per table/attribute
//! signature), PCA component sets are `k × 768`, autoencoder weights are
//! `in × out`. The API is deliberately small and panics on shape errors —
//! shape mismatches in this workspace are programming bugs, not recoverable
//! conditions.

use std::fmt;

/// Row-major dense matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}×{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    /// If rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows: {} vs {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Matrix product `self · other`, through the register-tiled
    /// micro-kernel of [`crate::kernels`]: cell `(i, j)` is
    /// [`dot`]`(self.row(i), &other.col(j))`, bit for bit, on every shape.
    /// It serves PCA decode, the exact fit's component recovery and the
    /// autoencoder's forward pass and weight gradients.
    ///
    /// # Panics
    /// If `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} · {:?}",
            self.shape(),
            other.shape()
        );
        crate::kernels::matmul(self, other)
    }

    /// `self · otherᵀ` without materializing the transpose, through the
    /// register-tiled micro-kernel of [`crate::kernels`]: cell `(i, j)` is
    /// [`dot`]`(self.row(i), other.row(j))`, bit for bit, on every shape.
    ///
    /// # Panics
    /// If `self.cols != other.cols`.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        crate::kernels::matmul_transposed(self, other)
    }

    /// Matrix-vector product `self · v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec shape mismatch");
        self.rows_iter().map(|row| dot(row, v)).collect()
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise sum with another matrix.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise combination of two equally shaped matrices.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Subtracts a row vector from every row (e.g. projecting signatures
    /// onto their mean, Algorithm 1 line 4).
    pub fn sub_row_vector(&self, v: &[f64]) -> Matrix {
        assert_eq!(self.cols, v.len(), "row-vector length mismatch");
        let mut out = self.clone();
        for i in 0..out.rows {
            for (x, &m) in out.row_mut(i).iter_mut().zip(v.iter()) {
                *x -= m;
            }
        }
        out
    }

    /// Adds a row vector to every row (reverse of [`Matrix::sub_row_vector`]).
    pub fn add_row_vector(&self, v: &[f64]) -> Matrix {
        assert_eq!(self.cols, v.len(), "row-vector length mismatch");
        let mut out = self.clone();
        for i in 0..out.rows {
            for (x, &m) in out.row_mut(i).iter_mut().zip(v.iter()) {
                *x += m;
            }
        }
        out
    }

    /// Returns the sub-matrix consisting of the given rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            assert!(i < self.rows, "row {i} out of bounds ({})", self.rows);
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Stacks two matrices vertically.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        if self.rows == 0 {
            return other.clone();
        }
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        dot(&self.data, &self.data).sqrt()
    }

    /// Largest absolute element difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// `(row, col)` of the first NaN/infinite element in row-major scan
    /// order, if any — lets callers report *which* signature is poisoned.
    pub fn first_non_finite(&self) -> Option<(usize, usize)> {
        self.data
            .iter()
            .position(|x| !x.is_finite())
            .map(|i| (i / self.cols, i % self.cols))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}×{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            let row = self.row(i);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:9.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{ellipsis}]", cells.join(", "))?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices: one chain over ascending
/// index, seeded at `-0.0`, with no fused multiply-add.
///
/// This is the workspace's one summation contract for products: every
/// cell of [`Matrix::matmul`], [`Matrix::matmul_transposed`],
/// [`Matrix::matvec`] and [`crate::kernels::gram_rows`] reproduces it bit
/// for bit. The `-0.0` seed makes the empty dot `-0.0` and keeps
/// `-0.0 · x` terms signed.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .fold(-0.0, |acc, (&x, &y)| acc + x * y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.matmul(&i), i);
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_bad_len_panics() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample(); // 2×3
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]); // 3×2
        let c = a.matmul(&b);
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]])
        );
    }

    #[test]
    fn matmul_transposed_matches_explicit() {
        let a = sample();
        let b = Matrix::from_rows(&[vec![1.0, 0.5, -1.0], vec![2.0, -2.0, 0.0]]);
        assert_eq!(a.matmul_transposed(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn dot_is_seeded_at_negative_zero() {
        let neg_zero = (-0.0f64).to_bits();
        assert_eq!(dot(&[], &[]).to_bits(), neg_zero);
        assert_eq!(dot(&[-0.0], &[1.0]).to_bits(), neg_zero);
        assert_eq!(dot(&[-0.0, 0.0], &[1.0, -1.0]).to_bits(), neg_zero);
        assert_eq!(dot(&[0.0], &[1.0]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        sample().matmul(&sample());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample();
        let v = vec![1.0, -1.0, 2.0];
        assert_eq!(a.matvec(&v), vec![5.0, 11.0]);
    }

    #[test]
    fn zero_width_matrix_keeps_its_rows() {
        let m = Matrix::zeros(3, 0);
        assert_eq!(m.rows_iter().count(), 3);
        let v = m.matvec(&[]);
        assert_eq!(v.len(), 3);
        // Each entry is the empty `dot`.
        assert!(v.iter().all(|x| x.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn row_vector_ops_roundtrip() {
        let m = sample();
        let v = vec![1.0, 1.0, 1.0];
        let shifted = m.sub_row_vector(&v).add_row_vector(&v);
        assert!(shifted.max_abs_diff(&m) < 1e-15);
    }

    #[test]
    fn select_rows_and_vstack() {
        let m = sample();
        let top = m.select_rows(&[0]);
        let bottom = m.select_rows(&[1]);
        assert_eq!(top.vstack(&bottom), m);
        // Reordering works too.
        let swapped = m.select_rows(&[1, 0]);
        assert_eq!(swapped.row(0), m.row(1));
    }

    #[test]
    fn vstack_with_empty() {
        let m = sample();
        let empty = Matrix::zeros(0, 0);
        assert_eq!(empty.vstack(&m), m);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn map_and_zip() {
        let m = sample();
        assert_eq!(m.map(|x| x * 2.0), m.scale(2.0));
        assert_eq!(m.add(&m), m.scale(2.0));
        assert!(m.sub(&m).frobenius_norm() < 1e-15);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = sample();
        assert!(!m.has_non_finite());
        m[(0, 0)] = f64::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    fn first_non_finite_locates_offender() {
        let mut m = sample();
        assert_eq!(m.first_non_finite(), None);
        m[(1, 2)] = f64::INFINITY;
        assert_eq!(m.first_non_finite(), Some((1, 2)));
        m[(0, 1)] = f64::NAN;
        assert_eq!(m.first_non_finite(), Some((0, 1)));
        assert_eq!(Matrix::zeros(0, 4).first_non_finite(), None);
    }

    #[test]
    fn col_extraction() {
        let m = sample();
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_fn_builds_expected() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }
}
