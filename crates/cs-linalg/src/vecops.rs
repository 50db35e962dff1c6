//! Vector-level helpers shared by the embedder, ODAs, and matchers.

use crate::matrix::dot;
use crate::Matrix;

/// Euclidean (L2) norm.
#[inline]
pub fn norm(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// Normalizes `v` in place to unit L2 norm; leaves zero vectors untouched.
pub fn normalize(v: &mut [f64]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

/// Cosine similarity in `[-1, 1]`; zero if either vector is all-zero.
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    cosine_with_norms(a, norm(a), b, norm(b))
}

/// [`cosine`] given both vectors' norms (`na = norm(a)`, `nb = norm(b)`),
/// for callers that score each vector against many: one dot product per
/// pair instead of three, with the same guard and clamp, so the same bits.
#[inline]
pub fn cosine_with_norms(a: &[f64], na: f64, b: &[f64], nb: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine length mismatch");
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Squared Euclidean distance.
#[inline]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// [`sq_euclidean`] from `q` to each listed row of `m`, as
/// `(row, distance)` in list order; every distance is the one
/// `sq_euclidean(q, m.row(row))` returns, bit for bit.
///
/// Rows go through four at a time as four independent add chains. Each
/// chain sums its own row in `sq_euclidean`'s order and starts at
/// `-0.0`, as `Iterator::sum` does, so no sum is reassociated: the four
/// chains only hide each other's add latency. The last `rows.len() % 4`
/// rows take `sq_euclidean` itself.
///
/// # Panics
/// If `q.len()` differs from `m.cols()`, or a listed row is out of range.
pub fn sq_euclidean_rows(q: &[f64], m: &Matrix, rows: &[usize]) -> Vec<(usize, f64)> {
    assert_eq!(q.len(), m.cols(), "sq_euclidean_rows length mismatch");
    let mut out = Vec::with_capacity(rows.len());
    let mut quads = rows.chunks_exact(4);
    for quad in &mut quads {
        let [r0, r1, r2, r3] = [quad[0], quad[1], quad[2], quad[3]].map(|i| m.row(i));
        let (mut s0, mut s1, mut s2, mut s3) = (-0.0, -0.0, -0.0, -0.0);
        for ((((&x, &a), &b), &c), &d) in q.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            let (d0, d1, d2, d3) = (x - a, x - b, x - c, x - d);
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
        }
        out.extend([(quad[0], s0), (quad[1], s1), (quad[2], s2), (quad[3], s3)]);
    }
    out.extend(
        quads
            .remainder()
            .iter()
            .map(|&i| (i, sq_euclidean(q, m.row(i)))),
    );
    out
}

/// Euclidean distance.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Mean squared error between two equal-length vectors — the reconstruction
/// score the paper uses (Algorithm 1 line 14, Definition 4).
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    sq_euclidean(a, b) / a.len() as f64
}

/// Total-order comparator for `f64` suitable for `sort_by`/`max_by`/
/// `min_by`/`binary_search_by` closures where `partial_cmp(..).unwrap()`
/// would panic on NaN (the `no-float-sort-unwrap` lint rule).
///
/// The order is ascending with **every NaN after every real number** and
/// all NaNs equal to each other, so an ascending sort pushes NaN scores to
/// the back of a ranking (and `min_by` never selects one) instead of
/// aborting the process. Real numbers compare via [`f64::total_cmp`], which
/// also gives deterministic ties (`-0.0 < +0.0`), so rankings are
/// bit-reproducible run to run.
#[inline]
pub fn total_cmp_f64(a: &f64, b: &f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.total_cmp(b),
    }
}

/// `a + s·b` in place.
pub fn axpy(a: &mut [f64], s: f64, b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b.iter()) {
        *x += s * y;
    }
}

/// Index and value of the maximum element; `None` on empty input or if all
/// elements are NaN.
pub fn argmax(v: &[f64]) -> Option<(usize, f64)> {
    v.iter()
        .enumerate()
        .filter(|(_, x)| !x.is_nan())
        .fold(None, |best, (i, &x)| match best {
            Some((_, bx)) if bx >= x => best,
            _ => Some((i, x)),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_and_normalize() {
        let mut v = vec![3.0, 4.0];
        assert!((norm(&v) - 5.0).abs() < 1e-12);
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0, 0.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn cosine_basic_cases() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = [0.3, -0.7, 0.2];
        let b = [1.1, 0.4, -0.9];
        let scaled: Vec<f64> = a.iter().map(|x| x * 42.0).collect();
        assert!((cosine(&a, &b) - cosine(&scaled, &b)).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((sq_euclidean(&[1.0], &[4.0]) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn sq_euclidean_rows_is_bit_identical_to_sq_euclidean() {
        // Every dim the ANN path meets (0 and odd widths included), row
        // counts on and off a multiple of four, and entries that make the
        // sums NaN, infinite or signed zero.
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0];
        let mut rng = crate::Xoshiro256::seed_from(41);
        for dim in [0, 1, 3, 5, 16, 64, 768] {
            let mut m = Matrix::from_fn(11, dim, |_, _| rng.next_gaussian() * 1e3);
            let mut q: Vec<f64> = (0..dim).map(|_| rng.next_gaussian()).collect();
            if dim > 0 {
                for (r, &x) in specials.iter().enumerate() {
                    m.row_mut(2 * r)[r % dim] = x;
                }
                m.row_mut(1).fill(-0.0);
                q[dim - 1] = -0.0;
            }
            let mut qz = q.clone();
            qz.fill(-0.0);
            for query in [&q, &qz] {
                for count in [0, 1, 3, 4, 5, 7, 8, 11] {
                    // Repeated and unordered rows, as a caller may list them.
                    let rows: Vec<usize> = (0..count).map(|j| (j * 7 + 3) % 11).collect();
                    let got: Vec<(usize, u64)> = sq_euclidean_rows(query, &m, &rows)
                        .into_iter()
                        .map(|(i, d)| (i, d.to_bits()))
                        .collect();
                    let want: Vec<(usize, u64)> = rows
                        .iter()
                        .map(|&i| (i, sq_euclidean(query, m.row(i)).to_bits()))
                        .collect();
                    assert_eq!(got, want, "dim {dim} rows {count}");
                }
            }
        }
        // The empty sum is `-0.0` on both sides.
        let empty = sq_euclidean_rows(&[], &Matrix::zeros(4, 0), &[0, 1, 2, 3]);
        assert!(empty
            .iter()
            .all(|&(_, d)| d.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn mse_known_value() {
        assert!((mse(&[1.0, 2.0], &[3.0, 4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(mse(&[], &[]), 0.0);
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = vec![1.0, 1.0];
        axpy(&mut a, 2.0, &[3.0, -1.0]);
        assert_eq!(a, vec![7.0, -1.0]);
    }

    #[test]
    fn argmax_argmin() {
        let v = [3.0, -1.0, 7.0, 2.0];
        assert_eq!(argmax(&v), Some((2, 7.0)));
        // The minimum is the maximum of the negation.
        assert_eq!(argmax(&v.map(|x| -x)), Some((1, 1.0)));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_skips_nan() {
        let v = [1.0, f64::NAN, 0.5];
        assert_eq!(argmax(&v), Some((0, 1.0)));
    }

    #[test]
    fn total_cmp_orders_nan_last() {
        let mut v = [2.0, f64::NAN, -1.0, f64::NAN, 0.5];
        v.sort_by(total_cmp_f64);
        assert_eq!(&v[..3], &[-1.0, 0.5, 2.0]);
        assert!(v[3].is_nan() && v[4].is_nan());
    }

    #[test]
    fn total_cmp_deterministic_ties() {
        use std::cmp::Ordering;
        assert_eq!(total_cmp_f64(&-0.0, &0.0), Ordering::Less);
        assert_eq!(total_cmp_f64(&f64::NAN, &f64::NAN), Ordering::Equal);
        assert_eq!(total_cmp_f64(&f64::INFINITY, &f64::NAN), Ordering::Less);
        assert_eq!(
            total_cmp_f64(&f64::NAN, &f64::NEG_INFINITY),
            Ordering::Greater
        );
        assert_eq!(total_cmp_f64(&1.0, &2.0), Ordering::Less);
    }

    #[test]
    fn min_by_never_selects_nan() {
        let v = [f64::NAN, 3.0, 1.0];
        let m = v.iter().copied().min_by(total_cmp_f64);
        assert_eq!(m, Some(1.0));
    }
}
