//! Cache-tiled (blocked) matrix kernels.
//!
//! The per-schema SVD/PCA hot path multiplies short-and-wide signature
//! matrices (`n × 768`); at those widths the naive loops stream every
//! operand from memory once per output tile. These kernels block the
//! index space into [`TILE`]-sized squares so each operand tile is reused
//! from cache while it is hot.
//!
//! # Bit-identity contract (DESIGN.md §8)
//!
//! Every kernel here produces **bit-identical** output to its naive
//! counterpart in [`crate::matrix`], on every shape — aligned or ragged:
//!
//! - [`matmul_blocked`] keeps the naive i-k-j accumulation order: for a
//!   fixed output element, contributions are added in ascending `k`
//!   exactly as the un-blocked loop does (the `k`-tile loop is outer to
//!   the `j`-tile loop and tiles are visited in ascending order), and the
//!   `a == 0.0` skip is preserved so a `-0.0` output is never flipped to
//!   `+0.0` by adding `0.0 * b`.
//! - [`matmul_transposed_blocked`] computes each output element as one
//!   full-length [`dot`] — the reduction is never split across tiles, so
//!   the element is the same floating-point expression as the naive path.
//! - [`gram_rows`] computes the upper triangle with the same full-length
//!   dots and mirrors it; `dot(x, y)` and `dot(y, x)` multiply the same
//!   pairs in the same order, so the mirror is exact, not approximate.
//!
//! The determinism property suite (`kernels::tests` and
//! `cs-core/tests/determinism.rs`) pins all three equivalences with exact
//! `==` comparisons.

use crate::matrix::dot;
use crate::Matrix;

/// Tile edge length, in elements. A 64×64 `f64` tile is 32 KiB — one
/// operand tile fits in a typical L1 data cache, and the three tiles a
/// blocked product touches at once fit comfortably in L2.
pub const TILE: usize = 64;

/// Dimension threshold above which [`Matrix::matmul`] and
/// [`Matrix::matmul_transposed`] dispatch to the blocked kernels. Below
/// it every operand already fits in L1 and the tile loop overhead is pure
/// loss.
pub const BLOCK_DISPATCH_MIN: usize = 128;

/// Blocked matrix product `a · b`, bit-identical to [`Matrix::matmul`].
///
/// # Panics
/// If `a.cols() != b.rows()` or `tile == 0`.
pub fn matmul_blocked(a: &Matrix, b: &Matrix, tile: usize) -> Matrix {
    assert!(tile > 0, "tile must be positive");
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {:?} · {:?}",
        a.shape(),
        b.shape()
    );
    let (n, kd) = a.shape();
    let p = b.cols();
    let mut out = Matrix::zeros(n, p);
    let out_data = out.as_mut_slice();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i0 in (0..n).step_by(tile) {
        let i1 = (i0 + tile).min(n);
        // Ascending k-tiles, k ascending within each tile: for any fixed
        // output element the contributions are accumulated in exactly
        // the naive order.
        for k0 in (0..kd).step_by(tile) {
            let k1 = (k0 + tile).min(kd);
            for j0 in (0..p).step_by(tile) {
                let j1 = (j0 + tile).min(p);
                for i in i0..i1 {
                    let a_row = &a_data[i * kd..(i + 1) * kd];
                    let out_row = &mut out_data[i * p + j0..i * p + j1];
                    for k in k0..k1 {
                        let av = a_row[k];
                        if av == 0.0 {
                            continue; // same skip as the naive kernel
                        }
                        let b_row = &b_data[k * p + j0..k * p + j1];
                        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                            *o += av * bv;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Blocked `a · bᵀ`, bit-identical to [`Matrix::matmul_transposed`].
/// Tiling only reorders *which elements* are computed when; each element
/// is still one full-length dot product.
///
/// # Panics
/// If `a.cols() != b.cols()` or `tile == 0`.
pub fn matmul_transposed_blocked(a: &Matrix, b: &Matrix, tile: usize) -> Matrix {
    assert!(tile > 0, "tile must be positive");
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transposed shape mismatch: {:?} · {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    let n = a.rows();
    let m = b.rows();
    let mut out = Matrix::zeros(n, m);
    let out_data = out.as_mut_slice();
    for i0 in (0..n).step_by(tile) {
        let i1 = (i0 + tile).min(n);
        for j0 in (0..m).step_by(tile) {
            let j1 = (j0 + tile).min(m);
            for i in i0..i1 {
                let a_row = a.row(i);
                for j in j0..j1 {
                    out_data[i * m + j] = dot(a_row, b.row(j));
                }
            }
        }
    }
    out
}

/// The Gram matrix of the rows of `a` — `a · aᵀ` — computed as the upper
/// triangle plus an exact mirror, bit-identical to
/// `a.matmul_transposed(a)` at roughly half the flops.
///
/// # Panics
/// If `tile == 0`.
pub fn gram_rows(a: &Matrix, tile: usize) -> Matrix {
    assert!(tile > 0, "tile must be positive");
    let n = a.rows();
    let mut out = Matrix::zeros(n, n);
    let out_data = out.as_mut_slice();
    for i0 in (0..n).step_by(tile) {
        let i1 = (i0 + tile).min(n);
        for j0 in (i0..n).step_by(tile) {
            let j1 = (j0 + tile).min(n);
            for i in i0..i1 {
                let a_row = a.row(i);
                for j in j0.max(i)..j1 {
                    out_data[i * n + j] = dot(a_row, a.row(j));
                }
            }
        }
    }
    // Mirror the strict upper triangle. dot(x, y) multiplies the same
    // pairs in the same order as dot(y, x), so this is exact.
    for i in 1..n {
        for j in 0..i {
            out_data[i * n + j] = out_data[j * n + i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run;
    use crate::Xoshiro256;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        // The un-dispatched reference loops (mirrors Matrix::matmul
        // before blocking existed).
        let n = a.rows();
        let p = b.cols();
        let mut out = Matrix::zeros(n, p);
        for i in 0..n {
            let a_row = a.row(i);
            let out_row = &mut out.as_mut_slice()[i * p..(i + 1) * p];
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b.as_slice()[k * p..(k + 1) * p];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    fn naive_matmul_transposed(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                out[(i, j)] = dot(a.row(i), b.row(j));
            }
        }
        out
    }

    fn assert_bits_equal(x: &Matrix, y: &Matrix, what: &str) {
        assert_eq!(x.shape(), y.shape(), "{what}: shape");
        for (a, b) in x.as_slice().iter().zip(y.as_slice().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
        }
    }

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256::seed_from(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian())
    }

    #[test]
    fn blocked_matmul_bit_identical_on_aligned_tiles() {
        // Shapes that are exact multiples of the tile size.
        let a = random(8, 12, 1);
        let b = random(12, 4, 2);
        let got = matmul_blocked(&a, &b, 4);
        assert_bits_equal(&got, &naive_matmul(&a, &b), "aligned matmul");
    }

    #[test]
    fn blocked_matmul_bit_identical_on_ragged_tiles() {
        run("blocked_matmul_ragged", 48, |g| {
            let n = g.usize_in(1, 30);
            let kd = g.usize_in(1, 30);
            let p = g.usize_in(1, 30);
            let mut rng = Xoshiro256::seed_from(g.seed());
            let mut a = Matrix::from_fn(n, kd, |_, _| rng.next_gaussian());
            let b = Matrix::from_fn(kd, p, |_, _| rng.next_gaussian());
            // Sprinkle exact zeros so the skip path is exercised.
            if n * kd > 2 {
                let z = g.usize_in(0, n * kd - 1);
                a.as_mut_slice()[z] = 0.0;
            }
            let tile = g.usize_in(1, 9);
            let got = matmul_blocked(&a, &b, tile);
            assert_bits_equal(&got, &naive_matmul(&a, &b), "ragged matmul");
        });
    }

    #[test]
    fn blocked_matmul_transposed_bit_identical() {
        run("blocked_matmul_transposed", 48, |g| {
            let n = g.usize_in(1, 25);
            let m = g.usize_in(1, 25);
            let d = g.usize_in(1, 40);
            let mut rng = Xoshiro256::seed_from(g.seed() ^ 0xABCD);
            let a = Matrix::from_fn(n, d, |_, _| rng.next_gaussian());
            let b = Matrix::from_fn(m, d, |_, _| rng.next_gaussian());
            let tile = g.usize_in(1, 9);
            let got = matmul_transposed_blocked(&a, &b, tile);
            assert_bits_equal(&got, &naive_matmul_transposed(&a, &b), "matmul_transposed");
        });
    }

    #[test]
    fn gram_rows_bit_identical_to_self_product() {
        run("gram_rows", 48, |g| {
            let n = g.usize_in(1, 30);
            let d = g.usize_in(1, 40);
            let mut rng = Xoshiro256::seed_from(g.seed() ^ 0x5EED);
            let a = Matrix::from_fn(n, d, |_, _| rng.next_gaussian());
            let tile = g.usize_in(1, 9);
            let got = gram_rows(&a, tile);
            assert_bits_equal(&got, &naive_matmul_transposed(&a, &a), "gram_rows");
        });
    }

    #[test]
    fn gram_is_exactly_symmetric() {
        let a = random(37, 19, 7);
        let g = gram_rows(&a, TILE);
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                assert_eq!(g[(i, j)].to_bits(), g[(j, i)].to_bits());
            }
        }
    }

    #[test]
    fn dispatch_thresholds_are_transparent() {
        // Shapes straddling BLOCK_DISPATCH_MIN: the public Matrix methods
        // must agree with the reference loops regardless of which kernel
        // they picked.
        for &(n, kd, p, seed) in &[
            (3usize, 150usize, 140usize, 11u64),
            (150, 3, 150, 12),
            (130, 130, 2, 13),
        ] {
            let a = random(n, kd, seed);
            let b = random(kd, p, seed + 100);
            assert_bits_equal(&a.matmul(&b), &naive_matmul(&a, &b), "matmul dispatch");
            let bt = random(p, kd, seed + 200);
            assert_bits_equal(
                &a.matmul_transposed(&bt),
                &naive_matmul_transposed(&a, &bt),
                "matmul_transposed dispatch",
            );
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(matmul_blocked(&a, &b, TILE).shape(), (0, 3));
        let g = gram_rows(&Matrix::zeros(0, 4), TILE);
        assert_eq!(g.shape(), (0, 0));
        let one = Matrix::from_rows(&[vec![2.0]]);
        assert_eq!(matmul_blocked(&one, &one, TILE)[(0, 0)], 4.0);
        assert_eq!(gram_rows(&one, TILE)[(0, 0)], 4.0);
    }

    #[test]
    #[should_panic(expected = "tile must be positive")]
    fn zero_tile_rejected() {
        let a = Matrix::zeros(2, 2);
        matmul_blocked(&a, &a, 0);
    }
}
