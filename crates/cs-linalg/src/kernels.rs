//! Matrix kernels: one register-tiled `a · bᵀ` micro-kernel and the
//! cache-tiled (blocked) `a · b`.
//!
//! Every `a · bᵀ` in the workspace runs the micro-kernel:
//! [`Matrix::matmul_transposed`] (PCA encode, the sweep's projection
//! table, the prefilter projection, SIM's dot blocks, the autoencoder
//! backward pass) and [`gram_rows`] (every PCA fit). It packs `b` into
//! panels of four rows, `panel[k·4 + l] = b[j + l][k]`, and sweeps each
//! panel with a 4×4 tile of accumulators over four rows of `a`.
//! [`gram_rows`] sweeps only the panels on and above the diagonal and
//! mirrors the rest.
//!
//! # Bit-identity contract (DESIGN.md §8)
//!
//! Every kernel here produces **bit-identical** output to its naive
//! counterpart, on every shape — aligned or ragged:
//!
//! - In the micro-kernel the lanes of a tile are *distinct output
//!   cells*, never partial sums of one cell. Each cell `(i, j)` is one
//!   chain over ascending `k`, seeded at `-0.0`:
//!   `acc = acc + a[i][k] · b[j][k]`, which is exactly the expression
//!   [`dot`](crate::matrix::dot) evaluates. `mul_add` is not used, so the
//!   compiler may vectorise across lanes without changing any cell's
//!   rounding.
//! - [`gram_rows`] mirrors its upper triangle; `dot(x, y)` and
//!   `dot(y, x)` multiply the same pairs in the same order, so the mirror
//!   is exact, not approximate.
//! - [`matmul_blocked`] keeps the naive i-k-j accumulation order: for a
//!   fixed output element, contributions are added in ascending `k`
//!   exactly as the un-blocked loop does (the `k`-tile loop is outer to
//!   the `j`-tile loop and tiles are visited in ascending order), and the
//!   `a == 0.0` skip is preserved so a `-0.0` output is never flipped to
//!   `+0.0` by adding `0.0 * b`.
//!
//! The determinism property suite (`kernels::tests` and
//! `cs-core/tests/determinism.rs`) pins these equivalences with exact
//! bit comparisons.

use crate::Matrix;

/// Tile edge length, in elements. A 64×64 `f64` tile is 32 KiB — one
/// operand tile fits in a typical L1 data cache, and the three tiles a
/// blocked product touches at once fit comfortably in L2.
pub const TILE: usize = 64;

/// Dimension threshold above which [`Matrix::matmul`] dispatches to
/// [`matmul_blocked`]. Below it every operand already fits in L1 and the
/// tile loop overhead is pure loss.
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

/// Rows of `a` per micro-tile.
const MR: usize = 4;

/// Rows of `b` per packed panel: the lanes of one micro-tile row.
const NR: usize = 4;

/// `a · bᵀ` through the micro-kernel: cell `(i, j)` is
/// [`dot`](crate::matrix::dot)`(a.row(i), b.row(j))`, bit for bit. Backs
/// [`Matrix::matmul_transposed`].
pub(crate) fn matmul_transposed(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transposed shape mismatch: {:?} · {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    tiled_abt(a, b, false)
}

/// The Gram matrix of the rows of `a` — `a · aᵀ` — computed as the upper
/// triangle plus an exact mirror, bit-identical to
/// `a.matmul_transposed(a)` at roughly half the flops.
pub fn gram_rows(a: &Matrix) -> Matrix {
    let mut out = tiled_abt(a, a, true);
    let n = a.rows();
    let out_data = out.as_mut_slice();
    // Mirror the strict upper triangle. dot(x, y) multiplies the same
    // pairs in the same order as dot(y, x), so this is exact.
    for i in 1..n {
        for j in 0..i {
            out_data[i * n + j] = out_data[j * n + i];
        }
    }
    out
}

/// Sweeps `b` in packed panels of [`NR`] rows and `a` in micro-tiles of
/// [`MR`] rows. With `upper` (a square `a · aᵀ`) each panel stops at the
/// diagonal: every cell on or above it is written, and the cells below
/// it that a diagonal tile also covers are left for the caller's mirror.
fn tiled_abt(a: &Matrix, b: &Matrix, upper: bool) -> Matrix {
    let (n, d) = a.shape();
    let m = b.rows();
    let mut out = Matrix::zeros(n, m);
    let out_data = out.as_mut_slice();
    let mut panel = vec![0.0; d * NR];
    for j0 in (0..m).step_by(NR) {
        let width = NR.min(m - j0);
        // panel[k·NR + l] = b[j0 + l][k]. In a ragged last panel the lanes
        // past `width` keep stale values; their cells are never stored.
        for l in 0..width {
            for (k, &x) in b.row(j0 + l).iter().enumerate() {
                panel[k * NR + l] = x;
            }
        }
        let rows = if upper { n.min(j0 + width) } else { n };
        for i0 in (0..rows).step_by(MR) {
            let height = MR.min(rows - i0);
            // A ragged last tile repeats its final row; the repeats'
            // cells are discarded.
            let row = |r: usize| a.row(i0 + r.min(height - 1));
            let tile = micro_tile([row(0), row(1), row(2), row(3)], &panel);
            for (r, lanes) in tile.iter().enumerate().take(height) {
                let at = (i0 + r) * m + j0;
                out_data[at..at + width].copy_from_slice(&lanes[..width]);
            }
        }
    }
    out
}

/// One [`MR`]×[`NR`] tile of `a · bᵀ`: lane `(r, l)` is the chain
/// `acc = acc + rows[r][k] · panel[k·NR + l]` over ascending `k` from
/// `-0.0`, the expression [`dot`](crate::matrix::dot) evaluates. The
/// lanes are independent outputs, so vectorising across them leaves
/// every chain's rounding as it is.
#[inline(always)]
fn micro_tile(rows: [&[f64]; MR], panel: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[-0.0; NR]; MR];
    let [r0, r1, r2, r3] = rows;
    let (columns, _) = panel.as_chunks::<NR>();
    for ((((column, &x0), &x1), &x2), &x3) in columns.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
        for (lanes, x) in acc.iter_mut().zip([x0, x1, x2, x3]) {
            for (lane, &y) in lanes.iter_mut().zip(column) {
                *lane += x * y;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::run;
    use crate::matrix::dot;
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
    fn matmul_transposed_bit_identical() {
        run("matmul_transposed", 48, |g| {
            let n = g.usize_in(1, 25);
            let m = g.usize_in(1, 25);
            let d = g.usize_in(1, 40);
            let mut rng = Xoshiro256::seed_from(g.seed() ^ 0xABCD);
            let a = Matrix::from_fn(n, d, |_, _| rng.next_gaussian());
            let b = Matrix::from_fn(m, d, |_, _| rng.next_gaussian());
            let got = a.matmul_transposed(&b);
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
            let got = gram_rows(&a);
            assert_bits_equal(&got, &naive_matmul_transposed(&a, &a), "gram_rows");
        });
    }

    fn assert_exactly_symmetric(g: &Matrix, what: &str) {
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                assert_eq!(
                    g[(i, j)].to_bits(),
                    g[(j, i)].to_bits(),
                    "{what}: ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn gram_is_exactly_symmetric() {
        assert_exactly_symmetric(&gram_rows(&random(37, 19, 7)), "37x19");
    }

    /// Gaussian rows with the edge cases planted: an all-zero row, a
    /// `-0.0` row, and (with `specials`) one NaN and one `±inf` entry in
    /// two other rows. The NaN row has no zero entries, so every NaN cell
    /// comes from one source and its bits do not depend on operand order.
    fn planted(rows: usize, d: usize, seed: u64, specials: bool) -> Matrix {
        let mut m = random(rows, d, seed);
        if d == 0 {
            return m;
        }
        m.row_mut(0).fill(0.0);
        if rows > 1 {
            m.row_mut(1).fill(-0.0);
        }
        if specials && rows > 3 {
            m.row_mut(2)[d / 2] = f64::NAN;
            let sign = if seed.is_multiple_of(2) { 1.0 } else { -1.0 };
            m.row_mut(3)[d - 1] = sign * f64::INFINITY;
        }
        m
    }

    #[test]
    fn micro_tile_straddling_shapes_match_per_cell_dot() {
        // n, m ∈ 1..=9 straddle the 4×4 micro-tile: one partial tile,
        // whole tiles, and whole tiles plus a ragged edge.
        for d in [0usize, 1, 2, 7, 768] {
            for n in 1..=9usize {
                for m in 1..=9usize {
                    let seed = (d * 100 + n * 10 + m) as u64;
                    let a = planted(n, d, seed, true);
                    let b = planted(m, d, seed ^ 0xF00D, false);
                    let what = format!("{n}x{d} · ({m}x{d})ᵀ");
                    let got = a.matmul_transposed(&b);
                    assert_bits_equal(&got, &naive_matmul_transposed(&a, &b), &what);
                }
                let a = planted(n, d, n as u64, true);
                let g = gram_rows(&a);
                let what = format!("gram {n}x{d}");
                assert_bits_equal(&g, &naive_matmul_transposed(&a, &a), &what);
                assert_exactly_symmetric(&g, &what);
            }
        }
    }

    #[test]
    fn dispatch_thresholds_are_transparent() {
        // Shapes straddling BLOCK_DISPATCH_MIN: the public Matrix methods
        // must agree with the reference loops whatever the dispatch.
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
        let g = gram_rows(&Matrix::zeros(0, 4));
        assert_eq!(g.shape(), (0, 0));
        assert_eq!(a.matmul_transposed(&Matrix::zeros(2, 5)).shape(), (0, 2));
        let one = Matrix::from_rows(&[vec![2.0]]);
        assert_eq!(matmul_blocked(&one, &one, TILE)[(0, 0)], 4.0);
        assert_eq!(gram_rows(&one)[(0, 0)], 4.0);
    }

    #[test]
    #[should_panic(expected = "tile must be positive")]
    fn zero_tile_rejected() {
        let a = Matrix::zeros(2, 2);
        matmul_blocked(&a, &a, 0);
    }
}
