//! Matrix kernels: one register-tiled micro-kernel behind every dense
//! product in the workspace.
//!
//! [`Matrix::matmul_transposed`] (PCA encode, the sweep's projection
//! table, the prefilter projection, SIM's dot blocks, LSH hashing, the
//! autoencoder backward pass), [`Matrix::matmul`] (PCA decode, the exact
//! fit's component recovery `Aᵀu/σ`, the autoencoder forward pass and
//! weight gradients) and [`gram_rows`] (every PCA fit) all run one tiled
//! sweep. It packs four output columns of `b` into a panel and sweeps
//! that panel with a 4×4 tile of accumulators over four rows of `a`. Two
//! packers feed it:
//!
//! - `a · bᵀ` packs four *rows* of `b`: `panel[k·4 + l] = b[j0 + l][k]`;
//! - `a · b` packs four *columns* of `b`: `panel[k·4 + l] = b[k][j0 + l]`.
//!
//! [`gram_rows`] sweeps only the panels on and above the diagonal and
//! mirrors the rest.
//!
//! # Bit-identity contract (DESIGN.md §8)
//!
//! Every product cell is [`dot`](crate::matrix::dot) of a row of `a` and
//! a row (`a · bᵀ`) or column (`a · b`) of `b`, bit for bit, on every
//! shape — aligned or ragged:
//!
//! - The lanes of a tile are *distinct output cells*, never partial sums
//!   of one cell. Each cell is one chain over ascending `k`, seeded at
//!   `-0.0`: `acc = acc + a[i][k] · panel[k·4 + l]`, which is exactly the
//!   expression `dot` evaluates. `mul_add` is not used, so the compiler
//!   may vectorise across lanes without changing any cell's rounding.
//! - [`gram_rows`] mirrors its upper triangle; `dot(x, y)` and
//!   `dot(y, x)` multiply the same pairs in the same order, so the mirror
//!   is exact, not approximate.
//!
//! An i-k-j `a · b` loop that seeds at `+0.0` and skips `a == 0.0` terms
//! agrees with this contract on finite operands unless every term of a
//! cell is `±0`. It differs in three ways: a cell whose terms are all
//! `±0` may be `-0.0` where the loop gives `+0.0`; a `0·∞` or `0·NaN` term
//! is not skipped, so a non-finite operand propagates as it does in
//! `dot`; and an empty inner dimension yields `-0.0` cells, like
//! `dot(&[], &[])`.
//!
//! The kernel never skips a zero term, so it does all `n·k·m`
//! multiply-adds whatever the sparsity of `a`. That costs in the
//! autoencoder layers fed by ReLU activations, about three quarters exact
//! zeros once trained: there the zero-skipping i-k-j loop above does a
//! quarter of the work and runs about 2× faster than this kernel.
//!
//! The determinism property suite (`kernels::tests` and
//! `cs-core/tests/determinism.rs`) pins these equivalences with exact
//! bit comparisons.

use crate::Matrix;

/// Rows of `a` per micro-tile.
const MR: usize = 4;

/// Output columns per packed panel: the lanes of one micro-tile row.
const NR: usize = 4;

/// `a · b` through the micro-kernel: cell `(i, j)` is
/// [`dot`](crate::matrix::dot)`(a.row(i), &b.col(j))`, bit for bit. Backs
/// [`Matrix::matmul`], which checks the shapes. Packing columns of `b`
/// here, rather than transposing `b` for the `a · bᵀ` packer, saves a
/// strided copy of `b` that costs a quarter to a half of the product at
/// the `vt_rows` and autoencoder-layer shapes.
pub(crate) fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    tiled(a, b.cols(), false, columns_packer(b))
}

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
    tiled(a, b.rows(), false, rows_packer(b))
}

/// The Gram matrix of the rows of `a` — `a · aᵀ` — computed as the upper
/// triangle plus an exact mirror, bit-identical to
/// `a.matmul_transposed(a)` at roughly half the flops.
pub fn gram_rows(a: &Matrix) -> Matrix {
    let mut out = tiled(a, a.rows(), true, rows_packer(a));
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

/// The `a · b` packer: `panel[k·NR + l] = b[k][j0 + l]`.
fn columns_packer(b: &Matrix) -> impl Fn(&mut [f64], usize, usize) + '_ {
    |panel, j0, width| {
        for (lanes, b_row) in panel.chunks_exact_mut(NR).zip(b.rows_iter()) {
            lanes[..width].copy_from_slice(&b_row[j0..j0 + width]);
        }
    }
}

/// The `a · bᵀ` packer: `panel[k·NR + l] = b[j0 + l][k]`.
fn rows_packer(b: &Matrix) -> impl Fn(&mut [f64], usize, usize) + '_ {
    |panel, j0, width| {
        for l in 0..width {
            for (k, &x) in b.row(j0 + l).iter().enumerate() {
                panel[k * NR + l] = x;
            }
        }
    }
}

/// Sweeps `m` output columns in packed panels of [`NR`] and `a` in
/// micro-tiles of [`MR`] rows. `pack(panel, j0, width)` writes lanes
/// `0..width` of the panel for output columns `j0..j0 + width`, as
/// `panel[k·NR + l]` over the inner dimension `k`. With `upper` (a square
/// `a · aᵀ`) each panel stops at the diagonal: every cell on or above it
/// is written, and the cells below it that a diagonal tile also covers
/// are left for the caller's mirror.
fn tiled(a: &Matrix, m: usize, upper: bool, pack: impl Fn(&mut [f64], usize, usize)) -> Matrix {
    let (n, d) = a.shape();
    let mut out = Matrix::zeros(n, m);
    let out_data = out.as_mut_slice();
    let mut panel = vec![0.0; d * NR];
    for j0 in (0..m).step_by(NR) {
        let width = NR.min(m - j0);
        // In a ragged last panel the lanes past `width` keep stale
        // values; their cells are never stored.
        pack(&mut panel, j0, width);
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

/// One [`MR`]×[`NR`] tile of a product: lane `(r, l)` is the chain
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

    /// A textbook i-k-j `a · b` loop, seeded at `+0.0` and skipping
    /// `a == 0.0` terms. It agrees with the per-cell `dot` contract on
    /// finite operands whenever a cell has a nonzero term, so it serves as
    /// an independent oracle on finite Gaussian inputs.
    fn ikj_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            let out_row = out.row_mut(i);
            for (&av, b_row) in a.row(i).iter().zip(b.rows_iter()) {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    fn dot_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let columns: Vec<Vec<f64>> = (0..b.cols()).map(|j| b.col(j)).collect();
        Matrix::from_fn(a.rows(), b.cols(), |i, j| dot(a.row(i), &columns[j]))
    }

    fn dot_matmul_transposed(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| dot(a.row(i), b.row(j)))
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
        // Shapes that are exact multiples of the 4×4 micro-tile.
        let a = random(8, 12, 1);
        let b = random(12, 4, 2);
        let got = a.matmul(&b);
        assert_bits_equal(&got, &dot_matmul(&a, &b), "aligned matmul");
        assert_bits_equal(&got, &ikj_matmul(&a, &b), "aligned matmul vs i-k-j");
    }

    #[test]
    fn blocked_matmul_bit_identical_on_ragged_tiles() {
        run("blocked_matmul_ragged", 48, |g| {
            let n = g.usize_in(1, 30);
            let kd = g.usize_in(1, 30);
            let p = g.usize_in(1, 30);
            let mut rng = Xoshiro256::seed_from(g.seed());
            let mut a = Matrix::from_fn(n, kd, |_, _| rng.next_gaussian());
            let mut b = Matrix::from_fn(kd, p, |_, _| rng.next_gaussian());
            assert_bits_equal(&a.matmul(&b), &ikj_matmul(&a, &b), "ragged matmul vs i-k-j");
            // Sprinkle an exact zero into `a` and a `-0.0` into `b`: a
            // single-term cell can read `-0.0` where the i-k-j loop reads
            // `+0.0`, so only the `dot` reference applies.
            let z = g.usize_in(0, n * kd - 1);
            a.as_mut_slice()[z] = 0.0;
            let z = g.usize_in(0, kd * p - 1);
            b.as_mut_slice()[z] = -0.0;
            assert_bits_equal(&a.matmul(&b), &dot_matmul(&a, &b), "ragged matmul");
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
            assert_bits_equal(&got, &dot_matmul_transposed(&a, &b), "matmul_transposed");
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
            assert_bits_equal(&got, &dot_matmul_transposed(&a, &a), "gram_rows");
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

    /// Checks both products of `a` against `planted(m, d, …)`: as the rows
    /// of `b` in `a · bᵀ`, and as the columns of `b` in `a · b`.
    fn assert_products_match_dot(a: &Matrix, m: usize, seed: u64) {
        let (n, d) = a.shape();
        let b = planted(m, d, seed ^ 0xF00D, false);
        let what = format!("{n}x{d} · ({m}x{d})ᵀ");
        assert_bits_equal(
            &a.matmul_transposed(&b),
            &dot_matmul_transposed(a, &b),
            &what,
        );
        let bt = b.transpose();
        let what = format!("{n}x{d} · {d}x{m}");
        assert_bits_equal(&a.matmul(&bt), &dot_matmul(a, &bt), &what);
    }

    #[test]
    fn micro_tile_straddling_shapes_match_per_cell_dot() {
        // n, m ∈ 1..=9 straddle the 4×4 micro-tile: one partial tile,
        // whole tiles, and whole tiles plus a ragged edge.
        for d in [0usize, 1, 2, 7, 768] {
            for n in 1..=9usize {
                for m in 1..=9usize {
                    let seed = (d * 100 + n * 10 + m) as u64;
                    assert_products_match_dot(&planted(n, d, seed, true), m, seed);
                }
                let a = planted(n, d, n as u64, true);
                let g = gram_rows(&a);
                let what = format!("gram {n}x{d}");
                assert_bits_equal(&g, &dot_matmul_transposed(&a, &a), &what);
                assert_exactly_symmetric(&g, &what);
            }
        }
        // Long and lopsided shapes: many whole tiles on one side, a
        // sliver on another.
        for &(n, d, m, seed) in &[
            (3usize, 150usize, 140usize, 11u64),
            (150, 3, 150, 12),
            (130, 130, 2, 13),
        ] {
            assert_products_match_dot(&planted(n, d, seed, true), m, seed);
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(a.matmul(&b).shape(), (0, 3));
        assert_eq!(b.matmul(&Matrix::zeros(3, 0)).shape(), (5, 0));
        let g = gram_rows(&Matrix::zeros(0, 4));
        assert_eq!(g.shape(), (0, 0));
        assert_eq!(a.matmul_transposed(&Matrix::zeros(2, 5)).shape(), (0, 2));
        // An empty inner dimension gives `-0.0` cells, like `dot(&[], &[])`.
        let empty = Matrix::zeros(2, 0).matmul(&Matrix::zeros(0, 3));
        assert_eq!(empty.shape(), (2, 3));
        assert!(empty
            .as_slice()
            .iter()
            .all(|x| x.to_bits() == (-0.0f64).to_bits()));
        let one = Matrix::from_rows(&[vec![2.0]]);
        assert_eq!(one.matmul(&one)[(0, 0)], 4.0);
        assert_eq!(gram_rows(&one)[(0, 0)], 4.0);
    }
}
