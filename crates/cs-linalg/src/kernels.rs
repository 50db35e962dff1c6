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
//! # Dealt row blocks
//!
//! A product of at least `SPLIT_MIN` (4M) multiply-adds, started outside
//! any pool batch, is cut into one block of whole micro-tile rows per
//! worker of [`crate::pool::global`] and dealt with
//! [`ThreadPool::split`]. The Gram's blocks are balanced by area, since a
//! row tile at `i0` sweeps only the panels from `i0` on. Each block packs
//! its own panels and sweeps its own rows; the blocks are assembled in
//! row order. Inside a batch (a local model trained on a pool worker, or
//! under `ExecPolicy::Sequential`) the pool runs the product inline, as
//! it does below the threshold. The operands reach the workers as
//! `Arc<Matrix>`: a caller that owns one passes it shared and pays no
//! copy (`Operand`).
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
//! - A cell's chain does not depend on the tile or the block it lands
//!   in, so dealing rows to workers changes no bit.
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

use std::ops::Range;
use std::sync::Arc;

use crate::pool::{self, ThreadPool};
use crate::Matrix;

/// Rows of `a` per micro-tile.
const MR: usize = 4;

/// Output columns per packed panel: the lanes of one micro-tile row.
const NR: usize = 4;

/// Multiply-adds from which a product is dealt to the pool in row blocks.
/// Below it the product runs on the calling thread: a dealt batch costs
/// tens of microseconds, 4M multiply-adds about a millisecond.
const SPLIT_MIN: usize = 1 << 22;

/// A product operand. A dealt product hands its workers an
/// `Arc<Matrix>`: an operand already shared is handed over as it is, a
/// borrowed one is copied once into a fresh `Arc`.
pub(crate) trait Operand {
    /// The matrix itself.
    fn matrix(&self) -> &Matrix;
    /// The matrix as the workers share it.
    fn share(&self) -> Arc<Matrix>;
}

impl Operand for Matrix {
    fn matrix(&self) -> &Matrix {
        self
    }

    fn share(&self) -> Arc<Matrix> {
        Arc::new(self.clone())
    }
}

impl Operand for Arc<Matrix> {
    fn matrix(&self) -> &Matrix {
        self
    }

    fn share(&self) -> Arc<Matrix> {
        Arc::clone(self)
    }
}

/// Which product a sweep computes, and so which packer feeds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `a · b`: panels hold columns of `b`.
    Plain,
    /// `a · bᵀ`: panels hold rows of `b`.
    Transposed,
    /// `a · aᵀ` (with `b = a`): the `a · bᵀ` panels, each swept only down
    /// to the diagonal.
    Gram,
}

impl Shape {
    /// Output columns of the product with right operand `b`.
    fn cols(self, b: &Matrix) -> usize {
        match self {
            Shape::Plain => b.cols(),
            Shape::Transposed | Shape::Gram => b.rows(),
        }
    }
}

/// `a · b` through the micro-kernel: cell `(i, j)` is
/// [`dot`](crate::matrix::dot)`(a.row(i), &b.col(j))`, bit for bit. Backs
/// [`Matrix::matmul`], which checks the shapes. Packing columns of `b`
/// here, rather than transposing `b` for the `a · bᵀ` packer, saves a
/// strided copy of `b` that costs a quarter to a half of the product at
/// the `vt_rows` and autoencoder-layer shapes.
pub(crate) fn matmul(a: &impl Operand, b: &impl Operand) -> Matrix {
    product(a, b, Shape::Plain, pool::global())
}

/// `a · bᵀ` through the micro-kernel: cell `(i, j)` is
/// [`dot`](crate::matrix::dot)`(a.row(i), b.row(j))`, bit for bit. Backs
/// [`Matrix::matmul_transposed`].
pub(crate) fn matmul_transposed(a: &impl Operand, b: &impl Operand) -> Matrix {
    let (a_shape, b_shape) = (a.matrix().shape(), b.matrix().shape());
    assert_eq!(
        a_shape.1, b_shape.1,
        "matmul_transposed shape mismatch: {a_shape:?} · {b_shape:?}ᵀ"
    );
    product(a, b, Shape::Transposed, pool::global())
}

/// The Gram matrix of the rows of `a` — `a · aᵀ` — computed as the upper
/// triangle plus an exact mirror, bit-identical to
/// `a.matmul_transposed(a)` at roughly half the flops.
pub fn gram_rows(a: &Matrix) -> Matrix {
    gram(a)
}

/// [`gram_rows`] of any operand; a shared one is dealt without a copy.
pub(crate) fn gram(a: &impl Operand) -> Matrix {
    product(a, a, Shape::Gram, pool::global())
}

/// Runs one product on `pool`: inline when it is small or the pool
/// cannot deal it (one worker, or inside a batch), otherwise as one
/// [`ThreadPool::split`] slot per row block. Every cell is the same chain
/// either way, so the bits do not depend on the blocks.
fn product(a: &impl Operand, b: &impl Operand, shape: Shape, pool: &ThreadPool) -> Matrix {
    let (n, d) = a.matrix().shape();
    let m = shape.cols(b.matrix());
    let blocks = row_blocks(n, m, d, shape, pool.split_width());
    let mut out = if blocks.len() <= 1 {
        Matrix::from_vec(n, m, tile_rows(a.matrix(), b.matrix(), shape, 0..n))
    } else {
        let (a, b) = if shape == Shape::Gram {
            let a = a.share();
            (Arc::clone(&a), a)
        } else {
            (a.share(), b.share())
        };
        let parts = pool.split(blocks, move |rows| tile_rows(&a, &b, shape, rows));
        // The first block grows into the whole output, so the assembly
        // never holds a second whole copy of it.
        let mut parts = parts.into_iter();
        let mut data = parts.next().unwrap_or_default();
        data.reserve_exact(n * m - data.len());
        for part in parts {
            data.extend_from_slice(&part);
        }
        Matrix::from_vec(n, m, data)
    };
    if shape == Shape::Gram {
        // Mirror the strict upper triangle. dot(x, y) multiplies the same
        // pairs in the same order as dot(y, x), so this is exact.
        let out_data = out.as_mut_slice();
        for i in 1..n {
            for j in 0..i {
                out_data[i * n + j] = out_data[j * n + i];
            }
        }
    }
    out
}

/// Cuts the `n` output rows into at most `parts` contiguous blocks of
/// whole micro-tiles with about equal work; one block when the product
/// has fewer than [`SPLIT_MIN`] multiply-adds. A Gram row tile at `i0`
/// sweeps only the panels from `i0` on, so its blocks are balanced by
/// area, the top ones shorter.
fn row_blocks(n: usize, m: usize, d: usize, shape: Shape, parts: usize) -> Vec<Range<usize>> {
    let panels = m.div_ceil(NR);
    let tile_panels = |i0: usize| {
        if shape == Shape::Gram {
            panels.saturating_sub(i0 / NR)
        } else {
            panels
        }
    };
    let tiles: Vec<usize> = (0..n).step_by(MR).collect();
    let total: usize = tiles.iter().map(|&i0| tile_panels(i0)).sum();
    if parts <= 1 || tiles.len() <= 1 || total * MR * NR * d < SPLIT_MIN {
        return std::iter::once(0..n).collect();
    }
    let parts = parts.min(tiles.len());
    let mut blocks = Vec::with_capacity(parts);
    let (mut start, mut done) = (0, 0);
    for &i0 in &tiles {
        done += tile_panels(i0);
        let end = (i0 + MR).min(n);
        // Close block `k` once its share of the work is done.
        if done * parts >= total * (blocks.len() + 1) && blocks.len() + 1 < parts {
            blocks.push(start..end);
            start = end;
        }
    }
    blocks.push(start..n);
    blocks
}

/// Packs lanes `0..width` of `panel` with output columns `j0..j0 + width`
/// as `panel[k·NR + l]` over the inner dimension `k`:
///
/// - `a · b` packs columns of `b`: `panel[k·NR + l] = b[k][j0 + l]`;
/// - `a · bᵀ` and the Gram pack rows: `panel[k·NR + l] = b[j0 + l][k]`.
fn pack(b: &Matrix, shape: Shape, panel: &mut [f64], j0: usize, width: usize) {
    match shape {
        Shape::Plain => {
            for (lanes, b_row) in panel.chunks_exact_mut(NR).zip(b.rows_iter()) {
                lanes[..width].copy_from_slice(&b_row[j0..j0 + width]);
            }
        }
        Shape::Transposed | Shape::Gram => {
            for l in 0..width {
                for (k, &x) in b.row(j0 + l).iter().enumerate() {
                    panel[k * NR + l] = x;
                }
            }
        }
    }
}

/// Output rows `rows` of the product, row-major: sweeps the output
/// columns in packed panels of [`NR`] and the rows in micro-tiles of
/// [`MR`]. For the Gram each panel stops at the diagonal: every cell on
/// or above it is written, and the cells below it that a diagonal tile
/// also covers are left for the caller's mirror.
fn tile_rows(a: &Matrix, b: &Matrix, shape: Shape, rows: Range<usize>) -> Vec<f64> {
    let d = a.cols();
    let m = shape.cols(b);
    let mut out = vec![0.0; rows.len() * m];
    let mut panel = vec![0.0; d * NR];
    for j0 in (0..m).step_by(NR) {
        let width = NR.min(m - j0);
        let end = if shape == Shape::Gram {
            rows.end.min(j0 + width)
        } else {
            rows.end
        };
        if end <= rows.start {
            continue;
        }
        // In a ragged last panel the lanes past `width` keep stale
        // values; their cells are never stored.
        pack(b, shape, &mut panel, j0, width);
        for i0 in (rows.start..end).step_by(MR) {
            let height = MR.min(end - i0);
            // A ragged last tile repeats its final row; the repeats'
            // cells are discarded.
            let row = |r: usize| a.row(i0 + r.min(height - 1));
            let tile = micro_tile([row(0), row(1), row(2), row(3)], &panel);
            let first = i0 - rows.start;
            for (r, lanes) in tile.iter().enumerate().take(height) {
                let at = (first + r) * m + j0;
                out[at..at + width].copy_from_slice(&lanes[..width]);
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
    use crate::pool::ThreadPool;
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

    /// Ragged shapes whose products, the Gram included, pass
    /// [`SPLIT_MIN`]: row counts, inner widths and column counts that are
    /// not multiples of the micro-tile.
    const DEALT_SHAPES: [(usize, usize, usize); 2] = [(177, 301, 93), (211, 199, 130)];

    /// The three products of `a` on `pool`, each checked against per-cell
    /// `dot`, and the number of row blocks the pool was dealt.
    fn assert_dealt_products_match_dot(a: &Matrix, m: usize, pool: &ThreadPool) -> usize {
        let (n, d) = a.shape();
        let before = pool.batches_dispatched();
        let b = random(m, d, (n * m) as u64);
        let what = format!("{n}x{d} · ({m}x{d})ᵀ on {} workers", pool.workers());
        let got = product(a, &b, Shape::Transposed, pool);
        assert_bits_equal(&got, &dot_matmul_transposed(a, &b), &what);
        let bt = b.transpose();
        let what = format!("{n}x{d} · {d}x{m} on {} workers", pool.workers());
        assert_bits_equal(
            &product(a, &bt, Shape::Plain, pool),
            &dot_matmul(a, &bt),
            &what,
        );
        let shared = Arc::new(a.clone());
        let g = product(&shared, &shared, Shape::Gram, pool);
        let what = format!("gram {n}x{d} on {} workers", pool.workers());
        assert_bits_equal(&g, &dot_matmul_transposed(a, a), &what);
        assert_exactly_symmetric(&g, &what);
        pool.batches_dispatched() - before
    }

    #[test]
    fn dealt_products_match_per_cell_dot_on_every_pool() {
        for (n, d, m) in DEALT_SHAPES {
            assert!(n * m * d >= SPLIT_MIN && n * n * d / 2 >= SPLIT_MIN);
            let a = planted(n, d, (n + d + m) as u64, true);
            for workers in [1usize, 2, 3, 8] {
                let pool = ThreadPool::with_threads(workers);
                let dealt = assert_dealt_products_match_dot(&a, m, &pool);
                let want = if workers > 1 { 3 } else { 0 };
                assert_eq!(dealt, want, "{n}x{d}x{m} on {workers} workers");
            }
        }
    }

    #[test]
    fn products_inside_a_pool_job_run_inline_with_the_same_bits() {
        let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::with_threads(2)));
        let dealt = pool
            .run_slots(2, move |i| {
                let (n, d, m) = DEALT_SHAPES[i];
                assert_dealt_products_match_dot(&planted(n, d, i as u64, true), m, pool)
            })
            .unwrap();
        assert_eq!(dealt, vec![0, 0], "a nested product is not dealt");
    }

    #[test]
    fn row_blocks_tile_the_rows_and_balance_the_work() {
        let whole = |n: usize| std::iter::once(0..n).collect::<Vec<_>>();
        assert_eq!(row_blocks(40, 40, 8, Shape::Plain, 2), whole(40), "small");
        assert_eq!(row_blocks(3, 1 << 20, 8, Shape::Plain, 2), whole(3));
        for shape in [Shape::Plain, Shape::Gram] {
            for parts in [2usize, 3, 8] {
                for n in [157usize, 211, 472] {
                    let blocks = row_blocks(n, n, 768, shape, parts);
                    assert_eq!(blocks.len(), parts, "{shape:?} {n} in {parts}");
                    assert_eq!(blocks[0].start, 0);
                    assert_eq!(blocks[parts - 1].end, n);
                    for w in blocks.windows(2) {
                        assert_eq!(w[0].end, w[1].start);
                        assert_eq!(w[1].start % MR, 0, "whole micro-tiles");
                    }
                    // A block's work: its rows times the columns each one
                    // sweeps; within a tile and a panel of an even share.
                    let work = |r: &Range<usize>| -> usize {
                        r.clone()
                            .map(|i| {
                                if shape == Shape::Gram {
                                    n - i / MR * MR
                                } else {
                                    n
                                }
                            })
                            .sum()
                    };
                    let total: usize = blocks.iter().map(work).sum();
                    for block in &blocks {
                        let slack = 2 * MR * n;
                        assert!(
                            work(block).abs_diff(total / parts) <= slack,
                            "{shape:?} {n} in {parts}: {blocks:?}"
                        );
                    }
                }
            }
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
