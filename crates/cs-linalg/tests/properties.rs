//! Property-based tests for the linear-algebra substrate.
//!
//! Driven by the in-workspace [`cs_linalg::check`] harness (hermetic
//! replacement for proptest); the `proptest-tests` feature multiplies
//! case counts for deep fuzzing runs.

use cs_linalg::check::run;
use cs_linalg::pca::ExplainedVariance;
use cs_linalg::svd::symmetric_eigen;
use cs_linalg::{Matrix, Pca, PcaConfig, Svd};

const CASES: usize = 48;

#[test]
fn svd_reconstructs_any_matrix() {
    run("svd_reconstructs_any_matrix", CASES, |g| {
        let a = g.matrix(10, 10, -10.0, 10.0);
        let svd = Svd::compute(&a).unwrap();
        let diff = svd.reconstruct().max_abs_diff(&a);
        let scale = a.frobenius_norm().max(1.0);
        assert!(diff < 1e-7 * scale, "reconstruction error {diff}");
    });
}

#[test]
fn gram_and_jacobi_agree() {
    run("gram_and_jacobi_agree", CASES, |g| {
        let a = g.matrix(8, 8, -10.0, 10.0);
        let j = Svd::jacobi(&a).unwrap();
        let gr = Svd::gram(&a).unwrap();
        let scale = a.frobenius_norm().max(1.0);
        for (x, y) in j.singular_values.iter().zip(gr.singular_values.iter()) {
            assert!((x - y).abs() < 1e-6 * scale, "jacobi {x} vs gram {y}");
        }
    });
}

#[test]
fn singular_values_nonnegative_descending() {
    run("singular_values_nonnegative_descending", CASES, |g| {
        let a = g.matrix(9, 9, -10.0, 10.0);
        let svd = Svd::compute(&a).unwrap();
        for w in svd.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        assert!(svd.singular_values.iter().all(|&s| s >= -1e-12));
    });
}

#[test]
fn frobenius_identity() {
    run("frobenius_identity", CASES, |g| {
        let a = g.matrix(8, 12, -10.0, 10.0);
        let svd = Svd::compute(&a).unwrap();
        let sum_sq: f64 = svd.singular_values.iter().map(|s| s * s).sum();
        let f2 = a.frobenius_norm().powi(2);
        assert!((sum_sq - f2).abs() < 1e-7 * f2.max(1.0));
    });
}

#[test]
fn pca_error_monotone_in_components() {
    run("pca_error_monotone_in_components", CASES, |g| {
        let a = g.matrix(12, 8, -10.0, 10.0);
        let full = Pca::fit_with(&a, PcaConfig::new()).unwrap();
        let mut last = f64::INFINITY;
        for n in 1..=full.components().rows() {
            let model = full.with_components(n);
            let err: f64 = model.reconstruction_errors(&a).iter().sum();
            assert!(err <= last + 1e-9, "error rose at n={n}: {err} > {last}");
            last = err;
        }
    });
}

#[test]
fn pca_full_variance_is_lossless() {
    run("pca_full_variance_is_lossless", CASES, |g| {
        let a = g.matrix(10, 6, -10.0, 10.0);
        let v = ExplainedVariance::new(1.0).unwrap();
        let pca = Pca::fit_with(&a, PcaConfig::new().with_variance(v)).unwrap();
        let errs = pca.reconstruction_errors(&a);
        let scale = a.frobenius_norm().max(1.0);
        assert!(errs.iter().all(|&e| e < 1e-10 * scale));
    });
}

#[test]
fn cev_rule_monotone_in_v() {
    run("cev_rule_monotone_in_v", CASES, |g| {
        let len = g.usize_in(1, 19);
        let ratios = g.vec_f64(len, 0.001, 1.0);
        let total: f64 = ratios.iter().sum();
        let normalized: Vec<f64> = ratios.iter().map(|r| r / total).collect();
        let mut last = 0usize;
        for i in 1..=10 {
            let v = i as f64 / 10.0;
            let n = Pca::components_for_variance(&normalized, v);
            assert!(n >= last);
            assert!(n >= 1 && n <= normalized.len());
            last = n;
        }
    });
}

#[test]
fn symmetric_eigen_satisfies_definition() {
    run("symmetric_eigen_satisfies_definition", CASES, |g| {
        let a = g.square_matrix(7, -10.0, 10.0);
        // Symmetrize.
        let s = a.add(&a.transpose()).scale(0.5);
        let (vals, vecs) = symmetric_eigen(&s);
        let scale = s.frobenius_norm().max(1.0);
        for slot in 0..s.rows() {
            let v: Vec<f64> = (0..s.rows()).map(|i| vecs[(i, slot)]).collect();
            let av = s.matvec(&v);
            for i in 0..s.rows() {
                assert!(
                    (av[i] - vals[slot] * v[i]).abs() < 1e-6 * scale,
                    "eigenpair {slot} violated at {i}"
                );
            }
        }
    });
}

#[test]
fn transpose_matmul_consistency() {
    run("transpose_matmul_consistency", CASES, |g| {
        let a = g.matrix(6, 9, -10.0, 10.0);
        let bseed = g.u64_below(1000);
        let mut rng = cs_linalg::Xoshiro256::seed_from(bseed);
        let b = Matrix::from_fn(4, a.cols(), |_, _| rng.next_gaussian());
        let fast = a.matmul_transposed(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-10);
    });
}

#[test]
fn zscore_is_shift_invariant() {
    run("zscore_is_shift_invariant", CASES, |g| {
        let a = g.matrix(8, 5, -10.0, 10.0);
        let shift = g.f64_in(-5.0, 5.0);
        let scores = cs_linalg::stats::row_zscore_magnitude(&a);
        let shifted = a.map(|x| x + shift);
        let scores2 = cs_linalg::stats::row_zscore_magnitude(&shifted);
        for (x, y) in scores.iter().zip(scores2.iter()) {
            assert!((x - y).abs() < 1e-8);
        }
    });
}
