//! Property-based tests for the linear-algebra substrate.
//!
//! Driven by the in-workspace [`cs_linalg::check`] harness (hermetic
//! replacement for proptest); the `proptest-tests` feature multiplies
//! case counts for deep fuzzing runs.

use cs_linalg::check::run;
use cs_linalg::pca::ExplainedVariance;
use cs_linalg::svd::symmetric_eigen;
use cs_linalg::{Matrix, Pca, PcaConfig, PcaSolver, Svd};

const CASES: usize = 48;

#[test]
fn svd_reconstructs_any_matrix() {
    run("svd_reconstructs_any_matrix", CASES, |g| {
        let a = g.matrix(10, 10, -10.0, 10.0);
        let svd = Svd::jacobi(&a).unwrap();
        let diff = svd.reconstruct().max_abs_diff(&a);
        let scale = a.frobenius_norm().max(1.0);
        assert!(diff < 1e-7 * scale, "reconstruction error {diff}");
    });
}

#[test]
fn gram_and_jacobi_agree() {
    // The default exact Gram fit against the full-SVD reference.
    run("gram_and_jacobi_agree", CASES, |g| {
        let a = g.matrix(8, 8, -10.0, 10.0);
        let j = Pca::fit_with(&a, PcaConfig::new().with_solver(PcaSolver::FullSvd)).unwrap();
        let gr = Pca::fit_with(&a, PcaConfig::new()).unwrap();
        let scale = a.frobenius_norm().max(1.0);
        for (x, y) in j.singular_values().iter().zip(gr.singular_values()) {
            assert!((x - y).abs() < 1e-6 * scale, "jacobi {x} vs gram {y}");
        }
    });
}

#[test]
fn singular_values_nonnegative_descending() {
    run("singular_values_nonnegative_descending", CASES, |g| {
        let a = g.matrix(9, 9, -10.0, 10.0);
        let pca = Pca::fit_with(&a, PcaConfig::new()).unwrap();
        for w in pca.singular_values().windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        assert!(pca.singular_values().iter().all(|&s| s >= -1e-12));
    });
}

#[test]
fn frobenius_identity() {
    // Σσ² of the exact Gram fit is the centered data's squared norm.
    run("frobenius_identity", CASES, |g| {
        let a = g.matrix(8, 12, -10.0, 10.0);
        let pca = Pca::fit_with(&a, PcaConfig::new()).unwrap();
        let sum_sq: f64 = pca.singular_values().iter().map(|s| s * s).sum();
        let f2 = a.sub_row_vector(pca.mean()).frobenius_norm().powi(2);
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

/// Asserts the whole `symmetric_eigen` contract on a symmetric `s`:
/// residuals `‖S·v − λv‖ ≤ c·n·ε·‖S‖_F`, orthonormal eigenvector columns,
/// eigenvalues descending, and each eigenvector's first largest-magnitude
/// entry positive.
fn assert_eigen_contract(s: &Matrix) {
    const C: f64 = 16.0;
    let n = s.rows();
    let (vals, vecs) = symmetric_eigen(s);
    assert_eq!(vals.len(), n);
    assert_eq!(vecs.shape(), (n, n));
    let tol = C * n as f64 * f64::EPSILON;
    let norm = s.frobenius_norm();
    for w in vals.windows(2) {
        assert!(
            w[0] >= w[1],
            "eigenvalues not descending: {} < {}",
            w[0],
            w[1]
        );
    }
    for slot in 0..n {
        let v: Vec<f64> = (0..n).map(|i| vecs[(i, slot)]).collect();
        let av = s.matvec(&v);
        let residual: f64 = av
            .iter()
            .zip(&v)
            .map(|(a, x)| (a - vals[slot] * x).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            residual <= tol * norm,
            "eigenpair {slot}: residual {residual:e} > {:e}",
            tol * norm
        );
        let mut lead = 0;
        for (i, x) in v.iter().enumerate() {
            if x.abs() > v[lead].abs() {
                lead = i;
            }
        }
        assert!(v[lead] > 0.0, "eigenvector {slot} leads with {}", v[lead]);
    }
    let gram = vecs.transpose().matmul(&vecs);
    for i in 0..n {
        for j in 0..n {
            let expected = if i == j { 1.0 } else { 0.0 };
            assert!(
                (gram[(i, j)] - expected).abs() <= tol,
                "VᵀV[{i},{j}] = {}",
                gram[(i, j)]
            );
        }
    }
}

#[test]
fn symmetric_eigen_satisfies_definition() {
    run("symmetric_eigen_satisfies_definition", CASES, |g| {
        let a = g.square_matrix(24, -10.0, 10.0);
        // Symmetrize.
        let s = a.add(&a.transpose()).scale(0.5);
        assert_eigen_contract(&s);
    });
}

#[test]
fn symmetric_eigen_on_structured_matrices() {
    // Zero matrix, identity and a diagonal with repeated entries: every
    // eigenvalue is (partly) repeated, so only the contract pins the
    // eigenvectors.
    assert_eigen_contract(&Matrix::zeros(5, 5));
    assert_eigen_contract(&Matrix::identity(6));
    let diag = [3.0, -1.0, 3.0, 0.0, 2.5, -1.0];
    let d = Matrix::from_fn(6, 6, |i, j| if i == j { diag[i] } else { 0.0 });
    assert_eigen_contract(&d);
    let (vals, _) = symmetric_eigen(&d);
    assert_eq!(vals, vec![3.0, 3.0, 2.5, 0.0, -1.0, -1.0]);
    // Wilkinson's W21+: its top eigenvalues come in pairs agreeing to
    // ~1e-14 relative, the close-pair case for QL deflation.
    let w = Matrix::from_fn(21, 21, |i, j| {
        if i == j {
            (10.0 - i as f64).abs()
        } else if i.abs_diff(j) == 1 {
            1.0
        } else {
            0.0
        }
    });
    assert_eigen_contract(&w);
    let (vals, _) = symmetric_eigen(&w);
    assert!(
        (vals[0] - 10.746_194_182_903_3).abs() < 1e-12,
        "{}",
        vals[0]
    );
    assert!((vals[0] - vals[1]).abs() < 1e-12);
}

#[test]
fn symmetric_eigen_on_a_signature_sized_gram() {
    // A 282-side Gram of a short-and-wide random matrix — the side a
    // generated 768-d local schema produces.
    let mut rng = cs_linalg::Xoshiro256::seed_from(282);
    let a = Matrix::from_fn(282, 768, |_, _| rng.next_gaussian());
    let gram = a.matmul_transposed(&a);
    assert_eigen_contract(&gram);
    let (vals, _) = symmetric_eigen(&gram);
    let trace: f64 = (0..282).map(|i| gram[(i, i)]).sum();
    let sum: f64 = vals.iter().sum();
    assert!((sum - trace).abs() <= 1e-10 * trace, "{sum} vs {trace}");
    assert!(vals[281] > 0.0, "a full-row-rank Gram is positive definite");
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
