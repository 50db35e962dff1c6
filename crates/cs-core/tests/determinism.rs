//! The determinism contract, end to end: the parallel pipeline must be
//! **bit-identical** to the sequential path for every worker count
//! (DESIGN.md §8).
//!
//! Each suite runs the same synthetic multi-source scenario through the
//! sequential executor and through pinned pools of 1, 2, 3, and 8
//! workers — the counts `CS_THREADS` would select — and compares raw
//! `f64` bits, never tolerances: chunk-deal scheduling plus slot
//! assembly means parallelism may not change a single ULP.

use std::sync::Arc;

use cs_core::pool::{ExecPolicy, ThreadPool};
use cs_core::{
    encode_catalog, CollaborativeScoper, CollaborativeSweep, CombinationRule, LocalAssessor,
    SchemaSignatures,
};
use cs_datasets::synthetic::{generate, SyntheticConfig};
use cs_embed::SignatureEncoder;
use cs_linalg::check::{run, Gen};

/// Worker counts the determinism contract is pinned on.
const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn pinned_pools() -> Vec<(usize, Arc<ThreadPool>)> {
    WORKER_COUNTS
        .iter()
        .map(|&n| (n, Arc::new(ThreadPool::with_threads(n))))
        .collect()
}

/// A synthetic catalog with schema count and seed drawn per case.
fn synthetic_sigs(g: &mut Gen) -> SchemaSignatures {
    let config = SyntheticConfig {
        schemas: g.usize_in(2, 4),
        shared_concepts: 14,
        concepts_per_schema: 9,
        private_per_schema: g.usize_in(2, 6),
        table_width: 5,
        alien_elements: if g.usize_in(0, 1) == 1 { 8 } else { 0 },
        seed: g.seed(),
        ..SyntheticConfig::default()
    };
    let ds = generate(&config);
    encode_catalog(&SignatureEncoder::default(), &ds.catalog)
}

fn scoper_with(v: f64, exec: ExecPolicy) -> CollaborativeScoper {
    CollaborativeScoper::builder()
        .explained_variance(v)
        .exec(exec)
        .build()
        .expect("valid v")
}

fn assert_f64_bits_equal(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

#[test]
fn training_is_bit_identical_across_worker_counts() {
    let pools = pinned_pools();
    run("determinism_train", 4, |g| {
        let sigs = synthetic_sigs(g);
        let v = g.f64_in(0.3, 0.95);
        let baseline = scoper_with(v, ExecPolicy::Sequential)
            .train_models(&sigs)
            .expect("sequential training");
        for (n, pool) in &pools {
            let models = scoper_with(v, ExecPolicy::Pool(Arc::clone(pool)))
                .train_models(&sigs)
                .expect("pooled training");
            assert_eq!(models.len(), baseline.len(), "{n} workers: model count");
            for (m, b) in models.iter().zip(baseline.iter()) {
                assert_eq!(m.schema_index(), b.schema_index());
                assert_eq!(
                    m.linkability_range().to_bits(),
                    b.linkability_range().to_bits(),
                    "{n} workers: linkability range of schema {}",
                    b.schema_index()
                );
                // The trained encoder–decoders must agree exactly too:
                // probe them on the schema's own signatures.
                let probe = sigs.schema(b.schema_index());
                assert_f64_bits_equal(
                    &m.reconstruction_errors(probe),
                    &b.reconstruction_errors(probe),
                    "reconstruction errors",
                );
            }
        }
    });
}

#[test]
fn assessment_is_bit_identical_across_worker_counts() {
    let pools = pinned_pools();
    run("determinism_assess", 4, |g| {
        let sigs = synthetic_sigs(g);
        let v = g.f64_in(0.3, 0.95);
        let baseline = scoper_with(v, ExecPolicy::Sequential)
            .run(&sigs)
            .expect("sequential run");
        for (n, pool) in &pools {
            let got = scoper_with(v, ExecPolicy::Pool(Arc::clone(pool)))
                .run(&sigs)
                .expect("pooled run");
            assert_eq!(got.outcome, baseline.outcome, "{n} workers: outcome");
            assert_eq!(
                got.accept_votes, baseline.accept_votes,
                "{n} workers: votes"
            );
            assert_f64_bits_equal(&got.best_margin, &baseline.best_margin, "margins");
            // CostReport is pure arithmetic over catalog sizes — equal
            // under every executor.
            assert_eq!(got.cost, baseline.cost, "{n} workers: cost report");
        }
    });
}

#[test]
fn sweep_grid_is_bit_identical_across_worker_counts() {
    let pools = pinned_pools();
    run("determinism_sweep", 3, |g| {
        let sigs = synthetic_sigs(g);
        let steps = g.usize_in(5, 12);
        let vs: Vec<f64> = (1..=steps).map(|i| i as f64 / steps as f64).collect();

        let baseline_sweep =
            CollaborativeSweep::prepare_with(&sigs, &ExecPolicy::Sequential).expect("prepare");
        let baseline: Vec<_> = vs
            .iter()
            .map(|&v| {
                baseline_sweep
                    .assess_with_rule(v, CombinationRule::Any)
                    .expect("valid grid point")
            })
            .collect();
        for (n, pool) in &pools {
            let exec = ExecPolicy::Pool(Arc::clone(pool));
            // Both the cache preparation and the v-grid fan-out run on
            // the pinned pool.
            let sweep = CollaborativeSweep::prepare_with(&sigs, &exec).expect("prepare");
            let got = sweep
                .assess_grid_with(&vs, CombinationRule::Any, &exec)
                .expect("assess_grid");
            assert_eq!(got.len(), baseline.len());
            for (point, (fast, slow)) in got.iter().zip(baseline.iter()).enumerate() {
                assert_eq!(
                    fast.decisions, slow.decisions,
                    "{n} workers: grid point {point} (v={})",
                    vs[point]
                );
            }
        }
    });
}

#[test]
fn sweep_grid_matches_full_reruns_of_algorithm_2() {
    // The cached-projection sweep and a fresh CollaborativeScoper::run
    // must agree at every grid point, under the parallel executor.
    run("determinism_sweep_vs_rerun", 2, |g| {
        let sigs = synthetic_sigs(g);
        let sweep = CollaborativeSweep::prepare(&sigs).expect("prepare");
        let vs = [0.9, 0.7, 0.5, 0.3];
        let grid = sweep
            .assess_grid(&vs, CombinationRule::Any)
            .expect("assess_grid");
        for (outcome, &v) in grid.iter().zip(vs.iter()) {
            let rerun = CollaborativeScoper::new(v).run(&sigs).expect("run");
            assert_eq!(outcome.decisions, rerun.outcome.decisions, "v={v}");
        }
    });
}

#[test]
fn global_default_matches_sequential() {
    // The ambient executor (whatever CS_THREADS resolved to in this
    // process) obeys the same contract as the pinned pools.
    run("determinism_global_default", 3, |g| {
        let sigs = synthetic_sigs(g);
        let v = g.f64_in(0.4, 0.9);
        let par = scoper_with(v, ExecPolicy::Global).run(&sigs).expect("run");
        let seq = scoper_with(v, ExecPolicy::Sequential)
            .run(&sigs)
            .expect("run");
        assert_eq!(par.outcome, seq.outcome);
        assert_eq!(par.accept_votes, seq.accept_votes);
        assert_f64_bits_equal(&par.best_margin, &seq.best_margin, "margins");
        assert_eq!(par.cost, seq.cost);
    });
}

#[test]
fn every_solver_is_bit_identical_across_worker_counts() {
    use cs_linalg::{Matrix, PcaSolver, Xoshiro256};
    let pools = pinned_pools();
    // Low-rank-plus-noise schemas large enough (~80 rows) that the
    // truncated solver's subspace iteration actually runs instead of
    // falling back to the exact Gram path; small enough that the FullSvd
    // reference stays fast.
    let mut rng = Xoshiro256::seed_from(0xDE7E12);
    let dim = 96;
    let rank = 10;
    let basis = Matrix::from_fn(rank, dim, |_, _| rng.next_gaussian());
    let mut make = |n: usize| {
        let coeff = Matrix::from_fn(n, rank, |_, j| rng.next_gaussian() / (1.0 + j as f64));
        let mut m = coeff.matmul(&basis);
        for x in m.as_mut_slice() {
            *x += rng.next_gaussian() * 1e-3;
        }
        m
    };
    let sigs = SchemaSignatures::from_matrices(
        vec![make(80), make(72), make(68)],
        vec!["A".into(), "B".into(), "C".into()],
    );
    for solver in [PcaSolver::Auto, PcaSolver::FullSvd, PcaSolver::truncated()] {
        let baseline = CollaborativeScoper::builder()
            .explained_variance(0.6)
            .pca_solver(solver)
            .exec(ExecPolicy::Sequential)
            .build()
            .expect("valid v")
            .run(&sigs)
            .expect("sequential run");
        for (n, pool) in &pools {
            let got = CollaborativeScoper::builder()
                .explained_variance(0.6)
                .pca_solver(solver)
                .exec(ExecPolicy::Pool(Arc::clone(pool)))
                .build()
                .expect("valid v")
                .run(&sigs)
                .expect("pooled run");
            assert_eq!(got.outcome, baseline.outcome, "{solver:?}, {n} workers");
            assert_eq!(got.accept_votes, baseline.accept_votes, "{solver:?}");
            assert_f64_bits_equal(&got.best_margin, &baseline.best_margin, "margins");
        }
        // The sweep's full-rank preparation honors the same pin.
        let seq = CollaborativeSweep::prepare_with_solver(&sigs, &ExecPolicy::Sequential, solver)
            .expect("prepare");
        for (n, pool) in &pools {
            let par = CollaborativeSweep::prepare_with_solver(
                &sigs,
                &ExecPolicy::Pool(Arc::clone(pool)),
                solver,
            )
            .expect("prepare");
            for &v in &[0.9, 0.6, 0.3] {
                assert_eq!(
                    seq.assess_at(v).expect("assess").decisions,
                    par.assess_at(v).expect("assess").decisions,
                    "{solver:?}, {n} workers, v={v}"
                );
            }
        }
    }
}

#[test]
fn worker_panic_surfaces_through_scoper_api() {
    // An empty schema makes LocalModel::train return an error — but a
    // panic *inside* pool workers must also surface as a typed error,
    // not a hang. Drive the pool directly with a panicking payload.
    let pool = ThreadPool::with_threads(2);
    let err = pool
        .run_slots(6, |i| {
            assert!(i != 3, "deliberate panic in worker");
            i
        })
        .map_err(cs_core::ScopingError::from)
        .expect_err("panic must surface");
    assert!(
        matches!(err, cs_core::ScopingError::WorkerPanicked { ref detail } if detail.contains("deliberate")),
        "got {err:?}"
    );
    // The pool remains usable afterwards.
    assert_eq!(pool.run_slots(3, |i| i).expect("healthy"), vec![0, 1, 2]);
}
