//! Error-path coverage: every [`ScopingError`] variant reached through a
//! PUBLIC entry point, with its full `Display` rendering pinned.
//!
//! The pinned strings are a contract: harness reports (`cs-fault`),
//! degraded-schema records and operator logs all print these messages,
//! and the fault matrix digests them — rewording an error is a visible,
//! reviewed change, not an accident.

use std::sync::Arc;

use collaborative_scoping::core::{pool::fault, CollaborativeSweep, ExecPolicy, ThreadPool};
use collaborative_scoping::linalg::Xoshiro256;
use collaborative_scoping::prelude::*;

/// A healthy 3-schema catalog of gaussian signatures.
fn healthy_sigs() -> SchemaSignatures {
    let mut rng = Xoshiro256::seed_from(0xE2202);
    let mats: Vec<Matrix> = [5usize, 6, 4]
        .iter()
        .map(|&n| Matrix::from_fn(n, 4, |_, _| rng.next_gaussian()))
        .collect();
    SchemaSignatures::from_matrices(mats, vec!["A".into(), "B".into(), "C".into()])
}

/// Replaces schema `k` of a healthy catalog with `replacement`.
fn with_schema(k: usize, replacement: Matrix) -> SchemaSignatures {
    let base = healthy_sigs();
    let mats: Vec<Matrix> = (0..base.schema_count())
        .map(|m| {
            if m == k {
                replacement.clone()
            } else {
                base.schema(m).clone()
            }
        })
        .collect();
    SchemaSignatures::from_matrices(mats, base.schema_names().to_vec())
}

#[test]
fn empty_schema_through_collaborative_run() {
    let sigs = with_schema(1, Matrix::zeros(0, 4));
    let err = CollaborativeScoper::new(0.9).run(&sigs).unwrap_err();
    assert_eq!(err, ScopingError::EmptySchema { schema: 1 });
    assert_eq!(
        err.to_string(),
        "schema #1 has no elements to train a local model on"
    );
}

#[test]
fn degenerate_schema_through_collaborative_run() {
    let sigs = with_schema(2, Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]));
    let err = CollaborativeScoper::new(0.9).run(&sigs).unwrap_err();
    assert_eq!(
        err,
        ScopingError::DegenerateSchema {
            schema: 2,
            elements: 1
        }
    );
    assert_eq!(
        err.to_string(),
        "schema #2 has only 1 element(s) — too few to train a local model"
    );
}

#[test]
fn non_finite_signature_through_collaborative_run() {
    let base = healthy_sigs();
    let mut poisoned = base.schema(1).clone();
    poisoned[(3, 2)] = f64::NAN;
    let sigs = with_schema(1, poisoned);
    let err = CollaborativeScoper::new(0.9).run(&sigs).unwrap_err();
    assert_eq!(
        err,
        ScopingError::NonFiniteSignature {
            schema: 1,
            element: 3
        }
    );
    assert_eq!(
        err.to_string(),
        "schema #1, element #3: signature contains a NaN/inf entry"
    );
}

#[test]
fn rank_deficient_through_collaborative_run() {
    let row = vec![2.0, -1.0, 0.5, 3.0];
    let sigs = with_schema(0, Matrix::from_rows(&vec![row; 5]));
    let err = CollaborativeScoper::new(0.9).run(&sigs).unwrap_err();
    assert_eq!(err, ScopingError::RankDeficient { schema: 0 });
    assert_eq!(
        err.to_string(),
        "schema #0 is rank-deficient: its signatures carry no variance"
    );
}

#[test]
fn too_few_schemas_through_sweep_prepare() {
    let one =
        SchemaSignatures::from_matrices(vec![healthy_sigs().schema(0).clone()], vec!["A".into()]);
    let err = CollaborativeSweep::prepare(&one).unwrap_err();
    assert_eq!(err, ScopingError::TooFewSchemas { found: 1 });
    assert_eq!(
        err.to_string(),
        "collaborative scoping needs ≥ 2 schemas, found 1"
    );
}

#[test]
fn invalid_parameter_through_global_scoper() {
    let sigs = healthy_sigs();
    let err = GlobalScoper::new(ZScoreDetector)
        .scope_at(&sigs, 1.5)
        .unwrap_err();
    assert_eq!(
        err,
        ScopingError::InvalidParameter {
            name: "p",
            value: 1.5
        }
    );
    assert_eq!(err.to_string(), "parameter p = 1.5 is out of range");
}

#[test]
fn invalid_variance_through_builder_and_sweep() {
    let err = CollaborativeScoper::builder()
        .explained_variance(0.0)
        .build()
        .unwrap_err();
    assert_eq!(err, ScopingError::InvalidVariance { value: 0.0 });
    assert_eq!(
        err.to_string(),
        "explained variance v = 0 must lie in (0, 1]"
    );

    // Same guard on the sweep's pointwise and grid entry points.
    let sweep = CollaborativeSweep::prepare(&healthy_sigs()).unwrap();
    assert_eq!(
        sweep.assess_at(0.0).unwrap_err(),
        ScopingError::InvalidVariance { value: 0.0 }
    );
    let nan = sweep.assess_at(f64::NAN).unwrap_err();
    assert!(matches!(nan, ScopingError::InvalidVariance { .. }));
}

#[test]
fn svd_error_through_local_model_train() {
    let ev = ExplainedVariance::new(0.9).unwrap();
    let err = LocalModel::train(0, &Matrix::zeros(2, 0), ev).unwrap_err();
    assert_eq!(
        err,
        ScopingError::Svd(collaborative_scoping::linalg::SvdError::EmptyMatrix)
    );
    assert_eq!(
        err.to_string(),
        "decomposition failed: cannot decompose an empty matrix"
    );
    // The source chain reaches the linalg layer.
    use std::error::Error;
    assert!(err.source().is_some());
}

#[test]
fn pca_rehydrate_errors_through_from_parts() {
    // The three typed rehydration failures, Display-pinned: exchange
    // payload diagnostics print these verbatim.
    let err = Pca::from_parts(vec![0.0; 3], Matrix::zeros(1, 2), vec![1.0], vec![1.0]).unwrap_err();
    assert_eq!(
        err,
        PcaRehydrateError::ShapeMismatch {
            component_width: 2,
            mean_len: 3
        }
    );
    assert_eq!(
        err.to_string(),
        "component width 2 does not match mean length 3"
    );

    let err = Pca::from_parts(vec![0.0; 2], Matrix::zeros(0, 2), vec![], vec![]).unwrap_err();
    assert_eq!(err, PcaRehydrateError::EmptyComponents);
    assert_eq!(err.to_string(), "a PCA needs at least one component");

    let err = Pca::from_parts(
        vec![0.0; 2],
        Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]),
        vec![1.0],
        vec![1.0, 0.5],
    )
    .unwrap_err();
    assert_eq!(
        err,
        PcaRehydrateError::ShortSpectrum {
            ratios: 1,
            singular_values: 2,
            components: 2
        }
    );
    assert_eq!(
        err.to_string(),
        "spectrum bookkeeping (1 ratios, 2 singular values) shorter than 2 components"
    );

    // The ScopingError conversion wraps the typed cause and chains it as
    // the source.
    let wrapped: ScopingError = PcaRehydrateError::EmptyComponents.into();
    assert_eq!(
        wrapped.to_string(),
        "malformed PCA model: a PCA needs at least one component"
    );
    use std::error::Error;
    assert!(wrapped.source().is_some());
}

#[test]
fn worker_panicked_through_pooled_run() {
    let pool = Arc::new(ThreadPool::with_threads(2));
    let tag = pool.tag();
    let _armed = fault::armed(move |site| {
        if site.pool == Some(tag) && site.chunk == 0 {
            panic!("injected fault: error-path coverage");
        }
    });
    let err = CollaborativeScoper::builder()
        .explained_variance(0.9)
        .exec(ExecPolicy::Pool(pool))
        .build()
        .unwrap()
        .run(&healthy_sigs())
        .unwrap_err();
    assert_eq!(
        err,
        ScopingError::WorkerPanicked {
            detail: "injected fault: error-path coverage".into()
        }
    );
    assert_eq!(
        err.to_string(),
        "a parallel worker panicked: injected fault: error-path coverage"
    );
}

/// Every [`SyntheticError`] variant reached through `try_generate`, with
/// its `Display` rendering pinned — generator config errors are operator
/// output too.
#[test]
fn synthetic_config_errors_pin_their_display() {
    use collaborative_scoping::datasets::synthetic::{
        try_generate, SizeDistribution, SyntheticConfig, SyntheticError,
    };

    let base = SyntheticConfig::default();
    let err = |c: SyntheticConfig| try_generate(&c).unwrap_err();

    let zero_schemas = err(SyntheticConfig {
        schemas: 0,
        ..base.clone()
    });
    assert_eq!(zero_schemas, SyntheticError::ZeroSchemas);
    assert_eq!(
        zero_schemas.to_string(),
        "synthetic config needs at least one schema"
    );

    let zero_width = err(SyntheticConfig {
        table_width: 0,
        ..base.clone()
    });
    assert_eq!(zero_width, SyntheticError::ZeroTableWidth);
    assert_eq!(
        zero_width.to_string(),
        "synthetic tables need room for at least one attribute"
    );

    let exceed = err(SyntheticConfig {
        shared_concepts: 6,
        concepts_per_schema: 9,
        ..base.clone()
    });
    assert_eq!(
        exceed,
        SyntheticError::ConceptsExceedPool {
            concepts: 9,
            pool: 6
        }
    );
    assert_eq!(
        exceed.to_string(),
        "cannot materialize more concepts than the pool holds (9 per schema > pool of 6)"
    );

    let ratio = err(SyntheticConfig {
        linkable_ratio: Some(1.5),
        ..base.clone()
    });
    assert_eq!(ratio, SyntheticError::InvalidRatio(1.5));
    assert_eq!(ratio.to_string(), "linkable_ratio 1.5 is outside [0, 1]");

    let overlap = err(SyntheticConfig {
        lexicon_overlap: -0.25,
        ..base.clone()
    });
    assert_eq!(overlap, SyntheticError::InvalidOverlap(-0.25));
    assert_eq!(
        overlap.to_string(),
        "lexicon_overlap -0.25 is outside [0, 1]"
    );

    let noise = err(SyntheticConfig {
        naming_noise: 2.0,
        ..base.clone()
    });
    assert_eq!(noise, SyntheticError::InvalidNoise(2.0));
    assert_eq!(noise.to_string(), "naming_noise 2 is outside [0, 1]");

    let range = err(SyntheticConfig {
        sizes: SizeDistribution::Uniform { min: 9, max: 4 },
        ..base.clone()
    });
    assert_eq!(range, SyntheticError::InvalidSizeRange { min: 9, max: 4 });
    assert_eq!(
        range.to_string(),
        "size distribution range [9, 4] is empty or starts at zero"
    );

    let region = err(SyntheticConfig {
        linkable_ratio: Some(0.9),
        lexicon_overlap: 0.0,
        ..base.clone()
    });
    assert_eq!(
        region,
        SyntheticError::RegionTooSmall {
            schema: 0,
            need: 32,
            have: 10
        }
    );
    assert_eq!(
        region.to_string(),
        "schema #0 needs 32 concept picks but its accessible pool region holds only 10"
    );

    // The typed error is a std::error::Error with no deeper source.
    use std::error::Error;
    assert!(region.source().is_none());
}
