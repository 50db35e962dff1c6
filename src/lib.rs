//! # collaborative-scoping
//!
//! Rust reproduction of *Collaborative Scoping: Self-Supervised Linkability
//! Assessment for Schema Matching* (EDBT 2026).
//!
//! This façade crate re-exports the entire workspace so downstream users can
//! depend on a single crate:
//!
//! - [`linalg`] — dense linear algebra (Matrix, SVD, PCA, seeded PRNG)
//! - [`schema`] — relational schema model, DDL parser, serialization, linkages
//! - [`embed`] — deterministic semantic signature encoder + string similarity
//! - [`nn`] — from-scratch dense autoencoder (baseline ODA)
//! - [`oda`] — outlier detection algorithms (Z-score, LOF, PCA, autoencoder)
//! - [`core`] — scoping + collaborative scoping (the paper's contribution)
//! - [`matching`] — SIM / CLUSTER / LSH matchers for the ablation study
//! - [`metrics`] — ROC / PR / AUC / PQ / PC / F1 / RR evaluation metrics
//! - [`datasets`] — the OC3 and OC3-FO evaluation datasets
//!
//! ## Quickstart
//!
//! ```
//! use collaborative_scoping::prelude::*;
//!
//! // Load the paper's domain-specific dataset: three order-customer schemas.
//! let dataset = collaborative_scoping::datasets::oc3();
//! // Encode every table/attribute into a 768-d signature (phase I).
//! let encoder = SignatureEncoder::default();
//! let signatures = encode_catalog(&encoder, &dataset.catalog);
//! // Train one local encoder-decoder per schema (phase II) and assess
//! // linkability collaboratively (phase III) at explained variance 0.8.
//! let scoper = CollaborativeScoper::new(0.8);
//! let run = scoper.run(&signatures).unwrap();
//! let streamlined = run.outcome.streamlined(&dataset.catalog);
//! assert!(streamlined.element_count() <= dataset.catalog.element_count());
//! ```

pub use cs_core as core;
pub use cs_datasets as datasets;
pub use cs_embed as embed;
pub use cs_linalg as linalg;
pub use cs_match as matching;
pub use cs_metrics as metrics;
pub use cs_nn as nn;
pub use cs_oda as oda;
pub use cs_schema as schema;

/// Convenience re-exports of the most commonly used types — everything the
/// quickstart pipeline touches, one `use collaborative_scoping::prelude::*;`
/// away.
pub mod prelude {
    pub use cs_core::exchange::{from_bytes, from_json, to_bytes, to_json, to_model};
    pub use cs_core::{
        encode_catalog, encode_catalog_with, CollaborativeScoper, CollaborativeScoperBuilder,
        CollaborativeSweep, CombinationRule, ExchangeError, GlobalScoper, LocalAssessor,
        LocalModel, ModelEnvelope, NeuralCollaborativeScoper, SchemaSignatures, Scoper,
        ScopingError, ScopingOutcome,
    };
    pub use cs_datasets::{oc3, oc3_fo, Dataset};
    pub use cs_embed::{EncoderConfig, SignatureEncoder};
    pub use cs_linalg::{
        total_cmp_f64, ExplainedVariance, Matrix, Pca, PcaConfig, PcaRehydrateError, PcaSolver,
        PcaTarget,
    };
    pub use cs_match::{
        dedup_pairs, AnnConfig, AnnMatcher, AnnSimMatcher, ClusterMatcher, ElementSet,
        HybridMatcher, LshMatcher, Matcher, NamedSet, SimMatcher,
    };
    pub use cs_metrics::{match_quality, BinaryConfusion, MatchQuality, SweepCurve};
    pub use cs_oda::{OutlierDetector, PcaDetector, ZScoreDetector};
    pub use cs_schema::{
        parse_schema, Attribute, Catalog, ElementId, LinkageSet, Schema, SerializeOptions, Table,
    };
}
