//! # cs-core
//!
//! The paper's contribution: **collaborative scoping** — self-supervised
//! linkability assessment for multi-source schema matching — plus the
//! **global scoping** baseline it is evaluated against.
//!
//! Pipeline (Figure 4 of the paper):
//!
//! 1. **(I) Local signatures** — [`encode_catalog`] serializes every table
//!    and attribute (`T^a` / `T^t`) and encodes them into per-schema
//!    signature matrices ([`SchemaSignatures`]).
//! 2. **(II) Local self-supervised models** — [`LocalModel::train`]
//!    (Algorithm 1) fits a PCA encoder–decoder per schema at a global
//!    explained variance `v` and derives the **local linkability range**
//!    `l_k` (Definition 3).
//! 3. **(III) Local linkability assessment** — [`CollaborativeScoper::run`]
//!    (Algorithm 2) reconstructs each schema's signatures through every
//!    *other* schema's model; elements recognized by at least one foreign
//!    model (Definition 4) survive into the streamlined schemas `S'`.
//!    The vote is cast in one kernel, [`assess::assess`], behind the
//!    [`LocalAssessor`] trait that PCA and neural models share.
//!
//! The baseline [`GlobalScoper`] ranks the unified signature set with a
//! single outlier detector and keeps the lowest-scoring `p` fraction
//! (Section 2.4). [`CollaborativeSweep`] evaluates the whole `v ∈ (1..0)`
//! grid efficiently: it caches, per element and foreign model, one
//! acceptance bit per retained-component count.

pub mod assess;
pub mod collaborative;
pub mod error;
pub mod exchange;
pub mod json;
pub mod local_model;
pub mod nonlinear;
pub mod outcome;
/// The deterministic chunk-deal runtime (DESIGN.md §8), re-exported from
/// [`cs_linalg::pool`] together with the sanitizer its lock sites record
/// into.
pub mod pool {
    pub use cs_linalg::pool::*;
    pub use cs_linalg::sanitize;
}
pub mod scoper;
pub mod scoping;
pub mod signatures;
pub mod sweep;

pub use assess::LocalAssessor;
pub use collaborative::{
    CollaborativeScoper, CollaborativeScoperBuilder, CombinationRule, CostReport,
};
pub use error::ScopingError;
pub use exchange::{ExchangeError, ModelEnvelope};
pub use local_model::LocalModel;
pub use nonlinear::{NeuralCollaborativeScoper, NeuralLocalModel};
pub use outcome::{DegradedSchema, ScopingOutcome};
pub use pool::{ExecPolicy, ThreadPool};
pub use scoper::Scoper;
pub use scoping::GlobalScoper;
pub use signatures::{encode_catalog, encode_catalog_with, SchemaSignatures};
pub use sweep::CollaborativeSweep;
