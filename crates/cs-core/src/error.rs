//! Typed errors for the scoping pipeline.

use cs_linalg::pool::WorkerPanicked;
use cs_linalg::{PcaRehydrateError, SvdError};

/// Errors surfaced by scoping and collaborative scoping.
#[derive(Debug, Clone, PartialEq)]
pub enum ScopingError {
    /// A schema has no elements — a local model cannot be trained on it.
    EmptySchema {
        /// Index of the offending schema in the catalog.
        schema: usize,
    },
    /// A schema has too few elements to train a meaningful local model:
    /// a single signature centers to the zero vector, its PCA carries no
    /// variance, and the linkability range `l_k` collapses to 0.
    DegenerateSchema {
        /// Index of the offending schema in the catalog.
        schema: usize,
        /// How many elements it has.
        elements: usize,
    },
    /// A signature contains a NaN or infinite entry; reconstruction
    /// errors computed from it would silently poison every decision.
    NonFiniteSignature {
        /// Index of the offending schema in the catalog.
        schema: usize,
        /// Row (element index within the schema) of the first offender.
        element: usize,
    },
    /// A schema's signatures carry no variance at all (e.g. every
    /// signature is identical), so its local model would accept only
    /// exact copies — a garbage linkability range, not a model.
    RankDeficient {
        /// Index of the offending schema in the catalog.
        schema: usize,
    },
    /// Collaborative scoping needs at least two schemas (there is no
    /// "other" model to assess against otherwise).
    TooFewSchemas {
        /// Number of schemas found.
        found: usize,
    },
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The explained-variance knob `v` was outside `(0, 1]`.
    InvalidVariance {
        /// Offending value.
        value: f64,
    },
    /// Numerical decomposition failed.
    Svd(SvdError),
    /// A PCA received over the wire failed shape validation on
    /// rehydration (`Pca::from_parts`).
    PcaRehydrate(PcaRehydrateError),
    /// A closure dispatched to the parallel runtime panicked; the panic
    /// was caught inside the worker and surfaced here instead of
    /// poisoning or hanging the pool.
    WorkerPanicked {
        /// The panic payload, stringified.
        detail: String,
    },
}

impl std::fmt::Display for ScopingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScopingError::EmptySchema { schema } => {
                write!(
                    f,
                    "schema #{schema} has no elements to train a local model on"
                )
            }
            ScopingError::DegenerateSchema { schema, elements } => {
                write!(
                    f,
                    "schema #{schema} has only {elements} element(s) — too few to train a local model"
                )
            }
            ScopingError::NonFiniteSignature { schema, element } => {
                write!(
                    f,
                    "schema #{schema}, element #{element}: signature contains a NaN/inf entry"
                )
            }
            ScopingError::RankDeficient { schema } => {
                write!(
                    f,
                    "schema #{schema} is rank-deficient: its signatures carry no variance"
                )
            }
            ScopingError::TooFewSchemas { found } => {
                write!(f, "collaborative scoping needs ≥ 2 schemas, found {found}")
            }
            ScopingError::InvalidParameter { name, value } => {
                write!(f, "parameter {name} = {value} is out of range")
            }
            ScopingError::InvalidVariance { value } => {
                write!(f, "explained variance v = {value} must lie in (0, 1]")
            }
            ScopingError::Svd(e) => write!(f, "decomposition failed: {e}"),
            ScopingError::PcaRehydrate(e) => write!(f, "malformed PCA model: {e}"),
            ScopingError::WorkerPanicked { detail } => {
                write!(f, "a parallel worker panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for ScopingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScopingError::Svd(e) => Some(e),
            ScopingError::PcaRehydrate(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SvdError> for ScopingError {
    fn from(e: SvdError) -> Self {
        ScopingError::Svd(e)
    }
}

impl From<PcaRehydrateError> for ScopingError {
    fn from(e: PcaRehydrateError) -> Self {
        ScopingError::PcaRehydrate(e)
    }
}

impl From<WorkerPanicked> for ScopingError {
    fn from(e: WorkerPanicked) -> Self {
        ScopingError::WorkerPanicked { detail: e.detail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ScopingError::EmptySchema { schema: 2 }
            .to_string()
            .contains("#2"));
        assert!(ScopingError::TooFewSchemas { found: 1 }
            .to_string()
            .contains("found 1"));
        assert!(ScopingError::InvalidParameter {
            name: "p",
            value: 1.5
        }
        .to_string()
        .contains("p = 1.5"));
        assert!(ScopingError::InvalidVariance { value: 1.5 }
            .to_string()
            .contains("v = 1.5"));
        assert!(ScopingError::DegenerateSchema {
            schema: 3,
            elements: 1
        }
        .to_string()
        .contains("only 1 element"));
        assert!(ScopingError::NonFiniteSignature {
            schema: 1,
            element: 7
        }
        .to_string()
        .contains("element #7"));
        assert!(ScopingError::RankDeficient { schema: 5 }
            .to_string()
            .contains("rank-deficient"));
        let svd: ScopingError = SvdError::EmptyMatrix.into();
        assert!(svd.to_string().contains("decomposition"));
        let rehydrate: ScopingError = PcaRehydrateError::EmptyComponents.into();
        assert_eq!(
            rehydrate.to_string(),
            "malformed PCA model: a PCA needs at least one component"
        );
        let panicked: ScopingError = WorkerPanicked {
            detail: "boom".into(),
        }
        .into();
        assert_eq!(panicked.to_string(), "a parallel worker panicked: boom");
    }

    #[test]
    fn source_chains_for_svd() {
        use std::error::Error;
        let e: ScopingError = SvdError::NonFiniteInput.into();
        assert!(e.source().is_some());
        let e: ScopingError = PcaRehydrateError::EmptyComponents.into();
        assert!(e.source().is_some());
        assert!(ScopingError::EmptySchema { schema: 0 }.source().is_none());
    }
}
