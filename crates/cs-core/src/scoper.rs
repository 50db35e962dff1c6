//! The unified [`Scoper`] interface.
//!
//! Every scoping strategy in the workspace — the paper's collaborative
//! scoper (linear and neural) and the global-scoping baseline — answers
//! the same question: *which
//! catalog elements are worth handing to a matcher?* This trait captures
//! that question once, so experiment drivers and downstream pipelines can
//! hold a `&dyn Scoper` and swap strategies without caring how the
//! decisions are produced.

use crate::collaborative::CollaborativeScoper;
use crate::error::ScopingError;
use crate::nonlinear::NeuralCollaborativeScoper;
use crate::outcome::ScopingOutcome;
use crate::scoping::GlobalScoper;
use crate::signatures::SchemaSignatures;
use cs_oda::OutlierDetector;

/// Anything that can turn a signature catalog into keep/prune decisions.
///
/// ```
/// use cs_core::{CollaborativeScoper, Scoper, SchemaSignatures};
/// use cs_linalg::{Matrix, Xoshiro256};
///
/// let mut rng = Xoshiro256::seed_from(5);
/// let mats: Vec<Matrix> =
///     (0..2).map(|_| Matrix::from_fn(8, 6, |_, _| rng.next_gaussian())).collect();
/// let sigs = SchemaSignatures::from_matrices(mats, vec!["A".into(), "B".into()]);
///
/// let scoper: &dyn Scoper = &CollaborativeScoper::new(0.8);
/// let outcome = scoper.scope(&sigs).unwrap();
/// assert_eq!(outcome.len(), 16);
/// ```
pub trait Scoper {
    /// Assesses every element of the catalog, producing keep/prune
    /// decisions in unified element order.
    fn scope(&self, catalog: &SchemaSignatures) -> Result<ScopingOutcome, ScopingError>;
}

impl Scoper for CollaborativeScoper {
    fn scope(&self, catalog: &SchemaSignatures) -> Result<ScopingOutcome, ScopingError> {
        Ok(self.run(catalog)?.outcome)
    }
}

impl Scoper for NeuralCollaborativeScoper {
    fn scope(&self, catalog: &SchemaSignatures) -> Result<ScopingOutcome, ScopingError> {
        Ok(self.run(catalog)?.outcome)
    }
}

impl<D: OutlierDetector> Scoper for GlobalScoper<D> {
    fn scope(&self, catalog: &SchemaSignatures) -> Result<ScopingOutcome, ScopingError> {
        self.scope_at(catalog, self.keep_fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::{Matrix, Xoshiro256};
    use cs_oda::ZScoreDetector;

    fn two_schemas() -> SchemaSignatures {
        let dim = 10;
        let mut rng = Xoshiro256::seed_from(21);
        let basis: Vec<Vec<f64>> = (0..2)
            .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
            .collect();
        let make = |n: usize, rng: &mut Xoshiro256| {
            Matrix::from_rows(
                &(0..n)
                    .map(|_| {
                        let mut row = vec![0.0; dim];
                        for b in &basis {
                            cs_linalg::vecops::axpy(&mut row, rng.next_gaussian(), b);
                        }
                        row
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let a = make(12, &mut rng);
        let b = make(15, &mut rng);
        SchemaSignatures::from_matrices(vec![a, b], vec!["A".into(), "B".into()])
    }

    #[test]
    fn trait_objects_cover_every_strategy() {
        let sigs = two_schemas();
        let collaborative = CollaborativeScoper::new(0.8);
        let global = GlobalScoper::new(ZScoreDetector).with_keep_fraction(0.5);
        let scopers: Vec<&dyn Scoper> = vec![&collaborative, &global];
        for scoper in scopers {
            let outcome = scoper.scope(&sigs).unwrap();
            assert_eq!(outcome.len(), 27);
        }
    }

    #[test]
    fn trait_scope_matches_inherent_run() {
        let sigs = two_schemas();
        let scoper = CollaborativeScoper::new(0.8);
        let via_trait = Scoper::scope(&scoper, &sigs).unwrap();
        let via_run = scoper.run(&sigs).unwrap().outcome;
        assert_eq!(via_trait, via_run);
    }

    #[test]
    fn global_scoper_uses_configured_keep_fraction() {
        let sigs = two_schemas();
        let scoper = GlobalScoper::new(ZScoreDetector).with_keep_fraction(1.0);
        assert_eq!(Scoper::scope(&scoper, &sigs).unwrap().kept_count(), 27);
        let scoper = GlobalScoper::new(ZScoreDetector).with_keep_fraction(0.0);
        assert_eq!(Scoper::scope(&scoper, &sigs).unwrap().kept_count(), 0);
    }
}
