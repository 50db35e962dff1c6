//! Phase II + III end-to-end: **collaborative scoping** (Algorithm 2).
//!
//! Each schema trains its own [`LocalModel`]; models — not data — are
//! exchanged. A schema's element is kept when at least one *foreign* model
//! reconstructs it within that model's local linkability range
//! (Definition 4), decided by the one kernel in [`crate::assess`].
//! Training and assessment are embarrassingly parallel per schema,
//! mirroring the paper's distributed deployment; the implementation fans
//! out on the deterministic chunk-deal pool of [`crate::pool`], whose slot
//! assembly keeps parallel output bit-identical to the sequential path.

use crate::assess::assess;
use crate::error::ScopingError;
use crate::local_model::LocalModel;
use crate::outcome::ScopingOutcome;
use crate::pool::ExecPolicy;
use crate::signatures::SchemaSignatures;
use cs_linalg::pca::ExplainedVariance;

/// How the verdicts of the foreign models are combined. The paper uses
/// [`CombinationRule::Any`]; the others exist for the ablation study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinationRule {
    /// Linkable if ANY foreign model accepts (the paper's rule).
    Any,
    /// Linkable only if EVERY foreign model accepts.
    All,
    /// Linkable if at least `k` foreign models accept.
    AtLeast(usize),
}

impl CombinationRule {
    /// Applies the rule given `accepts` votes out of `total` foreign models.
    pub fn decide(self, accepts: usize, total: usize) -> bool {
        match self {
            CombinationRule::Any => accepts >= 1,
            CombinationRule::All => accepts == total && total > 0,
            CombinationRule::AtLeast(k) => accepts >= k,
        }
    }
}

/// Cost accounting for the pre-processing trade-off discussion (§4.4):
/// how many encoder–decoder pass operations collaborative scoping spends,
/// compared against the Cartesian pair count a matcher would face.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostReport {
    /// Total `(element, foreign model)` reconstruction passes — `|S|·|M|`.
    pub pass_operations: usize,
    /// Number of local models trained (= number of schemas).
    pub models_trained: usize,
}

impl CostReport {
    /// Pass operations as a fraction of a pairwise comparison count
    /// (e.g. the catalog's Cartesian element pairs).
    pub fn fraction_of(&self, pair_comparisons: usize) -> f64 {
        if pair_comparisons == 0 {
            return 0.0;
        }
        self.pass_operations as f64 / pair_comparisons as f64
    }
}

/// Result of one collaborative run: the outcome plus diagnostics. `M` is
/// the local model kind (PCA by default, or
/// [`crate::NeuralLocalModel`]).
#[derive(Debug, Clone)]
pub struct CollaborativeRun<M = LocalModel> {
    /// Keep/prune decisions.
    pub outcome: ScopingOutcome,
    /// Per element (unified order): how many foreign models accepted it.
    pub accept_votes: Vec<usize>,
    /// Per element: the minimum reconstruction error over foreign models
    /// relative to that model's range (`err − l_m`); negative = accepted by
    /// that model. Useful for diagnosing near-misses.
    pub best_margin: Vec<f64>,
    /// The local models (`M_1 … M_k`), in schema order.
    pub models: Vec<M>,
    /// Cost accounting.
    pub cost: CostReport,
}

/// Configures a [`CollaborativeScoper`], validating up front.
///
/// ```
/// use cs_core::collaborative::{CollaborativeScoper, CombinationRule};
/// use cs_core::ExecPolicy;
///
/// let scoper = CollaborativeScoper::builder()
///     .explained_variance(0.85)
///     .combination(CombinationRule::Any)
///     .exec(ExecPolicy::Global)
///     .build()
///     .unwrap();
/// assert_eq!(scoper.variance(), 0.85);
/// ```
#[derive(Debug, Clone)]
pub struct CollaborativeScoperBuilder {
    v: f64,
    rule: CombinationRule,
    exec: ExecPolicy,
}

impl CollaborativeScoperBuilder {
    /// Sets the global explained-variance knob `v ∈ (0, 1]`.
    pub fn explained_variance(mut self, v: f64) -> Self {
        self.v = v;
        self
    }

    /// Sets how foreign-model verdicts are combined.
    pub fn combination(mut self, rule: CombinationRule) -> Self {
        self.rule = rule;
        self
    }

    /// Where training and assessment run: the shared pool
    /// ([`ExecPolicy::Global`], the default), inline on the caller thread
    /// ([`ExecPolicy::Sequential`]) or a caller-owned pool (e.g. to pin an
    /// exact worker count in a determinism test). Every policy gives
    /// bit-identical results.
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Validates the configuration; an out-of-range `v` is
    /// [`ScopingError::InvalidVariance`], never a panic.
    pub fn build(self) -> Result<CollaborativeScoper, ScopingError> {
        if ExplainedVariance::new(self.v).is_none() {
            return Err(ScopingError::InvalidVariance { value: self.v });
        }
        Ok(CollaborativeScoper {
            v: self.v,
            rule: self.rule,
            exec: self.exec,
        })
    }
}

/// The collaborative scoper: one global explained-variance knob.
#[derive(Debug, Clone)]
pub struct CollaborativeScoper {
    v: f64,
    rule: CombinationRule,
    exec: ExecPolicy,
}

impl CollaborativeScoper {
    /// Creates a scoper at explained variance `v ∈ (0, 1]` with the paper's
    /// ANY-model combination rule. Validation happens in [`Self::run`];
    /// use [`Self::builder`] to validate up front.
    pub fn new(v: f64) -> Self {
        Self {
            v,
            rule: CombinationRule::Any,
            exec: ExecPolicy::Global,
        }
    }

    /// Starts building a scoper with validated configuration.
    pub fn builder() -> CollaborativeScoperBuilder {
        CollaborativeScoperBuilder {
            v: 0.8,
            rule: CombinationRule::Any,
            exec: ExecPolicy::Global,
        }
    }

    /// Overrides the combination rule (ablation).
    pub fn with_rule(mut self, rule: CombinationRule) -> Self {
        self.rule = rule;
        self
    }

    /// The configured explained variance.
    pub fn variance(&self) -> f64 {
        self.v
    }

    /// Trains one local model per schema, in parallel (phase II for the
    /// whole catalog).
    pub fn train_models(
        &self,
        signatures: &SchemaSignatures,
    ) -> Result<Vec<LocalModel>, ScopingError> {
        let v = ExplainedVariance::new(self.v)
            .ok_or(ScopingError::InvalidVariance { value: self.v })?;
        let k = signatures.schema_count();
        if k < 2 {
            return Err(ScopingError::TooFewSchemas { found: k });
        }
        let sigs = signatures.clone(); // Arc bump, not a data copy
        self.exec
            .run_slots(k, move |idx| LocalModel::train(idx, sigs.schema(idx), v))?
            .into_iter()
            .collect()
    }

    /// Runs the full collaborative assessment (Algorithm 2 per schema):
    /// trains the local models, then hands them to [`assess`].
    pub fn run(&self, signatures: &SchemaSignatures) -> Result<CollaborativeRun, ScopingError> {
        let models = self.train_models(signatures)?;
        assess(
            signatures,
            models,
            self.rule,
            &self.exec,
            format!("Collaborative[PCA] v={}", self.v),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::{Matrix, Xoshiro256};

    /// Builds schemas living on a shared subspace plus one schema on a
    /// disjoint subspace — a miniature OC3-FO.
    fn shared_and_disjoint() -> SchemaSignatures {
        let dim = 16;
        let mut rng = Xoshiro256::seed_from(42);
        let shared: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
            .collect();
        let alien: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
            .collect();
        let make = |basis: &[Vec<f64>], n: usize, rng: &mut Xoshiro256| {
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let mut row = vec![0.0; dim];
                    for b in basis {
                        cs_linalg::vecops::axpy(&mut row, rng.next_gaussian(), b);
                    }
                    row
                })
                .collect();
            Matrix::from_rows(&rows)
        };
        let s1 = make(&shared, 12, &mut rng);
        let s2 = make(&shared, 15, &mut rng);
        let s3 = make(&alien, 20, &mut rng);
        SchemaSignatures::from_matrices(
            vec![s1, s2, s3],
            vec!["A".into(), "B".into(), "ALIEN".into()],
        )
    }

    #[test]
    fn shared_subspace_schemas_accept_each_other_alien_is_pruned() {
        let sigs = shared_and_disjoint();
        let run = CollaborativeScoper::new(0.9).run(&sigs).unwrap();
        let kept_a = run.outcome.kept_in_schema(0);
        let kept_b = run.outcome.kept_in_schema(1);
        let kept_alien = run.outcome.kept_in_schema(2);
        assert!(kept_a >= 10, "A kept {kept_a}/12");
        assert!(kept_b >= 12, "B kept {kept_b}/15");
        assert!(kept_alien <= 4, "alien kept {kept_alien}/20");
    }

    #[test]
    fn cost_report_counts_passes() {
        let sigs = shared_and_disjoint();
        let run = CollaborativeScoper::new(0.8).run(&sigs).unwrap();
        // 47 elements × 2 foreign models.
        assert_eq!(run.cost.pass_operations, 47 * 2);
        assert_eq!(run.cost.models_trained, 3);
        assert!((run.cost.fraction_of(470) - 0.2).abs() < 1e-12);
        assert_eq!(run.cost.fraction_of(0), 0.0);
    }

    #[test]
    fn votes_and_margins_are_consistent_with_decisions() {
        let sigs = shared_and_disjoint();
        let run = CollaborativeScoper::new(0.7).run(&sigs).unwrap();
        crate::assess::assert_kernel_contract(&sigs, run.models);
    }

    #[test]
    fn combination_rules() {
        assert!(CombinationRule::Any.decide(1, 3));
        assert!(!CombinationRule::Any.decide(0, 3));
        assert!(CombinationRule::All.decide(3, 3));
        assert!(!CombinationRule::All.decide(2, 3));
        assert!(!CombinationRule::All.decide(0, 0));
        assert!(CombinationRule::AtLeast(2).decide(2, 3));
        assert!(!CombinationRule::AtLeast(2).decide(1, 3));
    }

    #[test]
    fn all_rule_is_stricter_than_any() {
        let sigs = shared_and_disjoint();
        let any = CollaborativeScoper::new(0.8).run(&sigs).unwrap();
        let all = CollaborativeScoper::new(0.8)
            .with_rule(CombinationRule::All)
            .run(&sigs)
            .unwrap();
        assert!(all.outcome.kept_count() <= any.outcome.kept_count());
        assert!(all.outcome.kept().is_subset(&any.outcome.kept()));
    }

    #[test]
    fn invalid_variance_is_typed_error() {
        let sigs = shared_and_disjoint();
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = CollaborativeScoper::new(bad).run(&sigs).unwrap_err();
            assert!(matches!(err, ScopingError::InvalidVariance { .. }), "{bad}");
        }
    }

    #[test]
    fn builder_validates_variance_up_front() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = CollaborativeScoper::builder()
                .explained_variance(bad)
                .build()
                .unwrap_err();
            assert!(matches!(err, ScopingError::InvalidVariance { .. }), "{bad}");
        }
        let built = CollaborativeScoper::builder()
            .explained_variance(0.9)
            .combination(CombinationRule::AtLeast(2))
            .exec(ExecPolicy::Sequential)
            .build()
            .unwrap();
        assert_eq!(built.variance(), 0.9);
    }

    #[test]
    fn sequential_mode_matches_parallel_exactly() {
        let sigs = shared_and_disjoint();
        let par = CollaborativeScoper::builder()
            .explained_variance(0.8)
            .build()
            .unwrap()
            .run(&sigs)
            .unwrap();
        let seq = CollaborativeScoper::builder()
            .explained_variance(0.8)
            .exec(ExecPolicy::Sequential)
            .build()
            .unwrap()
            .run(&sigs)
            .unwrap();
        assert_eq!(par.outcome, seq.outcome);
        assert_eq!(par.accept_votes, seq.accept_votes);
        assert_eq!(par.best_margin, seq.best_margin);
    }

    #[test]
    fn single_schema_is_typed_error() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let sigs = SchemaSignatures::from_matrices(vec![m], vec!["only".into()]);
        let err = CollaborativeScoper::new(0.8).run(&sigs).unwrap_err();
        assert_eq!(err, ScopingError::TooFewSchemas { found: 1 });
    }

    #[test]
    fn empty_schema_is_typed_error() {
        let m1 = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0], vec![0.5, 0.5]]);
        let m2 = Matrix::zeros(0, 2);
        let sigs = SchemaSignatures::from_matrices(vec![m1, m2], vec!["a".into(), "b".into()]);
        let err = CollaborativeScoper::new(0.8).run(&sigs).unwrap_err();
        assert_eq!(err, ScopingError::EmptySchema { schema: 1 });
    }

    #[test]
    fn singleton_schema_is_typed_error() {
        let m1 = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0], vec![0.5, 0.5]]);
        let m2 = Matrix::from_rows(&[vec![3.0, 3.0]]);
        let sigs = SchemaSignatures::from_matrices(vec![m1, m2], vec!["a".into(), "b".into()]);
        let err = CollaborativeScoper::new(0.8).run(&sigs).unwrap_err();
        assert_eq!(
            err,
            ScopingError::DegenerateSchema {
                schema: 1,
                elements: 1
            }
        );
    }

    #[test]
    fn nan_signature_is_typed_error_through_run() {
        let mut sigs_base = shared_and_disjoint();
        let mut poisoned = sigs_base.schema(1).clone();
        poisoned[(4, 2)] = f64::NAN;
        let mats: Vec<Matrix> = (0..sigs_base.schema_count())
            .map(|m| {
                if m == 1 {
                    poisoned.clone()
                } else {
                    sigs_base.schema(m).clone()
                }
            })
            .collect();
        sigs_base = SchemaSignatures::from_matrices(mats, sigs_base.schema_names().to_vec());
        let err = CollaborativeScoper::new(0.8).run(&sigs_base).unwrap_err();
        assert_eq!(
            err,
            ScopingError::NonFiniteSignature {
                schema: 1,
                element: 4
            }
        );
    }

    #[test]
    fn constant_schema_is_rank_deficient_through_run() {
        let m1 = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0], vec![0.5, 0.5]]);
        let m2 = Matrix::from_rows(&vec![vec![7.0, 7.0]; 5]);
        let sigs = SchemaSignatures::from_matrices(vec![m1, m2], vec!["a".into(), "b".into()]);
        let err = CollaborativeScoper::new(0.8).run(&sigs).unwrap_err();
        assert_eq!(err, ScopingError::RankDeficient { schema: 1 });
    }

    #[test]
    fn builder_accepts_exact_boundary_v() {
        // v = 1.0 is the inclusive upper bound of (0, 1] and must stay
        // valid; v = 0.0 is excluded and must stay a typed error.
        let full = CollaborativeScoper::builder()
            .explained_variance(1.0)
            .build()
            .unwrap();
        assert_eq!(full.variance(), 1.0);
        let run = full.run(&shared_and_disjoint()).unwrap();
        assert!(!run.outcome.is_empty());
        let err = CollaborativeScoper::builder()
            .explained_variance(0.0)
            .build()
            .unwrap_err();
        assert_eq!(err, ScopingError::InvalidVariance { value: 0.0 });
    }

    #[test]
    fn two_element_schemas_survive_full_variance() {
        // A 2-element schema retains at most 1 effective component after
        // centering; even at v = 1.0 that must train (or fail typed),
        // never panic or demand more components than elements.
        let m1 = Matrix::from_rows(&[vec![1.0, 0.0, 0.5], vec![0.0, 1.0, -0.5]]);
        let m2 = Matrix::from_rows(&[vec![0.9, 0.1, 0.4], vec![0.1, 0.9, -0.4]]);
        let sigs = SchemaSignatures::from_matrices(vec![m1, m2], vec!["a".into(), "b".into()]);
        let run = CollaborativeScoper::new(1.0).run(&sigs).unwrap();
        assert_eq!(run.outcome.len(), 4);
        for model in &run.models {
            assert!(model.n_components() <= 2);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let sigs = shared_and_disjoint();
        let a = CollaborativeScoper::new(0.75).run(&sigs).unwrap();
        let b = CollaborativeScoper::new(0.75).run(&sigs).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.accept_votes, b.accept_votes);
    }
}
