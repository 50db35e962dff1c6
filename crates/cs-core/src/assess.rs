//! Phase III: the one **assessment kernel** (Algorithm 2, Definition 4).
//!
//! Element `e` of schema `k` gets one vote from every *foreign* model `m`
//! whose reconstruction error stays within that model's local
//! linkability range, `err_m(e) ≤ l_m`; the [`CombinationRule`] then
//! decides (ANY in the paper). Every caller goes through this module:
//!
//! - [`assess`] — trained models in, [`CollaborativeRun`] out; the PCA
//!   and neural scopers, model exchange and the ablations call it;
//! - the crate-private `Tally` fold and `assemble` step — the `v`
//!   sweep feeds a votes-only tally the acceptance bits it cached at
//!   prepare time.
//!
//! Any model kind plugs in through the small [`LocalAssessor`] trait.

use std::sync::Arc;

use crate::collaborative::{CollaborativeRun, CombinationRule, CostReport};
use crate::error::ScopingError;
use crate::outcome::ScopingOutcome;
use crate::pool::ExecPolicy;
use crate::signatures::SchemaSignatures;
use cs_linalg::Matrix;
use cs_schema::ElementId;

/// A trained local encoder–decoder `{model_k, l_k}` as the assessment
/// sees it: which schema trained it, its local linkability range, and
/// the reconstruction error it assigns to signatures.
pub trait LocalAssessor {
    /// Index of the schema this model was trained on.
    fn schema_index(&self) -> usize;

    /// The local linkability range `l_k` (Definition 3).
    fn linkability_range(&self) -> f64;

    /// Reconstruction MSE of each row of `foreign` under this model (the
    /// score of Definition 4).
    fn reconstruction_errors(&self, foreign: &Matrix) -> Vec<f64>;

    /// Definition 4 for one model: which rows of `foreign` it recognizes
    /// as linkable (`MSE ≤ l_k`).
    fn assess(&self, foreign: &Matrix) -> Vec<bool> {
        let range = self.linkability_range();
        self.reconstruction_errors(foreign)
            .into_iter()
            .map(|err| err <= range)
            .collect()
    }
}

/// One schema's votes, folded over its foreign models.
pub(crate) struct Tally {
    /// Per element: how many foreign models accepted it.
    votes: Vec<usize>,
    /// Per element: `min_m (err_m − l_m)`, from `+∞`; empty for a
    /// votes-only tally, which never sees an error.
    margin: Vec<f64>,
    /// A degraded schema has no model; its elements are pruned wholesale.
    degraded: bool,
}

impl Tally {
    /// An empty tally for a schema of `n` elements.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            votes: vec![0; n],
            margin: vec![f64::INFINITY; n],
            degraded: false,
        }
    }

    /// An empty tally that counts votes only (see [`Self::fold_votes`]).
    pub(crate) fn votes_only(n: usize) -> Self {
        Self {
            votes: vec![0; n],
            margin: Vec::new(),
            degraded: false,
        }
    }

    /// The votes-only tally of a degraded schema of `n` elements: no
    /// votes, and every element pruned whatever the rule.
    pub(crate) fn degraded(n: usize) -> Self {
        Self {
            degraded: true,
            ..Self::votes_only(n)
        }
    }

    /// Folds one foreign model's per-element errors against its range.
    /// Callers fold models in ascending index, so margins are bit-stable.
    pub(crate) fn fold(&mut self, errors: impl IntoIterator<Item = f64>, range: f64) {
        for ((votes, margin), err) in self.votes.iter_mut().zip(&mut self.margin).zip(errors) {
            if err <= range {
                *votes += 1;
            }
            let m = err - range;
            if m < *margin {
                *margin = m;
            }
        }
    }

    /// Folds one foreign model's per-element verdicts (`err ≤ l`, decided
    /// by the caller) into a votes-only tally.
    pub(crate) fn fold_votes(&mut self, accepted: impl IntoIterator<Item = bool>) {
        for (votes, accepted) in self.votes.iter_mut().zip(accepted) {
            *votes += usize::from(accepted);
        }
    }
}

/// The assembled decision of one assessment.
pub(crate) struct Assembled {
    pub(crate) outcome: ScopingOutcome,
    pub(crate) accept_votes: Vec<usize>,
    /// Margins in unified element order; only votes-only tallies leave
    /// their elements out.
    pub(crate) best_margin: Vec<f64>,
    pub(crate) cost: CostReport,
}

/// Applies `rule` to per-schema tallies (in schema order) with `foreign`
/// voters per element, and lays the result out in unified element order.
pub(crate) fn assemble(
    tallies: Vec<Tally>,
    rule: CombinationRule,
    foreign: usize,
    label: impl Into<String>,
    element_ids: Vec<ElementId>,
) -> Assembled {
    let n = element_ids.len();
    let mut decisions = Vec::with_capacity(n);
    let mut accept_votes = Vec::with_capacity(n);
    let mut best_margin = Vec::with_capacity(n);
    let mut cost = CostReport {
        pass_operations: 0,
        models_trained: 0,
    };
    for tally in tallies {
        if tally.degraded {
            decisions.extend(std::iter::repeat_n(false, tally.votes.len()));
        } else {
            decisions.extend(tally.votes.iter().map(|&a| rule.decide(a, foreign)));
            cost.pass_operations += tally.votes.len() * foreign;
            cost.models_trained += 1;
        }
        accept_votes.extend(tally.votes);
        best_margin.extend(tally.margin);
    }
    Assembled {
        outcome: ScopingOutcome::new(label, element_ids, decisions),
        accept_votes,
        best_margin,
        cost,
    }
}

/// Collaborative assessment of every schema against every foreign model
/// (Algorithm 2), fanned out per schema under `exec` and handed back with
/// the models. `models[k]` must be schema `k`'s own model; whether they
/// were trained here or received over the wire does not matter.
///
/// # Errors
/// [`ScopingError::TooFewSchemas`] for fewer than two schemas;
/// [`ScopingError::InvalidParameter`] named `"models"` unless there is
/// exactly one model per schema in schema order (the value is the first
/// position that does not hold its own schema's model);
/// [`ScopingError::WorkerPanicked`] if a worker panicked.
pub fn assess<A>(
    signatures: &SchemaSignatures,
    models: Vec<A>,
    rule: CombinationRule,
    exec: &ExecPolicy,
    label: impl Into<String>,
) -> Result<CollaborativeRun<A>, ScopingError>
where
    A: LocalAssessor + Clone + Send + Sync + 'static,
{
    let k = signatures.schema_count();
    if k < 2 {
        return Err(ScopingError::TooFewSchemas { found: k });
    }
    // The first position that does not hold its own schema's model.
    let misplaced = (0..k.max(models.len()))
        .find(|&i| i >= k || models.get(i).map(|m| m.schema_index()) != Some(i));
    if let Some(i) = misplaced {
        return Err(ScopingError::InvalidParameter {
            name: "models",
            value: i as f64,
        });
    }
    let models = Arc::new(models);
    let sigs = signatures.clone(); // Arc bump, not a data copy
    let shared = Arc::clone(&models);
    let tallies = exec.run_slots(k, move |sk| {
        let own = sigs.schema(sk);
        let mut tally = Tally::new(own.rows());
        for (m, model) in shared.iter().enumerate() {
            if m != sk {
                tally.fold(model.reconstruction_errors(own), model.linkability_range());
            }
        }
        tally
    })?;
    let assembled = assemble(tallies, rule, k - 1, label, signatures.element_ids());
    // Workers may still be dropping their Arc clones for an instant
    // after the last result lands; fall back to a clone in that case.
    let models = Arc::try_unwrap(models).unwrap_or_else(|shared| (*shared).clone());
    Ok(CollaborativeRun {
        outcome: assembled.outcome,
        accept_votes: assembled.accept_votes,
        best_margin: assembled.best_margin,
        models,
        cost: assembled.cost,
    })
}

/// The kernel contract for any model kind, checked under every rule on
/// `models`: votes are bounded by the foreign-model count, decisions are
/// the rule applied to the votes, and a non-positive margin means some
/// model voted.
#[cfg(test)]
pub(crate) fn assert_kernel_contract<A>(signatures: &SchemaSignatures, models: Vec<A>)
where
    A: LocalAssessor + Clone + Send + Sync + 'static,
{
    let foreign = models.len() - 1;
    for rule in [
        CombinationRule::Any,
        CombinationRule::All,
        CombinationRule::AtLeast(2),
    ] {
        let run = assess(
            signatures,
            models.clone(),
            rule,
            &ExecPolicy::Sequential,
            "",
        )
        .expect("valid models");
        for (i, &votes) in run.accept_votes.iter().enumerate() {
            assert!(votes <= foreign, "element {i}: {votes} votes");
            assert_eq!(run.outcome.decisions[i], rule.decide(votes, foreign));
            assert_eq!(run.best_margin[i] <= 0.0, votes >= 1, "element {i}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collaborative::CollaborativeScoper;
    use cs_linalg::Xoshiro256;

    fn three_schemas() -> SchemaSignatures {
        let mut rng = Xoshiro256::seed_from(17);
        let mats = [9usize, 11, 7]
            .iter()
            .map(|&n| Matrix::from_fn(n, 6, |_, _| rng.next_gaussian()))
            .collect();
        SchemaSignatures::from_matrices(mats, vec!["A".into(), "B".into(), "C".into()])
    }

    #[test]
    fn missing_or_misordered_models_are_typed_errors() {
        let sigs = three_schemas();
        let models = CollaborativeScoper::new(0.7).train_models(&sigs).unwrap();
        let err = |sigs: &SchemaSignatures, models: Vec<_>| {
            assess(
                sigs,
                models,
                CombinationRule::Any,
                &ExecPolicy::Sequential,
                "",
            )
            .unwrap_err()
        };
        let invalid = |value| ScopingError::InvalidParameter {
            name: "models",
            value,
        };
        assert_eq!(err(&sigs, models[..2].to_vec()), invalid(2.0));
        let mut swapped = models.clone();
        swapped.swap(1, 2);
        assert_eq!(err(&sigs, swapped), invalid(1.0));
        let one = SchemaSignatures::from_matrices(vec![sigs.schema(0).clone()], vec!["A".into()]);
        assert_eq!(
            err(&one, models[..1].to_vec()),
            ScopingError::TooFewSchemas { found: 1 }
        );
    }

    #[test]
    fn degraded_tally_prunes_whatever_the_rule() {
        let ids = three_schemas().element_ids();
        let tallies = vec![
            Tally::votes_only(9),
            Tally::degraded(11),
            Tally::votes_only(7),
        ];
        let got = assemble(tallies, CombinationRule::AtLeast(0), 1, "", ids);
        assert_eq!(got.outcome.kept_in_schema(1), 0);
        assert_eq!(got.outcome.kept_count(), 16);
        assert_eq!(got.cost.pass_operations, 16);
        assert_eq!(got.cost.models_trained, 2);
        assert!(got.best_margin.is_empty());
    }

    #[test]
    fn votes_only_fold_counts_what_the_error_fold_counts() {
        let models: [(&[f64], f64); 3] = [
            (&[0.1, 0.5, 0.3, 0.2], 0.3),
            (&[0.4, 0.4, 0.0, 0.9], 0.4),
            (&[1.0, 0.0, 0.25, 0.3], 0.2),
        ];
        let mut full = Tally::new(4);
        let mut votes = Tally::votes_only(4);
        for (errors, range) in models {
            full.fold(errors.iter().copied(), range);
            votes.fold_votes(errors.iter().map(|&e| e <= range));
        }
        assert_eq!(votes.votes, full.votes);
        assert_eq!(votes.votes, [2, 2, 2, 1]);
        assert!(votes.margin.is_empty());
    }
}
