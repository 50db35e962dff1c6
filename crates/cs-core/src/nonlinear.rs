//! Non-linear local encoder–decoders — the paper's stated future work
//! ("we plan to extend encoder-decoders in order to recognize non-linear
//! signature patterns", Section 5).
//!
//! [`NeuralLocalModel`] swaps Algorithm 1's PCA for the dense autoencoder
//! of `cs-nn`, keeping everything else identical: the model trains
//! self-supervised on its own schema's signatures, the **local
//! linkability range** is still the maximum own reconstruction MSE
//! (Definition 3), and the collaborative assessment (Algorithm 2 /
//! Definition 4) is the same [`crate::assess`] kernel. The generalization
//! knob is the bottleneck width instead of the explained variance.

use crate::assess::{assess, LocalAssessor};
use crate::collaborative::{CollaborativeRun, CombinationRule};
use crate::error::ScopingError;
use crate::pool::ExecPolicy;
use crate::signatures::SchemaSignatures;
use cs_linalg::Matrix;
use cs_nn::{train_autoencoder, Mlp, TrainConfig};

/// A self-supervised neural local model: `{AE_k, l_k}`.
#[derive(Debug, Clone)]
pub struct NeuralLocalModel {
    schema_index: usize,
    network: Mlp,
    linkability_range: f64,
}

impl NeuralLocalModel {
    /// Trains an autoencoder on one schema's signatures and derives the
    /// local linkability range.
    pub fn train(
        schema_index: usize,
        signatures: &Matrix,
        config: &TrainConfig,
    ) -> Result<Self, ScopingError> {
        if signatures.rows() == 0 {
            return Err(ScopingError::EmptySchema {
                schema: schema_index,
            });
        }
        // Per-schema seed offset keeps runs independent yet deterministic.
        let cfg = TrainConfig {
            seed: config.seed.wrapping_add(schema_index as u64 * 0x9E37_79B9),
            ..config.clone()
        };
        let network = train_autoencoder(signatures, &cfg);
        let own = cs_nn::train::reconstruction_errors(&network, signatures);
        let linkability_range = own.into_iter().fold(0.0, f64::max);
        Ok(Self {
            schema_index,
            network,
            linkability_range,
        })
    }

    /// The trained network.
    pub fn network(&self) -> &Mlp {
        &self.network
    }
}

impl LocalAssessor for NeuralLocalModel {
    fn schema_index(&self) -> usize {
        self.schema_index
    }

    fn linkability_range(&self) -> f64 {
        self.linkability_range
    }

    fn reconstruction_errors(&self, foreign: &Matrix) -> Vec<f64> {
        cs_nn::train::reconstruction_errors(&self.network, foreign)
    }
}

/// Collaborative scoping with neural local models.
#[derive(Debug, Clone)]
pub struct NeuralCollaborativeScoper {
    config: TrainConfig,
    rule: CombinationRule,
}

impl NeuralCollaborativeScoper {
    /// Creates a scoper with the given training configuration and the
    /// paper's ANY combination rule.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            rule: CombinationRule::Any,
        }
    }

    /// Overrides the combination rule.
    pub fn with_rule(mut self, rule: CombinationRule) -> Self {
        self.rule = rule;
        self
    }

    /// Trains per-schema autoencoders and assesses collaboratively, both
    /// on the shared pool.
    pub fn run(
        &self,
        signatures: &SchemaSignatures,
    ) -> Result<CollaborativeRun<NeuralLocalModel>, ScopingError> {
        let k = signatures.schema_count();
        if k < 2 {
            return Err(ScopingError::TooFewSchemas { found: k });
        }
        let sigs = signatures.clone();
        let config = self.config.clone();
        let models: Vec<NeuralLocalModel> = ExecPolicy::Global
            .run_slots(k, move |idx| {
                NeuralLocalModel::train(idx, sigs.schema(idx), &config)
            })?
            .into_iter()
            .collect::<Result<_, _>>()?;
        assess(
            signatures,
            models,
            self.rule,
            &ExecPolicy::Global,
            format!("Collaborative[AE {:?}]", self.config.hidden),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::Xoshiro256;

    fn quick_config() -> TrainConfig {
        TrainConfig {
            hidden: vec![8, 3, 8],
            epochs: 150,
            batch_size: 16,
            learning_rate: 5e-3,
            seed: 21,
        }
    }

    /// Two schemas on a shared subspace, one alien — dimensions kept small
    /// so the test trains in milliseconds.
    fn shared_and_disjoint() -> SchemaSignatures {
        let dim = 12;
        let mut rng = Xoshiro256::seed_from(5);
        let shared: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
            .collect();
        let alien: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..dim).map(|_| rng.next_gaussian()).collect())
            .collect();
        let make = |basis: &[Vec<f64>], n: usize, rng: &mut Xoshiro256| {
            Matrix::from_rows(
                &(0..n)
                    .map(|_| {
                        let mut row = vec![0.0; dim];
                        for b in basis {
                            cs_linalg::vecops::axpy(&mut row, rng.next_gaussian(), b);
                        }
                        row
                    })
                    .collect::<Vec<_>>(),
            )
        };
        let s1 = make(&shared, 20, &mut rng);
        let s2 = make(&shared, 22, &mut rng);
        let s3 = make(&alien, 18, &mut rng);
        SchemaSignatures::from_matrices(
            vec![s1, s2, s3],
            vec!["A".into(), "B".into(), "ALIEN".into()],
        )
    }

    #[test]
    fn neural_models_separate_shared_from_alien() {
        let sigs = shared_and_disjoint();
        let run = NeuralCollaborativeScoper::new(quick_config())
            .run(&sigs)
            .unwrap();
        let kept_a = run.outcome.kept_in_schema(0);
        let kept_b = run.outcome.kept_in_schema(1);
        let kept_alien = run.outcome.kept_in_schema(2);
        // Neural reconstruction is fuzzier than PCA; require a clear gap,
        // not perfection.
        let related = (kept_a + kept_b) as f64 / 42.0;
        let alien = kept_alien as f64 / 18.0;
        assert!(
            related > alien + 0.3,
            "related {related:.2} vs alien {alien:.2}"
        );
    }

    #[test]
    fn own_elements_pass_their_own_range() {
        let sigs = shared_and_disjoint();
        let model = NeuralLocalModel::train(0, sigs.schema(0), &quick_config()).unwrap();
        // By construction of l_k every training element passes.
        assert!(model.assess(sigs.schema(0)).iter().all(|&b| b));
        assert!(model.linkability_range() >= 0.0);
        assert_eq!(model.schema_index(), 0);
    }

    #[test]
    fn deterministic_per_config() {
        let sigs = shared_and_disjoint();
        let cfg = TrainConfig {
            epochs: 10,
            ..quick_config()
        };
        let a = NeuralCollaborativeScoper::new(cfg.clone())
            .run(&sigs)
            .unwrap();
        let b = NeuralCollaborativeScoper::new(cfg).run(&sigs).unwrap();
        assert_eq!(a.outcome.decisions, b.outcome.decisions);
        // The run assesses on the shared pool; inline assessment of the
        // same trained models must agree bit for bit.
        let inline = assess(
            &sigs,
            a.models.clone(),
            CombinationRule::Any,
            &ExecPolicy::Sequential,
            a.outcome.method.clone(),
        )
        .unwrap();
        assert_eq!(inline.outcome, a.outcome);
        assert_eq!(inline.accept_votes, a.accept_votes);
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&inline.best_margin), bits(&a.best_margin));
    }

    #[test]
    fn votes_and_margins_are_consistent_with_decisions() {
        let sigs = shared_and_disjoint();
        let cfg = TrainConfig {
            epochs: 20,
            ..quick_config()
        };
        let run = NeuralCollaborativeScoper::new(cfg).run(&sigs).unwrap();
        crate::assess::assert_kernel_contract(&sigs, run.models);
    }

    #[test]
    fn errors_propagate() {
        let one = SchemaSignatures::from_matrices(
            vec![Matrix::from_rows(&[vec![1.0, 2.0]])],
            vec!["only".into()],
        );
        assert!(matches!(
            NeuralCollaborativeScoper::new(quick_config()).run(&one),
            Err(ScopingError::TooFewSchemas { found: 1 })
        ));
        let with_empty = SchemaSignatures::from_matrices(
            vec![Matrix::from_rows(&[vec![1.0, 2.0]]), Matrix::zeros(0, 2)],
            vec!["a".into(), "b".into()],
        );
        assert!(matches!(
            NeuralCollaborativeScoper::new(quick_config()).run(&with_empty),
            Err(ScopingError::EmptySchema { schema: 1 })
        ));
    }

    #[test]
    fn cost_report_counts() {
        let sigs = shared_and_disjoint();
        let cfg = TrainConfig {
            epochs: 5,
            ..quick_config()
        };
        let run = NeuralCollaborativeScoper::new(cfg).run(&sigs).unwrap();
        assert_eq!(run.cost.pass_operations, 60 * 2);
        assert_eq!(run.cost.models_trained, 3);
    }
}
