//! Quality-side ablations of the design decisions DESIGN.md §5 calls out:
//!
//! 1. local linkability range `l_k` vs relaxed `l_k·(1+ε)`,
//! 2. combination rule: ANY (the paper) vs ALL vs majority voting,
//! 3. signature composition: full metadata vs names only.
//!
//! Each variant reports AUC-F1 / AUC-PR over the `v` grid on both datasets.

use cs_core::assess::{assess, LocalAssessor};
use cs_core::{
    encode_catalog_with, CollaborativeScoper, CombinationRule, ExecPolicy, LocalModel,
    SchemaSignatures,
};
use cs_linalg::Matrix;
use cs_metrics::{BinaryConfusion, SweepCurve};
use cs_repro::experiments::{dataset_signatures, v_grid};
use cs_repro::report::{pct, render_table};
use cs_schema::SerializeOptions;

const STEPS: usize = 25;

/// A local model judged against the relaxed range `l_k + l_k·frac`.
#[derive(Clone)]
struct Relaxed {
    model: LocalModel,
    range: f64,
}

impl LocalAssessor for Relaxed {
    fn schema_index(&self) -> usize {
        self.model.schema_index()
    }

    fn linkability_range(&self) -> f64 {
        self.range
    }

    fn reconstruction_errors(&self, foreign: &Matrix) -> Vec<f64> {
        self.model.reconstruction_errors(foreign)
    }
}

fn sweep_with(
    signatures: &SchemaSignatures,
    labels: &[bool],
    rule: CombinationRule,
    epsilon_frac: f64,
) -> SweepCurve {
    let mut curve = SweepCurve::new();
    for v in v_grid(STEPS) {
        let models = CollaborativeScoper::new(v)
            .train_models(signatures)
            .expect("valid dataset")
            .into_iter()
            .map(|model| {
                let l = model.linkability_range();
                Relaxed {
                    model,
                    range: l + l * epsilon_frac,
                }
            })
            .collect();
        let run = assess(signatures, models, rule, &ExecPolicy::Global, "ablation")
            .expect("valid dataset");
        curve.push(
            v,
            BinaryConfusion::from_labels(&run.outcome.decisions, labels),
        );
    }
    curve
}

fn main() {
    for ds in [cs_datasets::oc3(), cs_datasets::oc3_fo()] {
        println!("Ablations — {} (grid {STEPS})\n", ds.name);
        let labels = ds.labels();
        let signatures = dataset_signatures(&ds);
        let mut rows = Vec::new();
        let mut push = |name: &str, curve: &SweepCurve| {
            rows.push(vec![
                name.to_string(),
                pct(100.0 * curve.auc_f1()),
                pct(100.0 * curve.auc_pr()),
                pct(100.0 * curve.auc_roc_smoothed()),
            ]);
        };

        // 1. Linkability range strictness.
        push(
            "paper: l_k strict, rule=ANY",
            &sweep_with(&signatures, &labels, CombinationRule::Any, 0.0),
        );
        push(
            "relaxed l_k +10%",
            &sweep_with(&signatures, &labels, CombinationRule::Any, 0.10),
        );
        push(
            "relaxed l_k +50%",
            &sweep_with(&signatures, &labels, CombinationRule::Any, 0.50),
        );

        // 2. Combination rules.
        push(
            "rule=ALL",
            &sweep_with(&signatures, &labels, CombinationRule::All, 0.0),
        );
        push(
            "rule=AtLeast(2)",
            &sweep_with(&signatures, &labels, CombinationRule::AtLeast(2), 0.0),
        );

        // 3. Signature composition.
        let encoder = cs_embed::SignatureEncoder::default();
        let names_only =
            encode_catalog_with(&encoder, &ds.catalog, &SerializeOptions::names_only());
        push(
            "names-only serialization",
            &sweep_with(&names_only, &labels, CombinationRule::Any, 0.0),
        );
        let no_types = SerializeOptions {
            data_type: false,
            constraint: false,
            ..Default::default()
        };
        let no_types_sigs = encode_catalog_with(&encoder, &ds.catalog, &no_types);
        push(
            "no type/constraint words",
            &sweep_with(&no_types_sigs, &labels, CombinationRule::Any, 0.0),
        );

        println!(
            "{}",
            render_table(&["Variant", "AUC-F1", "AUC-PR", "AUC-ROC'"], &rows)
        );
    }
}
