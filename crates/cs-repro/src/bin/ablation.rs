//! Quality-side ablations of the design decisions DESIGN.md §5 calls out:
//!
//! 1. local linkability range `l_k` vs relaxed `l_k·(1+ε)`,
//! 2. combination rule: ANY (the paper) vs ALL vs majority voting,
//! 3. signature composition: full metadata vs names only.
//!
//! Each variant reports AUC-F1 / AUC-PR over the `v` grid on both datasets.

use cs_repro::goldens::{self, ABLATION_STEPS};
use cs_repro::report::{pct, render_table};

fn main() {
    let t = goldens::ablation();
    for (name, variants) in &t.per_dataset {
        println!("Ablations — {name} (grid {ABLATION_STEPS})\n");
        let rows: Vec<Vec<String>> = variants
            .iter()
            .map(|(variant, curve)| {
                vec![
                    variant.clone(),
                    pct(100.0 * curve.auc_f1()),
                    pct(100.0 * curve.auc_pr()),
                    pct(100.0 * curve.auc_roc_smoothed()),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["Variant", "AUC-F1", "AUC-PR", "AUC-ROC'"], &rows)
        );
    }
    let path = format!("{}/ablation.csv", cs_repro::RESULTS_DIR);
    t.csv.write_to(&path).expect("write results CSV");
    println!("written: {path}");
}
