//! Regenerates Table 4: AUC-F1, AUC-ROC, AUC-ROC′, and AUC-PR of every
//! scoping method on OC3 and OC3-FO.
//!
//! Usage: `table4 [--full]` — `--full` uses the paper's autoencoder
//! ensemble (100 runs × 50 epochs; slow); the default uses a light
//! configuration (10 × 25) that preserves the ranking. Only the default
//! run writes the golden `results/table4.csv`; a `--full` run writes
//! `target/table4-full/table4.csv`, so it never overwrites the golden.

use cs_repro::experiments::DEFAULT_GRID_STEPS;
use cs_repro::goldens;
use cs_repro::report::{pct, render_table};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (ae_runs, ae_epochs) = if full { (100, 50) } else { (10, 25) };

    let t = goldens::table4(DEFAULT_GRID_STEPS, ae_runs, ae_epochs);
    for (name, rows) in &t.per_dataset {
        println!(
            "Table 4 — {name} (autoencoder {ae_runs}×{ae_epochs}, grid {DEFAULT_GRID_STEPS})\n"
        );
        let mut text_rows = Vec::new();
        for r in rows {
            text_rows.push(vec![
                r.method.clone(),
                pct(r.auc_f1),
                pct(r.auc_roc),
                pct(r.auc_roc_smoothed),
                pct(r.auc_pr),
            ]);
        }
        println!(
            "{}",
            render_table(
                &["Method", "AUC-F1", "AUC-ROC", "AUC-ROC'", "AUC-PR"],
                &text_rows
            )
        );

        // The paper's comparison row: best scoping vs collaborative.
        let collab = rows.last().expect("collaborative row present");
        let best_scoping = rows[..rows.len() - 1]
            .iter()
            .max_by(|a, b| cs_linalg::total_cmp_f64(&a.auc_pr, &b.auc_pr))
            .expect("scoping rows present");
        println!(
            "best scoping by AUC-PR: {} ({}); collaborative improvement: {:+.2}% AUC-F1, {:+.2}% AUC-ROC, {:+.2}% AUC-ROC', {:+.2}% AUC-PR\n",
            best_scoping.method,
            pct(best_scoping.auc_pr),
            collab.auc_f1 - best_scoping.auc_f1,
            collab.auc_roc - best_scoping.auc_roc,
            collab.auc_roc_smoothed - best_scoping.auc_roc_smoothed,
            collab.auc_pr - best_scoping.auc_pr,
        );
    }
    let dir = if full {
        "target/table4-full"
    } else {
        cs_repro::RESULTS_DIR
    };
    let path = format!("{dir}/table4.csv");
    t.csv.write_to(&path).expect("write results CSV");
    println!("written: {path}");
}
