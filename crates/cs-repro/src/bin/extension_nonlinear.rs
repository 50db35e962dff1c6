//! Future-work extension (paper §5): collaborative scoping with
//! **non-linear** local encoder–decoders (dense autoencoders) instead of
//! PCA, compared on both datasets across bottleneck widths.

use cs_repro::goldens::{self, EXTENSION_NONLINEAR_EPOCHS};
use cs_repro::report::{pct, render_table};

fn main() {
    let t = goldens::extension_nonlinear();
    for (name, rows) in &t.per_dataset {
        println!("Non-linear extension — {name} (epochs {EXTENSION_NONLINEAR_EPOCHS})\n");
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|(model, c)| {
                vec![
                    model.clone(),
                    pct(100.0 * c.precision()),
                    pct(100.0 * c.recall()),
                    pct(100.0 * c.f1()),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["Local model", "Precision", "Recall", "F1"], &rows)
        );
    }
    let path = format!("{}/extension_nonlinear.csv", cs_repro::RESULTS_DIR);
    t.csv.write_to(&path).expect("write results CSV");
    println!("written: {path}");
}
