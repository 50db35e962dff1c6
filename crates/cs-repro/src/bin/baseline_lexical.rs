//! Related-work baseline: lexical name matching vs semantic signatures.
//!
//! Section 2.2 of the paper argues that relying exclusively on string
//! similarity between schema names "suffers from labeling conflicts".
//! This binary quantifies that on the evaluation datasets: a token-trigram
//! Jaccard name matcher (the hybrid scoper's lexical channel, every pair
//! scoring at least 0.5) against the cosine SIM matcher, both with and
//! without collaborative streamlining.

use cs_repro::goldens;
use cs_repro::report::render_table;

fn main() {
    let t = goldens::baseline_lexical();
    for (name, rows) in &t.per_dataset {
        println!("Lexical vs semantic matching — {name}\n");
        let rows: Vec<Vec<String>> = rows
            .iter()
            .map(|(label, q)| {
                vec![
                    label.clone(),
                    format!("{:.3}", q.pq),
                    format!("{:.3}", q.pc),
                    format!("{:.3}", q.f1),
                    q.candidates.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["Matcher", "PQ", "PC", "F1", "candidates"], &rows)
        );
    }
    let path = format!("{}/baseline_lexical.csv", cs_repro::RESULTS_DIR);
    t.csv.write_to(&path).expect("write results CSV");
    println!("written: {path}");
}
