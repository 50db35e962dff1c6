//! Diagnostic: per-element collaborative-scoping decisions at one `v`.
//!
//! Usage: `inspect [--dataset oc3|oc3-fo] [--v 0.8]`
//! Prints false positives and false negatives with qualified names —
//! the tool for understanding *why* an element was kept or pruned.

use cs_core::{CollaborativeScoper, LocalAssessor};
use cs_repro::experiments::dataset_signatures;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let dataset = match get("--dataset", "oc3-fo").as_str() {
        "oc3" => cs_datasets::oc3(),
        _ => cs_datasets::oc3_fo(),
    };
    let v: f64 = get("--v", "0.8").parse().expect("--v takes a float");

    let signatures = dataset_signatures(&dataset);
    let labels = dataset.labels();
    let run = CollaborativeScoper::new(v)
        .run(&signatures)
        .expect("valid dataset");

    println!(
        "{} at v={v}: kept {}/{} elements; models retain {:?} components; ranges {:?}",
        dataset.name,
        run.outcome.kept_count(),
        run.outcome.len(),
        run.models
            .iter()
            .map(|m| m.n_components())
            .collect::<Vec<_>>(),
        run.models
            .iter()
            .map(|m| format!("{:.4}", m.linkability_range()))
            .collect::<Vec<_>>(),
    );

    let mut fps = Vec::new();
    let mut fns = Vec::new();
    for (i, id) in run.outcome.element_ids.iter().enumerate() {
        let name = dataset.catalog.info(*id).qualified_name;
        let margin = run.best_margin[i];
        match (run.outcome.decisions[i], labels[i]) {
            (true, false) => fps.push(format!("  FP {name} (margin {margin:+.4})")),
            (false, true) => fns.push(format!("  FN {name} (margin {margin:+.4})")),
            _ => {}
        }
    }
    println!("\nfalse positives ({}):", fps.len());
    for l in &fps {
        println!("{l}");
    }
    println!("\nfalse negatives ({}):", fns.len());
    for l in &fns {
        println!("{l}");
    }
}
